package dataio

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/probdb/topkclean/internal/cleaning"
	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/testdb"
	"github.com/probdb/topkclean/internal/uncertain"
)

func TestCSVRoundTrip(t *testing.T) {
	db := testdb.UDB1()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, uncertain.ByFirstAttr)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDB(t, db, back)
}

func TestJSONRoundTrip(t *testing.T) {
	db := testdb.UDB1()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf, uncertain.ByFirstAttr)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDB(t, db, back)
}

func assertSameDB(t *testing.T, a, b *uncertain.Database) {
	t.Helper()
	if a.NumGroups() != b.NumGroups() || a.NumRealTuples() != b.NumRealTuples() {
		t.Fatalf("shape mismatch: %d/%d groups, %d/%d tuples",
			a.NumGroups(), b.NumGroups(), a.NumRealTuples(), b.NumRealTuples())
	}
	for gi, ga := range a.Groups() {
		gb := b.Groups()[gi]
		if ga.Name != gb.Name || len(ga.RealTuples()) != len(gb.RealTuples()) {
			t.Fatalf("group %d mismatch", gi)
		}
		for ti, ta := range ga.RealTuples() {
			tb := gb.RealTuples()[ti]
			if ta.ID != tb.ID || ta.Prob != tb.Prob || len(ta.Attrs) != len(tb.Attrs) {
				t.Fatalf("tuple mismatch: %+v vs %+v", ta, tb)
			}
			for ai := range ta.Attrs {
				if ta.Attrs[ai] != tb.Attrs[ai] {
					t.Fatalf("attr mismatch: %v vs %v", ta.Attrs, tb.Attrs)
				}
			}
		}
	}
	// The round-tripped database must answer queries identically.
	sa, err := quality.TP(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := quality.TP(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sa.S != sb.S {
		t.Fatalf("quality differs after round trip: %v vs %v", sa.S, sb.S)
	}
}

func TestJSONRoundTripWithAbsentGroup(t *testing.T) {
	db := uncertain.New()
	if err := db.AddAbsentXTuple("gone"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddXTuple("X", uncertain.Tuple{ID: "a", Attrs: []float64{1}, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf, uncertain.ByFirstAttr)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := back.Group(0)
	if !g.Absent() {
		t.Fatal("absent group lost in round trip")
	}
}

func TestCSVPreservesFullPrecision(t *testing.T) {
	db := uncertain.New()
	p := 0.30000000000000004 // not representable in short decimal
	if err := db.AddXTuple("X",
		uncertain.Tuple{ID: "a", Attrs: []float64{1.0 / 3.0}, Prob: p},
		uncertain.Tuple{ID: "b", Attrs: []float64{2.0 / 3.0}, Prob: 1 - p}); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, uncertain.ByFirstAttr)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.TupleByID("a").Prob; got != p {
		t.Fatalf("prob %v != %v after round trip", got, p)
	}
	if got := back.TupleByID("a").Attrs[0]; got != 1.0/3.0 {
		t.Fatalf("attr %v != 1/3 after round trip", got)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"bad header": "a,b,c\nx,t,0.5",
		"bad prob":   "xtuple,id,prob\nX,a,zero",
		"bad attr":   "xtuple,id,prob,attr0\nX,a,0.5,NaNish",
		"short row":  "xtuple,id,prob\nX,a",
		"bad model":  "xtuple,id,prob\nX,a,1.5",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), nil); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadCSVHandMade(t *testing.T) {
	in := `xtuple,id,prob,attr0
S1,t0,0.6,21
S1,t1,0.4,32
S2,t2,1.0,30
`
	db, err := ReadCSV(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumGroups() != 2 || db.NumRealTuples() != 3 {
		t.Fatalf("shape: %d groups %d tuples", db.NumGroups(), db.NumRealTuples())
	}
	if db.Sorted()[0].ID != "t1" {
		t.Fatalf("top tuple = %s, want t1", db.Sorted()[0].ID)
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{"), nil); err == nil {
		t.Error("truncated JSON should fail")
	}
	if _, err := ReadJSON(strings.NewReader(`{"xtuples":[{"name":"X","tuples":[{"id":"a","attrs":[1],"prob":2}]}]}`), nil); err == nil {
		t.Error("invalid probability should fail")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := cleaning.Spec{Costs: []int{1, 5, 10}, SCProbs: []float64{0.25, 0.5, 1}}
	var buf bytes.Buffer
	if err := WriteSpecJSON(&buf, spec); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSpecJSON(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.Costs {
		if back.Costs[i] != spec.Costs[i] || back.SCProbs[i] != spec.SCProbs[i] {
			t.Fatalf("spec mismatch at %d", i)
		}
	}
	// Wrong m fails validation.
	var buf2 bytes.Buffer
	_ = WriteSpecJSON(&buf2, spec)
	if _, err := ReadSpecJSON(&buf2, 4); err == nil {
		t.Error("spec with wrong length should fail")
	}
	// The file holds arrays only: a missing one is not a uniform zero, and
	// a uniform spec is not written.
	if _, err := ReadSpecJSON(strings.NewReader(`{"costs":[1,1]}`), 2); !errors.Is(err, cleaning.ErrSpecSize) {
		t.Errorf("spec without sc_probs: %v, want ErrSpecSize", err)
	}
	if err := WriteSpecJSON(io.Discard, cleaning.Spec{Cost: 1, SCProb: 1}); !errors.Is(err, cleaning.ErrSpecSize) {
		t.Errorf("writing a uniform spec: %v, want ErrSpecSize", err)
	}
}
