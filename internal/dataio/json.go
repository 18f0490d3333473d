package dataio

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/probdb/topkclean/internal/cleaning"
	"github.com/probdb/topkclean/internal/uncertain"
)

// jsonDB is the JSON wire form of a probabilistic database.
type jsonDB struct {
	XTuples []jsonXTuple `json:"xtuples"`
}

type jsonXTuple struct {
	Name   string      `json:"name"`
	Absent bool        `json:"absent,omitempty"`
	Tuples []jsonTuple `json:"tuples,omitempty"`
}

type jsonTuple struct {
	ID    string    `json:"id"`
	Attrs []float64 `json:"attrs"`
	Prob  float64   `json:"prob"`
}

// WriteJSON writes the database (real tuples only) as indented JSON.
func WriteJSON(w io.Writer, db *uncertain.Database) error {
	doc := jsonDB{XTuples: make([]jsonXTuple, 0, db.NumGroups())}
	for _, g := range db.Groups() {
		jx := jsonXTuple{Name: g.Name, Absent: g.Absent()}
		for _, t := range g.RealTuples() {
			jx.Tuples = append(jx.Tuples, jsonTuple{ID: t.ID, Attrs: t.Attrs, Prob: t.Prob})
		}
		doc.XTuples = append(doc.XTuples, jx)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadJSON parses a JSON dataset and builds it with the given ranking
// function (nil ranks by the first attribute).
func ReadJSON(r io.Reader, rank uncertain.RankFunc) (*uncertain.Database, error) {
	var doc jsonDB
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("dataio: %w", err)
	}
	db := uncertain.New()
	for _, jx := range doc.XTuples {
		if jx.Absent || len(jx.Tuples) == 0 {
			if err := db.AddAbsentXTuple(jx.Name); err != nil {
				return nil, err
			}
			continue
		}
		ts := make([]uncertain.Tuple, len(jx.Tuples))
		for i, jt := range jx.Tuples {
			ts[i] = uncertain.Tuple{ID: jt.ID, Attrs: jt.Attrs, Prob: jt.Prob}
		}
		if err := db.AddXTuple(jx.Name, ts...); err != nil {
			return nil, err
		}
	}
	if err := db.Build(rank); err != nil {
		return nil, err
	}
	return db, nil
}

// jsonSpec is the JSON wire form of a cleaning spec.
type jsonSpec struct {
	Costs   []int     `json:"costs"`
	SCProbs []float64 `json:"sc_probs"`
}

// errSpecArrays refuses a spec without both per-x-tuple arrays: a spec
// file holds no uniform form, and a missing array would read as one with
// a zero value.
var errSpecArrays = fmt.Errorf("dataio: %w: a spec file holds per-x-tuple costs and sc-probabilities", cleaning.ErrSpecSize)

// WriteSpecJSON persists a cleaning spec. The file holds per-x-tuple
// arrays only: a spec in the uniform form (nil Costs or SCProbs) is
// refused; build its arrays with cleaning.UniformSpec.
func WriteSpecJSON(w io.Writer, spec cleaning.Spec) error {
	if spec.Costs == nil || spec.SCProbs == nil {
		return errSpecArrays
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonSpec{Costs: spec.Costs, SCProbs: spec.SCProbs})
}

// ReadSpecJSON loads a cleaning spec and validates it against m x-tuples.
func ReadSpecJSON(r io.Reader, m int) (cleaning.Spec, error) {
	var doc jsonSpec
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return cleaning.Spec{}, fmt.Errorf("dataio: %w", err)
	}
	spec := cleaning.Spec{Costs: doc.Costs, SCProbs: doc.SCProbs}
	if spec.Costs == nil || spec.SCProbs == nil {
		return cleaning.Spec{}, errSpecArrays
	}
	if err := spec.Validate(m); err != nil {
		return cleaning.Spec{}, err
	}
	return spec, nil
}
