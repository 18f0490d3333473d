package uncertain_test

import (
	"fmt"
	"testing"

	"github.com/probdb/topkclean/internal/gen"
	"github.com/probdb/topkclean/internal/uncertain"
)

// wireCodecs are the encodings the wire benchmarks compare: v2, which
// EncodeWire writes, and the v1 JSON document DecodeWire still reads.
var wireCodecs = []struct {
	name   string
	encode func(*uncertain.Database) ([]byte, error)
}{
	{"v2", uncertain.EncodeWire},
	{"v1", uncertain.EncodeWireV1},
}

// BenchmarkEncodeWire times one full-state encode — what every checkpoint
// and store.Create pays — on the paper's synthetic data at 10^4 and 10^5
// x-tuples, and reports the encoding's size.
func BenchmarkEncodeWire(b *testing.B) {
	for _, m := range []int{10_000, 100_000} {
		db, err := gen.SyntheticSized(m, 42)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range wireCodecs {
			b.Run(fmt.Sprintf("m=%d/%s", m, c.name), func(b *testing.B) {
				b.ReportAllocs()
				var size int
				for i := 0; i < b.N; i++ {
					data, err := c.encode(db)
					if err != nil {
						b.Fatal(err)
					}
					size = len(data)
				}
				b.ReportMetric(float64(size), "bytes")
			})
		}
	}
}

// BenchmarkDecodeWire times one full-state decode — what Open and a
// replica resync pay per checkpoint — of each encoding of the same
// databases.
func BenchmarkDecodeWire(b *testing.B) {
	for _, m := range []int{10_000, 100_000} {
		db, err := gen.SyntheticSized(m, 42)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range wireCodecs {
			data, err := c.encode(db)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("m=%d/%s", m, c.name), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					if _, err := uncertain.DecodeWire(data, uncertain.ByFirstAttr); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
