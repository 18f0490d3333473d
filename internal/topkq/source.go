package topkq

import (
	"iter"

	"github.com/probdb/topkclean/internal/uncertain"
)

// Source is what one PSR pass (§IV-B) and one TP pass (§IV-C) read: the
// alternatives of an uncertain database in descending rank order, each
// paired with the index of its x-tuple. A *uncertain.Database is a Source
// whose group is Tuple.Group; the sharded coordinator's merge of per-shard
// rank orders is another, whose group is the global x-tuple index.
type Source interface {
	// NumTuples is the number of alternatives, nulls included.
	NumTuples() int
	// NumGroups is the number of x-tuples.
	NumGroups() int
	// GroupAt returns the x-tuple at group index g. Scan checkpoints key
	// their state by its identity (XTuple.Is).
	GroupAt(g int) *uncertain.XTuple
	// Ranked yields (alternative, group) from rank position pos down. A
	// scan stops it as soon as it has what it needs, so a lazy source
	// produces nothing past that point. Every null alternative comes after
	// every real one, so the nulls of any prefix are its tail: the scan
	// records where they start, and the answer passes pick among the
	// positions above it without reading the source.
	Ranked(pos int) iter.Seq2[*uncertain.Tuple, int]
	// AtRank returns the alternative at rank position pos, or nil past
	// the end: the one read an answer pass makes per answer.
	AtRank(pos int) *uncertain.Tuple
}

// Ready returns uncertain.ErrNotBuilt for a database that has not been
// built: its rank order does not exist yet. Every other source is ready.
func Ready(src Source) error {
	if db, ok := src.(*uncertain.Database); ok && !db.Built() {
		return uncertain.ErrNotBuilt
	}
	return nil
}
