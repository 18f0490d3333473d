package topkclean

import (
	"github.com/probdb/topkclean/internal/memo"
	"github.com/probdb/topkclean/internal/topkq"
)

// Result bundles the three probabilistic top-k query answers and the
// quality score, all derived from a single PSR pass (the computation
// sharing of Section IV-C). The sharded cluster answers with the same
// type.
type Result = memo.Result

// FormatScored renders a scored answer list like "{t1, t2, t5}".
func FormatScored(answers []ScoredAnswer) string { return topkq.FormatScored(answers) }

// FormatRanked renders a U-kRanks answer list like "1:t2 2:t2".
func FormatRanked(answers []RankedAnswer) string { return topkq.FormatRanked(answers) }
