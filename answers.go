package topkclean

import "github.com/probdb/topkclean/internal/topkq"

// Result bundles the three probabilistic top-k query answers and the
// quality score, all derived from a single PSR pass (the computation
// sharing of Section IV-C: the paper measures the quality overhead at as
// little as 6% of query time this way).
type Result struct {
	K         int
	Threshold float64 // PT-k threshold used
	Version   uint64  // database version (snapshot epoch) the answers describe

	UKRanks    []RankedAnswer // most likely tuple per rank
	PTK        []ScoredAnswer // tuples with top-k probability >= Threshold
	GlobalTopK []ScoredAnswer // k tuples with the highest top-k probability

	Quality float64            // PWS-quality of the top-k query
	Eval    *QualityEvaluation // full TP evaluation (for cleaning)
	Info    *RankInfo          // the shared rank-probability information
}

// FormatScored renders a scored answer list like "{t1, t2, t5}".
func FormatScored(answers []ScoredAnswer) string { return topkq.FormatScored(answers) }

// FormatRanked renders a U-kRanks answer list like "1:t2 2:t2".
func FormatRanked(answers []RankedAnswer) string { return topkq.FormatRanked(answers) }
