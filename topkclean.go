package topkclean

import (
	"fmt"

	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// Model types, re-exported from the implementation packages so callers need
// only this import.
type (
	// Database is an x-tuple probabilistic database.
	Database = uncertain.Database
	// Tuple is one alternative of an x-tuple.
	Tuple = uncertain.Tuple
	// XTuple is one uncertain entity (a set of mutually exclusive tuples).
	XTuple = uncertain.XTuple
	// Batch groups several mutations under one commit (one version bump,
	// one index fixup, one merged dirty-rank watermark); see Database.Batch.
	Batch = uncertain.Batch
	// RankFunc scores a tuple's attributes; higher scores rank higher.
	RankFunc = uncertain.RankFunc
	// DatabaseStats summarizes a database.
	DatabaseStats = uncertain.Stats

	// RankInfo carries rank-h and top-k probabilities for all tuples.
	RankInfo = topkq.RankInfo
	// RankedAnswer is a U-kRanks answer entry.
	RankedAnswer = topkq.RankedAnswer
	// ScoredAnswer is a PT-k or Global-topk answer entry.
	ScoredAnswer = topkq.ScoredAnswer

	// QualityEvaluation is the TP algorithm's output: the quality score plus
	// the per-x-tuple gains that drive cleaning decisions.
	QualityEvaluation = quality.Evaluation
	// PWResult is one possible top-k answer with its probability.
	PWResult = quality.PWResult
	// Distribution is a pw-result distribution.
	Distribution = quality.Distribution
)

// Ranking functions.
var (
	// ByFirstAttr ranks by the first attribute (larger is better).
	ByFirstAttr RankFunc = uncertain.ByFirstAttr
	// SumOfAttrs ranks by the sum of all attributes.
	SumOfAttrs RankFunc = uncertain.SumOfAttrs
)

// WeightedSum returns a RankFunc scoring sum_i w_i * attr_i.
func WeightedSum(weights ...float64) RankFunc { return uncertain.WeightedSum(weights...) }

// RankByName resolves a named built-in ranking function: "first"
// (ByFirstAttr; the empty name means the same) or "sum" (SumOfAttrs).
// These names are a persistent contract — the CLI's -rank flags and the
// serving daemon's tenant.json both store them, and a recovered database
// must be reopened with the function it was built with — so both
// binaries resolve through this one registry.
func RankByName(name string) (RankFunc, error) {
	switch name {
	case "", "first":
		return ByFirstAttr, nil
	case "sum":
		return SumOfAttrs, nil
	default:
		return nil, fmt.Errorf("topkclean: unknown rank function %q (want first|sum)", name)
	}
}

// NewDatabase returns an empty database; add x-tuples with AddXTuple and
// finalize with Build.
func NewDatabase() *Database { return uncertain.New() }

// QualityPWR computes the quality with the PWR algorithm (Algorithm 1),
// which enumerates pw-results directly. Exponential in k; useful for
// moderate k and as a cross-check.
func QualityPWR(db *Database, k int) (float64, error) {
	return quality.PWR(db, k)
}

// QualityPW computes the quality from the possible-world definition
// directly. Exponential in the number of x-tuples; only for tiny databases.
func QualityPW(db *Database, k int) (float64, error) {
	return quality.PW(db, k)
}

// PWResultDistribution returns all pw-results of the top-k query with their
// probabilities (via PWR), sorted by descending probability.
func PWResultDistribution(db *Database, k int) (Distribution, error) {
	return quality.PWRDist(db, k)
}

// RankProbabilities runs the PSR algorithm, returning rank-h and top-k
// probabilities for every tuple. The same RankInfo answers all three query
// semantics and the quality computation. The scan keeps of the rank-h
// probabilities only what U-kRanks answers with; RankInfo.Rho builds the
// full table on first use.
func RankProbabilities(db *Database, k int) (*RankInfo, error) {
	return topkq.RankProbabilities(db, k)
}

// UTopK evaluates the U-Topk query: the single most probable complete
// top-k answer vector (the mode of the pw-result distribution), computed
// exactly via the PWR search. Exponential in k like PWR; intended for
// moderate k.
func UTopK(db *Database, k int) (PWResult, error) {
	return quality.UTopK(db, k)
}
