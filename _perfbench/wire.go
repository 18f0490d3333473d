package main

import (
	"fmt"

	topkclean "github.com/probdb/topkclean"
	"github.com/probdb/topkclean/internal/topkq"
)

// The daemon's wire types, field for field and tag for tag, so the
// in-process replay encodes exactly the bytes topkcleand answers with and
// every response can be compared byte for byte.

type answerJSON struct {
	H     int     `json:"h,omitempty"`
	ID    string  `json:"id"`
	Score float64 `json:"score"`
	Rank  int     `json:"rank"`
	Prob  float64 `json:"prob"`
}

type topkResponse struct {
	Version    uint64       `json:"version"`
	K          int          `json:"k"`
	Threshold  float64      `json:"threshold"`
	Quality    float64      `json:"quality"`
	UKRanks    []answerJSON `json:"ukranks"`
	PTK        []answerJSON `json:"ptk"`
	GlobalTopK []answerJSON `json:"globaltopk"`
}

type qualityResponse struct {
	Version uint64  `json:"version"`
	K       int     `json:"k"`
	Quality float64 `json:"quality"`
}

type specJSON struct {
	Cost    int       `json:"cost,omitempty"`
	SCProb  float64   `json:"scprob,omitempty"`
	Costs   []int     `json:"costs,omitempty"`
	SCProbs []float64 `json:"scprobs,omitempty"`
}

type planRequest struct {
	Planner string   `json:"planner"`
	Budget  int      `json:"budget"`
	Spec    specJSON `json:"spec"`
}

type planResponse struct {
	Version             uint64         `json:"version"`
	Planner             string         `json:"planner"`
	Budget              int            `json:"budget"`
	Plan                map[string]int `json:"plan"`
	Ops                 int            `json:"ops"`
	Cost                int            `json:"cost"`
	ExpectedImprovement float64        `json:"expected_improvement"`
}

type applyRequest struct {
	Planner string   `json:"planner"`
	Budget  int      `json:"budget"`
	Spec    specJSON `json:"spec"`
	Seed    int64    `json:"seed,omitempty"`
}

type applyResponse struct {
	Version     uint64         `json:"version"`
	OpsUsed     int            `json:"ops_used"`
	CostUsed    int            `json:"cost_used"`
	Resolved    map[string]int `json:"resolved"`
	OldQuality  float64        `json:"old_quality"`
	NewQuality  float64        `json:"new_quality"`
	Improvement float64        `json:"improvement"`
}

type tupleJSON struct {
	ID    string    `json:"id"`
	Attrs []float64 `json:"attrs"`
	Prob  float64   `json:"prob"`
}

type mutateOp struct {
	Op     string      `json:"op"`
	Name   string      `json:"name,omitempty"`
	Tuples []tupleJSON `json:"tuples,omitempty"`
	Group  int         `json:"group,omitempty"`
	Probs  []float64   `json:"probs,omitempty"`
	Choice int         `json:"choice,omitempty"`
}

type mutateRequest struct {
	Ops []mutateOp `json:"ops"`
}

type mutateResponse struct {
	Version    uint64 `json:"version"`
	OpsApplied int    `json:"ops_applied"`
	XTuples    int    `json:"xtuples"`
	Tuples     int    `json:"tuples"`
}

type statsResponse struct {
	Version uint64 `json:"version"`
}

// topkBody builds the /topk response the daemon encodes for an answer
// bundle (unsharded or sharded: both carry the same answer slices).
func topkBody(version uint64, k int, threshold, quality float64, uk []topkq.RankedAnswer, ptk, gtk []topkq.ScoredAnswer) topkResponse {
	resp := topkResponse{
		Version:    version,
		K:          k,
		Threshold:  threshold,
		Quality:    quality,
		UKRanks:    make([]answerJSON, 0, len(uk)),
		PTK:        make([]answerJSON, 0, len(ptk)),
		GlobalTopK: make([]answerJSON, 0, len(gtk)),
	}
	for _, a := range uk {
		resp.UKRanks = append(resp.UKRanks, answerJSON{H: a.H, ID: a.ID, Score: a.Score, Rank: a.Rank, Prob: a.Prob})
	}
	for _, a := range ptk {
		resp.PTK = append(resp.PTK, answerJSON{ID: a.ID, Score: a.Score, Rank: a.Rank, Prob: a.Prob})
	}
	for _, a := range gtk {
		resp.GlobalTopK = append(resp.GlobalTopK, answerJSON{ID: a.ID, Score: a.Score, Rank: a.Rank, Prob: a.Prob})
	}
	return resp
}

// opSink is the mutation surface shared by the unsharded, durable and
// sharded batches, as in the daemon.
type opSink interface {
	InsertXTuple(name string, tuples ...topkclean.Tuple) error
	InsertAbsentXTuple(name string) error
	DeleteXTuple(l int) error
	Reweight(l int, probs []float64) error
	Collapse(l, choice int) error
}

// applyOps applies a /mutate op list to a batch the way the daemon does,
// returning how many ops succeeded.
func applyOps(b opSink, ops []mutateOp) (int, error) {
	for i, op := range ops {
		var err error
		switch op.Op {
		case "insert":
			ts := make([]topkclean.Tuple, len(op.Tuples))
			for j, tj := range op.Tuples {
				ts[j] = topkclean.Tuple{ID: tj.ID, Attrs: tj.Attrs, Prob: tj.Prob}
			}
			err = b.InsertXTuple(op.Name, ts...)
		case "insert_absent":
			err = b.InsertAbsentXTuple(op.Name)
		case "delete":
			err = b.DeleteXTuple(op.Group)
		case "reweight":
			err = b.Reweight(op.Group, op.Probs)
		case "collapse":
			err = b.Collapse(op.Group, op.Choice)
		default:
			err = fmt.Errorf("unknown op %q", op.Op)
		}
		if err != nil {
			return i, fmt.Errorf("op %d (%s): %w", i, op.Op, err)
		}
	}
	return len(ops), nil
}
