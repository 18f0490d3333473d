package cleaning

import (
	"container/heap"
	"context"
)

// greedyCancelStride is how many heap pops Greedy performs between
// cancellation checks.
const greedyCancelStride = 256

// GreedyContext implements the heuristic of Section V-D.4, honouring ctx
// cancellation: repeatedly take the cleaning operation with the highest
// score gamma_{l,j} = b(l,D,j) / c_l (expected improvement per unit cost)
// that still fits in the remaining budget. Because gamma_{l,j+1} <=
// gamma_{l,j} (Lemma 4), a heap seeded with each x-tuple's first operation
// and refilled with the successor of each taken operation yields operations
// in globally non-increasing gamma order. Runtime O(N log |Z|).
//
// For knapsack-type problems this greedy is known to be near-optimal on
// average [34], which Figure 6 confirms empirically.
//
// Cancellation is checked every few hundred heap pops; a cancelled ctx
// returns ctx.Err() with a nil plan.
func GreedyContext(ctx context.Context, c *Context) (Plan, error) {
	gains, err := c.validate()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	z := c.candidates(gains)
	remaining := c.Budget
	plan := Plan{}
	if len(z) == 0 || remaining == 0 {
		return plan, nil
	}
	h := make(gammaHeap, 0, len(z))
	for _, cand := range z {
		l := cand.Group
		g := MarginalGain(cand.Value, c.Spec.SCProbs[l], 1)
		if g <= 0 {
			continue
		}
		h = append(h, gammaItem{gamma: g / float64(c.Spec.Costs[l]), group: l, gain: cand.Value, j: 1})
	}
	heap.Init(&h)
	for pops := 0; h.Len() > 0 && remaining > 0; pops++ {
		if pops%greedyCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		item := heap.Pop(&h).(gammaItem)
		cost := c.Spec.Costs[item.group]
		if cost > remaining {
			// Neither this operation nor any later one for this x-tuple
			// (same cost) can fit; drop the whole chain.
			continue
		}
		remaining -= cost
		plan[item.group]++
		next := MarginalGain(item.gain, c.Spec.SCProbs[item.group], item.j+1)
		if next > gainFloor {
			heap.Push(&h, gammaItem{gamma: next / float64(cost), group: item.group, gain: item.gain, j: item.j + 1})
		}
	}
	return plan, nil
}

// AblationGreedyRescan is the heap-less greedy: at every step it re-scans
// all candidate x-tuples for the best gamma. O(C * |Z|) instead of
// O(N log |Z|). It produces exactly the same plans as GreedyContext (the
// scan order ties break identically) and exists to measure the heap's benefit
// and as an independent cross-check of the heap implementation.
func AblationGreedyRescan(c *Context) (Plan, error) {
	gains, err := c.validate()
	if err != nil {
		return nil, err
	}
	z := c.candidates(gains)
	remaining := c.Budget
	plan := Plan{}
	nextJ := make([]int, len(z)) // next operation index per candidate
	for i := range nextJ {
		nextJ[i] = 1
	}
	for remaining > 0 {
		best := -1
		bestGamma := 0.0
		for i, cand := range z {
			l := cand.Group
			if c.Spec.Costs[l] > remaining {
				continue
			}
			g := MarginalGain(cand.Value, c.Spec.SCProbs[l], nextJ[i])
			if g <= gainFloor {
				continue
			}
			// z ascends by x-tuple index, so strict > keeps the smallest
			// index on ties — the same tie-break as the heap's Less.
			gamma := g / float64(c.Spec.Costs[l])
			if gamma > bestGamma {
				best, bestGamma = i, gamma
			}
		}
		if best < 0 {
			break
		}
		l := z[best].Group
		plan[l]++
		nextJ[best]++
		remaining -= c.Spec.Costs[l]
	}
	return plan, nil
}

type gammaItem struct {
	gamma float64
	group int
	gain  float64 // g(l,D) of group, for the successor operation's gamma
	j     int
}

// gammaHeap is a max-heap on gamma; ties break on x-tuple index for
// determinism.
type gammaHeap []gammaItem

func (h gammaHeap) Len() int { return len(h) }
func (h gammaHeap) Less(i, j int) bool {
	if h[i].gamma != h[j].gamma {
		return h[i].gamma > h[j].gamma
	}
	return h[i].group < h[j].group
}
func (h gammaHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *gammaHeap) Push(x interface{}) { *h = append(*h, x.(gammaItem)) }
func (h *gammaHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
