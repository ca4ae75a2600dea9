package matching

import "obm/internal/trace"

// IteratedMWM computes a maximum-weight b-matching heuristically by running
// b rounds of (1-)maximum-weight matching and uniting the rounds, removing
// matched edges and capacity-exhausted nodes between rounds. This is the
// construction behind the paper's SO-BMA baseline (the paper applies
// NetworkX's blossom matching; with b > 1 switches, each switch provides
// one matching, so the union of b disjoint matchings models the b optical
// switches exactly). Each round adds at most one edge per node, so the
// result is always a valid b-matching.
func IteratedMWM(n int, edges []WeightedEdge, b int) []trace.PairKey {
	if b < 1 {
		panic("matching: IteratedMWM requires b >= 1")
	}
	remaining := make([]WeightedEdge, 0, len(edges))
	for _, e := range edges {
		if e.W > 0 {
			remaining = append(remaining, e)
		}
	}
	capacity := make([]int, n)
	for i := range capacity {
		capacity[i] = b
	}
	var out []trace.PairKey
	for round := 0; round < b && len(remaining) > 0; round++ {
		mate := MaxWeightMatching(n, remaining, false)
		chosen := make(map[trace.PairKey]struct{})
		for v := 0; v < n; v++ {
			if mate[v] > v {
				k := trace.MakePairKey(v, mate[v])
				chosen[k] = struct{}{}
				out = append(out, k)
				capacity[v]--
				capacity[mate[v]]--
			}
		}
		if len(chosen) == 0 {
			break
		}
		next := remaining[:0]
		for _, e := range remaining {
			if _, picked := chosen[trace.MakePairKey(e.U, e.V)]; picked {
				continue
			}
			if capacity[e.U] == 0 || capacity[e.V] == 0 {
				continue
			}
			next = append(next, e)
		}
		remaining = next
	}
	return out
}
