package matching

import (
	"sort"

	"obm/internal/trace"
)

// Reference algorithms the tests check IteratedMWM and the blossom solver
// against.

// greedyBMatching computes a b-matching by scanning edges in order of
// decreasing weight and taking every edge whose endpoints both have spare
// capacity. A classic 1/2-approximation of maximum-weight b-matching;
// used as a fast baseline and as a sanity lower bound for IteratedMWM.
func greedyBMatching(n int, edges []WeightedEdge, b int) []trace.PairKey {
	if b < 1 {
		panic("matching: greedyBMatching requires b >= 1")
	}
	sorted := append([]WeightedEdge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].W != sorted[j].W {
			return sorted[i].W > sorted[j].W
		}
		// Deterministic tie-break.
		if sorted[i].U != sorted[j].U {
			return sorted[i].U < sorted[j].U
		}
		return sorted[i].V < sorted[j].V
	})
	deg := make([]int, n)
	var out []trace.PairKey
	for _, e := range sorted {
		if e.W <= 0 {
			break
		}
		if deg[e.U] < b && deg[e.V] < b {
			deg[e.U]++
			deg[e.V]++
			out = append(out, trace.MakePairKey(e.U, e.V))
		}
	}
	return out
}

// totalWeight sums the weights of the selected pairs given a weight lookup.
func totalWeight(pairs []trace.PairKey, weight map[trace.PairKey]float64) float64 {
	var s float64
	for _, k := range pairs {
		s += weight[k]
	}
	return s
}

// bruteForce computes the exact maximum-weight b-matching value by
// exhaustive search over edge subsets (b = 1: maximum-weight matching).
// Exponential; for cross-validation on small graphs only.
func bruteForce(n int, edges []WeightedEdge, b int) float64 {
	if len(edges) > 24 {
		panic("matching: brute force limited to 24 edges")
	}
	deg := make([]int, n)
	var best float64
	var rec func(i int, cur float64)
	rec = func(i int, cur float64) {
		if cur > best {
			best = cur
		}
		if i == len(edges) {
			return
		}
		// Skip edge i.
		rec(i+1, cur)
		// Take edge i if feasible.
		e := edges[i]
		if deg[e.U] < b && deg[e.V] < b {
			deg[e.U]++
			deg[e.V]++
			rec(i+1, cur+e.W)
			deg[e.U]--
			deg[e.V]--
		}
	}
	rec(0, 0)
	return best
}
