package sim

import (
	"fmt"
	"sort"

	"obm/internal/core"
	"obm/internal/graph"
	"obm/internal/trace"
)

// Utilization summarizes how traffic loaded the network during a run:
// requests served by matching edges bypass the static fabric entirely; the
// rest load every static link on their shortest path. The paper's
// "bandwidth tax" argument (§1.1) is exactly that lower routing cost means
// less static-fabric load; this report makes the per-link picture explicit.
type Utilization struct {
	// MatchedFraction is the share of requests served on matching edges.
	MatchedFraction float64
	// StaticLinkLoads maps "u-v" static links (graph node ids, u < v) to
	// the number of requests that crossed them.
	StaticLinkLoads map[[2]int]float64
	// MaxLinkLoad and MeanLinkLoad summarize StaticLinkLoads over links
	// that carried any traffic.
	MaxLinkLoad  float64
	MeanLinkLoad float64
	// HottestLinks lists the top-k loaded links in descending order.
	HottestLinks [][2]int
}

// RunWithUtilization replays tr through alg like Run while additionally
// tracking per-link load on the static topology top (whose metric must be
// the one inside the algorithm's cost model).
func RunWithUtilization(alg core.Algorithm, tr *trace.Trace, alpha float64, top *graph.Topology) (RunResult, Utilization, error) {
	if err := tr.Validate(); err != nil {
		return RunResult{}, Utilization{}, err
	}
	if top.NumRacks() < tr.NumRacks {
		return RunResult{}, Utilization{}, fmt.Errorf("sim: topology has %d racks, trace needs %d",
			top.NumRacks(), tr.NumRacks)
	}
	oracle := top.Paths()
	loads := make(map[[2]int]float64)
	matched := 0
	var in Incremental
	in.Init(alg, alpha)
	for _, req := range tr.Reqs {
		u, v := int(req.Src), int(req.Dst)
		wasMatched := alg.Matched(u, v)
		in.FeedRaw(u, v)
		if wasMatched {
			matched++
			continue
		}
		oracle.VisitPathEdges(u, v, func(a, b int) {
			if a > b {
				a, b = b, a
			}
			loads[[2]int{a, b}]++
		})
	}
	c := in.Counters()
	res := RunResult{
		Series: Series{
			Label:    alg.Name(),
			X:        []int{tr.Len()},
			Routing:  []float64{c.Routing},
			Reconfig: []float64{c.Reconfig},
		},
		Adds:              c.Adds,
		Removals:          c.Removals,
		FinalMatchingSize: alg.MatchingSize(),
	}

	var util Utilization
	util.StaticLinkLoads = loads
	if tr.Len() > 0 {
		util.MatchedFraction = float64(matched) / float64(tr.Len())
	}
	type linkLoad struct {
		link [2]int
		load float64
	}
	var ll []linkLoad
	var sum float64
	for link, load := range loads {
		ll = append(ll, linkLoad{link, load})
		sum += load
		if load > util.MaxLinkLoad {
			util.MaxLinkLoad = load
		}
	}
	if len(ll) > 0 {
		util.MeanLinkLoad = sum / float64(len(ll))
	}
	sort.Slice(ll, func(i, j int) bool {
		if ll[i].load != ll[j].load {
			return ll[i].load > ll[j].load
		}
		return ll[i].link[0] < ll[j].link[0] ||
			(ll[i].link[0] == ll[j].link[0] && ll[i].link[1] < ll[j].link[1])
	})
	topK := 10
	if len(ll) < topK {
		topK = len(ll)
	}
	for i := 0; i < topK; i++ {
		util.HottestLinks = append(util.HottestLinks, ll[i].link)
	}
	return res, util, nil
}
