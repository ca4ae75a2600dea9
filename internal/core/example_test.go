package core_test

import (
	"fmt"

	"obm/internal/core"
	"obm/internal/graph"
)

// ExampleNewRBMA shows the minimal end-to-end use of the paper's algorithm:
// build a topology, construct R-BMA, and serve requests.
func ExampleNewRBMA() {
	top := graph.FatTreeRacks(16)
	model := core.CostModel{Metric: top.Metric(), Alpha: 30}
	alg, err := core.NewRBMA(16, 2, model, 42)
	if err != nil {
		panic(err)
	}
	// A cross-pod pair at distance 4: k_e = ⌈30/4⌉ = 8, so the pair is
	// matched on the 8th request.
	var before, after float64
	for i := 0; i < 8; i++ {
		before = alg.Serve(0, 9).RoutingCost
	}
	after = alg.Serve(0, 9).RoutingCost
	fmt.Printf("matched=%v routing %"+"v -> %v\n", alg.Matched(0, 9), before, after)
	// Output: matched=true routing 4 -> 1
}

// ExampleNewOblivious contrasts the static-network baseline.
func ExampleNewOblivious() {
	top := graph.FatTreeRacks(16)
	model := core.CostModel{Metric: top.Metric(), Alpha: 30}
	alg, _ := core.NewOblivious(model)
	st := alg.Serve(0, 9)
	fmt.Printf("routing=%v adds=%d\n", st.RoutingCost, st.Adds)
	// Output: routing=4 adds=0
}
