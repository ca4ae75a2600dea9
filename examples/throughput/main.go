// Throughput: connects the paper's routing-cost objective to
// application-level performance. Routing cost is a "bandwidth tax" (§1.1):
// every extra hop consumes fabric capacity. This example replays the same
// workload through a flow-level simulator (per-link FIFO queueing) twice —
// once oblivious, once with R-BMA steering matched pairs onto dedicated
// optical circuits — and compares flow completion times (FCTs).
package main

import (
	"fmt"
	"log"

	"obm/internal/core"
	"obm/internal/flow"
	"obm/internal/graph"
	"obm/internal/trace"
)

func main() {
	const racks = 32
	top := graph.FatTreeRacks(racks)
	model := core.CostModel{Metric: graph.FatTreeMetric(racks), Alpha: 30}

	params := trace.FacebookPreset(trace.Database, racks, 11)
	params.Requests = 40000
	tr, err := trace.FacebookStyle(params)
	if err != nil {
		log.Fatal(err)
	}
	cfg := flow.Config{
		LinkCapacity:    100, // bytes per time unit on each fabric link
		OpticalCapacity: 400, // a circuit is a fat, exclusive pipe
		MeanFlowSize:    50,
		ArrivalRate:     4,
		Seed:            1,
	}

	obl, err := flow.SimulateOblivious(top, tr, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range []int{2, 4, 8} {
		alg, err := core.NewRBMA(racks, b, model, 7)
		if err != nil {
			log.Fatal(err)
		}
		res, err := flow.SimulateWithAlgorithm(top, tr, cfg, alg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("r-bma b=%d: mean FCT %8.3f  p50 %8.3f  p99 %9.3f  optical share %5.1f%%\n",
			b, res.MeanFCT, res.P50FCT, res.P99FCT, 100*res.OpticalShare)
	}
	fmt.Printf("oblivious: mean FCT %8.3f  p50 %8.3f  p99 %9.3f\n",
		obl.MeanFCT, obl.P50FCT, obl.P99FCT)
	fmt.Println("\nMore circuits (larger b) offload more traffic from the shared fabric,")
	fmt.Println("cutting both the mean and the tail of the FCT distribution — the")
	fmt.Println("throughput benefit behind the paper's routing-cost objective.")
}
