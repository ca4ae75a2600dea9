// Command bmatch runs one online b-matching algorithm on one workload and
// prints a cost breakdown: the quickest way to poke at the algorithms.
//
// Usage:
//
//	bmatch [-alg r-bma|bma|oblivious|so-bma] [-b 6] [-alpha 30]
//	       [-workload facebook-database|facebook-webservice|facebook-hadoop|
//	                  microsoft|uniform|permutation]
//	       [-racks 100] [-requests 100000] [-seed 1] [-trace file.csv]
package main

import (
	"flag"
	"fmt"
	"os"

	"obm/internal/core"
	"obm/internal/graph"
	"obm/internal/sim"
	"obm/internal/trace"
)

func main() {
	var (
		alg      = flag.String("alg", "r-bma", "algorithm: r-bma, bma, oblivious, so-bma")
		b        = flag.Int("b", 6, "degree cap (number of optical switches)")
		alpha    = flag.Float64("alpha", 30, "reconfiguration cost α")
		workload = flag.String("workload", "facebook-database", "synthetic workload name")
		racks    = flag.Int("racks", 100, "number of racks")
		requests = flag.Int("requests", 100000, "number of requests")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		traceCSV = flag.String("trace", "", "CSV trace file (overrides -workload)")
		showUtil = flag.Bool("utilization", false, "report per-link static-fabric utilization")
	)
	flag.Parse()

	tr, err := loadTrace(*traceCSV, *workload, *racks, *requests, *seed)
	if err != nil {
		fatal(err)
	}
	top := graph.FatTreeRacks(tr.NumRacks)
	model := core.CostModel{Metric: graph.FatTreeMetric(tr.NumRacks), Alpha: *alpha}
	algorithm, err := buildAlg(*alg, tr, *b, model, *seed)
	if err != nil {
		fatal(err)
	}
	res, err := sim.Run(algorithm, tr, model.Alpha, sim.Checkpoints(tr.Len(), 1))
	if err != nil {
		fatal(err)
	}
	routing := res.Series.Routing[len(res.Series.Routing)-1]
	reconfig := res.Series.Reconfig[len(res.Series.Reconfig)-1]
	obl, _ := core.NewOblivious(model)
	oblRes, err := sim.Run(obl, tr, model.Alpha, sim.Checkpoints(tr.Len(), 1))
	if err != nil {
		fatal(err)
	}
	oblRouting := oblRes.Series.Routing[0]

	fmt.Printf("trace:            %s (%d racks, %d requests)\n", tr.Name, tr.NumRacks, tr.Len())
	fmt.Printf("topology:         %s (ℓmax=%d)\n", top.Name(), model.Metric.Max())
	fmt.Printf("algorithm:        %s (b=%d, α=%g)\n", algorithm.Name(), *b, *alpha)
	fmt.Printf("routing cost:     %.0f\n", routing)
	fmt.Printf("reconfig cost:    %.0f (%d adds, %d removals)\n", reconfig, res.Adds, res.Removals)
	fmt.Printf("total cost:       %.0f\n", routing+reconfig)
	fmt.Printf("final matching:   %d edges\n", res.FinalMatchingSize)
	fmt.Printf("oblivious cost:   %.0f\n", oblRouting)
	fmt.Printf("routing saving:   %.1f%%\n", 100*(1-routing/oblRouting))
	fmt.Printf("decision loop:    %v\n", res.Elapsed)

	if *showUtil {
		fresh, err := buildAlg(*alg, tr, *b, model, *seed)
		if err != nil {
			fatal(err)
		}
		_, util, err := sim.RunWithUtilization(fresh, tr, model.Alpha, top)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("matched share:    %.1f%%\n", 100*util.MatchedFraction)
		fmt.Printf("max link load:    %.0f requests\n", util.MaxLinkLoad)
		fmt.Printf("mean link load:   %.1f requests\n", util.MeanLinkLoad)
		fmt.Printf("hottest links:    %v\n", util.HottestLinks)
	}
}

func loadTrace(file, workload string, racks, requests int, seed uint64) (*trace.Trace, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadCSV(f)
	}
	switch workload {
	case "facebook-database":
		p := trace.FacebookPreset(trace.Database, racks, seed)
		p.Requests = requests
		return trace.FacebookStyle(p)
	case "facebook-webservice":
		p := trace.FacebookPreset(trace.WebService, racks, seed)
		p.Requests = requests
		return trace.FacebookStyle(p)
	case "facebook-hadoop":
		p := trace.FacebookPreset(trace.Hadoop, racks, seed)
		p.Requests = requests
		return trace.FacebookStyle(p)
	case "microsoft":
		return trace.MicrosoftStyle(racks, requests, seed), nil
	case "uniform":
		return trace.Uniform(racks, requests, seed), nil
	case "permutation":
		return trace.Permutation(racks, requests, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

func buildAlg(name string, tr *trace.Trace, b int, model core.CostModel, seed uint64) (core.Algorithm, error) {
	switch name {
	case "r-bma":
		return core.NewRBMA(tr.NumRacks, b, model, seed)
	case "bma":
		return core.NewBMA(tr.NumRacks, b, model)
	case "oblivious":
		return core.NewOblivious(model)
	case "so-bma":
		return core.NewStaticFromTrace(tr, b, model)
	}
	return nil, fmt.Errorf("unknown algorithm %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bmatch:", err)
	os.Exit(1)
}
