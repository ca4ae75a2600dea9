package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"obm/internal/core"
	"obm/internal/graph"
	"obm/internal/trace"
)

// ScenarioSpec is one named, JSON-encodable experiment scenario: a workload
// family with its parameters, the cost model, the algorithm line-up, the
// b sweep and the repetition count. The grid scheduler expands a list of
// specs into a (scenario × algorithm × b × rep) job grid.
//
// Workloads are built as streaming trace.Sources, so a spec with 10⁸
// requests replays under O(chunk) memory. The trace seed is Seed (fixed
// across repetitions, like the figure experiments); algorithm seeds vary
// per repetition.
type ScenarioSpec struct {
	Name     string `json:"name"`
	Family   string `json:"family"`
	Racks    int    `json:"racks"`
	Requests int    `json:"requests"`
	Seed     uint64 `json:"seed"`
	// Alpha is the reconfiguration cost (default 30, the figures' value).
	Alpha float64 `json:"alpha,omitempty"`
	// Bs is the degree-cap sweep.
	Bs []int `json:"bs"`
	// Reps is the repetition count (algorithm seeds differ per rep).
	Reps int `json:"reps"`
	// Shards, when > 1, runs every algorithm as that many independent
	// switch planes over a node-row partition of the pair universe
	// (core.Sharded): each plane keeps its own degree-b matching over the
	// pairs it owns, so a rack can hold up to Shards·b optical edges in
	// total — the multi-layer reconfigurable fabrics of the rotor-switch
	// literature. Shard count is part of the experiment's identity
	// (results for S planes differ from one plane); it also unlocks the
	// parallel replay path (GridOptions.Parallel), which never changes
	// results. 0 and 1 both mean the classic single-plane algorithm and
	// hash identically (omitempty), so existing persisted runs stay valid.
	Shards int `json:"shards,omitempty"`
	// Algs names the algorithm line-up (see Algorithms); default
	// ["r-bma", "bma", "oblivious"].
	Algs []string `json:"algs,omitempty"`
	// Params carries family-specific knobs (see each family's docs);
	// unknown keys are rejected by the family builder.
	Params map[string]float64 `json:"params,omitempty"`
}

// Normalize returns the spec with every optional field filled with its
// default (alpha, algorithm line-up, repetition count). Persisted run
// manifests store normalized specs, so a spec hash does not depend on
// whether defaults were spelled out or omitted.
func (s ScenarioSpec) Normalize() ScenarioSpec { return s.withDefaults() }

// withDefaults fills the optional fields.
func (s ScenarioSpec) withDefaults() ScenarioSpec {
	if s.Alpha == 0 {
		s.Alpha = 30
	}
	if len(s.Algs) == 0 {
		s.Algs = []string{"r-bma", "bma", "oblivious"}
	}
	if s.Reps == 0 {
		s.Reps = 1
	}
	return s
}

// maxRacks bounds a spec's rack count. The cost model's metric and the
// pair index each take O(racks²) memory (64 MiB apiece at 4096 racks),
// so an unbounded count in a submitted spec could exhaust the process.
const maxRacks = 4096

// Validate reports whether the spec is runnable: known family and
// algorithms, usable sweep, a rack count within maxRacks, and buildable
// workload stream. It builds no cost model.
func (s ScenarioSpec) Validate() error {
	s = s.withDefaults()
	if s.Name == "" {
		return fmt.Errorf("sim: scenario without a name")
	}
	if len(s.Bs) == 0 {
		return fmt.Errorf("sim: scenario %q needs a b sweep", s.Name)
	}
	if s.Reps < 1 {
		return fmt.Errorf("sim: scenario %q needs Reps >= 1", s.Name)
	}
	if s.Alpha < 1 {
		return fmt.Errorf("sim: scenario %q: alpha = %v, need >= 1", s.Name, s.Alpha)
	}
	if strings.ContainsAny(s.Name, ",\"\n") {
		return fmt.Errorf("sim: scenario name %q must not contain commas, quotes or newlines (it names CSV rows)", s.Name)
	}
	if s.Racks > maxRacks {
		return fmt.Errorf("sim: scenario %q: racks = %d exceeds the limit of %d", s.Name, s.Racks, maxRacks)
	}
	if s.Shards < 0 || s.Shards > s.Racks {
		return fmt.Errorf("sim: scenario %q: shards = %d out of [0, racks = %d]", s.Name, s.Shards, s.Racks)
	}
	for _, a := range s.Algs {
		if _, err := algBuilder(a); err != nil {
			return fmt.Errorf("sim: scenario %q: %w (have %v)", s.Name, err, Algorithms())
		}
	}
	if _, err := s.NewStream(); err != nil {
		return fmt.Errorf("sim: scenario %q: %w", s.Name, err)
	}
	return nil
}

// Model returns the scenario's cost model: a fat-tree over Racks with the
// spec's alpha — the same construction as the paper's figures. The metric
// is the process-wide shared graph.FatTreeMetric, so every call at one
// rack count returns the same pointer and builds nothing after the first.
func (s ScenarioSpec) Model() core.CostModel {
	s = s.withDefaults()
	return core.CostModel{Metric: graph.FatTreeMetric(s.Racks), Alpha: s.Alpha}
}

// NewStream builds the scenario's raw workload stream from its family.
func (s ScenarioSpec) NewStream() (trace.Stream, error) {
	registryMu.RLock()
	b, ok := familyBuilders[s.Family]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown family %q (have %v)", s.Family, Families())
	}
	return b(s.withDefaults())
}

// NewSource builds the scenario's compiled streaming source: the workload
// stream compiled chunk by chunk against the scenario's metric. Each call
// returns an independent source, safe to hand to a parallel worker.
func (s ScenarioSpec) NewSource() (trace.Source, error) {
	st, err := s.NewStream()
	if err != nil {
		return nil, err
	}
	return trace.NewSource(st, s.Model().Metric.Dist)
}

// FamilyBuilder constructs a workload stream from a (defaults-filled) spec.
type FamilyBuilder func(spec ScenarioSpec) (trace.Stream, error)

var (
	registryMu     sync.RWMutex
	familyBuilders = map[string]FamilyBuilder{}
	algBuilders    = map[string]func(spec ScenarioSpec, model core.CostModel) AlgSpec{}
	scenarioReg    = map[string]ScenarioSpec{}
	scenarioOrder  []string
)

// RegisterFamily adds (or replaces) a workload family under name.
func RegisterFamily(name string, b FamilyBuilder) {
	registryMu.Lock()
	defer registryMu.Unlock()
	familyBuilders[name] = b
}

// Families returns the registered workload family names, sorted.
func Families() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(familyBuilders))
	for name := range familyBuilders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RegisterScenario adds (or replaces) a named scenario preset.
func RegisterScenario(spec ScenarioSpec) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, ok := scenarioReg[spec.Name]; !ok {
		scenarioOrder = append(scenarioOrder, spec.Name)
	}
	scenarioReg[spec.Name] = spec
}

// Scenarios returns the registered scenario presets in registration order.
func Scenarios() []ScenarioSpec {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]ScenarioSpec, 0, len(scenarioOrder))
	for _, name := range scenarioOrder {
		out = append(out, scenarioReg[name])
	}
	return out
}

// ScenarioByName returns the registered scenario preset with that name.
func ScenarioByName(name string) (ScenarioSpec, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	spec, ok := scenarioReg[name]
	if !ok {
		return ScenarioSpec{}, fmt.Errorf("sim: unknown scenario %q", name)
	}
	return spec, nil
}

// Algorithms returns the algorithm names the grid runner knows, sorted.
func Algorithms() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(algBuilders))
	for name := range algBuilders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// algBuilder looks up an algorithm constructor under the registry lock.
func algBuilder(name string) (func(spec ScenarioSpec, model core.CostModel) AlgSpec, error) {
	registryMu.RLock()
	b, ok := algBuilders[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
	return b, nil
}

// BuildAlgorithm instantiates one named algorithm from the registry for
// this spec's cost model, degree cap b and repetition seed — exactly the
// instance a grid job for (spec, name, b, rep) would replay with, shard
// planes and per-plane seeding included. Algorithms with a pinned degree
// (oblivious) ignore b. The live engine builds its per-session instances
// through this path, so an engine session and an offline grid job with
// the same parameters are seeded identically.
func (s ScenarioSpec) BuildAlgorithm(name string, b int, rep uint64) (core.Algorithm, error) {
	s = s.withDefaults()
	as, err := s.algSpec(name, s.Model())
	if err != nil {
		return nil, err
	}
	if as.FixedB >= 0 {
		b = as.FixedB
	}
	return as.New(b, rep)
}

// algSpec resolves an algorithm name into an AlgSpec for the scenario,
// reusing a model the caller has already built.
func (s ScenarioSpec) algSpec(name string, model core.CostModel) (AlgSpec, error) {
	b, err := algBuilder(name)
	if err != nil {
		return AlgSpec{}, fmt.Errorf("sim: %w", err)
	}
	return b(s.withDefaults(), model), nil
}

// param reads a family knob with a default.
func param(spec ScenarioSpec, key string, def float64) float64 {
	if v, ok := spec.Params[key]; ok {
		return v
	}
	return def
}

// shardedAlg wraps an algorithm constructor into a core.Sharded when the
// spec asks for multiple planes; Shards <= 1 builds the plain single-plane
// algorithm directly (no wrapper, so classic scenarios are untouched).
func shardedAlg(spec ScenarioSpec, build func(shard int) (core.Algorithm, error)) (core.Algorithm, error) {
	if spec.Shards <= 1 {
		return build(0)
	}
	part, err := core.NewPartition(spec.Racks, spec.Shards)
	if err != nil {
		return nil, err
	}
	return core.NewSharded(part, build)
}

// checkParams rejects unknown knobs, the classic silent-typo failure of
// stringly-typed JSON configs.
func checkParams(spec ScenarioSpec, known ...string) error {
	for key := range spec.Params {
		ok := false
		for _, k := range known {
			if key == k {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("family %q: unknown param %q (known: %v)", spec.Family, key, known)
		}
	}
	return nil
}

func init() {
	// Workload families. Paper-era families first; each maps the generic
	// spec knobs onto its generator's parameters.
	for _, c := range []trace.Cluster{trace.Database, trace.WebService, trace.Hadoop} {
		c := c
		RegisterFamily(c.String(), func(spec ScenarioSpec) (trace.Stream, error) {
			if err := checkParams(spec); err != nil {
				return nil, err
			}
			p := trace.FacebookPreset(c, spec.Racks, spec.Seed)
			p.Requests = spec.Requests
			return trace.NewFacebookStream(p)
		})
	}
	RegisterFamily("uniform", func(spec ScenarioSpec) (trace.Stream, error) {
		if err := checkParams(spec); err != nil {
			return nil, err
		}
		return trace.NewUniformStream(spec.Racks, spec.Requests, spec.Seed)
	})
	RegisterFamily("microsoft", func(spec ScenarioSpec) (trace.Stream, error) {
		if err := checkParams(spec); err != nil {
			return nil, err
		}
		return trace.NewMicrosoftStream(spec.Racks, spec.Requests, spec.Seed)
	})
	RegisterFamily("phase-shift", func(spec ScenarioSpec) (trace.Stream, error) {
		if err := checkParams(spec, "phases"); err != nil {
			return nil, err
		}
		return trace.NewPhaseShiftStream(spec.Racks, spec.Requests, int(param(spec, "phases", 4)), spec.Seed)
	})
	RegisterFamily("permutation", func(spec ScenarioSpec) (trace.Stream, error) {
		if err := checkParams(spec); err != nil {
			return nil, err
		}
		return trace.NewPermutationStream(spec.Racks, spec.Requests, spec.Seed)
	})
	RegisterFamily("diurnal", func(spec ScenarioSpec) (trace.Stream, error) {
		if err := checkParams(spec, "period", "peak_skew", "off_skew"); err != nil {
			return nil, err
		}
		return trace.NewDiurnalStream(trace.DiurnalParams{
			Racks:    spec.Racks,
			Requests: spec.Requests,
			Seed:     spec.Seed,
			Period:   int(param(spec, "period", 0)),
			PeakSkew: param(spec, "peak_skew", 0),
			OffSkew:  param(spec, "off_skew", 0),
		})
	})
	RegisterFamily("hotspot", func(spec ScenarioSpec) (trace.Stream, error) {
		if err := checkParams(spec, "hotspots", "hot_prob", "migrate_every"); err != nil {
			return nil, err
		}
		return trace.NewHotspotStream(trace.HotspotParams{
			Racks:        spec.Racks,
			Requests:     spec.Requests,
			Seed:         spec.Seed,
			Hotspots:     int(param(spec, "hotspots", 0)),
			HotProb:      param(spec, "hot_prob", 0),
			MigrateEvery: int(param(spec, "migrate_every", 0)),
		})
	})
	RegisterFamily("tenant-mix", func(spec ScenarioSpec) (trace.Stream, error) {
		if err := checkParams(spec, "tenants", "tenant_skew", "pair_skew", "cross_prob"); err != nil {
			return nil, err
		}
		return trace.NewTenantMixStream(trace.TenantMixParams{
			Racks:      spec.Racks,
			Requests:   spec.Requests,
			Seed:       spec.Seed,
			Tenants:    int(param(spec, "tenants", 0)),
			TenantSkew: param(spec, "tenant_skew", 0),
			PairSkew:   param(spec, "pair_skew", 0),
			CrossProb:  param(spec, "cross_prob", 0),
		})
	})

	// Algorithm line-up. Seeding matches internal/figures: the randomized
	// algorithm's seed varies per (rep, b); in multi-plane scenarios each
	// plane derives its own seed from that base via core.ShardSeed (plane 0
	// keeps the base, so shards = 1 is seeded exactly like the classic
	// single-plane run).
	algBuilders["r-bma"] = func(spec ScenarioSpec, model core.CostModel) AlgSpec {
		n := spec.Racks
		return AlgSpec{
			Name:   "r-bma",
			FixedB: -1,
			New: func(b int, rep uint64) (core.Algorithm, error) {
				base := rep*0x9e3779b9 + uint64(b)
				return shardedAlg(spec, func(shard int) (core.Algorithm, error) {
					return core.NewRBMA(n, b, model, core.ShardSeed(base, shard))
				})
			},
		}
	}
	algBuilders["bma"] = func(spec ScenarioSpec, model core.CostModel) AlgSpec {
		n := spec.Racks
		return AlgSpec{
			Name:   "bma",
			FixedB: -1,
			New: func(b int, rep uint64) (core.Algorithm, error) {
				return shardedAlg(spec, func(int) (core.Algorithm, error) {
					return core.NewBMA(n, b, model)
				})
			},
		}
	}
	algBuilders["oblivious"] = func(spec ScenarioSpec, model core.CostModel) AlgSpec {
		return AlgSpec{
			Name:   "oblivious",
			FixedB: 0,
			New: func(b int, rep uint64) (core.Algorithm, error) {
				// Stateless: planes would all behave identically, so the
				// oblivious baseline never shards.
				return core.NewOblivious(model)
			},
		}
	}

	// Scenario presets: one per new family (the widened workload coverage)
	// plus classic baselines, all modest sizes so the full preset grid runs
	// in seconds at scale 1. Larger studies load specs from JSON.
	RegisterScenario(ScenarioSpec{
		Name: "diurnal-swing", Family: "diurnal",
		Racks: 48, Requests: 120000, Seed: 1,
		Bs: []int{4, 8}, Reps: 3,
	})
	RegisterScenario(ScenarioSpec{
		Name: "hotspot-migration", Family: "hotspot",
		Racks: 48, Requests: 120000, Seed: 2,
		Bs: []int{4, 8}, Reps: 3,
		Params: map[string]float64{"hotspots": 12, "migrate_every": 4000},
	})
	RegisterScenario(ScenarioSpec{
		Name: "tenant-mix", Family: "tenant-mix",
		Racks: 64, Requests: 120000, Seed: 3,
		Bs: []int{4, 8}, Reps: 3,
		Params: map[string]float64{"tenants": 8},
	})
	RegisterScenario(ScenarioSpec{
		Name: "facebook-database-small", Family: "facebook-database",
		Racks: 50, Requests: 100000, Seed: 4,
		Bs: []int{6, 12}, Reps: 3,
	})
	RegisterScenario(ScenarioSpec{
		Name: "uniform-baseline", Family: "uniform",
		Racks: 48, Requests: 100000, Seed: 5,
		Bs: []int{4, 8}, Reps: 3,
	})
	RegisterScenario(ScenarioSpec{
		Name: "phase-shift", Family: "phase-shift",
		Racks: 48, Requests: 100000, Seed: 6,
		Bs: []int{4, 8}, Reps: 3,
		Params: map[string]float64{"phases": 5},
	})
}
