// Package experiments regenerates every table and figure of the paper's
// evaluation (§III motivation studies and §VI performance evaluation) on
// the simulated substrate. Each experiment is registered by its paper id
// (e.g. "table2", "fig7") and produces a metrics.Table whose rows mirror
// the paper's; EXPERIMENTS.md records the paper-vs-measured comparison.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"coca/internal/baseline"
	"coca/internal/cache"
	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/engine"
	"coca/internal/gtable"
	"coca/internal/metrics"
	"coca/internal/model"
	"coca/internal/semantics"
	"coca/internal/stream"
)

// Options tune an experiment run.
type Options struct {
	// Scale shrinks run lengths for quick checks and benchmarks: 1.0 is
	// the full experiment, 0.25 runs quarter-length rounds/sweeps.
	Scale float64
	// Seed roots all workload randomness.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// frames scales a frame count, with a floor that keeps statistics sane.
func (o Options) frames(full int) int {
	n := int(float64(full) * o.Scale)
	if n < 60 {
		n = 60
	}
	return n
}

// rounds scales a round count, with a floor of 2.
func (o Options) rounds(full int) int {
	n := int(float64(full) * o.Scale)
	if n < 2 {
		n = 2
	}
	return n
}

// Result is an experiment's output.
type Result struct {
	ID    string
	Table *metrics.Table
}

// Experiment is a registered reproduction target.
type Experiment struct {
	// ID is the paper artifact id: "fig1a" ... "fig10b", "table1" ...
	ID string
	// Title describes the artifact.
	Title string
	// Shape states the qualitative property the paper reports and this
	// run should reproduce.
	Shape string
	// Run executes the experiment.
	Run func(Options) (*Result, error)
}

// Registry lists all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "fig1a", Title: "Fig. 1(a): latency/accuracy vs cache size", Shape: "latency dips to a minimum near 10% cache size then creeps up; accuracy stable", Run: Fig1a},
		{ID: "fig1b", Title: "Fig. 1(b): per-layer hit ratio and hit accuracy", Shape: "hit ratio high shallow+deep, low mid; hit accuracy lower at shallow/deep than middle", Run: Fig1b},
		{ID: "fig2", Title: "Fig. 2: global updates vs cluster alignment (center cosine, silhouette)", Shape: "with global updates, cache centers align with sample clusters (higher center→cluster cosine and silhouette)", Run: Fig2},
		{ID: "table1", Title: "Table I: hot-spot class count sweep", Shape: "latency minimal near the true hot-spot count; accuracy collapses below it, stabilizes above", Run: Table1},
		{ID: "fig5", Title: "Fig. 5: threshold Θ sweep", Shape: "hit ratio falls with Θ; hit/total accuracy and latency rise", Run: Fig5},
		{ID: "fig6", Title: "Fig. 6: collection thresholds Γ and Δ", Shape: "absorption ratio falls, collected-sample accuracy rises with both thresholds", Run: Fig6},
		{ID: "table2", Title: "Table II: latency under SLO accuracy-loss budgets", Shape: "CoCa lowest latency under both budgets; order CoCa < SMTM < FoggyCache < LearnedCache < Edge-Only", Run: Table2},
		{ID: "table3", Title: "Table III: uniform vs long-tail distribution", Shape: "CoCa best in both groups and faster on long-tail than uniform", Run: Table3},
		{ID: "fig7", Title: "Fig. 7: latency under non-IID levels", Shape: "Edge-Only flat; caching methods speed up as non-IID level rises; CoCa best", Run: Fig7},
		{ID: "fig8", Title: "Fig. 8: ACA vs LRU/FIFO/RAND", Shape: "all methods improve then worsen with cache size; ACA clearly best past size 30", Run: Fig8},
		{ID: "fig9", Title: "Fig. 9: ablation (Normal/GCU/DCA/DCA+GCU)", Shape: "DCA dominates latency reduction; DCA+GCU best overall; GCU mild", Run: Fig9},
		{ID: "fig10a", Title: "Fig. 10(a): update cycle F sweep", Shape: "latency falls then stabilizes for F ≥ 300; accuracy declines slightly with F", Run: Fig10a},
		{ID: "fig10b", Title: "Fig. 10(b): cache-request response latency vs clients", Shape: "response latency grows mildly with client count (~+7% from 60 to 160)", Run: Fig10b},
		{ID: "federation", Title: "Federation: multi-edge-server peer delta-sync (beyond the paper)", Shape: "federated per-server hit ratio recovers toward the single-server oracle; partitioned no-sync lags; per-server sync bytes grow with fleet size (+70 % from 2 to 4 servers at full scale, seed 1; +61 % at -scale 0.15, seed 3)", Run: FederationExp},
		{ID: "routing", Title: "Routing: placement policies, brown-out migration and recovery (beyond the paper)", Shape: "semantic, hash and random placement within ≈ 2 points of fleet hit ratio, semantic never above random; brown-out migrations recover within a few rounds; migrated allocations bitwise-identical to uninterrupted runs", Run: RoutingExp},
		{ID: "churn", Title: "Churn: gossip vs mesh sync bytes and elastic membership (beyond the paper)", Shape: "gossip per-node sync bytes stay near-flat while mesh grows with fleet size; a snapshot join costs a fraction of history replay; a crash never stalls the survivors", Run: ChurnExp},
		{ID: "drills", Title: "Drills: flash-crowd overload and brown-out degradation (beyond the paper)", Shape: "under 2× overload goodput stays within 20% of capacity while the uncontrolled arm collapses; expired work is dropped at dequeue with bounded p99; a brown-out is served stale within the staleness bound at a near-healthy hit ratio", Run: DrillsExp},
	}
}

// ByID finds a registered experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// ---- shared scenario plumbing ----

// thetaFor is the model's hit threshold Θ for the strict (< 3 %) or the
// loose (< 5 %) SLO accuracy-loss budget the paper evaluates (§VI-D).
func thetaFor(arch *model.Arch, strict bool) float64 {
	if strict {
		return arch.ThetaStrict
	}
	return arch.ThetaLoose
}

// workload bundles the stream settings shared by most experiments.
type workload struct {
	ds           *dataset.Spec
	classWeights []float64
	nonIID       float64
	sceneMean    float64
	workingSet   int
	churn        float64
	seed         uint64
}

// workload builds the default workload for ds carrying the options'
// seed.
func (o Options) workload(ds *dataset.Spec) workload {
	return workload{
		ds: ds, sceneMean: 25, workingSet: 15, churn: 0.05, seed: o.Seed,
	}
}

func (w workload) config(clients int) stream.Config {
	return stream.Config{
		Dataset:         w.ds,
		NumClients:      clients,
		ClassWeights:    w.classWeights,
		NonIIDLevel:     w.nonIID,
		SceneMeanFrames: w.sceneMean,
		WorkingSetSize:  w.workingSet,
		WorkingSetChurn: w.churn,
		Seed:            w.seed,
	}
}

// envFor builds the per-client feature environment used across methods so
// comparisons see identical conditions.
func envFor(clientID int, bias float64) *semantics.Env {
	if bias == 0 {
		return nil
	}
	return semantics.NewEnv(uint64(clientID)+1, bias)
}

// runEngines drives one engine per client over the workload and returns
// the combined summary.
func runEngines(engines []engine.Engine, w workload, rounds, framesPerRound, skip int) (metrics.Summary, error) {
	part, err := stream.NewPartition(w.config(len(engines)))
	if err != nil {
		return metrics.Summary{}, err
	}
	gens := make([]*stream.Generator, len(engines))
	for k := range gens {
		gens[k] = part.Client(k)
	}
	_, combined, err := engine.RunRounds(engines, gens, engine.RunConfig{
		Rounds: rounds, FramesPerRound: framesPerRound, SkipRounds: skip,
	})
	if err != nil {
		return metrics.Summary{}, err
	}
	return combined.Summary(), nil
}

// methodSet builds the five comparison systems on a shared space/workload.
type methodSet struct {
	space   *semantics.Space
	clients int
	bias    float64
	theta   float64
	budget  int
	frames  int
	seed    uint64
	// initTable is shared by SMTM and the policy caches.
	initTable *gtable.Sharded
}

func newMethodSet(space *semantics.Space, clients int, theta float64, budget, frames int, seed uint64) *methodSet {
	return &methodSet{
		space: space, clients: clients, bias: 0.05, theta: theta,
		budget: budget, frames: frames, seed: seed,
		initTable: core.InitialTable(space, 64, seed),
	}
}

func (m *methodSet) edgeOnly() []engine.Engine {
	out := make([]engine.Engine, m.clients)
	for k := range out {
		out[k] = baseline.NewEdgeOnly(m.space, envFor(k, m.bias))
	}
	return out
}

func (m *methodSet) learnedCache(strict bool) ([]engine.Engine, error) {
	margin := 0.7 * (1 - m.space.Arch.RhoSame)
	if !strict {
		margin = 0.55 * (1 - m.space.Arch.RhoSame)
	}
	out := make([]engine.Engine, m.clients)
	for k := range out {
		lc, err := baseline.NewLearnedCache(m.space, envFor(k, m.bias), baseline.LearnedCacheConfig{
			ExitMargin: margin,
		})
		if err != nil {
			return nil, err
		}
		out[k] = lc
	}
	return out, nil
}

func (m *methodSet) foggyCache(strict bool) ([]engine.Engine, error) {
	minSim := 0.34
	if !strict {
		minSim = 0.28
	}
	srv := baseline.NewFoggyServer(baseline.FoggyCacheConfig{MinSimilarity: minSim})
	out := make([]engine.Engine, m.clients)
	for k := range out {
		fc, err := baseline.NewFoggyCache(m.space, envFor(k, m.bias), srv, baseline.FoggyCacheConfig{MinSimilarity: minSim})
		if err != nil {
			return nil, err
		}
		out[k] = fc
	}
	return out, nil
}

func (m *methodSet) smtm(theta float64) ([]engine.Engine, error) {
	out := make([]engine.Engine, m.clients)
	for k := range out {
		s, err := baseline.NewSMTM(m.space, envFor(k, m.bias), baseline.SMTMConfig{
			Theta: theta, NumLayers: 4, Budget: m.budget,
			RoundFrames: m.frames, InitTable: m.initTable,
		})
		if err != nil {
			return nil, err
		}
		out[k] = s
	}
	return out, nil
}

// coca builds a CoCa server and its clients under the workload conditions;
// mutate is an optional hook over the client and server configs (ablation
// arms etc.). Experiments drive every method through runEngines, so the
// clients come back both as engines and as themselves.
func (m *methodSet) coca(theta float64, mutate func(*core.ClientConfig, *core.ServerConfig)) ([]engine.Engine, []*core.Client, error) {
	ccfg := core.ClientConfig{
		Theta: theta, Budget: m.budget, RoundFrames: m.frames,
		EnvBiasWeight: m.bias,
	}
	scfg := core.ServerConfig{Theta: theta, Seed: m.seed}
	if mutate != nil {
		mutate(&ccfg, &scfg)
	}
	srv := core.NewServer(m.space, scfg)
	engines := make([]engine.Engine, m.clients)
	clients := make([]*core.Client, m.clients)
	for k := range clients {
		cfg := ccfg
		cfg.ID = k
		cfg.EnvSeed = uint64(k) + 1
		cl, err := core.NewClient(context.Background(), m.space, srv, cfg)
		if err != nil {
			return nil, nil, err
		}
		engines[k], clients[k] = cl, cl
	}
	return engines, clients, nil
}

// newSpace builds a semantics space (alias kept short for experiment code).
func newSpace(ds *dataset.Spec, arch *model.Arch) *semantics.Space {
	return semantics.NewSpace(ds, arch)
}

// sortedLayerKeys returns sorted keys of a per-layer map.
func sortedLayerKeys(m map[int]float64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// fixedEngine is a single-client semantic cache with a frozen layer/class
// configuration — the instrument behind the paper's §III motivation
// studies (Fig. 1, Table I), which isolate cache geometry from allocation.
type fixedEngine struct {
	space  *semantics.Space
	env    *semantics.Env
	local  *cache.Local
	lookup *cache.Lookup
}

func newFixedEngine(space *semantics.Space, env *semantics.Env, table *gtable.Sharded, sites, classes []int, theta float64) (*fixedEngine, error) {
	layers := make([]cache.Layer, 0, len(sites))
	for _, site := range sites {
		cls, entries, _ := table.ExtractLayerEntriesInto(site, classes, nil, nil, nil)
		layers = append(layers, cache.Layer{Site: site, Classes: cls, Entries: entries})
	}
	local, err := cache.NewLocal(layers)
	if err != nil {
		return nil, err
	}
	local.StageBlocks(new(cache.Blocks))
	return &fixedEngine{
		space:  space,
		env:    env,
		local:  local,
		lookup: cache.NewLookup(cache.Config{Alpha: cache.DefaultAlpha, Theta: theta}),
	}, nil
}

func (f *fixedEngine) Infer(smp dataset.Sample) engine.Result {
	res, _ := baseline.FixedLookup(f.space, f.env, f.local, f.lookup, smp)
	return res
}

// evenSites returns n sites evenly spaced over [0, L).
func evenSites(L, n int) []int {
	if n <= 0 {
		return nil
	}
	if n > L {
		n = L
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i*L/n)
	}
	return out
}

func allClasses(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
