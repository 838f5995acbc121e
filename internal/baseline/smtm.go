package baseline

import (
	"fmt"
	"math"
	"sort"

	"coca/internal/cache"
	"coca/internal/dataset"
	"coca/internal/engine"
	"coca/internal/gtable"
	"coca/internal/semantics"
)

// SMTMConfig parametrizes the SMTM baseline (Li et al., MM'21): a
// single-client semantic cache with class importance scored by total
// frequency and recency, a fixed set of activated cache layers, and
// client-local entry updates — no cross-client sharing (§II-2, §VI-B).
// Hits update the client's own table as they happen; the loaded cache sees
// the updated entries from the next round on, when BeginRound reloads it.
type SMTMConfig struct {
	// Theta and Alpha configure the Eq. 1/Eq. 2 lookup.
	Theta, Alpha float64
	// NumLayers is the fixed count of activated layers (evenly spaced).
	NumLayers int
	// Budget bounds the total entries, capping the hot-spot class count
	// at Budget/NumLayers.
	Budget int
	// Coverage is the hot-spot score coverage (default 0.95 as in the
	// paper).
	Coverage float64
	// RoundFrames is the refresh cadence for the hot-spot set.
	RoundFrames int
	// InitTable is the shared-dataset cache table used to seed local
	// entries (from core.InitialTable); required.
	InitTable *gtable.Sharded
}

// SMTM is the per-client semantic-cache baseline.
type SMTM struct {
	cfg   SMTMConfig
	space *semantics.Space
	env   *semantics.Env

	sites  []int
	table  *gtable.Sharded // client-local copy, locally updated
	local  *cache.Local
	lookup *cache.Lookup

	freq []float64
	tau  []int
}

// NewSMTM builds the baseline for one client. env may be nil.
func NewSMTM(space *semantics.Space, env *semantics.Env, cfg SMTMConfig) (*SMTM, error) {
	if cfg.InitTable == nil {
		return nil, fmt.Errorf("baseline: SMTM needs an initial table")
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = cache.DefaultAlpha
	}
	if cfg.NumLayers == 0 {
		cfg.NumLayers = 4
	}
	if cfg.Coverage == 0 {
		cfg.Coverage = 0.95
	}
	if cfg.RoundFrames == 0 {
		cfg.RoundFrames = 300
	}
	if cfg.Budget < cfg.NumLayers {
		return nil, fmt.Errorf("baseline: SMTM budget %d below one entry per layer (%d)", cfg.Budget, cfg.NumLayers)
	}
	L := space.Arch.NumLayers
	if cfg.NumLayers > L {
		return nil, fmt.Errorf("baseline: SMTM layers %d exceed model sites %d", cfg.NumLayers, L)
	}
	s := &SMTM{
		cfg:    cfg,
		space:  space,
		env:    env,
		table:  gtable.ShardedFromTable(cfg.InitTable, 64),
		local:  cache.Empty(),
		lookup: cache.NewLookup(cache.Config{Alpha: cfg.Alpha, Theta: cfg.Theta}),
		freq:   make([]float64, space.DS.NumClasses),
		tau:    make([]int, space.DS.NumClasses),
	}
	// Evenly-spaced fixed sites, starting shallow where exits pay most.
	for e := 0; e < cfg.NumLayers; e++ {
		s.sites = append(s.sites, e*L/cfg.NumLayers)
	}
	return s, nil
}

// Sites returns the fixed activated sites (diagnostics).
func (s *SMTM) Sites() []int { return append([]int(nil), s.sites...) }

// BeginRound implements engine.RoundHooks: refresh the hot-spot class set
// from local frequency/recency scores and reload entries from the local
// table.
func (s *SMTM) BeginRound() error {
	classes := s.hotSpotClasses()
	layers := make([]cache.Layer, 0, len(s.sites))
	for _, site := range s.sites {
		cls, entries, _ := s.table.ExtractLayerEntriesInto(site, classes, nil, nil, nil)
		layers = append(layers, cache.Layer{Site: site, Classes: cls, Entries: entries})
	}
	local, err := cache.NewLocal(layers)
	if err != nil {
		return fmt.Errorf("baseline: SMTM cache rebuild: %w", err)
	}
	local.StageBlocks(new(cache.Blocks))
	s.local = local
	return nil
}

// EndRound implements engine.RoundHooks (no upload: SMTM is client-local).
func (s *SMTM) EndRound() error { return nil }

// hotSpotClasses scores classes by frequency × recency (the SMTM rule the
// paper's Eq. 10 borrows) and selects the top ones covering the configured
// score mass, capped by the entry budget.
func (s *SMTM) hotSpotClasses() []int {
	n := len(s.freq)
	scores := make([]float64, n)
	var total float64
	for i := range scores {
		scores[i] = (s.freq[i] + 1) * math.Pow(0.2, math.Floor(float64(s.tau[i])/float64(s.cfg.RoundFrames)))
		total += scores[i]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
	maxClasses := s.cfg.Budget / s.cfg.NumLayers
	var out []int
	var acc float64
	for _, c := range order {
		if len(out) >= maxClasses {
			break
		}
		out = append(out, c)
		acc += scores[c]
		if acc >= s.cfg.Coverage*total {
			break
		}
	}
	return out
}

// Infer implements engine.Engine.
func (s *SMTM) Infer(smp dataset.Sample) engine.Result {
	res, vec := FixedLookup(s.space, s.env, s.local, s.lookup, smp)
	if res.Hit {
		// Local reinforcement of the hit entry (count-weighted running
		// mean over a support capped at 160, mirroring CoCa's evidence
		// weighting but without any upload). A refused vector leaves the
		// entry as it was.
		_ = s.table.Merge(res.Pred, res.HitLayer, vec, gtable.DefaultGamma, 1, 160)
	}
	for i := range s.tau {
		s.tau[i]++
	}
	s.tau[smp.Class] = 0
	s.freq[smp.Class]++
	return res
}

var (
	_ engine.Engine     = (*SMTM)(nil)
	_ engine.RoundHooks = (*SMTM)(nil)
)
