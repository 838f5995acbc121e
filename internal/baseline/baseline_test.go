package baseline

import (
	"testing"

	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/engine"
	"coca/internal/gtable"
	"coca/internal/metrics"
	"coca/internal/model"
	"coca/internal/semantics"
	"coca/internal/stream"
)

func testSpace() *semantics.Space {
	return semantics.NewSpace(dataset.ESC50().Subset(10), model.VGG16BN())
}

var initTableCache = map[string]*gtable.Sharded{}

func testInitTable(t testing.TB, space *semantics.Space) *gtable.Sharded {
	t.Helper()
	key := space.DS.Name + space.Arch.Name
	if tbl, ok := initTableCache[key]; ok {
		return tbl
	}
	tbl := core.InitialTable(space, 16, 3)
	initTableCache[key] = tbl
	return tbl
}

func testGen(t testing.TB, seed uint64) *stream.Generator {
	t.Helper()
	part, err := stream.NewPartition(stream.Config{
		Dataset:         dataset.ESC50().Subset(10),
		NumClients:      1,
		SceneMeanFrames: 20,
		WorkingSetSize:  6,
		WorkingSetChurn: 0.05,
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return part.Client(0)
}

func runEngine(t testing.TB, eng engine.Engine, frames int, seed uint64) metrics.Summary {
	t.Helper()
	gen := testGen(t, seed)
	var acc metrics.Accumulator
	if h, ok := eng.(engine.RoundHooks); ok {
		if err := h.BeginRound(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		smp := gen.Next()
		res := eng.Infer(smp)
		acc.Record(metrics.Obs{
			LatencyMs: res.LatencyMs, LookupMs: res.LookupMs,
			Correct: res.Pred == smp.Class, Hit: res.Hit, HitLayer: res.HitLayer,
		})
	}
	if h, ok := eng.(engine.RoundHooks); ok {
		if err := h.EndRound(); err != nil {
			t.Fatal(err)
		}
	}
	return acc.Summary()
}

func TestEdgeOnly(t *testing.T) {
	space := testSpace()
	s := runEngine(t, NewEdgeOnly(space, nil), 300, 1)
	if s.HitRatio != 0 {
		t.Fatal("EdgeOnly cannot hit")
	}
	if diff := s.AvgLatencyMs - space.Arch.TotalLatencyMs(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("EdgeOnly latency %v != %v", s.AvgLatencyMs, space.Arch.TotalLatencyMs())
	}
	if s.Accuracy < space.DS.BaseAccuracy-0.08 {
		t.Fatalf("EdgeOnly accuracy %v far below base", s.Accuracy)
	}
}

func TestLearnedCacheExitsEarly(t *testing.T) {
	space := testSpace()
	lc, err := NewLearnedCache(space, nil, LearnedCacheConfig{NumExits: 4, RetrainCostMs: 100, RetrainEveryFrames: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(lc.Exits()) != 4 {
		t.Fatalf("exits = %v", lc.Exits())
	}
	s := runEngine(t, lc, 400, 1)
	if s.HitRatio == 0 {
		t.Fatal("LearnedCache never exited early")
	}
	if s.AvgLatencyMs >= space.Arch.TotalLatencyMs() {
		t.Fatalf("LearnedCache latency %v not below edge-only", s.AvgLatencyMs)
	}
	if s.Accuracy < 0.6 {
		t.Fatalf("LearnedCache accuracy collapsed: %v", s.Accuracy)
	}
}

func TestLearnedCacheRetrainOverheadCharged(t *testing.T) {
	space := testSpace()
	cheap, err := NewLearnedCache(space, nil, LearnedCacheConfig{NumExits: 4, RetrainCostMs: 1, RetrainEveryFrames: 300})
	if err != nil {
		t.Fatal(err)
	}
	costly, err := NewLearnedCache(space, nil, LearnedCacheConfig{NumExits: 4, RetrainCostMs: 3000, RetrainEveryFrames: 300})
	if err != nil {
		t.Fatal(err)
	}
	a := runEngine(t, cheap, 200, 1)
	b := runEngine(t, costly, 200, 1)
	if b.AvgLatencyMs <= a.AvgLatencyMs {
		t.Fatalf("retraining cost not charged: %v vs %v", b.AvgLatencyMs, a.AvgLatencyMs)
	}
}

func TestLearnedCacheValidation(t *testing.T) {
	if _, err := NewLearnedCache(testSpace(), nil, LearnedCacheConfig{NumExits: 99}); err == nil {
		t.Fatal("too many exits accepted")
	}
}

func TestSMTMHitsAndAccelerates(t *testing.T) {
	space := testSpace()
	s, err := NewSMTM(space, nil, SMTMConfig{
		Theta: 0.035, NumLayers: 4, Budget: 40,
		InitTable: testInitTable(t, space),
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := runEngine(t, s, 400, 1)
	if sum.HitRatio < 0.2 {
		t.Fatalf("SMTM hit ratio %v too low", sum.HitRatio)
	}
	if sum.AvgLatencyMs >= space.Arch.TotalLatencyMs() {
		t.Fatalf("SMTM latency %v not below edge-only", sum.AvgLatencyMs)
	}
	if sum.Accuracy < 0.55 {
		t.Fatalf("SMTM accuracy collapsed: %v", sum.Accuracy)
	}
}

func TestSMTMFixedSites(t *testing.T) {
	space := testSpace()
	s, err := NewSMTM(space, nil, SMTMConfig{
		Theta: 0.035, NumLayers: 3, Budget: 30,
		InitTable: testInitTable(t, space),
	})
	if err != nil {
		t.Fatal(err)
	}
	sites := s.Sites()
	if len(sites) != 3 {
		t.Fatalf("sites = %v", sites)
	}
	if err := s.BeginRound(); err != nil {
		t.Fatal(err)
	}
	for i, site := range s.local.Sites() {
		if site != sites[i] {
			t.Fatalf("loaded sites %v != fixed %v", s.local.Sites(), sites)
		}
	}
}

func TestSMTMValidation(t *testing.T) {
	space := testSpace()
	if _, err := NewSMTM(space, nil, SMTMConfig{Theta: 0.03, NumLayers: 4, Budget: 40}); err == nil {
		t.Fatal("missing table accepted")
	}
	if _, err := NewSMTM(space, nil, SMTMConfig{Theta: 0.03, NumLayers: 4, Budget: 2, InitTable: testInitTable(t, space)}); err == nil {
		t.Fatal("budget below layers accepted")
	}
	if _, err := NewSMTM(space, nil, SMTMConfig{Theta: 0.03, NumLayers: 99, Budget: 990, InitTable: testInitTable(t, space)}); err == nil {
		t.Fatal("layer overflow accepted")
	}
}

func TestFoggyCacheCrossClientReuse(t *testing.T) {
	space := testSpace()
	srv := NewFoggyServer(FoggyCacheConfig{})
	c1, err := NewFoggyCache(space, nil, srv, FoggyCacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewFoggyCache(space, nil, srv, FoggyCacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Client 1 processes a stream, populating the shared cache.
	_ = runEngine(t, c1, 400, 1)
	// Client 2 sees a similar stream: it should hit via the server.
	s2 := runEngine(t, c2, 400, 1)
	if s2.HitRatio == 0 {
		t.Fatal("no cross-client reuse despite shared cache")
	}
	if s2.AvgLatencyMs >= space.Arch.TotalLatencyMs() {
		t.Fatalf("FoggyCache latency %v not below edge-only", s2.AvgLatencyMs)
	}
}

func TestFoggyCacheValidation(t *testing.T) {
	space := testSpace()
	if _, err := NewFoggyCache(space, nil, nil, FoggyCacheConfig{}); err == nil {
		t.Fatal("nil server accepted")
	}
	srv := NewFoggyServer(FoggyCacheConfig{})
	if _, err := NewFoggyCache(space, nil, srv, FoggyCacheConfig{KeyDepthFrac: 1.5}); err == nil {
		t.Fatal("bad key depth accepted")
	}
}

func TestPolicyCacheHitsAndEvicts(t *testing.T) {
	space := testSpace()
	for _, pol := range []string{"LRU", "FIFO", "RAND"} {
		pc, err := NewPolicyCache(space, nil, PolicyCacheConfig{
			Theta: 0.035, Sites: []int{0, 4, 8}, Capacity: 5,
			Policy: pol, Table: testInitTable(t, space), Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := runEngine(t, pc, 400, 1)
		if s.HitRatio == 0 {
			t.Errorf("%s: no hits", pol)
		}
		if s.AvgLatencyMs >= space.Arch.TotalLatencyMs() {
			t.Errorf("%s: latency %v not below edge-only", pol, s.AvgLatencyMs)
		}
		if pc.replacer.Len() > 5 {
			t.Errorf("%s: capacity exceeded", pol)
		}
	}
}

func TestPolicyCacheValidation(t *testing.T) {
	space := testSpace()
	tbl := testInitTable(t, space)
	if _, err := NewPolicyCache(space, nil, PolicyCacheConfig{Theta: 0.03, Sites: []int{0}, Capacity: 5, Policy: "ARC", Table: tbl}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := NewPolicyCache(space, nil, PolicyCacheConfig{Theta: 0.03, Capacity: 5, Policy: "LRU", Table: tbl}); err == nil {
		t.Fatal("no sites accepted")
	}
	if _, err := NewPolicyCache(space, nil, PolicyCacheConfig{Theta: 0.03, Sites: []int{0}, Capacity: 5, Policy: "LRU"}); err == nil {
		t.Fatal("missing table accepted")
	}
}

// TestBaselineOrdering checks the paper's qualitative Table II ordering on
// a shared workload: every acceleration method beats Edge-Only on latency,
// and the semantic caches beat the multi-exit baseline.
func TestBaselineOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("ordering check")
	}
	space := testSpace()
	tbl := testInitTable(t, space)

	edge := runEngine(t, NewEdgeOnly(space, nil), 600, 9)
	lc, err := NewLearnedCache(space, nil, LearnedCacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lcs := runEngine(t, lc, 600, 9)
	smtm, err := NewSMTM(space, nil, SMTMConfig{Theta: 0.035, NumLayers: 4, Budget: 40, InitTable: tbl})
	if err != nil {
		t.Fatal(err)
	}
	ss := runEngine(t, smtm, 600, 9)

	if !(lcs.AvgLatencyMs < edge.AvgLatencyMs) {
		t.Errorf("LearnedCache %v not below Edge-Only %v", lcs.AvgLatencyMs, edge.AvgLatencyMs)
	}
	if !(ss.AvgLatencyMs < edge.AvgLatencyMs) {
		t.Errorf("SMTM %v not below Edge-Only %v", ss.AvgLatencyMs, edge.AvgLatencyMs)
	}
	// The full SMTM-vs-LearnedCache ordering needs the paper's workload
	// scale; the full-scale Table II run in EXPERIMENTS.md records it.
}
