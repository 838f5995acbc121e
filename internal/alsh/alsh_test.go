package alsh

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"coca/internal/vecmath"
	"coca/internal/xrand"
)

func testConfig() Config {
	return Config{
		Dim: 32, Bits: 8, Capacity: 100, K: 3,
		Homogeneity: 0.6, MinSimilarity: 0.7, Seed: 1,
	}
}

func unit(dim int, parts ...uint64) []float32 {
	v := xrand.NormalVector(xrand.New(parts...), dim)
	vecmath.Normalize(v)
	return v
}

// near returns a unit vector close to base (cosine ~0.95+).
func near(base []float32, seed uint64) []float32 {
	n := xrand.NormalVector(xrand.New(seed, 0xDD), len(base))
	vecmath.Normalize(n)
	v := vecmath.WeightedSum(1, base, 0.2, n)
	vecmath.Normalize(v)
	return v
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testConfig()
	bad.Bits = 0
	if bad.Validate() == nil {
		t.Error("bits 0 accepted")
	}
	bad = testConfig()
	bad.Homogeneity = 0
	if bad.Validate() == nil {
		t.Error("homogeneity 0 accepted")
	}
	bad = testConfig()
	bad.Capacity = 0
	if bad.Validate() == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestAddQueryHit(t *testing.T) {
	idx := New(testConfig())
	base := unit(32, 7)
	for i := 0; i < 5; i++ {
		if err := idx.Add(near(base, uint64(i)), 42); err != nil {
			t.Fatal(err)
		}
	}
	res, err := idx.Query(near(base, 99))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || res.Label != 42 {
		t.Fatalf("expected hit on label 42, got %+v", res)
	}
	if res.Best < 0.7 {
		t.Fatalf("best similarity %v", res.Best)
	}
}

func TestQueryMissOnEmpty(t *testing.T) {
	idx := New(testConfig())
	res, err := idx.Query(unit(32, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit || res.Candidates != 0 {
		t.Fatalf("empty index produced %+v", res)
	}
}

func TestQueryMissOnFarVector(t *testing.T) {
	idx := New(testConfig())
	base := unit(32, 7)
	for i := 0; i < 5; i++ {
		_ = idx.Add(near(base, uint64(i)), 1)
	}
	// A far query may share no bucket or fail MinSimilarity.
	far := unit(32, 5000)
	res, err := idx.Query(far)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit && res.Best < 0.7 {
		t.Fatalf("hit below MinSimilarity: %+v", res)
	}
}

func TestHomogeneityRejectsMixedNeighbours(t *testing.T) {
	cfg := testConfig()
	cfg.K = 4
	cfg.Homogeneity = 0.75
	idx := New(cfg)
	base := unit(32, 7)
	// Two labels interleaved around the same point: 2/4 < 0.75.
	_ = idx.Add(near(base, 1), 1)
	_ = idx.Add(near(base, 2), 2)
	_ = idx.Add(near(base, 3), 1)
	_ = idx.Add(near(base, 4), 2)
	res, err := idx.Query(near(base, 9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatalf("mixed neighbourhood must fail homogeneity: %+v", res)
	}
}

func TestCapacityLRUEviction(t *testing.T) {
	cfg := testConfig()
	cfg.Capacity = 10
	idx := New(cfg)
	for i := 0; i < 25; i++ {
		_ = idx.Add(unit(32, uint64(i)), i)
	}
	if idx.Len() != 10 {
		t.Fatalf("Len = %d, want capacity 10", idx.Len())
	}
}

func TestLRUKeepsRecentlyHitEntries(t *testing.T) {
	cfg := testConfig()
	cfg.Capacity = 6
	cfg.K = 1
	cfg.Homogeneity = 1
	idx := New(cfg)
	base := unit(32, 7)
	for i := 0; i < 5; i++ {
		_ = idx.Add(near(base, uint64(i)), 42)
	}
	// Touch the cluster so it is MRU.
	if res, _ := idx.Query(near(base, 50)); !res.Hit {
		t.Fatal("warm-up query should hit")
	}
	// Insert unrelated entries to trigger evictions.
	for i := 0; i < 3; i++ {
		_ = idx.Add(unit(32, uint64(1000+i)), 7)
	}
	res, err := idx.Query(near(base, 51))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || res.Label != 42 {
		t.Fatalf("recently-used cluster evicted: %+v", res)
	}
}

func TestDimValidation(t *testing.T) {
	idx := New(testConfig())
	if err := idx.Add(make([]float32, 5), 1); err == nil {
		t.Error("wrong Add dim accepted")
	}
	if _, err := idx.Query(make([]float32, 5)); err == nil {
		t.Error("wrong Query dim accepted")
	}
}

func TestPropertySizeNeverExceedsCapacity(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		cfg := testConfig()
		cfg.Capacity = 1 + int(nRaw)%20
		idx := New(cfg)
		r := xrand.New(seed)
		for i := 0; i < 50; i++ {
			_ = idx.Add(unit(32, seed, uint64(i)), r.IntN(5))
			if idx.Len() > cfg.Capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHitLabelAmongStored(t *testing.T) {
	f := func(seed uint64) bool {
		idx := New(testConfig())
		r := xrand.New(seed)
		stored := map[int]bool{}
		for i := 0; i < 30; i++ {
			label := r.IntN(6)
			stored[label] = true
			_ = idx.Add(unit(32, seed, uint64(i)), label)
		}
		res, err := idx.Query(unit(32, seed, 999))
		if err != nil {
			return false
		}
		return !res.Hit || stored[res.Label]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func testIndex(t testing.TB, seed uint64, entries int) (*Index, *rand.Rand) {
	t.Helper()
	idx := New(Config{
		Dim: 32, Bits: 6, Capacity: entries + 8, K: 4,
		Homogeneity: 0.5, MinSimilarity: 0.1, Seed: seed,
	})
	r := rand.New(rand.NewPCG(seed, 0xBEEF))
	for i := 0; i < entries; i++ {
		v := make([]float32, 32)
		for d := range v {
			v[d] = float32(r.NormFloat64())
		}
		if err := idx.Add(v, r.IntN(6)); err != nil {
			t.Fatal(err)
		}
	}
	return idx, r
}

// TestQueryZeroAllocsSteadyState asserts repeated queries reuse the
// index-owned scratch.
func TestQueryZeroAllocsSteadyState(t *testing.T) {
	idx, r := testIndex(t, 5, 200)
	vec := make([]float32, 32)
	for d := range vec {
		vec[d] = float32(r.NormFloat64())
	}
	if _, err := idx.Query(vec); err != nil { // warm scratch
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(300, func() {
		if _, err := idx.Query(vec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Query allocates %v/op at steady state, want 0", n)
	}
}

func BenchmarkQuery(b *testing.B) {
	idx := New(Config{Dim: 64, Bits: 10, Capacity: 500, K: 5, Homogeneity: 0.6, MinSimilarity: 0.5, Seed: 1})
	for i := 0; i < 500; i++ {
		_ = idx.Add(unit(64, uint64(i)), i%20)
	}
	q := unit(64, 9999)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = idx.Query(q)
	}
}
