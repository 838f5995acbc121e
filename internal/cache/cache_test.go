package cache

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"coca/internal/vecmath"
	"coca/internal/xrand"
)

func unit(parts ...uint64) []float32 {
	v := xrand.NormalVector(xrand.New(parts...), 16)
	vecmath.Normalize(v)
	return v
}

func layerOf(site int, classes []int, entries [][]float32) Layer {
	return Layer{Site: site, Classes: classes, Entries: entries}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Alpha: 0.5, Theta: 0.01}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{{Alpha: -0.1, Theta: 0}, {Alpha: 1.5, Theta: 0}, {Alpha: 0.5, Theta: -1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", bad)
		}
	}
}

func TestNewLocalSortsAndValidates(t *testing.T) {
	a := unit(1)
	l, err := NewLocal([]Layer{
		layerOf(7, []int{0}, [][]float32{a}),
		layerOf(2, []int{0}, [][]float32{a}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sites := l.Sites(); sites[0] != 2 || sites[1] != 7 {
		t.Fatalf("sites = %v, want sorted", sites)
	}
	if _, err := NewLocal([]Layer{layerOf(1, []int{0, 1}, [][]float32{a})}); err == nil {
		t.Fatal("ragged layer must be rejected")
	}
	if _, err := NewLocal([]Layer{
		layerOf(3, []int{0}, [][]float32{a}),
		layerOf(3, []int{1}, [][]float32{a}),
	}); err == nil {
		t.Fatal("duplicate site must be rejected")
	}
}

func TestLayerAtAndNumEntries(t *testing.T) {
	a, b := unit(1), unit(2)
	l, err := NewLocal([]Layer{
		layerOf(4, []int{0, 1}, [][]float32{a, b}),
		layerOf(9, []int{0}, [][]float32{a}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumEntries() != 3 {
		t.Fatalf("NumEntries = %d", l.NumEntries())
	}
	if got := l.LayerAt(9); got == nil || got.Len() != 1 {
		t.Fatalf("LayerAt(9) = %+v", got)
	}
	if l.LayerAt(5) != nil {
		t.Fatal("LayerAt(5) should be nil")
	}
	if Empty().NumEntries() != 0 {
		t.Fatal("Empty cache has entries")
	}
}

// stagedLayer returns a copy of layer, staged with its probe blocks in a
// Local of its own.
func stagedLayer(t testing.TB, layer Layer) *Layer {
	t.Helper()
	l, err := NewLocal([]Layer{layer})
	if err != nil {
		t.Fatal(err)
	}
	l.StageBlocks(new(Blocks))
	return &l.Layers()[0]
}

// TestLocalStageBlocks pins the probe staging's shape and lifetime: its
// buffers hold exactly a local's whole 4-row blocks and entry norms, every
// layer with entries reads its own slice of them, and staging the Blocks
// into another local, or Drop, lets the first local go.
func TestLocalStageBlocks(t *testing.T) {
	a, b := unit(1), unit(2)
	l, err := NewLocal([]Layer{
		layerOf(4, []int{0, 1, 2, 3, 4}, [][]float32{a, b, a, b, a}),
		layerOf(6, nil, nil),
		layerOf(9, []int{0}, [][]float32{a}),
	})
	if err != nil {
		t.Fatal(err)
	}
	var st Blocks
	l.StageBlocks(&st)
	if want := (8 + 4) * len(a); len(st.blocks) != want || cap(st.blocks) != want {
		t.Fatalf("block buffer %d/%d floats, want exactly %d", len(st.blocks), cap(st.blocks), want)
	}
	if len(st.snorm) != 6 || len(st.probes) != 2 {
		t.Fatalf("staged %d norms for %d layers, want 6 for 2", len(st.snorm), len(st.probes))
	}
	blocksAt, snormAt := 0, 0
	for i := range l.Layers() {
		layer := &l.Layers()[i]
		if layer.Len() == 0 {
			if layer.probe != nil {
				t.Fatalf("empty layer %d staged", i)
			}
			continue
		}
		p := layer.probe
		if p == nil || &p.blocks[0] != &st.blocks[blocksAt] || &p.snorm[0] != &st.snorm[snormAt] {
			t.Fatalf("layer %d does not stage into its slice of the buffers", i)
		}
		for k, n2 := range layer.Norm2 {
			if p.snorm[k] != math.Sqrt(n2) {
				t.Fatalf("layer %d entry %d: snorm %v, want Sqrt(%v)", i, k, p.snorm[k], n2)
			}
		}
		blocksAt, snormAt = blocksAt+len(p.blocks), snormAt+len(p.snorm)
	}
	next, err := NewLocal([]Layer{layerOf(1, []int{0}, [][]float32{b})})
	if err != nil {
		t.Fatal(err)
	}
	next.StageBlocks(&st)
	for i := range l.Layers() {
		if l.Layers()[i].probe != nil {
			t.Fatalf("layer %d still reads the staging after it moved to another local", i)
		}
	}
	if next.Layers()[0].probe == nil {
		t.Fatal("the second local was not staged")
	}
	st.Drop()
	if next.Layers()[0].probe != nil {
		t.Fatal("Drop left the local reading the staging")
	}
}

func TestProbeHitOnClearWinner(t *testing.T) {
	a, b := unit(10), unit(11)
	layer := layerOf(0, []int{3, 8}, [][]float32{a, b})
	lk := NewLookup(Config{Alpha: 0.5, Theta: 0.05})
	// Probe with a vector close to entry a but with positive cosine to b
	// as well (Eq. 2 needs a positive runner-up).
	v := vecmath.WeightedSum(1, a, 0.3, b)
	vecmath.Normalize(v)
	res := lk.Probe(&layer, v)
	if !res.Hit || res.Class != 3 {
		t.Fatalf("expected hit on class 3, got %+v", res)
	}
	if res.Entries != 2 {
		t.Fatalf("Entries = %d", res.Entries)
	}
	if res.Score <= 0.05 {
		t.Fatalf("score %v should exceed theta", res.Score)
	}
}

func TestProbeMissWhenAmbiguous(t *testing.T) {
	a, b := unit(10), unit(11)
	layer := layerOf(0, []int{3, 8}, [][]float32{a, b})
	lk := NewLookup(Config{Alpha: 0.5, Theta: 0.05})
	// Equidistant vector: discriminative score ~0.
	v := vecmath.WeightedSum(1, a, 1, b)
	vecmath.Normalize(v)
	res := lk.Probe(&layer, v)
	if res.Hit {
		t.Fatalf("ambiguous vector must miss, got %+v", res)
	}
	if res.Score > 0.05 {
		t.Fatalf("ambiguous score = %v", res.Score)
	}
}

func TestProbeSingleClassNeverHits(t *testing.T) {
	a := unit(1)
	layer := layerOf(0, []int{5}, [][]float32{a})
	lk := NewLookup(Config{Alpha: 0.5, Theta: 0.0})
	if res := lk.Probe(&layer, a); res.Hit {
		t.Fatal("single cached class cannot clear Eq. 2")
	}
}

func TestProbeEmptyLayer(t *testing.T) {
	layer := layerOf(0, nil, nil)
	lk := NewLookup(Config{Alpha: 0.5, Theta: 0.01})
	res := lk.Probe(&layer, unit(1))
	if res.Hit || res.Entries != 0 {
		t.Fatalf("empty layer probe = %+v", res)
	}
}

func TestAccumulationAcrossLayers(t *testing.T) {
	// Eq. 1: A2 = C2 + alpha*C1. Verify against a hand computation.
	dim := 4
	e1 := []float32{1, 0, 0, 0}
	e2 := []float32{0, 1, 0, 0}
	layerA := layerOf(0, []int{0, 1}, [][]float32{e1, e2})
	layerB := layerOf(1, []int{0, 1}, [][]float32{e1, e2})
	lk := NewLookup(Config{Alpha: 0.5, Theta: 1e9}) // never hit; inspect state
	v := make([]float32, dim)
	v[0], v[1] = 0.8, 0.6 // unit: cos to e1 = 0.8, e2 = 0.6
	lk.Probe(&layerA, v)
	lk.Probe(&layerB, v)
	acc := lk.Accumulated()
	if math.Abs(acc[0]-(0.8+0.5*0.8)) > 1e-6 {
		t.Fatalf("acc[0] = %v, want 1.2", acc[0])
	}
	if math.Abs(acc[1]-(0.6+0.5*0.6)) > 1e-6 {
		t.Fatalf("acc[1] = %v, want 0.9", acc[1])
	}
}

func TestAccumulationStabilizesDecision(t *testing.T) {
	// A vector that is marginally closer to class 0 at every layer should
	// hit after enough layers even if a single layer's score is below
	// theta — accumulated scores preserve the consistent small gap while
	// Eq. 2's ratio stays roughly constant, so this checks the gap does
	// not vanish.
	e0, e1 := unit(20), unit(21)
	theta := 0.02
	lk := NewLookup(Config{Alpha: 0.5, Theta: theta})
	v := vecmath.WeightedSum(1, e0, 0.92, e1)
	vecmath.Normalize(v)
	layer := layerOf(0, []int{0, 1}, [][]float32{e0, e1})
	res := lk.Probe(&layer, v)
	for s := 1; s < 6 && !res.Hit; s++ {
		l := layerOf(s, []int{0, 1}, [][]float32{e0, e1})
		res = lk.Probe(&l, v)
	}
	if !res.Hit || res.Class != 0 {
		t.Fatalf("consistent small-gap vector should eventually hit class 0: %+v", res)
	}
}

func TestResetClearsState(t *testing.T) {
	e0, e1 := unit(30), unit(31)
	layer := layerOf(0, []int{0, 1}, [][]float32{e0, e1})
	lk := NewLookup(Config{Alpha: 0.5, Theta: 0.05})
	lk.Probe(&layer, e0)
	lk.Reset()
	if len(lk.Accumulated()) != 0 {
		t.Fatal("Reset must clear accumulated scores")
	}
}

func TestNewLookupPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLookup(Config{Alpha: 2, Theta: 0})
}

func TestNegativeRunnerUpIsMiss(t *testing.T) {
	e0 := []float32{1, 0}
	e1 := []float32{0, 1}
	layer := layerOf(0, []int{0, 1}, [][]float32{e0, e1})
	lk := NewLookup(Config{Alpha: 0.5, Theta: 0.01})
	// cos to e0 positive, cos to e1 negative => ratio undefined => miss.
	res := lk.Probe(&layer, []float32{0.9, -0.4})
	if res.Hit {
		t.Fatal("negative runner-up must not hit")
	}
}

func TestPropertyHitImpliesScoreAboveTheta(t *testing.T) {
	f := func(seed uint64, thetaRaw uint8) bool {
		theta := float64(thetaRaw) / 512.0
		r := xrand.New(seed)
		n := 2 + r.IntN(8)
		classes := make([]int, n)
		entries := make([][]float32, n)
		for i := range classes {
			classes[i] = i
			entries[i] = unit(seed, uint64(i))
		}
		layer := layerOf(0, classes, entries)
		lk := NewLookup(Config{Alpha: 0.5, Theta: theta})
		v := unit(seed, 999)
		res := lk.Probe(&layer, v)
		if res.Hit && res.Score <= theta {
			return false
		}
		// The winning class must carry the max accumulated score.
		if res.Hit {
			acc := lk.Accumulated()
			for _, a := range acc {
				if a > acc[res.Class] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// benchProbe times one probe of a staged n-entry layer of 256-dimensional
// entries, as a client probes its allocated cache. A window's layers hold
// 5–10 entries, so 7 and 8 are the workload's regime (one kernel call, with
// and without a padded row); 50 is the many-entry bound.
func randLayer(r *rand.Rand, site, entries, dim, classSpread int) Layer {
	l := Layer{Site: site}
	for i := 0; i < entries; i++ {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(r.NormFloat64())
		}
		l.Classes = append(l.Classes, r.IntN(classSpread))
		l.Entries = append(l.Entries, v)
	}
	return l
}

// TestProbeZeroAllocsSteadyState asserts the per-sample probe path stays
// allocation-free once the accumulator has grown to the class universe.
func TestProbeZeroAllocsSteadyState(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 5))
	lk := NewLookup(Config{Alpha: DefaultAlpha, Theta: 0.01})
	layer := randLayer(r, 0, 24, 64, 40)
	vec := make([]float32, 64)
	for d := range vec {
		vec[d] = float32(r.NormFloat64())
	}
	lk.Reset()
	lk.Probe(&layer, vec) // warm: grow accumulator and touched list
	if n := testing.AllocsPerRun(200, func() {
		lk.Reset()
		lk.Probe(&layer, vec)
	}); n != 0 {
		t.Errorf("Probe allocates %v/op at steady state, want 0", n)
	}

}

// TestStagedProbeMatchesUnstaged drives staged and unstaged copies of
// identical random layers through per-sample probes and requires bitwise
// equal results: the staged path (the block kernel over the interleaved
// entries and their staged norms) must be indistinguishable from the
// per-pair Cosine path, across awkward dims and entry counts, and so must a
// staged layer whose blocks were dropped.
func TestStagedProbeMatchesUnstaged(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 23))
	cfg := Config{Alpha: DefaultAlpha, Theta: 0.01}
	for _, dim := range []int{1, 3, 31, 64, 128, 130} {
		for _, entries := range []int{1, 2, 5, 12, 33} {
			plain := NewLookup(cfg)
			staged := NewLookup(cfg)
			for trial := 0; trial < 5; trial++ {
				layer := randLayer(r, 0, entries, dim, 10)
				withBlocks := stagedLayer(t, Layer{Site: layer.Site, Classes: layer.Classes, Entries: layer.Entries})
				dropped := *withBlocks
				dropped.probe = nil
				if withBlocks.probe == nil || !withBlocks.Staged() || withBlocks.maxCls != layer.maxClass() {
					t.Fatalf("dim=%d n=%d: staging lost the max class (%d != %d)", dim, entries, withBlocks.maxCls, layer.maxClass())
				}
				plain.Reset()
				staged.Reset()
				perEntry := NewLookup(cfg)
				for probe := 0; probe < 3; probe++ {
					v := make([]float32, dim)
					for d := range v {
						v[d] = float32(r.NormFloat64())
					}
					want := plain.Probe(&layer, v)
					got := staged.Probe(withBlocks, v)
					if want != got {
						t.Fatalf("dim=%d n=%d trial %d probe %d: unstaged %+v != staged %+v", dim, entries, trial, probe, want, got)
					}
					if got := perEntry.Probe(&dropped, v); want != got {
						t.Fatalf("dim=%d n=%d trial %d probe %d: unstaged %+v != blocks dropped %+v", dim, entries, trial, probe, want, got)
					}
				}
			}
		}
	}
}

// TestSequentialStagedProbeZeroAlloc asserts the borrowed-staging
// contract: a layer that arrives with norms handed in by the allocation
// path (an allocation view's own) keeps exactly those through StageBlocks,
// and the block Lookup.Probe path is allocation-free at steady state.
func TestSequentialStagedProbeZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 43))
	layer := randLayer(r, 0, 9, 64, 10)
	layer.Norm2 = make([]float64, layer.Len())
	vecmath.SquaredNorms(layer.Entries, layer.Norm2)
	handed := &layer.Norm2[0]
	staged := stagedLayer(t, layer)
	if &staged.Norm2[0] != handed {
		t.Fatal("staging recomputed a layer whose norms were handed in")
	}
	lk := NewLookup(Config{Alpha: DefaultAlpha, Theta: 0.01})
	v := make([]float32, 64)
	for d := range v {
		v[d] = float32(r.NormFloat64())
	}
	lk.Reset()
	lk.Probe(staged, v) // grow scratch
	if allocs := testing.AllocsPerRun(100, func() {
		lk.Reset()
		lk.Probe(staged, v)
	}); allocs != 0 {
		t.Errorf("steady-state staged probe: %.1f allocs/op, want 0", allocs)
	}
}

// TestStagedProbeRejectsMismatchedQuery pins the staged path's failure
// mode to the unstaged one: a query shorter than the entry dimension
// must panic, never score a silently truncated dot.
func TestStagedProbeRejectsMismatchedQuery(t *testing.T) {
	r := rand.New(rand.NewPCG(61, 67))
	layer := stagedLayer(t, randLayer(r, 0, 5, 32, 10))
	lk := NewLookup(Config{Alpha: DefaultAlpha, Theta: 0.01})
	lk.Reset()
	short := make([]float32, 16)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("staged Probe accepted a short query")
			}
		}()
		lk.Probe(layer, short)
	}()
}

func benchProbe(b *testing.B, n int) {
	const dim = 256
	classes := make([]int, n)
	entries := make([][]float32, n)
	for i := range classes {
		classes[i] = i
		entries[i] = xrand.NormalVector(xrand.New(uint64(i)), dim)
		vecmath.Normalize(entries[i])
	}
	layer := stagedLayer(b, layerOf(0, classes, entries))
	lk := NewLookup(Config{Alpha: 0.5, Theta: 0.02})
	v := xrand.NormalVector(xrand.New(777), dim)
	vecmath.Normalize(v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lk.Reset()
		lk.Probe(layer, v)
	}
}

func BenchmarkProbe7Entries(b *testing.B)  { benchProbe(b, 7) }
func BenchmarkProbe8Entries(b *testing.B)  { benchProbe(b, 8) }
func BenchmarkProbe50Entries(b *testing.B) { benchProbe(b, 50) }
