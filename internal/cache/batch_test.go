package cache

import (
	"math/rand/v2"
	"testing"

	"coca/internal/vecmath"
)

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

// TestBatchProbeMatchesProbe drives the batched probe and per-sample
// probes over identical random layers and requires bitwise-equal results
// and accumulator states at every step.
func TestBatchProbeMatchesProbe(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 13))
	cfg := Config{Alpha: DefaultAlpha, Theta: 0.01}
	const batch, dim, layers = 9, 64, 5

	seq := make([]*Lookup, batch)
	bat := make([]*Lookup, batch)
	for i := range seq {
		seq[i] = NewLookup(cfg)
		bat[i] = NewLookup(cfg)
	}
	var bp BatchProbe
	out := make([]Result, batch)
	vecs := make([][]float32, batch)

	for trial := 0; trial < 20; trial++ {
		for i := range seq {
			seq[i].Reset()
			bat[i].Reset()
		}
		for li := 0; li < layers; li++ {
			layer := randLayer(r, li, 1+r.IntN(13), dim, 12)
			for i := range vecs {
				v := make([]float32, dim)
				for d := range v {
					v[d] = float32(r.NormFloat64())
				}
				vecs[i] = v
			}
			bp.Probe(&layer, vecs, bat, out)
			for i := range vecs {
				want := seq[i].Probe(&layer, vecs[i])
				if want != out[i] {
					t.Fatalf("trial %d layer %d sample %d: Probe %+v != BatchProbe %+v", trial, li, i, want, out[i])
				}
			}
		}
		for i := range seq {
			sa, ba := seq[i].Accumulated(), bat[i].Accumulated()
			if len(sa) != len(ba) {
				t.Fatalf("trial %d sample %d: accumulator sizes diverged", trial, i)
			}
			for class, v := range sa {
				if ba[class] != v {
					t.Fatalf("trial %d sample %d class %d: accumulated %v != %v", trial, i, class, v, ba[class])
				}
			}
		}
	}
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

	var bp BatchProbe
	vecs := [][]float32{vec, vec, vec, vec}
	lks := []*Lookup{lk, NewLookup(lk.Config()), NewLookup(lk.Config()), NewLookup(lk.Config())}
	out := make([]Result, len(vecs))
	bp.Probe(&layer, vecs, lks, out) // warm the batch scratch
	if n := testing.AllocsPerRun(200, func() {
		for _, l := range lks {
			l.Reset()
		}
		bp.Probe(&layer, vecs, lks, out)
	}); n != 0 {
		t.Errorf("BatchProbe allocates %v/op at steady state, want 0", n)
	}
}

// TestStagedProbeMatchesUnstaged drives staged and unstaged copies of
// identical random layers through per-sample probes and requires bitwise
// equal results: the publish-time staging path (widened-row kernel over
// the layer's mirrors) must be indistinguishable from the legacy
// per-pair Cosine path, across awkward dims and entry counts.
func TestStagedProbeMatchesUnstaged(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 23))
	cfg := Config{Alpha: DefaultAlpha, Theta: 0.01}
	for _, dim := range []int{1, 3, 31, 64, 128, 130} {
		for _, entries := range []int{1, 2, 5, 12, 33} {
			plain := NewLookup(cfg)
			staged := NewLookup(cfg)
			for trial := 0; trial < 5; trial++ {
				layer := randLayer(r, 0, entries, dim, 10)
				stagedLayer := Layer{Site: layer.Site, Classes: layer.Classes, Entries: layer.Entries}
				stagedLayer.Stage()
				if !stagedLayer.Staged() || stagedLayer.MaxClass() != layer.MaxClass() {
					t.Fatalf("dim=%d n=%d: staging lost MaxClass (%d != %d)", dim, entries, stagedLayer.MaxClass(), layer.MaxClass())
				}
				plain.Reset()
				staged.Reset()
				for probe := 0; probe < 3; probe++ {
					v := make([]float32, dim)
					for d := range v {
						v[d] = float32(r.NormFloat64())
					}
					want := plain.Probe(&layer, v)
					got := staged.Probe(&stagedLayer, v)
					if want != got {
						t.Fatalf("dim=%d n=%d trial %d probe %d: unstaged %+v != staged %+v", dim, entries, trial, probe, want, got)
					}
				}
			}
		}
	}
}

// TestBatchProbeBorrowsPublishedStaging asserts the borrowed-staging
// contract: a layer that arrives with mirrors handed in by the allocation
// path (a view's own, or the ones memoised on published entries) keeps
// exactly those through Stage, probing it must not touch the batch's
// fallback widening scratch, and steady-state probes allocate nothing.
func TestBatchProbeBorrowsPublishedStaging(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 37))
	cfg := Config{Alpha: DefaultAlpha, Theta: 0.01}
	const batch, dim = 8, 64
	layer := randLayer(r, 0, 12, dim, 10)
	layer.Wide, layer.Norm2 = vecmath.WidenRows(layer.Entries)
	handed := &layer.Wide[0][0]
	layer.Stage()
	if &layer.Wide[0][0] != handed {
		t.Fatal("Stage re-widened a layer whose mirrors were handed in")
	}
	lks := make([]*Lookup, batch)
	for i := range lks {
		lks[i] = NewLookup(cfg)
	}
	vecs := make([][]float32, batch)
	for i := range vecs {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(r.NormFloat64())
		}
		vecs[i] = v
	}
	var bp BatchProbe
	out := make([]Result, batch)
	probeAll := func() {
		for i := range lks {
			lks[i].Reset()
		}
		bp.Probe(&layer, vecs, lks, out)
	}
	probeAll() // grow query scratch to the steady shape
	if bp.wide != nil || bp.norm2 != nil {
		t.Fatalf("staged layer probe touched the fallback widening scratch")
	}
	if allocs := testing.AllocsPerRun(100, probeAll); allocs != 0 {
		t.Errorf("steady-state staged batch probe: %.1f allocs/op, want 0", allocs)
	}
}

// TestSequentialStagedProbeZeroAlloc is the per-sample counterpart: the
// staged Lookup.Probe path must be allocation-free at steady state.
func TestSequentialStagedProbeZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 43))
	layer := randLayer(r, 0, 9, 64, 10)
	layer.Stage()
	lk := NewLookup(Config{Alpha: DefaultAlpha, Theta: 0.01})
	v := make([]float32, 64)
	for d := range v {
		v[d] = float32(r.NormFloat64())
	}
	lk.Reset()
	lk.Probe(&layer, v) // grow scratch
	if allocs := testing.AllocsPerRun(100, func() {
		lk.Reset()
		lk.Probe(&layer, v)
	}); allocs != 0 {
		t.Errorf("steady-state staged probe: %.1f allocs/op, want 0", allocs)
	}
}

// TestBatchProbeScratchReuseAcrossShapes reuses one BatchProbe across
// unstaged layers whose entry count grows while entries×dim still fits
// the previous widened backing — the regime where the per-count staging
// slices (norm2/snorm) must be resized independently of the backing.
func TestBatchProbeScratchReuseAcrossShapes(t *testing.T) {
	r := rand.New(rand.NewPCG(51, 53))
	cfg := Config{Alpha: DefaultAlpha, Theta: 0.01}
	var bp BatchProbe
	shapes := []struct{ n, dim int }{{4, 64}, {16, 16}, {2, 128}, {13, 8}}
	for _, shape := range shapes {
		layer := randLayer(r, 0, shape.n, shape.dim, 10) // unstaged on purpose
		lks := []*Lookup{NewLookup(cfg)}
		vecs := [][]float32{make([]float32, shape.dim)}
		for d := range vecs[0] {
			vecs[0][d] = float32(r.NormFloat64())
		}
		out := make([]Result, 1)
		bp.Probe(&layer, vecs, lks, out) // must not panic or mis-slice
		lk := NewLookup(cfg)
		if want := lk.Probe(&layer, vecs[0]); want != out[0] {
			t.Fatalf("n=%d dim=%d: Probe %+v != BatchProbe %+v", shape.n, shape.dim, want, out[0])
		}
	}
}

// TestStagedProbeRejectsMismatchedQuery pins the staged path's failure
// mode to the unstaged one: a query shorter than the entry dimension
// must panic, never score a silently truncated dot.
func TestStagedProbeRejectsMismatchedQuery(t *testing.T) {
	r := rand.New(rand.NewPCG(61, 67))
	layer := randLayer(r, 0, 5, 32, 10)
	layer.Stage()
	lk := NewLookup(Config{Alpha: DefaultAlpha, Theta: 0.01})
	lk.Reset()
	short := make([]float32, 16)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("staged Probe accepted a short query")
			}
		}()
		lk.Probe(&layer, short)
	}()
	var bp BatchProbe
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BatchProbe accepted a short query")
			}
		}()
		bp.Probe(&layer, [][]float32{short}, []*Lookup{lk}, make([]Result, 1))
	}()
}
