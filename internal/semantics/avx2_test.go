package semantics

import (
	"math"
	"testing"

	"coca/internal/dataset"
	"coca/internal/model"
	"coca/internal/xrand"
)

// TestAVX2SamplerMatchesGo holds the sampler's assembly pass to its Go pass
// bit for bit: every class and layer, 200 samples each, client bias on and
// drift on for every other sample, and also on a space whose 11th class is
// alone in its group; then
// the two passes alone, on random weights and sign words.
func TestAVX2SamplerMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this machine: only the Go pass exists")
	}
	defer func() { useAVX2 = true }()
	got, want := make([]float32, model.Dim), make([]float32, model.Dim)
	env := NewEnv(12, 0.05)
	vectors := 0
	for _, s := range []*Space{testSpace(t), NewSpace(dataset.UCF101().Subset(11), model.ResNet101())} {
		sc := s.NewScratch()
		for class := 0; class < s.DS.NumClasses; class++ {
			for k := 0; k < 200; k++ {
				smp := s.DS.NewSample(class, uint64(k), 0xa5c2)
				env.DriftWeight = 0.05 * float64(k%2)
				env.DriftEpoch = float64(k%9) + 0.35
				for layer := 0; layer <= s.FinalLayer(); layer++ {
					useAVX2 = true
					s.SampleVectorInto(got, smp, layer, env, sc)
					useAVX2 = false
					s.SampleVectorInto(want, smp, layer, env, sc)
					for i := range got {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%d classes, class %d sample %d layer %d drift %v dim %d: AVX2 %x, Go %x",
								s.DS.NumClasses, class, k, layer, env.DriftWeight, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
					vectors++
				}
			}
		}
	}
	t.Logf("%d vectors bitwise equal", vectors)

	// The sum of squares reaches a sampled vector only through a float32
	// scale, which hides most roundings of the float64 chain: compare the
	// pass's own outputs too, sums included.
	s := testSpace(t)
	r := xrand.New(0xa5c3)
	vec := func() []float32 { return s.protos[r.IntN(s.FinalLayer()+1)][r.IntN(s.DS.NumClasses)] }
	for k := 0; k < 5000; k++ {
		var w [6]float32
		for i := range w {
			w[i] = float32(r.NormFloat64())
		}
		var signs [model.Dim / 64]uint64
		for i := range signs {
			signs[i] = r.Uint64()
		}
		base, conf, cent, shift, common := vec(), vec(), vec(), vec(), vec()
		row := s.noiseTable[r.IntN(noiseRows)*2*model.Dim+r.IntN(model.Dim):][:model.Dim]
		gotSum := accumulateAVX2(&got[0], &base[0], &conf[0], &cent[0], &shift[0], &common[0], &row[0], &w, &signs, model.Dim)
		wantSum := accumulate(want, base, conf, cent, shift, common, row, &w, &signs)
		if math.Float64bits(gotSum) != math.Float64bits(wantSum) {
			t.Fatalf("pass %d: AVX2 sum %x, Go %x", k, math.Float64bits(gotSum), math.Float64bits(wantSum))
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("pass %d dim %d: AVX2 %x, Go %x", k, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}
