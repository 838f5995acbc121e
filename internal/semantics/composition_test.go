package semantics

import (
	"math"
	"testing"

	"coca/internal/dataset"
	"coca/internal/model"
	"coca/internal/vecmath"
	"coca/internal/xrand"
)

// The composed sampler: SampleVectorInto as it was before its passes were
// fused, kept verbatim so TestFusedSamplerMatchesComposition can hold the
// fused pass to it. It builds the center (one blend and normalisation per
// intermediate step), adds the client bias, the drift and the noise one Axpy
// or loop at a time, and normalises at the end. Only the confusable and
// drift helpers differ: they are the reference sampler's, so this file shares
// no sampling code with semantics.go.

// centerInto writes the sample's true feature center at layer (before noise
// and client bias) into dst: the class prototype — blended toward the
// sample's confusable class according to difficulty — mixed with the group
// centroid according to the layer's resolution of this sample.
func (s *Space) centerInto(dst []float32, smp dataset.Sample, layer int) {
	b := s.blend(smp.Difficulty)
	base := s.protos[layer][smp.Class]
	if b > 0 {
		conf := s.protos[layer][s.confusableOf(smp)]
		w1, w2 := float32(1-b), float32(b)
		for i := range dst {
			dst[i] = w1*base[i] + w2*conf[i]
		}
		vecmath.Normalize(dst)
		base = dst
	}
	w := s.resolutionWeight(smp.Difficulty, layer)
	if w >= 1 {
		if &base[0] != &dst[0] {
			copy(dst, base)
		}
		return
	}
	centroid := s.centroids[layer][s.DS.Group(smp.Class)]
	w1, w2 := float32(w), float32(1-w)
	for i := range dst {
		dst[i] = w1*base[i] + w2*centroid[i]
	}
	vecmath.Normalize(dst)
}

// compositionSampleVectorInto writes the unit semantic vector of smp at
// cache-layer site layer under environment env into dst, pass by pass.
func (s *Space) compositionSampleVectorInto(dst []float32, smp dataset.Sample, layer int, env *Env, sc *Scratch) {
	dst = dst[:model.Dim]
	s.centerInto(dst, smp, layer)
	if env != nil && env.Weight != 0 {
		vecmath.Axpy(float32(env.Weight), env.Bias, dst)
	}
	if env != nil && env.DriftWeight != 0 {
		vecmath.Axpy(float32(env.DriftWeight), s.driftVector(smp.Class, layer, env.DriftEpoch), dst)
	}
	sigma := s.Arch.NoiseScale[layer] * (noiseLo + noiseSpan*smp.Difficulty)
	r := sc.rng.Seed(xrand.HashSeed(smp.Seed, saltNoise, uint64(layer)))
	// Split the noise into a class-agnostic component along the layer
	// common direction and an isotropic remainder (unit direction), so
	// sigma is an exact amplitude relative to the unit center.
	shared := float32(sigma * math.Sqrt(sharedNoiseFrac) * r.NormFloat64())
	vecmath.Axpy(shared, s.commons[layer], dst)
	// The isotropic direction is one table row, cyclically rotated, with an
	// independent random sign per coordinate. Rows are unit length and
	// neither rotation nor signs change a norm, so it needs no
	// normalisation. model.Dim is a power of two and a multiple of 64.
	u := r.Uint64()
	row := s.noiseTable[(u%noiseRows)*model.Dim:][:model.Dim]
	rot := int(u>>32) & (model.Dim - 1)
	a := float32(sigma * math.Sqrt(1-sharedNoiseFrac))
	for w := 0; w < model.Dim; w += 64 {
		signs := r.Uint64()
		for i := w; i < w+64; i++ {
			x := math.Float32bits(a*row[(i+rot)&(model.Dim-1)]) ^ uint32(signs&1)<<31
			dst[i] += math.Float32frombits(x)
			signs >>= 1
		}
	}
	vecmath.Normalize(dst)
}

// TestFusedSamplerMatchesComposition holds the fused sampler to the composed
// one over every class and layer, with client bias on and drift on for every
// other sample: the same draws, so the two may differ only by float
// rounding. It also checks that the fused pass's branches all ran: hard
// samples (a confusable blend), unresolved ones (a centroid blend), drift,
// and hard samples of a singleton group, which blend toward class+1.
func TestFusedSamplerMatchesComposition(t *testing.T) {
	const tol = 1e-6
	got, want := make([]float32, model.Dim), make([]float32, model.Dim)
	env := NewEnv(11, 0.05)
	var worst float64
	var vectors, hard, unresolved, drifted, singleton int
	for _, tc := range []struct {
		s       *Space
		samples int
	}{
		{testSpace(t), 200},
		// Groups of 5: the 11th class is alone in its group.
		{NewSpace(dataset.UCF101().Subset(11), model.ResNet101()), 100},
	} {
		s, sc := tc.s, tc.s.NewScratch()
		for class := 0; class < s.DS.NumClasses; class++ {
			_, siblings := s.siblings(class)
			for k := 0; k < tc.samples; k++ {
				smp := s.DS.NewSample(class, uint64(k), 0xf05e)
				env.DriftWeight = 0.05 * float64(k%2)
				env.DriftEpoch = float64(k%9) + 0.35
				for layer := 0; layer <= s.FinalLayer(); layer++ {
					s.SampleVectorInto(got, smp, layer, env, sc)
					s.compositionSampleVectorInto(want, smp, layer, env, sc)
					for i := range got {
						d := math.Abs(float64(got[i]) - float64(want[i]))
						worst = math.Max(worst, d)
						if d > tol {
							t.Fatalf("%d classes, class %d sample %d layer %d drift %v dim %d: fused %v, composed %v",
								s.DS.NumClasses, class, k, layer, env.DriftWeight, i, got[i], want[i])
						}
					}
					vectors++
					if s.blend(smp.Difficulty) > 0 {
						hard++
						if siblings == 0 {
							singleton++
						}
					}
					if s.resolutionWeight(smp.Difficulty, layer) < 1 {
						unresolved++
					}
					if env.DriftWeight != 0 {
						drifted++
					}
				}
			}
		}
	}
	t.Logf("max |Δ| per component %.3g over %d vectors; hard %d (singleton group %d), unresolved %d, drifted %d",
		worst, vectors, hard, singleton, unresolved, drifted)
	if hard == 0 || singleton == 0 || unresolved == 0 || drifted == 0 {
		t.Errorf("a branch never ran: hard %d, singleton group %d, unresolved %d, drifted %d", hard, singleton, unresolved, drifted)
	}
}
