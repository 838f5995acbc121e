package semantics

import (
	"math"

	"coca/internal/dataset"
	"coca/internal/model"
	"coca/internal/vecmath"
	"coca/internal/xrand"
)

// The Gaussian reference sampler: the substrate as it was before the noise
// became table-driven, kept verbatim (only the two exported names are
// prefixed) so TestSamplerMatchesGaussianReference can hold the production
// sampler to its distribution. Its isotropic noise is a fresh Gaussian
// vector per (sample, layer), normalised to a uniform direction.

// confusableOf deterministically picks the class a hard sample drifts
// toward.
func (s *Space) confusableOf(smp dataset.Sample) int {
	conf := s.DS.Confusables(smp.Class)
	if len(conf) == 0 {
		return (smp.Class + 1) % s.DS.NumClasses
	}
	r := xrand.New(smp.Seed, saltConf)
	return conf[r.IntN(len(conf))]
}

// center returns the sample's true feature center at layer (before noise
// and client bias): the class prototype — blended toward the sample's
// confusable class according to difficulty — mixed with the group centroid
// according to the layer's resolution of this sample.
func (s *Space) center(smp dataset.Sample, layer int) []float32 {
	b := s.blend(smp.Difficulty)
	base := s.protos[layer][smp.Class]
	if b > 0 {
		blended := vecmath.WeightedSum(float32(1-b), base, float32(b), s.protos[layer][s.confusableOf(smp)])
		vecmath.Normalize(blended)
		base = blended
	}
	w := s.resolutionWeight(smp.Difficulty, layer)
	if w >= 1 {
		return base
	}
	centroid := s.centroids[layer][s.DS.Group(smp.Class)]
	c := vecmath.WeightedSum(float32(w), base, float32(1-w), centroid)
	vecmath.Normalize(c)
	return c
}

// driftVector returns the class's semantic-drift direction at the given
// epoch: a smooth rotation within the class's confusion-group subspace
// (toward one sibling, then the next), so stale cache entries genuinely
// mis-rank the drifted class against its siblings — random-direction
// drift would only dilute all similarities equally and leave Eq. 2
// unaffected.
func (s *Space) driftVector(class, layer int, epoch float64) []float32 {
	targets := s.DS.Confusables(class)
	if len(targets) == 0 {
		targets = []int{(class + 1) % s.DS.NumClasses}
	}
	e := int(math.Floor(epoch))
	f := float32(epoch - float64(e))
	own := s.protos[layer][class]
	// Small epoch-dependent shuffle so the rotation path varies by class.
	r := xrand.New(s.DS.Seed, saltDrift, uint64(class))
	off := r.IntN(len(targets))
	ta := s.protos[layer][targets[(e+off)%len(targets)]]
	tb := s.protos[layer][targets[(e+1+off)%len(targets)]]
	d := make([]float32, model.Dim)
	driftInto(d, own, ta, tb, f)
	return d
}

// referenceSampleVector generates the unit semantic vector of smp at
// cache-layer site layer under environment env (nil for an unbiased client).
// The result is freshly allocated and deterministic in (smp, layer, env).
func (s *Space) referenceSampleVector(smp dataset.Sample, layer int, env *Env) []float32 {
	v := vecmath.Clone(s.center(smp, layer))
	if env != nil && env.Weight != 0 {
		vecmath.Axpy(float32(env.Weight), env.Bias, v)
	}
	if env != nil && env.DriftWeight != 0 {
		vecmath.Axpy(float32(env.DriftWeight), s.driftVector(smp.Class, layer, env.DriftEpoch), v)
	}
	sigma := s.Arch.NoiseScale[layer] * (noiseLo + noiseSpan*smp.Difficulty)
	r := xrand.New(smp.Seed, saltNoise, uint64(layer))
	// Split the noise into a class-agnostic component along the layer
	// common direction and an isotropic remainder (unit direction), so
	// sigma is an exact amplitude relative to the unit center.
	shared := float32(sigma * math.Sqrt(sharedNoiseFrac) * r.NormFloat64())
	vecmath.Axpy(shared, s.commons[layer], v)
	noise := xrand.NormalVector(r, model.Dim)
	vecmath.Normalize(noise)
	vecmath.Axpy(float32(sigma*math.Sqrt(1-sharedNoiseFrac)), noise, v)
	vecmath.Normalize(v)
	return v
}

// referencePredict runs the full (uncached) model on smp: nearest-prototype
// classification of the final feature vector, with softmax probabilities.
// Harder samples produce flatter probability vectors (confidence fades
// with difficulty), so the paper's Δ-selection of confident misses favours
// genuinely easy — and hence correct — samples.
func (s *Space) referencePredict(smp dataset.Sample, env *Env) Prediction {
	v := s.referenceSampleVector(smp, s.FinalLayer(), env)
	logits := make([]float32, s.DS.NumClasses)
	finals := s.protos[s.FinalLayer()]
	temp := float32(softmaxTemp * (1 + 3*smp.Difficulty))
	for c := range logits {
		logits[c] = vecmath.Dot(v, finals[c]) / temp
	}
	probs := vecmath.Softmax(logits)
	return Prediction{Class: vecmath.Argmax(probs), Probs: probs}
}
