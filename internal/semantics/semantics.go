// Package semantics generates the per-layer semantic vectors that the
// simulated models "extract" from samples, replacing the PyTorch forward
// pass of the paper's testbed.
//
// The generative model, per dataset × architecture:
//
//   - Every (class, layer) pair has a deterministic unit prototype built
//     from three components: a layer-common direction (generic features,
//     strong at shallow layers), a confusion-group direction shared by
//     semantically similar classes, and a class-private direction.
//   - A sample's semantic vector at layer j is its class center blended
//     toward a confusable class when the sample is hard (difficulty above
//     the calibrated error threshold), plus an optional client-context bias
//     and noise scaled by depth (model.NoiseScale) and difficulty: a
//     Gaussian draw along the layer-common direction and an isotropic unit
//     direction taken from a fixed table of Gaussian directions, re-signed
//     and rotated per (sample, layer).
//   - The full model's prediction is nearest-prototype classification on
//     the final-feature vector; the difficulty threshold is chosen so the
//     resulting top-1 accuracy matches the dataset's BaseAccuracy.
//
// Consequences that mirror the paper's observations: easy samples are
// separable (cache-hittable) at shallow layers, hard samples only near the
// head, shallow hits are less accurate (generic features dominate), deep
// hits are less accurate too (only hard, ambiguous samples remain), and
// client bias makes statically-initialized caches stale — the effect global
// cache updates repair (Fig. 2).
package semantics

import (
	"fmt"
	"math"
	"sort"

	"coca/internal/dataset"
	"coca/internal/model"
	"coca/internal/vecmath"
	"coca/internal/xrand"
)

// Tunables of the generative model. These are simulator calibration
// constants, fixed across all experiments (documented in DESIGN.md).
const (
	// noiseLo/noiseSpan map difficulty to a noise multiplier:
	// factor = noiseLo + noiseSpan*difficulty. Difficulty mostly acts
	// through resolution gating and confusable blending; the mild noise
	// coupling keeps hard frames a bit messier without letting their
	// noise manufacture spurious discriminative gaps.
	noiseLo   = 0.55
	noiseSpan = 0.35
	// blendWidth controls how quickly hard samples drift toward a
	// confusable class around the error threshold. A narrow transition
	// keeps the never-hittable "ambiguous band" small, allowing the
	// ~95% hit ratios the paper reports at low Θ (Fig. 5).
	blendWidth = 0.10
	// resolutionRamp is the difficulty margin over which class signal
	// ramps from absent to full as layer resolution passes the sample's
	// difficulty.
	resolutionRamp = 0.15
	// sharedNoiseFrac is the fraction of feature-noise energy that is
	// class-agnostic (illumination, gain, background), lying along the
	// layer-common direction. It shifts similarities to all cache
	// entries together and so barely disturbs Eq. 2's top-2 gap, unlike
	// the isotropic remainder.
	sharedNoiseFrac = 0.90
	// maxBlend caps the confusable drift so even the hardest samples
	// retain some true-class signal.
	maxBlend = 0.85
	// softmaxTemp sharpens cosine logits into probability vectors whose
	// top-2 gaps live in the paper's Δ range (0.05–0.35).
	softmaxTemp = 0.01
	// calibrationDraws is the sample count used to estimate the
	// difficulty quantile that separates correct from incorrect
	// full-model predictions.
	calibrationDraws = 20001
	// noiseRows is the number of unit Gaussian directions in a space's
	// noise table (1 MiB at model.Dim = 256, each row stored twice). Each
	// draw also picks one of model.Dim rotations and 2^model.Dim sign
	// patterns, which keep the cosine distributions those of fresh Gaussian
	// directions (TestSamplerMatchesGaussianReference). The rows bound how
	// often two draws share a (row, rotation) pair — the one case in which
	// their noise is more correlated than independent directions' — to 1 in
	// noiseRows·model.Dim = 131 072; more rows would only cost memory.
	noiseRows = 512

	// Seed salts for the independent random streams.
	saltCommon = 0x11
	saltGroup  = 0x22
	saltClass  = 0x33
	saltNoise  = 0x44
	saltConf   = 0x55
	saltEnv    = 0x66
	saltCalib  = 0x77
	saltDrift  = 0x88
	saltTable  = 0x99
)

// Env is the per-client feature context: a fixed bias direction added to
// every semantic vector the client observes, modelling camera position,
// lighting, microphone character and similar distribution shift, plus the
// shared semantic-drift clock. A nil Env or zero Weight means no shift.
type Env struct {
	Bias   []float32
	Weight float64
	// DriftWeight scales the gradual, class-specific evolution of
	// semantics over time ("the gradual evolution of class semantics",
	// paper §IV-C): contexts, seasons and scene composition change, so
	// the centers of each class slowly move. Statically-initialized
	// caches fall behind this drift; global cache updates track it —
	// the benefit Fig. 2 visualizes. 0 disables drift.
	DriftWeight float64
	// DriftEpoch is the shared drift clock, advanced by the deployment
	// (e.g. per round). Fractional values interpolate smoothly.
	DriftEpoch float64
}

// NewEnv derives a deterministic unit-bias environment for a client.
func NewEnv(seed uint64, weight float64) *Env {
	r := xrand.New(seed, saltEnv)
	b := xrand.NormalVector(r, model.Dim)
	vecmath.Normalize(b)
	return &Env{Bias: b, Weight: weight}
}

// Prediction is the outcome of a full (uncached) forward pass.
type Prediction struct {
	// Class is the argmax class.
	Class int
	// Probs is the softmax probability vector over all classes.
	Probs []float32
}

// Top2Gap returns prob1 - prob2, the paper's Δ-selection statistic.
func (p Prediction) Top2Gap() float32 {
	first, second := vecmath.ArgTop2(p.Probs)
	if first < 0 || second < 0 {
		return 0
	}
	return p.Probs[first] - p.Probs[second]
}

// Space binds a dataset to an architecture and precomputes all prototypes.
// It is immutable after construction and safe for concurrent use.
type Space struct {
	DS   *dataset.Spec
	Arch *model.Arch

	// protos[layer][class] is the unit prototype; layer ranges over
	// 0..Arch.NumLayers where the last index is the final feature layer.
	protos [][][]float32
	// centroids[layer][group] is the unit mean of the group's prototypes:
	// the "generic" appearance an unresolved sample presents.
	centroids [][][]float32
	// commons[layer] is the unit layer-common direction, used as the
	// shared-noise axis.
	commons [][]float32
	// errThreshold is the difficulty above which samples blend toward a
	// confusable class strongly enough that the full model errs.
	errThreshold float64
	// noiseTable holds noiseRows unit Gaussian directions of model.Dim
	// floats each, row after row and each row twice over, so a rotation of
	// a row is one contiguous slice: the isotropic noise of every sample is
	// one row, re-signed and rotated.
	noiseTable []float32
	// dots[layer] holds dotStride float64s per class, the inner products
	// of unit vectors the sampler's closed-form center norms need: the
	// class prototype's dot with its group centroid; its dots with the
	// classes it can blend toward, in confusableAt's order (siblings, or
	// the one fallback of a singleton group); and last the fallback's dot
	// with the class's centroid. ≈ 82 KiB at UCF101-50 × ResNet101.
	dots      [][]float64
	dotStride int
	// head holds the final-layer prototypes as column-interleaved probe
	// blocks (vecmath.Interleave), the prediction head's operand.
	head []float32
}

// NewSpace builds the prototype space. It panics if either spec is invalid:
// specs are constructed from code, not user input.
func NewSpace(ds *dataset.Spec, arch *model.Arch) *Space {
	if err := ds.Validate(); err != nil {
		panic(fmt.Sprintf("semantics: %v", err))
	}
	if err := arch.Validate(); err != nil {
		panic(fmt.Sprintf("semantics: %v", err))
	}
	s := &Space{DS: ds, Arch: arch}
	layers := arch.NumLayers + 1
	numGroups := (ds.NumClasses + ds.GroupSize - 1) / ds.GroupSize
	s.protos = make([][][]float32, layers)
	s.centroids = make([][][]float32, layers)
	s.commons = make([][]float32, layers)
	s.dots = make([][]float64, layers)
	s.dotStride = max(ds.GroupSize-1, 1) + 2
	// Effective same-group correlation: datasets with weaker confusion
	// (ConfusionWeight < 1) spread their group members further apart,
	// enlarging discriminative scores.
	rhoSame := 1 - (1-arch.RhoSame)/ds.ConfusionWeight
	for j := 0; j < layers; j++ {
		// Component weights realizing the target correlations with a
		// unit class-private part: for prototypes
		//   p = wc·common + wg·group + private,
		// E[cos] across groups is wc²/n² and within a group
		// (wc²+wg²)/n², with n² = wc²+wg²+1. Solving for the targets:
		rhoCross := arch.RhoCross[j]
		if rhoCross >= rhoSame {
			// Guard against dataset-modulated rhoSame dipping below the
			// profile; keep a minimal group margin.
			rhoCross = rhoSame - 0.005
		}
		norm2 := 1 / (1 - rhoSame)
		wc := math.Sqrt(rhoCross * norm2)
		wg := math.Sqrt((rhoSame - rhoCross) * norm2)
		common := xrand.NormalVector(xrand.New(ds.Seed, saltCommon, uint64(j)), model.Dim)
		groups := make([][]float32, numGroups)
		for g := range groups {
			groups[g] = xrand.NormalVector(xrand.New(ds.Seed, saltGroup, uint64(g), uint64(j)), model.Dim)
		}
		s.protos[j] = make([][]float32, ds.NumClasses)
		for c := 0; c < ds.NumClasses; c++ {
			// All three components are iid N(0,1) per coordinate, so the
			// final normalization preserves the relative weights.
			p := xrand.NormalVector(xrand.New(ds.Seed, saltClass, uint64(c), uint64(j)), model.Dim)
			vecmath.Axpy(float32(wc), common, p)
			vecmath.Axpy(float32(wg), groups[ds.Group(c)], p)
			vecmath.Normalize(p)
			s.protos[j][c] = p
		}
		s.commons[j] = vecmath.Normalized(common)
		s.centroids[j] = make([][]float32, numGroups)
		for g := 0; g < numGroups; g++ {
			lo := g * ds.GroupSize
			hi := lo + ds.GroupSize
			if hi > ds.NumClasses {
				hi = ds.NumClasses
			}
			s.centroids[j][g] = vecmath.Normalized(vecmath.Mean(s.protos[j][lo:hi]))
		}
		s.dots[j] = make([]float64, ds.NumClasses*s.dotStride)
		for c := 0; c < ds.NumClasses; c++ {
			p, cent := s.protos[j][c], s.centroids[j][ds.Group(c)]
			row := s.dotRow(j, c)
			row[0] = float64(vecmath.Dot(p, cent))
			for k := 1; k < s.dotStride-1; k++ {
				row[k] = float64(vecmath.Dot(p, s.protos[j][s.confusableAt(c, k-1)]))
			}
			row[s.dotStride-1] = float64(vecmath.Dot(s.protos[j][(c+1)%ds.NumClasses], cent))
		}
	}
	s.errThreshold = calibrateErrThreshold(ds)
	s.noiseTable = make([]float32, noiseRows*2*model.Dim)
	for k := 0; k < noiseRows; k++ {
		row := s.noiseTable[2*k*model.Dim:][:2*model.Dim]
		xrand.FillNormal(xrand.New(ds.Seed, saltTable, uint64(k)), row[:model.Dim])
		vecmath.Normalize(row[:model.Dim])
		copy(row[model.Dim:], row[:model.Dim])
	}
	final := s.protos[s.FinalLayer()]
	s.head = make([]float32, vecmath.BlocksLen(len(final), model.Dim))
	vecmath.Interleave(s.head, final)
	return s
}

// calibrateErrThreshold finds the difficulty quantile q such that
// P(difficulty < q) = BaseAccuracy under the dataset's difficulty Beta
// distribution, by empirical inversion with a fixed seed.
func calibrateErrThreshold(ds *dataset.Spec) float64 {
	r := xrand.New(ds.Seed, saltCalib)
	draws := make([]float64, calibrationDraws)
	for i := range draws {
		draws[i] = xrand.Beta(r, ds.DifficultyAlpha, ds.DifficultyBeta)
	}
	sort.Float64s(draws)
	idx := int(ds.BaseAccuracy * float64(len(draws)-1))
	return draws[idx]
}

// ErrThreshold exposes the calibrated difficulty threshold (useful for
// tests and diagnostics).
func (s *Space) ErrThreshold() float64 { return s.errThreshold }

// Prototype returns the unit prototype of class at cache-layer site layer.
// layer Arch.NumLayers addresses the final feature layer. The returned
// slice is shared and must not be mutated.
func (s *Space) Prototype(class, layer int) []float32 {
	return s.protos[layer][class]
}

// FinalLayer returns the index of the final feature layer.
func (s *Space) FinalLayer() int { return s.Arch.NumLayers }

// Scratch holds the reusable buffers and RNG stream of the sampler
// (SampleVectorInto, PredictScratch). All draws go through reseeded
// deterministic streams, so a result depends only on its inputs, never on
// what the scratch was used for before. Each concurrent user needs its own
// Scratch; a Scratch is bound to the Space that created it.
type Scratch struct {
	rng    *xrand.Stream
	drift  []float32
	vec    []float32 // PredictScratch's final-feature vector
	logits []float32
	probs  []float32
	blk    vecmath.BlockScratch
}

// NewScratch returns a scratch for the space.
func (s *Space) NewScratch() *Scratch {
	return &Scratch{rng: xrand.NewStream()}
}

// siblings returns the first class id of class's confusion group and the
// number of other classes in it.
func (s *Space) siblings(class int) (lo, n int) {
	lo = s.DS.Group(class) * s.DS.GroupSize
	hi := min(lo+s.DS.GroupSize, s.DS.NumClasses)
	return lo, hi - lo - 1
}

// confusableAt returns the k-th (modulo their number) of the classes that
// class can blend or drift toward: its confusion-group siblings in id order,
// or class+1 when its group has no other member.
func (s *Space) confusableAt(class, k int) int {
	lo, n := s.siblings(class)
	if n <= 0 {
		return (class + 1) % s.DS.NumClasses
	}
	c := lo + k%n
	if c >= class {
		c++
	}
	return c
}

// dotRow returns the dot table row of class at layer (see Space.dots).
func (s *Space) dotRow(layer, class int) []float64 {
	return s.dots[layer][class*s.dotStride:][:s.dotStride]
}

// confusable picks the class a hard sample blends toward — a uniform draw
// among its confusion-group siblings on the scratch's RNG stream, or the
// fallback of a singleton group — and returns that class's prototype at
// layer, its dot with the sample's class prototype and its dot with the
// sample's group centroid.
func (s *Space) confusable(smp dataset.Sample, layer int, sc *Scratch) (proto []float32, dot, centDot float64) {
	row := s.dotRow(layer, smp.Class)
	_, n := s.siblings(smp.Class)
	if n <= 0 {
		return s.protos[layer][s.confusableAt(smp.Class, 0)], row[1], row[len(row)-1]
	}
	k := sc.rng.Seed(xrand.HashSeed(smp.Seed, saltConf)).IntN(n)
	c := s.confusableAt(smp.Class, k)
	// A sibling shares the sample's group, so its dot with the centroid is
	// the first entry of its own row.
	return s.protos[layer][c], row[1+k], s.dotRow(layer, c)[0]
}

// blend returns how far the sample's center drifts toward its confusable
// class: 0 for easy samples, 0.5 exactly at the calibrated error threshold,
// capped at maxBlend.
func (s *Space) blend(difficulty float64) float64 {
	b := 0.5 * (1 + (difficulty-s.errThreshold)/blendWidth)
	if b < 0 {
		return 0
	}
	if b > maxBlend {
		return maxBlend
	}
	return b
}

// resolutionWeight returns how much class-specific signal the sample
// carries at layer: 0 until layer resolution approaches the sample's
// difficulty, ramping to 1 over resolutionRamp.
func (s *Space) resolutionWeight(difficulty float64, layer int) float64 {
	w := (s.Arch.Resolution[layer] - difficulty) / resolutionRamp
	if w < 0 {
		return 0
	}
	if w > 1 {
		return 1
	}
	return w
}

// driftVectorInto writes the class's semantic-drift direction at the given
// epoch into dst: a smooth rotation within the class's confusion-group
// subspace (toward one sibling, then the next), so stale cache entries
// genuinely mis-rank the drifted class against its siblings —
// random-direction drift would only dilute all similarities equally and
// leave Eq. 2 unaffected.
func (s *Space) driftVectorInto(dst []float32, class, layer int, epoch float64, sc *Scratch) {
	_, n := s.siblings(class)
	e := int(math.Floor(epoch))
	f := float32(epoch - float64(e))
	// Small epoch-dependent shuffle so the rotation path varies by class.
	r := sc.rng.Seed(xrand.HashSeed(s.DS.Seed, saltDrift, uint64(class)))
	off := r.IntN(max(n, 1))
	ta := s.protos[layer][s.confusableAt(class, e+off)]
	tb := s.protos[layer][s.confusableAt(class, e+1+off)]
	driftInto(dst, s.protos[layer][class], ta, tb, f)
}

func driftInto(dst, own, ta, tb []float32, f float32) {
	for i := range dst {
		dst[i] = (1-f)*(ta[i]-own[i]) + f*(tb[i]-own[i])
	}
	vecmath.Normalize(dst)
}

// clientShift returns the client's feature shift and its weight: the bias
// direction, or, when drift is on, the weighted bias plus the weighted drift
// direction, formed in the scratch. It returns a nil vector when env is nil.
func (s *Space) clientShift(env *Env, class, layer int, sc *Scratch) ([]float32, float32) {
	if env == nil {
		return nil, 0
	}
	if env.DriftWeight == 0 {
		return env.Bias, float32(env.Weight)
	}
	if sc.drift == nil {
		sc.drift = make([]float32, model.Dim)
	}
	s.driftVectorInto(sc.drift, class, layer, env.DriftEpoch, sc)
	vecmath.Scale(float32(env.DriftWeight), sc.drift)
	if env.Weight != 0 {
		vecmath.Axpy(float32(env.Weight), env.Bias, sc.drift)
	}
	return sc.drift, 1
}

// SampleVector is SampleVectorInto on a fresh vector and scratch.
func (s *Space) SampleVector(smp dataset.Sample, layer int, env *Env) []float32 {
	v := make([]float32, model.Dim)
	s.SampleVectorInto(v, smp, layer, env, s.NewScratch())
	return v
}

// SampleVectorInto writes the unit semantic vector of smp at cache-layer
// site layer under environment env (nil for an unbiased client) into dst,
// which must be model.Dim long. The result is deterministic in
// (smp, layer, env); once the scratch is warm nothing is allocated.
//
// The vector is the sample's center — its class prototype, blended toward a
// confusable class if the sample is hard and then mixed with its group
// centroid if the layer does not yet resolve it, each blend renormalised —
// plus the client's shift and the noise, normalised. Both blends are of unit
// vectors, ‖x·u + y·v‖ = √(x² + y² + 2xy·u·v), so their norms are scalars
// over the dot table: the center is one weighted sum of three prototypes,
// and the vector is written in one pass that also sums its squares, then
// scaled in a second.
func (s *Space) SampleVectorInto(dst []float32, smp dataset.Sample, layer int, env *Env, sc *Scratch) {
	dst = dst[:model.Dim]
	base := s.protos[layer][smp.Class]
	// The center is ab·base + ac·conf + am·cent; an unused term points at
	// base with weight 0.
	ab, ac, am := 1.0, 0.0, 0.0
	conf, cent := base, base
	var confCent float64
	if b := s.blend(smp.Difficulty); b > 0 {
		var dot float64
		conf, dot, confCent = s.confusable(smp, layer, sc)
		n := math.Sqrt((1-b)*(1-b) + b*b + 2*b*(1-b)*dot)
		ab, ac = (1-b)/n, b/n
	}
	if w := s.resolutionWeight(smp.Difficulty, layer); w < 1 {
		cent = s.centroids[layer][s.DS.Group(smp.Class)]
		dot := ab*s.dotRow(layer, smp.Class)[0] + ac*confCent
		n := math.Sqrt(w*w + (1-w)*(1-w) + 2*w*(1-w)*dot)
		ab, ac, am = ab*w/n, ac*w/n, (1-w)/n
	}
	shift, sw := s.clientShift(env, smp.Class, layer, sc)
	if shift == nil {
		shift = base
	}
	sigma := s.Arch.NoiseScale[layer] * (noiseLo + noiseSpan*smp.Difficulty)
	r := sc.rng.Seed(xrand.HashSeed(smp.Seed, saltNoise, uint64(layer)))
	// Split the noise into a class-agnostic component along the layer
	// common direction and an isotropic remainder (unit direction), so
	// sigma is an exact amplitude relative to the unit center.
	shared := float32(sigma * math.Sqrt(sharedNoiseFrac) * r.NormFloat64())
	common := s.commons[layer][:model.Dim]
	// The isotropic direction is one table row, cyclically rotated, with an
	// independent random sign per coordinate. Rows are unit length and
	// neither rotation nor signs change a norm, so it needs no
	// normalisation. model.Dim is a power of two and a multiple of 64.
	u := r.Uint64()
	rot := (u >> 32) & (model.Dim - 1)
	row := s.noiseTable[(u%noiseRows)*2*model.Dim+rot:][:model.Dim]
	var signs [model.Dim / 64]uint64
	for k := range signs {
		signs[k] = r.Uint64()
	}
	a := float32(sigma * math.Sqrt(1-sharedNoiseFrac))
	w := [6]float32{float32(ab), float32(ac), float32(am), sw, shared, a}
	// Every input at length model.Dim, which the assembly pass relies on.
	base, conf, cent, shift = base[:model.Dim], conf[:model.Dim], cent[:model.Dim], shift[:model.Dim]
	var sum float64
	if useAVX2 {
		sum = accumulateAVX2(&dst[0], &base[0], &conf[0], &cent[0], &shift[0], &common[0], &row[0], &w, &signs, model.Dim)
	} else {
		sum = accumulate(dst, base, conf, cent, shift, common, row, &w, &signs)
	}
	if sum > 0 {
		vecmath.Scale(float32(1/math.Sqrt(sum)), dst)
	}
}

// useAVX2 selects accumulateAVX2 for the sampler's pass; vecmath decides it
// once, from the CPU.
var useAVX2 = vecmath.AVX2()

// accumulate is the sampler's pass: dst[i] = wb·base[i] + wc·conf[i] +
// wm·cent[i] + sw·shift[i] + shared·common[i] + noise, added left to right,
// where noise is a·row[i] with bit i of the sign words as its sign. It
// returns Σ dst[i]² as one float64 chain in index order. It is the Go loop
// that accumulateAVX2 reproduces bit for bit, and the only pass off amd64 or
// without AVX2.
func accumulate(dst, base, conf, cent, shift, common, row []float32, w *[6]float32, signs *[model.Dim / 64]uint64) float64 {
	wb, wc, wm, sw, shared, a := w[0], w[1], w[2], w[3], w[4], w[5]
	// Every input at length model.Dim: the loop runs without bounds checks.
	dst, base, conf, cent = dst[:model.Dim], base[:model.Dim], conf[:model.Dim], cent[:model.Dim]
	shift, common, row = shift[:model.Dim], common[:model.Dim], row[:model.Dim]
	// One float64 chain of squares: at six products per component the pass
	// is bound by throughput, not by the chain's latency, and four partial
	// sums measured no faster.
	var sum float64
	for blk, bits := range signs {
		for i := blk * 64; i < blk*64+64; i++ {
			noise := math.Float32frombits(math.Float32bits(a*row[i]) ^ uint32(bits&1)<<31)
			x := wb*base[i] + wc*conf[i] + wm*cent[i] + sw*shift[i] + shared*common[i] + noise
			dst[i] = x
			sum += float64(x) * float64(x)
			bits >>= 1
		}
	}
	return sum
}

// CenteredVector returns the sample's semantic vector at layer with the
// layer-common (class-agnostic) component projected out and the result
// re-normalized. Instance-level feature matching (FoggyCache's A-LSH keys)
// needs this: raw vectors are dominated by the shared component, which
// carries no class information.
func (s *Space) CenteredVector(smp dataset.Sample, layer int, env *Env) []float32 {
	v := s.SampleVector(smp, layer, env)
	common := s.commons[layer]
	vecmath.Axpy(-vecmath.Dot(v, common), common, v)
	if vecmath.Normalize(v) == 0 {
		// Degenerate only if v was exactly the common direction; fall
		// back to the raw vector.
		return s.SampleVector(smp, layer, env)
	}
	return v
}

// Predict is PredictScratch on a fresh scratch, so the returned Probs slice
// is the caller's.
func (s *Space) Predict(smp dataset.Sample, env *Env) Prediction {
	return s.PredictScratch(s.NewScratch(), smp, env)
}

// PredictScratch runs the full (uncached) model on smp: nearest-prototype
// classification of the final feature vector, with softmax probabilities.
// Harder samples produce flatter probability vectors (confidence fades
// with difficulty), so the paper's Δ-selection of confident misses favours
// genuinely easy — and hence correct — samples. Once the scratch is warm
// nothing is allocated; the returned Prediction's Probs slice aliases the
// scratch and is only valid until the scratch's next use.
func (s *Space) PredictScratch(sc *Scratch, smp dataset.Sample, env *Env) Prediction {
	if sc.vec == nil {
		sc.vec = make([]float32, model.Dim)
		sc.logits = make([]float32, s.DS.NumClasses)
		sc.probs = make([]float32, s.DS.NumClasses)
	}
	s.SampleVectorInto(sc.vec, smp, s.FinalLayer(), env, sc)
	temp := float32(softmaxTemp * (1 + 3*smp.Difficulty))
	// The block dot kernel over the final-layer prototypes is bitwise
	// identical to Dot (widening is exact; chains accumulate in index
	// order).
	vecmath.DotsBlocks(sc.vec, s.head, sc.logits, &sc.blk)
	for c := range sc.logits {
		sc.logits[c] /= temp
	}
	vecmath.SoftmaxInto(sc.logits, sc.probs)
	return Prediction{Class: vecmath.Argmax(sc.probs), Probs: sc.probs}
}
