package semantics

import (
	"math"
	"testing"

	"coca/internal/dataset"
	"coca/internal/model"
	"coca/internal/vecmath"
	"coca/internal/xrand"
)

func testSpace(t testing.TB) *Space {
	t.Helper()
	return NewSpace(dataset.UCF101().Subset(50), model.ResNet101())
}

func TestPrototypesUnitNorm(t *testing.T) {
	s := testSpace(t)
	for j := 0; j <= s.Arch.NumLayers; j += 7 {
		for c := 0; c < s.DS.NumClasses; c += 11 {
			n := vecmath.Norm(s.Prototype(c, j))
			if math.Abs(float64(n)-1) > 1e-5 {
				t.Fatalf("prototype (%d,%d) norm = %v", c, j, n)
			}
		}
	}
}

func TestPrototypesDeterministic(t *testing.T) {
	a := testSpace(t)
	b := testSpace(t)
	for _, j := range []int{0, 17, 34} {
		for _, c := range []int{0, 25, 49} {
			pa, pb := a.Prototype(c, j), b.Prototype(c, j)
			for i := range pa {
				if pa[i] != pb[i] {
					t.Fatalf("prototype (%d,%d) not deterministic", c, j)
				}
			}
		}
	}
}

func TestConfusionStructure(t *testing.T) {
	s := testSpace(t)
	j := s.FinalLayer()
	// Same-group classes must be markedly more similar than cross-group.
	sameGroup := vecmath.Cosine(s.Prototype(0, j), s.Prototype(1, j))
	crossGroup := vecmath.Cosine(s.Prototype(0, j), s.Prototype(17, j))
	if sameGroup < crossGroup+0.1 {
		t.Fatalf("confusion structure missing: same-group cos %v vs cross-group %v", sameGroup, crossGroup)
	}
	// Targets are realized within sampling error.
	if math.Abs(float64(sameGroup)-s.Arch.RhoSame) > 0.02 {
		t.Fatalf("same-group cos %v, want ~%v", sameGroup, s.Arch.RhoSame)
	}
	if math.Abs(float64(crossGroup)-s.Arch.RhoCross[j]) > 0.08 {
		t.Fatalf("cross-group cos %v, want ~%v", crossGroup, s.Arch.RhoCross[j])
	}
}

func TestShallowPrototypesMoreGeneric(t *testing.T) {
	s := testSpace(t)
	// Cross-group similarity should be higher at layer 0 (shared generic
	// features) than at the head.
	avg := func(layer int) float64 {
		var sum float64
		var n int
		for a := 0; a < 20; a += 5 {
			for b := 25; b < 45; b += 5 {
				sum += float64(vecmath.Cosine(s.Prototype(a, layer), s.Prototype(b, layer)))
				n++
			}
		}
		return sum / float64(n)
	}
	if shallow, deep := avg(0), avg(s.FinalLayer()); shallow < deep+0.05 {
		t.Fatalf("shallow cross-class cos %v not above deep %v", shallow, deep)
	}
}

func TestSampleVectorUnitAndDeterministic(t *testing.T) {
	s := testSpace(t)
	smp := s.DS.NewSample(3, 77)
	v1 := s.SampleVector(smp, 10, nil)
	v2 := s.SampleVector(smp, 10, nil)
	if math.Abs(float64(vecmath.Norm(v1))-1) > 1e-5 {
		t.Fatalf("sample vector norm = %v", vecmath.Norm(v1))
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("sample vector not deterministic")
		}
	}
	v3 := s.SampleVector(smp, 11, nil)
	if vecmath.Cosine(v1, v3) > 0.9999 {
		t.Fatal("different layers must give different vectors")
	}
}

func TestEasySamplesAlignDeeper(t *testing.T) {
	s := testSpace(t)
	// For an easy sample, cosine to its own prototype should rise with
	// depth (noise profile decays).
	smp := dataset.Sample{Class: 5, Difficulty: 0.05, Seed: 12345}
	shallow := vecmath.Cosine(s.SampleVector(smp, 0, nil), s.Prototype(5, 0))
	deep := vecmath.Cosine(s.SampleVector(smp, s.FinalLayer(), nil), s.Prototype(5, s.FinalLayer()))
	if deep < float32(0.9) {
		t.Fatalf("easy sample deep alignment = %v, want > 0.9", deep)
	}
	if deep <= shallow {
		t.Fatalf("alignment must grow with depth: shallow %v deep %v", shallow, deep)
	}
}

func TestHardSamplesDriftToConfusable(t *testing.T) {
	s := testSpace(t)
	smp := dataset.Sample{Class: 5, Difficulty: 0.95, Seed: 999}
	j := s.FinalLayer()
	v := s.SampleVector(smp, j, nil)
	own := vecmath.Cosine(v, s.Prototype(5, j))
	confProto, _, _ := s.confusable(smp, j, s.NewScratch())
	conf := vecmath.Cosine(v, confProto)
	if conf <= own {
		t.Fatalf("very hard sample should resemble confusable more: own %v conf %v", own, conf)
	}
}

func TestBlendShape(t *testing.T) {
	s := testSpace(t)
	th := s.ErrThreshold()
	if b := s.blend(0); b != 0 {
		t.Fatalf("blend(0) = %v", b)
	}
	if b := s.blend(th); math.Abs(b-0.5) > 1e-9 {
		t.Fatalf("blend(threshold) = %v, want 0.5", b)
	}
	if b := s.blend(0.9999); b != maxBlend {
		t.Fatalf("blend(~1) = %v, want %v", b, maxBlend)
	}
	// Monotone.
	prev := -1.0
	for d := 0.0; d < 1; d += 0.05 {
		b := s.blend(d)
		if b < prev {
			t.Fatalf("blend not monotone at %v", d)
		}
		prev = b
	}
}

func TestPredictAccuracyCalibrated(t *testing.T) {
	for _, tc := range []struct {
		ds   *dataset.Spec
		arch *model.Arch
	}{
		{dataset.UCF101().Subset(50), model.ResNet101()},
		{dataset.ImageNet100(), model.ResNet101()},
		{dataset.ESC50(), model.ASTBase()},
	} {
		s := NewSpace(tc.ds, tc.arch)
		const n = 3000
		correct := 0
		for i := 0; i < n; i++ {
			class := i % tc.ds.NumClasses
			smp := tc.ds.NewSample(class, uint64(i), 0xACC)
			if s.Predict(smp, nil).Class == class {
				correct++
			}
		}
		acc := float64(correct) / n
		if math.Abs(acc-tc.ds.BaseAccuracy) > 0.035 {
			t.Errorf("%s/%s: accuracy %v, want %v ± 0.035", tc.ds.Name, tc.arch.Name, acc, tc.ds.BaseAccuracy)
		}
	}
}

func TestPredictProbsValid(t *testing.T) {
	s := testSpace(t)
	smp := s.DS.NewSample(9, 1)
	p := s.Predict(smp, nil)
	var sum float64
	for _, x := range p.Probs {
		if x < 0 {
			t.Fatal("negative probability")
		}
		sum += float64(x)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("probs sum to %v", sum)
	}
	if gap := p.Top2Gap(); gap < 0 || gap > 1 {
		t.Fatalf("Top2Gap = %v", gap)
	}
}

func TestTop2GapSeparatesEasyFromHard(t *testing.T) {
	s := testSpace(t)
	easy := dataset.Sample{Class: 2, Difficulty: 0.05, Seed: 10}
	hardD := s.ErrThreshold() // maximally ambiguous
	hard := dataset.Sample{Class: 2, Difficulty: hardD, Seed: 11}
	ge := s.Predict(easy, nil).Top2Gap()
	gh := s.Predict(hard, nil).Top2Gap()
	if ge <= gh {
		t.Fatalf("easy gap %v must exceed ambiguous gap %v", ge, gh)
	}
}

func TestEnvBiasShiftsVectors(t *testing.T) {
	s := testSpace(t)
	env := NewEnv(42, 0.5)
	if math.Abs(float64(vecmath.Norm(env.Bias))-1) > 1e-5 {
		t.Fatalf("env bias not unit: %v", vecmath.Norm(env.Bias))
	}
	smp := s.DS.NewSample(4, 3)
	plain := s.SampleVector(smp, 20, nil)
	biased := s.SampleVector(smp, 20, env)
	if vecmath.Cosine(plain, biased) > 0.999 {
		t.Fatal("bias had no effect")
	}
	// Biased vectors from the same env should share the bias direction.
	smp2 := s.DS.NewSample(30, 8)
	biased2 := s.SampleVector(smp2, 20, env)
	d1 := float64(vecmath.Dot(biased, env.Bias))
	d2 := float64(vecmath.Dot(biased2, env.Bias))
	if d1 <= 0 || d2 <= 0 {
		t.Fatalf("biased vectors should have positive bias component: %v %v", d1, d2)
	}
}

func TestEnvDeterministic(t *testing.T) {
	a := NewEnv(7, 0.4)
	b := NewEnv(7, 0.4)
	for i := range a.Bias {
		if a.Bias[i] != b.Bias[i] {
			t.Fatal("NewEnv not deterministic")
		}
	}
}

func TestNewSpacePanicsOnInvalidSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bad := dataset.UCF101()
	bad.NumClasses = 0
	NewSpace(bad, model.ResNet101())
}

func TestErrThresholdMatchesBetaQuantile(t *testing.T) {
	s := testSpace(t)
	// P(difficulty < threshold) should be ~ BaseAccuracy.
	r := xrand.New(999)
	const n = 20000
	below := 0
	for i := 0; i < n; i++ {
		if xrand.Beta(r, s.DS.DifficultyAlpha, s.DS.DifficultyBeta) < s.ErrThreshold() {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-s.DS.BaseAccuracy) > 0.02 {
		t.Fatalf("threshold quantile = %v, want %v", frac, s.DS.BaseAccuracy)
	}
}

func BenchmarkSampleVector(b *testing.B) {
	s := testSpace(b)
	smp := s.DS.NewSample(3, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleVector(smp, 17, nil)
	}
}

// benchRing is a fixed ring of samples over every class, so a benchmark
// sees hard and unresolved samples in the proportions the workloads do.
func benchRing(s *Space) []dataset.Sample {
	ring := make([]dataset.Sample, 1024)
	for i := range ring {
		ring[i] = s.DS.NewSample(i%s.DS.NumClasses, uint64(i), 0xbe4c)
	}
	return ring
}

// BenchmarkSampleVectorInto is the inference hot path's sampler: the sample
// ring against every layer in turn, client bias on, warm scratch.
func BenchmarkSampleVectorInto(b *testing.B) {
	s := testSpace(b)
	ring := benchRing(s)
	env := NewEnv(9, 0.05)
	sc := s.NewScratch()
	dst := make([]float32, model.Dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleVectorInto(dst, ring[i%len(ring)], i%(s.Arch.NumLayers+1), env, sc)
	}
}

// BenchmarkPredict is the full-model head on a warm scratch over the sample
// ring.
func BenchmarkPredict(b *testing.B) {
	s := testSpace(b)
	ring := benchRing(s)
	sc := s.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PredictScratch(sc, ring[i%len(ring)], nil)
	}
}
