package semantics

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"

	"coca/internal/model"
	"coca/internal/vecmath"
)

// ksStatistic returns the two-sample Kolmogorov–Smirnov statistic
// D = sup_x |F_a(x) − F_b(x)| of the empirical distributions of a and b.
// It sorts both slices in place.
func ksStatistic(a, b []float64) float64 {
	sort.Float64s(a)
	sort.Float64s(b)
	var i, j int
	var d float64
	for i < len(a) && j < len(b) {
		x := math.Min(a[i], b[j])
		for i < len(a) && a[i] <= x {
			i++
		}
		for j < len(b) && b[j] <= x {
			j++
		}
		d = math.Max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

// ksCritical is the asymptotic critical D of a two-sample KS test at level
// alpha with n draws per side: c(alpha)·√(2/n), c(alpha) = √(−ln(alpha/2)/2).
func ksCritical(alpha float64, n int) float64 {
	return math.Sqrt(-math.Log(alpha/2)/2) * math.Sqrt(2/float64(n))
}

// TestSamplerMatchesGaussianReference is the substrate's distributional
// gate: the table-driven sampler must be indistinguishable from the
// Gaussian reference sampler (reference_test.go) in the statistics the
// caches and the prediction head read. Per (class, layer) cell, two-sample
// KS tests on the cosine to the sample's own prototype and to a
// neighbouring class's; on the full model, a KS test on Top2Gap (Δ) and
// top-1 accuracy within one point. The two samplers run on disjoint sample
// seeds, and every seed is fixed, so the test is deterministic. The level
// is 0.01, Bonferroni-corrected over every KS test in it.
func TestSamplerMatchesGaussianReference(t *testing.T) {
	s := testSpace(t)
	env := NewEnv(5, 0.05)
	classes := []int{0, 7, 19, 33, 48}
	layers := []int{0, 5, 11, 17, 25, 33, s.FinalLayer()}
	const (
		nCos     = 4000
		nPredict = 20000
	)
	tests := 2*len(classes)*len(layers) + 1
	alpha := 0.01 / float64(tests)

	sc := s.NewScratch()
	dst := make([]float32, model.Dim)
	ownGot, ownWant := make([]float64, nCos), make([]float64, nCos)
	nbGot, nbWant := make([]float64, nCos), make([]float64, nCos)
	crit := ksCritical(alpha, nCos)
	var worst float64
	for _, c := range classes {
		nb := (c + 1) % s.DS.NumClasses
		for _, j := range layers {
			own, other := s.Prototype(c, j), s.Prototype(nb, j)
			for k := 0; k < nCos; k++ {
				s.SampleVectorInto(dst, s.DS.NewSample(c, uint64(k), 1), j, env, sc)
				ownGot[k] = float64(vecmath.Cosine(dst, own))
				nbGot[k] = float64(vecmath.Cosine(dst, other))
				ref := s.referenceSampleVector(s.DS.NewSample(c, uint64(k), 2), j, env)
				ownWant[k] = float64(vecmath.Cosine(ref, own))
				nbWant[k] = float64(vecmath.Cosine(ref, other))
			}
			for _, st := range []struct {
				name      string
				got, want []float64
			}{{"own", ownGot, ownWant}, {"neighbour", nbGot, nbWant}} {
				d := ksStatistic(st.got, st.want)
				worst = math.Max(worst, d)
				if d > crit {
					t.Errorf("class %d layer %d: cosine to %s prototype KS D = %.4f > %.4f", c, j, st.name, d, crit)
				}
			}
		}
	}
	t.Logf("cosine grid: %d cells × 2, n = %d per side, worst D = %.4f (critical %.4f)",
		len(classes)*len(layers), nCos, worst, crit)

	gapGot, gapWant := make([]float64, nPredict), make([]float64, nPredict)
	var correctGot, correctWant int
	for i := 0; i < nPredict; i++ {
		class := i % s.DS.NumClasses
		p := s.PredictScratch(sc, s.DS.NewSample(class, uint64(i), 3), env)
		gapGot[i] = float64(p.Top2Gap())
		if p.Class == class {
			correctGot++
		}
		q := s.referencePredict(s.DS.NewSample(class, uint64(i), 4), env)
		gapWant[i] = float64(q.Top2Gap())
		if q.Class == class {
			correctWant++
		}
	}
	gapCrit := ksCritical(alpha, nPredict)
	d := ksStatistic(gapGot, gapWant)
	accGot := 100 * float64(correctGot) / nPredict
	accWant := 100 * float64(correctWant) / nPredict
	t.Logf("prediction: n = %d per side, Top2Gap KS D = %.4f (critical %.4f), accuracy %.2f%% vs reference %.2f%%",
		nPredict, d, gapCrit, accGot, accWant)
	if d > gapCrit {
		t.Errorf("Top2Gap KS D = %.4f > %.4f", d, gapCrit)
	}
	if math.Abs(accGot-accWant) > 1 {
		t.Errorf("accuracy %.2f%%, reference %.2f%%: more than 1 point apart", accGot, accWant)
	}
}

// goldenSubstrateHash is the SHA-256 over TestSubstrateGolden's grid. Any
// change to the sampler's draws or arithmetic moves it, and so do
// toolchains or targets that evaluate the float32 arithmetic differently
// (fused multiply-adds, for instance): this is the first test to fail when
// the simulated substrate changes, ahead of the wire goldens built on it.
const goldenSubstrateHash = "87f8f2ce47c21e715322901636518696a7b3d65921578f3e4e83f3f5ae2c32fc"

// TestSubstrateGolden pins the sampler's output bits over a fixed grid of
// classes, samples, layers and client environments (none, bias, bias plus
// drift) and the full-model predictions, all on one reused scratch. It
// also checks that a fresh scratch (the SampleVector wrapper) yields the
// same bits, so no state leaks between uses of a scratch.
func TestSubstrateGolden(t *testing.T) {
	s := testSpace(t)
	drifted := NewEnv(4, 0.05)
	drifted.DriftWeight = 0.05
	drifted.DriftEpoch = 1.7
	envs := []*Env{nil, NewEnv(3, 0.05), drifted}

	h := sha256.New()
	sc := s.NewScratch()
	dst := make([]float32, model.Dim)
	var buf []byte
	for _, env := range envs {
		for class := 0; class < s.DS.NumClasses; class += 7 {
			for k := uint64(0); k < 3; k++ {
				smp := s.DS.NewSample(class, k, 0x601d)
				for layer := 0; layer <= s.FinalLayer(); layer += 3 {
					s.SampleVectorInto(dst, smp, layer, env, sc)
					fresh := s.SampleVector(smp, layer, env)
					for i, x := range dst {
						if math.Float32bits(x) != math.Float32bits(fresh[i]) {
							t.Fatalf("class %d sample %d layer %d dim %d: reused scratch %v, fresh scratch %v",
								class, k, layer, i, x, fresh[i])
						}
						buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
					}
				}
				p := s.PredictScratch(sc, smp, env)
				buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Class))
				for _, x := range p.Probs {
					buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
				}
				h.Write(buf)
				buf = buf[:0]
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSubstrateHash {
		t.Errorf("substrate output diverged: hash %s, want %s", got, goldenSubstrateHash)
	}
}
