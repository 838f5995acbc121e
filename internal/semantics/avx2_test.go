package semantics

import (
	"encoding/binary"
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

// same32 and same64 compare bit for bit, except that any NaN matches any NaN,
// as in vecmath's kernel tests: which operand's payload an operation keeps is
// the compiler's choice.
func same32(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b }
func same64(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b }

// FuzzSampler holds accumulateAVX2 to the Go accumulate bit for bit (a NaN to
// any NaN), outputs and sum of squares, at model.Dim on fuzzed raw float32
// bits: the six weights from w, the sign words from signs, and base, conf,
// cent, shift, common and the noise row from data, one after another; each
// input's words repeat as needed. The corpus is seeded with the prototype,
// noise-row, weight and sign draws of TestAVX2SamplerMatchesGo, and with the
// same draws spiked by non-finite and subnormal values. Off AVX2 there is
// only the Go pass and nothing to compare.
func FuzzSampler(f *testing.F) {
	s := testSpace(f)
	r := xrand.New(0xa5c3)
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 3e38, 1e-40, float32(math.Copysign(0, -1))}
	for k := 0; k < 16; k++ {
		var w, signs, data []byte
		for range 6 {
			w = binary.LittleEndian.AppendUint32(w, math.Float32bits(float32(r.NormFloat64())))
		}
		for range model.Dim / 64 {
			signs = binary.LittleEndian.AppendUint64(signs, r.Uint64())
		}
		for range 5 {
			for _, x := range s.protos[r.IntN(s.FinalLayer()+1)][r.IntN(s.DS.NumClasses)] {
				data = binary.LittleEndian.AppendUint32(data, math.Float32bits(x))
			}
		}
		for _, x := range s.noiseTable[r.IntN(noiseRows)*2*model.Dim+r.IntN(model.Dim):][:model.Dim] {
			data = binary.LittleEndian.AppendUint32(data, math.Float32bits(x))
		}
		if k%2 == 1 {
			for i := 0; i < len(data); i += 4 * (1 + r.IntN(24)) {
				binary.LittleEndian.PutUint32(data[i:], math.Float32bits(specials[r.IntN(len(specials))]))
			}
		}
		f.Add(w, signs, data)
	}
	f.Fuzz(func(t *testing.T, wBytes, signBytes, data []byte) {
		if !useAVX2 {
			t.Skip("no AVX2 on this machine: only the Go pass exists")
		}
		if len(wBytes) < 4 || len(data) < 4 {
			t.Skip("no float32 words")
		}
		word := func(b []byte, k int) float32 {
			return math.Float32frombits(binary.LittleEndian.Uint32(b[4*(k%(len(b)/4)):]))
		}
		var w [6]float32
		for i := range w {
			w[i] = word(wBytes, i)
		}
		var signs [model.Dim / 64]uint64
		for i := range signs {
			if n := len(signBytes) / 8; n > 0 {
				signs[i] = binary.LittleEndian.Uint64(signBytes[8*(i%n):])
			}
		}
		var in [6][]float32
		for v := range in {
			in[v] = make([]float32, model.Dim)
			for i := range in[v] {
				in[v][i] = word(data, v*model.Dim+i)
			}
		}
		base, conf, cent, shift, common, row := in[0], in[1], in[2], in[3], in[4], in[5]
		got, want := make([]float32, model.Dim), make([]float32, model.Dim)
		gotSum := accumulateAVX2(&got[0], &base[0], &conf[0], &cent[0], &shift[0], &common[0], &row[0], &w, &signs, model.Dim)
		wantSum := accumulate(want, base, conf, cent, shift, common, row, &w, &signs)
		if !same64(gotSum, wantSum) {
			t.Fatalf("sum: AVX2 %x, Go %x", math.Float64bits(gotSum), math.Float64bits(wantSum))
		}
		for i := range got {
			if !same32(got[i], want[i]) {
				t.Fatalf("dim %d: AVX2 %x, Go %x", i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	})
}
