package vecmath

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// goPath runs f on the Go loops, with the AVX2 kernels switched off.
func goPath(f func()) {
	saved := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = saved }()
	f()
}

// Values the kernels must carry exactly as the Go loops do: signed zeros,
// subnormals, overflow to infinity (1e300² in a row chain), and NaN.
var (
	specials32 = []float32{0, float32(math.Copysign(0, -1)), 1e-40, -1e-45, 3e38, float32(math.NaN()),
		math.Float32frombits(0x7fc00123), float32(math.Inf(-1))}
	specials64 = []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e300, -1e300, math.NaN(),
		math.Float64frombits(0xfff8000000000456), math.Inf(1)}
)

// same64 and same32 compare bit for bit, except that any NaN matches any
// NaN: which operand's payload an operation keeps is the Go compiler's
// choice, and it differs between builds (under -race, for one).
func same64(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b }
func same32(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b }

// specialRows draws n rows and a query of length dim from N(0,1), with
// roughly one element in twelve replaced by a special value when spiked.
func specialRows(r *rand.Rand, n, dim int, spiked bool) (vec []float32, rows [][]float64) {
	vec = make([]float32, dim)
	for k := range vec {
		vec[k] = float32(r.NormFloat64())
		if spiked && r.IntN(12) == 0 {
			vec[k] = specials32[r.IntN(len(specials32))]
		}
	}
	rows = make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for k := range rows[i] {
			rows[i][k] = float64(float32(r.NormFloat64()))
			if spiked && r.IntN(12) == 0 {
				rows[i][k] = specials64[r.IntN(len(specials64))]
			}
		}
	}
	return vec, rows
}

// TestAVX2KernelsMatchGo holds the AVX2 kernels to the Go loops bit for bit
// (a NaN to any NaN):
// the raw dots8AVX2 sums against dots4f and SquaredNorm, and CosinesRows,
// DotsWidenedRows and Scale with the kernels on and off, over 1…40 rows at
// the kernel's dimensions, on plain and on spiked inputs. A dimension that is
// not a multiple of 4 must take the Go path.
func TestAVX2KernelsMatchGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this machine: only the Go loops exist")
	}
	r := rand.New(rand.NewPCG(30, 8))
	for _, dim := range []int{4, 8, 252, 256, 6, 255} {
		for n := 1; n <= 40; n++ {
			for _, spiked := range []bool{false, true} {
				vec, rows := specialRows(r, n, dim, spiked)
				if kernelFits(vec, rows) != (dim%4 == 0) {
					t.Fatalf("dim=%d: kernelFits %v", dim, !(dim%4 == 0))
				}
				if dim%4 == 0 {
					// Each row's Go chain, from the four-row blocks of the Go path.
					ref := make([]float64, n)
					var d [9]float64
					for i := 0; i < n; i += 4 {
						dotBlock(vec, rows, i, false, &d)
						copy(ref[i:min(i+4, n)], d[:4])
					}
					for i := 0; i < n; i += 8 {
						dotBlock(vec, rows, i, true, &d)
						for j := range 8 {
							want := ref[min(i+j, n-1)]
							if !same64(d[j], want) {
								t.Fatalf("dim=%d n=%d spiked=%v row %d: dots8AVX2 %x, Go %x", dim, n, spiked, i+j, math.Float64bits(d[j]), math.Float64bits(want))
							}
						}
						if want := SquaredNorm(vec); !same64(d[8], want) {
							t.Fatalf("dim=%d n=%d spiked=%v: query norm %x, SquaredNorm %x", dim, n, spiked, math.Float64bits(d[8]), math.Float64bits(want))
						}
					}
				}
				snorm := make([]float64, n)
				for i, row := range rows {
					var s float64
					for _, x := range row {
						s += x * x
					}
					snorm[i] = math.Sqrt(s)
				}
				gotCos, wantCos := make([]float32, n), make([]float32, n)
				gotDot, wantDot := make([]float32, n), make([]float32, n)
				CosinesRows(vec, rows, snorm, gotCos)
				DotsWidenedRows(vec, rows, gotDot)
				goPath(func() {
					CosinesRows(vec, rows, snorm, wantCos)
					DotsWidenedRows(vec, rows, wantDot)
				})
				for i := range n {
					if !same32(gotCos[i], wantCos[i]) {
						t.Fatalf("dim=%d n=%d spiked=%v row %d: CosinesRows %x, Go %x", dim, n, spiked, i, math.Float32bits(gotCos[i]), math.Float32bits(wantCos[i]))
					}
					if !same32(gotDot[i], wantDot[i]) {
						t.Fatalf("dim=%d n=%d spiked=%v row %d: DotsWidenedRows %x, Go %x", dim, n, spiked, i, math.Float32bits(gotDot[i]), math.Float32bits(wantDot[i]))
					}
				}
			}
		}
	}
	for n := 0; n <= 40; n++ {
		for _, alpha := range []float32{0.37, float32(math.Copysign(0, -1)), 1e-30, float32(math.NaN())} {
			v, _ := specialRows(r, 0, n, true)
			got, want := Clone(v), Clone(v)
			Scale(alpha, got)
			goPath(func() { Scale(alpha, want) })
			for i := range v {
				if !same32(got[i], want[i]) {
					t.Fatalf("n=%d alpha=%v element %d: Scale %x, Go %x", n, alpha, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// FuzzCosinesRows holds CosinesRows, the probe kernel a client runs, to its
// Go loop bit for bit (a NaN to any NaN) over fuzzed dimensions (1…300), row
// counts (1…20) and raw float32 bits, the query first and then the entries
// row by row, the input's words repeating as needed. Where every input is
// finite it must also equal Cosine(vec, entry) bit for bit. Off AVX2 only
// that comparison runs. The corpus is seeded from the specialRows grid of
// TestAVX2KernelsMatchGo.
func FuzzCosinesRows(f *testing.F) {
	r := rand.New(rand.NewPCG(30, 9))
	for _, dim := range []int{4, 8, 252, 256, 6, 255} {
		for _, n := range []int{1, 7, 8, 9, 20} {
			for _, spiked := range []bool{false, true} {
				vec, rows := specialRows(r, n, dim, spiked)
				data := make([]byte, 0, 4*dim*(n+1))
				for _, x := range vec {
					data = binary.LittleEndian.AppendUint32(data, math.Float32bits(x))
				}
				for _, row := range rows {
					for _, x := range row {
						data = binary.LittleEndian.AppendUint32(data, math.Float32bits(float32(x)))
					}
				}
				f.Add(uint16(dim-1), uint8(n-1), data)
			}
		}
	}
	f.Fuzz(func(t *testing.T, dimSeed uint16, nSeed uint8, data []byte) {
		words := len(data) / 4
		if words == 0 {
			t.Skip("no float32 words")
		}
		dim, n := 1+int(dimSeed)%300, 1+int(nSeed)%20
		finite := true
		next := func(k int) float32 {
			x := math.Float32frombits(binary.LittleEndian.Uint32(data[4*(k%words):]))
			finite = finite && !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0)
			return x
		}
		vec := make([]float32, dim)
		for k := range vec {
			vec[k] = next(k)
		}
		entries := make([][]float32, n)
		for i := range entries {
			entries[i] = make([]float32, dim)
			for k := range entries[i] {
				entries[i][k] = next((i+1)*dim + k)
			}
		}
		rows, norm2 := WidenRows(entries)
		snorm := make([]float64, n)
		SqrtNorms(norm2, snorm)
		got := make([]float32, n)
		CosinesRows(vec, rows, snorm, got)
		if useAVX2 {
			want := make([]float32, n)
			goPath(func() { CosinesRows(vec, rows, snorm, want) })
			for i := range n {
				if !same32(got[i], want[i]) {
					t.Fatalf("dim=%d n=%d row %d: CosinesRows %x, Go %x", dim, n, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
		if !finite {
			return
		}
		for i, e := range entries {
			if want := Cosine(vec, e); math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("dim=%d n=%d row %d: CosinesRows %x, Cosine %x", dim, n, i, math.Float32bits(got[i]), math.Float32bits(want))
			}
		}
	})
}

// vec32 draws n float32s from N(0,1), with roughly one in twelve replaced by
// a special value when spiked, behind off leading elements: the slice starts
// off·4 bytes into its allocation, so the kernels see unaligned starts.
func vec32(r *rand.Rand, off, n int, spiked bool) []float32 {
	v := make([]float32, off+n)
	for k := range v {
		v[k] = float32(r.NormFloat64())
		if spiked && r.IntN(12) == 0 {
			v[k] = specials32[r.IntN(len(specials32))]
		}
	}
	return v[off:]
}

// TestWireKernelsMatchGo holds the wire-path kernels to their Go loops at
// every length 0…67, starting 0–3 elements into their allocations, on
// plain and on spiked inputs: the byte-order kernel byte for byte (and back
// bit for bit, NaN payloads included), WidenVecs' mirrors and squared norms
// bit for bit against WidenVec, and WeightedSumInto elementwise against its
// Go loop.
func TestWireKernelsMatchGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this machine: only the Go loops exist")
	}
	r := rand.New(rand.NewPCG(31, 1))
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 8; trial++ {
			off, spiked := trial%4, trial >= 4
			vs := vec32(r, off, n, spiked)
			want := make([]byte, 4*n)
			for i, v := range vs {
				binary.BigEndian.PutUint32(want[4*i:], math.Float32bits(v))
			}
			got := make([]byte, off+4*n)[off:]
			k := EncodeBigEndian(got, vs)
			if k != n&^7 {
				t.Fatalf("n=%d: EncodeBigEndian did %d floats, want %d", n, k, n&^7)
			}
			for i := k; i < n; i++ {
				binary.BigEndian.PutUint32(got[4*i:], math.Float32bits(vs[i]))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d off=%d spiked=%v byte %d: kernel %#x, Go %#x", n, off, spiked, i, got[i], want[i])
				}
			}
			back := make([]float32, off+n)[off:]
			k = DecodeBigEndian(back, want)
			for i := k; i < n; i++ {
				back[i] = math.Float32frombits(binary.BigEndian.Uint32(want[4*i:]))
			}
			for i := range vs {
				if math.Float32bits(back[i]) != math.Float32bits(vs[i]) {
					t.Fatalf("n=%d off=%d spiked=%v float %d: decoded %#x, encoded %#x", n, off, spiked, i, math.Float32bits(back[i]), math.Float32bits(vs[i]))
				}
			}
			goPath(func() {
				if EncodeBigEndian(got, vs) != 0 || DecodeBigEndian(back, want) != 0 {
					t.Fatalf("n=%d: byte-order kernel ran with AVX2 off", n)
				}
			})

			// WidenVecs over 1…9 vectors of length n (and one of length
			// n+4 among them, which sends its group to the Go loop).
			for batch := 1; batch <= 9; batch++ {
				vecs := make([][]float32, batch)
				for i := range vecs {
					vecs[i] = vec32(r, off, n, spiked)
					if batch == 7 && i == 5 {
						vecs[i] = vec32(r, off, n+4, spiked)
					}
				}
				var dsts [2][][]float64
				var norms [2][]float64
				for side := range dsts {
					dsts[side] = make([][]float64, batch)
					for i := range vecs {
						dsts[side][i] = make([]float64, off+len(vecs[i]))[off:]
					}
					norms[side] = make([]float64, batch)
				}
				WidenVecs(vecs, dsts[0], norms[0])
				for i, v := range vecs {
					norms[1][i] = WidenVec(v, dsts[1][i])
				}
				for i := range vecs {
					if !same64(norms[0][i], norms[1][i]) {
						t.Fatalf("n=%d off=%d spiked=%v batch=%d vector %d: WidenVecs Σx² %x, WidenVec %x", n, off, spiked, batch, i, math.Float64bits(norms[0][i]), math.Float64bits(norms[1][i]))
					}
					for k := range dsts[0][i] {
						if math.Float64bits(dsts[0][i][k]) != math.Float64bits(dsts[1][i][k]) {
							t.Fatalf("n=%d off=%d spiked=%v batch=%d vector %d element %d: WidenVecs %x, WidenVec %x", n, off, spiked, batch, i, k, math.Float64bits(dsts[0][i][k]), math.Float64bits(dsts[1][i][k]))
						}
					}
				}
			}

			a, b := vec32(r, off, n, spiked), vec32(r, 3-off, n, spiked)
			w1, w2 := float32(r.NormFloat64()), float32(r.NormFloat64())
			if spiked && off == 3 {
				w1 = specials32[r.IntN(len(specials32))]
			}
			gotSum, wantSum := make([]float32, n), make([]float32, n)
			WeightedSumInto(gotSum, w1, a, w2, b)
			goPath(func() { WeightedSumInto(wantSum, w1, a, w2, b) })
			for i := range gotSum {
				if !same32(gotSum[i], wantSum[i]) {
					t.Fatalf("n=%d off=%d spiked=%v element %d: WeightedSumInto %x, Go %x", n, off, spiked, i, math.Float32bits(gotSum[i]), math.Float32bits(wantSum[i]))
				}
			}
		}
	}
}

// TestWeightedSumIntoExactAlias: dst may be a or b itself, on the kernel and
// on the Go loop, and the result is the one a separate dst receives.
func TestWeightedSumIntoExactAlias(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 2))
	for _, kernel := range []bool{true, false} {
		if kernel && !useAVX2 {
			continue
		}
		saved := useAVX2
		useAVX2 = kernel
		defer func() { useAVX2 = saved }()
		for n := 0; n <= 67; n++ {
			a, b := vec32(r, 1, n, true), vec32(r, 2, n, true)
			want := make([]float32, n)
			WeightedSumInto(want, 0.75, a, 0.25, b)
			intoA, intoB := Clone(a), Clone(b)
			WeightedSumInto(intoA, 0.75, intoA, 0.25, b)
			WeightedSumInto(intoB, 0.75, a, 0.25, intoB)
			for i := range want {
				if !same32(intoA[i], want[i]) || !same32(intoB[i], want[i]) {
					t.Fatalf("kernel=%v n=%d element %d: dst=a %x, dst=b %x, separate dst %x", kernel, n, i,
						math.Float32bits(intoA[i]), math.Float32bits(intoB[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// BenchmarkCosinesRows scores a float32 query against n staged 256-wide
// rows, the probe of a window's cache layer, on the AVX2 kernel and on the
// Go loops.
func BenchmarkCosinesRows(b *testing.B) {
	r := rand.New(rand.NewPCG(31, 9))
	for _, n := range []int{7, 8, 50} {
		vec, rows := specialRows(r, n, 256, false)
		snorm := make([]float64, n)
		out := make([]float32, n)
		for _, kernel := range []bool{true, false} {
			if kernel && !useAVX2 {
				continue
			}
			name := "go"
			if kernel {
				name = "avx2"
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, name), func(b *testing.B) {
				saved := useAVX2
				useAVX2 = kernel
				defer func() { useAVX2 = saved }()
				for i := 0; i < b.N; i++ {
					CosinesRows(vec, rows, snorm, out)
				}
			})
		}
	}
}

// BenchmarkWireKernels times the three wire-path kernels against their Go
// loops on 256-float N(0,1) cells (no subnormals, which would time the
// CPU's microcode assists instead): encoding one cell big-endian, staging
// four cells, and one merge's weighted sum.
func BenchmarkWireKernels(b *testing.B) {
	r := rand.New(rand.NewPCG(31, 3))
	const dim = 256
	vecs := make([][]float32, 4)
	wide := make([][]float64, 4)
	for i := range vecs {
		vecs[i], wide[i] = make([]float32, dim), make([]float64, dim)
		for k := range vecs[i] {
			vecs[i][k] = float32(r.NormFloat64())
		}
	}
	buf, norm2, sum := make([]byte, 4*dim), make([]float64, 4), make([]float32, dim)
	for _, kernel := range []bool{true, false} {
		if kernel && !useAVX2 {
			continue
		}
		name := map[bool]string{true: "avx2", false: "go"}[kernel]
		run := func(op string, f func()) {
			b.Run(op+"/"+name, func(b *testing.B) {
				saved := useAVX2
				useAVX2 = kernel
				defer func() { useAVX2 = saved }()
				for b.Loop() {
					f()
				}
			})
		}
		run("encode", func() {
			i := EncodeBigEndian(buf, vecs[0])
			for ; i < dim; i++ {
				binary.BigEndian.PutUint32(buf[4*i:], math.Float32bits(vecs[0][i]))
			}
		})
		run("widen4", func() { WidenVecs(vecs, wide, norm2) })
		run("wsum", func() { WeightedSumInto(sum, 0.75, vecs[0], 0.25, vecs[1]) })
	}
}
