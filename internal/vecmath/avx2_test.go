package vecmath

import (
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
