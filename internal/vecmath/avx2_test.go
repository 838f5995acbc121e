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
// subnormals, overflow (3e38 overflows a float32 product or sum), infinity
// and NaN.
var specials32 = []float32{0, float32(math.Copysign(0, -1)), 1e-40, -1e-45, 3e38, float32(math.NaN()),
	math.Float32frombits(0x7fc00123), float32(math.Inf(-1))}

// same64 and same32 compare bit for bit, except that any NaN matches any
// NaN: which operand's payload an operation keeps is the Go compiler's
// choice, and it differs between builds (under -race, for one).
func same64(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b }
func same32(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b }

// specialRows draws n float32 rows and a query of length dim from N(0,1),
// with roughly one element in twelve replaced by a special value when
// spiked.
func specialRows(r *rand.Rand, n, dim int, spiked bool) (vec []float32, rows [][]float32) {
	vec = vec32(r, 0, dim, spiked)
	rows = make([][]float32, n)
	for i := range rows {
		rows[i] = vec32(r, 0, dim, spiked)
	}
	return vec, rows
}

// blocksOf interleaves rows into fresh probe blocks whose unused tail
// holds a NaN, so a kernel that reads past the blocks it was given shows.
func blocksOf(rows [][]float32) []float32 {
	if len(rows) == 0 {
		return nil
	}
	n := BlocksLen(len(rows), len(rows[0]))
	blocks := make([]float32, n+blockRows)
	for i := n; i < len(blocks); i++ {
		blocks[i] = float32(math.NaN())
	}
	Interleave(blocks, rows)
	return blocks[:n]
}

// TestAVX2KernelsMatchGo holds the AVX2 kernels to the Go loops bit for bit
// (a NaN to any NaN): the raw blocksAVX2 sums and the query's Σq² against
// the Go block loop and SquaredNorm; CosinesBlocks and DotsBlocks with the
// kernels on and off; and Scale. The block kernels run over 1…40 rows,
// so passes of one to four blocks and padded last blocks all occur, at
// dimensions that are and are not a multiple of 4, on plain and on spiked
// inputs.
func TestAVX2KernelsMatchGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this machine: only the Go loops exist")
	}
	r := rand.New(rand.NewPCG(30, 8))
	var s, sGo BlockScratch
	for _, dim := range []int{1, 3, 4, 8, 252, 256, 6, 255} {
		for n := 1; n <= 40; n++ {
			for _, spiked := range []bool{false, true} {
				vec, rows := specialRows(r, n, dim, spiked)
				blocks := blocksOf(rows)
				dots, norm2 := s.blockDots(vec, blocks, n)
				var ref []float64
				var refNorm2 float64
				goPath(func() { ref, refNorm2 = sGo.blockDots(vec, blocks, n) })
				for i := range n {
					if !same64(dots[i], ref[i]) {
						t.Fatalf("dim=%d n=%d spiked=%v row %d: blocksAVX2 %x, Go %x", dim, n, spiked, i, math.Float64bits(dots[i]), math.Float64bits(ref[i]))
					}
				}
				if want := SquaredNorm(vec); !same64(norm2, want) || !same64(refNorm2, want) {
					t.Fatalf("dim=%d n=%d spiked=%v: query norm %x (Go %x), SquaredNorm %x", dim, n, spiked, math.Float64bits(norm2), math.Float64bits(refNorm2), math.Float64bits(want))
				}
				snorm := make([]float64, n)
				for i, row := range rows {
					snorm[i] = math.Sqrt(SquaredNorm(row))
				}
				gotCos, wantCos := make([]float32, n), make([]float32, n)
				gotDot, wantDot := make([]float32, n), make([]float32, n)
				CosinesBlocks(vec, blocks, snorm, gotCos, &s)
				DotsBlocks(vec, blocks, gotDot, &s)
				goPath(func() {
					CosinesBlocks(vec, blocks, snorm, wantCos, &sGo)
					DotsBlocks(vec, blocks, wantDot, &sGo)
				})
				for i := range n {
					if !same32(gotCos[i], wantCos[i]) {
						t.Fatalf("dim=%d n=%d spiked=%v row %d: CosinesBlocks %x, Go %x", dim, n, spiked, i, math.Float32bits(gotCos[i]), math.Float32bits(wantCos[i]))
					}
					if !same32(gotDot[i], wantDot[i]) {
						t.Fatalf("dim=%d n=%d spiked=%v row %d: DotsBlocks %x, Go %x", dim, n, spiked, i, math.Float32bits(gotDot[i]), math.Float32bits(wantDot[i]))
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

// FuzzCosinesRows holds CosinesBlocks, the probe kernel a client runs, on
// rows interleaved as a staged cache layer's are, to per-row Cosine bit for
// bit, with AVX2 on and off (a NaN to any NaN on both). It fuzzes the
// dimension (1…300, multiples of 4 and not), the row count (1…17, so that
// passes of one to four blocks and padded last blocks all run) and raw
// float32 bits, the query first and then the rows one by one, the input's
// words repeating as needed. The corpus is seeded from the specialRows grid
// of TestAVX2KernelsMatchGo, float32 specials included.
func FuzzCosinesRows(f *testing.F) {
	r := rand.New(rand.NewPCG(30, 9))
	for _, dim := range []int{4, 8, 252, 256, 6, 255} {
		for _, n := range []int{1, 4, 5, 8, 17} {
			for _, spiked := range []bool{false, true} {
				vec, rows := specialRows(r, n, dim, spiked)
				data := make([]byte, 0, 4*dim*(n+1))
				for _, x := range vec {
					data = binary.LittleEndian.AppendUint32(data, math.Float32bits(x))
				}
				for _, row := range rows {
					for _, x := range row {
						data = binary.LittleEndian.AppendUint32(data, math.Float32bits(x))
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
		dim, n := 1+int(dimSeed)%300, 1+int(nSeed)%17
		next := func(k int) float32 {
			return math.Float32frombits(binary.LittleEndian.Uint32(data[4*(k%words):]))
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
		norm2, snorm := make([]float64, n), make([]float64, n)
		SquaredNorms(entries, norm2)
		SqrtNorms(norm2, snorm)
		blocks := blocksOf(entries)
		var s BlockScratch
		got, gotGo := make([]float32, n), make([]float32, n)
		CosinesBlocks(vec, blocks, snorm, got, &s)
		goPath(func() { CosinesBlocks(vec, blocks, snorm, gotGo, &s) })
		for i, e := range entries {
			if want := Cosine(vec, e); !same32(got[i], want) || !same32(gotGo[i], want) {
				t.Fatalf("dim=%d n=%d row %d: CosinesBlocks %x (Go %x), Cosine %x", dim, n, i, math.Float32bits(got[i]), math.Float32bits(gotGo[i]), math.Float32bits(want))
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
// bit for bit, NaN payloads included) and WeightedSumInto elementwise
// against its Go loop.
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

// TestSquaredNormsMatchGo holds SquaredNorms, with AVX2 on and off, to
// SquaredNorm vector by vector, bit for bit (a NaN to any NaN), on plain and
// spiked vectors of every length 1…67 and of 96, 128, 192, 252, 255 and
// 256, starting 0–3 elements into their allocations, over batches of 1…9
// vectors: short last groups, lengths that are not a multiple of 4, and
// batches of 7 whose sixth vector is 4 longer, which sends its group to the
// Go loop.
func TestSquaredNormsMatchGo(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 4))
	dims := []int{96, 128, 192, 252, 255, 256}
	for n := 1; n <= 67; n++ {
		dims = append(dims, n)
	}
	for _, dim := range dims {
		for trial := 0; trial < 8; trial++ {
			off, spiked := trial%4, trial >= 4
			for batch := 1; batch <= 9; batch++ {
				vecs := make([][]float32, batch)
				for i := range vecs {
					n := dim
					if batch == 7 && i == 5 {
						n += 4
					}
					vecs[i] = vec32(r, off, n, spiked)
				}
				checkSquaredNorms(t, vecs)
			}
		}
	}
}

// FuzzSquaredNorms holds SquaredNorms to SquaredNorm bit for bit (a NaN to
// any NaN), with AVX2 on and off, over fuzzed dimensions (1…300), batch
// sizes (1…12) and raw float32 bits; bit i%8 of mix makes vector i four
// elements longer, so groups mix lengths. The corpus is seeded from
// specialRows.
func FuzzSquaredNorms(f *testing.F) {
	r := rand.New(rand.NewPCG(31, 5))
	for _, dim := range []int{4, 8, 252, 256, 6, 255} {
		for _, n := range []int{1, 4, 7, 9} {
			_, rows := specialRows(r, n, dim, true)
			var data []byte
			for _, row := range rows {
				for _, x := range row {
					data = binary.LittleEndian.AppendUint32(data, math.Float32bits(x))
				}
			}
			f.Add(uint16(dim-1), uint8(n-1), uint8(r.IntN(256)), data)
		}
	}
	f.Fuzz(func(t *testing.T, dimSeed uint16, nSeed, mix uint8, data []byte) {
		words := len(data) / 4
		if words == 0 {
			t.Skip("no float32 words")
		}
		dim, n := 1+int(dimSeed)%300, 1+int(nSeed)%12
		vecs := make([][]float32, n)
		w := 0
		for i := range vecs {
			vecs[i] = make([]float32, dim+4*int(mix>>(i%8)&1))
			for k := range vecs[i] {
				vecs[i][k] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*(w%words):]))
				w++
			}
		}
		checkSquaredNorms(t, vecs)
	})
}

// checkSquaredNorms compares SquaredNorms, on the kernel and on the Go
// loop, with SquaredNorm of each vector.
func checkSquaredNorms(t *testing.T, vecs [][]float32) {
	t.Helper()
	got, gotGo := make([]float64, len(vecs)), make([]float64, len(vecs))
	SquaredNorms(vecs, got)
	goPath(func() { SquaredNorms(vecs, gotGo) })
	for i, v := range vecs {
		want := SquaredNorm(v)
		if !same64(got[i], want) || !same64(gotGo[i], want) {
			t.Fatalf("%d vectors, vector %d of length %d: SquaredNorms %x (Go %x), SquaredNorm %x",
				len(vecs), i, len(v), math.Float64bits(got[i]), math.Float64bits(gotGo[i]), math.Float64bits(want))
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

// BenchmarkCosinesBlocks scores a float32 query against n staged 256-wide
// rows interleaved into probe blocks, on the AVX2 kernel and on the Go
// loops: the probe of a cache layer at the entry counts the workloads probe
// (cos), and the prediction head's scan of 50 final-layer prototypes
// (head).
func BenchmarkCosinesBlocks(b *testing.B) {
	r := rand.New(rand.NewPCG(31, 9))
	for _, tc := range []struct {
		op string
		n  int
	}{{"cos", 5}, {"cos", 8}, {"cos", 9}, {"cos", 15}, {"cos", 48}, {"head", 50}} {
		vec, rows := specialRows(r, tc.n, 256, false)
		blocks := blocksOf(rows)
		snorm := make([]float64, tc.n)
		for i, row := range rows {
			snorm[i] = math.Sqrt(SquaredNorm(row))
		}
		out := make([]float32, tc.n)
		for _, kernel := range []bool{true, false} {
			if kernel && !useAVX2 {
				continue
			}
			name := map[bool]string{true: "avx2", false: "go"}[kernel]
			b.Run(fmt.Sprintf("%s/n=%d/%s", tc.op, tc.n, name), func(b *testing.B) {
				saved := useAVX2
				useAVX2 = kernel
				defer func() { useAVX2 = saved }()
				var s BlockScratch
				for b.Loop() {
					if tc.op == "head" {
						DotsBlocks(vec, blocks, out, &s)
					} else {
						CosinesBlocks(vec, blocks, snorm, out, &s)
					}
				}
			})
		}
	}
}

// BenchmarkWireKernels times the three wire-path kernels against their Go
// loops on 256-float N(0,1) cells (no subnormals, which would time the
// CPU's microcode assists instead): encoding one cell big-endian, the
// squared norms of four cells, and one merge's weighted sum.
func BenchmarkWireKernels(b *testing.B) {
	r := rand.New(rand.NewPCG(31, 3))
	const dim = 256
	vecs := make([][]float32, 4)
	for i := range vecs {
		vecs[i] = vec32(r, 0, dim, false)
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
		run("norms4", func() { SquaredNorms(vecs, norm2) })
		run("wsum", func() { WeightedSumInto(sum, 0.75, vecs[0], 0.25, vecs[1]) })
	}
}
