package vecmath

import (
	"math"
	"math/rand/v2"
	"testing"
)

func kernelVectors(r *rand.Rand, n, dim int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(r.NormFloat64())
		}
		out[i] = v
	}
	return out
}

// widenRows widens each entry with WidenRow, for the float64 kernel.
func widenRows(entries [][]float32) [][]float64 {
	rows := make([][]float64, len(entries))
	for i, e := range entries {
		rows[i], _ = WidenRow(e)
	}
	return rows
}

// TestSoftmaxIntoMatchesSoftmax checks the in-place variant.
func TestSoftmaxIntoMatchesSoftmax(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 7))
	logits := kernelVectors(r, 1, 40)[0]
	want := Softmax(logits)
	got := make([]float32, len(logits))
	SoftmaxInto(logits, got)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("index %d: %v != %v", i, want[i], got[i])
		}
	}
}

// TestKernelsZeroAlloc asserts the probe kernels never allocate.
func TestKernelsZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 8))
	entries := kernelVectors(r, 12, 64)
	vec := kernelVectors(r, 1, 64)[0]
	vec64 := make([]float64, 64)
	norm2, snorm := make([]float64, 12), make([]float64, 12)
	out := make([]float32, 12)
	blocks := make([]float32, BlocksLen(12, 64))
	var s BlockScratch
	CosinesBlocks(vec, blocks, snorm, out, &s) // warm the scratch
	if n := testing.AllocsPerRun(200, func() {
		WidenVec(vec, vec64)
		SquaredNorms(entries, norm2)
		SqrtNorms(norm2, snorm)
		Interleave(blocks, entries)
		CosinesBlocks(vec, blocks, snorm, out, &s)
		DotsBlocks(vec, blocks, out, &s)
		Scale(0.5, out)
	}); n != 0 {
		t.Errorf("probe kernels allocate %v/op, want 0", n)
	}
}

// TestStagedRowCosineBitwise locks the staging contract: the staged
// kernels (SquaredNorms, then CosinesBlocks on the rows interleaved into
// blocks, or CosinesWidenedRows on widened query and rows) must reproduce
// scalar Cosine bit for bit across awkward shapes — dimensions around the
// tile widths (including 1 and non-multiples of the tile), entry counts
// exercising every tail-loop combination.
func TestStagedRowCosineBitwise(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	for _, dim := range []int{1, 2, 3, 5, 16, 31, 64, 127, 128, 130} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13} {
			entries := kernelVectors(r, n, dim)
			vec := kernelVectors(r, 1, dim)[0]
			norm2 := make([]float64, n)
			SquaredNorms(entries, norm2)
			for i, e := range entries {
				if norm2[i] != SquaredNorm(e) {
					t.Fatalf("dim=%d n=%d entry %d: staged norm %v != SquaredNorm %v", dim, n, i, norm2[i], SquaredNorm(e))
				}
			}
			vec64 := make([]float64, dim)
			vn := WidenVec(vec, vec64)
			if vn != SquaredNorm(vec) {
				t.Fatalf("dim=%d n=%d: WidenVec norm %v != SquaredNorm %v", dim, n, vn, SquaredNorm(vec))
			}
			snorm := make([]float64, n)
			SqrtNorms(norm2, snorm)
			out := make([]float32, n)
			CosinesWidenedRows(vec64, math.Sqrt(vn), widenRows(entries), snorm, out)
			out32 := make([]float32, n)
			var s BlockScratch
			CosinesBlocks(vec, blocksOf(entries), snorm, out32, &s)
			for i, e := range entries {
				if want := Cosine(vec, e); want != out[i] || want != out32[i] {
					t.Fatalf("dim=%d n=%d entry %d: Cosine %v, CosinesWidenedRows %v, CosinesBlocks %v", dim, n, i, want, out[i], out32[i])
				}
			}
		}
	}
}

// TestDotsBlocksBitwise checks the block dot kernel (the prediction head's
// logits scan) against Dot, on the kernel and on the Go loop.
func TestDotsBlocksBitwise(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 13))
	var s BlockScratch
	for _, n := range []int{1, 3, 4, 5, 11, 50} {
		for _, dim := range []int{1, 5, 96, 130} {
			entries := kernelVectors(r, n, dim)
			vec := kernelVectors(r, 1, dim)[0]
			blocks := blocksOf(entries)
			out, outGo := make([]float32, n), make([]float32, n)
			DotsBlocks(vec, blocks, out, &s)
			goPath(func() { DotsBlocks(vec, blocks, outGo, &s) })
			for i, e := range entries {
				if want := Dot(vec, e); want != out[i] || want != outGo[i] {
					t.Fatalf("n=%d dim=%d entry %d: Dot %v, DotsBlocks %v (Go %v)", n, dim, i, want, out[i], outGo[i])
				}
			}
		}
	}
}

// TestStagedKernelsZeroAlloc asserts the staged-row kernels never
// allocate: the staging is computed when a cell arrives, so the per-probe
// path must stay off the heap entirely.
func TestStagedKernelsZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewPCG(10, 14))
	entries := kernelVectors(r, 12, 64)
	rows := widenRows(entries)
	norm2, snorm := make([]float64, len(entries)), make([]float64, len(entries))
	SquaredNorms(entries, norm2)
	query := kernelVectors(r, 1, 64)[0]
	qrow := make([]float64, 64)
	qsnorm := math.Sqrt(WidenVec(query, qrow))
	out := make([]float32, len(entries))
	blocks := blocksOf(entries)
	var s BlockScratch
	CosinesBlocks(query, blocks, snorm, out, &s) // warm the scratch
	if n := testing.AllocsPerRun(200, func() {
		SqrtNorms(norm2, snorm)
		CosinesWidenedRows(qrow, qsnorm, rows, snorm, out)
		CosinesBlocks(query, blocks, snorm, out, &s)
		DotsBlocks(query, blocks, out, &s)
	}); n != 0 {
		t.Errorf("staged kernels allocate %v/op, want 0", n)
	}
}
