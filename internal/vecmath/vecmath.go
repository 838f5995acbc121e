// Package vecmath provides the small dense float32 vector kernel used by the
// semantic caching machinery: dot products, cosine similarity, L2
// normalization and a handful of reductions.
//
// All functions are allocation-free unless documented otherwise, and all
// panic on length mismatches: a mismatched vector is a programming error in
// this codebase, never a runtime condition to recover from.
package vecmath

import (
	"fmt"
	"math"
	"unsafe"
)

// AVX2 reports whether this process runs the amd64 AVX2 kernels, decided
// once at start-up from the CPU. They are bitwise identical to the Go loops,
// which run everywhere else.
func AVX2() bool { return useAVX2 }

// Dot returns the inner product of a and b.
// It panics if len(a) != len(b).
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: Dot length mismatch %d != %d", len(a), len(b)))
	}
	// Accumulate in float64 for stability; the vectors here are short
	// (tens to a few hundred elements) but many results are compared
	// against thresholds of order 1e-2.
	var s float64
	for i, av := range a {
		s += float64(av) * float64(b[i])
	}
	return float32(s)
}

// Norm returns the Euclidean (L2) norm of v.
func Norm(v []float32) float32 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return float32(math.Sqrt(s))
}

// Normalize scales v in place to unit L2 norm and returns its original norm.
// A zero vector is left unchanged and 0 is returned.
func Normalize(v []float32) float32 {
	n := Norm(v)
	if n == 0 {
		return 0
	}
	Scale(1/n, v)
	return n
}

// Normalized returns a fresh unit-norm copy of v. A zero vector yields a
// zero copy.
func Normalized(v []float32) []float32 {
	out := make([]float32, len(v))
	copy(out, v)
	Normalize(out)
	return out
}

// Cosine returns the cosine similarity of a and b, in [-1, 1].
// If either vector is zero, Cosine returns 0.
func Cosine(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: Cosine length mismatch %d != %d", len(a), len(b)))
	}
	var dot, na, nb float64
	for i, av := range a {
		bv := b[i]
		dot += float64(av) * float64(bv)
		na += float64(av) * float64(av)
		nb += float64(bv) * float64(bv)
	}
	if na == 0 || nb == 0 {
		return 0
	}
	c := dot / (math.Sqrt(na) * math.Sqrt(nb))
	// Clamp against floating-point drift so callers can rely on the range.
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return float32(c)
}

// SquaredNorm returns the float64 sum of squares of v, accumulated in index
// order — the same value Cosine computes internally for each operand.
func SquaredNorm(v []float32) float64 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return s
}

// cosineFromSqrts finishes one cosine from its accumulated dot and the
// two PRE-COMPUTED square-root norms, with exactly Cosine's arithmetic:
// Cosine computes dot/(Sqrt(na)*Sqrt(nb)), so caching each operand's
// Sqrt — per entry at publish time, per query once per probe — replaces
// two Sqrts per (query, entry) pair with the same multiply and divide on
// the same values, bitwise unchanged. A zero sqrt-norm marks a zero
// vector (Sqrt of a non-negative squared norm is zero iff the norm is).
func cosineFromSqrts(dot, sa, sb float64) float32 {
	if sa == 0 || sb == 0 {
		return 0
	}
	c := dot / (sa * sb)
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return float32(c)
}

// WidenVec widens one query vector into dst and returns its SquaredNorm,
// in a single pass. It panics if len(dst) < len(vec). Allocation-free.
func WidenVec(vec []float32, dst []float64) float64 {
	if len(dst) < len(vec) {
		panic(fmt.Sprintf("vecmath: WidenVec dst length %d < %d", len(dst), len(vec)))
	}
	var s float64
	for k, x := range vec {
		xv := float64(x)
		dst[k] = xv
		s += xv * xv
	}
	return s
}

// SquaredNorms sets norm2[i] to SquaredNorm(vecs[i]), bitwise the same.
// With AVX2 it sums four vectors per norms4AVX2 call, lane j carrying vector
// j's chain in index order; a group whose vectors differ in length, or whose
// length is not a positive multiple of 4, takes SquaredNorm. A short last
// group repeats its last vector and drops the repeats' sums. It panics if
// norm2 is shorter than vecs. Allocation-free.
func SquaredNorms(vecs [][]float32, norm2 []float64) {
	if len(norm2) < len(vecs) {
		panic(fmt.Sprintf("vecmath: SquaredNorms norm2 length %d < %d", len(norm2), len(vecs)))
	}
	for i := 0; i < len(vecs); i += 4 {
		if !norms4(vecs, i, norm2) {
			for j := i; j < min(i+4, len(vecs)); j++ {
				norm2[j] = SquaredNorm(vecs[j])
			}
		}
	}
}

// norms4 runs norms4AVX2 on vectors i…i+3 (the last vector standing in for
// those past the end) and reports whether the kernel fit them.
func norms4(vecs [][]float32, i int, norm2 []float64) bool {
	n := len(vecs[i])
	if !useAVX2 || n == 0 || n%4 != 0 {
		return false
	}
	var p [4]*float32
	for j := range p {
		k := min(i+j, len(vecs)-1)
		if len(vecs[k]) != n {
			return false
		}
		p[j] = &vecs[k][0]
	}
	var s [4]float64
	norms4AVX2(&p, n, &s)
	copy(norm2[i:min(i+4, len(vecs))], s[:])
	return true
}

// dots4r accumulates four dot chains of a float64 query against four
// float64 rows held as independent slices, each chain in index order.
func dots4r(vec, e0, e1, e2, e3 []float64) (d0, d1, d2, d3 float64) {
	e0 = e0[:len(vec)]
	e1 = e1[:len(vec)]
	e2 = e2[:len(vec)]
	e3 = e3[:len(vec)]
	for k, xv := range vec {
		d0 += xv * e0[k]
		d1 += xv * e1[k]
		d2 += xv * e2[k]
		d3 += xv * e3[k]
	}
	return
}

// CosinesWidenedRows is CosinesRows for float64 operands: out[i] is the
// cosine of vec64 and rows[i], given snorm[i], the SQUARE ROOT of rows[i]'s
// squared norm, and sqrtVecNorm, the query's, computed once per call. The
// routing tier scores its float64 class profiles with it. Rows are tiled
// four at a time with a convert-free inner loop; every per-pair chain
// accumulates in index order and the cosine is finished from the same
// Sqrt values Cosine would compute, so for widened float32 operands the
// results are bitwise identical to Cosine. Allocation-free.
func CosinesWidenedRows(vec64 []float64, sqrtVecNorm float64, rows [][]float64, snorm []float64, out []float32) {
	n := len(rows)
	if len(snorm) < n || len(out) < n {
		panic(fmt.Sprintf("vecmath: CosinesWidenedRows snorm/out length %d/%d < %d", len(snorm), len(out), n))
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		d0, d1, d2, d3 := dots4r(vec64, rows[i], rows[i+1], rows[i+2], rows[i+3])
		out[i] = cosineFromSqrts(d0, sqrtVecNorm, snorm[i])
		out[i+1] = cosineFromSqrts(d1, sqrtVecNorm, snorm[i+1])
		out[i+2] = cosineFromSqrts(d2, sqrtVecNorm, snorm[i+2])
		out[i+3] = cosineFromSqrts(d3, sqrtVecNorm, snorm[i+3])
	}
	for ; i < n; i++ {
		row := rows[i][:len(vec64)]
		var dot float64
		for k, xv := range vec64 {
			dot += xv * row[k]
		}
		out[i] = cosineFromSqrts(dot, sqrtVecNorm, snorm[i])
	}
}

// SqrtNorms fills snorm[i] with math.Sqrt(norm2[i]) — the second half of
// a layer's cosine staging (see cosineFromSqrts). Allocation-free.
func SqrtNorms(norm2, snorm []float64) {
	if len(snorm) < len(norm2) {
		panic(fmt.Sprintf("vecmath: SqrtNorms snorm length %d < %d", len(snorm), len(norm2)))
	}
	for i, n2 := range norm2 {
		snorm[i] = math.Sqrt(n2)
	}
}

// blockRows is how many rows one probe block interleaves: one VCVTPS2PD
// widens element k of all of them.
const blockRows = 4

// BlocksLen returns how many float32s n rows of dim elements take as probe
// blocks: n rounded up to whole blocks of blockRows rows, times dim.
func BlocksLen(n, dim int) int {
	return (n + blockRows - 1) / blockRows * blockRows * dim
}

// Interleave writes rows into dst as column-interleaved probe blocks: block
// b holds rows 4b…4b+3, and its element k*4+j is row 4b+j's element k, so
// the kernel widens element k of four rows with one load. Padding rows of
// the last block are zero. Every row must be as long as rows[0], and dst
// must hold BlocksLen(len(rows), len(rows[0])) floats; it panics otherwise.
func Interleave(dst []float32, rows [][]float32) {
	if len(rows) == 0 {
		return
	}
	dim := len(rows[0])
	if need := BlocksLen(len(rows), dim); len(dst) < need {
		panic(fmt.Sprintf("vecmath: Interleave dst length %d < %d", len(dst), need))
	}
	for i, row := range rows {
		if len(row) != dim {
			panic(fmt.Sprintf("vecmath: Interleave row %d length %d != %d", i, len(row), dim))
		}
		blk := dst[i/blockRows*blockRows*dim:]
		for k, x := range row {
			blk[k*blockRows+i%blockRows] = x
		}
	}
	for i := len(rows); i%blockRows != 0; i++ {
		blk := dst[i/blockRows*blockRows*dim:]
		for k := range dim {
			blk[k*blockRows+i%blockRows] = 0
		}
	}
}

// BlockScratch is the per-prober scratch of the block kernels: the query
// widened once into float64 and the float64 dots of one call. The zero
// value is ready; it grows to the largest call and is then reused, so
// steady-state calls are allocation-free. It is not safe for concurrent
// use.
type BlockScratch struct {
	q64, dots []float64
}

// blockDots scores vec against the n rows interleaved in blocks and returns
// their float64 dots and Σvec². With AVX2 one blocksAVX2 call does it all;
// the Go loop below is its reference, operation for operation.
func (s *BlockScratch) blockDots(vec, blocks []float32, n int) ([]float64, float64) {
	dim := len(vec)
	nblk := (n + blockRows - 1) / blockRows
	if need := BlocksLen(n, dim); len(blocks) < need {
		panic(fmt.Sprintf("vecmath: blocks length %d < %d for %d rows of %d", len(blocks), need, n, dim))
	}
	if cap(s.q64) < dim {
		s.q64 = make([]float64, dim)
	}
	if cap(s.dots) < nblk*blockRows+1 {
		s.dots = make([]float64, nblk*blockRows+1)
	}
	q64, d := s.q64[:dim], s.dots[:nblk*blockRows+1]
	if useAVX2 && dim > 0 && nblk > 0 {
		blocksAVX2(&vec[0], &q64[0], dim, &blocks[0], nblk, &d[0])
		return d[:n], d[nblk*blockRows]
	}
	var norm2 float64
	for k, x := range vec {
		xv := float64(x)
		q64[k] = xv
		norm2 += xv * xv
	}
	for b := 0; b < nblk; b++ {
		blk := blocks[b*blockRows*dim : (b+1)*blockRows*dim]
		var d0, d1, d2, d3 float64
		for k, q := range q64 {
			e := blk[k*blockRows : k*blockRows+blockRows : k*blockRows+blockRows]
			d0 += q * float64(e[0])
			d1 += q * float64(e[1])
			d2 += q * float64(e[2])
			d3 += q * float64(e[3])
		}
		d[b*blockRows], d[b*blockRows+1], d[b*blockRows+2], d[b*blockRows+3] = d0, d1, d2, d3
	}
	return d[:n], norm2
}

// CosinesBlocks fills out[i] with Cosine(vec, row i) for the len(out) rows
// interleaved in blocks, where snorm[i] is the square root of row i's
// squared norm — the probe of a staged cache layer. The query is widened
// once, its squared norm is summed beside the first pass's dots, and every
// chain is added in index order, so the results are bitwise identical to
// Cosine on either path. blocks must hold BlocksLen(len(out), len(vec))
// floats. Allocation-free once s is warm.
func CosinesBlocks(vec, blocks []float32, snorm []float64, out []float32, s *BlockScratch) {
	if len(snorm) < len(out) {
		panic(fmt.Sprintf("vecmath: CosinesBlocks snorm length %d < %d", len(snorm), len(out)))
	}
	dots, norm2 := s.blockDots(vec, blocks, len(out))
	sq := math.Sqrt(norm2)
	for i, dot := range dots {
		out[i] = cosineFromSqrts(dot, sq, snorm[i])
	}
}

// DotsBlocks fills out[i] with Dot(vec, row i) for the len(out) rows
// interleaved in blocks, bitwise identical to Dot on either path: the
// prediction head's scan of the final-layer prototypes. Allocation-free
// once s is warm.
func DotsBlocks(vec, blocks []float32, out []float32, s *BlockScratch) {
	dots, _ := s.blockDots(vec, blocks, len(out))
	for i, dot := range dots {
		out[i] = float32(dot)
	}
}

// WidenRow returns a freshly allocated widened mirror of one entry and its
// squared norm, for callers that score float64 queries with
// CosinesWidenedRows.
func WidenRow(v []float32) ([]float64, float64) {
	row := make([]float64, len(v))
	var s float64
	for k, x := range v {
		xv := float64(x)
		row[k] = xv
		s += xv * xv
	}
	return row, s
}

// Axpy computes dst[i] += alpha*x[i] in place.
// It panics if len(dst) != len(x).
func Axpy(alpha float32, x, dst []float32) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("vecmath: Axpy length mismatch %d != %d", len(dst), len(x)))
	}
	for i, xv := range x {
		dst[i] += alpha * xv
	}
}

// Scale multiplies v by alpha in place, eight lanes per VMULPS with AVX2:
// one rounded multiply per element either way, so the results agree.
func Scale(alpha float32, v []float32) {
	i := 0
	if useAVX2 && len(v) >= 8 {
		i = len(v) &^ 7
		scaleAVX2(alpha, &v[0], i)
	}
	for ; i < len(v); i++ {
		v[i] *= alpha
	}
}

// Add returns a fresh vector a+b. It panics on length mismatch.
func Add(a, b []float32) []float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: Add length mismatch %d != %d", len(a), len(b)))
	}
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Sub returns a fresh vector a-b. It panics on length mismatch.
func Sub(a, b []float32) []float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: Sub length mismatch %d != %d", len(a), len(b)))
	}
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// WeightedSum computes w1*a + w2*b into a fresh vector.
// It panics on length mismatch.
func WeightedSum(w1 float32, a []float32, w2 float32, b []float32) []float32 {
	out := make([]float32, len(a))
	WeightedSumInto(out, w1, a, w2, b)
	return out
}

// WeightedSumInto writes w1*a + w2*b into dst. dst may be a or b (the
// same first element and length) or share no memory with either; a dst
// that overlaps a or b at an offset is not supported, because the AVX2
// kernel reads eight elements before it writes any. With AVX2 it runs 8
// lanes of VMULPS, VMULPS, VADDPS: one rounded operation per Go operation,
// never a fused multiply-add, so the results agree with the Go loop. It
// panics unless all three lengths agree.
func WeightedSumInto(dst []float32, w1 float32, a []float32, w2 float32, b []float32) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(fmt.Sprintf("vecmath: WeightedSum length mismatch %d / %d != %d", len(dst), len(a), len(b)))
	}
	i := 0
	if useAVX2 && len(a) >= 8 {
		i = len(a) &^ 7
		weightedSumAVX2(w1, w2, &dst[0], &a[0], &b[0], i)
	}
	for ; i < len(a); i++ {
		dst[i] = w1*a[i] + w2*b[i]
	}
}

// EncodeBigEndian writes the big-endian bytes of a prefix of vs to dst with
// the AVX2 byte-order kernel and returns the prefix's length: the longest
// multiple of 8 floats that both slices hold, or 0 without AVX2. The caller
// encodes the rest; a byte permutation gives the same bytes either way,
// NaN payloads included.
func EncodeBigEndian(dst []byte, vs []float32) int {
	n := min(len(vs), len(dst)/4) &^ 7
	if !useAVX2 || n == 0 {
		return 0
	}
	bswap32AVX2(unsafe.Pointer(&dst[0]), unsafe.Pointer(&vs[0]), 4*n)
	return n
}

// DecodeBigEndian is the inverse of EncodeBigEndian: it fills a prefix of
// dst from the big-endian floats in src and returns the prefix's length, a
// multiple of 8, or 0 without AVX2. The caller decodes the rest.
func DecodeBigEndian(dst []float32, src []byte) int {
	n := min(len(dst), len(src)/4) &^ 7
	if !useAVX2 || n == 0 {
		return 0
	}
	bswap32AVX2(unsafe.Pointer(&dst[0]), unsafe.Pointer(&src[0]), 4*n)
	return n
}

// Mean returns the element-wise mean of the given vectors as a fresh vector.
// It panics if vs is empty or the vectors disagree in length.
func Mean(vs [][]float32) []float32 {
	if len(vs) == 0 {
		panic("vecmath: Mean of no vectors")
	}
	out := make([]float32, len(vs[0]))
	for _, v := range vs {
		if len(v) != len(out) {
			panic(fmt.Sprintf("vecmath: Mean length mismatch %d != %d", len(v), len(out)))
		}
		for i, x := range v {
			out[i] += x
		}
	}
	inv := 1 / float32(len(vs))
	for i := range out {
		out[i] *= inv
	}
	return out
}

// Argmax returns the index of the largest element of v, or -1 if v is empty.
// Ties resolve to the lowest index.
func Argmax(v []float32) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// ArgTop2 returns the indices of the largest and second-largest elements of
// v. If v has fewer than two elements the missing index is -1.
// Ties resolve to the lowest index.
func ArgTop2(v []float32) (first, second int) {
	first, second = -1, -1
	for i, x := range v {
		switch {
		case first == -1 || x > v[first]:
			second = first
			first = i
		case second == -1 || x > v[second]:
			second = i
		}
	}
	return first, second
}

// Softmax writes the softmax of logits into a fresh slice. It is numerically
// stabilized by max subtraction. An empty input yields an empty output.
func Softmax(logits []float32) []float32 {
	out := make([]float32, len(logits))
	SoftmaxInto(logits, out)
	return out
}

// SoftmaxInto writes the softmax of logits into out (same arithmetic as
// Softmax, allocation-free). It panics if len(out) != len(logits).
func SoftmaxInto(logits, out []float32) {
	if len(out) != len(logits) {
		panic(fmt.Sprintf("vecmath: SoftmaxInto length mismatch %d != %d", len(out), len(logits)))
	}
	if len(logits) == 0 {
		return
	}
	maxv := logits[0]
	for _, x := range logits[1:] {
		if x > maxv {
			maxv = x
		}
	}
	var sum float64
	for i, x := range logits {
		e := math.Exp(float64(x - maxv))
		out[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range out {
		out[i] *= inv
	}
}

// Clone returns a copy of v.
func Clone(v []float32) []float32 {
	out := make([]float32, len(v))
	copy(out, v)
	return out
}

// EuclideanDistance returns the L2 distance between a and b.
// It panics on length mismatch.
func EuclideanDistance(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: EuclideanDistance length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return float32(math.Sqrt(s))
}
