package vecmath

import "unsafe"

// useAVX2 selects the AVX2 kernels of avx2_amd64.s. It is decided once, at
// start-up, from CPUID and XGETBV; nothing else sets it outside tests, which
// clear it to run the Go reference loops on the same inputs.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (XCR0 bits 1 and 2).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// blocksAVX2 widens q[0:dim] into q64 and writes to dots[4b+j] the dot of
// the query with row j of block b, for the nblk column-interleaved blocks
// of 4 rows at blocks (element k of row j at blk[k*4+j]), and Σq² to
// dots[4·nblk]. Every chain runs in index order k = 0…dim−1 with a rounded
// multiply and a rounded add per step (no FMA). dim and nblk must be
// positive.
//
//go:noescape
func blocksAVX2(q *float32, q64 *float64, dim int, blocks *float32, nblk int, dots *float64)

// scaleAVX2 multiplies v[0:n] by alpha in place; n must be a multiple of 8.
//
//go:noescape
func scaleAVX2(alpha float32, v *float32, n int)

// norms4AVX2 writes each of four cells' Σx² to norm2, one chain per lane in
// index order over the exactly widened elements. n must be a positive
// multiple of 4, and every cell at least n long.
//
//go:noescape
func norms4AVX2(vecs *[4]*float32, n int, norm2 *[4]float64)

// weightedSumAVX2 writes w1·a[i] + w2·b[i] to dst[i] for i < n, 8 lanes
// at a time; n must be a positive multiple of 8, and dst must be a or b or
// lie apart from both.
//
//go:noescape
func weightedSumAVX2(w1, w2 float32, dst, a, b *float32, n int)

// bswap32AVX2 writes the n bytes at src to dst with the bytes of every
// 32-bit word reversed; n must be a positive multiple of 32, and dst must
// be src or lie apart from it.
//
//go:noescape
func bswap32AVX2(dst, src unsafe.Pointer, n int)
