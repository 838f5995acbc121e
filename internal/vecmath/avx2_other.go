//go:build !amd64

package vecmath

import "unsafe"

// useAVX2 is false off amd64: the Go loops are the only kernels.
var useAVX2 = false

func blocksAVX2(q *float32, q64 *float64, dim int, blocks *float32, nblk int, dots *float64) {
	panic("vecmath: AVX2 kernel called off amd64")
}

func scaleAVX2(alpha float32, v *float32, n int) {
	panic("vecmath: AVX2 kernel called off amd64")
}

func norms4AVX2(vecs *[4]*float32, n int, norm2 *[4]float64) {
	panic("vecmath: AVX2 kernel called off amd64")
}

func weightedSumAVX2(w1, w2 float32, dst, a, b *float32, n int) {
	panic("vecmath: AVX2 kernel called off amd64")
}

func bswap32AVX2(dst, src unsafe.Pointer, n int) {
	panic("vecmath: AVX2 kernel called off amd64")
}
