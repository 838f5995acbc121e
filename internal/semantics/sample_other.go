//go:build !amd64

package semantics

import "coca/internal/model"

func accumulateAVX2(dst, base, conf, cent, shift, common, row *float32, w *[6]float32, signs *[model.Dim / 64]uint64, n int) float64 {
	panic("semantics: AVX2 kernel called off amd64")
}
