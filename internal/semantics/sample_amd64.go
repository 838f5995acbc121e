package semantics

import "coca/internal/model"

// accumulateAVX2 is accumulate in eight float32 lanes: the same operations
// in the same order, so the same bits. n is a multiple of 32.
//
//go:noescape
func accumulateAVX2(dst, base, conf, cent, shift, common, row *float32, w *[6]float32, signs *[model.Dim / 64]uint64, n int) float64
