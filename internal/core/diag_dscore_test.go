package core

import (
	"sort"
	"testing"

	"coca/internal/cache"
	"coca/internal/dataset"
	"coca/internal/model"
	"coca/internal/semantics"
)

// TestDiagDScores measures the Eq. 2 score distribution for the three
// canonical cache-composition cases, against the recommended Θ=0.012.
func TestDiagDScores(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	space := semantics.NewSpace(dataset.UCF101().Subset(50), model.ResNet101())
	srv := NewServer(space, ServerConfig{Theta: 0.012, Seed: 7})
	tbl := srv.Table()

	mkLayer := func(site int, classes []int) cache.Layer {
		cls, entries, _ := tbl.ExtractLayerEntriesInto(site, classes, nil, nil, nil)
		return cache.Layer{Site: site, Classes: cls, Entries: entries}
	}
	quantiles := func(xs []float64) (q10, q50, q90 float64) {
		sort.Float64s(xs)
		n := len(xs)
		return xs[n/10], xs[n/2], xs[n*9/10]
	}
	// Probing sequentially over sites 0..site accumulates as in real use.
	scoreAt := func(classes []int, smp dataset.Sample, upTo int) float64 {
		lk := cache.NewLookup(cache.Config{Alpha: 0.5, Theta: 1e9})
		var last cache.Result
		for j := 0; j <= upTo; j++ {
			l := mkLayer(j, classes)
			last = lk.Probe(&l, space.SampleVector(smp, j, nil))
		}
		return last.Score
	}

	// Class 7's group is {5,6,7,8,9}; cross-group fillers from 20..40.
	fill := []int{20, 21, 26, 31, 36, 40, 45}
	cases := []struct {
		name    string
		classes []int
	}{
		{"own+siblings cached", append([]int{5, 6, 7, 8, 9}, fill...)},
		{"own lone cached", append([]int{7}, fill...)},
		{"own missing, sibling cached", append([]int{5}, fill...)},
	}
	for _, upTo := range []int{3, 8, 13} {
		for _, c := range cases {
			var ds []float64
			for n := 0; n < 300; n++ {
				smp := dataset.Sample{Class: 7, Difficulty: 0.10, Seed: uint64(7000 + n*13)}
				ds = append(ds, scoreAt(c.classes, smp, upTo))
			}
			q10, q50, q90 := quantiles(ds)
			t.Logf("site<=%2d %-28s D q10=%.4f q50=%.4f q90=%.4f", upTo, c.name, q10, q50, q90)
		}
	}
}
