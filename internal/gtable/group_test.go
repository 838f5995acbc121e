package gtable

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"coca/internal/telemetry"
)

// sameTables fails unless a and b hold bitwise the same cells: vectors,
// versions, support and evidence totals.
func sameTables(t *testing.T, when string, a, b *Sharded) {
	t.Helper()
	ca, cb := a.AppendCells(nil), b.AppendCells(nil)
	if len(ca) != len(cb) {
		t.Fatalf("%s: %d cells against %d", when, len(ca), len(cb))
	}
	for i := range ca {
		x, y := ca[i], cb[i]
		if x.Class != y.Class || x.Layer != y.Layer || x.Ver != y.Ver ||
			math.Float64bits(x.Support) != math.Float64bits(y.Support) ||
			math.Float64bits(x.EvTotal) != math.Float64bits(y.EvTotal) {
			t.Fatalf("%s: cell %+v against %+v", when, x, y)
		}
		for k := range x.Vec {
			if math.Float32bits(x.Vec[k]) != math.Float32bits(y.Vec[k]) {
				t.Fatalf("%s: cell (%d,%d) differs at component %d", when, x.Class, x.Layer, k)
			}
		}
	}
}

// TestMergeGroupMatchesMerges runs seeded batches through MergeGroup and the
// same batches one Merge at a time through a second table: after every
// batch both tables are bitwise equal, and both sides merged as many cells,
// returned the same error and counted as many rejected vectors. The batches
// hold a cell repeated inside a group of four, a zero update into an absent
// cell, a cancelling update, a NaN and an invalid φ.
func TestMergeGroupMatchesMerges(t *testing.T) {
	const classes, layers, dim = 6, 3, 12 // 8 floats for the kernels, 4 for the Go tail
	r := rand.New(rand.NewPCG(47, 4))
	vec := func() []float32 {
		v := make([]float32, dim)
		for k := range v {
			v[k] = float32(r.NormFloat64())
		}
		return v
	}
	group, single := NewSharded(classes, layers, dim), NewSharded(classes, layers, dim)
	for _, s := range []*Sharded{group, single} {
		if err := s.Set(5, 2, axis(dim, 3), 2); err != nil {
			t.Fatal(err)
		}
	}
	type batch struct {
		gamma   float64
		refused bool // one of the updates is
		updates []Update
	}
	upd := func(class, layer int, v []float32, phi float64) Update {
		return Update{Class: class, Layer: layer, Vec: v, LocalFreq: phi}
	}
	nan := vec()
	nan[9] = float32(math.NaN())
	cancel := axis(dim, 3)
	cancel[3] = -1
	batches := []batch{
		{0.99, false, []Update{upd(1, 0, vec(), 2), upd(2, 1, vec(), 1), upd(1, 0, vec(), 3), upd(3, 2, vec(), 1), upd(4, 0, vec(), 1)}},
		{0.99, true, []Update{upd(0, 0, vec(), 1), upd(1, 1, vec(), 1), upd(0, 2, make([]float32, dim), 1), upd(2, 2, vec(), 1)}},
		{1, false, []Update{upd(2, 0, vec(), 1), upd(5, 2, cancel, 2), upd(1, 0, vec(), 1)}},
		{0.99, true, []Update{upd(1, 0, vec(), 1), upd(0, 1, vec(), 1), upd(1, 0, nan, 2), upd(3, 0, vec(), 1)}},
		{0.99, true, []Update{upd(4, 1, vec(), 1), upd(4, 2, vec(), 0), upd(3, 1, vec(), 1)}},
		{0.99, true, []Update{upd(2, 1, vec(), 1), upd(classes, 0, vec(), 1)}},
	}
	for range 200 {
		b := batch{gamma: 0.99}
		for range 1 + r.IntN(9) {
			b.updates = append(b.updates, upd(r.IntN(classes), r.IntN(layers), vec(), float64(1+r.IntN(4))))
		}
		batches = append(batches, b)
	}
	for i, b := range batches {
		rejected := telemetry.CoreRejectedVecs.Load()
		n, err := group.MergeGroup(b.updates, b.gamma, 40)
		groupRejected := telemetry.CoreRejectedVecs.Load() - rejected
		rejected = telemetry.CoreRejectedVecs.Load()
		m, merr := len(b.updates), error(nil)
		for j, u := range b.updates {
			if merr = single.Merge(u.Class, u.Layer, u.Vec, b.gamma, u.LocalFreq, 40); merr != nil {
				m = j
				break
			}
		}
		singleRejected := telemetry.CoreRejectedVecs.Load() - rejected
		if n != m || fmt.Sprint(err) != fmt.Sprint(merr) || groupRejected != singleRejected {
			t.Fatalf("batch %d: group merged %d (%v, %d rejected), one by one %d (%v, %d rejected)", i, n, err, groupRejected, m, merr, singleRejected)
		}
		if b.refused && err == nil {
			t.Fatalf("batch %d was meant to be refused", i)
		}
		sameTables(t, fmt.Sprintf("batch %d", i), group, single)
	}
}
