package core

// Server-tier allocation-regression tests, the counterpart of PR 2's
// client-side alloc tests: steady-state Allocate must not touch the heap
// at all, and Upload may allocate only the replacement entry slices that
// the immutable-once-published global table requires (one per merged
// cell — what lets every extraction and delta borrow entries without
// copying).

import (
	"context"
	"math"
	"slices"
	"testing"

	"coca/internal/model"
	"coca/internal/vecmath"
	"coca/internal/xrand"
)

func TestServerAllocateSteadyStateAllocs(t *testing.T) {
	srv := smallServer(t)
	sess := testSession(t, srv, 0)
	ctx := context.Background()
	status := neutralStatus(0)
	// Warm up: first allocation grows the session view and scratch to
	// their high-water sizes.
	for i := 0; i < 3; i++ {
		d, err := sess.Allocate(ctx, status)
		if err != nil {
			t.Fatal(err)
		}
		status.LastVersion = d.Version
	}
	allocs := testing.AllocsPerRun(20, func() {
		d, err := sess.Allocate(ctx, status)
		if err != nil {
			t.Fatal(err)
		}
		status.LastVersion = d.Version
	})
	if allocs != 0 {
		t.Errorf("steady-state Allocate: %.1f allocs/op, want 0", allocs)
	}
}

func TestServerUploadSteadyStateAllocs(t *testing.T) {
	srv := smallServer(t)
	sess := testSession(t, srv, 0)
	ctx := context.Background()
	vec := xrand.NormalVector(xrand.New(3), model.Dim)
	vecmath.Normalize(vec)
	upd := UpdateReport{
		Cells: []UpdateCell{
			{Class: 1, Layer: 2, Count: 2, Vec: vec},
			{Class: 3, Layer: 5, Count: 1, Vec: vec},
		},
		Freq: make([]float64, 10),
	}
	upd.Freq[1] = 4
	if err := sess.Upload(ctx, upd); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := sess.Upload(ctx, upd); err != nil {
			t.Fatal(err)
		}
	})
	// One replacement entry per merged cell — vector and handle in one
	// block, no mirror (that is the prober's) — is the immutable-entry
	// invariant's cost; anything beyond it is a regression.
	if max := float64(len(upd.Cells)); allocs > max {
		t.Errorf("steady-state Upload: %.1f allocs/op, want <= %.0f (one replacement entry per merged cell)", allocs, max)
	}
}

// churnDeltas builds a cycle of wire-style deltas (no entry handles) over
// three sites: every delta overwrites six held cells with fresh vectors,
// evicts four cells and adds the four the previous delta evicted, so changed,
// evicted and new cells are in balance. It returns the Full delta the cycle
// starts from and the cycle.
func churnDeltas(t testing.TB, rounds int) (Delta, []Delta) {
	t.Helper()
	r := xrand.New(11)
	unit := func() []float32 {
		v := xrand.NormalVector(r, model.Dim)
		vecmath.Normalize(v)
		return v
	}
	sites := []int{1, 4, 7}
	const classes = 12
	full := Delta{Version: 1, Full: true, Sites: sites, Classes: []int{0, 1, 2}}
	for _, s := range sites {
		for c := 0; c < classes; c += 2 { // even classes held, odd ones free
			full.Cells = append(full.Cells, DeltaCell{Site: s, Class: c, Vec: unit()})
		}
	}
	cycle := make([]Delta, rounds)
	for i := range cycle {
		d := Delta{Sites: sites, Classes: []int{0, 1, 2}}
		// Classes 0..3 of sites 4 and 7 alternate between the even and the odd pair.
		out, in := []int{0, 2}, []int{1, 3}
		if i%2 == 1 {
			out, in = in, out
		}
		for _, s := range []int{4, 7} {
			for k := range out {
				d.Evict = append(d.Evict, CellRef{Site: s, Class: out[k]})
				d.Cells = append(d.Cells, DeltaCell{Site: s, Class: in[k], Vec: unit()})
			}
		}
		for _, s := range sites {
			for c := 4; c < classes; c += 4 {
				d.Cells = append(d.Cells, DeltaCell{Site: s, Class: c, Vec: unit()})
			}
		}
		cycle[i] = d
	}
	return full, cycle
}

// TestAllocViewApplySteadyStateAllocs pins the view-owned storage rule:
// once the view has its buffers, applying wire-style deltas whose changed,
// evicted and new cells are in balance allocates nothing, and what the view
// then holds is bit for bit what a Full delta of the same allocation gives.
func TestAllocViewApplySteadyStateAllocs(t *testing.T) {
	full, cycle := churnDeltas(t, 100)
	view := NewAllocView()
	if err := view.Apply(full); err != nil {
		t.Fatal(err)
	}
	truth := map[CellRef][]float32{}
	for _, c := range full.Cells {
		truth[CellRef{c.Site, c.Class}] = c.Vec
	}
	next := 0
	apply := func() {
		d := cycle[next%len(cycle)]
		next++
		d.BaseVersion, d.Version = view.Version(), view.Version()+1
		if err := view.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	apply() // warm-up: both halves of the cycle have run once
	apply()
	if allocs := testing.AllocsPerRun(len(cycle)-2, apply); allocs != 0 {
		t.Errorf("steady-state Apply of balanced wire deltas: %.1f allocs/op, want 0", allocs)
	}
	if next < 100 {
		t.Fatalf("only %d rounds applied", next)
	}
	for i := 0; i < next; i++ {
		d := cycle[i%len(cycle)]
		for _, ref := range d.Evict {
			delete(truth, ref)
		}
		for _, c := range d.Cells {
			truth[CellRef{c.Site, c.Class}] = c.Vec
		}
	}
	want := Delta{Version: 1, Full: true, Sites: full.Sites, Classes: full.Classes}
	for ref, vec := range truth {
		want.Cells = append(want.Cells, DeltaCell{Site: ref.Site, Class: ref.Class, Vec: vec})
	}
	fresh := NewAllocView()
	if err := fresh.Apply(want); err != nil {
		t.Fatal(err)
	}
	got, exp := view.Layers(), fresh.Layers()
	if len(got) != len(exp) || view.NumCells() != fresh.NumCells() {
		t.Fatalf("delta-applied view has %d sites / %d cells, Full-applied %d / %d", len(got), view.NumCells(), len(exp), fresh.NumCells())
	}
	for j := range got {
		g, w := got[j], exp[j]
		if g.Site != w.Site || !slices.Equal(g.Classes, w.Classes) {
			t.Fatalf("site %d classes %v, want site %d classes %v", g.Site, g.Classes, w.Site, w.Classes)
		}
		for i := range g.Entries {
			for k := range g.Entries[i] {
				if math.Float32bits(g.Entries[i][k]) != math.Float32bits(w.Entries[i][k]) ||
					math.Float64bits(g.Wide[i][k]) != math.Float64bits(w.Wide[i][k]) {
					t.Fatalf("site %d class %d differs at component %d", g.Site, g.Classes[i], k)
				}
			}
			if math.Float64bits(g.Norm2[i]) != math.Float64bits(w.Norm2[i]) {
				t.Fatalf("site %d class %d: norm %v, want %v", g.Site, g.Classes[i], g.Norm2[i], w.Norm2[i])
			}
		}
	}
}
