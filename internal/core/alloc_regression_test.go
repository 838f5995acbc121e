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
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"coca/internal/dataset"
	"coca/internal/model"
	"coca/internal/semantics"
	"coca/internal/vecmath"
	"coca/internal/xrand"
)

// raceEnabled is set when the tests run under the race detector, whose
// sync.Pool drops what it is handed at random.
var raceEnabled bool

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

// churnDeltas builds a cycle of deltas over
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

// walkDeltas builds an unbalanced sequence of wire-style deltas over the same
// three sites: a seeded walk in which every round evicts up to five held
// cells, adds up to five free ones and overwrites up to six, so adds and
// evictions differ round to round and the view grows and shrinks. It returns
// the two warm-up deltas the walk starts from — a Full one holding every cell
// of the 3 × 12 shape (the view's high-water mark) and one that evicts three
// quarters of them (the most it ever parks) — and the walk.
func walkDeltas(t testing.TB, rounds int) ([]Delta, []Delta) {
	t.Helper()
	r := xrand.New(17)
	unit := func() []float32 {
		v := xrand.NormalVector(r, model.Dim)
		vecmath.Normalize(v)
		return v
	}
	sites := []int{1, 4, 7}
	const classes = 12
	var refs []CellRef
	full := Delta{Version: 1, Full: true, Sites: sites, Classes: []int{0, 1, 2}}
	for _, s := range sites {
		for c := 0; c < classes; c++ {
			refs = append(refs, CellRef{s, c})
			full.Cells = append(full.Cells, DeltaCell{Site: s, Class: c, Vec: unit()})
		}
	}
	held := make([]bool, len(refs))
	shrink := Delta{Sites: sites, Classes: []int{0, 1, 2}}
	for i, ref := range refs {
		if held[i] = i%4 == 0; !held[i] {
			shrink.Evict = append(shrink.Evict, ref)
		}
	}
	walk := make([]Delta, rounds)
	for n := range walk {
		d := Delta{Sites: sites, Classes: []int{0, 1, 2}}
		evict, add, change := r.IntN(6), r.IntN(6), r.IntN(7)
		for _, i := range r.Perm(len(refs)) {
			switch {
			case held[i] && evict > 0:
				evict--
				held[i] = false
				d.Evict = append(d.Evict, refs[i])
			case !held[i] && add > 0:
				add--
				held[i] = true
				d.Cells = append(d.Cells, DeltaCell{Site: refs[i].Site, Class: refs[i].Class, Vec: unit()})
			case held[i] && change > 0:
				change--
				d.Cells = append(d.Cells, DeltaCell{Site: refs[i].Site, Class: refs[i].Class, Vec: unit()})
			}
		}
		walk[n] = d
	}
	return []Delta{full, shrink}, walk
}

// ownedBuffers counts the cell buffers the view owns: those its cells lie
// in and those it has parked.
func ownedBuffers(v *AllocView) int {
	n := len(v.spare)
	for i := range v.sites {
		n += v.sites[i].layer.Len()
	}
	return n
}

// applyNext applies d to the view as the delta following the one it holds.
func applyNext(t testing.TB, view *AllocView, d Delta) {
	t.Helper()
	if !d.Full {
		d.BaseVersion = view.Version()
	}
	d.Version = view.Version() + 1
	if err := view.Apply(d); err != nil {
		t.Fatal(err)
	}
}

// sameAsFull fails unless the view holds, bit for bit, what a fresh view
// holds after one Full delta of the cells in truth.
func sameAsFull(t *testing.T, view *AllocView, sites, classes []int, truth map[CellRef][]float32) {
	t.Helper()
	want := Delta{Version: 1, Full: true, Sites: sites, Classes: classes}
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
				if math.Float32bits(g.Entries[i][k]) != math.Float32bits(w.Entries[i][k]) {
					t.Fatalf("site %d class %d differs at component %d", g.Site, g.Classes[i], k)
				}
			}
			if math.Float64bits(g.Norm2[i]) != math.Float64bits(w.Norm2[i]) {
				t.Fatalf("site %d class %d: norm %v, want %v", g.Site, g.Classes[i], g.Norm2[i], w.Norm2[i])
			}
		}
	}
}

// TestAllocViewApplySteadyStateAllocs pins the view-owned storage rule: once
// the view has been at its high-water mark, applying wire-style deltas
// allocates nothing — whether changed, evicted and new cells are in balance
// (the cycle) or not (the walk) — and what the view then holds is bit for bit
// what a Full delta of the same allocation gives.
func TestAllocViewApplySteadyStateAllocs(t *testing.T) {
	cycleFull, cycle := churnDeltas(t, 100)
	walkWarm, walk := walkDeltas(t, 100)
	for _, tc := range []struct {
		name   string
		warm   []Delta // applied before anything is counted
		rounds []Delta
	}{
		// Both halves of the cycle have run once when counting starts.
		{"balanced", []Delta{cycleFull, cycle[0], cycle[1]}, cycle[2:]},
		{"unbalanced", walkWarm, walk},
	} {
		t.Run(tc.name, func(t *testing.T) {
			view := NewAllocView()
			truth := map[CellRef][]float32{}
			next := 0
			apply := func(d Delta) {
				applyNext(t, view, d)
				for _, ref := range d.Evict {
					delete(truth, ref)
				}
				for _, c := range d.Cells {
					truth[CellRef{c.Site, c.Class}] = c.Vec
				}
			}
			for _, d := range tc.warm {
				apply(d)
			}
			owned := ownedBuffers(view)
			// AllocsPerRun calls once more than it counts; truth is a map of
			// refs that all exist by now, so updating it allocates nothing.
			allocs := testing.AllocsPerRun(len(tc.rounds)-1, func() {
				apply(tc.rounds[next])
				next++
			})
			if allocs != 0 {
				t.Errorf("steady-state Apply of %s wire deltas: %.2f allocs/op, want 0", tc.name, allocs)
			}
			if next != len(tc.rounds) {
				t.Fatalf("%d rounds applied, want %d", next, len(tc.rounds))
			}
			if got := ownedBuffers(view); got != owned {
				t.Errorf("view owns %d buffers after %d rounds, %d after warm-up", got, next, owned)
			}
			sameAsFull(t, view, tc.warm[0].Sites, tc.warm[0].Classes, truth)
		})
	}
}

// joinDelta is a Full wire-style delta shaped like the one a joining client
// receives: sites × classes cells at the deployed dimension.
func joinDelta(sites, classes int) Delta {
	r := xrand.New(23)
	d := Delta{Version: 1, Full: true, Classes: []int{0}}
	for s := 0; s < sites; s++ {
		d.Sites = append(d.Sites, 2*s+1)
		for c := 0; c < classes; c++ {
			v := xrand.NormalVector(r, model.Dim)
			vecmath.Normalize(v)
			d.Cells = append(d.Cells, DeltaCell{Site: 2*s + 1, Class: c, Vec: v})
		}
	}
	return d
}

// TestAllocViewFullApplyBytes pins what a cold join costs in bytes: a view
// stores each cell once, as its float32 vector, so applying a Full delta of
// N cells of model.Dim floats to a fresh view allocates at most 4·N·Dim
// bytes plus, per activated site, 96 bytes per cell and 1 KiB. The cell
// term is the site's class, vector-header and norm slices, 40 bytes per
// cell rounded up to size classes, twice over under the race detector,
// which keeps slices.Grow's temporary; the site term is the site list's
// growth and the view itself. A float64 mirror per cell would add 8·N·Dim
// bytes.
func TestAllocViewFullApplyBytes(t *testing.T) {
	const sites, classes, runs = 8, 36, 20 // join-churn's 288 cells
	full := joinDelta(sites, classes)
	n := len(full.Cells)
	apply := func() {
		if err := NewAllocView().Apply(full); err != nil {
			t.Fatal(err)
		}
	}
	apply()
	// One P, as testing.AllocsPerRun runs, so other goroutines' garbage
	// stays out of the count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		apply()
	}
	runtime.ReadMemStats(&after)
	perApply := (after.TotalAlloc - before.TotalAlloc) / runs
	if max := uint64(4*n*model.Dim + sites*(96*classes+1024)); perApply > max {
		t.Errorf("Full delta of %d %d-float cells into a fresh view: %d bytes per apply, want <= %d", n, model.Dim, perApply, max)
	}
}

// TestJoinWithoutInferBytes pins what a client that joins and leaves
// without inferring costs (join-churn's op: NewClient, a Full BeginRound,
// Close). A closed client's view goes back to the pool, so on a warm pool a
// join parks its Full allocation in the buffers the last one left and
// allocates no slab; probe staging waits for the first Infer. What is left
// was measured at 3 347 bytes for 20 cells, 4 319 for 145 and 5 182 for 261:
// about 3.2 KiB per join for the session, the client and its status vectors,
// and 8 bytes per cell of session bookkeeping. The bound allows 4 KiB per
// join and 16 bytes per cell, so a join that allocated even a few of its
// cells afresh (1 KiB each) fails it. The pool is warmed after GOMAXPROCS is
// set, since changing it empties every sync.Pool, and no GC runs while
// joins are counted, since a second cycle would empty it too. Under the race
// detector the bookkeeping doubles, and sync.Pool drops one Put in four at
// random: the join after a dropped Put allocates the view's 4·N·Dim bytes of
// cells afresh, so that bound keeps the slab.
func TestJoinWithoutInferBytes(t *testing.T) {
	space := semantics.NewSpace(dataset.UCF101().Subset(30), model.ResNet50())
	srv := NewServer(space, ServerConfig{Theta: 0.012, Seed: 7})
	cells := 0
	join := func(id int) {
		c, err := NewClient(context.Background(), space, srv, ClientConfig{ID: id, Theta: 0.012, Budget: 150, RoundFrames: 120})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.BeginRound(); err != nil {
			t.Fatal(err)
		}
		cells = c.View().NumCells()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// One P, as testing.AllocsPerRun runs, so other goroutines' garbage
	// stays out of the count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	join(0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range runs {
		join(i + 1)
	}
	runtime.ReadMemStats(&after)
	perJoin := (after.TotalAlloc - before.TotalAlloc) / runs
	const joinBytes, cellBytes = 4 << 10, 16
	max := uint64(joinBytes + cellBytes*cells)
	if raceEnabled {
		max = 2*max + uint64(4*cells*model.Dim)
	}
	if perJoin > max {
		t.Errorf("join of %d %d-float cells without Infer: %d bytes, want <= %d", cells, model.Dim, perJoin, max)
	}
}

// TestPooledViewFullApplyTakesNoSlab pins the warm join: a view reset on
// its client's Close keeps every buffer parked and every parallel slice's
// capacity, so a Full delta of no more cells into it, as the next client's
// cold join is, allocates nothing (no slab floats) and holds what a fresh
// view would.
func TestPooledViewFullApplyTakesNoSlab(t *testing.T) {
	const sites, classes = 8, 36
	full := joinDelta(sites, classes)
	// A smaller allocation: half the sites, their first 20 classes.
	small := Delta{Version: 1, Full: true, Classes: full.Classes}
	truth := map[CellRef][]float32{}
	for _, c := range full.Cells {
		if c.Site < sites && c.Class < 20 {
			small.Cells = append(small.Cells, c)
			truth[CellRef{Site: c.Site, Class: c.Class}] = c.Vec
		}
	}
	for _, c := range small.Cells {
		if !slices.Contains(small.Sites, c.Site) {
			small.Sites = append(small.Sites, c.Site)
		}
	}
	view := NewAllocView()
	applyNext(t, view, full)
	for _, d := range []Delta{full, small, full} {
		allocs := testing.AllocsPerRun(3, func() {
			view.reset()
			if err := view.Apply(d); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 || cap(view.slab) != 0 {
			t.Errorf("Full delta of %d cells into a reset view: %.1f allocs, %d slab floats; want none", len(d.Cells), allocs, cap(view.slab))
		}
		if got := ownedBuffers(view); got != len(full.Cells) {
			t.Errorf("reset view owns %d buffers, want the %d it held", got, len(full.Cells))
		}
	}
	view.reset()
	applyNext(t, view, small)
	sameAsFull(t, view, small.Sites, small.Classes, truth)
}

// TestAllocViewSlabSizedFromDeclaredShape pins the cold join: a Full delta
// into an empty view takes its cells from one slab and grows every
// activated site's parallel slices once, instead of a buffer per cell
// and growth by insertion; and a Full delta into a populated view allocates
// only what the view is short of.
func TestAllocViewSlabSizedFromDeclaredShape(t *testing.T) {
	const sites, classes = 8, 36 // join-churn's 288 cells
	full := joinDelta(sites, classes)
	// What growing one slice once costs: one allocation — two under the race
	// detector, which keeps the compiler from eliding slices.Grow's temporary.
	grow := testing.AllocsPerRun(5, func() { _ = slices.Grow(full.Sites, 1) })
	allocs := testing.AllocsPerRun(5, func() {
		if err := NewAllocView().Apply(full); err != nil {
			t.Fatal(err)
		}
	})
	// One slab; per activated site its three parallel slices (classes,
	// vectors, norms) and at most one growth of the site list; the view
	// itself and its class list.
	if max := 1 + (3*grow+1)*sites + 2; allocs > max {
		t.Errorf("Full delta of %d cells into an empty view: %.0f allocs, want <= %.0f", len(full.Cells), allocs, max)
	}

	// A populated view: the same shape less the last five classes of site 1.
	part := full
	part.Cells = nil
	for _, c := range full.Cells {
		if c.Site != 1 || c.Class < classes-5 {
			part.Cells = append(part.Cells, c)
		}
	}
	view := NewAllocView()
	applyNext(t, view, part)
	if got := ownedBuffers(view); got != len(part.Cells) {
		t.Fatalf("view owns %d buffers for %d cells", got, len(part.Cells))
	}
	allocs = testing.AllocsPerRun(1, func() { applyNext(t, view, full) })
	// AllocsPerRun applied it twice; the first time the view was five short:
	// one slab, site 1's three slices, and the parked list growing by
	// appends to hold every released buffer. The second time nothing is.
	if max := (1 + 3*grow + float64(bits.Len(uint(len(full.Cells))))) / 2; allocs > max {
		t.Errorf("Full delta into a view five cells short: %.1f allocs per apply over two applies, want <= %.1f", allocs, max)
	}
	if got := ownedBuffers(view); got != len(full.Cells) {
		t.Errorf("view owns %d buffers after growing to %d cells: it allocated more than its shortfall", got, len(full.Cells))
	}
	if allocs = testing.AllocsPerRun(3, func() { applyNext(t, view, full) }); allocs != 0 {
		t.Errorf("Full delta into a view that holds as many cells: %.1f allocs, want 0", allocs)
	}
}
