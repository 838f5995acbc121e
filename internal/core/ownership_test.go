package core

// Who owns which buffer: the view's retention rule (it owns its high-water
// mark of wire cells and never drops a buffer), the slab's no-alias guarantee,
// and the server's session-scratch pool.

import (
	"context"
	"slices"
	"sync"
	"testing"
)

// TestAllocViewSlabCellsCannotReachNeighbours: the cells of one slab are cut
// with cap == len, and so are recycled ones, so nothing a holder of Layers
// appends to one cell's vector can land in another cell.
func TestAllocViewSlabCellsCannotReachNeighbours(t *testing.T) {
	warm, walk := walkDeltas(t, 10)
	view := NewAllocView()
	check := func(when string) {
		t.Helper()
		layers := view.Layers()
		var vecs [][]float32
		for _, l := range layers {
			for k := range l.Entries {
				if cap(l.Entries[k]) != len(l.Entries[k]) {
					t.Fatalf("%s: cell (%d,%d) has vector len %d cap %d; want cap == len",
						when, l.Site, l.Classes[k], len(l.Entries[k]), cap(l.Entries[k]))
				}
				vecs = append(vecs, slices.Clone(l.Entries[k]))
			}
		}
		i := 0
		for _, l := range layers {
			for k := range l.Entries {
				_ = append(l.Entries[k], 42)
			}
		}
		for _, l := range layers {
			for k := range l.Entries {
				if !slices.Equal(l.Entries[k], vecs[i]) {
					t.Fatalf("%s: an append to a neighbour reached cell (%d,%d)", when, l.Site, l.Classes[k])
				}
				i++
			}
		}
	}
	applyNext(t, view, warm[0])
	check("fresh from the slab")
	applyNext(t, view, warm[1])
	for _, d := range walk {
		applyNext(t, view, d)
	}
	check("after evictions and re-adds")
}

// TestAllocViewRetentionOwnsHighWaterMark states the retention rule: a view
// that held N wire cells, shrank to N/4 and grew back owns exactly N
// buffers throughout and allocates nothing on the way.
func TestAllocViewRetentionOwnsHighWaterMark(t *testing.T) {
	warm, _ := walkDeltas(t, 0)
	full, shrink := warm[0], warm[1]
	n := len(full.Cells)
	grow := Delta{Sites: full.Sites, Classes: full.Classes}
	for _, ref := range shrink.Evict {
		i := slices.IndexFunc(full.Cells, func(c DeltaCell) bool { return c.Site == ref.Site && c.Class == ref.Class })
		grow.Cells = append(grow.Cells, full.Cells[(i+1)%n]) // another cell's vector: the content must change hands too
		grow.Cells[len(grow.Cells)-1].Site, grow.Cells[len(grow.Cells)-1].Class = ref.Site, ref.Class
	}
	view := NewAllocView()
	applyNext(t, view, full)
	owns := func(when string, cells int) {
		t.Helper()
		if view.NumCells() != cells || ownedBuffers(view) != n {
			t.Fatalf("%s: %d cells, %d owned buffers; want %d cells and exactly %d buffers", when, view.NumCells(), ownedBuffers(view), cells, n)
		}
	}
	owns("at the high-water mark", n)
	allocs := testing.AllocsPerRun(3, func() {
		applyNext(t, view, shrink)
		owns("shrunk to a quarter", n/4)
		applyNext(t, view, grow)
		owns("grown back", n)
	})
	// The first shrink sizes the parked list (AllocsPerRun does not count its
	// first call); from then on the view has everything it needs.
	if allocs != 0 {
		t.Errorf("shrinking to a quarter and growing back: %.1f allocs, want 0", allocs)
	}
}

// TestAllocViewRetentionKeepsDimensionsApart: a parked buffer serves only a
// cell of its own dimension; cells of differing dimension never share one.
func TestAllocViewRetentionKeepsDimensionsApart(t *testing.T) {
	vec := func(n int) []float32 {
		v := make([]float32, n)
		v[0] = 1
		return v
	}
	view := NewAllocView()
	applyNext(t, view, Delta{Full: true, Sites: []int{1, 2}, Cells: []DeltaCell{
		{Site: 1, Class: 0, Vec: vec(8)}, {Site: 1, Class: 1, Vec: vec(8)}, {Site: 2, Class: 0, Vec: vec(16)},
	}})
	parked := &view.Layers()[0].Entries[1][0]
	// The 8-wide cell leaves as a 16-wide one arrives: its buffer must wait.
	applyNext(t, view, Delta{Sites: []int{1, 2}, Evict: []CellRef{{1, 1}}, Cells: []DeltaCell{{Site: 2, Class: 1, Vec: vec(16)}}})
	l := view.Layers()[1]
	if len(l.Entries[1]) != 16 || cap(l.Entries[1]) != 16 || len(l.Norm2) != 2 || l.Norm2[1] != 1 {
		t.Fatalf("16-wide cell stored in a buffer of len %d cap %d, norms %v", len(l.Entries[1]), cap(l.Entries[1]), l.Norm2)
	}
	if len(view.spare) != 1 || len(view.spare[0]) != 8 || ownedBuffers(view) != 4 {
		t.Fatalf("the evicted 8-wide buffer is not parked: %d parked, %d owned", len(view.spare), ownedBuffers(view))
	}
	// A cell that changes dimension in place parks the buffer it outgrew, too.
	applyNext(t, view, Delta{Sites: []int{1, 2}, Cells: []DeltaCell{{Site: 2, Class: 0, Vec: vec(8)}}})
	if got := &view.Layers()[1].Entries[0][0]; got != parked {
		t.Error("the 8-wide cell did not take the parked 8-wide buffer")
	}
	if len(view.spare) != 1 || len(view.spare[0]) != 16 || ownedBuffers(view) != 4 {
		t.Fatalf("after the swap: %d parked, %d owned; want the outgrown 16-wide buffer parked and 4 owned", len(view.spare), ownedBuffers(view))
	}
}

// TestSessionPoolNeverSharesScratch: sessions opened, used and closed from
// eight goroutines at once draw their scratch from the server's pool; no two
// open sessions ever hold the same one (the race detector sees any use of one
// scratch under two session locks), and every delta is what a session with
// fresh scratch computes.
func TestSessionPoolNeverSharesScratch(t *testing.T) {
	srv := smallServer(t)
	ctx := context.Background()
	ref := testSession(t, srv, 99)
	want, err := ref.Allocate(ctx, neutralStatus(0))
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(want.Cells)
	_ = ref.Close()

	var mu sync.Mutex
	open := map[*sessScratch]int{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				sess, err := srv.Open(ctx, g)
				if err != nil {
					t.Error(err)
					return
				}
				ss := sess.(*ServerSession)
				sc := ss.sessScratch
				mu.Lock()
				if other, dup := open[sc]; dup {
					t.Errorf("goroutines %d and %d hold the same session scratch", g, other)
				}
				open[sc] = g
				mu.Unlock()
				d, err := sess.Allocate(ctx, neutralStatus(0))
				if err != nil || !d.Full || len(d.Cells) != wantCells || len(d.Evict) != 0 {
					t.Errorf("goroutine %d: first delta full=%v cells=%d evict=%d err=%v, want a Full one of %d cells", g, d.Full, len(d.Cells), len(d.Evict), err, wantCells)
				}
				d, err = sess.Allocate(ctx, neutralStatus(d.Version))
				if err != nil || d.Full || len(d.Cells) != 0 || len(d.Evict) != 0 {
					t.Errorf("goroutine %d: second delta full=%v cells=%d evict=%d err=%v, want an empty one", g, d.Full, len(d.Cells), len(d.Evict), err)
				}
				mu.Lock()
				delete(open, sc)
				mu.Unlock()
				if err := sess.Close(); err != nil {
					t.Error(err)
				}
				if ss.sessScratch != nil {
					t.Error("closed session still holds its scratch")
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSessionPoolRecycledScratchHoldsNothing: a session that takes over the
// scratch another left behind after epoch E sees no cell as held — no stamp
// equals an epoch it compares against — and its epoch carries on from E.
func TestSessionPoolRecycledScratchHoldsNothing(t *testing.T) {
	srv := smallServer(t)
	ctx := context.Background()
	// The pool may drop what it is handed (it does so at random under the race
	// detector), so try until a scratch comes back.
	for try := 0; try < 200; try++ {
		a := testSession(t, srv, 0).(*ServerSession)
		d, err := a.Allocate(ctx, neutralStatus(0))
		if err != nil {
			t.Fatal(err)
		}
		if d, err = a.Allocate(ctx, neutralStatus(d.Version)); err != nil || len(d.Cells) != 0 {
			t.Fatalf("second delta of the first holder: %d cells, %v", len(d.Cells), err)
		}
		sc, left := a.sessScratch, a.epoch
		held := len(sc.refs)
		_ = a.Close()
		// Pooled, it names no table vector: the pool must not keep what a merge
		// superseded, or a retired server's table, from the collector.
		for _, c := range sc.sc.cells[:cap(sc.sc.cells)] {
			if c.vec != nil {
				t.Fatal("a pooled scratch still names a table vector in its target cells")
			}
		}
		for _, buf := range sc.out {
			for _, c := range buf.cells[:cap(buf.cells)] {
				if c.Vec != nil {
					t.Fatal("a pooled scratch still names a table vector in its delta buffers")
				}
			}
		}
		if slices.ContainsFunc(sc.sc.vecs[:cap(sc.sc.vecs)], func(v []float32) bool { return v != nil }) {
			t.Fatal("a pooled scratch still names a table vector in its extraction buffer")
		}
		b := testSession(t, srv, 1).(*ServerSession)
		if b.sessScratch != sc {
			_ = b.Close()
			continue
		}
		if b.epoch <= left {
			t.Fatalf("recycled scratch restarts at epoch %d, its last holder reached %d", b.epoch, left)
		}
		for idx, st := range b.stamp {
			if st >= b.epoch {
				t.Fatalf("stamp %d of cell %d is not below the recycled scratch's epoch %d", st, idx, b.epoch)
			}
		}
		// The new client claims the version the old one held: still Full.
		d, err = b.Allocate(ctx, neutralStatus(2))
		if err != nil || !d.Full || len(d.Cells) != held || len(d.Evict) != 0 {
			t.Fatalf("first delta on recycled scratch: full=%v cells=%d evict=%d err=%v, want a Full one of %d cells", d.Full, len(d.Cells), len(d.Evict), err, held)
		}
		return
	}
	t.Skip("the pool never handed a scratch back")
}
