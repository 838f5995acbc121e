package core

import (
	"context"
	"testing"

	"coca/internal/model"
	"coca/internal/vecmath"
	"coca/internal/xrand"
)

func neutralStatus(lastVersion uint64) StatusReport {
	return StatusReport{Tau: make([]int, 10), Budget: 40, RoundFrames: 300, LastVersion: lastVersion}
}

func TestSessionFirstAllocationIsFull(t *testing.T) {
	srv := smallServer(t)
	sess := testSession(t, srv, 0)
	d, err := sess.Allocate(context.Background(), neutralStatus(0))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full || d.Version != 1 || d.BaseVersion != 0 {
		t.Fatalf("first delta: %+v", d)
	}
	if len(d.Cells) == 0 || len(d.Sites) == 0 {
		t.Fatal("first delta carries no cells")
	}
	if len(d.Evict) != 0 {
		t.Fatal("full delta must not evict")
	}
}

func TestSessionSteadyStateDeltaOnlyChangedCells(t *testing.T) {
	srv := smallServer(t)
	ctx := context.Background()
	sess := testSession(t, srv, 0)
	view := NewAllocView()

	d1, err := sess.Allocate(ctx, neutralStatus(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := view.Apply(d1); err != nil {
		t.Fatal(err)
	}

	// No global change at all: the next delta must be empty.
	d2, err := sess.Allocate(ctx, neutralStatus(view.Version()))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Full {
		t.Fatal("steady-state delta flagged full")
	}
	if len(d2.Cells) != 0 || len(d2.Evict) != 0 {
		t.Fatalf("unchanged table produced delta with %d cells, %d evicts", len(d2.Cells), len(d2.Evict))
	}
	if err := view.Apply(d2); err != nil {
		t.Fatal(err)
	}

	// Touch exactly one held cell: only that cell may travel.
	target := d1.Cells[0]
	vec := xrand.NormalVector(xrand.New(7), model.Dim)
	vecmath.Normalize(vec)
	if err := sess.Upload(ctx, UpdateReport{
		Cells: []UpdateCell{{Class: target.Class, Layer: target.Site, Count: 3, Vec: vec}},
		Freq:  make([]float64, 10),
	}); err != nil {
		t.Fatal(err)
	}
	d3, err := sess.Allocate(ctx, neutralStatus(view.Version()))
	if err != nil {
		t.Fatal(err)
	}
	if d3.Full {
		t.Fatal("delta flagged full after single-cell merge")
	}
	if len(d3.Cells) != 1 {
		t.Fatalf("single-cell change produced %d delta cells", len(d3.Cells))
	}
	if d3.Cells[0].Site != target.Site || d3.Cells[0].Class != target.Class {
		t.Fatalf("delta cell (%d,%d), want (%d,%d)",
			d3.Cells[0].Site, d3.Cells[0].Class, target.Site, target.Class)
	}
	if err := view.Apply(d3); err != nil {
		t.Fatal(err)
	}
	if view.Version() != 3 {
		t.Fatalf("view version %d after 3 rounds", view.Version())
	}
}

func TestSessionStaleBaseGetsFullDelta(t *testing.T) {
	srv := smallServer(t)
	ctx := context.Background()
	sess := testSession(t, srv, 0)
	if _, err := sess.Allocate(ctx, neutralStatus(0)); err != nil {
		t.Fatal(err)
	}
	// The client claims a version the session never issued (e.g. it
	// restarted and lost its view): the server must resend everything.
	d, err := sess.Allocate(ctx, neutralStatus(99))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full {
		t.Fatal("stale base version did not force a full delta")
	}
	if len(d.Cells) == 0 {
		t.Fatal("full resend carries no cells")
	}
}

func TestSessionEvictsOnShrunkBudget(t *testing.T) {
	srv := smallServer(t)
	ctx := context.Background()
	sess := testSession(t, srv, 0)
	view := NewAllocView()
	d1, err := sess.Allocate(ctx, neutralStatus(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := view.Apply(d1); err != nil {
		t.Fatal(err)
	}
	before := view.NumCells()

	small := neutralStatus(view.Version())
	small.Budget = 10
	d2, err := sess.Allocate(ctx, small)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Full {
		t.Fatal("budget shrink flagged full")
	}
	if len(d2.Evict) == 0 {
		t.Fatal("budget shrink evicted nothing")
	}
	if err := view.Apply(d2); err != nil {
		t.Fatal(err)
	}
	if view.NumCells() >= before {
		t.Fatalf("view did not shrink: %d -> %d cells", before, view.NumCells())
	}
	if view.NumCells() > 10 {
		t.Fatalf("view holds %d cells over budget 10", view.NumCells())
	}
}

func TestSessionClosedRejectsCalls(t *testing.T) {
	srv := smallServer(t)
	sess := testSession(t, srv, 0)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
	if _, err := sess.Allocate(context.Background(), neutralStatus(0)); err == nil {
		t.Fatal("allocate on closed session accepted")
	}
	if err := sess.Upload(context.Background(), UpdateReport{Freq: make([]float64, 10)}); err == nil {
		t.Fatal("upload on closed session accepted")
	}
	if srv.Sessions() != 0 {
		t.Fatalf("closed session still registered (%d open)", srv.Sessions())
	}
}

func TestSessionHonorsContextCancellation(t *testing.T) {
	srv := smallServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Open(ctx, 0); err == nil {
		t.Fatal("open with canceled context accepted")
	}
	sess := testSession(t, srv, 0)
	if _, err := sess.Allocate(ctx, neutralStatus(0)); err == nil {
		t.Fatal("allocate with canceled context accepted")
	}
	if err := sess.Upload(ctx, UpdateReport{Freq: make([]float64, 10)}); err == nil {
		t.Fatal("upload with canceled context accepted")
	}
}

func TestAllocViewRejectsBaseMismatch(t *testing.T) {
	v := NewAllocView()
	err := v.Apply(Delta{Version: 5, BaseVersion: 4, Sites: []int{1},
		Cells: []DeltaCell{{Site: 1, Class: 0, Vec: []float32{1}}}})
	if err == nil {
		t.Fatal("delta against missing base accepted")
	}
	if err := v.Apply(Delta{Version: 1, Full: true, Sites: []int{1},
		Cells: []DeltaCell{{Site: 1, Class: 0, Vec: []float32{1}}}}); err != nil {
		t.Fatal(err)
	}
	if v.Version() != 1 || v.NumCells() != 1 {
		t.Fatalf("view after full delta: v%d, %d cells", v.Version(), v.NumCells())
	}
	layers := v.Layers()
	if len(layers) != 1 || layers[0].Site != 1 || layers[0].Len() != 1 {
		t.Fatalf("materialized layers %+v", layers)
	}
}

// TestAllocViewTracksDeclaredShape pins Apply's shape rule now that it reads
// Delta.Sites directly instead of building a set per call: the view holds
// exactly the cells at the delta's activated sites, a deactivated site's
// cells are swept, and sites out of order are rejected before any change.
func TestAllocViewTracksDeclaredShape(t *testing.T) {
	cell := func(site, class int) DeltaCell {
		return DeltaCell{Site: site, Class: class, Vec: []float32{float32(site), float32(class)}}
	}
	v := NewAllocView()
	if err := v.Apply(Delta{Version: 1, Full: true, Sites: []int{1, 4, 7},
		Cells: []DeltaCell{cell(1, 0), cell(4, 0), cell(4, 2), cell(7, 1), cell(9, 3)}}); err != nil {
		t.Fatal(err)
	}
	if v.NumCells() != 4 {
		t.Fatalf("full delta with a cell outside its sites: %d cells held, want 4", v.NumCells())
	}
	// Same sites: upsert and evict only, nothing swept.
	if err := v.Apply(Delta{Version: 2, BaseVersion: 1, Sites: []int{1, 4, 7},
		Cells: []DeltaCell{cell(1, 5)}, Evict: []CellRef{{Site: 7, Class: 1}}}); err != nil {
		t.Fatal(err)
	}
	if v.NumCells() != 4 {
		t.Fatalf("after upsert + evict: %d cells, want 4", v.NumCells())
	}
	// Site 4 deactivated without explicit evictions, site 8 activated.
	if err := v.Apply(Delta{Version: 3, BaseVersion: 2, Sites: []int{1, 8},
		Cells: []DeltaCell{cell(8, 0), cell(4, 9)}}); err != nil {
		t.Fatal(err)
	}
	var got []CellRef
	for _, l := range v.Layers() {
		for _, c := range l.Classes {
			got = append(got, CellRef{Site: l.Site, Class: c})
		}
	}
	want := []CellRef{{1, 0}, {1, 5}, {8, 0}}
	if len(got) != len(want) {
		t.Fatalf("cells after shape change: %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cells after shape change: %v, want %v", got, want)
		}
	}
	if err := v.Apply(Delta{Version: 4, BaseVersion: 3, Sites: []int{8, 1}}); err == nil {
		t.Fatal("delta with descending sites accepted")
	}
	if v.Version() != 3 || v.NumCells() != 3 {
		t.Fatalf("rejected delta changed the view: v%d, %d cells", v.Version(), v.NumCells())
	}
}

func TestConcurrentInProcessSessions(t *testing.T) {
	srv := smallServer(t)
	ctx := context.Background()
	const clients = 8
	done := make(chan error, clients)
	for id := 0; id < clients; id++ {
		go func(id int) {
			sess, err := srv.Open(ctx, id)
			if err != nil {
				done <- err
				return
			}
			defer sess.Close()
			view := NewAllocView()
			vec := xrand.NormalVector(xrand.New(uint64(id)+1), model.Dim)
			vecmath.Normalize(vec)
			for round := 0; round < 4; round++ {
				d, err := sess.Allocate(ctx, neutralStatus(view.Version()))
				if err != nil {
					done <- err
					return
				}
				if err := view.Apply(d); err != nil {
					done <- err
					return
				}
				freq := make([]float64, 10)
				freq[id%10] = 5
				if err := sess.Upload(ctx, UpdateReport{
					Cells: []UpdateCell{{Class: id % 10, Layer: id % 13, Count: 2, Vec: vec}},
					Freq:  freq,
				}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(id)
	}
	for i := 0; i < clients; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	allocs, merges := srv.Stats()
	if allocs != clients*4 || merges != clients*4 {
		t.Fatalf("allocs=%d merges=%d, want %d each", allocs, merges, clients*4)
	}
}
