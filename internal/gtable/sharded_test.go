package gtable

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"coca/internal/telemetry"
	"coca/internal/vecmath"
)

func axis(dim, hot int) []float32 {
	v := make([]float32, dim)
	v[hot] = 1
	return v
}

func TestShardedFromTableSharesEntries(t *testing.T) {
	tbl := NewSharded(3, 2, 4)
	if err := tbl.Set(1, 1, axis(4, 2), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Merge(1, 1, axis(4, 1), 0.99, 3, 0); err != nil {
		t.Fatal(err)
	}
	s := ShardedFromTable(tbl, 16)
	if s.Populated() != 1 {
		t.Fatalf("populated = %d", s.Populated())
	}
	// Published vectors are immutable, so the new table shares them.
	if got := s.Get(1, 1); !slices.Equal(got, tbl.Get(1, 1)) || &s.rows[1].vecs[1][0] != &tbl.rows[1].vecs[1][0] {
		t.Fatalf("entry not shared: %v", got)
	}
	if s.CellVersion(1, 1) != 1 || s.Support(1, 1) != 16 {
		t.Fatalf("initial version = %d, support %v; want 1 and 16", s.CellVersion(1, 1), s.Support(1, 1))
	}
	if s.CellVersion(0, 0) != 0 {
		t.Fatal("absent cell must have version 0")
	}
	// Mutating the sharded copy must not touch the source table.
	if err := s.Set(1, 1, axis(4, 0), 1); err != nil {
		t.Fatal(err)
	}
	if tbl.Get(1, 1)[0] != 0 || tbl.CellVersion(1, 1) != 2 || tbl.Support(1, 1) != 4 {
		t.Fatal("sharded table aliased the source")
	}
}

func TestShardedMergeMovesEntryAndBumpsVersion(t *testing.T) {
	s := NewSharded(2, 2, 4)
	if err := s.Set(0, 0, axis(4, 0), 10); err != nil {
		t.Fatal(err)
	}
	v0 := s.CellVersion(0, 0)
	update := axis(4, 1)
	if err := s.Merge(0, 0, update, 0.99, 5, 0); err != nil {
		t.Fatal(err)
	}
	if s.CellVersion(0, 0) != v0+1 {
		t.Fatalf("version %d after merge, want %d", s.CellVersion(0, 0), v0+1)
	}
	got := s.Get(0, 0)
	if vecmath.Cosine(got, update) <= 0 {
		t.Fatalf("entry did not move toward update: %v", got)
	}
	if vecmath.Cosine(got, axis(4, 0)) <= 0 {
		t.Fatal("entry overshot the old center entirely")
	}
}

func TestShardedMergeIntoAbsentCellStoresUpdate(t *testing.T) {
	s := NewSharded(1, 1, 3)
	if err := s.Merge(0, 0, axis(3, 1), 0.99, 2, 100); err != nil {
		t.Fatal(err)
	}
	if got := s.Get(0, 0); got == nil || got[1] != 1 {
		t.Fatalf("absent-cell merge did not store the update: %v", got)
	}
	if s.CellVersion(0, 0) != 1 {
		t.Fatalf("version = %d", s.CellVersion(0, 0))
	}
}

func TestShardedMergeValidation(t *testing.T) {
	s := NewSharded(2, 2, 3)
	if err := s.Merge(5, 0, axis(3, 0), 0.9, 1, 0); err == nil {
		t.Error("out-of-range class accepted")
	}
	if err := s.Merge(0, 0, axis(2, 0), 0.9, 1, 0); err == nil {
		t.Error("wrong dim accepted")
	}
	if err := s.Merge(0, 0, axis(3, 0), 1.5, 1, 0); err == nil {
		t.Error("gamma > 1 accepted")
	}
	if err := s.Merge(0, 0, axis(3, 0), 0.9, 0, 0); err == nil {
		t.Error("zero local frequency accepted")
	}
	if err := s.Merge(0, 0, make([]float32, 3), 0.9, 1, 0); err == nil {
		t.Error("zero vector into absent cell accepted")
	}
}

func TestShardedSupportCap(t *testing.T) {
	s := NewSharded(1, 1, 4)
	if err := s.Set(0, 0, axis(4, 0), 10); err != nil {
		t.Fatal(err)
	}
	update := axis(4, 1)
	// Many capped merges keep a constant adaptation rate, so the entry
	// converges near the update instead of freezing.
	for i := 0; i < 80; i++ {
		if err := s.Merge(0, 0, update, 0.99, 5, 20); err != nil {
			t.Fatal(err)
		}
	}
	if cos := vecmath.Cosine(s.Get(0, 0), update); cos < 0.95 {
		t.Fatalf("capped support should track updates: cos %v", cos)
	}
}

func TestShardedExtractLayerEntries(t *testing.T) {
	s := NewSharded(4, 2, 3)
	for _, c := range []int{0, 2, 3} {
		if err := s.Set(c, 1, axis(3, c%3), 1); err != nil {
			t.Fatal(err)
		}
	}
	cls, entries, vers := s.ExtractLayerEntriesInto(1, []int{0, 1, 2}, nil, nil, nil)
	if len(cls) != 2 || cls[0] != 0 || cls[1] != 2 {
		t.Fatalf("cls = %v", cls)
	}
	if len(entries) != 2 || len(vers) != 2 {
		t.Fatalf("entries/vers length %d/%d", len(entries), len(vers))
	}
	if vers[0] != 1 || vers[1] != 1 {
		t.Fatalf("vers = %v", vers)
	}
	if err := s.Merge(2, 1, axis(3, 1), 0.99, 1, 0); err != nil {
		t.Fatal(err)
	}
	_, _, vers = s.ExtractLayerEntriesInto(1, []int{0, 2}, nil, nil, nil)
	if vers[0] != 1 || vers[1] != 2 {
		t.Fatalf("post-merge vers = %v", vers)
	}
}

func TestShardedConcurrentMergeAndExtract(t *testing.T) {
	const classes, layers, dim = 16, 6, 8
	s := NewSharded(classes, layers, dim)
	for c := 0; c < classes; c++ {
		for j := 0; j < layers; j++ {
			if err := s.Set(c, j, axis(dim, (c+j)%dim), 8); err != nil {
				t.Fatal(err)
			}
		}
	}
	all := make([]int, classes)
	for i := range all {
		all[i] = i
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := (w*31 + i) % classes
				j := (w + i) % layers
				if err := s.Merge(c, j, axis(dim, (w+i)%dim), 0.99, 2, 64); err != nil {
					errs <- err
					return
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				cls, entries, vers := s.ExtractLayerEntriesInto((w+i)%layers, all, nil, nil, nil)
				if len(cls) != classes || len(entries) != classes || len(vers) != classes {
					errs <- fmt.Errorf("partial extract: %d classes", len(cls))
					return
				}
			}
			_ = s.Snapshot()
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMergePeerRecencyWeighting(t *testing.T) {
	s := NewSharded(2, 2, 4)
	if err := s.Set(0, 0, axis(4, 0), 64); err != nil {
		t.Fatal(err)
	}
	// No local evidence since the peer's reference point (sinceEv equals
	// the ledger) and zero inertia: the peer entry replaces the local one.
	ver, ev, err := s.MergePeer(0, 0, axis(4, 1), 32, 64, 0, 160)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 {
		t.Fatalf("version = %d, want 2", ver)
	}
	if ev != 96 {
		t.Fatalf("evidence total = %v, want 96", ev)
	}
	got := s.Get(0, 0)
	if vecmath.Cosine(got, axis(4, 1)) < 0.999 {
		t.Fatalf("idle cell did not adopt the peer entry: %v", got)
	}

	// With local evidence since the sync point equal to the peer's, the
	// merge is an even blend, not a replacement.
	if err := s.Set(1, 0, axis(4, 0), 64); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.MergePeer(1, 0, axis(4, 1), 32, 32, 0, 160); err != nil {
		t.Fatal(err)
	}
	got = s.Get(1, 0)
	if c0, c1 := vecmath.Cosine(got, axis(4, 0)), vecmath.Cosine(got, axis(4, 1)); c0 < 0.6 || c1 < 0.6 {
		t.Fatalf("active cell not blended: cos0=%v cos1=%v", c0, c1)
	}
}

func TestMergePeerAbsentAndValidation(t *testing.T) {
	s := NewSharded(2, 2, 4)
	ver, ev, err := s.MergePeer(0, 1, axis(4, 3), 8, 0, 16, 160)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 || ev != 8 {
		t.Fatalf("absent-cell merge: ver=%d ev=%v", ver, ev)
	}
	if got := s.Get(0, 1); got == nil || got[3] != 1 {
		t.Fatalf("absent cell not adopted: %v", got)
	}
	if _, _, err := s.MergePeer(0, 0, axis(4, 0), 0, 0, 16, 160); err == nil {
		t.Fatal("zero evidence accepted")
	}
	if _, _, err := s.MergePeer(0, 0, axis(3, 0), 1, 0, 16, 160); err == nil {
		t.Fatal("wrong dimension accepted")
	}
	if _, _, err := s.MergePeer(9, 0, axis(4, 0), 1, 0, 16, 160); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
	if _, _, err := s.MergePeer(0, 0, axis(4, 0), 1, 0, -1, 160); err == nil {
		t.Fatal("negative inertia accepted")
	}
}

func TestEvidenceLedgerMonotone(t *testing.T) {
	s := NewSharded(1, 1, 4)
	if err := s.Merge(0, 0, axis(4, 0), 0.99, 10, 20); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(0, 0, axis(4, 1), 0.99, 30, 20); err != nil {
		t.Fatal(err)
	}
	// Support capped at 20, but the ledger keeps the full 40.
	if got := s.Support(0, 0); got != 20 {
		t.Fatalf("support = %v, want capped 20", got)
	}
	cells := s.AppendCells(nil)
	if len(cells) != 1 || cells[0].Class != 0 || cells[0].Layer != 0 {
		t.Fatalf("unexpected cells %+v", cells)
	}
	if c := cells[0]; c.Ver != 2 || c.Support != 20 {
		t.Fatalf("cell state ver=%d support=%v", c.Ver, c.Support)
	}
	if ledger := cells[0].EvTotal; ledger != 40 {
		t.Fatalf("evidence ledger = %v, want 40", ledger)
	}
	if _, _, err := s.MergePeer(0, 0, axis(4, 1), 5, 38, 16, 20); err != nil {
		t.Fatal(err)
	}
	if ledger := s.AppendCells(cells[:0])[0].EvTotal; ledger != 45 {
		t.Fatalf("ledger after peer merge = %v, want 45", ledger)
	}
}

func TestAppendCellsOrderAndSkip(t *testing.T) {
	s := NewSharded(3, 2, 4)
	if err := s.Set(2, 0, axis(4, 0), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Set(0, 1, axis(4, 1), 1); err != nil {
		t.Fatal(err)
	}
	var visited [][2]int
	for _, c := range s.AppendCells(nil) {
		if c.Vec == nil || c.Ver == 0 {
			t.Fatalf("visited cell (%d,%d) without state", c.Class, c.Layer)
		}
		visited = append(visited, [2]int{c.Class, c.Layer})
	}
	want := [][2]int{{0, 1}, {2, 0}}
	if fmt.Sprint(visited) != fmt.Sprint(want) {
		t.Fatalf("visit order %v, want %v", visited, want)
	}
}

// TestAppendCellsMatchesSequentialSweep checks the sweep against one
// sequential appendRows pass over every row, both below and above the
// parallel fan-out threshold.
func TestAppendCellsMatchesSequentialSweep(t *testing.T) {
	for _, classes := range []int{5, sweepParallelMinRows * 3} {
		s := NewSharded(classes, 4, 8)
		r := uint64(1)
		for c := 0; c < classes; c++ {
			for j := 0; j < 4; j++ {
				r = r*6364136223846793005 + 1442695040888963407
				if r%3 == 0 {
					continue // leave a third of the cells absent
				}
				if err := s.Set(c, j, axis(8, int(r%8)), float64(1+r%7)); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := s.appendRows(nil, 0, classes)
		got := s.AppendCells(nil)
		if len(got) != len(want) {
			t.Fatalf("classes=%d: %d cells, want %d", classes, len(got), len(want))
		}
		for i := range got {
			if got[i].Class != want[i].Class || got[i].Layer != want[i].Layer ||
				got[i].Ver != want[i].Ver || got[i].Support != want[i].Support ||
				got[i].EvTotal != want[i].EvTotal || &got[i].Vec[0] != &want[i].Vec[0] {
				t.Fatalf("classes=%d: cell %d = %+v, want %+v", classes, i, got[i], want[i])
			}
		}
		// The dense ledger read agrees with the sweep, 0 where a cell is empty.
		ev := make([]float64, classes*4)
		s.EvTotalsInto(ev)
		for _, c := range want {
			ev[c.Class*4+c.Layer] -= c.EvTotal
		}
		for k, v := range ev {
			if v != 0 {
				t.Fatalf("classes=%d: EvTotalsInto cell %d off the sweep by %v", classes, k, v)
			}
		}
		// Appending onto existing scratch preserves the prefix.
		pre := []Cell{{Class: -1}}
		both := s.AppendCells(pre)
		if both[0].Class != -1 || len(both) != 1+len(want) {
			t.Fatal("AppendCells must append to the given scratch")
		}
	}
}

// TestExtractLayerEntriesIntoBorrowsLiveEntries verifies the Into
// variant returns the live (immutable) entries without copying, and
// that a later merge replaces — not mutates — what was borrowed.
func TestExtractLayerEntriesIntoBorrowsLiveEntries(t *testing.T) {
	s := NewSharded(3, 2, 4)
	if err := s.Set(1, 0, axis(4, 1), 8); err != nil {
		t.Fatal(err)
	}
	cls, entries, vers := s.ExtractLayerEntriesInto(0, []int{0, 1, 2}, nil, nil, nil)
	if len(cls) != 1 || cls[0] != 1 || vers[0] != 1 {
		t.Fatalf("extract = %v %v", cls, vers)
	}
	borrowed := entries[0]
	if &borrowed[0] != &s.rows[1].vecs[0][0] {
		t.Fatal("Into variant must borrow the live entry, not copy it")
	}
	snap := vecmath.Clone(borrowed)
	if err := s.Merge(1, 0, axis(4, 3), 0.99, 4, 0); err != nil {
		t.Fatal(err)
	}
	for i := range snap {
		if borrowed[i] != snap[i] {
			t.Fatal("merge mutated a published entry; merges must replace slices")
		}
	}
	// Scratch reuse: a second extraction into the same buffers must not
	// grow them.
	cls, entries, vers = s.ExtractLayerEntriesInto(0, []int{0, 1, 2}, cls[:0], entries[:0], vers[:0])
	if len(cls) != 1 || vers[0] != 2 {
		t.Fatalf("re-extract = %v %v", cls, vers)
	}
}

// TestSnapshotAndSweepUnderMergeContention hammers the table with
// concurrent Merge writers while snapshots, extractions and bulk sweeps
// run — the lock-held-while-allocating fix's regression test (run with
// -race). Every observed entry must be a unit vector (no torn reads), and
// the sweeps must terminate while writers are still running.
func TestSnapshotAndSweepUnderMergeContention(t *testing.T) {
	const classes, layers, dim = 64, 6, 16
	s := NewSharded(classes, layers, dim)
	for c := 0; c < classes; c++ {
		for j := 0; j < layers; j++ {
			if err := s.Set(c, j, axis(dim, (c+j)%dim), 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			u := make([]float32, dim)
			r := uint64(w + 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				r = r*6364136223846793005 + 1442695040888963407
				for i := range u {
					u[i] = float32(int(r>>16)%17) - 8
				}
				u[int(r%dim)] = 9
				if err := s.Merge(int(r%classes), int((r>>8)%layers), u, 0.99, 1, 160); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	classList := make([]int, classes)
	for i := range classList {
		classList[i] = i
	}
	var cells []Cell
	for i := 0; i < 50; i++ {
		snap := s.Snapshot()
		for c := 0; c < classes; c++ {
			for j := 0; j < layers; j++ {
				v := snap.Get(c, j)
				if v == nil {
					t.Fatalf("snapshot lost cell (%d,%d)", c, j)
				}
				if n := vecmath.Dot(v, v); n < 0.99 || n > 1.01 {
					t.Fatalf("torn read: |v|² = %v at (%d,%d)", n, c, j)
				}
			}
		}
		cells = s.AppendCells(cells[:0])
		if len(cells) != classes*layers {
			t.Fatalf("sweep saw %d cells, want %d", len(cells), classes*layers)
		}
		_, entries, _ := s.ExtractLayerEntriesInto(i%layers, classList, nil, nil, nil)
		for _, e := range entries {
			if n := vecmath.Dot(e, e); n < 0.99 || n > 1.01 {
				t.Fatalf("torn extract: |v|² = %v", n)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestShardedSteadyStateAllocs pins the allocation profile of the sweep
// and extraction hot paths once scratch has reached its high-water size.
func TestShardedSteadyStateAllocs(t *testing.T) {
	const classes, layers, dim = 48, 4, 8 // sequential sweep regime
	s := NewSharded(classes, layers, dim)
	for c := 0; c < classes; c++ {
		for j := 0; j < layers; j++ {
			if err := s.Set(c, j, axis(dim, c%dim), 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	classList := make([]int, classes)
	for i := range classList {
		classList[i] = i
	}
	cells := s.AppendCells(nil)
	if allocs := testing.AllocsPerRun(50, func() {
		cells = s.AppendCells(cells[:0])
	}); allocs != 0 {
		t.Errorf("AppendCells steady state: %.1f allocs/op, want 0", allocs)
	}
	cls, entries, vers := s.ExtractLayerEntriesInto(0, classList, nil, nil, nil)
	if allocs := testing.AllocsPerRun(50, func() {
		cls, entries, vers = s.ExtractLayerEntriesInto(1, classList, cls[:0], entries[:0], vers[:0])
	}); allocs != 0 {
		t.Errorf("ExtractLayerEntriesInto steady state: %.1f allocs/op, want 0", allocs)
	}
	var freqDst []float64
	f := NewFrequencies(classes)
	freqDst = f.SnapshotInto(freqDst)
	if allocs := testing.AllocsPerRun(50, func() {
		freqDst = f.SnapshotInto(freqDst)
	}); allocs != 0 {
		t.Errorf("SnapshotInto steady state: %.1f allocs/op, want 0", allocs)
	}
}

// TestExtractLayerStagedIntoWidensRows: the probing form of the extraction
// borrows the published vectors and returns, beside each, bitwise what
// vecmath.WidenRow makes of it; the table itself keeps no mirror, so a merge
// is seen by the next extraction.
func TestExtractLayerStagedIntoWidensRows(t *testing.T) {
	const dim = 8
	s := NewSharded(2, 1, dim)
	if err := s.Set(1, 0, []float32{3, 1, 4, 1, 5, 9, 2, 6}, 8); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		cls, vecs, vers, wides, norm2s := s.ExtractLayerStagedInto(0, []int{0, 1}, nil, nil, nil, nil, nil)
		if len(cls) != 1 || cls[0] != 1 || vers[0] != uint64(round+1) || len(wides) != 1 || len(norm2s) != 1 {
			t.Fatalf("round %d: extracted classes %v versions %v with %d mirrors", round, cls, vers, len(wides))
		}
		if &vecs[0][0] != &s.rows[1].vecs[0][0] {
			t.Fatalf("round %d: the extraction copied the published vector", round)
		}
		wide, norm2 := vecmath.WidenRow(vecs[0])
		if math.Float64bits(norm2s[0]) != math.Float64bits(norm2) {
			t.Fatalf("round %d: norm %v, WidenRow gives %v", round, norm2s[0], norm2)
		}
		for k := range wide {
			if math.Float64bits(wides[0][k]) != math.Float64bits(wide[k]) {
				t.Fatalf("round %d: mirror[%d] = %v, WidenRow gives %v", round, k, wides[0][k], wide[k])
			}
		}
		if err := s.Merge(1, 0, axis(dim, 2), 0.99, 4, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedRejectsNonFiniteVectors is the regression test for the table
// poisoning the 2026-10-02 re-anchor reproduced: one NaN (or Inf) component
// in an uploaded or peer vector used to be published with a nil error and
// stay NaN through every later merge. Merge, MergePeer and AdoptPeer now
// return an error — from the norm they compute anyway — and leave vector,
// support, ledger and version untouched; every refusal is counted. Perfect
// cancellation keeps its meaning: old entry kept, evidence counted.
func TestShardedRejectsNonFiniteVectors(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(-1))
	for _, bad := range [][]float32{{nan, 0, 0, 0}, {0, 0, inf, 0}, {nan, inf, 1, 1}} {
		s := NewSharded(2, 2, 4)
		if err := s.Set(0, 0, axis(4, 0), 10); err != nil {
			t.Fatal(err)
		}
		type state struct {
			vec              []float32
			ver              uint64
			support, evTotal float64
		}
		read := func(class, layer int) (st state) {
			for _, c := range s.AppendCells(nil) {
				if c.Class == class && c.Layer == layer {
					st = state{append([]float32(nil), c.Vec...), c.Ver, c.Support, c.EvTotal}
				}
			}
			return st
		}
		before := read(0, 0)
		rejected := telemetry.CoreRejectedVecs.Load()
		refused := 0
		refuse := func(what string, err error) {
			t.Helper()
			refused++
			if err == nil {
				t.Errorf("%s accepted %v", what, bad)
			}
		}
		// The ROADMAP's reproduction: an upload merge into a populated cell.
		refuse("Merge", s.Merge(0, 0, bad, 0.99, 3, 160))
		_, _, err := s.MergePeer(0, 0, bad, 5, 0, 16, 160)
		refuse("MergePeer", err)
		_, err = s.AdoptPeer(0, 0, bad, 50, 500, 160)
		refuse("AdoptPeer", err)
		after := read(0, 0)
		if !slices.Equal(after.vec, before.vec) || after.ver != before.ver || after.support != before.support || after.evTotal != before.evTotal {
			t.Errorf("a refused %v changed the cell: %+v -> %+v", bad, before, after)
		}
		// Absent cells stay absent.
		refuse("Merge into an absent cell", s.Merge(1, 1, bad, 0.99, 3, 160))
		_, _, err = s.MergePeer(1, 1, bad, 5, 0, 16, 160)
		refuse("MergePeer into an absent cell", err)
		_, err = s.AdoptPeer(1, 1, bad, 50, 500, 160)
		refuse("AdoptPeer into an absent cell", err)
		refuse("Set", s.Set(1, 1, bad, 4))
		if s.Get(1, 1) != nil || s.CellVersion(1, 1) != 0 || s.Populated() != 1 {
			t.Errorf("a refused %v populated an absent cell", bad)
		}
		if got := telemetry.CoreRejectedVecs.Load() - rejected; got != uint64(refused) {
			t.Errorf("coca_core_rejected_vectors_total grew by %d over %d refusals", got, refused)
		}
		// A healthy merge still lands, and no NaN survives anywhere.
		if err := s.Merge(0, 0, axis(4, 1), 0.99, 3, 160); err != nil {
			t.Fatal(err)
		}
		for _, x := range s.Get(0, 0) {
			if x != x {
				t.Fatalf("cell is %v after a healthy merge", s.Get(0, 0))
			}
		}
	}

	// Perfect cancellation is not a refusal.
	s := NewSharded(1, 1, 2)
	if err := s.Set(0, 0, []float32{1, 0}, 1); err != nil {
		t.Fatal(err)
	}
	rejected := telemetry.CoreRejectedVecs.Load()
	if err := s.Merge(0, 0, []float32{-1, 0}, 1, 1, 0); err != nil {
		t.Fatalf("perfect cancellation: %v", err)
	}
	if got := s.Get(0, 0); got[0] != 1 || s.CellVersion(0, 0) != 2 || s.Support(0, 0) != 2 {
		t.Errorf("perfect cancellation: entry %v, version %d, support %v; want the old entry, version 2, support 2", got, s.CellVersion(0, 0), s.Support(0, 0))
	}
	if telemetry.CoreRejectedVecs.Load() != rejected {
		t.Error("perfect cancellation was counted as a rejected vector")
	}
}
