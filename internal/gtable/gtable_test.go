package gtable

import (
	"math"
	"testing"
	"testing/quick"

	"coca/internal/vecmath"
	"coca/internal/xrand"
)

func unit(dim int, parts ...uint64) []float32 {
	v := xrand.NormalVector(xrand.New(parts...), dim)
	vecmath.Normalize(v)
	return v
}

func TestNewShape(t *testing.T) {
	tb := NewSharded(10, 5, 8)
	if tb.Classes() != 10 || tb.Layers() != 5 || tb.Dim() != 8 {
		t.Fatalf("shape = %d×%d×%d", tb.Classes(), tb.Layers(), tb.Dim())
	}
	if tb.Populated() != 0 {
		t.Fatal("new table must be empty")
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSharded(0, 5, 8)
}

func TestSetGetNormalizes(t *testing.T) {
	tb := NewSharded(3, 3, 4)
	if err := tb.Set(1, 2, []float32{3, 4, 0, 0}, 1); err != nil {
		t.Fatal(err)
	}
	got := tb.Get(1, 2)
	if math.Abs(float64(vecmath.Norm(got))-1) > 1e-6 {
		t.Fatalf("stored entry not unit: %v", got)
	}
	if tb.Get(0, 0) != nil || tb.Populated() != 1 {
		t.Fatal("Set populated more than its cell")
	}
}

func TestSetRejectsBadInput(t *testing.T) {
	tb := NewSharded(3, 3, 4)
	if err := tb.Set(0, 0, []float32{1, 2}, 1); err == nil {
		t.Fatal("wrong dim accepted")
	}
	if err := tb.Set(0, 0, []float32{0, 0, 0, 0}, 1); err == nil {
		t.Fatal("zero vector accepted")
	}
	if err := tb.Set(3, 0, []float32{1, 0, 0, 0}, 1); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
}

func TestIndexPanics(t *testing.T) {
	tb := NewSharded(3, 3, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.Get(3, 0)
}

// TestSetCopiesInput: Set publishes a normalized copy, so neither the
// caller's later writes nor a reader's writes to what Get returned reach the
// table.
func TestSetCopiesInput(t *testing.T) {
	tb := NewSharded(2, 2, 2)
	v := []float32{2, 0}
	if err := tb.Set(0, 0, v, 1); err != nil {
		t.Fatal(err)
	}
	v[0] = 99
	got := tb.Get(0, 0)
	if got[0] != 1 {
		t.Fatalf("Set aliased or did not normalize the caller's slice: %v", got)
	}
	got[0] = 42
	if tb.Get(0, 0)[0] != 1 {
		t.Fatal("Get handed out table memory")
	}
}

func TestMergeEquation4(t *testing.T) {
	// Hand-check Eq. 4 with orthogonal vectors where the arithmetic is
	// easy: E=(1,0), U=(0,1), γ=0.99, Φ=3 (the cell's support), φ=1.
	tb := NewSharded(1, 1, 2)
	if err := tb.Set(0, 0, []float32{1, 0}, 3); err != nil {
		t.Fatal(err)
	}
	if err := tb.Merge(0, 0, []float32{0, 1}, 0.99, 1, 0); err != nil {
		t.Fatal(err)
	}
	got := tb.Get(0, 0)
	wOld := 0.99 * 3.0 / 4.0
	wNew := 1.0 / 4.0
	n := math.Hypot(wOld, wNew)
	if math.Abs(float64(got[0])-wOld/n) > 1e-6 || math.Abs(float64(got[1])-wNew/n) > 1e-6 {
		t.Fatalf("merged = %v, want (%v,%v)", got, wOld/n, wNew/n)
	}
	if tb.Support(0, 0) != 4 {
		t.Fatalf("support = %v, want Φ+φ = 4 (Eq. 5)", tb.Support(0, 0))
	}
}

func TestMergeIntoEmptyStoresUpdate(t *testing.T) {
	tb := NewSharded(1, 1, 2)
	if err := tb.Merge(0, 0, []float32{0, 2}, 0.99, 1, 0); err != nil {
		t.Fatal(err)
	}
	got := tb.Get(0, 0)
	if math.Abs(float64(got[1])-1) > 1e-6 {
		t.Fatalf("merge into empty = %v", got)
	}
}

// TestMergeValidation: a refused merge leaves the cell's vector, support and
// version as they were.
func TestMergeValidation(t *testing.T) {
	tb := NewSharded(1, 1, 2)
	if err := tb.Set(0, 0, []float32{1, 0}, 5); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		what        string
		vec         []float32
		gamma, freq float64
	}{
		{"wrong dim", []float32{1}, 0.99, 1},
		{"gamma above 1", []float32{0, 1}, 1.5, 1},
		{"negative gamma", []float32{0, 1}, -0.1, 1},
		{"zero local freq", []float32{0, 1}, 0.9, 0},
		{"negative local freq", []float32{0, 1}, 0.9, -1},
	} {
		if err := tb.Merge(0, 0, bad.vec, bad.gamma, bad.freq, 0); err == nil {
			t.Errorf("%s accepted", bad.what)
		}
	}
	if got := tb.Get(0, 0); got[0] != 1 || got[1] != 0 || tb.Support(0, 0) != 5 || tb.CellVersion(0, 0) != 1 {
		t.Fatalf("refused merges changed the cell: %v, support %v, version %d", got, tb.Support(0, 0), tb.CellVersion(0, 0))
	}
}

func TestMergeCancellationKeepsOld(t *testing.T) {
	tb := NewSharded(1, 1, 2)
	if err := tb.Set(0, 0, []float32{1, 0}, 1); err != nil {
		t.Fatal(err)
	}
	_, kept, _ := tb.ExtractLayerEntriesInto(0, []int{0}, nil, nil, nil)
	// With γ=1, Φ=φ=1 the weights are 0.5/0.5; update = -E cancels.
	if err := tb.Merge(0, 0, []float32{-1, 0}, 1.0, 1, 0); err != nil {
		t.Fatal(err)
	}
	_, now, _ := tb.ExtractLayerEntriesInto(0, []int{0}, nil, nil, nil)
	if now[0][0] != 1 || &now[0][0] != &kept[0][0] {
		t.Fatalf("cancellation should keep the published entry, got %v", now[0])
	}
}

func TestMergePullsTowardFrequentUpdates(t *testing.T) {
	// Repeated merges with high local frequency must move the entry
	// toward the update direction — the mechanism behind Fig. 2.
	tb := NewSharded(1, 1, 8)
	start := unit(8, 1)
	target := unit(8, 2)
	if err := tb.Set(0, 0, start, 0); err != nil {
		t.Fatal(err)
	}
	before := vecmath.Cosine(tb.Get(0, 0), target)
	for k := 0; k < 20; k++ {
		if err := tb.Merge(0, 0, target, DefaultGamma, 100, 0); err != nil {
			t.Fatal(err)
		}
	}
	after := vecmath.Cosine(tb.Get(0, 0), target)
	if after < before+0.3 || after < 0.9 {
		t.Fatalf("merges did not converge toward update: before %v after %v", before, after)
	}
}

// TestSnapshotIndependent: writes to the table after a snapshot, and to the
// snapshot, leave the other as it was.
func TestSnapshotIndependent(t *testing.T) {
	tb := NewSharded(2, 2, 2)
	_ = tb.Set(0, 0, []float32{1, 0}, 3)
	snap := tb.Snapshot()
	_ = tb.Set(0, 0, []float32{0, 1}, 1)
	_ = tb.Set(1, 1, []float32{0, 1}, 1)
	if snap.Get(0, 0)[0] != 1 || snap.Support(0, 0) != 3 || snap.CellVersion(0, 0) != 1 {
		t.Fatal("snapshot shares storage with original")
	}
	if snap.Populated() != 1 {
		t.Fatalf("snapshot populated = %d", snap.Populated())
	}
	if err := snap.Merge(0, 0, []float32{1, 1}, 0.99, 1, 0); err != nil {
		t.Fatal(err)
	}
	if tb.Get(0, 0)[1] != 1 || tb.CellVersion(0, 0) != 2 {
		t.Fatal("a merge into the snapshot reached the original")
	}
}

// TestExtractLayer: extraction keeps the requested class order and skips
// absent cells.
func TestExtractLayer(t *testing.T) {
	tb := NewSharded(4, 2, 2)
	_ = tb.Set(0, 1, []float32{1, 0}, 1)
	_ = tb.Set(2, 1, []float32{0, 1}, 1)
	cls, entries, _ := tb.ExtractLayerEntriesInto(1, []int{3, 2, 1, 0}, nil, nil, nil)
	if len(cls) != 2 || cls[0] != 2 || cls[1] != 0 || entries[0][1] != 1 || entries[1][0] != 1 {
		t.Fatalf("ExtractLayer classes = %v entries = %v", cls, entries)
	}
}

func TestUpdateTableAbsorbEquation3(t *testing.T) {
	u := NewUpdateTable(0.95, 2)
	if err := u.Absorb(0, 0, []float32{1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := u.Absorb(0, 0, []float32{0, 1}); err != nil {
		t.Fatal(err)
	}
	// U = (0,1) + 0.95*(1,0), normalized.
	got := u.Entry(0, 0)
	n := math.Hypot(0.95, 1)
	if math.Abs(float64(got[0])-0.95/n) > 1e-6 || math.Abs(float64(got[1])-1/n) > 1e-6 {
		t.Fatalf("Absorb = %v", got)
	}
}

func TestUpdateTableResetAndCells(t *testing.T) {
	u := NewUpdateTable(0.9, 2)
	_ = u.Absorb(1, 3, []float32{1, 0})
	_ = u.Absorb(2, 0, []float32{0, 1})
	if u.Len() != 2 || len(u.Cells()) != 2 {
		t.Fatalf("Len = %d", u.Len())
	}
	seen := 0
	u.ForEach(func(class, layer int, vec []float32, count int) {
		seen++
		if count != 1 {
			t.Errorf("cell (%d,%d) count = %d, want 1", class, layer, count)
		}
	})
	if seen != 2 {
		t.Fatalf("ForEach visited %d", seen)
	}
	if u.Count(1, 3) != 1 || u.Count(9, 9) != 0 {
		t.Fatal("Count wrong")
	}
	u.Reset()
	if u.Len() != 0 || u.Entry(1, 3) != nil || u.Count(1, 3) != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestUpdateTableValidation(t *testing.T) {
	u := NewUpdateTable(0.9, 2)
	if err := u.Absorb(0, 0, []float32{1}); err == nil {
		t.Fatal("wrong dim accepted")
	}
	if err := u.Absorb(0, 0, []float32{0, 0}); err == nil {
		t.Fatal("zero vector accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad beta")
		}
	}()
	NewUpdateTable(-1, 2)
}

func TestFrequencies(t *testing.T) {
	f := NewFrequencies(3)
	f.Observe(0)
	f.Observe(0)
	f.Observe(2)
	if f.Count(0) != 2 || f.Count(1) != 0 || f.Count(2) != 1 {
		t.Fatalf("counts = %v", f.SnapshotInto(nil))
	}
	if f.Total() != 3 {
		t.Fatalf("Total = %v", f.Total())
	}
	g := NewFrequencies(3)
	g.Observe(1)
	if err := f.AddFrom(g); err != nil {
		t.Fatal(err)
	}
	if f.Count(1) != 1 {
		t.Fatal("AddFrom failed")
	}
	if err := f.AddFrom(NewFrequencies(2)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	f.Reset()
	if f.Total() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestPropertyMergeKeepsUnitNorm(t *testing.T) {
	f := func(seed uint64, phiRaw, localRaw uint8) bool {
		dim := 8
		tb := NewSharded(1, 1, dim)
		if err := tb.Set(0, 0, unit(dim, seed, 1), float64(phiRaw)); err != nil {
			return false
		}
		local := 1 + float64(localRaw)
		if err := tb.Merge(0, 0, unit(dim, seed, 2), DefaultGamma, local, 0); err != nil {
			return false
		}
		return math.Abs(float64(vecmath.Norm(tb.Get(0, 0)))-1) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAbsorbKeepsUnitNorm(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		dim := 8
		u := NewUpdateTable(DefaultBeta, dim)
		n := 1 + int(steps)%20
		for i := 0; i < n; i++ {
			if err := u.Absorb(0, 0, unit(dim, seed, uint64(i))); err != nil {
				return false
			}
		}
		return math.Abs(float64(vecmath.Norm(u.Entry(0, 0)))-1) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTableMergeRejectsNonFinite: Merge into a populated or an absent cell
// and Set refuse NaN/Inf vectors and leave the table as it was.
func TestTableMergeRejectsNonFinite(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, bad := range [][]float32{{nan, 0, 0}, {0, inf, 0}, {1, -inf, nan}} {
		tb := NewSharded(1, 2, 3)
		if err := tb.Set(0, 0, []float32{0, 0, 1}, 1); err != nil {
			t.Fatal(err)
		}
		if err := tb.Merge(0, 0, bad, DefaultGamma, 4, 0); err == nil {
			t.Errorf("Merge accepted %v", bad)
		}
		if err := tb.Merge(0, 1, bad, DefaultGamma, 4, 0); err == nil || tb.Get(0, 1) != nil {
			t.Errorf("Merge into an absent cell accepted %v", bad)
		}
		if err := tb.Set(0, 1, bad, 1); err == nil {
			t.Errorf("Set accepted %v", bad)
		}
		if got := tb.Get(0, 0); got[0] != 0 || got[1] != 0 || got[2] != 1 || tb.Populated() != 1 {
			t.Errorf("rejected merge of %v changed the table: %v, %d cells", bad, got, tb.Populated())
		}
	}
}

// TestUpdateTableSteadyStateAllocs pins the free list: Reset keeps the
// round's vectors for the cells the next round adds, so 50 rounds of
// Absorb/Reset over a fixed cell set allocate nothing after the first, and a
// recycled vector never leaks one cell's content into another.
func TestUpdateTableSteadyStateAllocs(t *testing.T) {
	const dim, cells = 16, 40
	u := NewUpdateTable(DefaultBeta, dim)
	vecs := make([][]float32, cells)
	for i := range vecs {
		vecs[i] = unit(dim, 7, uint64(i))
	}
	round := func() {
		for i, v := range vecs {
			if err := u.Absorb(i%5, i/5, v); err != nil {
				t.Fatal(err)
			}
		}
		if u.Len() != cells {
			t.Fatalf("round filled %d cells, want %d", u.Len(), cells)
		}
		for i, v := range vecs {
			if got := u.Entry(i%5, i/5); vecmath.Cosine(got, v) < 0.9999 || u.Count(i%5, i/5) != 1 {
				t.Fatalf("cell %d holds %v (count %d) after one absorb of %v", i, got, u.Count(i%5, i/5), v)
			}
		}
		u.Reset()
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("Absorb/Reset round over a fixed cell set: %.1f allocs/op after the first round, want 0", allocs)
	}
	if len(u.free) != cells {
		t.Errorf("the table keeps %d vectors for %d cells", len(u.free), cells)
	}
}
