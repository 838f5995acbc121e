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
	tb := New(10, 5, 8)
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
	New(0, 5, 8)
}

func TestSetGetNormalizes(t *testing.T) {
	tb := New(3, 3, 4)
	if err := tb.Set(1, 2, []float32{3, 4, 0, 0}); err != nil {
		t.Fatal(err)
	}
	got := tb.Get(1, 2)
	if math.Abs(float64(vecmath.Norm(got))-1) > 1e-6 {
		t.Fatalf("stored entry not unit: %v", got)
	}
	if !tb.Has(1, 2) || tb.Has(0, 0) {
		t.Fatal("Has wrong")
	}
}

func TestSetRejectsBadInput(t *testing.T) {
	tb := New(3, 3, 4)
	if err := tb.Set(0, 0, []float32{1, 2}); err == nil {
		t.Fatal("wrong dim accepted")
	}
	if err := tb.Set(0, 0, []float32{0, 0, 0, 0}); err == nil {
		t.Fatal("zero vector accepted")
	}
}

func TestIndexPanics(t *testing.T) {
	tb := New(3, 3, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.Get(3, 0)
}

func TestSetCopiesInput(t *testing.T) {
	tb := New(2, 2, 2)
	v := []float32{1, 0}
	if err := tb.Set(0, 0, v); err != nil {
		t.Fatal(err)
	}
	v[0] = 99
	if tb.Get(0, 0)[0] != 1 {
		t.Fatal("Set aliased caller's slice")
	}
}

func TestMergeEquation4(t *testing.T) {
	// Hand-check Eq. 4 with orthogonal vectors where the arithmetic is
	// easy: E=(1,0), U=(0,1), γ=0.99, Φ=3, φ=1.
	tb := New(1, 1, 2)
	if err := tb.Set(0, 0, []float32{1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Merge(0, 0, []float32{0, 1}, 0.99, 3, 1); err != nil {
		t.Fatal(err)
	}
	got := tb.Get(0, 0)
	wOld := 0.99 * 3.0 / 4.0
	wNew := 1.0 / 4.0
	n := math.Hypot(wOld, wNew)
	if math.Abs(float64(got[0])-wOld/n) > 1e-6 || math.Abs(float64(got[1])-wNew/n) > 1e-6 {
		t.Fatalf("merged = %v, want (%v,%v)", got, wOld/n, wNew/n)
	}
}

func TestMergeIntoEmptyStoresUpdate(t *testing.T) {
	tb := New(1, 1, 2)
	if err := tb.Merge(0, 0, []float32{0, 2}, 0.99, 5, 1); err != nil {
		t.Fatal(err)
	}
	got := tb.Get(0, 0)
	if math.Abs(float64(got[1])-1) > 1e-6 {
		t.Fatalf("merge into empty = %v", got)
	}
}

func TestMergeValidation(t *testing.T) {
	tb := New(1, 1, 2)
	if err := tb.Merge(0, 0, []float32{1}, 0.99, 1, 1); err == nil {
		t.Fatal("wrong dim accepted")
	}
	if err := tb.Merge(0, 0, []float32{1, 0}, 1.5, 1, 1); err == nil {
		t.Fatal("bad gamma accepted")
	}
	if err := tb.Merge(0, 0, []float32{1, 0}, 0.9, -1, 1); err == nil {
		t.Fatal("negative global freq accepted")
	}
	if err := tb.Merge(0, 0, []float32{1, 0}, 0.9, 1, 0); err == nil {
		t.Fatal("zero local freq accepted")
	}
}

func TestMergeCancellationKeepsOld(t *testing.T) {
	tb := New(1, 1, 2)
	if err := tb.Set(0, 0, []float32{1, 0}); err != nil {
		t.Fatal(err)
	}
	// With γ=1, Φ=φ=1 the weights are 0.5/0.5; update = -E cancels.
	if err := tb.Merge(0, 0, []float32{-1, 0}, 1.0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := tb.Get(0, 0); got[0] != 1 {
		t.Fatalf("cancellation should keep old entry, got %v", got)
	}
}

func TestMergePullsTowardFrequentUpdates(t *testing.T) {
	// Repeated merges with high local frequency must move the entry
	// toward the update direction — the mechanism behind Fig. 2.
	tb := New(1, 1, 8)
	start := unit(8, 1)
	target := unit(8, 2)
	if err := tb.Set(0, 0, start); err != nil {
		t.Fatal(err)
	}
	before := vecmath.Cosine(tb.Get(0, 0), target)
	phi := 0.0
	for k := 0; k < 20; k++ {
		if err := tb.Merge(0, 0, target, DefaultGamma, phi, 100); err != nil {
			t.Fatal(err)
		}
		phi += 100
	}
	after := vecmath.Cosine(tb.Get(0, 0), target)
	if after < before+0.3 || after < 0.9 {
		t.Fatalf("merges did not converge toward update: before %v after %v", before, after)
	}
}

func TestSnapshotIndependent(t *testing.T) {
	tb := New(2, 2, 2)
	_ = tb.Set(0, 0, []float32{1, 0})
	snap := tb.Snapshot()
	_ = tb.Set(0, 0, []float32{0, 1})
	if snap.Get(0, 0)[0] != 1 {
		t.Fatal("snapshot shares storage with original")
	}
	if snap.Populated() != 1 {
		t.Fatalf("snapshot populated = %d", snap.Populated())
	}
}

func TestExtractLayer(t *testing.T) {
	tb := New(4, 2, 2)
	_ = tb.Set(0, 1, []float32{1, 0})
	_ = tb.Set(2, 1, []float32{0, 1})
	cls, entries := tb.ExtractLayer(1, []int{0, 1, 2, 3})
	if len(cls) != 2 || cls[0] != 0 || cls[1] != 2 {
		t.Fatalf("ExtractLayer classes = %v", cls)
	}
	entries[0][0] = 42
	if tb.Get(0, 1)[0] == 42 {
		t.Fatal("ExtractLayer aliases table storage")
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
		tb := New(1, 1, dim)
		if err := tb.Set(0, 0, unit(dim, seed, 1)); err != nil {
			return false
		}
		phi := float64(phiRaw)
		local := 1 + float64(localRaw)
		if err := tb.Merge(0, 0, unit(dim, seed, 2), DefaultGamma, phi, local); err != nil {
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

// TestTableMergeRejectsNonFinite: Table.Merge and Set refuse a vector with a
// NaN or Inf component and leave the entry as it was.
func TestTableMergeRejectsNonFinite(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, bad := range [][]float32{{nan, 0, 0}, {0, inf, 0}, {1, -inf, nan}} {
		tb := New(1, 2, 3)
		if err := tb.Set(0, 0, []float32{0, 0, 1}); err != nil {
			t.Fatal(err)
		}
		if err := tb.Merge(0, 0, bad, DefaultGamma, 4, 2); err == nil {
			t.Errorf("Merge accepted %v", bad)
		}
		if err := tb.Merge(0, 1, bad, DefaultGamma, 4, 2); err == nil || tb.Has(0, 1) {
			t.Errorf("Merge into an absent cell accepted %v", bad)
		}
		if err := tb.Set(0, 1, bad); err == nil {
			t.Errorf("Set accepted %v", bad)
		}
		if got := tb.Get(0, 0); got[0] != 0 || got[1] != 0 || got[2] != 1 {
			t.Errorf("rejected merge of %v changed the entry to %v", bad, got)
		}
	}
}
