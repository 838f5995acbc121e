package protocol

import (
	"cmp"
	"maps"
	"math"
	"slices"
	"testing"

	"coca/internal/cache"
	"coca/internal/core"
	"coca/internal/model"
	"coca/internal/vecmath"
)

// fuzzClasses and fuzzLayers shape the client FuzzApplyDelta plays.
const fuzzClasses, fuzzLayers = 6, 4

// fuzzDelta is a well-formed delta for that client: every class at each of
// sites, each cell's vector a distinct unit axis.
func fuzzDelta(version, base uint64, sites ...int) *core.Delta {
	d := &core.Delta{Version: version, BaseVersion: base, Full: base == 0, Sites: sites}
	for _, s := range sites {
		for c := range fuzzClasses {
			vec := make([]float32, model.Dim)
			vec[(s*fuzzClasses+c)%model.Dim] = 1
			d.Classes = append(d.Classes, c)
			d.Cells = append(d.Cells, core.DeltaCell{Site: s, Class: c, Vec: vec})
		}
	}
	d.Classes = slices.Compact(d.Classes)
	return d
}

// viewBits is the view's whole state as bits: version, hot-spot classes,
// and per site its classes, entry floats and staged squared norms.
func viewBits(v *core.AllocView) []uint64 {
	out := []uint64{v.Version(), uint64(v.NumCells())}
	for _, c := range v.Classes() {
		out = append(out, uint64(c))
	}
	for _, l := range v.Layers() {
		out = append(out, uint64(l.Site), uint64(len(l.Classes)))
		for i, c := range l.Classes {
			out = append(out, uint64(c), math.Float64bits(l.Norm2[i]), uint64(len(l.Entries[i])))
			for _, x := range l.Entries[i] {
				out = append(out, uint64(math.Float32bits(x)))
			}
		}
	}
	return out
}

// viewModel is the naive view FuzzApplyDelta holds the real one to: one
// vector per (site, class), a delta applied to it cell by cell.
type viewModel map[core.CellRef][]float32

// apply folds d in as AllocView.Apply is specified to: a Full delta starts
// from nothing, evictions go, cells at sites d does not activate go, and
// every cell at an active site is written, the last write of a cell winning.
func (m viewModel) apply(d *core.Delta) {
	if d.Full {
		clear(m)
	}
	for _, ref := range d.Evict {
		delete(m, ref)
	}
	for ref := range m {
		if !slices.Contains(d.Sites, ref.Site) {
			delete(m, ref)
		}
	}
	for _, c := range d.Cells {
		if slices.Contains(d.Sites, c.Site) {
			m[core.CellRef{Site: c.Site, Class: c.Class}] = slices.Clone(c.Vec)
		}
	}
}

// check fails unless the view holds bitwise the model's cells, sites and
// classes ascending, each with its vecmath.SquaredNorm staged.
func (m viewModel) check(t *testing.T, when string, v *core.AllocView) {
	t.Helper()
	want := slices.SortedFunc(maps.Keys(m), func(a, b core.CellRef) int {
		return cmp.Or(cmp.Compare(a.Site, b.Site), cmp.Compare(a.Class, b.Class))
	})
	var got []core.CellRef
	for _, l := range v.Layers() {
		for i, c := range l.Classes {
			ref := core.CellRef{Site: l.Site, Class: c}
			got = append(got, ref)
			vec, ok := m[ref]
			if !ok || len(vec) != len(l.Entries[i]) {
				continue // the cell lists differ; reported below
			}
			for k := range vec {
				if math.Float32bits(vec[k]) != math.Float32bits(l.Entries[i][k]) {
					t.Fatalf("%s: cell %+v differs at component %d", when, ref, k)
				}
			}
			if math.Float64bits(l.Norm2[i]) != math.Float64bits(vecmath.SquaredNorm(vec)) {
				t.Fatalf("%s: cell %+v staged norm %v, want %v", when, ref, l.Norm2[i], vecmath.SquaredNorm(vec))
			}
		}
	}
	if !slices.Equal(got, want) || v.NumCells() != len(want) {
		t.Fatalf("%s: view holds %d cells %v, want %v", when, v.NumCells(), got, want)
	}
}

// FuzzApplyDelta feeds decoded Delta frames to a client-shaped view the way
// core.Client takes an allocation: Delta.Check against the client's model,
// then AllocView.Apply onto the view its last round left, then cache.NewLocal
// on what the view holds, staged and probed at every site. Nothing may
// panic, and a delta that either step refuses leaves the view bitwise as it
// was. The corpus starts from a well-formed incremental delta and a Full
// one, and from deltas that name a site past the model, a class outside it
// (negative, and near 2³¹), a vector of the wrong length, unsorted sites or
// another base version.
func FuzzApplyDelta(f *testing.F) {
	held := fuzzDelta(1, 0, 0, 2)
	bad := func(edit func(d *core.Delta)) *core.Delta {
		d := fuzzDelta(2, 1, 1, 2)
		edit(d)
		return d
	}
	seeds := []*core.Delta{
		fuzzDelta(2, 1, 1, 2),
		fuzzDelta(5, 0, 3),
		bad(func(d *core.Delta) { d.Sites[1], d.Cells[0].Site = fuzzLayers, fuzzLayers }),
		bad(func(d *core.Delta) { d.Cells[3].Class = -1 }),
		bad(func(d *core.Delta) { d.Cells[3].Class = math.MaxInt32 }),
		bad(func(d *core.Delta) { d.Cells[4].Vec = d.Cells[4].Vec[:model.Dim-1] }),
		bad(func(d *core.Delta) { d.Sites[0], d.Sites[1] = d.Sites[1], d.Sites[0] }),
		bad(func(d *core.Delta) { d.BaseVersion = 7 }),
		// Evictions and a re-insertion: (0,1) leaves and comes back with
		// another vector, (2,3) leaves, and the cells arrive classes
		// descending, as a server lists them in score order.
		func() *core.Delta {
			other := fuzzDelta(1, 0, 3).Cells
			other[5].Site, other[1].Site = 2, 0
			return &core.Delta{Version: 2, BaseVersion: 1, Sites: []int{0, 2},
				Evict: []core.CellRef{{Site: 2, Class: 3}, {Site: 0, Class: 1}, {Site: 0, Class: 4}},
				Cells: []core.DeltaCell{other[5], other[1]}}
		}(),
		// One cell twice in a delta, the second write winning, and a site
		// (0) dropped from Sites, with a cell there that must not land.
		bad(func(d *core.Delta) {
			d.Sites = []int{2}
			d.Cells = []core.DeltaCell{d.Cells[7], d.Cells[9], d.Cells[2], d.Cells[9]}
			d.Cells[0].Site, d.Cells[1].Site, d.Cells[2].Site, d.Cells[3].Site = 2, 2, 0, 2
			d.Cells[3].Vec = d.Cells[0].Vec
		}),
		// A Full delta into the populated view, classes descending.
		func() *core.Delta {
			d := fuzzDelta(4, 0, 0, 3)
			slices.Reverse(d.Cells)
			return d
		}(),
	}
	for _, d := range seeds {
		frame, err := Encode(&Message{Type: TypeDelta, ClientID: 1, SessionID: 2, Delta: d})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := Decode(frame)
		if err != nil || m.Type != TypeDelta {
			return
		}
		view := core.NewAllocView()
		if err := view.Apply(*held); err != nil {
			t.Fatal(err)
		}
		before := viewBits(view)
		err = m.Delta.Check(fuzzClasses, fuzzLayers)
		if err == nil {
			err = view.Apply(*m.Delta)
		}
		if err != nil {
			if !slices.Equal(viewBits(view), before) {
				t.Fatalf("refused delta (%v) changed the view", err)
			}
			return
		}
		naive := viewModel{}
		naive.apply(held)
		naive.apply(m.Delta)
		naive.check(t, "after the delta", view)
		// The same cells once more, as an increment onto what the view now
		// holds: every cell it names is held, so each is overwritten in place.
		again := *m.Delta
		again.Full, again.BaseVersion, again.Version, again.Evict = false, view.Version(), view.Version()+1, nil
		if err := view.Apply(again); err != nil {
			t.Fatalf("re-applying an applied delta's cells: %v", err)
		}
		naive.apply(&again)
		naive.check(t, "after its cells once more", view)
		local, err := cache.NewLocal(view.Layers())
		if err != nil {
			t.Fatalf("an applied delta left a view no cache takes: %v", err)
		}
		local.StageBlocks(new(cache.Blocks))
		lk := cache.NewLookup(cache.Config{Alpha: 0.5, Theta: 0.01})
		query := make([]float32, model.Dim)
		query[0] = 1
		for i := range local.Layers() {
			lk.Probe(&local.Layers()[i], query)
		}
	})
}
