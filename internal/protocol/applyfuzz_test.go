package protocol

import (
	"math"
	"slices"
	"testing"

	"coca/internal/cache"
	"coca/internal/core"
	"coca/internal/model"
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
