package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"coca/internal/gtable"
	"coca/internal/model"
	"coca/internal/telemetry"
	"coca/internal/vecmath"
)

// sameTable fails unless the server's global table holds bitwise the cells
// of want: vectors, versions, support and evidence totals.
func sameTable(t *testing.T, when string, srv *Server, want *gtable.Sharded) {
	t.Helper()
	got, exp := srv.table.AppendCells(nil), want.AppendCells(nil)
	if len(got) != len(exp) {
		t.Fatalf("%s: %d cells, want %d", when, len(got), len(exp))
	}
	for i, g := range got {
		w := exp[i]
		if g.Class != w.Class || g.Layer != w.Layer || g.Ver != w.Ver ||
			math.Float64bits(g.Support) != math.Float64bits(w.Support) ||
			math.Float64bits(g.EvTotal) != math.Float64bits(w.EvTotal) {
			t.Fatalf("%s: cell %+v, want %+v", when, g, w)
		}
		for k := range g.Vec {
			if math.Float32bits(g.Vec[k]) != math.Float32bits(w.Vec[k]) {
				t.Fatalf("%s: cell (%d,%d) differs at component %d", when, g.Class, g.Layer, k)
			}
		}
	}
}

// TestUploadGroupMergeMatchesOneByOne runs seeded upload reports through
// Server.upload, which merges four cells per gtable.MergeGroup call, and the
// same reports one Merge at a time into a copy of the table taken before
// the first: after every report the tables are bitwise equal, both refused
// the same reports, and both counted as many rejected vectors. The table
// starts empty, so that cells are absent, and the reports hold a cell
// repeated inside a group of four, a zero update into an absent cell, an
// update that cancels its cell and a NaN.
func TestUploadGroupMergeMatchesOneByOne(t *testing.T) {
	srv := NewServer(smallSpace(), ServerConfig{Theta: 0.035, Seed: 3, ProfileSamples: 200, InitSamplesPerClass: 16, Gamma: 1})
	classes, layers := srv.table.Classes(), srv.table.Layers()
	srv.table = gtable.NewSharded(classes, layers, model.Dim)
	ref := srv.Table()
	r := rand.New(rand.NewPCG(47, 5))
	vec := func() []float32 {
		v := make([]float32, model.Dim)
		for k := range v {
			v[k] = float32(r.NormFloat64())
		}
		return v
	}
	cell := func(class, layer, count int, v []float32) UpdateCell {
		return UpdateCell{Class: class, Layer: layer, Count: count, Vec: v}
	}
	nan := vec()
	nan[5] = float32(math.NaN())
	reports := [][]UpdateCell{
		{cell(1, 0, 2, vec()), cell(2, 1, 3, vec()), cell(1, 0, 3, vec()), cell(3, 2, 1, vec()), cell(4, 0, 1, vec())},
		{cell(0, 1, 1, vec()), cell(9, 0, 1, make([]float32, model.Dim))},
		nil, // cancels cell (2,1), once report 0 has put it in
		{cell(0, 0, 1, vec()), cell(1, 1, 1, vec()), cell(6, 2, 1, nan), cell(2, 2, 1, vec())},
	}
	for range 60 {
		var cells []UpdateCell
		for range 1 + r.IntN(9) {
			cells = append(cells, cell(r.IntN(classes), r.IntN(layers), 1+r.IntN(3), vec()))
		}
		reports = append(reports, cells)
	}
	freq := make([]float64, classes)
	var cancel []float32
	for i, cells := range reports {
		if i == 2 {
			// With γ = 1 and φ = Φ both Eq. 4 weights are exactly ½, so the
			// negated entry cancels it to the bit.
			cancel = srv.table.Get(2, 1)
			for k := range cancel {
				cancel[k] = -cancel[k]
			}
			cells = []UpdateCell{cell(2, 0, 1, vec()), cell(2, 1, int(srv.table.Support(2, 1)), cancel), cell(5, 1, 1, vec())}
		}
		rejected := telemetry.CoreRejectedVecs.Load()
		err := srv.upload(0, UpdateReport{Cells: cells, Freq: freq})
		grouped := telemetry.CoreRejectedVecs.Load() - rejected
		// One by one, as upload did before groups: every norm checked, then
		// one Merge per cell.
		rejected = telemetry.CoreRejectedVecs.Load()
		var refErr error
		for _, c := range cells {
			if refErr = gtable.CheckSquaredNorm("Upload", c.Class, c.Layer, vecmath.SquaredNorm(c.Vec)); refErr != nil {
				break
			}
		}
		for _, c := range cells {
			if refErr != nil {
				break
			}
			refErr = ref.Merge(c.Class, c.Layer, c.Vec, srv.cfg.Gamma, float64(c.Count), srv.cfg.SupportCap)
		}
		single := telemetry.CoreRejectedVecs.Load() - rejected
		if (err == nil) != (refErr == nil) || grouped != single {
			t.Fatalf("report %d: upload %v (%d rejected), one by one %v (%d rejected)", i, err, grouped, refErr, single)
		}
		if (err == nil) != (i == 0 || i == 2 || i > 3) {
			t.Fatalf("report %d: upload returned %v", i, err)
		}
		if got := srv.table.Get(2, 1); i == 2 && got[0] != -cancel[0] {
			t.Error("the cancelling update did not leave its cell's entry as it was")
		}
		sameTable(t, fmt.Sprintf("report %d", i), srv, ref)
	}
}

// TestUploadGroupsShareRowsRace uploads from four sessions at once, each
// report's groups of four naming the same few rows in another order, so
// that groups lock overlapping rows concurrently: no deadlock, every cell
// merged, and (under the race detector) no unguarded access.
func TestUploadGroupsShareRowsRace(t *testing.T) {
	srv := smallServer(t)
	ctx := context.Background()
	const sessions, uploads = 4, 25
	_, before := srv.Stats()
	var wg sync.WaitGroup
	for g := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := testSession(t, srv, g)
			defer sess.Close()
			r := rand.New(rand.NewPCG(uint64(g), 9))
			upd := UpdateReport{Freq: make([]float64, 10)}
			for k := range 8 {
				class := (g + k) % 4
				if g%2 == 1 {
					class = 3 - class
				}
				v := make([]float32, model.Dim)
				for i := range v {
					v[i] = float32(r.NormFloat64())
				}
				upd.Cells = append(upd.Cells, UpdateCell{Class: class, Layer: k % 3, Count: 1, Vec: v})
			}
			for range uploads {
				if err := sess.Upload(ctx, upd); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, after := srv.Stats(); after-before != sessions*uploads*8 {
		t.Errorf("%d cells merged, want %d", after-before, sessions*uploads*8)
	}
	for c := range 4 {
		for l := range 3 {
			if n := vecmath.Norm(srv.table.Get(c, l)); math.Abs(float64(n)-1) > 1e-5 {
				t.Errorf("cell (%d,%d) has norm %v after concurrent merges", c, l, n)
			}
		}
	}
}
