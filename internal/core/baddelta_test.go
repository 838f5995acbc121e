package core

// Malformed-delta tests: a client refuses a delta its model cannot hold
// before applying any of it, so its view stays as it was, and an armed
// serve-stale shield rides the refusal out on that view.

import (
	"context"
	"math"
	"slices"
	"testing"

	"coca/internal/model"
)

// badDeltaCoord wraps a real coordinator; while bad is set, its sessions
// answer Allocate with *bad instead of the server's delta.
type badDeltaCoord struct {
	inner Coordinator
	bad   *Delta
}

func (b *badDeltaCoord) Open(ctx context.Context, clientID int) (Session, error) {
	sess, err := b.inner.Open(ctx, clientID)
	if err != nil {
		return nil, err
	}
	return &badDeltaSession{Session: sess, b: b}, nil
}

type badDeltaSession struct {
	Session
	b *badDeltaCoord
}

func (s *badDeltaSession) Allocate(ctx context.Context, st StatusReport) (Delta, error) {
	if s.b.bad != nil {
		return *s.b.bad, nil
	}
	return s.Session.Allocate(ctx, st)
}

// viewBits is the view's whole state as bits: version, hot-spot classes,
// and per site its classes, entry floats and staged squared norms.
func viewBits(v *AllocView) []uint64 {
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

// TestClientRefusesMalformedDelta: a delta naming a site past the model, a
// class outside it (negative, or near 2³¹, which would size the lookup's
// per-class slices to match) or a vector of the wrong length is refused whole
// at BeginRound, and the view keeps every bit of the last good allocation.
// Unarmed, the round fails; with MaxStaleRounds > 0 it is served from that
// view, and inference on it runs.
func TestClientRefusesMalformedDelta(t *testing.T) {
	space := smallSpace()
	layers := space.Arch.NumLayers
	vec := make([]float32, model.Dim)
	vec[0] = 1
	cases := []struct {
		name string
		cell func(site int) DeltaCell
	}{
		{"site past the model", func(int) DeltaCell { return DeltaCell{Site: layers, Class: 0, Vec: vec} }},
		{"negative class", func(site int) DeltaCell { return DeltaCell{Site: site, Class: -1, Vec: vec} }},
		{"class near 2^31", func(site int) DeltaCell { return DeltaCell{Site: site, Class: math.MaxInt32, Vec: vec} }},
		{"short vector", func(site int) DeltaCell { return DeltaCell{Site: site, Class: 0, Vec: vec[:model.Dim-1]} }},
		{"long vector", func(site int) DeltaCell {
			return DeltaCell{Site: site, Class: 0, Vec: append(vec[:model.Dim:model.Dim], 0)}
		}},
	}
	for _, maxStale := range []int{0, 2} {
		for _, tc := range cases {
			srv := NewServer(space, ServerConfig{Theta: 0.035, Seed: 3, ProfileSamples: 200, InitSamplesPerClass: 16})
			coord := &badDeltaCoord{inner: srv}
			c, err := NewClient(context.Background(), space, coord, ClientConfig{
				Theta: 0.035, Budget: 40, RoundFrames: 50, MaxStaleRounds: maxStale,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.BeginRound(); err != nil {
				t.Fatal(err)
			}
			held := c.View().Layers()
			if len(held) == 0 {
				t.Fatal("fixture broken: the first allocation holds no cells")
			}
			before := viewBits(c.View())
			cell := tc.cell(held[0].Site)
			v := c.View().Version()
			coord.bad = &Delta{Version: v + 1, BaseVersion: v, Sites: []int{cell.Site}, Cells: []DeltaCell{cell}}
			err = c.BeginRound()
			if maxStale == 0 && err == nil {
				t.Fatalf("%s: BeginRound applied the delta", tc.name)
			}
			if maxStale > 0 && (err != nil || c.ServedStale() != 1) {
				t.Fatalf("%s, shield armed: BeginRound err %v, %d stale rounds served, want nil and 1", tc.name, err, c.ServedStale())
			}
			if got := viewBits(c.View()); !slices.Equal(got, before) {
				t.Fatalf("%s (MaxStaleRounds %d): a refused delta changed the view", tc.name, maxStale)
			}
			if maxStale > 0 {
				gen := smallGen(t)
				for range 50 {
					c.Infer(gen.Next())
				}
			}
			_ = c.Close()
		}
	}
}
