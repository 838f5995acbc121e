package protocol

// What the process-wide pools and the view contract promise on the wire path:
// a wire view holds bitwise what an in-process view holds, a reply a
// session holds stays intact whatever other connections take from and return
// to the pools, and only what is provably free, and not above the
// transport's retention bound, goes back.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"coca/internal/cache"
	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/model"
	"coca/internal/semantics"
	"coca/internal/transport"
	"coca/internal/vecmath"
	"coca/internal/xrand"
)

// serveTCP accepts connections on loopback and serves each with ServeConn
// until the test ends.
func serveTCP(t *testing.T, coord core.Coordinator) (addr string) {
	t.Helper()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				_ = ServeConn(ctx, conn, coord)
				_ = conn.Close()
			}()
		}
	}()
	t.Cleanup(func() {
		cancel()
		_ = l.Close()
		<-done
	})
	return l.Addr()
}

func dialSession(t *testing.T, addr string, classes, layers int) *SessionClient {
	t.Helper()
	conn, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return NewSessionClient(conn, classes, layers)
}

// TestInProcessAndWireViewsAgree drives one seeded Allocate/Upload schedule
// through an in-process session and through ServeConn over a pipe, against
// two servers built from one init, and requires the two views to be bitwise
// equal after every round: same classes, entries and squared norms. A view
// stages what it receives the same way whichever side of a connection the
// delta came from.
func TestInProcessAndWireViewsAgree(t *testing.T) {
	space := semantics.NewSpace(dataset.ESC50().Subset(10), model.VGG16BN())
	cfg := core.ServerConfig{Theta: 0.035, Seed: 3, ProfileSamples: 150, InitSamplesPerClass: 16}
	shared := core.BuildServerInit(space, cfg)
	local, remote := core.NewServerFrom(space, cfg, shared), core.NewServerFrom(space, cfg, shared)
	ctx := context.Background()
	cConn, sConn := transport.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeConn(ctx, sConn, remote) }()
	client := NewSessionClient(cConn, space.DS.NumClasses, space.Arch.NumLayers)
	wire, err := client.Open(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	inproc, err := local.Open(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	views := [2]*core.AllocView{core.NewAllocView(), core.NewAllocView()}
	sessions := [2]core.Session{inproc, wire}
	r := xrand.New(17)
	classes, layers := space.DS.NumClasses, space.Arch.NumLayers
	for round := 0; round < 8; round++ {
		status := core.StatusReport{Tau: make([]int, classes), Budget: 20 + r.IntN(40), RoundFrames: 300}
		for c := range status.Tau {
			status.Tau[c] = r.IntN(900)
		}
		for i, sess := range sessions {
			status.LastVersion = views[i].Version()
			d, err := sess.Allocate(ctx, status)
			if err != nil {
				t.Fatal(err)
			}
			if err := views[i].Apply(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := sameLayers(views[0].Layers(), views[1].Layers()); err != nil {
			t.Fatalf("round %d: in-process and wire views differ: %v", round, err)
		}
		for _, l := range views[0].Layers() {
			for i, e := range l.Entries {
				if !sameBits(l.Norm2[i], vecmath.SquaredNorm(e)) {
					t.Fatalf("round %d: site %d class %d is not staged from its entry", round, l.Site, l.Classes[i])
				}
			}
		}
		upd := core.UpdateReport{Freq: make([]float64, classes)}
		for c := range upd.Freq {
			upd.Freq[c] = float64(r.IntN(30))
		}
		for k := 0; k < 6; k++ {
			upd.Cells = append(upd.Cells, core.UpdateCell{
				Class: r.IntN(classes), Layer: r.IntN(layers), Count: 1 + r.IntN(4),
				Vec: xrand.NormalVector(r, model.Dim),
			})
		}
		for _, sess := range sessions {
			if err := sess.Upload(ctx, upd); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := views[0].NumCells(); n == 0 {
		t.Fatal("the schedule allocated no cells")
	}
	_, inMerges := local.Stats()
	_, wireMerges := remote.Stats()
	if inMerges != 8*6 || wireMerges != inMerges {
		t.Fatalf("%d cells merged in process and %d over the wire, want %d each", inMerges, wireMerges, 8*6)
	}
	_ = inproc.Close()
	_ = client.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// sameLayers reports the first difference between two materialized views,
// comparing every float by its bits.
func sameLayers(a, b []cache.Layer) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d layers against %d", len(a), len(b))
	}
	for j := range a {
		la, lb := &a[j], &b[j]
		if la.Site != lb.Site || !slices.Equal(la.Classes, lb.Classes) {
			return fmt.Errorf("layer %d: site %d classes %v against site %d classes %v", j, la.Site, la.Classes, lb.Site, lb.Classes)
		}
		if len(la.Entries) != len(lb.Entries) || len(la.Norm2) != len(lb.Norm2) {
			return fmt.Errorf("site %d: entry or norm counts differ", la.Site)
		}
		for i := range la.Entries {
			if !sameBits(la.Norm2[i], lb.Norm2[i]) {
				return fmt.Errorf("site %d class %d: norm² %v against %v", la.Site, la.Classes[i], la.Norm2[i], lb.Norm2[i])
			}
			if !slices.EqualFunc(la.Entries[i], lb.Entries[i], func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }) {
				return fmt.Errorf("site %d class %d: entries differ", la.Site, la.Classes[i])
			}
		}
	}
	return nil
}

// saltedCoord answers every status with a fresh delta whose vectors spell
// the client id, so a reply that another connection's traffic overwrote is
// told from an intact one.
type saltedCoord struct{}

type saltedSession struct{ salt float32 }

func (saltedCoord) Open(_ context.Context, id int) (core.Session, error) {
	return saltedSession{salt: float32(id)}, nil
}
func (saltedSession) Info() core.RegisterInfo                         { return core.RegisterInfo{NumClasses: 30, NumLayers: 4} }
func (saltedSession) Close() error                                    { return nil }
func (saltedSession) Upload(context.Context, core.UpdateReport) error { return nil }
func (s saltedSession) Allocate(context.Context, core.StatusReport) (core.Delta, error) {
	d := core.Delta{Version: 1, Full: true, Classes: []int{1, 2}, Sites: []int{0, 3}}
	for c := 0; c < 24; c++ {
		vec := make([]float32, 64)
		for i := range vec {
			vec[i] = s.salt + float32(c*64+i)/4096
		}
		d.Cells = append(d.Cells, core.DeltaCell{Site: 3 * (c % 2), Class: c, Vec: vec})
	}
	return d, nil
}

func checkSalted(t *testing.T, who string, d core.Delta, id int) {
	t.Helper()
	want, _ := saltedSession{salt: float32(id)}.Allocate(context.Background(), core.StatusReport{})
	if len(d.Cells) != len(want.Cells) {
		t.Fatalf("%s: %d cells, want %d", who, len(d.Cells), len(want.Cells))
	}
	for i, c := range d.Cells {
		w := want.Cells[i]
		if c.Site != w.Site || c.Class != w.Class || len(c.Vec) != len(w.Vec) {
			t.Fatalf("%s: cell %d is (%d,%d) with %d components, want (%d,%d) with %d", who, i, c.Site, c.Class, len(c.Vec), w.Site, w.Class, len(w.Vec))
		}
		for k := range c.Vec {
			if math.Float32bits(c.Vec[k]) != math.Float32bits(w.Vec[k]) {
				t.Fatalf("%s: cell (%d,%d)[%d] = %v, want %v", who, c.Site, c.Class, k, c.Vec[k], w.Vec[k])
			}
		}
	}
}

// TestPoolLiveDeltaIntactWhileOtherConnectionsChurn holds a delta received
// on connection A for its whole validity window — until the session's next
// call — while connections B open, receive their own deltas and close, each
// handing its receive buffer and reply decoders to the pools the next one
// draws on.
func TestPoolLiveDeltaIntactWhileOtherConnectionsChurn(t *testing.T) {
	addr := serveTCP(t, saltedCoord{})
	ctx := context.Background()
	a := dialSession(t, addr, 30, 4)
	defer a.Close()
	sessA, err := a.Open(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	held, err := sessA.Allocate(ctx, core.StatusReport{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b := dialSession(t, addr, 30, 4)
		sessB, err := b.Open(ctx, 10+i)
		if err != nil {
			t.Fatal(err)
		}
		d, err := sessB.Allocate(ctx, core.StatusReport{})
		if err != nil {
			t.Fatal(err)
		}
		checkSalted(t, "connection B", d, 10+i)
		if &d.Cells[0].Vec[0] == &held.Cells[0].Vec[0] {
			t.Fatal("connection B decoded into the arena connection A's live delta is in")
		}
		if err := sessB.Close(); err != nil {
			t.Fatal(err)
		}
		if n := len(b.free); n != 2 {
			t.Fatalf("%d free decoders after an idle session closed, want 2: the Bye's and the one that held its delta", n)
		}
		_ = b.Close()
	}
	checkSalted(t, "connection A", held, 1)
	if err := sessA.Upload(ctx, core.UpdateReport{}); err != nil {
		t.Fatal(err)
	}
	again, err := sessA.Allocate(ctx, core.StatusReport{})
	if err != nil {
		t.Fatal(err)
	}
	checkSalted(t, "connection A, next round", again, 1)
}

// TestPoolKeepsOnlyFreeBoundedDecoders: Close returns the connection's free
// decoders, never one a session with a call in flight holds, and never one
// whose arena outgrew the transport's retention bound.
func TestPoolKeepsOnlyFreeBoundedDecoders(t *testing.T) {
	cConn, sConn := transport.Pipe()
	served := make(chan error, 1)
	go func() { served <- ServeConn(context.Background(), sConn, saltedCoord{}) }()
	client := NewSessionClient(cConn, 30, 4)
	ctx := context.Background()
	sess, err := client.Open(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Allocate(ctx, core.StatusReport{}); err != nil {
		t.Fatal(err)
	}
	ws := sess.(*wireSession)
	busy := ws.dec
	ws.calls++ // as if the owner's Allocate were still in flight on another goroutine
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if ws.dec != busy || len(client.free) != 1 {
		t.Fatalf("Close took the decoder of a session with a call in flight (%d free)", len(client.free))
	}
	oversized := &Decoder{}
	oversized.f32s.buf = make([]float32, transport.MaxScratch/4+1)
	client.free = append(client.free, oversized)
	_ = client.Close()
	<-served
	if client.free != nil {
		t.Fatal("Close kept its free decoders")
	}
	for i := 0; i < 64; i++ { // drain what the pool holds
		switch d, _ := replyDecoders.Get().(*Decoder); d {
		case busy:
			t.Fatal("a decoder a session still held went to the pool")
		case oversized:
			t.Fatal("a decoder above the retention bound went to the pool")
		}
	}
}
