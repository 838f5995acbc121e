package protocol

// What the process-wide pools and the staging contract promise on the wire
// path: a server whose clients are on the wire widens nothing, a reply a
// session holds stays intact whatever other connections take from and return
// to the pools, and only what is provably free, and not above the
// transport's retention bound, goes back.

import (
	"context"
	"math"
	"testing"

	"coca/internal/core"
	"coca/internal/telemetry"
	"coca/internal/transport"
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

// TestWireExchangeLeavesStagingToTheProber: Status→Delta→Update→Ack rounds
// over loopback TCP against a real server leave every table entry unstaged
// — the wire client stages its own copies — while the same allocation
// taken in process is staged as soon as its view is materialized.
func TestWireExchangeLeavesStagingToTheProber(t *testing.T) {
	srv, space := testServer(t)
	client := dialSession(t, serveTCP(t, srv), space.DS.NumClasses, space.Arch.NumLayers)
	defer client.Close()
	ctx := context.Background()
	before := telemetry.CoreStagedEntries.Load()
	sess, err := client.Open(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	status := core.StatusReport{Tau: make([]int, space.DS.NumClasses), Budget: 40, RoundFrames: 300}
	view := core.NewAllocView()
	for round := 0; round < 3; round++ {
		status.LastVersion = view.Version()
		d, err := sess.Allocate(ctx, status)
		if err != nil {
			t.Fatal(err)
		}
		if err := view.Apply(d); err != nil {
			t.Fatal(err)
		}
		upd := core.UpdateReport{Freq: make([]float64, space.DS.NumClasses)}
		for _, l := range view.Layers()[:1] {
			upd.Cells = append(upd.Cells, core.UpdateCell{Class: l.Classes[0], Layer: l.Site, Count: 2, Vec: l.Entries[0]})
			if l.Wide[0] == nil || l.Norm2[0] == 0 {
				t.Fatal("the wire client's view did not stage its own copy")
			}
		}
		if err := sess.Upload(ctx, upd); err != nil {
			t.Fatal(err)
		}
	}
	if _, merges := srv.Stats(); merges != 3 {
		t.Fatalf("%d cells merged over the wire, want 3", merges)
	}
	if got := telemetry.CoreStagedEntries.Load() - before; got != 0 {
		t.Fatalf("serving a wire client staged %d table entries, want none", got)
	}
	local, err := srv.Open(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	d, err := local.Allocate(ctx, status)
	if err != nil {
		t.Fatal(err)
	}
	inproc := core.NewAllocView()
	if err := inproc.Apply(d); err != nil {
		t.Fatal(err)
	}
	inproc.Layers()
	if got := telemetry.CoreStagedEntries.Load() - before; got != uint64(len(d.Cells)) {
		t.Fatalf("materializing %d shared cells in process staged %d entries", len(d.Cells), got)
	}
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
