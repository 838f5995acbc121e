package protocol

// Codec allocation regression: with a per-connection Decoder and a reused
// encode buffer, a steady-state delta exchange must not touch the heap.

import (
	"bytes"
	"context"
	"testing"

	"coca/internal/core"
	"coca/internal/stream"
	"coca/internal/transport"
)

func benchDeltaMessage() *Message {
	vec := make([]float32, 64)
	for i := range vec {
		vec[i] = float32(i) * 0.013
	}
	d := &core.Delta{Version: 9, BaseVersion: 8, Classes: []int{1, 2, 5}, Sites: []int{0, 3}}
	for c := 0; c < 24; c++ {
		d.Cells = append(d.Cells, core.DeltaCell{Site: c % 4, Class: c, Vec: vec})
	}
	d.Evict = []core.CellRef{{Site: 1, Class: 9}, {Site: 2, Class: 4}}
	return &Message{Type: TypeDelta, ClientID: 3, SessionID: 17, Delta: d}
}

func TestCodecSteadyStateAllocs(t *testing.T) {
	msg := benchDeltaMessage()
	var dec Decoder
	var enc []byte
	// Warm the scratch to its high-water shape.
	for i := 0; i < 3; i++ {
		frame, err := AppendEncode(enc[:0], msg)
		if err != nil {
			t.Fatal(err)
		}
		enc = frame
		if _, err := dec.Decode(frame); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		frame, err := AppendEncode(enc[:0], msg)
		if err != nil {
			t.Fatal(err)
		}
		enc = frame
	}); allocs != 0 {
		t.Errorf("steady-state AppendEncode: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := dec.Decode(enc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state Decoder.Decode: %.1f allocs/op, want 0", allocs)
	}
}

// fixedCoord is a coordinator whose one session answers every status with
// the same delta and accepts every update, without allocating — so an
// allocation count over an exchange against it is the wire path's alone.
type fixedCoord struct{ delta core.Delta }

func (c *fixedCoord) Open(context.Context, int) (core.Session, error) { return c, nil }
func (c *fixedCoord) Info() core.RegisterInfo                         { return core.RegisterInfo{NumClasses: 30, NumLayers: 4} }
func (c *fixedCoord) Close() error                                    { return nil }
func (c *fixedCoord) Upload(context.Context, core.UpdateReport) error { return nil }
func (c *fixedCoord) Allocate(context.Context, core.StatusReport) (core.Delta, error) {
	return c.delta, nil
}

// TestWireExchangeSteadyStateAllocs pins the whole wire path, not just the
// codec: once warm, a Status→Delta→Update→Ack exchange over loopback TCP
// allocates nothing in transport + protocol on either end (AllocsPerRun
// counts the serving goroutine's mallocs too).
func TestWireExchangeSteadyStateAllocs(t *testing.T) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			served <- err
			return
		}
		served <- ServeConn(ctx, conn, &fixedCoord{delta: *benchDeltaMessage().Delta})
	}()
	conn, err := transport.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	client := NewSessionClient(conn, 30, 4)
	sess, err := client.Open(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	status := core.StatusReport{Tau: []int{3, 1, 4, 1}, HitRatio: []float64{0.5, 0.25, 0.125, 0}, Budget: 40, RoundFrames: 300}
	update := core.UpdateReport{Freq: make([]float64, 30)}
	for _, c := range benchDeltaMessage().Delta.Cells {
		update.Cells = append(update.Cells, core.UpdateCell{Class: c.Class, Layer: c.Site, Count: 2, Vec: c.Vec})
	}
	exchange := func() {
		d, err := sess.Allocate(ctx, status)
		if err != nil || len(d.Cells) != 24 || len(d.Cells[23].Vec) != 64 {
			t.Fatalf("allocate: %d cells, %v", len(d.Cells), err)
		}
		status.LastVersion = d.Version
		if err := sess.Upload(ctx, update); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		exchange() // warm every buffer to its high-water shape
	}
	if allocs := testing.AllocsPerRun(50, exchange); allocs != 0 {
		t.Errorf("steady-state Status→Delta→Update→Ack over TCP: %.1f allocs per exchange, want 0", allocs)
	}
	cancel()
	_ = client.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestReplyDecodersPooledPerConnection: sessions multiplexed on one
// connection each hold a decoder only while their reply is live. Two live
// replies never share one (no tearing), and sessions driven one after the
// other — allocate, apply, upload, next session — reuse a single decoder
// instead of pinning one delta-sized arena each.
func TestReplyDecodersPooledPerConnection(t *testing.T) {
	ctx := context.Background()
	cConn, sConn := transport.Pipe()
	served := make(chan error, 1)
	go func() { served <- ServeConn(ctx, sConn, &fixedCoord{delta: *benchDeltaMessage().Delta}) }()
	client := NewSessionClient(cConn, 30, 4)
	var sessions []core.Session
	for id := 0; id < 6; id++ {
		sess, err := client.Open(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
	}
	for round := 0; round < 3; round++ {
		for _, sess := range sessions {
			if _, err := sess.Allocate(ctx, core.StatusReport{}); err != nil {
				t.Fatal(err)
			}
			if err := sess.Upload(ctx, core.UpdateReport{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(client.free); n != 1 {
		t.Fatalf("%d pooled decoders after sequential use of %d sessions, want 1", n, len(sessions))
	}
	// Two replies live at once: each in its own decoder, neither disturbed
	// by the other session's round trips.
	a, err := sessions[0].Allocate(ctx, core.StatusReport{})
	if err != nil {
		t.Fatal(err)
	}
	first := a.Cells[0].Vec[1]
	a.Cells[0].Vec[1] = -7 // scribble: a torn reply would overwrite it
	b, err := sessions[1].Allocate(ctx, core.StatusReport{})
	if err != nil {
		t.Fatal(err)
	}
	if &a.Cells[0].Vec[0] == &b.Cells[0].Vec[0] {
		t.Fatal("two live replies share one decoder arena")
	}
	if a.Cells[0].Vec[1] != -7 || b.Cells[0].Vec[1] != first {
		t.Fatalf("session 1's reply disturbed session 0's: %v, %v", a.Cells[0].Vec[1], b.Cells[0].Vec[1])
	}
	_ = client.Close()
	<-served
}

// TestDecoderMatchesDecode cross-checks the scratch decoder against the
// allocating decoder on every sample message.
func TestDecoderMatchesDecode(t *testing.T) {
	var dec Decoder
	for _, m := range append(sampleMessages(), sampleMessagesV4()...) {
		frame, err := Encode(m)
		if err != nil {
			t.Fatalf("encode %d: %v", m.Type, err)
		}
		want, err := Decode(frame)
		if err != nil {
			t.Fatalf("decode %d: %v", m.Type, err)
		}
		got, err := dec.Decode(frame)
		if err != nil {
			t.Fatalf("decoder %d: %v", m.Type, err)
		}
		// Nil and empty slices are wire-equivalent; compare via re-encode,
		// which is the contract that matters.
		wantBytes, err := Encode(want)
		if err != nil {
			t.Fatalf("re-encode want %d: %v", m.Type, err)
		}
		gotBytes, err := Encode(got)
		if err != nil {
			t.Fatalf("re-encode got %d: %v", m.Type, err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("type %d: decoder result re-encodes differently\n got %x\nwant %x", m.Type, gotBytes, wantBytes)
		}
	}
}

// TestClientRoundOverPipeAllocs pins one whole client round — BeginRound,
// 300 × Infer, EndRound, collection on — against a real server over the
// transport's pipe, counting both ends: once every buffer is at its
// high-water mark a round allocates a small constant, none of it in the view,
// the update table, the client's round scratch or the server's session.
func TestClientRoundOverPipeAllocs(t *testing.T) {
	srv, space := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cConn, sConn := transport.Pipe()
	served := make(chan error, 1)
	go func() { served <- ServeConn(ctx, sConn, srv) }()
	client := NewSessionClient(cConn, space.DS.NumClasses, space.Arch.NumLayers)
	cl, err := core.NewClient(ctx, space, client, core.ClientConfig{Theta: 0.035, Budget: 40})
	if err != nil {
		t.Fatal(err)
	}
	part, err := stream.NewPartition(stream.Config{
		Dataset: space.DS, NumClients: 1, SceneMeanFrames: 20, WorkingSetSize: 6, WorkingSetChurn: 0.05, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := part.Client(0)
	activated := 0 // the most layers a round's cache had
	round := func() {
		if err := cl.BeginRound(); err != nil {
			t.Fatal(err)
		}
		activated = max(activated, len(cl.Cache().Layers()))
		for f := 0; f < core.DefaultRoundFrames; f++ {
			cl.Infer(gen.Next())
		}
		if err := cl.EndRound(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		round() // every site activated, every buffer grown
	}
	_, merged := srv.Stats()
	const rounds = 20
	allocs := testing.AllocsPerRun(rounds-1, round) * rounds
	_, after := srv.Stats()
	if after == merged {
		t.Fatal("no cell merged: collection is not on")
	}
	// What a round still allocates: the pipe's copy of each of its four
	// frames; the new local cache (cache.NewLocal: the cache, its layer list,
	// two for its sort and one norm slice per activated layer); one for
	// whatever still grows now and then (a cell the update table never held);
	// and on the server one immutable entry per merged cell, which is taken
	// out of the count.
	perRound := (allocs - float64(after-merged)) / rounds
	if max := float64(4 + 4 + activated + 1); perRound > max {
		t.Errorf("steady-state client round over the pipe: %.1f allocs (entries of merged cells aside), want <= %.0f", perRound, max)
	}
	t.Logf("%.1f allocs per round, plus %.1f merged cells per round", perRound, float64(after-merged)/rounds)
	cancel()
	_ = cl.Close()
	_ = client.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}
