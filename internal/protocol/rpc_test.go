package protocol

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/engine"
	"coca/internal/metrics"
	"coca/internal/model"
	"coca/internal/semantics"
	"coca/internal/stream"
	"coca/internal/transport"
	"coca/internal/vecmath"
	"coca/internal/xrand"
)

func testServer(t testing.TB) (*core.Server, *semantics.Space) {
	t.Helper()
	space := semantics.NewSpace(dataset.ESC50().Subset(10), model.VGG16BN())
	srv := core.NewServer(space, core.ServerConfig{
		Theta: 0.035, Seed: 3, ProfileSamples: 150, InitSamplesPerClass: 16,
	})
	return srv, space
}

func TestSessionOverPipe(t *testing.T) {
	srv, space := testServer(t)
	ctx := context.Background()
	cConn, sConn := transport.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeConn(ctx, sConn, srv) }()

	coord := NewSessionClient(cConn, space.DS.NumClasses, space.Arch.NumLayers)
	client, err := core.NewClient(ctx, space, coord, core.ClientConfig{
		ID: 0, Theta: 0.035, Budget: 40, RoundFrames: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	part, err := stream.NewPartition(stream.Config{
		Dataset: space.DS, NumClients: 1, SceneMeanFrames: 15,
		WorkingSetSize: 6, WorkingSetChurn: 0.05, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := part.Client(0)
	var acc metrics.Accumulator
	for round := 0; round < 2; round++ {
		if err := client.BeginRound(); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 50; f++ {
			smp := gen.Next()
			res := client.Infer(smp)
			acc.Record(metrics.Obs{LatencyMs: res.LatencyMs, Correct: res.Pred == smp.Class, Hit: res.Hit})
		}
		if err := client.EndRound(); err != nil {
			t.Fatal(err)
		}
	}
	s := acc.Summary()
	if s.HitRatio == 0 {
		t.Fatal("no hits over wire-backed coordinator")
	}
	if v := client.View().Version(); v != 2 {
		t.Fatalf("client view at version %d after 2 rounds, want 2", v)
	}
	allocs, _ := srv.Stats()
	if allocs < 2 {
		t.Fatalf("server allocations = %d", allocs)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("server still holds %d sessions after close", n)
	}
	_ = coord.Close()
	if err := <-done; err != nil {
		t.Fatalf("serve loop: %v", err)
	}
}

func TestSessionOverTCP(t *testing.T) {
	srv, space := testServer(t)
	ctx := context.Background()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			return
		}
		_ = ServeConn(ctx, conn, srv)
	}()

	conn, err := transport.DialContext(ctx, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewSessionClient(conn, space.DS.NumClasses, space.Arch.NumLayers)
	sess, err := coord.Open(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := sess.Info()
	if info.NumClasses != 10 || info.NumLayers != 13 {
		t.Fatalf("register info %+v", info)
	}
	delta, err := sess.Allocate(ctx, core.StatusReport{
		Tau: make([]int, 10), Budget: 30, RoundFrames: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Full || len(delta.Cells) == 0 {
		t.Fatalf("first allocation should be a full delta with cells, got %+v", delta)
	}
	if err := sess.Upload(ctx, core.UpdateReport{Freq: make([]float64, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	_ = coord.Close()
	wg.Wait()
}

// TestConcurrentSessions drives ≥8 clients through one server over the
// in-memory transport, each on its own connection and goroutine, with
// allocations and uploads interleaving freely — the scenario the sharded
// table and session locking exist for. Run under -race in CI.
func TestConcurrentSessions(t *testing.T) {
	srv, space := testServer(t)
	ctx := context.Background()
	const clients = 8
	const rounds = 3

	part, err := stream.NewPartition(stream.Config{
		Dataset: space.DS, NumClients: clients, SceneMeanFrames: 15,
		WorkingSetSize: 6, WorkingSetChurn: 0.05, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		cConn, sConn := transport.Pipe()
		go func() { _ = ServeConn(ctx, sConn, srv) }()
		wg.Add(1)
		go func(id int, conn transport.Conn) {
			defer wg.Done()
			coord := NewSessionClient(conn, space.DS.NumClasses, space.Arch.NumLayers)
			defer coord.Close()
			client, err := core.NewClient(ctx, space, coord, core.ClientConfig{
				ID: id, Theta: 0.035, Budget: 40, RoundFrames: 40,
			})
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", id, err)
				return
			}
			defer client.Close()
			gen := part.Client(id)
			for round := 0; round < rounds; round++ {
				if err := client.BeginRound(); err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", id, round, err)
					return
				}
				for f := 0; f < 40; f++ {
					client.Infer(gen.Next())
				}
				if err := client.EndRound(); err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", id, round, err)
					return
				}
			}
		}(id, cConn)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	allocs, _ := srv.Stats()
	if allocs < clients*rounds {
		t.Fatalf("server allocations = %d, want >= %d", allocs, clients*rounds)
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("%d sessions leaked", n)
	}
}

func TestServerRejectsModelMismatch(t *testing.T) {
	srv, _ := testServer(t)
	cConn, sConn := transport.Pipe()
	go func() { _ = ServeConn(context.Background(), sConn, srv) }()
	coord := NewSessionClient(cConn, 99, 99)
	_, err := coord.Open(context.Background(), 0)
	if err == nil || !strings.Contains(err.Error(), "model mismatch") {
		t.Fatalf("mismatch not rejected: %v", err)
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("mismatched hello leaked %d sessions", n)
	}
	_ = coord.Close()
}

func TestServeConnRepliesErrorOnGarbage(t *testing.T) {
	srv, _ := testServer(t)
	cConn, sConn := transport.Pipe()
	go func() { _ = ServeConn(context.Background(), sConn, srv) }()
	if err := cConn.Send([]byte{0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	frame, err := cConn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeError {
		t.Fatalf("expected error reply, got type %d", m.Type)
	}
	_ = cConn.Close()
}

func TestServerErrorsPropagate(t *testing.T) {
	srv, space := testServer(t)
	ctx := context.Background()
	cConn, sConn := transport.Pipe()
	go func() { _ = ServeConn(ctx, sConn, srv) }()
	coord := NewSessionClient(cConn, space.DS.NumClasses, space.Arch.NumLayers)
	sess, err := coord.Open(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Bad status: wrong tau length.
	if _, err := sess.Allocate(ctx, core.StatusReport{Tau: make([]int, 2), Budget: 10}); err == nil {
		t.Fatal("server-side validation error not propagated")
	}
	_ = coord.Close()
}

// TestServeConnRefusedUploadChangesNothing: over ServeConn, an upload with a
// NaN or infinite frequency, or with a non-finite vector after two good
// cells, is refused whole: Φ and every table version stay as they were, and
// the session goes on to merge a good report.
func TestServeConnRefusedUploadChangesNothing(t *testing.T) {
	srv, space := testServer(t)
	ctx := context.Background()
	cConn, sConn := transport.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeConn(ctx, sConn, srv) }()
	coord := NewSessionClient(cConn, space.DS.NumClasses, space.Arch.NumLayers)
	sess, err := coord.Open(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	versions := func() map[[2]int]uint64 {
		vers := map[[2]int]uint64{}
		for _, c := range srv.AppendCells(nil) {
			vers[[2]int{c.Class, c.Layer}] = c.Ver
		}
		return vers
	}
	r := xrand.New(9)
	report := func(bad float32, freqClass int, f float64) core.UpdateReport {
		upd := core.UpdateReport{Freq: make([]float64, space.DS.NumClasses)}
		upd.Freq[freqClass] = f
		for k := 0; k < 3; k++ {
			v := xrand.NormalVector(r, model.Dim)
			vecmath.Normalize(v)
			upd.Cells = append(upd.Cells, core.UpdateCell{Class: k, Layer: k + 1, Count: 1, Vec: v})
		}
		upd.Cells[2].Vec[5] = bad
		return upd
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, bad := range []struct {
		name string
		upd  core.UpdateReport
	}{
		{"NaN frequency", report(0.1, 2, math.NaN())},
		{"+Inf frequency", report(0.1, 3, math.Inf(1))},
		{"NaN component", report(nan, 0, 1)},
		{"+Inf component", report(inf, 0, 1)},
	} {
		vers, freq := versions(), srv.GlobalFreq()
		if err := sess.Upload(ctx, bad.upd); err == nil {
			t.Fatalf("%s: upload accepted", bad.name)
		}
		if !maps.Equal(versions(), vers) {
			t.Errorf("%s: table versions moved after a refused upload", bad.name)
		}
		if got := srv.GlobalFreq(); !slices.Equal(got, freq) {
			t.Errorf("%s: Φ %v after a refused upload, was %v", bad.name, got, freq)
		}
	}
	if err := sess.Upload(ctx, report(0.1, 0, 1)); err != nil {
		t.Fatalf("a good upload after refused ones: %v", err)
	}
	if _, merges := srv.Stats(); merges != 3 {
		t.Fatalf("%d merges, want 3", merges)
	}
	_ = sess.Close()
	_ = coord.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestUnknownSessionRejected(t *testing.T) {
	srv, _ := testServer(t)
	cConn, sConn := transport.Pipe()
	go func() { _ = ServeConn(context.Background(), sConn, srv) }()
	frame, err := Encode(&Message{
		Type: TypeStatus, ClientID: 0, SessionID: 777,
		Status: &core.StatusReport{Tau: make([]int, 10), Budget: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cConn.Send(frame); err != nil {
		t.Fatal(err)
	}
	resp, err := cConn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeError || !strings.Contains(m.Error, "unknown session") {
		t.Fatalf("unknown session not rejected: %+v", m)
	}
	_ = cConn.Close()
}

// TestServeConnRefusesV1ThenServes: a Hello of each retired version —
// byte for byte as those builds framed it — is answered with an error
// naming version 4 and opens no session, and the same connection then opens
// and serves a session.
func TestServeConnRefusesV1ThenServes(t *testing.T) {
	srv, space := testServer(t)
	ctx := context.Background()
	cConn, sConn := transport.Pipe()
	served := make(chan error, 1)
	go func() { served <- ServeConn(ctx, sConn, srv) }()

	for v := byte(1); v < Version; v++ {
		w := &writer{}
		w.u8(v)
		w.u8(TypeHello)
		w.i32(4) // client id
		if v >= 2 {
			w.u64(0) // session id
		}
		if v >= 3 {
			w.u64(0) // deadline
		}
		w.i32(int32(space.DS.NumClasses))
		w.i32(int32(space.Arch.NumLayers))
		if v >= 2 {
			w.u8(v) // the version the client offered
		}
		if err := cConn.Send(w.buf); err != nil {
			t.Fatal(err)
		}
		frame, err := cConn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		m, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("want %d", Version); m.Type != TypeError || !strings.Contains(m.Error, want) {
			t.Fatalf("v%d hello answered with type %d %q, want an error naming %q", v, m.Type, m.Error, want)
		}
		if n := srv.Sessions(); n != 0 {
			t.Fatalf("refused v%d hello opened %d sessions", v, n)
		}
	}

	coord := NewSessionClient(cConn, space.DS.NumClasses, space.Arch.NumLayers)
	sess, err := coord.Open(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := sess.Allocate(ctx, core.StatusReport{Tau: make([]int, 10), Budget: 30, RoundFrames: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Full || len(delta.Cells) == 0 {
		t.Fatalf("first allocation after the refusal: full=%v with %d cells", delta.Full, len(delta.Cells))
	}
	if err := sess.Upload(ctx, core.UpdateReport{Freq: make([]float64, 10)}); err != nil {
		t.Fatal(err)
	}
	_ = coord.Close()
	if err := <-served; err != nil {
		t.Fatalf("serve loop: %v", err)
	}
}

// TestServeConnCapsSessions: one connection holds at most
// maxSessionsPerConn sessions. The next Hello is refused without opening a
// server session, and the sessions already open keep being served.
func TestServeConnCapsSessions(t *testing.T) {
	srv, space := testServer(t)
	ctx := context.Background()
	cConn, sConn := transport.Pipe()
	served := make(chan error, 1)
	go func() { served <- ServeConn(ctx, sConn, srv) }()
	coord := NewSessionClient(cConn, space.DS.NumClasses, space.Arch.NumLayers)

	sessions := make([]core.Session, maxSessionsPerConn)
	for i := range sessions {
		sess, err := coord.Open(ctx, i)
		if err != nil {
			t.Fatalf("hello %d: %v", i+1, err)
		}
		sessions[i] = sess
	}
	if _, err := coord.Open(ctx, maxSessionsPerConn); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("hello %d past the cap: %v, want a refusal", maxSessionsPerConn+1, err)
	}
	if n := srv.Sessions(); n != maxSessionsPerConn {
		t.Fatalf("server holds %d sessions after the refusal, want %d", n, maxSessionsPerConn)
	}
	for _, i := range []int{0, maxSessionsPerConn / 2, maxSessionsPerConn - 1} {
		delta, err := sessions[i].Allocate(ctx, core.StatusReport{Tau: make([]int, 10), Budget: 30, RoundFrames: 300})
		if err != nil {
			t.Fatalf("session %d after the refusal: %v", i, err)
		}
		if !delta.Full || delta.Version != 1 {
			t.Fatalf("session %d: first delta full=%v version %d, want a Full version 1", i, delta.Full, delta.Version)
		}
	}
	_ = coord.Close()
	if err := <-served; err != nil {
		t.Fatalf("serve loop: %v", err)
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("%d sessions outlived their connection", n)
	}
}

var _ engine.Engine = (*core.Client)(nil)
