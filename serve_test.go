package coca

import (
	"context"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"coca/internal/telemetry"
)

func serveOpts() Options {
	return Options{
		Model: "VGG16_BN", Dataset: "ESC-50", Classes: 10,
		NumClients: 3, Rounds: 2, RoundFrames: 50, Budget: 40, Seed: 4,
	}
}

func TestServeAndDialFleet(t *testing.T) {
	ctx := context.Background()
	srv, clients, err := ServeAndDial(ctx, serveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()

	var wg sync.WaitGroup
	reports := make([]Report, len(clients))
	errs := make([]error, len(clients))
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			reports[i], errs[i] = cl.Run(ctx, 0)
		}(i, cl)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i, rep := range reports {
		if rep.Frames != 2*50 {
			t.Fatalf("client %d frames = %d, want 100", i, rep.Frames)
		}
		if rep.AvgLatencyMs <= 0 || rep.AvgLatencyMs >= rep.EdgeOnlyLatencyMs {
			t.Fatalf("client %d latency not reduced: %+v", i, rep)
		}
	}
	for i, cl := range clients {
		if v := cl.ViewVersion(); v != 2 {
			t.Fatalf("client %d view version %d after 2 rounds, want 2", i, v)
		}
		_ = cl.Close()
	}
	allocs, _, sessions := srv.Stats()
	if allocs < 3*2 {
		t.Fatalf("server allocations = %d, want >= 6", allocs)
	}
	if sessions != 0 {
		t.Fatalf("%d sessions still open after client closes", sessions)
	}
}

// TestClientDoubleCloseThenDial: a client closed twice hands its storage
// back once, its second Close returns nil, and it reads an empty view after
// it. Two clients dialed next, open
// at once and run round by round in turn, hold no cell buffer in common and
// report exactly what the first pair reported on a fresh server in the same
// order.
func TestClientDoubleCloseThenDial(t *testing.T) {
	ctx := context.Background()
	opts := serveOpts()
	opts.NumClients = 2
	// pair serves a fresh server, dials clients 0 and 1 and runs three rounds
	// each, alternating; it returns the open clients and their round reports.
	pair := func() ([]*Client, [][]Report) {
		srv, err := Serve(ctx, "127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(sctx)
		})
		clients := make([]*Client, opts.NumClients)
		for id := range clients {
			if clients[id], err = Dial(ctx, srv.Addr(), id, opts); err != nil {
				t.Fatal(err)
			}
		}
		reps := make([][]Report, len(clients))
		for range 3 {
			for id, cl := range clients {
				rep, err := cl.Run(ctx, 1)
				if err != nil {
					t.Fatal(err)
				}
				reps[id] = append(reps[id], rep)
			}
		}
		return clients, reps
	}
	first, want := pair()
	for _, cl := range first {
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := first[0].Close(); err != nil {
		t.Fatalf("second Close: %v, want nil", err)
	}
	if v := first[0].ViewVersion(); v != 0 {
		t.Fatalf("closed client reads view version %d, want 0", v)
	}
	second, got := pair()
	bufs := map[*float32]int{}
	for id, cl := range second {
		for _, l := range cl.client.View().Layers() {
			for _, e := range l.Entries {
				if other, dup := bufs[&e[0]]; dup {
					t.Fatalf("clients %d and %d hold the same cell buffer", other, id)
				}
				bufs[&e[0]] = id
			}
		}
	}
	for _, cl := range second {
		_ = cl.Close()
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("clients dialed after a double Close report\n%v\nwant\n%v", got, want)
	}
}

func TestDialValidatesClientID(t *testing.T) {
	ctx := context.Background()
	srv, err := Serve(ctx, "127.0.0.1:0", serveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()
	if _, err := Dial(ctx, srv.Addr(), 99, serveOpts()); err == nil {
		t.Fatal("out-of-fleet client id accepted")
	}
}

func TestServerShutdownIdempotentAndDraining(t *testing.T) {
	ctx := context.Background()
	srv, clients, err := ServeAndDial(ctx, serveOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range clients {
		if _, err := cl.Run(ctx, 1); err != nil {
			t.Fatal(err)
		}
		_ = cl.Close()
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	// New connections must be refused after shutdown.
	if _, err := Dial(ctx, srv.Addr(), 0, serveOpts()); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestShutdownCountsDrains checks Shutdown's bounded-drain accounting:
// of two sessions open when it begins, the one that closes inside the
// window counts as drained and the one still open at the deadline as
// aborted.
func TestShutdownCountsDrains(t *testing.T) {
	opts := serveOpts()
	opts.NumClients = 2
	srv, clients, err := ServeAndDial(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer clients[1].Close()
	drained0 := telemetry.OverloadDrains.Load(telemetry.DrainDrained)
	aborted0 := telemetry.OverloadDrains.Load(telemetry.DrainAborted)

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		// The listener closes after Shutdown has counted the open
		// sessions; client 0 then ends its session inside the window.
		for {
			c, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				break
			}
			_ = c.Close()
			time.Sleep(5 * time.Millisecond)
		}
		_ = clients[0].Close()
	}()
	sctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	<-closed
	if d := telemetry.OverloadDrains.Load(telemetry.DrainDrained) - drained0; d != 1 {
		t.Errorf("drained grew by %d, want 1", d)
	}
	if a := telemetry.OverloadDrains.Load(telemetry.DrainAborted) - aborted0; a != 1 {
		t.Errorf("aborted grew by %d, want 1", a)
	}
}

// TestServeContextCancelAbortsSessions: cancelling the context given to Serve
// shuts the server down with no drain window, so sessions whose clients never
// hang up are closed at once and counted as aborted.
func TestServeContextCancelAbortsSessions(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, clients, err := ServeAndDial(ctx, serveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, cl := range clients {
			_ = cl.Close()
		}
	}()
	if _, _, open := srv.Stats(); open != len(clients) {
		t.Fatalf("%d sessions open after dialing %d clients", open, len(clients))
	}
	aborted0 := telemetry.OverloadDrains.Load(telemetry.DrainAborted)
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for _, _, open := srv.Stats(); open > 0; _, _, open = srv.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still open 2 s after the serve context was cancelled", open)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if a := telemetry.OverloadDrains.Load(telemetry.DrainAborted) - aborted0; a == 0 {
		t.Error("coca_overload_drains_total{outcome=\"aborted\"} did not grow")
	}
	_ = srv.Shutdown(context.Background())
}

// TestServeFederatedPeers runs two public-API servers that name each
// other in Options.Federation.Peers: both fleets drive rounds, and both endpoints
// must end up having pushed and merged peer deltas (cells and frequency
// increments traveling the wire in both directions).
func TestServeFederatedPeers(t *testing.T) {
	ctx := context.Background()
	base := serveOpts()
	base.NumClients = 4
	base.Rounds = 3

	// Reserve both ports up front so each server can name its peer
	// before either listens; PeerSet dials lazily and retries.
	addrs := make([]string, 2)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		_ = l.Close()
	}
	srvs := make([]*Server, 2)
	for i := range srvs {
		o := base
		o.Federation = &FederationOptions{
			NodeID: i, Peers: []string{addrs[1-i]}, SyncInterval: 30 * time.Millisecond,
		}
		srv, err := Serve(ctx, addrs[i], o)
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
	}
	defer func() {
		for _, srv := range srvs {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = srv.Shutdown(sctx)
			cancel()
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, base.NumClients)
	for id := 0; id < base.NumClients; id++ {
		cl, err := Dial(ctx, addrs[id/2], id, base)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id int, cl *Client) {
			defer wg.Done()
			defer cl.Close()
			_, errs[id] = cl.Run(ctx, 0)
		}(id, cl)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	// Let a few sync ticks land after the last uploads.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if srvs[0].PeerMerges() > 0 && srvs[1].PeerMerges() > 0 &&
			srvs[0].SyncStats().CellsSent > 0 && srvs[1].SyncStats().CellsSent > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("federation did not sync both ways: s0=%+v (merges %d), s1=%+v (merges %d)",
				srvs[0].SyncStats(), srvs[0].PeerMerges(), srvs[1].SyncStats(), srvs[1].PeerMerges())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
