package coca

// Forced-migration TCP run: a served endpoint starts answering a
// client's allocations with redirects mid-stream (the wire form of the
// routing tier draining a server), and the coca client must follow the
// redirect live — dial the named server, re-open its session there and
// finish every round. Together with the in-memory golden-equivalence
// test (internal/routing) and the routed-cluster smoke
// (internal/federation) this is the CI routing smoke.

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coca/internal/core"
	"coca/internal/protocol"
	"coca/internal/transport"
)

// redirectCoord wraps a coordinator and, after a fixed number of
// allocations, answers every further allocation with a redirect to
// target — the behavior of a draining routed server.
type redirectCoord struct {
	inner  core.Coordinator
	target string
	after  int32
	allocs atomic.Int32
}

func (r *redirectCoord) Open(ctx context.Context, clientID int) (core.Session, error) {
	sess, err := r.inner.Open(ctx, clientID)
	if err != nil {
		return nil, err
	}
	return &redirectSession{c: r, Session: sess}, nil
}

type redirectSession struct {
	c *redirectCoord
	core.Session
}

func (s *redirectSession) Allocate(ctx context.Context, status core.StatusReport) (core.Delta, error) {
	if s.c.allocs.Add(1) > s.c.after {
		return core.Delta{}, &core.RedirectError{Addr: s.c.target, Reason: "draining"}
	}
	return s.Session.Allocate(ctx, status)
}

// serveTCP serves coord on a loopback ephemeral port until the returned
// stop function runs.
func serveTCP(t *testing.T, coord core.Coordinator) (string, func()) {
	t.Helper()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				_ = protocol.ServeConn(ctx, conn, coord)
				_ = conn.Close()
			}()
		}
	}()
	return l.Addr(), func() { cancel(); _ = l.Close() }
}

func TestForcedMigrationTCP(t *testing.T) {
	const rounds = 6
	opts := Options{
		Model: "VGG16_BN", Dataset: "ESC-50", Classes: 10,
		NumClients: 1, Rounds: rounds, Budget: 40, RoundFrames: 40,
		Seed: 3, DialBackoff: 10 * time.Millisecond,
	}
	o := opts.withDefaults()
	space, _, err := o.resolve()
	if err != nil {
		t.Fatal(err)
	}
	scfg := core.ServerConfig{Theta: o.theta(space.Arch), Seed: o.Seed}
	init := core.BuildServerInit(space, scfg)

	// Server B is a plain endpoint; server A redirects to B after three
	// allocations (i.e. at round 3's begin).
	addrB, stopB := serveTCP(t, core.NewServerFrom(space, scfg, init))
	defer stopB()
	addrA, stopA := serveTCP(t, &redirectCoord{
		inner:  core.NewServerFrom(space, scfg, init),
		target: addrB,
		after:  3,
	})
	defer stopA()

	ctx := context.Background()
	cl, err := Dial(ctx, addrA, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got := cl.Addr(); got != addrA {
		t.Fatalf("client opened on %s, want %s", got, addrA)
	}
	rep, err := cl.Run(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Migrations() != 1 {
		t.Errorf("Migrations() = %d, want 1", cl.Migrations())
	}
	if got := cl.Addr(); got != addrB {
		t.Errorf("client ended on %s, want redirect target %s", got, addrB)
	}
	if want := rounds * opts.RoundFrames; rep.Frames != want {
		t.Errorf("ran %d frames, want %d — the migrated rounds must all complete", rep.Frames, want)
	}
	if rep.HitRatio <= 0 {
		t.Errorf("hit ratio %.3f after migration, want > 0", rep.HitRatio)
	}
}

// TestDialRetryExhaustion pins the retry schedule: a dial against a
// dead port fails only after the configured number of attempts.
func TestDialRetryExhaustion(t *testing.T) {
	// Reserve an ephemeral port, then close it so nothing listens there.
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	_ = l.Close()

	_, err = Dial(context.Background(), addr, 0, Options{
		Model: "VGG16_BN", Dataset: "ESC-50", Classes: 10, NumClients: 1,
		DialRetries: 2, DialBackoff: time.Millisecond,
	})
	if err == nil {
		t.Fatal("dial to a dead port succeeded")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error %q does not report the 3 attempts (2 retries)", err)
	}
}
