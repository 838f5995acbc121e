package routing

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coca/internal/core"
	"coca/internal/overload"
)

// ---- placement primitives ----

func TestShuffleShardDeterministicBoundedSorted(t *testing.T) {
	const servers, size = 10, 3
	seen := make(map[int]bool)
	for id := 0; id < 200; id++ {
		a := ShuffleShard(id, servers, size, 7)
		b := ShuffleShard(id, servers, size, 7)
		if len(a) != size {
			t.Fatalf("client %d: shard size %d, want %d", id, len(a), size)
		}
		for i, s := range a {
			if s != b[i] {
				t.Fatalf("client %d: shard not deterministic: %v vs %v", id, a, b)
			}
			if s < 0 || s >= servers {
				t.Fatalf("client %d: shard member %d out of range", id, s)
			}
			if i > 0 && a[i-1] >= s {
				t.Fatalf("client %d: shard %v not strictly ascending", id, a)
			}
			seen[s] = true
		}
	}
	if len(seen) != servers {
		t.Errorf("200 shards cover only %d/%d servers", len(seen), servers)
	}
	if got := ShuffleShard(3, 4, 9, 7); len(got) != 4 {
		t.Errorf("oversized shard request: got %v, want all 4 servers", got)
	}
	// A different seed must reshuffle at least some shards.
	diff := 0
	for id := 0; id < 200; id++ {
		a, b := ShuffleShard(id, servers, size, 7), ShuffleShard(id, servers, size, 8)
		for i := range a {
			if a[i] != b[i] {
				diff++
				break
			}
		}
	}
	if diff == 0 {
		t.Error("seed change left every shard identical")
	}
}

func TestRingWalkDeterministicAndBalanced(t *testing.T) {
	const servers = 8
	ring := NewRing(servers, 32, 7)
	counts := make([]int, servers)
	all := func(int) bool { return true }
	for id := 0; id < 1000; id++ {
		s := ring.Walk(id, all)
		if s != ring.Walk(id, all) {
			t.Fatalf("client %d: walk not deterministic", id)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Errorf("server %d got no clients", s)
		}
		if c > 4*1000/servers {
			t.Errorf("server %d got %d/1000 clients (> 4x fair share)", s, c)
		}
	}
	// Rejecting a server reroutes its clients but nobody else's.
	for id := 0; id < 100; id++ {
		home := ring.Walk(id, all)
		moved := ring.Walk(id, func(s int) bool { return s != 2 })
		if home != 2 && moved != home {
			t.Fatalf("client %d moved from %d to %d though server 2 failed", id, home, moved)
		}
		if home == 2 && moved == 2 {
			t.Fatalf("client %d stayed on rejected server", id)
		}
	}
	if ring.Walk(0, func(int) bool { return false }) != -1 {
		t.Error("walk with no acceptable server must return -1")
	}
}

// ---- breaker ----

// fakeClock is an injectable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testBreaker(clk *fakeClock) *Breaker {
	return NewBreaker(BreakerConfig{
		Window: 4, FailureRate: 0.5, MinSamples: 4,
		OpenFor: time.Second, HalfOpenProbes: 2, Now: clk.Now,
	})
}

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := testBreaker(clk)
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("new breaker must be closed and allowing")
	}
	// One early failure must not trip a cold breaker (MinSamples).
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatal("breaker tripped below MinSamples")
	}
	b.Record(true)
	b.Record(false)
	b.Record(true) // window full: 2/4 failures = FailureRate → open
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatalf("breaker %v after hitting failure rate, want open and rejecting", b.State())
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
	// Cool-down: still rejecting before OpenFor, probing after.
	clk.Advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("breaker allowed before cool-down elapsed")
	}
	clk.Advance(time.Millisecond)
	if !b.Allow() || b.State() != BreakerHalfOpen {
		t.Fatalf("breaker %v after cool-down, want half-open and probing", b.State())
	}
	// A probe failure re-opens immediately.
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatal("probe failure did not re-open")
	}
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("second cool-down did not re-probe")
	}
	b.Record(true)
	b.Record(true) // HalfOpenProbes successes → closed, window reset
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatalf("breaker %v after successful probes, want closed", b.State())
	}
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatal("window not reset after close: single failure tripped")
	}
}

func TestBreakerTripAndReset(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := testBreaker(clk)
	b.Trip()
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("tripped breaker must reject")
	}
	clk.Advance(time.Hour)
	if b.Allow() {
		t.Fatal("force-tripped breaker must not half-open on its own")
	}
	b.Reset()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("reset breaker must be closed and allowing")
	}
}

// ---- fake backends ----

type fakeCoord struct {
	opens     atomic.Int64
	failAlloc atomic.Bool
	failOpen  atomic.Bool
}

func (f *fakeCoord) Open(context.Context, int) (core.Session, error) {
	if f.failOpen.Load() {
		return nil, errors.New("fake: open refused")
	}
	f.opens.Add(1)
	return &fakeSession{c: f}, nil
}

type fakeSession struct {
	c       *fakeCoord
	version uint64
}

func (s *fakeSession) Info() core.RegisterInfo {
	return core.RegisterInfo{NumClasses: 4, NumLayers: 2}
}

func (s *fakeSession) Allocate(_ context.Context, status core.StatusReport) (core.Delta, error) {
	if s.c.failAlloc.Load() {
		return core.Delta{}, errors.New("fake: backend down")
	}
	s.version++
	return core.Delta{Version: s.version, Full: s.version == 1 || status.LastVersion != s.version-1}, nil
}

func (s *fakeSession) Upload(context.Context, core.UpdateReport) error { return nil }
func (s *fakeSession) Close() error                                    { return nil }

func fakeFleet(n int) ([]*fakeCoord, []core.Coordinator) {
	coords := make([]*fakeCoord, n)
	targets := make([]core.Coordinator, n)
	for i := range coords {
		coords[i] = &fakeCoord{}
		targets[i] = coords[i]
	}
	return coords, targets
}

// ---- router ----

func TestRouterPolicyPlacement(t *testing.T) {
	for _, policy := range []Policy{PolicyStatic, PolicyHash, PolicySemantic, PolicyRandom} {
		_, targets := fakeFleet(4)
		r := NewRouter(targets, Config{Policy: policy, ShardSize: 2, Seed: 9})
		for id := 0; id < 32; id++ {
			s, err := r.Admit(id)
			if err != nil {
				t.Fatalf("%s: admit %d: %v", policy, id, err)
			}
			if again, _ := r.Admit(id); again != s {
				t.Fatalf("%s: placement not sticky: %d then %d", policy, s, again)
			}
			if policy == PolicyStatic {
				if s != id%4 {
					t.Errorf("static: client %d on %d, want %d", id, s, id%4)
				}
				continue
			}
			shard := r.Shard(id)
			found := false
			for _, m := range shard {
				found = found || m == s
			}
			if !found {
				t.Errorf("%s: client %d placed on %d outside shard %v", policy, id, s, shard)
			}
		}
	}
}

func TestRouterRateLimit(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	_, targets := fakeFleet(2)
	r := NewRouter(targets, Config{Rate: RateConfig{PerSec: 1, Burst: 2}, Now: clk.Now})
	for i := 0; i < 2; i++ {
		if _, err := r.Admit(0); err != nil {
			t.Fatalf("admit %d within burst: %v", i, err)
		}
	}
	if _, err := r.Admit(0); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-burst admit: %v, want ErrRateLimited", err)
	}
	if _, err := r.Admit(1); err != nil {
		t.Fatalf("limiter leaked across clients: %v", err)
	}
	clk.Advance(time.Second)
	if _, err := r.Admit(0); err != nil {
		t.Fatalf("admit after refill: %v", err)
	}
	if r.Stats().RateLimited != 1 {
		t.Errorf("RateLimited = %d, want 1", r.Stats().RateLimited)
	}
}

func TestRouterFailoverOnBackendError(t *testing.T) {
	ctx := context.Background()
	coords, targets := fakeFleet(2)
	r := NewRouter(targets, Config{Policy: PolicyStatic})
	sess, err := r.Open(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if r.Lookup(0) != 0 {
		t.Fatalf("client 0 on %d, want 0", r.Lookup(0))
	}
	coords[0].failAlloc.Store(true)
	d, err := sess.Allocate(ctx, core.StatusReport{})
	if err != nil {
		t.Fatalf("allocate with failover: %v", err)
	}
	if !d.Full {
		t.Error("post-failover allocation not a full resync")
	}
	if got := r.Lookup(0); got != 1 {
		t.Errorf("client 0 on %d after failover, want 1", got)
	}
	if st := r.Stats(); st.Migrations != 1 {
		t.Errorf("Migrations = %d, want 1", st.Migrations)
	}
	if coords[1].opens.Load() == 0 {
		t.Error("failover never opened on the replacement server")
	}
}

func TestRouterBreakerMigration(t *testing.T) {
	ctx := context.Background()
	_, targets := fakeFleet(2)
	r := NewRouter(targets, Config{Policy: PolicyStatic})
	sess, err := r.Open(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	r.TripBreaker(0)
	if _, err := sess.Allocate(ctx, core.StatusReport{}); err != nil {
		t.Fatalf("allocate across tripped breaker: %v", err)
	}
	if got := r.Lookup(0); got != 1 {
		t.Errorf("client 0 on %d after breaker trip, want 1", got)
	}
	// New admissions avoid the tripped server too.
	if s, err := r.Admit(2); err != nil || s != 1 {
		t.Errorf("fresh client placed on %d (%v), want 1", s, err)
	}
	// Everything down → explicit admission error.
	r.TripBreaker(1)
	if _, err := r.Admit(4); !errors.Is(err, ErrNoHealthyServer) {
		t.Errorf("all-down admit: %v, want ErrNoHealthyServer", err)
	}
}

func TestRouterSemanticRebalance(t *testing.T) {
	ctx := context.Background()
	_, targets := fakeFleet(2)
	r := NewRouter(targets, Config{Policy: PolicySemantic, ShardSize: 2, Seed: 3})
	const clients = 6
	sessions := make([]core.Session, clients)
	for id := 0; id < clients; id++ {
		s, err := r.Open(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sessions[id] = s
		// Two orthogonal class-profile groups: even clients hammer class
		// 0, odd clients class 1.
		freq := make([]float64, 4)
		freq[id%2] = 10
		for i := 0; i < 3; i++ {
			if err := s.Upload(ctx, core.UpdateReport{Freq: freq}); err != nil {
				t.Fatal(err)
			}
		}
	}
	mixed := func() bool {
		groups := map[int]map[int]bool{}
		for id := 0; id < clients; id++ {
			s := r.Lookup(id)
			if groups[s] == nil {
				groups[s] = map[int]bool{}
			}
			groups[s][id%2] = true
		}
		for _, g := range groups {
			if len(g) > 1 {
				return true
			}
		}
		return false
	}
	if !mixed() {
		t.Skip("hash placement already separated the groups; nothing to rebalance")
	}
	// Iterate rebalance → commit (migrations land at the next Allocate)
	// until a fixed point.
	for i := 0; i < 8; i++ {
		moved := r.Rebalance()
		for id, s := range sessions {
			if _, err := s.Allocate(ctx, core.StatusReport{}); err != nil {
				t.Fatalf("commit client %d: %v", id, err)
			}
		}
		if moved == 0 {
			break
		}
	}
	if mixed() {
		occ := r.Occupancy()
		t.Errorf("semantic rebalance left profile groups mixed (occupancy %v)", occ)
	}
	if r.Stats().Rebalanced == 0 {
		t.Error("no rebalance migrations counted")
	}
	// Stability: a converged fleet must not ping-pong.
	if moved := r.Rebalance(); moved != 0 {
		t.Errorf("converged fleet still moved %d clients", moved)
	}
}

// loadedCoord is a backend that reports a constant, healthy load snapshot,
// so a sheddable admission runs the whole shed decision (snapshot read,
// CoDel check) and is admitted. Admission never opens sessions.
type loadedCoord struct{ snap overload.Snapshot }

func (c *loadedCoord) Open(context.Context, int) (core.Session, error) {
	return nil, errors.New("loadedCoord: admission-only backend")
}

func (c *loadedCoord) LoadSnapshot() overload.Snapshot { return c.snap }

// TestRouterAdmitSteadyStateAllocs pins the front-door decision at zero
// allocations once a client's record exists: the plain critical-class
// admission (token bucket, breaker gate, sticky placement), and the
// sheddable-class one with queue-depth shedding on and every backend
// reporting load — degraded-mode control flow may not allocate either.
func TestRouterAdmitSteadyStateAllocs(t *testing.T) {
	const clients = 64
	loaded := make([]core.Coordinator, 8)
	for i := range loaded {
		loaded[i] = &loadedCoord{snap: overload.Snapshot{Depth: 4, QueueWait: time.Millisecond}}
	}
	_, plain := fakeFleet(8)
	for _, tc := range []struct {
		name    string
		targets []core.Coordinator
		shed    overload.ShedConfig
		class   overload.Class
	}{
		{"admit", plain, overload.ShedConfig{}, overload.ClassCritical},
		{"shed", loaded, overload.ShedConfig{Target: 5 * time.Millisecond, MaxDepth: 64}, overload.ClassSheddable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRouter(tc.targets, Config{Policy: PolicyHash, ShardSize: 3,
				Rate: RateConfig{PerSec: 1e9}, Shed: tc.shed})
			admitAll := func() {
				for id := 0; id < clients; id++ {
					if _, err := r.AdmitClass(id, tc.class); err != nil {
						t.Fatal(err)
					}
				}
			}
			admitAll()
			if allocs := testing.AllocsPerRun(100, admitAll); allocs != 0 {
				t.Errorf("steady-state %s: %.2f allocs per %d admissions, want 0", tc.name, allocs, clients)
			}
		})
	}
}

// ---- front door ----

func TestFrontDoorRedirects(t *testing.T) {
	ctx := context.Background()
	addrs := []string{"10.0.0.1:70", "10.0.0.2:70"}
	fd := NewFrontDoor(addrs, Config{Policy: PolicyHash, Seed: 5})
	sess, err := fd.Open(ctx, 0)
	if sess != nil {
		t.Fatal("front door must never return a session")
	}
	var re *core.RedirectError
	if !errors.As(err, &re) {
		t.Fatalf("front door returned %v, want RedirectError", err)
	}
	target := re.Addr
	if target != addrs[0] && target != addrs[1] {
		t.Fatalf("redirect to unknown address %q", target)
	}
	// Placement is sticky across opens.
	_, err = fd.Open(ctx, 0)
	var re2 *core.RedirectError
	if !errors.As(err, &re2) || re2.Addr != target {
		t.Fatalf("second open redirected to %v, want %q again", err, target)
	}
	// Failing health checks open the target's breaker and move the client.
	down := target
	for i := 0; i < 8; i++ {
		fd.HealthCheck(func(addr string) error {
			if addr == down {
				return errors.New("probe refused")
			}
			return nil
		})
	}
	if _, err = fd.Open(ctx, 0); !errors.As(err, &re) {
		t.Fatalf("open after brown-out: %v", err)
	}
	if re.Addr == down {
		t.Errorf("client still routed to unhealthy %q", down)
	}
	if fd.Stats().Opens != 3 {
		t.Errorf("Opens = %d, want 3", fd.Stats().Opens)
	}
}

// TestFrontDoorTableBounded: a front door never sees a Close and takes its
// client ids off untrusted sockets, so its table must stay bounded however
// many distinct ids arrive — and forgetting a record must not move the
// client: every id is redirected exactly where an unbounded router with the
// same configuration places it, on first sight and again after its record
// has been evicted.
func TestFrontDoorTableBounded(t *testing.T) {
	ctx := context.Background()
	addrs := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
	cfg := Config{Policy: PolicyHash, Seed: 9, ShardSize: 3}
	fd := NewFrontDoor(addrs, cfg)
	ref := NewRouter(make([]core.Coordinator, len(addrs)), cfg)
	placed := func(id int) string {
		t.Helper()
		_, err := fd.Open(ctx, id)
		var re *core.RedirectError
		if !errors.As(err, &re) {
			t.Fatalf("client %d: front door returned %v, want a redirect", id, err)
		}
		return re.Addr
	}
	const ids = 200_000
	for id := 0; id < ids; id++ {
		want, err := ref.Admit(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := placed(id); got != addrs[want] {
			t.Fatalf("client %d redirected to %s, unbounded router places it on %s", id, got, addrs[want])
		}
		if n := len(fd.r.clients); n > frontDoorMaxClients {
			t.Fatalf("front door holds %d records after %d ids, bound is %d", n, id+1, frontDoorMaxClients)
		}
	}
	for id := 0; id < ids; id += 997 { // long evicted
		if got, want := placed(id), addrs[ref.Lookup(id)]; got != want {
			t.Fatalf("client %d re-opened after eviction: redirected to %s, first placed on %s", id, got, want)
		}
	}
}

// TestFrontDoorEvictionKeepsRateLimits: eviction takes refilled buckets
// first, so a client that has spent its burst stays limited while idle
// records around it are dropped; only when more than half the table is
// mid-refill do live buckets go, and the table still stays bounded.
func TestFrontDoorEvictionKeepsRateLimits(t *testing.T) {
	ctx := context.Background()
	now := time.Unix(1000, 0)
	fd := NewFrontDoor([]string{"a:1", "b:1"}, Config{
		Rate: RateConfig{PerSec: 1, Burst: 1}, Now: func() time.Time { return now }})
	open := func(id int) error { _, err := fd.Open(ctx, id); return err }
	// Fill most of the table, then let those buckets refill.
	for id := 1; id < frontDoorMaxClients; id++ {
		_ = open(id)
	}
	now = now.Add(5 * time.Second)
	if err := open(0); errors.Is(err, ErrRateLimited) {
		t.Fatal("first open rate limited")
	}
	_ = open(-1) // the table is full: evicts the refilled records, not client 0's
	if n := len(fd.r.clients); n != 2 {
		t.Fatalf("%d records after evicting the idle ones, want 2", n)
	}
	if err := open(0); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("client 0 after eviction of idle records: %v, want rate limited", err)
	}
	// A flood of distinct ids inside one refill period: nothing is idle,
	// and the table is still bounded.
	for id := 10; id < 10+3*frontDoorMaxClients; id++ {
		_ = open(id)
		if n := len(fd.r.clients); n > frontDoorMaxClients {
			t.Fatalf("front door holds %d records, bound is %d", n, frontDoorMaxClients)
		}
	}
}
