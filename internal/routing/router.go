package routing

import (
	"context"
	"errors"
	"math"
	"sort"
	"strconv"
	"sync"

	"coca/internal/core"
	"coca/internal/overload"
	"coca/internal/telemetry"
	"coca/internal/vecmath"
	"coca/internal/xrand"
)

// ErrNoHealthyServer is returned by admission when every server a
// client may be placed on is rejecting traffic.
var ErrNoHealthyServer = errors.New("routing: no healthy server in shard")

// ErrShed is returned by admission when queue-depth load shedding
// rejects a sheddable request: the placed server's standing queue is
// above the configured target. The caller should not retry immediately
// (retrying shed work is exactly what turns overload into collapse).
var ErrShed = errors.New("routing: shed by queue-depth overload control")

// Router is the in-process control-plane front door: it implements
// core.Coordinator over a set of backend coordinators (core servers,
// federation nodes, or wire session clients), owning placement,
// admission and live migration. Clients open sessions against the
// Router exactly as they would against a single server; the Router
// places each on a backend per Config.Policy, gates it through the
// target's circuit breaker and the client's token bucket, and migrates
// the session transparently when a breaker opens or a semantic
// Rebalance reassigns it.
type Router struct {
	cfg      Config
	targets  []core.Coordinator
	ring     *Ring
	breakers []*Breaker
	// loads[i] is target i's load reporter (nil when the target cannot
	// report load); sheds[i] is its shed state, guarded by mu.
	loads []overload.LoadReporter
	sheds []overload.Shedder

	mu      sync.Mutex
	clients map[int]*clientState
	stats   Stats
	// maxClients bounds the client table (0 = unbounded). The in-process
	// Router's records are owned by live sessions and carry their class
	// profiles; a FrontDoor never sees a Close and takes ids from untrusted
	// sockets, so it sets a bound and client() evicts at it.
	maxClients int
}

// clientState is the router's per-client record.
type clientState struct {
	shard   []int
	server  int // current placement, -1 before first admission
	pending int // migration target ordered by Rebalance, -1 none
	profile []float64
	bkt     bucket
}

func (st *clientState) inShard(s int) bool {
	for _, m := range st.shard {
		if m == s {
			return true
		}
	}
	return false
}

// NewRouter builds a router over the given backends. The target slice
// is owned by the router; index i is "server i" everywhere (breakers,
// stats, TripBreaker).
func NewRouter(targets []core.Coordinator, cfg Config) *Router {
	cfg = cfg.withDefaults(len(targets))
	r := &Router{
		cfg:      cfg,
		targets:  targets,
		ring:     NewRing(len(targets), cfg.VNodes, cfg.Seed),
		breakers: make([]*Breaker, len(targets)),
		clients:  make(map[int]*clientState),
	}
	for i := range r.breakers {
		r.breakers[i] = NewBreaker(cfg.Breaker)
		r.breakers[i].SetName("server-" + strconv.Itoa(i))
	}
	r.loads = make([]overload.LoadReporter, len(targets))
	r.sheds = make([]overload.Shedder, len(targets))
	for i, t := range targets {
		if lr, ok := t.(overload.LoadReporter); ok {
			r.loads[i] = lr
		}
		r.sheds[i] = overload.NewShedder(cfg.Shed)
	}
	return r
}

// NumServers returns the backend count.
func (r *Router) NumServers() int { return len(r.targets) }

// Breaker returns server s's circuit breaker.
func (r *Router) Breaker(s int) *Breaker { return r.breakers[s] }

// TripBreaker force-opens server s's breaker (administrative drain /
// brown-out simulation).
func (r *Router) TripBreaker(s int) { r.breakers[s].Trip() }

// Stats returns a snapshot of the control-plane counters.
func (r *Router) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Shard returns the client's shuffle shard (computing it on first use).
func (r *Router) Shard(clientID int) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.client(clientID).shard...)
}

// Lookup returns the client's current placement without admitting
// (-1 when the client has never been placed).
func (r *Router) Lookup(clientID int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.clients[clientID]; ok {
		return st.server
	}
	return -1
}

// Occupancy returns how many known clients are currently placed on
// each server.
func (r *Router) Occupancy() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	occ := make([]int, len(r.targets))
	for _, st := range r.clients {
		if st.server >= 0 {
			occ[st.server]++
		}
	}
	return occ
}

// client returns (creating if needed) the per-client record. Caller
// holds r.mu.
func (r *Router) client(clientID int) *clientState {
	st, ok := r.clients[clientID]
	if !ok {
		if r.maxClients > 0 && len(r.clients) >= r.maxClients {
			r.evict()
		}
		st = &clientState{
			shard:   ShuffleShard(clientID, len(r.targets), r.cfg.ShardSize, r.cfg.Seed),
			server:  -1,
			pending: -1,
		}
		r.clients[clientID] = st
	}
	return st
}

// evict makes room in a bounded client table. Idle records go first: a
// record whose token bucket has refilled holds nothing a fresh record would
// not — its next admission starts from a full bucket and a placement
// recomputed from the ring and the breakers, which is where it was placed
// unless a breaker has closed again since. If more than half the table is
// still mid-refill (that many distinct ids inside one refill period),
// arbitrary records go too, down to half: forgetting one forgives its id
// one burst, which an id-forging caller gets from a fresh id anyway, and
// leaving half the table free keeps eviction amortized O(1) per admission.
// Caller holds r.mu.
func (r *Router) evict() {
	now := r.cfg.Now()
	for id, st := range r.clients {
		if st.bkt.refilled(r.cfg.Rate, now) {
			delete(r.clients, id)
		}
	}
	for id := range r.clients {
		if len(r.clients) <= r.maxClients/2 {
			break
		}
		delete(r.clients, id)
	}
}

// Admit is the admission hot path: rate-limit the client, keep its
// sticky placement while the target's breaker admits traffic, and
// re-place it otherwise. It returns the server index to use. Admit
// performs no allocation once the client's record exists. Admission
// requests are critical-class (allocations and uploads stall a client's
// round); speculative work goes through AdmitClass.
func (r *Router) Admit(clientID int) (int, error) {
	return r.AdmitClass(clientID, overload.ClassCritical)
}

// AdmitClass is Admit with an explicit request class: sheddable requests
// (probe refreshes, prefetches, background resyncs) are additionally
// subject to the queue-depth shed decision of the server they would land
// on, and rejected with ErrShed while its standing queue persists above
// the configured target. Like Admit it performs no allocation once the
// client's record exists.
func (r *Router) AdmitClass(clientID int, class overload.Class) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.admitLocked(clientID, class)
}

func (r *Router) admitLocked(clientID int, class overload.Class) (int, error) {
	st := r.client(clientID)
	if r.cfg.Rate.enabled() && !st.bkt.take(r.cfg.Rate, r.cfg.Now()) {
		r.stats.RateLimited++
		telemetry.RoutingRejections.Inc(telemetry.RejectRateLimited)
		return -1, ErrRateLimited
	}
	if st.server >= 0 {
		if r.breakers[st.server].Allow() {
			if !r.shedAdmit(st.server, class) {
				return -1, ErrShed
			}
			telemetry.RoutingAdmissions.Inc()
			return st.server, nil
		}
		r.stats.BreakerDenials++
	}
	s := r.place(clientID, st, -1)
	if s < 0 {
		telemetry.RoutingRejections.Inc(telemetry.RejectNoHealthy)
		return -1, ErrNoHealthyServer
	}
	if !r.shedAdmit(s, class) {
		return -1, ErrShed
	}
	st.server = s
	telemetry.RoutingAdmissions.Inc()
	return s, nil
}

// shedAdmit runs server s's queue-depth shed decision for a request of
// the given class. Caller holds r.mu. Critical work, disabled shedding
// and non-reporting targets always admit.
func (r *Router) shedAdmit(s int, class overload.Class) bool {
	if class == overload.ClassCritical || !r.cfg.Shed.Enabled() || r.loads[s] == nil {
		return true
	}
	if r.sheds[s].Admit(r.cfg.Now(), r.loads[s].LoadSnapshot(), class) {
		return true
	}
	r.stats.Shed++
	telemetry.RoutingRejections.Inc(telemetry.RejectShed)
	telemetry.OverloadSheds.Inc()
	return false
}

// place picks a server for the client per policy, skipping servers
// whose breakers reject and the excluded index (-1 for none). Caller
// holds r.mu.
func (r *Router) place(clientID int, st *clientState, exclude int) int {
	allow := func(s int) bool {
		if s == exclude {
			return false
		}
		if !r.breakers[s].Allow() {
			r.stats.BreakerDenials++
			return false
		}
		return true
	}
	switch r.cfg.Policy {
	case PolicyStatic:
		n := len(r.targets)
		for i := 0; i < n; i++ {
			if s := (clientID + i) % n; allow(s) {
				return s
			}
		}
	case PolicyRandom:
		n := len(st.shard)
		idx := int(xrand.HashSeed(r.cfg.Seed, 0x72616e64, uint64(clientID)) % uint64(n)) // "rand"
		for i := 0; i < n; i++ {
			if s := st.shard[(idx+i)%n]; allow(s) {
				return s
			}
		}
	default: // hash, semantic: ring walk within the shuffle shard
		return r.ring.Walk(clientID, func(s int) bool {
			return st.inShard(s) && allow(s)
		})
	}
	return -1
}

// Open implements core.Coordinator: admit, open on the placed backend,
// and wrap the session so every subsequent call is migration-aware.
func (r *Router) Open(ctx context.Context, clientID int) (core.Session, error) {
	r.mu.Lock()
	s, err := r.admitLocked(clientID, overload.ClassCritical)
	if err == nil {
		r.stats.Opens++
	}
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	sess, err := r.targets[s].Open(ctx, clientID)
	r.breakers[s].Record(err == nil)
	if err != nil {
		return nil, err
	}
	return &routedSession{r: r, clientID: clientID, server: s, sess: sess}, nil
}

// checkMigration reports whether the client must move before its next
// allocation: a pending Rebalance order, or its current server's
// breaker rejecting traffic.
func (r *Router) checkMigration(clientID, cur int) (tgt int, reason string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, found := r.clients[clientID]
	if !found {
		return 0, "", false
	}
	if st.pending >= 0 {
		tgt, st.pending = st.pending, -1
		if tgt != cur {
			return tgt, "rebalance", true
		}
	}
	if !r.breakers[cur].Allow() {
		r.stats.BreakerDenials++
		if s := r.place(clientID, st, cur); s >= 0 {
			return s, "breaker-open", true
		}
	}
	return 0, "", false
}

// failover re-places a client after a backend error on cur. It returns
// the replacement target, or ok=false when no shard member admits.
func (r *Router) failover(clientID, cur int) (tgt int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, found := r.clients[clientID]
	if !found {
		return 0, false
	}
	if s := r.place(clientID, st, cur); s >= 0 {
		return s, true
	}
	return 0, false
}

// noteMigration commits a completed migration to the client record and
// counters.
func (r *Router) noteMigration(clientID, tgt int, reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	from := -1
	if st, ok := r.clients[clientID]; ok {
		from = st.server
		st.server = tgt
		st.pending = -1
	}
	r.stats.Migrations++
	if reason == "rebalance" {
		r.stats.Rebalanced++
	}
	telemetry.RoutingMigrations.Inc()
	if tr := telemetry.Trace(); tr != nil {
		tr.Emit("migration",
			telemetry.Int("client", clientID),
			telemetry.Int("from", from),
			telemetry.Int("to", tgt),
			telemetry.Str("reason", reason))
	}
}

// observe folds one upload's class-frequency vector into the client's
// profile EMA: profile = decay·profile + freq.
func (r *Router) observe(clientID int, freq []float64) {
	if len(freq) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.clients[clientID]
	if !ok {
		return
	}
	if len(st.profile) != len(freq) {
		st.profile = make([]float64, len(freq))
	}
	d := r.cfg.ProfileDecay
	for i, f := range freq {
		st.profile[i] = d*st.profile[i] + f
	}
}

// Rebalance runs one pass of semantic placement: every client's class
// profile is scored against the aggregate profile of each shard
// member's resident fleet (leave-one-out for its own cell) with the
// staged cosine kernels, and clients whose footprint matches another
// cell by more than RebalanceMargin — and whose target cell is under
// the headroom capacity — get a pending migration, honored at their
// next allocation. Returns the number of migrations ordered. A no-op
// under non-semantic policies.
func (r *Router) Rebalance() int {
	if r.cfg.Policy != PolicySemantic {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	ids := make([]int, 0, len(r.clients))
	for id := range r.clients {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	n := len(r.targets)
	occ := make([]int, n)
	var dim int
	for _, id := range ids {
		st := r.clients[id]
		if st.server >= 0 {
			occ[st.server]++
		}
		if len(st.profile) > dim {
			dim = len(st.profile)
		}
	}
	if dim == 0 {
		return 0
	}
	capacity := (len(ids) + n - 1) / n
	capacity += int(math.Ceil(float64(capacity) * r.cfg.CellHeadroom))

	// Per-server aggregate profiles of the resident fleets.
	agg := make([][]float64, n)
	for i := range agg {
		agg[i] = make([]float64, dim)
	}
	for _, id := range ids {
		st := r.clients[id]
		if st.server < 0 || len(st.profile) == 0 {
			continue
		}
		addInto(agg[st.server], st.profile)
	}

	moved := 0
	rows := make([][]float64, 0, n)
	norm2 := make([]float64, 0, n)
	snorm := make([]float64, 0, n)
	cos := make([]float32, 0, n)
	loo := make([]float64, dim)
	for _, id := range ids {
		st := r.clients[id]
		if st.server < 0 || len(st.profile) == 0 || st.pending >= 0 {
			continue
		}
		pn2 := dotSelf(st.profile)
		if pn2 == 0 {
			continue
		}
		// Candidate rows: one per shard member; the client's own cell is
		// scored leave-one-out so its presence doesn't anchor it.
		rows, norm2, snorm, cos = rows[:0], norm2[:0], snorm[:0], cos[:0]
		for _, s := range st.shard {
			row := agg[s]
			if s == st.server {
				copy(loo, row)
				subFrom(loo, st.profile)
				row = loo
			}
			rows = append(rows, row)
			norm2 = append(norm2, dotSelf(row))
			snorm = append(snorm, 0)
			cos = append(cos, 0)
		}
		vecmath.SqrtNorms(norm2, snorm)
		vecmath.CosinesWidenedRows(st.profile, math.Sqrt(pn2), rows, snorm, cos)

		cur, best, bestScore := float32(-2), -1, float32(-2)
		for i, s := range st.shard {
			if s == st.server {
				cur = cos[i]
				continue
			}
			if r.breakers[s].State() == BreakerOpen || occ[s] >= capacity {
				continue
			}
			if cos[i] > bestScore {
				best, bestScore = s, cos[i]
			}
		}
		if best >= 0 && float64(bestScore) > float64(cur)+r.cfg.RebalanceMargin {
			st.pending = best
			occ[st.server]--
			occ[best]++
			subFrom(agg[st.server], st.profile)
			addInto(agg[best], st.profile)
			moved++
		}
	}
	return moved
}

func addInto(dst, src []float64) {
	for i := range src {
		dst[i] += src[i]
	}
}

func subFrom(dst, src []float64) {
	for i := range src {
		dst[i] -= src[i]
	}
}

func dotSelf(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// routedSession wraps one backend session with migration awareness.
// Like any core.Session it is used sequentially by its owning client.
type routedSession struct {
	r        *Router
	clientID int
	server   int
	sess     core.Session
}

// Info returns the current backend session's registration payload.
func (s *routedSession) Info() core.RegisterInfo { return s.sess.Info() }

// Allocate forwards to the placed backend, first honoring any ordered
// migration, and failing over (once) to another shard member on a
// backend error. After a migration the backend session is fresh, so
// the allocation arrives as a Full delta regardless of the version the
// client reports — the version-0 resync that makes migration safe.
func (s *routedSession) Allocate(ctx context.Context, status core.StatusReport) (core.Delta, error) {
	if tgt, reason, ok := s.r.checkMigration(s.clientID, s.server); ok {
		if err := s.migrate(ctx, tgt, reason); err != nil {
			return core.Delta{}, err
		}
	}
	d, err := s.sess.Allocate(ctx, status)
	if err != nil {
		s.r.breakers[s.server].Record(false)
		tgt, ok := s.r.failover(s.clientID, s.server)
		if !ok {
			return core.Delta{}, err
		}
		if merr := s.migrate(ctx, tgt, "failover"); merr != nil {
			return core.Delta{}, errors.Join(err, merr)
		}
		d, err = s.sess.Allocate(ctx, status)
	}
	s.r.breakers[s.server].Record(err == nil)
	if err != nil {
		return core.Delta{}, err
	}
	return d, nil
}

// Upload forwards the round update and, under the semantic policy,
// feeds its class-frequency vector into the client's routing profile.
func (s *routedSession) Upload(ctx context.Context, upd core.UpdateReport) error {
	err := s.sess.Upload(ctx, upd)
	s.r.breakers[s.server].Record(err == nil)
	if err == nil && s.r.cfg.Policy == PolicySemantic {
		s.r.observe(s.clientID, upd.Freq)
	}
	return err
}

// Close releases the backend session.
func (s *routedSession) Close() error { return s.sess.Close() }

// migrate re-opens the session on tgt and retires the old one. The
// client keeps its allocation view; the fresh backend session's first
// Allocate returns a Full delta (version-0 resync), so no state is
// lost and no stale cell survives (Apply resets the cell set on Full).
func (s *routedSession) migrate(ctx context.Context, tgt int, reason string) error {
	ns, err := s.r.targets[tgt].Open(ctx, s.clientID)
	s.r.breakers[tgt].Record(err == nil)
	if err != nil {
		return err
	}
	_ = s.sess.Close()
	s.sess = ns
	s.server = tgt
	s.r.noteMigration(s.clientID, tgt, reason)
	return nil
}
