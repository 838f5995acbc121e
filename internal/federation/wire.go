package federation

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"coca/internal/protocol"
	"coca/internal/telemetry"
	"coca/internal/transport"
	"coca/internal/xrand"
)

// traceExchange emits one peer_sync trace event for a wire exchange
// attempt (per-peer bytes, duration and outcome). No-op when tracing is
// off.
func (p *PeerSet) traceExchange(start time.Time, peer int, addr string, cells, bytes int, err error) {
	tr := telemetry.Trace()
	if tr == nil {
		return
	}
	fields := []telemetry.Field{
		telemetry.Int("peer", peer),
		telemetry.Str("addr", addr),
		telemetry.Int("cells", cells),
		telemetry.Int("bytes", bytes),
		telemetry.F64("seconds", time.Since(start).Seconds()),
		telemetry.Bool("ok", err == nil),
	}
	if err != nil {
		fields = append(fields, telemetry.Str("error", err.Error()))
	}
	tr.Emit("peer_sync", fields...)
}

// PeerSetConfig tunes a wire fleet's link set beyond the static address
// list. The zero value reproduces the classic behavior: dial the
// configured peers, push deltas, no join handshake, no fanout cap.
type PeerSetConfig struct {
	// Dial overrides the connection factory (default
	// transport.DialContext). Chaos tests inject fault-wrapped
	// connections here; production leaves it nil.
	Dial func(ctx context.Context, addr string) (transport.Conn, error)
	// Join makes the first sync announce this node to the fleet: the
	// first reachable peer serves a bootstrap snapshot (everything its
	// ledgers grew since construction, as one batch — not a replay of
	// history), the rest get an announce-only join so they reset their
	// view of this node and start syncing back. Until a join lands, the
	// node keeps retrying on every sync tick.
	Join bool
	// SelfAddr is this node's own listen address, carried in the join
	// announcement so established members learn where to push — the
	// other half of elasticity: the fleet reconfigures itself around the
	// joiner without anyone editing peer lists.
	SelfAddr string
	// Fanout, when positive, caps each sync round to a seeded sample of
	// that many targets (wire gossip): per-node sync cost stays O(k)
	// while the fleet grows.
	Fanout int
	// Seed drives the fanout sampling.
	Seed uint64
	// AntiEntropy, when positive, schedules pull anti-entropy rounds on
	// that cadence (see PeerSet.AntiEntropyOnce): each round samples one
	// peer, compares ledger digests and pulls exactly the cells whose
	// ledgers outrun the local ones — the repair plane that heals a
	// partitioned-then-recovered node without waiting for push traffic
	// to touch it. Zero disables pulls (push-only, the classic
	// behavior).
	AntiEntropy time.Duration
}

// PeerSet manages a node's outbound wire links: the static peer address
// list it was configured with, plus any addresses learned from join
// announcements. It dials and handshakes lazily, retries failed peers on
// the next sync, skips peers the failure detector has declared dead
// (except on re-probe rounds), and ships each reachable peer the node's
// current delta. It is the networked counterpart of SyncNodes — real
// fleets run one PeerSet per server, on a time cadence rather than a
// round barrier, so cross-server determinism is (deliberately) not
// promised there.
type PeerSet struct {
	node  *Node
	addrs []string
	cfg   PeerSetConfig

	mu sync.Mutex
	// conns holds handshaken links; pending holds connections still in
	// the dial/handshake window, so Close can cut a stuck handshake too.
	conns   map[string]*protocol.PeerClient
	pending map[string]transport.Conn
	// ids maps a peer address to its membership id — provisional
	// (negative) until the handshake reveals the real federation id.
	ids       map[string]int
	joined    bool
	joinBytes int
	closed    bool
}

// NewPeerSet builds the classic static link set; no connection is
// attempted until the first sync.
func NewPeerSet(node *Node, addrs []string) *PeerSet {
	return NewPeerSetWith(node, addrs, PeerSetConfig{})
}

// NewPeerSetWith builds a link set with join/gossip/chaos configuration.
func NewPeerSetWith(node *Node, addrs []string, cfg PeerSetConfig) *PeerSet {
	return &PeerSet{
		node: node, addrs: addrs, cfg: cfg,
		conns:   make(map[string]*protocol.PeerClient),
		pending: make(map[string]transport.Conn),
		ids:     make(map[string]int),
	}
}

// dial resolves the connection factory.
func (p *PeerSet) dial(ctx context.Context, addr string) (transport.Conn, error) {
	if p.cfg.Dial != nil {
		return p.cfg.Dial(ctx, addr)
	}
	return transport.DialContext(ctx, addr)
}

// idFor returns the membership id tracking addr, registering a
// provisional one for never-handshaken addresses.
func (p *PeerSet) idFor(addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id, ok := p.ids[addr]; ok {
		return id
	}
	// An address learned from a join announcement already belongs to a
	// real peer record — charge health events there, not to a fresh
	// provisional identity.
	id, ok := p.node.members.IDForAddr(addr)
	if !ok {
		id = p.node.members.AddProvisional(addr)
	}
	p.ids[addr] = id
	return id
}

// identify merges addr's provisional membership record into the real
// federation id the handshake revealed.
func (p *PeerSet) identify(addr string, realID int) {
	p.mu.Lock()
	prov, ok := p.ids[addr]
	p.ids[addr] = realID
	p.mu.Unlock()
	if ok && prov != realID {
		p.node.members.Identify(prov, realID)
	}
	p.node.members.SetAddr(realID, addr)
	p.node.members.NoteContact(realID)
}

// park registers an in-flight connection so Close can cut a stuck
// dial/handshake; it reports false when the set is already closed.
func (p *PeerSet) park(addr string, conn transport.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.pending[addr] = conn
	return true
}

// keep promotes a handshaken link into the live set; it reports false
// (and the caller must close the link) when the set is already closed.
func (p *PeerSet) keep(addr string, pc *protocol.PeerClient) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.pending, addr)
	if p.closed {
		return false
	}
	p.conns[addr] = pc
	return true
}

// link returns an established handshaken link to addr, dialing if needed.
// The lock is never held across network operations: the in-flight
// connection is parked in pending so a concurrent Close unblocks the
// dial/handshake instead of deadlocking behind it.
func (p *PeerSet) link(ctx context.Context, addr string) (*protocol.PeerClient, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("peer set closed")
	}
	if pc, ok := p.conns[addr]; ok {
		p.mu.Unlock()
		return pc, nil
	}
	p.mu.Unlock()

	conn, err := p.dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	if !p.park(addr, conn) {
		_ = conn.Close()
		return nil, fmt.Errorf("peer set closed")
	}

	classes, layers := p.node.Server().Shape()
	pc, err := protocol.DialPeer(conn, p.node.ID(), classes, layers)
	if err != nil {
		p.mu.Lock()
		delete(p.pending, addr)
		p.mu.Unlock()
		_ = conn.Close()
		return nil, err
	}
	if !p.keep(addr, pc) {
		_ = pc.Close()
		return nil, fmt.Errorf("peer set closed")
	}
	p.identify(addr, pc.PeerID())
	return pc, nil
}

// drop closes and forgets a failed link so the next sync re-dials.
func (p *PeerSet) drop(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pc, ok := p.conns[addr]; ok {
		_ = pc.Close()
		delete(p.conns, addr)
	}
}

// targets returns this round's sync targets: the static address list
// plus every address learned from join announcements, minus self —
// sorted for determinism, then (in gossip mode) cut to a seeded sample
// of Fanout.
func (p *PeerSet) targets(round uint64) []string {
	set := make(map[string]bool, len(p.addrs))
	for _, a := range p.addrs {
		if a != "" && a != p.cfg.SelfAddr {
			set[a] = true
		}
	}
	for _, a := range p.node.members.KnownAddrs() {
		if a != "" && a != p.cfg.SelfAddr {
			set[a] = true
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	if p.cfg.Fanout > 0 && len(out) > p.cfg.Fanout {
		rng := xrand.New(p.cfg.Seed, round, uint64(p.node.ID()))
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		out = out[:p.cfg.Fanout]
		sort.Strings(out)
	}
	return out
}

// join announces this node to the fleet: a snapshot-bootstrap join to the
// first reachable peer, announce-only joins to the rest. Returns the
// first error; the set counts as joined once ANY peer acknowledged (the
// rest learn our address through future joins/syncs or keep failing until
// reachable).
func (p *PeerSet) join(ctx context.Context) error {
	classes, layers := p.node.Server().Shape()
	wantSnapshot := true
	var firstErr error
	joinedAny := false
	for _, addr := range p.targets(p.node.Epoch()) {
		p.mu.Lock()
		_, connected := p.conns[addr]
		p.mu.Unlock()
		if connected {
			joinedAny = true // an established link implies a completed handshake
			continue
		}
		conn, err := p.dial(ctx, addr)
		if err == nil && !p.park(addr, conn) {
			_ = conn.Close()
			err = fmt.Errorf("peer set closed")
		}
		if err != nil {
			p.node.members.NoteFailure(p.idFor(addr))
			if firstErr == nil {
				firstErr = fmt.Errorf("federation: join %s: %w", addr, err)
			}
			continue
		}
		pc, snap, snapBytes, err := protocol.JoinPeer(conn, p.node.ID(), classes, layers, p.cfg.SelfAddr, wantSnapshot)
		if err != nil {
			p.mu.Lock()
			delete(p.pending, addr)
			p.mu.Unlock()
			_ = conn.Close()
			p.node.members.NoteFailure(p.idFor(addr))
			if firstErr == nil {
				firstErr = fmt.Errorf("federation: join %s: %w", addr, err)
			}
			continue
		}
		// Apply the snapshot before anything else travels this link: it
		// lives in the link's decoder scratch until the next round trip.
		if wantSnapshot && len(snap.Cells)+len(snap.Freq) > 0 {
			if _, aerr := p.node.ApplySnapshot(snap, snapBytes); aerr != nil {
				p.node.noteSyncError(aerr)
			}
		}
		if wantSnapshot {
			p.mu.Lock()
			p.joinBytes += snapBytes
			p.mu.Unlock()
			wantSnapshot = false
		}
		if !p.keep(addr, pc) {
			_ = pc.Close()
			return fmt.Errorf("peer set closed")
		}
		p.identify(addr, pc.PeerID())
		joinedAny = true
	}
	if joinedAny {
		p.mu.Lock()
		p.joined = true
		p.mu.Unlock()
	}
	return firstErr
}

// JoinBytes reports the snapshot bytes received while bootstrapping — the
// joiner's catch-up cost (compare against what replaying the fleet's
// whole sync history would have shipped).
func (p *PeerSet) JoinBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.joinBytes
}

// Joined reports whether a join announcement has been acknowledged by at
// least one peer (always false when Join is not configured).
func (p *PeerSet) Joined() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.joined
}

// SyncOnce pushes the node's delta to every target peer due this round
// and closes the sync round. Unreachable or failing peers are skipped
// (and re-dialed next time); their cells stay pending because deltas
// commit only on a successful exchange. Delivery is therefore
// at-least-once: if the ack is lost after the peer applied the delta, the
// next sync re-sends the same evidence and the peer counts it twice — a
// bounded, one-delta inflation accepted in exchange for never losing
// contributions (the receiver skips malformed cells rather than failing
// the exchange, so a persistently bad cell cannot force the whole delta
// to retry forever). Each failure feeds the peer's failure detector;
// dead peers are skipped until their re-probe round comes up.
// It returns how many peers were synced and the first error observed
// (nil when every peer synced); errors are also recorded in the node's
// SyncStats.
func (p *PeerSet) SyncOnce(ctx context.Context) (synced int, err error) {
	p.mu.Lock()
	needJoin := p.cfg.Join && !p.joined
	p.mu.Unlock()
	if needJoin {
		if jerr := p.join(ctx); jerr != nil {
			p.node.noteSyncError(jerr)
			if err == nil {
				err = jerr
			}
		}
	}
	round := p.node.Epoch()
	for _, addr := range p.targets(round) {
		if p.node.members.Skip(p.idFor(addr), round) {
			continue // dead or left; re-probed every few rounds
		}
		start := time.Now()
		pc, derr := p.link(ctx, addr)
		if derr != nil {
			p.node.members.NoteFailure(p.idFor(addr))
			derr = fmt.Errorf("federation: peer %s: %w", addr, derr)
			p.node.noteSyncError(derr)
			p.traceExchange(start, p.idFor(addr), addr, 0, 0, derr)
			if err == nil {
				err = derr
			}
			continue
		}
		d := p.node.CollectDelta(pc.PeerID())
		if d.Empty() {
			synced++
			continue
		}
		// Membership gossip piggybacks on the delta: state transitions
		// and learned addresses spread with normal sync traffic instead
		// of waiting for join announcements.
		gossip := p.node.members.GossipEntries(p.node.ID(), p.cfg.SelfAddr)
		_, wireBytes, serr := pc.SendDelta(p.node.Epoch(), d.Cells, d.Freq, gossip)
		if serr != nil {
			p.drop(addr)
			p.node.members.NoteFailure(pc.PeerID())
			serr = fmt.Errorf("federation: peer %s: %w", addr, serr)
			p.node.noteSyncError(serr)
			p.traceExchange(start, pc.PeerID(), addr, len(d.Cells), 0, serr)
			if err == nil {
				err = serr
			}
			continue
		}
		p.node.CommitDelta(pc.PeerID(), d, wireBytes)
		if p.cfg.Fanout > 0 {
			telemetry.FedGossipSends.Inc()
		}
		p.traceExchange(start, pc.PeerID(), addr, len(d.Cells), wireBytes, nil)
		synced++
	}
	p.node.EndSync()
	return synced, err
}

// AntiEntropyOnce runs one pull anti-entropy round: it samples a peer
// (seeded, skipping dead/left ones except on re-probe rounds), ships a
// ledger digest, turns the reply into a want list, and pulls exactly the
// cells whose ledgers outrun the local ones. Membership gossip rides
// every frame both ways. Returns the number of cells repaired.
func (p *PeerSet) AntiEntropyOnce(ctx context.Context) (repaired int, err error) {
	round := p.node.Epoch()
	addrs := p.targets(round)
	if len(addrs) == 0 {
		return 0, nil
	}
	rng := xrand.New(p.cfg.Seed, round, uint64(p.node.ID()), 0xA17E)
	rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	addr := ""
	for _, a := range addrs {
		if !p.node.members.Skip(p.idFor(a), round) {
			addr = a
			break
		}
	}
	if addr == "" {
		return 0, nil
	}
	fail := func(id int, e error) (int, error) {
		p.node.members.NoteFailure(id)
		e = fmt.Errorf("federation: anti-entropy %s: %w", addr, e)
		p.node.noteSyncError(e)
		return 0, e
	}
	pc, derr := p.link(ctx, addr)
	if derr != nil {
		return fail(p.idFor(addr), derr)
	}
	q := p.node.BuildDigestRequest()
	q.Gossip = p.node.members.GossipEntries(p.node.ID(), p.cfg.SelfAddr)
	dg, reqB, respB, serr := pc.SendDigestRequest(q)
	if serr != nil {
		p.drop(addr)
		return fail(pc.PeerID(), serr)
	}
	digestBytes := reqB + respB
	pullBytes := 0
	p.node.members.ApplyGossip(p.node.ID(), dg.Gossip)
	if wants := p.node.BuildWants(dg); len(wants) > 0 {
		q2 := &protocol.PeerDigestRequest{
			NodeID: int32(p.node.ID()),
			Wants:  wants,
			Gossip: p.node.members.GossipEntries(p.node.ID(), p.cfg.SelfAddr),
		}
		pr, reqB2, respB2, perr := pc.SendPull(q2)
		if perr != nil {
			p.drop(addr)
			return fail(pc.PeerID(), perr)
		}
		digestBytes += reqB2
		pullBytes = respB2
		if repaired, err = p.node.ApplyPull(pc.PeerID(), pr); err != nil {
			p.node.noteSyncError(err)
		}
	}
	p.node.members.NoteSuccess(pc.PeerID(), round)
	p.node.noteAntiEntropy(digestBytes, pullBytes)
	if tr := telemetry.Trace(); tr != nil {
		tr.Emit("anti_entropy",
			telemetry.Int("peer", pc.PeerID()),
			telemetry.Str("addr", addr),
			telemetry.Int("repaired", repaired),
			telemetry.Int("digest_bytes", digestBytes),
			telemetry.Int("pull_bytes", pullBytes))
	}
	return repaired, err
}

// AnnounceLeave sends a clean-leave to every live link (best effort — a
// peer that cannot be reached will find out through its failure detector
// instead). Surviving peers mark this node left immediately, skipping the
// suspect timeout. Each receiver's membership mints a death certificate
// that then spreads epidemically, so even members without a direct link
// learn of the departure without burning a suspect window.
func (p *PeerSet) AnnounceLeave() {
	p.mu.Lock()
	pcs := make([]*protocol.PeerClient, 0, len(p.conns))
	for _, pc := range p.conns {
		pcs = append(pcs, pc)
	}
	p.mu.Unlock()
	for _, pc := range pcs {
		_ = pc.Leave()
	}
}

// Run pushes deltas on the given cadence until ctx is done, then closes
// the links. Non-positive intervals fall back to 5s (a zero ticker would
// panic). Sync errors are delivered to onErr (which may be nil) and
// recorded in the node's SyncStats either way. A watcher goroutine
// closes the links as soon as ctx is canceled, so a sync blocked on an
// unresponsive peer — mid-handshake or mid-exchange — unblocks with an
// error instead of stalling shutdown.
func (p *PeerSet) Run(ctx context.Context, interval time.Duration, onErr func(error)) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	watch := make(chan struct{})
	defer close(watch)
	go func() {
		select {
		case <-ctx.Done():
			p.Close()
		case <-watch:
		}
	}()
	t := time.NewTicker(interval)
	defer t.Stop()
	var ae <-chan time.Time
	if p.cfg.AntiEntropy > 0 {
		at := time.NewTicker(p.cfg.AntiEntropy)
		defer at.Stop()
		ae = at.C
	}
	for {
		select {
		case <-ctx.Done():
			p.Close()
			return
		case <-t.C:
			if _, err := p.SyncOnce(ctx); err != nil && onErr != nil {
				onErr(err)
			}
		case <-ae:
			if _, err := p.AntiEntropyOnce(ctx); err != nil && onErr != nil {
				onErr(err)
			}
		}
	}
}

// Close shuts every link down — including connections still in the
// dial/handshake window — and refuses further dialing.
func (p *PeerSet) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for addr, pc := range p.conns {
		_ = pc.Close()
		delete(p.conns, addr)
	}
	for addr, conn := range p.pending {
		_ = conn.Close()
		delete(p.pending, addr)
	}
}
