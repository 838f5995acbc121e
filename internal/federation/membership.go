package federation

import (
	"fmt"
	"sort"
	"sync"

	"coca/internal/protocol"
	"coca/internal/telemetry"
	"coca/internal/xrand"
)

// PeerState is a fleet member's health as seen from one node. States move
// Alive → Suspect → Dead on consecutive sync failures, snap back to Alive
// on any successful exchange or inbound contact, and jump to Left on a
// clean leave announcement.
type PeerState int

const (
	// PeerAlive peers sync normally.
	PeerAlive PeerState = iota
	// PeerSuspect peers have failed a few consecutive syncs; they are
	// still attempted every round (the failure may be transient).
	PeerSuspect
	// PeerDead peers have failed enough consecutive syncs to be skipped;
	// they are re-probed every few rounds so recovery is noticed.
	PeerDead
	// PeerLeft peers announced a clean departure; like dead peers they
	// are skipped but occasionally probed, so a rejoin at the same
	// address is noticed.
	PeerLeft
)

// String names the state for stats dumps.
func (s PeerState) String() string {
	switch s {
	case PeerAlive:
		return "alive"
	case PeerSuspect:
		return "suspect"
	case PeerDead:
		return "dead"
	case PeerLeft:
		return "left"
	}
	return fmt.Sprintf("PeerState(%d)", int(s))
}

// PeerStats is the per-peer slice of SyncStats: health plus the traffic
// this node exchanged with that one peer.
type PeerStats struct {
	// ID is the peer's federation id (negative while provisional — the
	// peer was configured by address and has not completed a handshake).
	ID int
	// Addr is the peer's dial address when known ("" for in-process
	// peers and inbound-only wire peers).
	Addr string
	// State is the peer's current health.
	State PeerState
	// ConsecFailures counts sync failures since the last success — the
	// suspect/dead escalation counter.
	ConsecFailures int
	// Syncs counts successful exchanges with this peer; LastSyncEpoch is
	// the local epoch of the most recent one (the peer's staleness bound:
	// everything this node learned before that epoch has been offered).
	Syncs         int
	LastSyncEpoch uint64
	// CellsSent / BytesSent / CellsRecv split the node totals per peer.
	// CellsResent counts cells that were collected more than once because
	// an exchange faulted before commit — the at-least-once resend cost.
	CellsSent, CellsResent int
	BytesSent              int64
	CellsRecv              int
	// Joins counts snapshot bootstraps served to this peer.
	Joins int
}

// MembershipConfig tunes the failure detector.
type MembershipConfig struct {
	// SuspectAfter is the consecutive-failure count that marks a peer
	// suspect (default 2).
	SuspectAfter int
	// DeadAfter is the consecutive-failure count that marks a peer dead
	// (default 5). Dead peers are skipped by sync.
	DeadAfter int
	// DeadRetryEvery is how many rounds apart dead (or cleanly left)
	// peers are re-probed (default 4) — the bounded-staleness knob: a
	// recovered peer is rediscovered within this many rounds.
	DeadRetryEvery int
	// TombstoneTTL bounds how long a membership event — death
	// certificates included — keeps circulating: the budget counts down
	// once per local sync round (Tick) and once per relay hop, and the
	// event drops out of the gossip ring when it reaches zero
	// (default 8). The peer RECORD keeps its state; only the
	// announcement stops spreading.
	TombstoneTTL int
	// GossipRetransmits is how many exchanges each membership event
	// rides before this node stops offering it (default 3) — the
	// epidemic fanout budget.
	GossipRetransmits int
}

func (c MembershipConfig) withDefaults() MembershipConfig {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 5
	}
	if c.DeadAfter < c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter
	}
	if c.DeadRetryEvery <= 0 {
		c.DeadRetryEvery = 4
	}
	if c.TombstoneTTL <= 0 {
		c.TombstoneTTL = 8
	}
	if c.GossipRetransmits <= 0 {
		c.GossipRetransmits = 3
	}
	return c
}

// gossipRingCap bounds the membership event ring (oldest events are
// evicted first); gossipDrainPerExchange caps how many events one
// exchange piggybacks, keeping the overhead on sync frames small.
const (
	gossipRingCap          = 64
	gossipDrainPerExchange = 8
)

// gossipEvent is one membership state transition circulating
// epidemically: dead/left events are death certificates (tombstones),
// alive events are rumors that spread recovery news and learned
// addresses.
type gossipEvent struct {
	id     int
	state  PeerState
	ttl    int
	budget int
	addr   string
}

// tombstone reports whether the event is a death certificate.
func (e gossipEvent) tombstone() bool { return e.state == PeerDead || e.state == PeerLeft }

// peerHealth is one peer's mutable membership record.
type peerHealth struct {
	stats PeerStats
}

// Membership is one node's live view of the fleet: who the peers are,
// whether they are reachable, and how much has been exchanged with each.
// It unifies the previously separate wirings — in-process fleets
// (Cluster/SyncNodes), wire fleets (PeerSet), and anything driving Node
// directly — behind one lifecycle: AddPeer/RemovePeer for explicit
// membership changes, NoteSuccess/NoteFailure/NoteContact/NoteLeave for
// health transitions, Skip for the sync-time decision.
//
// Membership is open-world by default: peers it has never been told about
// are treated as alive (Skip returns false), so static fleets that never
// register peers behave exactly as before the failure detector existed.
type Membership struct {
	mu       sync.Mutex
	cfg      MembershipConfig
	peers    map[int]*peerHealth
	nextProv int
	// events is the bounded gossip ring: state transitions waiting to
	// piggyback on outgoing exchanges.
	events []gossipEvent
}

// NewMembership builds a membership table with the given detector config
// (zero value = defaults).
func NewMembership(cfg MembershipConfig) *Membership {
	return &Membership{cfg: cfg.withDefaults(), peers: make(map[int]*peerHealth)}
}

// Config returns the resolved detector thresholds.
func (m *Membership) Config() MembershipConfig { return m.cfg }

// peer returns (creating if needed) a peer's record. Callers hold m.mu.
func (m *Membership) peer(id int) *peerHealth {
	p, ok := m.peers[id]
	if !ok {
		p = &peerHealth{stats: PeerStats{ID: id}}
		m.peers[id] = p
		// Fresh records are born alive (the open-world default); the
		// membership gauge tracks every record this node holds.
		telemetry.FedMembers.Inc(int(PeerAlive))
	}
	return p
}

// setState moves a peer's health state, keeping the live per-state
// membership gauge in step, emitting a member_state trace event on real
// transitions, and minting a gossip event (with the full configured TTL)
// so the transition spreads epidemically. Caller holds m.mu.
func (m *Membership) setState(p *peerHealth, to PeerState) {
	m.setStateTTL(p, to, m.cfg.TombstoneTTL)
}

// setStateTTL is setState with an explicit gossip budget — relayed
// certificates re-mint with the sender's TTL minus one hop, which is
// what makes recirculation decay instead of echoing forever. A
// non-positive ttl applies the transition without minting.
func (m *Membership) setStateTTL(p *peerHealth, to PeerState, ttl int) {
	from := p.stats.State
	if from == to {
		return
	}
	p.stats.State = to
	telemetry.FedMembers.Move(int(from), int(to))
	if tr := telemetry.Trace(); tr != nil {
		tr.Emit("member_state",
			telemetry.Int("peer", p.stats.ID),
			telemetry.Str("from", from.String()),
			telemetry.Str("to", to.String()))
	}
	if ttl > 0 {
		m.mint(p.stats.ID, to, ttl, p.stats.Addr)
	}
}

// mint queues one membership event for epidemic spread. Provisional
// identities (negative ids) are local bookkeeping and never gossip.
// Caller holds m.mu.
func (m *Membership) mint(id int, state PeerState, ttl int, addr string) {
	if id < 0 {
		return
	}
	if len(m.events) >= gossipRingCap {
		if m.events[0].tombstone() {
			telemetry.FedTombstones.Dec()
		}
		copy(m.events, m.events[1:])
		m.events = m.events[:len(m.events)-1]
	}
	m.events = append(m.events, gossipEvent{id: id, state: state, ttl: ttl, budget: m.cfg.GossipRetransmits, addr: addr})
	if state == PeerDead || state == PeerLeft {
		telemetry.FedTombstones.Inc()
	}
}

// dropRecord forgets one membership record, releasing its gauge slot.
// Caller holds m.mu.
func (m *Membership) dropRecord(id int) {
	if p, ok := m.peers[id]; ok {
		telemetry.FedMembers.Dec(int(p.stats.State))
		delete(m.peers, id)
	}
}

// AddPeer registers a peer as a fleet member (idempotent). A re-added
// peer that was dead or left is given a fresh alive state.
func (m *Membership) AddPeer(id int) {
	m.mu.Lock()
	p := m.peer(id)
	m.setState(p, PeerAlive)
	p.stats.ConsecFailures = 0
	m.mu.Unlock()
}

// AddProvisional registers a peer known only by address (not yet
// handshaken) under a fresh provisional id (negative), and returns that
// id. Identify merges the record into the real id once known.
func (m *Membership) AddProvisional(addr string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextProv--
	id := m.nextProv
	p := m.peer(id)
	p.stats.Addr = addr
	return id
}

// Identify merges a provisional record into the peer's real federation id
// (learned from the handshake ack). The provisional record's health and
// traffic counts carry over; an existing record under the real id wins on
// address only if the provisional one had none.
func (m *Membership) Identify(prov, real int) {
	if prov == real {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	pp, ok := m.peers[prov]
	if !ok {
		m.peer(real)
		return
	}
	if rp, exists := m.peers[real]; exists {
		// Keep the established record; carry the dial address over. The
		// provisional record is merged away, so its gauge slot retires.
		m.dropRecord(prov)
		if rp.stats.Addr == "" {
			rp.stats.Addr = pp.stats.Addr
		}
		return
	}
	delete(m.peers, prov)
	pp.stats.ID = real
	m.peers[real] = pp
}

// RemovePeer drops a peer from the table entirely.
func (m *Membership) RemovePeer(id int) {
	m.mu.Lock()
	m.dropRecord(id)
	m.mu.Unlock()
}

// SetAddr records (or updates) a peer's dial address — learned from a
// PeerJoin announcement or static configuration.
func (m *Membership) SetAddr(id int, addr string) {
	if addr == "" {
		return
	}
	m.mu.Lock()
	m.peer(id).stats.Addr = addr
	m.mu.Unlock()
}

// Addr returns the peer's known dial address ("" when unknown).
func (m *Membership) Addr(id int) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.peers[id]; ok {
		return p.stats.Addr
	}
	return ""
}

// State returns a peer's health (unknown peers read as alive — the
// open-world default).
func (m *Membership) State(id int) PeerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.peers[id]; ok {
		return p.stats.State
	}
	return PeerAlive
}

// Alive reports whether the peer is currently considered reachable
// (alive or suspect — suspect peers are still attempted).
func (m *Membership) Alive(id int) bool {
	s := m.State(id)
	return s == PeerAlive || s == PeerSuspect
}

// Skip reports whether sync should skip this peer at the given round
// counter: dead and left peers are skipped except on the periodic
// re-probe round. Unknown, alive and suspect peers are never skipped.
func (m *Membership) Skip(id int, tick uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[id]
	if !ok {
		return false
	}
	switch p.stats.State {
	case PeerDead, PeerLeft:
		return tick%uint64(m.cfg.DeadRetryEvery) != 0
	}
	return false
}

// NoteSuccess records a completed exchange with the peer at the given
// local epoch: health snaps back to alive, whatever it was.
func (m *Membership) NoteSuccess(id int, epoch uint64) {
	m.mu.Lock()
	p := m.peer(id)
	m.setState(p, PeerAlive)
	p.stats.ConsecFailures = 0
	p.stats.Syncs++
	p.stats.LastSyncEpoch = epoch
	m.mu.Unlock()
}

// NoteFailure records a failed exchange and escalates alive → suspect →
// dead along the configured thresholds. It returns the resulting state.
func (m *Membership) NoteFailure(id int) PeerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peer(id)
	if p.stats.State == PeerLeft {
		return PeerLeft // an announced departure outranks probe failures
	}
	p.stats.ConsecFailures++
	switch {
	case p.stats.ConsecFailures >= m.cfg.DeadAfter:
		m.setState(p, PeerDead)
	case p.stats.ConsecFailures >= m.cfg.SuspectAfter:
		m.setState(p, PeerSuspect)
	}
	return p.stats.State
}

// NoteLeave records a clean departure: the peer is marked left
// immediately, skipping the suspect timeout entirely.
func (m *Membership) NoteLeave(id int) {
	m.mu.Lock()
	p := m.peer(id)
	m.setState(p, PeerLeft)
	p.stats.ConsecFailures = 0
	m.mu.Unlock()
}

// NoteContact records inbound traffic from the peer (a delta, hello or
// join arrived): whatever this node thought, the peer is demonstrably
// alive.
func (m *Membership) NoteContact(id int) {
	m.mu.Lock()
	p := m.peer(id)
	m.setState(p, PeerAlive)
	p.stats.ConsecFailures = 0
	m.mu.Unlock()
}

// noteSent credits outbound traffic; resent counts cells re-collected
// after a faulted exchange.
func (m *Membership) noteSent(id, cells, resent int, bytes int64) {
	m.mu.Lock()
	p := m.peer(id)
	p.stats.CellsSent += cells
	p.stats.CellsResent += resent
	p.stats.BytesSent += bytes
	m.mu.Unlock()
}

// noteRecv credits inbound merged cells.
func (m *Membership) noteRecv(id, cells int) {
	m.mu.Lock()
	m.peer(id).stats.CellsRecv += cells
	m.mu.Unlock()
}

// noteJoin counts a snapshot bootstrap served to the peer.
func (m *Membership) noteJoin(id int) {
	m.mu.Lock()
	m.peer(id).stats.Joins++
	m.mu.Unlock()
}

// Stats returns a snapshot of every known peer, ascending by id.
func (m *Membership) Stats() []PeerStats {
	m.mu.Lock()
	out := make([]PeerStats, 0, len(m.peers))
	for _, p := range m.peers {
		out = append(out, p.stats)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IDForAddr finds the identified (non-provisional) peer currently known
// at the given dial address. Wire fleets use it to charge sync failures
// against a learned address — one announced via PeerJoin — to the real
// peer record instead of minting a provisional one, so the failure
// detector escalates the peer that actually went away.
func (m *Membership) IDForAddr(addr string) (int, bool) {
	if addr == "" {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, p := range m.peers {
		if id >= 0 && p.stats.Addr == addr {
			return id, true
		}
	}
	return 0, false
}

// GossipEntries drains up to a handful of pending membership events into
// wire updates to piggyback on an outgoing exchange, decrementing each
// event's retransmit budget. When selfAddr is non-empty a self-advert
// (alive, this node's address) rides along, which is how learned
// addresses spread beyond join announcements. The returned slice is
// freshly allocated — it must survive frame encoding; nil means nothing
// to gossip.
func (m *Membership) GossipEntries(selfID int, selfAddr string) []protocol.MemberUpdate {
	m.mu.Lock()
	var out []protocol.MemberUpdate
	drained := 0
	for i := range m.events {
		e := &m.events[i]
		if e.budget <= 0 {
			continue
		}
		e.budget--
		out = append(out, protocol.MemberUpdate{ID: int32(e.id), State: byte(e.state), TTL: uint32(e.ttl), Addr: e.addr})
		if drained++; drained >= gossipDrainPerExchange {
			break
		}
	}
	m.mu.Unlock()
	if selfAddr != "" {
		out = append(out, protocol.MemberUpdate{ID: int32(selfID), State: byte(PeerAlive), TTL: 1, Addr: selfAddr})
	}
	return out
}

// ApplyGossip folds piggybacked membership updates in, under a strict
// evidence ordering: direct contact outranks certificates, certificates
// outrank rumors.
//
//   - A death certificate (dead/left) applies even over a locally-alive
//     reading — the announcer had better evidence (a clean leave, or a
//     confirmed detector verdict) — and is RE-MINTED with one hop less
//     TTL, but only when it actually changed this node's view: relaying
//     already-known certificates is what would keep them echoing around
//     cycles forever. Fresh direct contact (NoteContact/NoteSuccess) or
//     the periodic re-probe resurrects the peer afterward.
//   - A rumor (alive/suspect) never overrides local state — in
//     particular it cannot cancel a certificate — it only registers
//     previously unknown peers and teaches missing addresses.
//
// Updates about this node itself are ignored (a node is the authority on
// its own liveness; its next exchanges refute stale certificates by
// direct contact).
func (m *Membership) ApplyGossip(selfID int, updates []protocol.MemberUpdate) {
	if len(updates) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, u := range updates {
		id := int(u.ID)
		if id == selfID || id < 0 {
			continue
		}
		switch state := PeerState(u.State); state {
		case PeerDead, PeerLeft:
			if u.TTL == 0 {
				continue // expired in flight
			}
			p := m.peer(id)
			if u.Addr != "" && p.stats.Addr == "" {
				p.stats.Addr = u.Addr
			}
			if p.stats.State != state {
				p.stats.ConsecFailures = 0
				m.setStateTTL(p, state, int(u.TTL)-1)
			}
		case PeerAlive, PeerSuspect:
			p := m.peer(id)
			if u.Addr != "" && p.stats.Addr == "" {
				p.stats.Addr = u.Addr
			}
		}
	}
}

// Tick ages the gossip event ring one sync round: TTLs count down, and
// events that expired or exhausted their retransmit budget drop out (a
// tombstone's departure releases the circulating-tombstones gauge).
func (m *Membership) Tick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.events) == 0 {
		return
	}
	kept := m.events[:0]
	for _, e := range m.events {
		e.ttl--
		if e.ttl <= 0 || e.budget <= 0 {
			if e.tombstone() {
				telemetry.FedTombstones.Dec()
			}
			continue
		}
		kept = append(kept, e)
	}
	m.events = kept
}

// Tombstones reports how many death certificates are currently
// circulating in this node's gossip ring.
func (m *Membership) Tombstones() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.events {
		if e.tombstone() {
			n++
		}
	}
	return n
}

// SampleAntiEntropyPeer picks this round's pull target: a seeded,
// deterministic sample over identified peers, skipping dead and left
// ones except on their re-probe rounds (a partitioned-away node that
// declared the majority dead must still probe its way back in). Returns
// false when no peer qualifies.
func (m *Membership) SampleAntiEntropyPeer(selfID int, tick, seed uint64) (int, bool) {
	m.mu.Lock()
	ids := make([]int, 0, len(m.peers))
	for id, p := range m.peers {
		if id < 0 || id == selfID {
			continue
		}
		switch p.stats.State {
		case PeerDead, PeerLeft:
			if tick%uint64(m.cfg.DeadRetryEvery) != 0 {
				continue
			}
		}
		ids = append(ids, id)
	}
	m.mu.Unlock()
	if len(ids) == 0 {
		return 0, false
	}
	sort.Ints(ids)
	rng := xrand.New(seed, tick, uint64(selfID), 0xA17E)
	return ids[rng.IntN(len(ids))], true
}

// KnownAddrs returns the dial addresses of identified (non-provisional)
// peers that have one — the dynamic sync targets a wire fleet learned
// from join announcements, keyed by peer id.
func (m *Membership) KnownAddrs() map[int]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]string)
	for id, p := range m.peers {
		if id >= 0 && p.stats.Addr != "" {
			out[id] = p.stats.Addr
		}
	}
	return out
}
