package federation

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"coca/internal/core"
	"coca/internal/gtable"
	"coca/internal/overload"
	"coca/internal/protocol"
	"coca/internal/telemetry"
)

// SyncStats counts a node's federation-tier traffic.
type SyncStats struct {
	// Syncs is the number of completed sync rounds (the node's epoch).
	Syncs int
	// CellsSent / CellsRecv count delta cells shipped and merged.
	CellsSent, CellsRecv int
	// BytesSent / BytesRecv measure sync traffic in encoded wire bytes
	// (the delta encoding of internal/protocol), whether the delta
	// actually traveled a wire or an in-process exchange.
	BytesSent, BytesRecv int64
	// AntiEntropyRounds counts completed pull anti-entropy exchanges this
	// node initiated. DigestBytes and PullBytes split that traffic from
	// the push plane: digest negotiation (request, digest and want
	// frames) vs pull repair (response frames carrying full cell state);
	// both are charged to the initiator, which paid for the round.
	// CellsRepaired counts cells healed by pull (adopted or merged).
	AntiEntropyRounds int
	DigestBytes       int64
	PullBytes         int64
	CellsRepaired     int
	// Errors counts failed wire sync attempts; LastError describes the
	// most recent one (empty when every sync succeeded).
	Errors    int
	LastError string
	// Peers is the per-peer breakdown (health state, last sync epoch,
	// resend count, split traffic), ascending by peer id. Populated on
	// per-node snapshots; fleet-wide aggregation drops it (per-peer rows
	// from different nodes do not add).
	Peers []PeerStats
}

// add folds another stat set in (fleet-wide aggregation; per-peer rows
// are intentionally not aggregated).
func (s *SyncStats) add(o SyncStats) {
	s.Syncs += o.Syncs
	s.CellsSent += o.CellsSent
	s.CellsRecv += o.CellsRecv
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
	s.AntiEntropyRounds += o.AntiEntropyRounds
	s.DigestBytes += o.DigestBytes
	s.PullBytes += o.PullBytes
	s.CellsRepaired += o.CellsRepaired
	s.Errors += o.Errors
	if o.LastError != "" {
		s.LastError = o.LastError
	}
}

// DefaultRemoteFreqWeight is the default importance discount on
// frequency increments shipped to peers (see NodeConfig).
const DefaultRemoteFreqWeight = 0.3

// NodeConfig parametrizes a federation node.
type NodeConfig struct {
	// ID is the node's federation id; peer merges during a sync round are
	// applied in ascending id order, which is what keeps multi-server
	// simulations reproducible.
	ID int
	// Relay marks this node as a relay hop (star hubs, ring members):
	// evidence received from one peer stays pending toward the others so
	// it forwards onward. Non-relaying nodes (full mesh — every pair
	// exchanges directly) credit received evidence to EVERY peer view
	// immediately: the origin ships to each peer itself, and without
	// this, evidence would re-circulate around meshes forever at
	// constant amplitude.
	Relay bool
	// RemoteFreqWeight discounts the Φ increments shipped to peers.
	// Remote observations are biased samples of ANOTHER fleet's class
	// distribution: folded in at full weight they broaden every client's
	// hot-spot set toward globally-popular classes it rarely streams,
	// taxing lookup cost for entries that rarely hit. A weight below 1 is
	// the importance correction — enough Φ mass for a churned-in class to
	// clear ACA's coverage cut once local recency (τ) backs it, without
	// letting remote popularity dominate local allocation. 0 defaults to
	// DefaultRemoteFreqWeight; negative disables frequency sync.
	RemoteFreqWeight float64
	// Membership tunes the per-peer failure detector (zero value =
	// defaults; see MembershipConfig).
	Membership MembershipConfig
}

// remoteFreqWeight resolves the configured discount.
func (c NodeConfig) remoteFreqWeight() float64 {
	if c.RemoteFreqWeight == 0 {
		return DefaultRemoteFreqWeight
	}
	if c.RemoteFreqWeight < 0 {
		return 0
	}
	return c.RemoteFreqWeight
}

// Node is one federated edge server: it wraps a core.Server (implementing
// core.Coordinator by delegation, so clients connect to it exactly as to
// a standalone server) and adds the peer-sync state — one evidence view
// per peer, mirroring how client sessions track delta state.
//
// A view records, per cell, how much of this server's (monotone) evidence
// ledger the peer already possesses; a cell travels exactly when the
// ledger moved past the view, carrying the difference as its merge
// weight. All view updates are increments — commit adds what was shipped,
// apply adds what was received — so they commute: wire syncs interleaving
// with local merges and inbound deltas can neither lose a pending
// contribution nor echo a received one, without any phase barrier. The Φ
// (class-frequency) views work identically, Φ itself being a monotone
// ledger.
//
// Views start from the server's initial table state rather than zero:
// federated servers are built from the same shared dataset (same
// ServerConfig.Seed), so the initial centers and counts are common
// knowledge and the first sync ships only what client traffic changed.
type Node struct {
	cfg NodeConfig
	srv *core.Server
	// classes and layers cache the server's shape; a view indexes cell
	// (class, layer) densely at class*layers+layer.
	classes, layers int

	mu sync.Mutex
	// views[peer][class*layers+layer] = portion of the cell's evidence
	// ledger the peer possesses — a dense slice, not a map: sync sweeps
	// touch every populated cell, and indexed reads keep the collection
	// loop allocation- and hash-free.
	views map[int][]float64
	// freqViews[peer][class] = portion of this server's Φ the peer
	// possesses.
	freqViews map[int][]float64
	// initial / initialFreq snapshot the ledgers at construction, the
	// starting point of every new peer view.
	initial     []float64
	initialFreq []float64
	epoch       uint64
	stats       SyncStats

	// Origin-height bookkeeping (the exactly-once upgrade). base is an
	// IMMUTABLE snapshot of the evidence ledgers at construction — the
	// common knowledge every fleet member starts from (same
	// ServerConfig.Seed). initial cannot serve this role: mesh crediting
	// mutates it. olog[origin][k] is the highest evidence height this
	// node has applied from that origin — absolute, max-merged — and
	// foreign[k] accumulates every applied foreign increment, which keeps
	// it identically Σ_origins olog[origin][k]. The node's OWN height is
	// derived, never stored: selfHeight(k) = evTotal[k] − base[k] −
	// foreign[k]. Every piece of evidence is integer-valued (client
	// counts, sums of integer heights), so all of this arithmetic is
	// float64-EXACT: heights are bitwise-comparable across nodes and the
	// derived self height carries no rounding dust.
	base    []float64
	foreign []float64
	olog    map[int][]float64

	// sweep and freqScratch are reused across sync rounds; deltas holds
	// one reusable cell/frequency buffer set per peer, since a collected
	// delta stays live until it is committed (after the exchange).
	// oidScratch reuses the sorted-origin-id list tagging passes walk;
	// aeEv / aeRows are the anti-entropy digest scratch (dense evTotals
	// and digest rows).
	sweep       []gtable.Cell
	freqScratch []float64
	oidScratch  []int
	aeEv        []float64
	aeRows      []float64
	deltas      map[int]*peerScratch

	// members tracks fleet membership and per-peer health/traffic. It has
	// its own lock; the only nesting is n.mu → members.mu, never the
	// reverse.
	members *Membership
}

// peerScratch backs one peer's in-flight Delta.
type peerScratch struct {
	cells         []protocol.PeerCell
	freq, freqRaw []float64
	// origins is the flat arena cell Origins subslice into; selfH holds
	// each collected cell's derived own-origin height between the sweep
	// and the tagging pass. The arena is sized before tagging and never
	// reallocates mid-pass, so the subslices stay valid.
	origins []protocol.OriginHeight
	selfH   []float64
	// pending marks a collected-but-uncommitted delta: the exchange
	// faulted (or has not happened yet), so the next CollectDelta for the
	// same peer re-collects the content — counted as resends.
	pending bool
}

// NewNode wraps a server as a federation node.
func NewNode(srv *core.Server, cfg NodeConfig) *Node {
	classes, layers := srv.Shape()
	n := &Node{
		cfg: cfg, srv: srv,
		classes: classes, layers: layers,
		views:     make(map[int][]float64),
		freqViews: make(map[int][]float64),
		deltas:    make(map[int]*peerScratch),
		members:   NewMembership(cfg.Membership),
	}
	n.initial = make([]float64, classes*layers)
	srv.EvTotalsInto(n.initial)
	n.initialFreq = srv.GlobalFreq()
	n.base = append([]float64(nil), n.initial...)
	n.foreign = make([]float64, classes*layers)
	n.olog = make(map[int][]float64)
	return n
}

// originHeights returns (creating if needed) the dense height slice for
// an origin. Callers hold n.mu.
func (n *Node) originHeights(origin int) []float64 {
	h, ok := n.olog[origin]
	if !ok {
		h = make([]float64, n.classes*n.layers)
		n.olog[origin] = h
	}
	return h
}

// ID returns the node's federation id.
func (n *Node) ID() int { return n.cfg.ID }

// Server returns the wrapped edge server.
func (n *Node) Server() *core.Server { return n.srv }

// Members returns the node's membership table (peer health, addresses,
// per-peer traffic).
func (n *Node) Members() *Membership { return n.members }

// Open implements core.Coordinator by delegation: clients of a federated
// node coordinate with its local server as usual.
func (n *Node) Open(ctx context.Context, clientID int) (core.Session, error) {
	return n.srv.Open(ctx, clientID)
}

// LoadSnapshot implements overload.LoadReporter by delegation, so a
// routing front door over federation nodes can shed on backend load
// exactly as it does over bare servers.
func (n *Node) LoadSnapshot() overload.Snapshot { return n.srv.LoadSnapshot() }

// Stats returns a snapshot of the node's sync counters, including the
// per-peer breakdown.
func (n *Node) Stats() SyncStats {
	n.mu.Lock()
	s := n.stats
	n.mu.Unlock()
	s.Peers = n.members.Stats()
	return s
}

// view returns (creating if needed) the evidence view for a peer.
// Callers hold n.mu.
func (n *Node) view(peerID int) []float64 {
	v, ok := n.views[peerID]
	if !ok {
		v = append([]float64(nil), n.initial...)
		n.views[peerID] = v
	}
	return v
}

// delta returns (creating if needed) the peer's reusable delta buffers.
// Callers hold n.mu.
func (n *Node) delta(peerID int) *peerScratch {
	d, ok := n.deltas[peerID]
	if !ok {
		d = &peerScratch{}
		n.deltas[peerID] = d
	}
	return d
}

// freqView returns (creating if needed) the Φ view for a peer. Callers
// hold n.mu.
func (n *Node) freqView(peerID int) []float64 {
	v, ok := n.freqViews[peerID]
	if !ok {
		v = append([]float64(nil), n.initialFreq...)
		n.freqViews[peerID] = v
	}
	return v
}

// Delta is one peer-bound batch of changed cells and Φ increments.
// freqRaw keeps the undiscounted Φ increments for CommitDelta (the peer
// is credited with the full information even though it folds it in
// discounted).
type Delta struct {
	Cells   []protocol.PeerCell
	Freq    []float64
	freqRaw []float64
}

// Empty reports whether the delta carries nothing.
func (d Delta) Empty() bool { return len(d.Cells) == 0 && d.Freq == nil }

// CollectDelta gathers the cells whose evidence ledger moved past what
// the peer possesses — new entries, client merges, and (in forwarding
// topologies) evidence learned from other peers — each carrying the
// ledger difference as its evidence, plus the Φ increments under the
// remote-importance discount. It does not mark anything as delivered;
// call CommitDelta once the exchange succeeded, so a failed wire send
// retries the same content on the next sync.
//
// The returned Delta borrows the peer's reusable buffers (and the cell
// vectors are borrowed immutable table entries): it stays valid until the
// next CollectDelta FOR THE SAME PEER, which matches both sync drivers —
// SyncNodes collects every pair before applying, PeerSet collects, ships
// and commits one peer at a time. The global-table sweep runs through
// gtable's per-shard parallel AppendCells, so one slow scan no longer
// serializes the whole sync plane on a single goroutine.
func (n *Node) CollectDelta(peerID int) Delta {
	n.mu.Lock()
	defer n.mu.Unlock()
	view := n.view(peerID)
	ps := n.delta(peerID)
	// A still-pending scratch means the previous exchange with this peer
	// faulted before commit: the view did not move, so everything below
	// re-collects that content — the at-least-once resend, counted
	// per-peer so chaos runs can see the retry cost.
	resent := 0
	if ps.pending {
		resent = len(ps.cells)
	}
	ps.cells = ps.cells[:0]
	ps.selfH = ps.selfH[:0]
	n.sweep = n.srv.AppendCells(n.sweep[:0])
	for i := range n.sweep {
		c := &n.sweep[i]
		k := c.Class*n.layers + c.Layer
		// The evidence shipped is the ledger growth since the last sync
		// with this peer: exactly the new information, never the (capped)
		// bulk of the entry's history.
		if ev := c.EvTotal - view[k]; ev > 0 {
			// Vec is the live entry; merges replace entry slices rather
			// than mutating them, so holding the reference is a stable
			// snapshot.
			ps.cells = append(ps.cells, protocol.PeerCell{Class: c.Class, Layer: c.Layer, Evidence: ev, Vec: c.Vec})
			ps.selfH = append(ps.selfH, c.EvTotal-n.base[k]-n.foreign[k])
		}
	}
	n.tagOrigins(ps)
	d := Delta{Cells: ps.cells}
	// Φ increments since the last sync with this peer (Eq. 5 across the
	// federation): Φ is monotone, so view differences are the increments,
	// shipped under the remote-importance discount (biased samples of
	// this fleet's distribution, not the receiver's).
	w := n.cfg.remoteFreqWeight()
	if w > 0 {
		n.freqScratch = n.srv.GlobalFreqInto(n.freqScratch)
		freq := n.freqScratch
		fview := n.freqView(peerID)
		moved := false
		for i, f := range freq {
			if f > fview[i] {
				moved = true
				break
			}
		}
		if moved {
			if cap(ps.freq) < len(freq) {
				ps.freq = make([]float64, len(freq))
				ps.freqRaw = make([]float64, len(freq))
			}
			ps.freq = ps.freq[:len(freq)]
			ps.freqRaw = ps.freqRaw[:len(freq)]
			for i, f := range freq {
				if f > fview[i] {
					ps.freqRaw[i] = f - fview[i]
					ps.freq[i] = w * ps.freqRaw[i]
				} else {
					ps.freqRaw[i] = 0
					ps.freq[i] = 0
				}
			}
			d.Freq = ps.freq
			d.freqRaw = ps.freqRaw
		}
	}
	ps.pending = !d.Empty()
	if resent > 0 {
		n.members.noteSent(peerID, 0, resent, 0)
	}
	return d
}

// tagOrigins attaches origin tags to a collected delta's cells (caller
// holds n.mu; ps.selfH[i] is cell i's derived own-origin height).
//
// Emission is asymmetric by topology role, and the asymmetry is
// load-bearing. A non-relaying (mesh) cell tags only {self, selfHeight}:
// mesh crediting marks received evidence possessed-by-all at apply time,
// so a mesh cell's pending Evidence is exactly the node's own ledger
// growth — the self tag covers it, and the receiver's computed increment
// equals Evidence bit-for-bit (integer-exact arithmetic). A relaying
// cell (star hub, ring member, gossip) ships the FULL decomposition —
// self height plus every olog height — because forwarded evidence is
// where recirculation lives: an origin that receives its own tag back
// computes a zero increment and discards the cell, which is what turns
// the bounded-amplitude circulation of cyclic topologies into decay.
func (n *Node) tagOrigins(ps *peerScratch) {
	maxPer := 1
	if n.cfg.Relay {
		maxPer += len(n.olog)
	}
	need := len(ps.cells) * maxPer
	if cap(ps.origins) < need {
		ps.origins = make([]protocol.OriginHeight, 0, need)
	}
	ps.origins = ps.origins[:0]
	var oids []int
	if n.cfg.Relay {
		oids = n.oidScratch[:0]
		for id := range n.olog {
			oids = append(oids, id)
		}
		sort.Ints(oids)
		n.oidScratch = oids
	}
	for i := range ps.cells {
		c := &ps.cells[i]
		k := c.Class*n.layers + c.Layer
		start := len(ps.origins)
		if h := ps.selfH[i]; h > 0 {
			ps.origins = append(ps.origins, protocol.OriginHeight{Origin: int32(n.cfg.ID), Height: h})
		}
		for _, oid := range oids {
			if h := n.olog[oid][k]; h > 0 {
				ps.origins = append(ps.origins, protocol.OriginHeight{Origin: int32(oid), Height: h})
			}
		}
		c.Origins = ps.origins[start:len(ps.origins):len(ps.origins)]
	}
}

// CommitDelta credits a successfully delivered delta to the peer's views
// and counts its traffic. Credits are increments (never absolute
// overwrites), so commits commute with inbound applies that landed
// between collection and delivery.
func (n *Node) CommitDelta(peerID int, d Delta, wireBytes int) {
	n.mu.Lock()
	view := n.view(peerID)
	for _, c := range d.Cells {
		view[c.Class*n.layers+c.Layer] += c.Evidence
	}
	if d.freqRaw != nil {
		fview := n.freqView(peerID)
		for i, f := range d.freqRaw {
			fview[i] += f
		}
	}
	if ps, ok := n.deltas[peerID]; ok {
		ps.pending = false
	}
	n.stats.CellsSent += len(d.Cells)
	n.stats.BytesSent += int64(wireBytes)
	epoch := n.epoch
	n.mu.Unlock()
	telemetry.FedCellsSent.Add(uint64(len(d.Cells)))
	telemetry.FedBytesSent.Add(uint64(wireBytes))
	telemetry.FedExchangeBytes.Observe(float64(wireBytes))
	n.members.noteSent(peerID, len(d.Cells), 0, int64(wireBytes))
	n.members.NoteSuccess(peerID, epoch)
}

// HandlePeerHello implements protocol.PeerHandler: it checks model
// agreement (mirroring the client Hello validation) and returns this
// node's id for the ack.
func (n *Node) HandlePeerHello(nodeID, numClasses, numLayers int) (int, error) {
	if nodeID == n.cfg.ID {
		return 0, fmt.Errorf("federation: peer offers node id %d, which is this node's own id — every fleet member needs a distinct id", nodeID)
	}
	classes, layers := n.srv.Shape()
	if numClasses != classes || numLayers != layers {
		return 0, fmt.Errorf("federation: peer %d model mismatch: peer %d×%d, local %d×%d",
			nodeID, numClasses, numLayers, classes, layers)
	}
	n.members.NoteContact(nodeID)
	return n.cfg.ID, nil
}

// HandlePeerJoin implements protocol.PeerHandler: a peer announced it is
// (re)joining the fleet. The joiner is fresh — whatever this node thought
// it possessed, it now holds only the shared initial table state — so the
// peer's views reset, and when the joiner asked for a bootstrap snapshot
// the reply carries everything this node's ledgers grew since
// construction as ONE delta batch (the same fresh-view collection a first
// sync would produce, NOT a replay of per-round history). The snapshot is
// committed as delivered on the spot: if the reply is lost the joiner
// retries the join, which resets the views again, so nothing is stranded.
//
// Federated servers are built from the same shared dataset (same
// ServerConfig.Seed), which is what makes the initial state common
// knowledge and the snapshot a pure diff — the join cost scales with how
// much the fleet LEARNED, not how long it ran.
func (n *Node) HandlePeerJoin(j *protocol.PeerJoin) (*protocol.PeerSnapshot, error) {
	from := int(j.NodeID)
	if from == n.cfg.ID {
		return nil, fmt.Errorf("federation: joining peer offers node id %d, which is this node's own id", from)
	}
	classes, layers := n.srv.Shape()
	if int(j.NumClasses) != classes || int(j.NumLayers) != layers {
		return nil, fmt.Errorf("federation: joining peer %d model mismatch: peer %d×%d, local %d×%d",
			from, j.NumClasses, j.NumLayers, classes, layers)
	}
	snap := &protocol.PeerSnapshot{NodeID: int32(n.cfg.ID)}
	n.mu.Lock()
	delete(n.views, from)
	delete(n.freqViews, from)
	if ps, ok := n.deltas[from]; ok {
		ps.pending = false
	}
	snap.Epoch = n.epoch
	if j.WantSnapshot {
		// Collect into fresh allocations, not the peer's scratch: the
		// snapshot outlives this call (it is encoded as the reply after
		// the handler returns) and must not be clobbered by a concurrent
		// sync collecting for the same peer.
		view := n.view(from)
		n.sweep = n.srv.AppendCells(n.sweep[:0])
		var oids []int
		if n.cfg.Relay {
			for id := range n.olog {
				oids = append(oids, id)
			}
			sort.Ints(oids)
		}
		for i := range n.sweep {
			c := &n.sweep[i]
			k := c.Class*n.layers + c.Layer
			if ev := c.EvTotal - view[k]; ev > 0 {
				pc := protocol.PeerCell{Class: c.Class, Layer: c.Layer, Evidence: ev, Vec: c.Vec}
				// Snapshot cells carry the same origin tags a push delta
				// would (self-only on mesh, full decomposition on relays):
				// without them the joiner would absorb this evidence into
				// its OWN derived height and re-announce it under its own
				// origin — a one-time fleet-wide double count.
				if h := c.EvTotal - n.base[k] - n.foreign[k]; h > 0 {
					pc.Origins = append(pc.Origins, protocol.OriginHeight{Origin: int32(n.cfg.ID), Height: h})
				}
				for _, oid := range oids {
					if h := n.olog[oid][k]; h > 0 {
						pc.Origins = append(pc.Origins, protocol.OriginHeight{Origin: int32(oid), Height: h})
					}
				}
				snap.Cells = append(snap.Cells, pc)
				view[k] += ev
			}
		}
		w := n.cfg.remoteFreqWeight()
		if w > 0 {
			n.freqScratch = n.srv.GlobalFreqInto(n.freqScratch)
			fview := n.freqView(from)
			for i, f := range n.freqScratch {
				if f > fview[i] {
					if snap.Freq == nil {
						snap.Freq = make([]float64, len(n.freqScratch))
					}
					snap.Freq[i] = w * (f - fview[i])
					fview[i] = f
				}
			}
		}
		n.stats.CellsSent += len(snap.Cells)
	}
	n.mu.Unlock()
	n.members.AddPeer(from)
	n.members.SetAddr(from, j.Addr)
	if j.WantSnapshot {
		n.members.noteJoin(from)
		n.members.noteSent(from, len(snap.Cells), 0, 0)
		telemetry.FedSnapshotJoins.Inc()
		telemetry.FedCellsSent.Add(uint64(len(snap.Cells)))
		if tr := telemetry.Trace(); tr != nil {
			tr.Emit("snapshot_join",
				telemetry.Int("peer", from),
				telemetry.Str("addr", j.Addr),
				telemetry.Int("cells", len(snap.Cells)))
		}
	}
	return snap, nil
}

// HandlePeerLeave implements protocol.PeerHandler: the peer announced a
// clean departure, so it is marked left immediately — no suspect timeout
// to wait out.
func (n *Node) HandlePeerLeave(nodeID int) {
	n.members.NoteLeave(nodeID)
}

// ApplySnapshot folds a bootstrap snapshot received from a peer into the
// local table — a snapshot is semantically one big peer delta, so all the
// crediting rules (relay vs possessed-by-all, Φ discounting already
// applied by the sender) reuse HandlePeerDelta. wireBytes is the received
// frame size (the joiner's bootstrap traffic).
func (n *Node) ApplySnapshot(snap *protocol.PeerSnapshot, wireBytes int) (int, error) {
	applied, err := n.HandlePeerDelta(&protocol.PeerDelta{
		NodeID: snap.NodeID,
		Epoch:  snap.Epoch,
		Cells:  snap.Cells,
		Freq:   snap.Freq,
	})
	n.NotePeerRecvBytes(wireBytes)
	return applied, err
}

// HandlePeerDelta implements protocol.PeerHandler: it merges a peer's
// changed cells into the local table, recency-weighted, in the order sent
// (ascending (class, layer) — CollectDelta's scan order), folds the
// peer's Φ increments into the local frequencies, and credits the
// received evidence to the sender's views — the sender possesses what it
// sent, so nothing received is ever echoed back.
//
// Malformed cells — out of range, or without origin tags — are skipped
// (recorded in SyncStats) rather than failing the exchange: erroring out
// mid-delta would leave the sender uncommitted and retrying the
// already-applied prefix every sync — unbounded evidence inflation from
// one bad cell. Only a bad frequency vector fails the whole exchange (it
// is all-or-nothing by shape).
func (n *Node) HandlePeerDelta(d *protocol.PeerDelta) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	from := int(d.NodeID)
	view := n.view(from)
	applied := 0
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Class < 0 || c.Class >= n.classes || c.Layer < 0 || c.Layer >= n.layers {
			n.stats.Errors++
			n.stats.LastError = fmt.Sprintf("federation: peer cell (%d,%d) outside %d×%d", c.Class, c.Layer, n.classes, n.layers)
			continue
		}
		if len(c.Origins) == 0 {
			n.stats.Errors++
			n.stats.LastError = fmt.Sprintf("federation: peer cell (%d,%d) carries no origin tags", c.Class, c.Layer)
			continue
		}
		k := c.Class*n.layers + c.Layer
		// The merge weight: exactly the part of each origin's announced
		// height this node has not applied yet (max(0, announced − olog))
		// — a resent or relayed-around copy whose heights are all known
		// computes zero and is discarded, the exactly-once discard that
		// makes dup storms and cyclic echo harmless.
		inc := 0.0
		for _, oh := range c.Origins {
			o := int(oh.Origin)
			if o == n.cfg.ID {
				continue // own evidence coming back: already possessed
			}
			if hv, ok := n.olog[o]; ok {
				if dlt := oh.Height - hv[k]; dlt > 0 {
					inc += dlt
				}
			} else if oh.Height > 0 {
				inc += oh.Height
			}
		}
		if inc <= 0 {
			continue
		}
		ver, _, err := n.srv.MergePeerCell(c.Class, c.Layer, c.Vec, inc, view[k])
		if err != nil {
			n.stats.Errors++
			n.stats.LastError = err.Error()
			continue
		}
		if ver == 0 {
			continue // updates disabled; the ledger did not move
		}
		// Commit the origin heights only now that the merge landed: a
		// skipped cell must stay pullable/re-appliable.
		for _, oh := range c.Origins {
			if o := int(oh.Origin); o != n.cfg.ID {
				if hv := n.originHeights(o); oh.Height > hv[k] {
					hv[k] = oh.Height
				}
			}
		}
		n.foreign[k] += inc
		applied++
		if n.cfg.Relay {
			view[k] += inc
		} else {
			// Non-relaying (mesh) node: the origin ships to every peer
			// directly, so received evidence is possessed-by-all — credit
			// every existing view and the template for future ones.
			for _, v := range n.views {
				v[k] += inc
			}
			n.initial[k] += inc
		}
	}
	if len(d.Freq) > 0 {
		if len(d.Freq) != n.classes {
			return applied, fmt.Errorf("federation: peer frequency length %d, want %d", len(d.Freq), n.classes)
		}
		if err := n.srv.AddPeerFreq(d.Freq); err != nil {
			return applied, err
		}
		if n.cfg.Relay {
			fview := n.freqView(from)
			for i, f := range d.Freq {
				fview[i] += f
			}
		} else {
			for _, fv := range n.freqViews {
				for i, f := range d.Freq {
					fv[i] += f
				}
			}
			for i, f := range d.Freq {
				n.initialFreq[i] += f
			}
		}
	}
	n.stats.CellsRecv += applied
	telemetry.FedCellsRecv.Add(uint64(applied))
	if len(d.Gossip) > 0 {
		n.members.ApplyGossip(n.cfg.ID, d.Gossip)
	}
	n.members.NoteContact(from)
	n.members.noteRecv(from, applied)
	return applied, nil
}

// noteSyncError records a failed wire sync attempt so silent peer
// misconfiguration (bad address, model mismatch) is visible in Stats.
func (n *Node) noteSyncError(err error) {
	n.mu.Lock()
	n.stats.Errors++
	n.stats.LastError = err.Error()
	n.mu.Unlock()
	telemetry.FedSyncErrors.Inc()
}

// NotePeerRecvBytes counts inbound sync traffic (called by the serving
// loop with the frame size of a received peer delta, and by the
// in-process driver with the encoded exchange size).
func (n *Node) NotePeerRecvBytes(b int) {
	n.mu.Lock()
	n.stats.BytesRecv += int64(b)
	n.mu.Unlock()
	telemetry.FedBytesRecv.Add(uint64(b))
}

// EndSync closes one sync round: the epoch advances, the round is counted
// and membership ticks. It leaves peer views alone: mesh crediting in
// HandlePeerDelta already marks received evidence as held by every view,
// and a peer skipped or faulted this round must keep the view that makes
// the next collect send it what it is owed.
func (n *Node) EndSync() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.epoch++
	n.stats.Syncs++
	telemetry.FedSyncs.Inc()
	n.members.Tick()
}

// Epoch returns the number of completed sync rounds.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

var (
	_ core.Coordinator     = (*Node)(nil)
	_ protocol.PeerHandler = (*Node)(nil)
)
