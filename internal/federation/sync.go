package federation

import (
	"fmt"
	"sync"

	"coca/internal/protocol"
	"coca/internal/telemetry"
)

// syncFrameBuf recycles the frame buffers sync collection encodes deltas
// into: the encoding exercises (and measures) the exact wire path, but the
// bytes themselves are only needed for their length, so reused buffers
// suffice (one per concurrently collecting node).
var syncFrameBuf = sync.Pool{New: func() any { return new([]byte) }}

// exchange is one collected node→peer delta with its encoded frame size.
type exchange struct {
	from, to int
	delta    Delta
	bytes    int
}

// SyncPlan is one federation sync round split into its deterministic
// phases:
//
//  1. Collect(i) gathers node i's delta for every peer link — nothing is
//     applied yet, so collection order cannot influence content, and a
//     node's collection reads only that node's local state;
//  2. Apply() applies every collected delta receiver-major in ascending
//     sender id order — the deterministic peer-id merge rule — and closes
//     the round on every node.
//
// The split is what lets a multi-server driver overlap collection with
// the round barrier: federation.Cluster collects a node's deltas the
// moment that node's own round completes, while the other nodes are still
// running theirs — the sync outcome is a pure function of each node's
// pre-sync state either way, so results are identical to collecting
// everything after the barrier. Collect is safe to call concurrently for
// distinct nodes; Apply requires every node to have collected.
type SyncPlan struct {
	nodes     []*Node
	topo      *Topology
	byID      map[int]*Node
	exchanges [][]exchange // per node position: its outgoing exchanges
	collected []bool
	fault     func(from, to int) bool
}

// SetFault installs a fault predicate consulted at Apply time for every
// collected exchange: a true return fails that link this round — the
// delta is NOT applied, NOT committed (the sender's scratch stays pending,
// so the next collect resends it), the sender's failure detector records
// the miss, and mesh fast-forward excludes the faulted peer's view. This
// is the chaos hook: faults land AFTER collection, exercising the exact
// collected-then-lost resend path a broken wire produces.
func (p *SyncPlan) SetFault(f func(from, to int) bool) { p.fault = f }

// PrepareSync validates the fleet against the topology and returns a plan
// for one sync round.
func PrepareSync(nodes []*Node, topo *Topology) (*SyncPlan, error) {
	if len(nodes) != topo.NumNodes() {
		return nil, fmt.Errorf("federation: %d nodes under a %d-node topology", len(nodes), topo.NumNodes())
	}
	byID := make(map[int]*Node, len(nodes))
	order := make([]int, 0, len(nodes))
	for _, n := range nodes {
		if _, dup := byID[n.ID()]; dup {
			return nil, fmt.Errorf("federation: duplicate node id %d", n.ID())
		}
		byID[n.ID()] = n
		order = append(order, n.ID())
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			return nil, fmt.Errorf("federation: nodes must be ordered by id (got %d before %d)", order[i-1], order[i])
		}
	}
	if len(nodes) != len(topo.peers) {
		return nil, fmt.Errorf("federation: topology covers %d nodes, fleet has %d", len(topo.peers), len(nodes))
	}
	for _, n := range nodes {
		if n.cfg.Relay != topo.Forwarding() {
			return nil, fmt.Errorf("federation: node %d has Relay=%v under a %s topology (want %v): evidence would %s",
				n.ID(), n.cfg.Relay, topo.Kind(), topo.Forwarding(),
				map[bool]string{true: "never cross the relay hop", false: "re-circulate the mesh"}[topo.Forwarding()])
		}
	}
	return &SyncPlan{
		nodes:     nodes,
		topo:      topo,
		byID:      byID,
		exchanges: make([][]exchange, len(nodes)),
		collected: make([]bool, len(nodes)),
	}, nil
}

// Collect runs phase 1 for the node at position i: it collects the node's
// delta for every peer link (in the topology's peer order) and encodes
// each non-empty delta as its protocol frame — the frame length is the
// sync-traffic measurement the federation experiments report, and the
// encoding exercises the exact wire path; empty deltas are skipped (a
// wire sender would not dial for nothing). Collect reads only node i's
// state, so distinct positions may collect concurrently — and before
// other nodes have finished their round work.
func (p *SyncPlan) Collect(i int) error {
	if p.collected[i] {
		return fmt.Errorf("federation: node position %d collected twice", i)
	}
	n := p.nodes[i]
	buf := syncFrameBuf.Get().(*[]byte)
	defer syncFrameBuf.Put(buf)
	msg := protocol.Message{Type: protocol.TypePeerDelta, PeerDelta: &protocol.PeerDelta{}}
	// Topology indices are positions in the ordered node slice, so node
	// ids and topology nodes line up. The round coordinate (the node's
	// epoch) drives gossip peer sampling and the dead-peer re-probe
	// schedule.
	round := n.Epoch()
	for _, pp := range p.topo.PeersAt(i, round) {
		peer := p.nodes[pp]
		if n.members.Skip(peer.ID(), round) {
			continue // dead or left, and this is not a re-probe round
		}
		d := n.CollectDelta(peer.ID())
		if d.Empty() {
			continue
		}
		*msg.PeerDelta = protocol.PeerDelta{
			NodeID: int32(n.ID()),
			Epoch:  n.Epoch(),
			Cells:  d.Cells,
			Freq:   d.Freq,
		}
		frame, err := protocol.AppendEncode((*buf)[:0], &msg)
		if err != nil {
			return fmt.Errorf("federation: encode delta %d→%d: %w", n.ID(), peer.ID(), err)
		}
		*buf = frame[:0]
		p.exchanges[i] = append(p.exchanges[i], exchange{from: n.ID(), to: peer.ID(), delta: d, bytes: len(frame)})
		if p.topo.Kind() == Gossip {
			telemetry.FedGossipSends.Inc()
		}
	}
	p.collected[i] = true
	return nil
}

// Apply runs phases 2 and 3: every collected delta is applied
// receiver-major in ascending sender id order (node positions ascend by
// id and each position's exchanges were collected in peer order, so a
// stable selection by receiver preserves ascending sender order per
// receiver), then every node closes the round. It fails if any node has
// not collected — applying a partial plan would desynchronize the fleet.
func (p *SyncPlan) Apply() error {
	for i, done := range p.collected {
		if !done {
			return fmt.Errorf("federation: node position %d has not collected its deltas", i)
		}
	}
	// faultedOut[sender id] = receivers whose exchange the fault predicate
	// failed this round; those links stay uncommitted and are excluded
	// from the sender's fast-forward.
	var faultedOut map[int]map[int]bool
	for _, n := range p.nodes {
		for _, exs := range p.exchanges {
			for _, ex := range exs {
				if ex.to != n.ID() {
					continue
				}
				sender := p.byID[ex.from]
				if p.fault != nil && p.fault(ex.from, ex.to) {
					sender.members.NoteFailure(ex.to)
					sender.noteSyncError(fmt.Errorf("federation: injected fault on link %d→%d", ex.from, ex.to))
					if faultedOut == nil {
						faultedOut = make(map[int]map[int]bool)
					}
					if faultedOut[ex.from] == nil {
						faultedOut[ex.from] = make(map[int]bool)
					}
					faultedOut[ex.from][ex.to] = true
					continue
				}
				if _, err := n.HandlePeerDelta(&protocol.PeerDelta{
					NodeID: int32(ex.from),
					Epoch:  sender.Epoch(),
					Cells:  ex.delta.Cells,
					Freq:   ex.delta.Freq,
				}); err != nil {
					return fmt.Errorf("federation: apply delta %d→%d: %w", ex.from, ex.to, err)
				}
				n.NotePeerRecvBytes(ex.bytes)
				sender.CommitDelta(ex.to, ex.delta, ex.bytes)
			}
		}
	}
	fastForward := !p.topo.Forwarding()
	for _, n := range p.nodes {
		n.EndSyncExcept(fastForward, faultedOut[n.ID()])
	}
	return nil
}

// SyncNodes executes one federation sync round over an in-process fleet,
// deterministically: it prepares a plan, collects every node's deltas and
// applies them (see SyncPlan for the phase contract). Drivers that can
// overlap collection with their round barrier use the plan directly.
func SyncNodes(nodes []*Node, topo *Topology) error {
	plan, err := PrepareSync(nodes, topo)
	if err != nil {
		return err
	}
	for i := range nodes {
		if err := plan.Collect(i); err != nil {
			return err
		}
	}
	return plan.Apply()
}
