package federation

import (
	"fmt"
	"sync"

	"coca/internal/protocol"
	"coca/internal/telemetry"
)

// syncFrameBuf recycles the frame buffer sync collection encodes deltas
// into: the encoding exercises (and measures) the exact wire path, but the
// bytes themselves are only needed for their length, so a reused buffer
// suffices (one per sync round in flight).
var syncFrameBuf = sync.Pool{New: func() any { return new([]byte) }}

// exchange is one collected delta to the node at position to, with its
// encoded frame size.
type exchange struct {
	to    int
	delta Delta
	bytes int
}

// SyncNodes executes one federation sync round over an in-process fleet,
// deterministically. nodes are ordered by ascending id, and topology index
// i is nodes[i].
func SyncNodes(nodes []*Node, topo *Topology) error { return syncNodes(nodes, topo, nil) }

// syncNodes runs one sync round in two phases:
//
//  1. every node collects its delta for every peer link (in the
//     topology's peer order) — nothing is applied yet, so collection order
//     cannot influence content;
//  2. every collected delta is applied receiver-major in ascending sender
//     id order — the deterministic peer-id merge rule — and every node
//     closes the round.
//
// fault, when non-nil, is consulted in phase 2 for every collected
// exchange: a true return fails that link this round — the delta is NOT
// applied, NOT committed (the sender's scratch stays pending, so the next
// collect resends it), the sender's failure detector records the miss, and
// mesh fast-forward excludes the faulted peer's view. This is the chaos
// hook: faults land AFTER collection, exercising the exact
// collected-then-lost resend path a broken wire produces.
func syncNodes(nodes []*Node, topo *Topology, fault func(from, to int) bool) error {
	if len(nodes) != topo.NumNodes() {
		return fmt.Errorf("federation: %d nodes under a %d-node topology", len(nodes), topo.NumNodes())
	}
	for i, n := range nodes {
		if i > 0 && n.ID() <= nodes[i-1].ID() {
			return fmt.Errorf("federation: nodes must be in ascending id order (got %d before %d)", nodes[i-1].ID(), n.ID())
		}
		if n.cfg.Relay != topo.Forwarding() {
			return fmt.Errorf("federation: node %d has Relay=%v under a %s topology (want %v): evidence would %s",
				n.ID(), n.cfg.Relay, topo.Kind(), topo.Forwarding(),
				map[bool]string{true: "never cross the relay hop", false: "re-circulate the mesh"}[topo.Forwarding()])
		}
	}

	// Phase 1. Each non-empty delta is encoded as its protocol frame — the
	// frame length is the sync-traffic measurement the federation
	// experiments report; empty deltas are skipped (a wire sender would not
	// dial for nothing).
	exchanges := make([][]exchange, len(nodes)) // per sender position
	buf := syncFrameBuf.Get().(*[]byte)
	defer syncFrameBuf.Put(buf)
	msg := protocol.Message{Type: protocol.TypePeerDelta, PeerDelta: &protocol.PeerDelta{}}
	for i, n := range nodes {
		// The round coordinate (the node's epoch) drives gossip peer
		// sampling and the dead-peer re-probe schedule.
		round := n.Epoch()
		for _, pp := range topo.PeersAt(i, round) {
			peer := nodes[pp]
			if n.members.Skip(peer.ID(), round) {
				continue // dead or left, and this is not a re-probe round
			}
			d := n.CollectDelta(peer.ID())
			if d.Empty() {
				continue
			}
			*msg.PeerDelta = protocol.PeerDelta{
				NodeID: int32(n.ID()),
				Epoch:  round,
				Cells:  d.Cells,
				Freq:   d.Freq,
			}
			frame, err := protocol.AppendEncode((*buf)[:0], &msg)
			if err != nil {
				return fmt.Errorf("federation: encode delta %d→%d: %w", n.ID(), peer.ID(), err)
			}
			*buf = frame[:0]
			exchanges[i] = append(exchanges[i], exchange{to: pp, delta: d, bytes: len(frame)})
			if topo.Kind() == Gossip {
				telemetry.FedGossipSends.Inc()
			}
		}
	}

	// Phase 2. faulted[sender position] holds the receiver ids whose
	// exchange the fault predicate failed this round; those links stay
	// uncommitted and are excluded from the sender's fast-forward.
	var faulted []map[int]bool
	for r, n := range nodes {
		for s, exs := range exchanges {
			sender := nodes[s]
			for _, ex := range exs {
				if ex.to != r {
					continue
				}
				if fault != nil && fault(sender.ID(), n.ID()) {
					sender.members.NoteFailure(n.ID())
					sender.noteSyncError(fmt.Errorf("federation: injected fault on link %d→%d", sender.ID(), n.ID()))
					if faulted == nil {
						faulted = make([]map[int]bool, len(nodes))
					}
					if faulted[s] == nil {
						faulted[s] = make(map[int]bool)
					}
					faulted[s][n.ID()] = true
					continue
				}
				if _, err := n.HandlePeerDelta(&protocol.PeerDelta{
					NodeID: int32(sender.ID()),
					Epoch:  sender.Epoch(),
					Cells:  ex.delta.Cells,
					Freq:   ex.delta.Freq,
				}); err != nil {
					return fmt.Errorf("federation: apply delta %d→%d: %w", sender.ID(), n.ID(), err)
				}
				n.NotePeerRecvBytes(ex.bytes)
				sender.CommitDelta(n.ID(), ex.delta, ex.bytes)
			}
		}
	}
	fastForward := !topo.Forwarding()
	for s, n := range nodes {
		var except map[int]bool
		if faulted != nil {
			except = faulted[s]
		}
		n.EndSyncExcept(fastForward, except)
	}
	return nil
}
