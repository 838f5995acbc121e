package federation

import (
	"fmt"
	"math"
	"sort"

	"coca/internal/protocol"
	"coca/internal/telemetry"
)

// This file is the pull half of the self-healing federation: compact
// per-class ledger digests, want-list negotiation, and full-cell pull
// repair. Push (deltas) moves evidence the sender knows the receiver
// lacks; pull moves evidence the RECEIVER discovers it lacks — which is
// what heals a partitioned-then-recovered minority without waiting for
// the majority's next push to happen to touch it.
//
// A digest row is a (sum, checksum) pair per class: the sum of every
// origin height behind the class's cells (integer-valued evidence makes
// the float64 sum exact, so equal states compare EQUAL, not
// approximately equal), and an FNV-1a fold of the (layer, origin,
// height) triples guarding against different decompositions that happen
// to share a sum. Only classes whose rows disagree expand into per-cell,
// per-origin digest cells; only cells where the responder's height
// strictly exceeds the local one are pulled.

// fnvMix folds one 64-bit value into a running FNV-1a checksum.
func fnvMix(h uint32, v uint64) uint32 {
	for i := 0; i < 8; i++ {
		h ^= uint32(v & 0xff)
		h *= 16777619
		v >>= 8
	}
	return h
}

const fnvOffset = uint32(2166136261)

// denseEv rebuilds the dense evTotal scratch from a fresh table sweep.
// Callers hold n.mu.
func (n *Node) denseEv(dst []float64) []float64 {
	need := n.classes * n.layers
	if cap(dst) < need {
		dst = make([]float64, need)
	}
	dst = dst[:need]
	for i := range dst {
		dst[i] = 0
	}
	n.sweep = n.srv.AppendCells(n.sweep[:0])
	for i := range n.sweep {
		c := &n.sweep[i]
		dst[c.Class*n.layers+c.Layer] = c.EvTotal
	}
	return dst
}

// sortedOriginsWithSelf returns every origin id this node holds heights
// for, plus its own id, ascending — the deterministic iteration order
// digest hashing on both sides of an exchange must share. Callers hold
// n.mu.
func (n *Node) sortedOriginsWithSelf() []int {
	ids := n.oidScratch[:0]
	for id := range n.olog {
		ids = append(ids, id)
	}
	ids = append(ids, n.cfg.ID)
	sort.Ints(ids)
	n.oidScratch = ids
	return ids
}

// heightAt is the absolute evidence height this node holds for one
// origin at cell k (its own height is derived from the ledger; ev is the
// dense evTotal scratch). Callers hold n.mu.
func (n *Node) heightAt(origin, k int, ev []float64) float64 {
	if origin == n.cfg.ID {
		return ev[k] - n.base[k] - n.foreign[k]
	}
	if hv, ok := n.olog[origin]; ok {
		return hv[k]
	}
	return 0
}

// rowDigestInto fills dst (2 per class: sum, checksum) from the node's
// current origin heights. Callers hold n.mu; ids is
// sortedOriginsWithSelf().
func (n *Node) rowDigestInto(ev []float64, ids []int, dst []float64) []float64 {
	if cap(dst) < 2*n.classes {
		dst = make([]float64, 2*n.classes)
	}
	dst = dst[:2*n.classes]
	for class := 0; class < n.classes; class++ {
		sum := 0.0
		h := fnvOffset
		for layer := 0; layer < n.layers; layer++ {
			k := class*n.layers + layer
			for _, id := range ids {
				ht := n.heightAt(id, k, ev)
				if ht <= 0 {
					continue
				}
				sum += ht
				h = fnvMix(h, uint64(layer))
				h = fnvMix(h, uint64(uint32(int32(id))))
				h = fnvMix(h, math.Float64bits(ht))
			}
		}
		dst[2*class] = sum
		dst[2*class+1] = float64(h) // uint32 values are float64-exact
	}
	return dst
}

// BuildDigestRequest summarizes this node's ledgers as digest rows for a
// pull anti-entropy round. The returned request is freshly allocated (it
// survives encoding and the full round trip); the caller attaches gossip
// and ships it.
func (n *Node) BuildDigestRequest() *protocol.PeerDigestRequest {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.aeEv = n.denseEv(n.aeEv)
	ids := n.sortedOriginsWithSelf()
	return &protocol.PeerDigestRequest{
		NodeID: int32(n.cfg.ID),
		Rows:   n.rowDigestInto(n.aeEv, ids, make([]float64, 2*n.classes)),
	}
}

// HandlePeerDigestRequest implements protocol.PeerHandler: it
// compares the requester's digest rows against the local ledgers and
// answers with per-cell, per-origin heights for every class the two
// sides disagree on — the requester turns those into a want list. The
// reply is freshly allocated (it must survive the reply encode).
func (n *Node) HandlePeerDigestRequest(q *protocol.PeerDigestRequest) (*protocol.PeerDigest, error) {
	from := int(q.NodeID)
	if from == n.cfg.ID {
		return nil, fmt.Errorf("federation: digest request from node id %d, which is this node's own id", from)
	}
	n.members.ApplyGossip(n.cfg.ID, q.Gossip)
	n.members.NoteContact(from)
	n.mu.Lock()
	if len(q.Rows) != 0 && len(q.Rows) != 2*n.classes {
		n.mu.Unlock()
		return nil, fmt.Errorf("federation: digest request from %d carries %d rows, want %d — model mismatch", from, len(q.Rows), 2*n.classes)
	}
	n.aeEv = n.denseEv(n.aeEv)
	ids := n.sortedOriginsWithSelf()
	n.aeRows = n.rowDigestInto(n.aeEv, ids, n.aeRows)
	dg := &protocol.PeerDigest{NodeID: int32(n.cfg.ID), Epoch: n.epoch}
	for class := 0; class < n.classes; class++ {
		if len(q.Rows) == 2*n.classes &&
			q.Rows[2*class] == n.aeRows[2*class] && q.Rows[2*class+1] == n.aeRows[2*class+1] {
			continue // exact agreement on this class
		}
		for layer := 0; layer < n.layers; layer++ {
			k := class*n.layers + layer
			for _, id := range ids {
				if ht := n.heightAt(id, k, n.aeEv); ht > 0 {
					dg.Cells = append(dg.Cells, protocol.DigestCell{
						Class: int32(class), Layer: int32(layer), Origin: int32(id), Height: ht,
					})
				}
			}
		}
	}
	n.mu.Unlock()
	dg.Gossip = n.members.GossipEntries(n.cfg.ID, "")
	return dg, nil
}

// BuildWants turns a peer's digest into the want list of cells where the
// peer's ledger strictly outruns this node's — the cells a pull will
// repair. Digest cells for one cell are consecutive (the digest is
// emitted cell-major), so one want per cell suffices: the responder
// ships whole cells, not per-origin slices.
func (n *Node) BuildWants(dg *protocol.PeerDigest) []protocol.DigestCell {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.aeEv = n.denseEv(n.aeEv)
	var wants []protocol.DigestCell
	lastClass, lastLayer := -1, -1
	for _, dc := range dg.Cells {
		class, layer := int(dc.Class), int(dc.Layer)
		if class < 0 || class >= n.classes || layer < 0 || layer >= n.layers {
			continue
		}
		if class == lastClass && layer == lastLayer {
			continue // cell already on the list
		}
		k := class*n.layers + layer
		if dc.Height > n.heightAt(int(dc.Origin), k, n.aeEv) {
			wants = append(wants, dc)
			lastClass, lastLayer = class, layer
		}
	}
	return wants
}

// HandlePeerPull implements protocol.PeerHandler: it answers a
// want list with the full current state of each wanted cell — vector,
// support, evidence ledger, and the COMPLETE origin decomposition
// (regardless of topology role: a pull repair adopts absolutely, so the
// receiver needs exact heights). The reply is freshly allocated; cell
// vectors are borrowed immutable table entries (merges replace, never
// mutate, entry slices).
func (n *Node) HandlePeerPull(q *protocol.PeerDigestRequest) (*protocol.PeerPullResponse, error) {
	from := int(q.NodeID)
	if from == n.cfg.ID {
		return nil, fmt.Errorf("federation: pull request from node id %d, which is this node's own id", from)
	}
	n.members.ApplyGossip(n.cfg.ID, q.Gossip)
	n.members.NoteContact(from)
	pr := &protocol.PeerPullResponse{NodeID: int32(n.cfg.ID)}
	n.mu.Lock()
	n.aeEv = n.denseEv(n.aeEv)
	ids := n.sortedOriginsWithSelf()
	lastClass, lastLayer := -1, -1
	for _, w := range q.Wants {
		class, layer := int(w.Class), int(w.Layer)
		if class < 0 || class >= n.classes || layer < 0 || layer >= n.layers {
			continue
		}
		if class == lastClass && layer == lastLayer {
			continue
		}
		lastClass, lastLayer = class, layer
		// The sweep is ascending (class, layer); find the wanted cell.
		idx := sort.Search(len(n.sweep), func(i int) bool {
			c := &n.sweep[i]
			return c.Class > class || (c.Class == class && c.Layer >= layer)
		})
		if idx >= len(n.sweep) || n.sweep[idx].Class != class || n.sweep[idx].Layer != layer {
			continue // nothing here (the want was based on a stale digest)
		}
		c := &n.sweep[idx]
		k := class*n.layers + layer
		pcl := protocol.PullCell{Class: class, Layer: layer, Support: c.Support, EvTotal: c.EvTotal, Vec: c.Vec}
		for _, id := range ids {
			if ht := n.heightAt(id, k, n.aeEv); ht > 0 {
				pcl.Origins = append(pcl.Origins, protocol.OriginHeight{Origin: int32(id), Height: ht})
			}
		}
		pr.Cells = append(pr.Cells, pcl)
	}
	n.mu.Unlock()
	pr.Gossip = n.members.GossipEntries(n.cfg.ID, "")
	return pr, nil
}

// ApplyPull folds a pull response in. Two repair modes compose with the
// concurrent push plane without ever rolling a cell back:
//
//   - ADOPT: when the responder's copy dominates — every origin height
//     this node holds (its own included) is at or below the responder's
//     listed height — the responder's cell is what this node would have
//     computed had it seen the same exchanges, so the vector, support
//     and ledger are taken verbatim. Integer-exact heights make this
//     reconvergence BITWISE, not approximate.
//   - MERGE: when both sides hold evidence the other lacks, the novel
//     part (per-origin height differences) folds in through the normal
//     recency-weighted peer merge, exactly as a push delta would.
//
// Stale responses (heights at or below local ones) compute a zero
// increment and are discarded — a duplicated or reordered pull is
// harmless, mirroring the push plane's resend-not-rollback invariant.
func (n *Node) ApplyPull(from int, pr *protocol.PeerPullResponse) (int, error) {
	n.mu.Lock()
	n.aeEv = n.denseEv(n.aeEv)
	view := n.view(from)
	repaired := 0
	for i := range pr.Cells {
		c := &pr.Cells[i]
		if c.Class < 0 || c.Class >= n.classes || c.Layer < 0 || c.Layer >= n.layers {
			n.stats.Errors++
			n.stats.LastError = fmt.Sprintf("federation: pulled cell (%d,%d) outside %d×%d", c.Class, c.Layer, n.classes, n.layers)
			continue
		}
		k := c.Class*n.layers + c.Layer
		inc := 0.0
		hMe := 0.0
		for _, oh := range c.Origins {
			o := int(oh.Origin)
			if o == n.cfg.ID {
				hMe = oh.Height
				continue
			}
			local := 0.0
			if hv, ok := n.olog[o]; ok {
				local = hv[k]
			}
			if d := oh.Height - local; d > 0 {
				inc += d
			}
		}
		selfH := n.aeEv[k] - n.base[k] - n.foreign[k]
		if inc <= 0 && hMe <= selfH {
			continue // nothing the responder holds outruns us
		}
		dominated := selfH <= hMe
		if dominated {
			for o, hv := range n.olog {
				if hv[k] <= 0 {
					continue
				}
				resp := 0.0
				for _, oh := range c.Origins {
					if int(oh.Origin) == o {
						resp = oh.Height
						break
					}
				}
				if hv[k] > resp {
					dominated = false
					break
				}
			}
		}
		if dominated {
			old := n.aeEv[k]
			ver, err := n.srv.AdoptPeerCell(c.Class, c.Layer, c.Vec, c.Support, c.EvTotal)
			if err != nil {
				n.stats.Errors++
				n.stats.LastError = err.Error()
				continue
			}
			if ver == 0 {
				continue // updates disabled, or a stale duplicate
			}
			grow := c.EvTotal - old
			for _, oh := range c.Origins {
				if o := int(oh.Origin); o != n.cfg.ID {
					if hv := n.originHeights(o); oh.Height > hv[k] {
						hv[k] = oh.Height
					}
				}
			}
			// After adoption the decomposition IS the responder's: the
			// derived self height lands exactly on the responder's
			// reading of this node's evidence (which may exceed the local
			// one after a crash-restart lost unshipped state).
			n.foreign[k] = c.EvTotal - n.base[k] - hMe
			n.aeEv[k] = c.EvTotal
			repaired++
			if n.cfg.Relay {
				if c.EvTotal > view[k] {
					view[k] = c.EvTotal
				}
			} else {
				for id, v := range n.views {
					if id == from {
						if c.EvTotal > v[k] {
							v[k] = c.EvTotal
						}
					} else {
						v[k] += grow
					}
				}
				n.initial[k] += grow
			}
			continue
		}
		if inc <= 0 {
			continue // divergent copy with nothing new from foreign origins
		}
		// The responder effectively possesses everything of this cell's
		// ledger except the locally-novel part — the per-origin height
		// surplus — which is exactly the recency the merge should weight.
		localNovel := selfH - hMe
		if localNovel < 0 {
			localNovel = 0
		}
		for o, hv := range n.olog {
			if hv[k] <= 0 {
				continue
			}
			resp := 0.0
			for _, oh := range c.Origins {
				if int(oh.Origin) == o {
					resp = oh.Height
					break
				}
			}
			if d := hv[k] - resp; d > 0 {
				localNovel += d
			}
		}
		ver, _, err := n.srv.MergePeerCell(c.Class, c.Layer, c.Vec, inc, n.aeEv[k]-localNovel)
		if err != nil {
			n.stats.Errors++
			n.stats.LastError = err.Error()
			continue
		}
		if ver == 0 {
			continue
		}
		for _, oh := range c.Origins {
			if o := int(oh.Origin); o != n.cfg.ID {
				if hv := n.originHeights(o); oh.Height > hv[k] {
					hv[k] = oh.Height
				}
			}
		}
		n.foreign[k] += inc
		n.aeEv[k] += inc
		repaired++
		if n.cfg.Relay {
			view[k] += inc
		} else {
			for _, v := range n.views {
				v[k] += inc
			}
			n.initial[k] += inc
		}
	}
	n.stats.CellsRepaired += repaired
	n.mu.Unlock()
	n.members.ApplyGossip(n.cfg.ID, pr.Gossip)
	n.members.NoteContact(from)
	telemetry.FedRepairedCells.Add(uint64(repaired))
	return repaired, nil
}

// noteAntiEntropy charges one completed pull round's traffic to this
// node (the initiator pays for the whole round, so fleet-wide sums count
// every frame exactly once).
func (n *Node) noteAntiEntropy(digestBytes, pullBytes int) {
	n.mu.Lock()
	n.stats.AntiEntropyRounds++
	n.stats.DigestBytes += int64(digestBytes)
	n.stats.PullBytes += int64(pullBytes)
	n.mu.Unlock()
	telemetry.FedAntiEntropyRounds.Inc()
	telemetry.FedDigestBytes.Add(uint64(digestBytes))
	telemetry.FedPullBytes.Add(uint64(pullBytes))
}
