package federation

// Chaos-plane property tests for the elastic federation tier: the
// in-process fault hook (ClusterConfig.SyncFault, the fault predicate of
// syncNodes)
// drives partitions and lost exchanges through the exact
// collected-then-lost path a broken wire produces, and the tests assert
// the safety theorem that makes at-least-once resend correct — a faulted
// round delivers NOTHING and changes NOTHING the clients can see, so
// faulting every link on alternate rounds is bitwise-identical to simply
// syncing half as often.

import (
	"reflect"
	"testing"

	"coca/internal/core"
	"coca/internal/metrics"
)

// cellSnap is one populated table cell, deep-copied for cross-run
// comparison.
type cellSnap struct {
	Class, Layer int
	EvTotal      float64
	Vec          []float32
}

// nodeState is a node's client-visible state: its table cells and global
// class frequencies. Sync bookkeeping (views, epochs, stats) is
// deliberately excluded — the equivalence theorem is about what clients
// can observe.
type nodeState struct {
	Cells []cellSnap
	Freq  []float64
}

func snapshotNode(n *Node) nodeState {
	var st nodeState
	for _, c := range n.Server().AppendCells(nil) {
		st.Cells = append(st.Cells, cellSnap{
			Class: c.Class, Layer: c.Layer, EvTotal: c.EvTotal,
			Vec: append([]float32(nil), c.Vec...),
		})
	}
	st.Freq = n.Server().GlobalFreq()
	return st
}

// TestResendEquivalenceGolden is the partition-safety proof: a fleet
// syncing every round whose links ALL fail on even rounds must end
// bitwise-identical — every latency/accuracy/hit metric, every table
// cell, every frequency — to a fleet syncing every second round with no
// faults. A faulted exchange stays uncommitted, so the next collect
// resends exactly the lost content; if anything leaked (views
// credited with undelivered evidence, double-applied deltas,
// client-visible epoch effects), the two arms would diverge.
func TestResendEquivalenceGolden(t *testing.T) {
	for _, kind := range []Kind{Mesh, Ring} {
		t.Run(string(kind), func(t *testing.T) {
			run := func(syncEvery int, fault func(round, from, to int) bool) ([]metrics.Summary, []nodeState, SyncStats, int) {
				space := testSpace()
				cfg := clusterConfig(space, syncEvery)
				cfg.Topology = kind
				cfg.Rounds = 4
				cfg.SyncFault = fault
				cl, err := NewCluster(space, cfg)
				if err != nil {
					t.Fatal(err)
				}
				combined, err := cl.Run()
				if err != nil {
					t.Fatal(err)
				}
				sums := []metrics.Summary{combined.Summary()}
				var states []nodeState
				resent := 0
				for s, acc := range cl.PerServer() {
					sums = append(sums, acc.Summary())
					states = append(states, snapshotNode(cl.Nodes[s]))
					for _, p := range cl.Nodes[s].Stats().Peers {
						resent += p.CellsResent
					}
				}
				return sums, states, cl.SyncStats(), resent
			}

			// Arm A: sync every round, every link faulted on even rounds —
			// deliveries land only on odd rounds, carrying two rounds of
			// growth (one collected-and-lost, then resent).
			aSums, aStates, aStats, aResent := run(1, func(round, from, to int) bool { return round%2 == 0 })
			// Arm B: sync every second round, no faults — the same odd-round
			// delivery schedule reached without ever losing an exchange.
			bSums, bStates, _, bResent := run(2, nil)

			if !reflect.DeepEqual(aSums, bSums) {
				t.Fatalf("faulted metrics diverged from the half-cadence run:\n%+v\n%+v", aSums, bSums)
			}
			if !reflect.DeepEqual(aStates, bStates) {
				t.Fatal("faulted tables/frequencies diverged from the half-cadence run")
			}
			// The equivalence must have been earned the hard way: arm A
			// recorded the injected faults and the resends that healed them.
			if aStats.Errors == 0 {
				t.Fatalf("no injected faults recorded: %+v", aStats)
			}
			if aResent == 0 {
				t.Fatal("no resent cells recorded in arm A")
			}
			if bResent != 0 {
				t.Fatalf("fault-free arm recorded %d resent cells", bResent)
			}
		})
	}
}

// evTotalOf reads one cell's evidence-ledger position.
func evTotalOf(n *Node, class, layer int) float64 {
	for _, c := range n.Server().AppendCells(nil) {
		if c.Class == class && c.Layer == layer {
			return c.EvTotal
		}
	}
	return 0
}

// TestPartitionHealReconvergence isolates node 0 from the fleet for a
// window mid-run (the classic partition), heals, and demands
// reconvergence on every topology. What "reconverged" means depends on
// the graph:
//
//   - Acyclic sync graphs (mesh via possessed-by-all crediting, star
//     because a tree has one path per pair) drain completely: after a
//     bounded number of fault-free sync rounds with no new client
//     traffic, every topology-link delta is empty.
//   - Cyclic relay graphs (ring, gossip) used to re-circulate delivered
//     evidence forever — a push epidemic cannot tell a cell's own
//     evidence coming back around the cycle from fresh growth — so the
//     old honest property was merely bounded circulation. Origin tags
//     end the orbit: an echoed cell decomposes into per-origin heights
//     the receiver already holds, computes a zero increment, and dies
//     there. The circulation now decays to exactly zero — the fleet
//     goes quiet — and fresh evidence must still reach every member
//     through the healed cycle (the discard rule never stalls novelty).
func TestPartitionHealReconvergence(t *testing.T) {
	acyclic := map[Kind]bool{Mesh: true, Star: true}
	for _, kind := range []Kind{Mesh, Star, Ring, Gossip} {
		t.Run(string(kind), func(t *testing.T) {
			space := testSpace()
			cfg := clusterConfig(space, 1)
			cfg.Topology = kind
			cfg.GossipSeed = 11
			cfg.Rounds = 6
			// Frequency increments relay under a per-hop discount, so Φ
			// deltas decay geometrically instead of reaching an exact empty
			// fixpoint on forwarding topologies; disable them so emptiness
			// is a meaningful quiescence criterion for the cell ledgers.
			cfg.RemoteFreqWeight = -1
			cfg.SyncFault = func(round, from, to int) bool {
				return round >= 2 && round < 4 && (from == 0 || to == 0)
			}
			cl, err := NewCluster(space, cfg)
			if err != nil {
				t.Fatal(err)
			}
			combined, err := cl.Run()
			if err != nil {
				t.Fatal(err)
			}
			if want := 6 * 6 * 40; combined.Frames() != want {
				t.Fatalf("combined frames %d, want %d", combined.Frames(), want)
			}

			stats := cl.SyncStats()
			if stats.Errors == 0 {
				t.Fatalf("partition window injected no faults: %+v", stats)
			}
			resent := 0
			for _, n := range cl.Nodes {
				for _, p := range n.Stats().Peers {
					resent += p.CellsResent
				}
			}
			if resent == 0 {
				t.Fatal("partitioned deltas were not resent after heal")
			}
			for i, n := range cl.Nodes {
				if n.Server().PeerMerges() == 0 {
					t.Fatalf("node %d applied no peer merges despite the heal", i)
				}
			}

			if acyclic[kind] {
				// Drain: no new client traffic, so a bounded number of
				// clean sync rounds must leave every topology-link delta
				// empty. (Non-link pairs are excluded: a star's leaves
				// owe each other evidence forever by construction — the
				// hub is their only path.)
				converged := false
				for round := 0; round < 16 && !converged; round++ {
					if err := SyncNodes(cl.Nodes, cl.Topology()); err != nil {
						t.Fatal(err)
					}
					converged = true
				check:
					for i, a := range cl.Nodes {
						for _, p := range cl.Topology().PeersAt(i, uint64(round)) {
							if !a.CollectDelta(cl.Nodes[p].ID()).Empty() {
								converged = false
								break check
							}
						}
					}
				}
				if !converged {
					t.Fatal("fleet did not reconverge within 16 fault-free rounds after heal")
				}
			} else {
				// Cyclic relay: origin-tagged discard must drain the echo
				// to zero — drain rounds until a full sync round ships not
				// one cell anywhere, for several consecutive rounds (gossip
				// rotates its links, so one quiet round could merely be a
				// lucky sample)...
				shipped := func() int {
					total := 0
					for _, n := range cl.Nodes {
						total += n.Stats().CellsSent
					}
					return total
				}
				quiet := 0
				for round := 0; round < 32 && quiet < 4; round++ {
					before := shipped()
					if err := SyncNodes(cl.Nodes, cl.Topology()); err != nil {
						t.Fatal(err)
					}
					if shipped() == before {
						quiet++
					} else {
						quiet = 0
					}
				}
				if quiet < 4 {
					t.Fatal("cyclic relay circulation did not decay to zero within 32 drain rounds")
				}
				// ...and fresh evidence must still reach every member
				// through the healed cycle.
				before := make([]float64, len(cl.Nodes))
				for i, n := range cl.Nodes {
					before[i] = evTotalOf(n, 2, 5)
				}
				uploadCell(t, cl.Nodes[1], 2, 5, unitVec(3))
				for i := 0; i < 6; i++ {
					if err := SyncNodes(cl.Nodes, cl.Topology()); err != nil {
						t.Fatal(err)
					}
				}
				for i, n := range cl.Nodes {
					if evTotalOf(n, 2, 5) <= before[i] {
						t.Fatalf("node %d never received the post-heal upload (ev %.3f -> %.3f)",
							i, before[i], evTotalOf(n, 2, 5))
					}
				}
			}
		})
	}
}

// TestGossipTopologySampling pins the epidemic peer-sampling contract:
// deterministic in (seed, round, node), fanout-sized, self- and
// duplicate-free, ascending — and actually varying across rounds, which
// is what spreads evidence beyond a static k-regular graph.
func TestGossipTopologySampling(t *testing.T) {
	const n = 10
	topo, err := NewGossipTopology(n, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !topo.Forwarding() {
		t.Fatal("gossip must forward (a sampled link is the only path that round)")
	}
	if topo.Fanout() != 3 {
		t.Fatalf("fanout %d, want 3", topo.Fanout())
	}
	if k, err := ParseKind("gossip"); err != nil || k != Gossip {
		t.Fatalf("ParseKind(gossip) = %v, %v", k, err)
	}

	varied := false
	covered := make(map[int]bool)
	for round := uint64(0); round < 8; round++ {
		for i := 0; i < n; i++ {
			peers := topo.PeersAt(i, round)
			if !reflect.DeepEqual(peers, topo.PeersAt(i, round)) {
				t.Fatalf("PeersAt(%d, %d) not deterministic", i, round)
			}
			if len(peers) != 3 {
				t.Fatalf("PeersAt(%d, %d) = %v, want 3 peers", i, round, peers)
			}
			for j, p := range peers {
				if p == i {
					t.Fatalf("node %d sampled itself at round %d", i, round)
				}
				if j > 0 && peers[j-1] >= p {
					t.Fatalf("PeersAt(%d, %d) = %v not strictly ascending", i, round, peers)
				}
				if i == 0 {
					covered[p] = true
				}
			}
			if !reflect.DeepEqual(peers, topo.PeersAt(i, 0)) && round > 0 {
				varied = true
			}
		}
	}
	if !varied {
		t.Fatal("gossip samples identical across every round")
	}
	if len(covered) < n/2 {
		t.Fatalf("node 0 reached only %d distinct peers over 8 rounds", len(covered))
	}

	// Fanout larger than the fleet clamps to n-1 (degenerating to mesh-like
	// coverage, never an infinite rejection loop).
	small, err := NewGossipTopology(3, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.Fanout() != 2 {
		t.Fatalf("clamped fanout %d, want 2", small.Fanout())
	}
}

// TestFaultedSyncRoundAllocs pins the allocation profile of the fault
// path: a fully faulted round — everything collected, nothing delivered —
// re-collects the same pending delta from reused scratch, so its cost is
// the round's fixed bookkeeping plus one recorded error per faulted link,
// never proportional to the table or the pending backlog.
func TestFaultedSyncRoundAllocs(t *testing.T) {
	space := testSpace()
	cfg := testServerConfig()
	topo, err := NewTopology(Mesh, 3)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = NewNode(core.NewServer(space, cfg), NodeConfig{ID: i})
	}
	uploadCell(t, nodes[0], 2, 5, unitVec(3))
	allFault := func(from, to int) bool { return true }
	faultedRound := func() {
		if err := syncNodes(nodes, topo, allFault); err != nil {
			t.Fatal(err)
		}
	}
	// Warm scratch, views and pooled encode buffers.
	for i := 0; i < 3; i++ {
		faultedRound()
	}
	allocs := testing.AllocsPerRun(20, faultedRound)
	if allocs > 128 {
		t.Errorf("faulted sync round: %.1f allocs/op, want <= 128 (fixed bookkeeping + per-link error records)", allocs)
	}
}

// TestMeshDeadPeerKeepsOwedEvidence: a mesh peer the failure detector has
// declared dead is skipped, not sent a delta, so closing the round must not
// mark the evidence it never received as held by it. Both links of a
// two-node mesh fail for 12 rounds while node 0 takes one upload per round;
// 30 clean rounds later both ledgers agree on the cell and node 0 holds its
// peer alive again.
func TestMeshDeadPeerKeepsOwedEvidence(t *testing.T) {
	space := testSpace()
	topo, err := NewTopology(Mesh, 2)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*Node{
		NewNode(core.NewServer(space, testServerConfig()), NodeConfig{ID: 0}),
		NewNode(core.NewServer(space, testServerConfig()), NodeConfig{ID: 1}),
	}
	allFault := func(from, to int) bool { return true }
	for round := 0; round < 12; round++ {
		uploadCell(t, nodes[0], 2, 5, unitVec(3))
		if err := syncNodes(nodes, topo, allFault); err != nil {
			t.Fatal(err)
		}
	}
	if nodes[0].Members().Alive(1) {
		t.Fatal("12 faulted rounds did not mark peer 1 dead")
	}
	for round := 0; round < 30; round++ {
		if err := SyncNodes(nodes, topo); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := evTotalOf(nodes[0], 2, 5), evTotalOf(nodes[1], 2, 5); a != b {
		t.Fatalf("cell (2,5) ledger: node 0 %.0f, node 1 %.0f after the links healed", a, b)
	}
	if !nodes[0].Members().Alive(1) {
		t.Fatalf("node 0 still holds peer 1 %v after 30 clean rounds", nodes[0].Members().State(1))
	}
}
