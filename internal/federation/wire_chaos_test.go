package federation

// Wire-level elasticity and chaos tests: real TCP listeners, the full
// join/snapshot handshake, fault-injected dialers, and the failure
// detector driving a kill/rejoin cycle — the paths a production fleet
// exercises when nodes come, go, and crash.

import (
	"context"
	"sync"
	"testing"
	"time"

	"coca/internal/core"
	"coca/internal/protocol"
	"coca/internal/transport"
)

// serveNode exposes a federation node on an ephemeral loopback listener
// and returns its address plus a stop function that tears down the
// listener AND every accepted connection (ServeConn closes its conn when
// the context cancels), so stopping really is a crash from the peers'
// point of view.
func serveNode(t *testing.T, n *Node) (string, func()) {
	t.Helper()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = protocol.ServeConn(ctx, conn, n)
			}()
		}
	}()
	return l.Addr(), func() {
		cancel()
		_ = l.Close()
		wg.Wait()
	}
}

// TestWireJoinRelayKeepsOriginTags: a snapshot served over the wire keeps
// its origin tags, so a relaying joiner that forwards what it bootstrapped
// does not re-announce it under its own origin. Without the tags the third
// fleet member would count the same evidence twice.
func TestWireJoinRelayKeepsOriginTags(t *testing.T) {
	space := testSpace()
	cfg := testServerConfig()
	node0 := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 0})
	node1 := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 1})
	addr0, stop0 := serveNode(t, node0)
	defer stop0()
	addr1, stop1 := serveNode(t, node1)
	defer stop1()
	ps0 := NewPeerSet(node0, []string{addr1})
	defer ps0.Close()
	ps1 := NewPeerSet(node1, []string{addr0})
	defer ps1.Close()

	ctx := context.Background()
	for round := 0; round < 3; round++ {
		uploadCell(t, node0, 1, 2, unitVec(9))
		if _, err := ps0.SyncOnce(ctx); err != nil {
			t.Fatalf("mesh round %d: %v", round, err)
		}
		if _, err := ps1.SyncOnce(ctx); err != nil {
			t.Fatalf("mesh round %d (node1): %v", round, err)
		}
	}
	want := evTotalOf(node0, 1, 2)
	if got := evTotalOf(node1, 1, 2); got != want {
		t.Fatalf("mesh did not converge: node1 ledger %v, node0 %v", got, want)
	}

	// A relaying node joins through node0 alone, then syncs to node1.
	node2 := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 2, Relay: true})
	addr2, stop2 := serveNode(t, node2)
	defer stop2()
	join := NewPeerSetWith(node2, []string{addr0}, PeerSetConfig{Join: true, SelfAddr: addr2})
	defer join.Close()
	if _, err := join.SyncOnce(ctx); err != nil {
		t.Fatalf("join sync: %v", err)
	}
	if !join.Joined() || node2.Stats().CellsRecv == 0 {
		t.Fatal("joiner bootstrapped nothing from node0's snapshot")
	}
	relay := NewPeerSet(node2, []string{addr1})
	defer relay.Close()
	if _, err := relay.SyncOnce(ctx); err != nil {
		t.Fatalf("relay sync: %v", err)
	}
	if got := evTotalOf(node1, 1, 2); got != want {
		t.Fatalf("node1 ledger for (1,2) is %v after the relayed join, node0's is %v: the snapshot's evidence was counted twice", got, want)
	}
}

// TestSnapshotJoinSkipsLedgerReplay is the elastic-join cost theorem: a
// node joining an established fleet catches up from ONE snapshot batch,
// not by replaying the fleet's sync history — so its bootstrap bytes are
// a fraction of the cumulative wire traffic the history represents, and
// the serving peer owes the joiner nothing afterwards.
func TestSnapshotJoinSkipsLedgerReplay(t *testing.T) {
	space := testSpace()
	cfg := testServerConfig()
	node0 := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 0})
	node1 := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 1})
	addr0, stop0 := serveNode(t, node0)
	defer stop0()
	addr1, stop1 := serveNode(t, node1)
	defer stop1()

	ps0 := NewPeerSet(node0, []string{addr1})
	defer ps0.Close()
	ps1 := NewPeerSet(node1, []string{addr0})
	defer ps1.Close()

	// Build history: the same cell re-uploaded and re-synced many times,
	// so the ledger's wire history is many deltas while its current state
	// is one cell's worth.
	ctx := context.Background()
	for round := 0; round < 12; round++ {
		uploadCell(t, node0, 1, 2, unitVec(9))
		if _, err := ps0.SyncOnce(ctx); err != nil {
			t.Fatalf("history round %d: %v", round, err)
		}
		if _, err := ps1.SyncOnce(ctx); err != nil {
			t.Fatalf("history round %d (node1): %v", round, err)
		}
	}
	historyBytes := node0.Stats().BytesSent
	if historyBytes == 0 {
		t.Fatal("no sync history built")
	}

	// A third node joins knowing only node0's address.
	node2 := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 2})
	addr2, stop2 := serveNode(t, node2)
	defer stop2()
	ps2 := NewPeerSetWith(node2, []string{addr0}, PeerSetConfig{Join: true, SelfAddr: addr2})
	defer ps2.Close()
	if _, err := ps2.SyncOnce(ctx); err != nil {
		t.Fatalf("join sync: %v", err)
	}

	if !ps2.Joined() {
		t.Fatal("join never acknowledged")
	}
	joinBytes := ps2.JoinBytes()
	if joinBytes == 0 {
		t.Fatal("no snapshot bytes recorded for the join")
	}
	if node2.Stats().CellsRecv == 0 {
		t.Fatal("joiner bootstrapped no cells from the snapshot")
	}
	// The acceptance bar: snapshot ≪ replay. The 12-round history shipped
	// the same evidence 12 times; the snapshot ships today's ledger once.
	if joinBytes*4 >= int(historyBytes) {
		t.Fatalf("snapshot join cost %d bytes vs %d bytes of history — not a shortcut", joinBytes, historyBytes)
	}
	// The serving peer committed the snapshot in place: it owes the
	// joiner nothing, so no replay follows.
	if d := node0.CollectDelta(2); !d.Empty() {
		t.Fatalf("node0 still owes the joiner %d cells after serving the snapshot", len(d.Cells))
	}
	// The join announcement taught node0 where the joiner listens.
	if got := node0.Members().KnownAddrs()[2]; got != addr2 {
		t.Fatalf("node0 learned joiner addr %q, want %q", got, addr2)
	}

	// Elasticity the other way: node0's next delta reaches the joiner
	// through the learned address, with nobody reconfigured.
	uploadCell(t, node0, 3, 4, unitVec(5))
	if _, err := ps0.SyncOnce(ctx); err != nil {
		t.Fatalf("post-join sync: %v", err)
	}
	if node2.Server().PeerMerges() == 0 {
		t.Fatal("joiner never received a pushed delta after joining")
	}
}

// TestWireChaosConvergence runs two wire peers through a lossy,
// duplicating network (seeded chaos dialers), then heals it and demands
// drain-to-empty in bounded rounds: every delta that a fault kept
// pending is eventually resent and committed, and duplicate applies from
// lost acks never wedge the exchange. One subtest per seed — each seed
// is a different, exactly replayable fault schedule.
func TestWireChaosConvergence(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(string(rune('a'+seed)), func(t *testing.T) {
			space := testSpace()
			cfg := testServerConfig()
			node0 := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 0})
			node1 := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 1})
			addr0, stop0 := serveNode(t, node0)
			defer stop0()
			addr1, stop1 := serveNode(t, node1)
			defer stop1()

			chaos := transport.NewChaosNet(seed, transport.FaultConfig{Drop: 0.4, Dup: 0.2})
			ps0 := NewPeerSetWith(node0, []string{addr1}, PeerSetConfig{Dial: chaos.Dial("n0")})
			defer ps0.Close()
			ps1 := NewPeerSetWith(node1, []string{addr0}, PeerSetConfig{Dial: chaos.Dial("n1")})
			defer ps1.Close()

			// Faulty phase: fresh traffic every round, syncs that drop,
			// duplicate and tear connections at the chaos net's whim.
			ctx := context.Background()
			for round := 0; round < 10; round++ {
				uploadCell(t, node0, round%3, 2, unitVec(9))
				uploadCell(t, node1, round%3, 4, unitVec(7))
				_, _ = ps0.SyncOnce(ctx)
				_, _ = ps1.SyncOnce(ctx)
			}

			// Heal and drain: no new traffic, bounded rounds to empty. The
			// generous bound covers peers the failure detector declared
			// dead mid-chaos — they are only re-probed every few rounds.
			chaos.SetFaults(transport.FaultConfig{})
			converged := false
			for round := 0; round < 16 && !converged; round++ {
				_, _ = ps0.SyncOnce(ctx)
				_, _ = ps1.SyncOnce(ctx)
				converged = node0.CollectDelta(1).Empty() && node1.CollectDelta(0).Empty()
			}
			if !converged {
				t.Fatal("fleet did not drain within 16 clean rounds after heal")
			}
			if node0.Server().PeerMerges() == 0 || node1.Server().PeerMerges() == 0 {
				t.Fatalf("merges did not flow both ways: %d / %d",
					node0.Server().PeerMerges(), node1.Server().PeerMerges())
			}
			if node0.Stats().Errors == 0 && node1.Stats().Errors == 0 {
				t.Fatal("chaos phase recorded no sync errors — faults never fired")
			}
		})
	}
}

// TestWireKillRejoin drives the failure detector through a full crash
// cycle on the wire: a dynamically joined node is killed, both survivors
// escalate it to dead and stop burning syncs on it, and a fresh process
// rejoining under the same identity (at a NEW address) revives the
// record, bootstraps from a snapshot, and receives pushes again.
func TestWireKillRejoin(t *testing.T) {
	space := testSpace()
	cfg := testServerConfig()
	fd := MembershipConfig{SuspectAfter: 1, DeadAfter: 2, DeadRetryEvery: 8}
	node0 := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 0, Membership: fd})
	node1 := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 1, Membership: fd})
	addr0, stop0 := serveNode(t, node0)
	defer stop0()
	addr1, stop1 := serveNode(t, node1)
	defer stop1()

	// Delay-only chaos: adds latency jitter to every exchange without
	// ever losing a frame, so the kill below is the only failure source.
	chaos := transport.NewChaosNet(9, transport.FaultConfig{Delay: 0.5, MaxDelay: time.Millisecond})
	ps0 := NewPeerSetWith(node0, []string{addr1}, PeerSetConfig{Dial: chaos.Dial("n0")})
	defer ps0.Close()
	ps1 := NewPeerSetWith(node1, []string{addr0}, PeerSetConfig{Dial: chaos.Dial("n1")})
	defer ps1.Close()

	// Node 2 joins the fleet dynamically.
	ctx := context.Background()
	node2 := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 2, Membership: fd})
	addr2, stop2 := serveNode(t, node2)
	ps2 := NewPeerSetWith(node2, []string{addr0, addr1}, PeerSetConfig{Join: true, SelfAddr: addr2})
	if _, err := ps2.SyncOnce(ctx); err != nil {
		t.Fatalf("join: %v", err)
	}
	uploadCell(t, node0, 1, 2, unitVec(9))
	if _, err := ps0.SyncOnce(ctx); err != nil {
		t.Fatalf("pre-kill sync: %v", err)
	}
	for _, n := range []*Node{node0, node1} {
		if got := n.Members().State(2); got != PeerAlive {
			t.Fatalf("node %d sees joiner as %v before the kill", n.ID(), got)
		}
	}

	// Kill node 2: server torn down, links cut, no clean leave.
	ps2.Close()
	stop2()

	// Each survivor needs a Send to notice the torn link (failure 1 →
	// suspect, SuspectAfter=1) and a failed redial to confirm (failure 2
	// → dead, DeadAfter=2) — so keep fresh traffic coming.
	for i := 0; i < 2; i++ {
		uploadCell(t, node0, 2, 3, unitVec(5))
		uploadCell(t, node1, 2, 5, unitVec(3))
		_, _ = ps0.SyncOnce(ctx)
		_, _ = ps1.SyncOnce(ctx)
	}
	for _, n := range []*Node{node0, node1} {
		if got := n.Members().State(2); got != PeerDead {
			t.Fatalf("node %d sees the killed peer as %v, want dead", n.ID(), got)
		}
	}

	// Rejoin under the same identity from a fresh process at a NEW
	// address — the crash-recovery path. The join announcement revives
	// the dead record and reroutes pushes to the new address.
	node2b := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 2, Membership: fd})
	addr2b, stop2b := serveNode(t, node2b)
	defer stop2b()
	ps2b := NewPeerSetWith(node2b, []string{addr0, addr1}, PeerSetConfig{Join: true, SelfAddr: addr2b})
	defer ps2b.Close()
	if _, err := ps2b.SyncOnce(ctx); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if !ps2b.Joined() {
		t.Fatal("rejoin never acknowledged")
	}
	if node2b.Stats().CellsRecv == 0 {
		t.Fatal("rejoined node bootstrapped nothing from its snapshot")
	}
	for _, n := range []*Node{node0, node1} {
		if got := n.Members().State(2); got != PeerAlive {
			t.Fatalf("node %d still sees the rejoined peer as %v", n.ID(), got)
		}
		if got := n.Members().KnownAddrs()[2]; got != addr2b {
			t.Fatalf("node %d routes peer 2 to %q, want new address %q", n.ID(), got, addr2b)
		}
	}

	// And pushes flow to the new incarnation without reconfiguration.
	merges := node2b.Server().PeerMerges()
	uploadCell(t, node0, 4, 6, unitVec(5))
	if _, err := ps0.SyncOnce(ctx); err != nil {
		t.Fatalf("post-rejoin sync: %v", err)
	}
	if node2b.Server().PeerMerges() <= merges {
		t.Fatal("rejoined node never received a post-rejoin push")
	}
}
