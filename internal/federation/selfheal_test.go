package federation

// Self-healing tier tests: pull anti-entropy repair, death-certificate
// lifecycle, and the origin-tag idempotence that makes duplicate
// delivery (and cyclic relay echo) a discard instead of a re-credit.

import (
	"context"
	"math"
	"reflect"
	"testing"

	"coca/internal/core"
	"coca/internal/protocol"
	"coca/internal/telemetry"
	"coca/internal/transport"
)

// fullSnap is a node's complete per-cell table state including support —
// stricter than chaos_test's nodeState, because pull adoption promises
// BITWISE reconvergence of vector, support and ledger.
type fullSnap struct {
	Class, Layer     int
	Support, EvTotal float64
	Vec              []float32
}

func snapshotCells(n *Node) []fullSnap {
	var out []fullSnap
	for _, c := range n.Server().AppendCells(nil) {
		out = append(out, fullSnap{
			Class: c.Class, Layer: c.Layer, Support: c.Support, EvTotal: c.EvTotal,
			Vec: append([]float32(nil), c.Vec...),
		})
	}
	return out
}

// pipePeerSet gives node a PeerSet over the named nodes, the way bench's
// fed-mesh wires its fleet: dialing an address hands out a transport.Pipe
// whose far end protocol.ServeConn serves against that node until the link
// closes or the test ends. The set is closed at cleanup.
func pipePeerSet(t *testing.T, node *Node, remotes map[string]*Node, cfg PeerSetConfig) *PeerSet {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrs := make([]string, 0, len(remotes))
	for addr := range remotes {
		addrs = append(addrs, addr)
	}
	cfg.Dial = func(_ context.Context, addr string) (transport.Conn, error) {
		c, s := transport.Pipe()
		go func() { _ = protocol.ServeConn(ctx, s, remotes[addr]) }()
		return c, nil
	}
	ps := NewPeerSetWith(node, addrs, cfg)
	t.Cleanup(func() {
		ps.Close()
		cancel()
	})
	return ps
}

// pullOnce runs one wire anti-entropy round from ps's node.
func pullOnce(t *testing.T, ps *PeerSet) int {
	t.Helper()
	repaired, err := ps.AntiEntropyOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return repaired
}

// TestPullRepairsPartitionedMinority is the tentpole property: a node
// that missed every push (total partition, push disabled outright) pulls
// itself back to bitwise equality with its peer in ONE anti-entropy
// round over the wire, without a single push frame in either direction —
// and a second round finds nothing left to repair.
func TestPullRepairsPartitionedMinority(t *testing.T) {
	space := testSpace()
	cfg := testServerConfig()
	healthy := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 0})
	minority := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 1})

	// The healthy side accumulates client evidence the minority never
	// hears about; push stays disabled throughout.
	uploadCell(t, healthy, 2, 5, unitVec(3))
	uploadCell(t, healthy, 2, 5, unitVec(7))
	uploadCell(t, healthy, 4, 1, unitVec(1))
	uploadCell(t, healthy, 7, 9, unitVec(5))
	if reflect.DeepEqual(snapshotCells(healthy), snapshotCells(minority)) {
		t.Fatal("fixture broken: uploads did not diverge the tables")
	}

	pulls := pipePeerSet(t, minority, map[string]*Node{"healthy": healthy}, PeerSetConfig{})
	repaired := pullOnce(t, pulls)
	if repaired == 0 {
		t.Fatal("anti-entropy round repaired nothing")
	}
	if got, want := snapshotCells(minority), snapshotCells(healthy); !reflect.DeepEqual(got, want) {
		t.Fatal("minority not bitwise-identical to the healthy node after one pull round")
	}

	st := minority.Stats()
	if st.CellsSent != 0 || st.CellsRecv != 0 {
		t.Fatalf("push plane was used: sent %d recv %d cells", st.CellsSent, st.CellsRecv)
	}
	if st.AntiEntropyRounds != 1 || st.CellsRepaired != repaired {
		t.Fatalf("anti-entropy accounting: %+v", st)
	}
	if st.DigestBytes <= 0 || st.PullBytes <= 0 {
		t.Fatalf("byte split not recorded: digest %d pull %d", st.DigestBytes, st.PullBytes)
	}
	if hs := healthy.Stats(); hs.CellsSent != 0 || hs.DigestBytes != 0 {
		t.Fatalf("responder charged for the initiator's round: %+v", hs)
	}

	// Quiescence: the digests now agree, so round two negotiates in
	// digest frames alone — no wants, no pull payload, nothing repaired.
	before := minority.Stats()
	repaired = pullOnce(t, pulls)
	after := minority.Stats()
	if repaired != 0 || after.CellsRepaired != before.CellsRepaired {
		t.Fatalf("second round repaired %d cells on converged tables", repaired)
	}
	if after.PullBytes != before.PullBytes {
		t.Fatal("converged round still shipped pull payload")
	}
	if after.DigestBytes <= before.DigestBytes {
		t.Fatal("converged round recorded no digest traffic")
	}
}

// TestPullMergesConcurrentEvidence covers the non-dominated repair mode:
// both sides hold evidence the other lacks, so pull cannot adopt — it
// must fold in exactly the novel portion, after which one push-free pull
// in each direction reconverges the pair's ledgers.
func TestPullMergesConcurrentEvidence(t *testing.T) {
	space := testSpace()
	cfg := testServerConfig()
	a := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 0})
	b := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 1})

	// Same cell, divergent evidence on both sides: neither copy dominates.
	uploadCell(t, a, 2, 5, unitVec(3))
	uploadCell(t, b, 2, 5, unitVec(7))
	evA, evB := evTotalOf(a, 2, 5), evTotalOf(b, 2, 5)

	pullOnce(t, pipePeerSet(t, a, map[string]*Node{"b": b}, PeerSetConfig{}))
	pullOnce(t, pipePeerSet(t, b, map[string]*Node{"a": a}, PeerSetConfig{}))
	// Both start from the same construction baseline, so the converged
	// ledger must hold exactly baseline + a's growth + b's growth.
	baseline := evTotalOf(NewNode(core.NewServer(space, cfg), NodeConfig{ID: 99}), 2, 5)
	want := evA + evB - baseline
	if got := evTotalOf(a, 2, 5); got != want {
		t.Fatalf("a's merged ledger %.6f, want %.6f", got, want)
	}
	if got := evTotalOf(b, 2, 5); got != evTotalOf(a, 2, 5) {
		t.Fatalf("ledgers disagree after mutual pulls: %.6f vs %.6f", got, evTotalOf(a, 2, 5))
	}
}

// TestTaggedDeltaDupStormIdempotent replays one relay delta through
// HandlePeerDelta repeatedly — the ChaosNet duplicate-storm failure mode
// — and demands the ledger grow exactly once: origin tags turn the
// duplicates into zero-increment discards instead of re-credits.
func TestTaggedDeltaDupStormIdempotent(t *testing.T) {
	space := testSpace()
	cfg := testServerConfig()
	a := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 0, Relay: true})
	b := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 1, Relay: true})
	uploadCell(t, a, 2, 5, unitVec(3))

	d := a.CollectDelta(b.ID())
	if d.Empty() {
		t.Fatal("fixture broken: no delta to ship")
	}
	frame := &protocol.PeerDelta{NodeID: int32(a.ID()), Cells: d.Cells, Freq: d.Freq}
	applied, err := b.HandlePeerDelta(frame)
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("first delivery applied nothing")
	}
	want := snapshotCells(b)
	for storm := 0; storm < 4; storm++ {
		if _, err := b.HandlePeerDelta(frame); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(snapshotCells(b), want) {
		t.Fatal("duplicate deliveries changed the table: origin tags failed to discard the echo")
	}

	// The pull plane honors the same invariant: replaying a pull
	// response is a no-op once its heights are absorbed.
	pr, err := a.HandlePeerPull(&protocol.PeerDigestRequest{
		NodeID: int32(b.ID()),
		Wants:  []protocol.DigestCell{{Class: 2, Layer: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ApplyPull(a.ID(), pr); err != nil {
		t.Fatal(err)
	}
	want = snapshotCells(b)
	for storm := 0; storm < 3; storm++ {
		if rep, err := b.ApplyPull(a.ID(), pr); err != nil || rep != 0 {
			t.Fatalf("replayed pull response: repaired %d, err %v", rep, err)
		}
	}
	if !reflect.DeepEqual(snapshotCells(b), want) {
		t.Fatal("replayed pull response changed the table")
	}
}

// TestTombstoneTTLExpiry pins the death-certificate lifecycle: a leave
// mints a tombstone that circulates for TombstoneTTL sync rounds (or its
// retransmit budget, whichever runs out first), then vanishes from both
// the ring and the gauge instead of echoing forever.
func TestTombstoneTTLExpiry(t *testing.T) {
	m := NewMembership(MembershipConfig{TombstoneTTL: 3})
	m.AddPeer(1)
	m.NoteLeave(1)
	if got := m.Tombstones(); got != 1 {
		t.Fatalf("tombstones after leave = %d, want 1", got)
	}
	if g := m.GossipEntries(0, ""); len(g) != 1 || g[0].ID != 1 || PeerState(g[0].State) != PeerLeft || g[0].TTL != 3 {
		t.Fatalf("gossip entries = %+v, want one left certificate with TTL 3", g)
	}
	for i := 0; i < 3; i++ {
		m.Tick()
	}
	if got := m.Tombstones(); got != 0 {
		t.Fatalf("tombstones after TTL ticks = %d, want 0", got)
	}
	if g := m.GossipEntries(0, ""); len(g) != 0 {
		t.Fatalf("expired certificate still gossiped: %+v", g)
	}

	// Retransmit budget is the other exhaustion path: each drain spends
	// one transmission, and a spent event stops circulating even with
	// TTL remaining.
	m.AddPeer(2)
	m.NoteLeave(2)
	budget := m.Config().GossipRetransmits
	for i := 0; i < budget; i++ {
		if g := m.GossipEntries(0, ""); len(g) != 1 {
			t.Fatalf("drain %d returned %d entries, want 1", i, len(g))
		}
	}
	if g := m.GossipEntries(0, ""); len(g) != 0 {
		t.Fatalf("budget-exhausted certificate still gossiped: %+v", g)
	}
}

// TestCertificateOutranksRumor pins the gossip evidence ordering: death
// certificates override alive readings, rumors never resurrect the
// dead, expired certificates are ignored, and only direct contact
// brings a peer back.
func TestCertificateOutranksRumor(t *testing.T) {
	m := NewMembership(MembershipConfig{})

	// A rumor introduces an unknown peer (and its address) as alive.
	m.ApplyGossip(0, []protocol.MemberUpdate{{ID: 5, State: byte(PeerAlive), Addr: "10.0.0.5:7071"}})
	if got := m.State(5); got != PeerAlive {
		t.Fatalf("rumored peer state %v, want alive", got)
	}
	if addrs := m.KnownAddrs(); addrs[5] != "10.0.0.5:7071" {
		t.Fatalf("rumor did not teach the address: %v", addrs)
	}

	// A certificate kills it, over the alive reading — and is re-minted
	// one hop shorter for onward spread.
	m.ApplyGossip(0, []protocol.MemberUpdate{{ID: 5, State: byte(PeerDead), TTL: 4}})
	if got := m.State(5); got != PeerDead {
		t.Fatalf("after certificate: %v, want dead", got)
	}
	relayed := m.GossipEntries(0, "")
	if len(relayed) != 1 || relayed[0].ID != 5 || PeerState(relayed[0].State) != PeerDead || relayed[0].TTL != 3 {
		t.Fatalf("re-minted certificate = %+v, want dead with TTL 4-1", relayed)
	}

	// Rumors cannot resurrect; a replayed identical certificate is not
	// re-minted (that echo is what TTL decay exists to stop).
	m.ApplyGossip(0, []protocol.MemberUpdate{{ID: 5, State: byte(PeerAlive)}})
	if got := m.State(5); got != PeerDead {
		t.Fatalf("alive rumor resurrected a dead peer: %v", got)
	}
	m.ApplyGossip(0, []protocol.MemberUpdate{{ID: 5, State: byte(PeerDead), TTL: 3}})
	if got := m.Tombstones(); got != 1 {
		t.Fatalf("duplicate certificate minted a second tombstone: %d circulating", got)
	}

	// An expired certificate (TTL 0) is dead on arrival.
	m.ApplyGossip(0, []protocol.MemberUpdate{{ID: 6, State: byte(PeerLeft), TTL: 0}})
	if st := m.Stats(); len(st) != 1 {
		t.Fatalf("expired certificate materialized a record: %+v", st)
	}

	// Certificates about this node itself are ignored: a node is the
	// authority on its own liveness.
	m.ApplyGossip(0, []protocol.MemberUpdate{{ID: 0, State: byte(PeerDead), TTL: 4}})
	if got := m.State(0); got != PeerAlive {
		t.Fatalf("node believed a certificate about itself: %v", got)
	}

	// Direct contact is the strongest evidence: it revives the peer.
	m.NoteContact(5)
	if got := m.State(5); got != PeerAlive {
		t.Fatalf("after direct contact: %v, want alive", got)
	}
}

// TestWireAntiEntropySkipsDownPeers: AntiEntropyOnce never pulls from a
// left or dead peer outside its re-probe rounds (every DeadRetryEvery-th
// epoch), and on a re-probe round it does probe one.
func TestWireAntiEntropySkipsDownPeers(t *testing.T) {
	space := testSpace()
	cfg := testServerConfig()
	local := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 0, Membership: MembershipConfig{DeadRetryEvery: 4}})
	remotes := map[string]*Node{
		"n1": NewNode(core.NewServer(space, cfg), NodeConfig{ID: 1}),
		"n2": NewNode(core.NewServer(space, cfg), NodeConfig{ID: 2}),
	}
	ctx := context.Background()
	peers := pipePeerSet(t, local, remotes, PeerSetConfig{})
	// One push round dials and identifies both peers; the epoch is then 1.
	if _, err := peers.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	syncs := func() map[int]int {
		out := make(map[int]int)
		for _, ps := range local.Members().Stats() {
			out[ps.ID] = ps.Syncs
		}
		return out
	}
	pull := func() map[int]int {
		t.Helper()
		before := syncs()
		if _, err := peers.AntiEntropyOnce(ctx); err != nil {
			t.Fatal(err)
		}
		after := syncs()
		for id := range after {
			after[id] -= before[id]
		}
		return after
	}

	local.Members().NoteLeave(2)
	for ; local.Epoch()%4 != 0; local.EndSync() {
		if got := pull(); got[1] != 1 || got[2] != 0 {
			t.Fatalf("epoch %d: pulled from %v, want peer 1 only", local.Epoch(), got)
		}
	}
	for range 5 {
		local.Members().NoteFailure(1)
	}
	if local.Members().Alive(1) {
		t.Fatal("five failures did not mark peer 1 dead")
	}
	for local.EndSync(); local.Epoch()%4 != 0; local.EndSync() {
		if got := pull(); got[1] != 0 || got[2] != 0 {
			t.Fatalf("epoch %d: pulled from %v with every peer down off a re-probe round", local.Epoch(), got)
		}
	}
	if got := pull(); got[1]+got[2] != 1 {
		t.Fatalf("re-probe epoch %d: pulled from %v, want one down peer", local.Epoch(), got)
	}
}

// TestGossipPiggybackOnDelta checks the epidemic transport: membership
// updates riding a PeerDelta are applied by the receiver, so a death
// certificate spreads to nodes the announcer never dialed.
func TestGossipPiggybackOnDelta(t *testing.T) {
	space := testSpace()
	cfg := testServerConfig()
	a := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 0})
	b := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 1})
	uploadCell(t, a, 2, 5, unitVec(3))

	// a learns of node 9's departure; the certificate rides its next
	// delta to b.
	a.Members().AddPeer(9)
	a.Members().NoteLeave(9)
	d := a.CollectDelta(b.ID())
	if _, err := b.HandlePeerDelta(&protocol.PeerDelta{
		NodeID: int32(a.ID()),
		Cells:  d.Cells,
		Freq:   d.Freq,
		Gossip: a.Members().GossipEntries(a.ID(), ""),
	}); err != nil {
		t.Fatal(err)
	}
	if got := b.Members().State(9); got != PeerLeft {
		t.Fatalf("b's view of node 9 = %v, want left (certificate rode the delta)", got)
	}
	// b now re-gossips it onward with one hop less TTL.
	onward := b.Members().GossipEntries(b.ID(), "")
	found := false
	for _, u := range onward {
		if u.ID == 9 && PeerState(u.State) == PeerLeft {
			found = true
		}
	}
	if !found {
		t.Fatalf("b does not relay the certificate: %+v", onward)
	}
}

// TestWireAntiEntropyOnce drives the scheduled pull path end to end over
// a real listener: the remote accumulates evidence the local node never
// hears pushed, one AntiEntropyOnce heals the local table bitwise, and a
// second round negotiates in digests alone.
func TestWireAntiEntropyOnce(t *testing.T) {
	space := testSpace()
	cfg := testServerConfig()
	local := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 0})
	remote := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 1})

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() { _ = protocol.ServeConn(context.Background(), conn, remote) }()
		}
	}()

	uploadCell(t, remote, 3, 6, unitVec(5))
	uploadCell(t, remote, 5, 2, unitVec(8))

	peers := NewPeerSet(local, []string{l.Addr()})
	defer peers.Close()
	repaired, err := peers.AntiEntropyOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if repaired == 0 {
		t.Fatal("wire anti-entropy repaired nothing")
	}
	if !reflect.DeepEqual(snapshotCells(local), snapshotCells(remote)) {
		t.Fatal("local not bitwise-identical to remote after one wire pull round")
	}
	st := local.Stats()
	if st.AntiEntropyRounds != 1 || st.CellsRepaired != repaired {
		t.Fatalf("anti-entropy accounting: %+v", st)
	}
	if st.DigestBytes <= 0 || st.PullBytes <= 0 {
		t.Fatalf("byte split not recorded: digest %d pull %d", st.DigestBytes, st.PullBytes)
	}
	if st.CellsSent != 0 || st.CellsRecv != 0 {
		t.Fatalf("push plane was used: %+v", st)
	}

	// Converged: the second round wants nothing and pulls nothing.
	before := local.Stats()
	if repaired, err = peers.AntiEntropyOnce(context.Background()); err != nil || repaired != 0 {
		t.Fatalf("converged wire round: repaired %d, err %v", repaired, err)
	}
	if after := local.Stats(); after.PullBytes != before.PullBytes {
		t.Fatal("converged wire round still shipped pull payload")
	}
}

// TestPoisonedNodeCannotChangeHealthyPeer: a node fed a cell with a NaN (or
// Inf) component refuses it — its own table stays as it was — so a push sync
// and an anti-entropy round with a healthy peer leave that peer's table
// bitwise unchanged; and a peer that ships the poisoned cell regardless, on
// either plane, is refused at the healthy node's merge with the same result.
// So is a finite, unit-norm cell that carries no origin tags: its evidence
// cannot be accounted exactly once, so it is refused before the merge.
func TestPoisonedNodeCannotChangeHealthyPeer(t *testing.T) {
	space := testSpace()
	cfg := testServerConfig()
	sick := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 0})
	healthy := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 1})

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() { _ = protocol.ServeConn(context.Background(), conn, healthy) }()
		}
	}()

	poison := unitVec(4)
	poison[17] = float32(math.NaN())
	want, sickWant := snapshotCells(healthy), snapshotCells(sick)
	rejected := telemetry.CoreRejectedVecs.Load()

	ctx := context.Background()
	sess, err := sick.Open(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	classes, _ := sick.Server().Shape()
	err = sess.Upload(ctx, core.UpdateReport{
		Freq:  make([]float64, classes),
		Cells: []core.UpdateCell{{Class: 3, Layer: 6, Count: 8, Vec: poison}},
	})
	_ = sess.Close()
	if err == nil {
		t.Fatal("the upload of a NaN vector was accepted")
	}
	if !reflect.DeepEqual(snapshotCells(sick), sickWant) {
		t.Fatal("the refused upload changed the node's own table")
	}
	peers := NewPeerSet(sick, []string{l.Addr()})
	defer peers.Close()
	if _, err := peers.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := peers.AntiEntropyOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snapshotCells(healthy), want) {
		t.Fatal("SyncOnce + AntiEntropyOnce with a node that was fed a poisoned cell changed the healthy peer's table")
	}

	// A peer past saving ships the cell itself: push, then pull.
	origins := []protocol.OriginHeight{{Origin: int32(sick.ID()), Height: 8}}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
		poison[17] = bad
		if _, err := healthy.HandlePeerDelta(&protocol.PeerDelta{NodeID: int32(sick.ID()), Cells: []protocol.PeerCell{
			{Class: 3, Layer: 6, Evidence: 8, Vec: poison, Origins: origins},
		}}); err != nil {
			t.Fatal(err)
		}
		if rep, err := healthy.ApplyPull(sick.ID(), &protocol.PeerPullResponse{NodeID: int32(sick.ID()), Cells: []protocol.PullCell{
			{Class: 3, Layer: 6, Support: 160, EvTotal: 1e6, Vec: poison, Origins: []protocol.OriginHeight{{Origin: int32(sick.ID()), Height: 1e6}, {Origin: int32(healthy.ID()), Height: 1e6}}},
		}}); err != nil || rep != 0 {
			t.Fatalf("a pulled cell with a %v component: repaired %d, err %v", bad, rep, err)
		}
	}
	if !reflect.DeepEqual(snapshotCells(healthy), want) {
		t.Fatal("a poisoned cell shipped by a peer changed the healthy node's table")
	}
	if got := healthy.Stats().Errors; got != 4 {
		t.Errorf("healthy node counted %d refused peer cells, want 4", got)
	}
	if got := telemetry.CoreRejectedVecs.Load() - rejected; got != 5 {
		t.Errorf("coca_core_rejected_vectors_total grew by %d, want 5 (one upload, four peer cells)", got)
	}

	// An untagged cell: well-formed, but with no origin to account it by.
	errsBefore := healthy.Stats().Errors
	applied, err := healthy.HandlePeerDelta(&protocol.PeerDelta{NodeID: int32(sick.ID()), Cells: []protocol.PeerCell{
		{Class: 3, Layer: 6, Evidence: 8, Vec: unitVec(4)},
	}})
	if err != nil || applied != 0 {
		t.Fatalf("an untagged peer cell: applied %d, err %v", applied, err)
	}
	if !reflect.DeepEqual(snapshotCells(healthy), want) {
		t.Fatal("an untagged peer cell changed the healthy node's table")
	}
	if got := healthy.Stats().Errors - errsBefore; got != 1 {
		t.Errorf("untagged peer cell counted %d errors, want 1", got)
	}
}
