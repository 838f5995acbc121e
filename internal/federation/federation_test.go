package federation

import (
	"context"
	"reflect"
	"testing"

	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/model"
	"coca/internal/semantics"
	"coca/internal/stream"
	"coca/internal/vecmath"
)

func testSpace() *semantics.Space {
	return semantics.NewSpace(dataset.ESC50().Subset(10), model.VGG16BN())
}

func testServerConfig() core.ServerConfig {
	return core.ServerConfig{Theta: 0.035, Seed: 3, ProfileSamples: 120, InitSamplesPerClass: 16}
}

func TestTopologyShapes(t *testing.T) {
	mesh, err := NewTopology(Mesh, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := len(mesh.Peers(i)); got != 3 {
			t.Fatalf("mesh node %d has %d peers, want 3", i, got)
		}
	}
	if mesh.Forwarding() {
		t.Fatal("mesh should not forward")
	}

	star, err := NewTopology(Star, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(star.Peers(0)); got != 3 {
		t.Fatalf("star hub has %d peers, want 3", got)
	}
	for i := 1; i < 4; i++ {
		if p := star.Peers(i); len(p) != 1 || p[0] != 0 {
			t.Fatalf("star leaf %d peers %v, want [0]", i, p)
		}
	}
	if !star.Forwarding() {
		t.Fatal("star must forward")
	}

	ring, err := NewTopology(Ring, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if got := len(ring.Peers(i)); got != 2 {
			t.Fatalf("ring node %d has %d peers, want 2", i, got)
		}
	}
	ring2, err := NewTopology(Ring, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p := ring2.Peers(0); len(p) != 1 || p[0] != 1 {
		t.Fatalf("2-ring node 0 peers %v, want [1]", p)
	}

	if _, err := ParseKind("torus"); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestAssignPolicies(t *testing.T) {
	block, err := Assign(10, 3, AssignBlock)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	if !reflect.DeepEqual(block, want) {
		t.Fatalf("block assignment %v, want %v", block, want)
	}
	rr, err := Assign(7, 3, AssignRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	wantRR := [][]int{{0, 3, 6}, {1, 4}, {2, 5}}
	if !reflect.DeepEqual(rr, wantRR) {
		t.Fatalf("round-robin assignment %v, want %v", rr, wantRR)
	}
	if _, err := Assign(2, 3, AssignBlock); err == nil {
		t.Fatal("under-covered fleet accepted")
	}
}

// uploadCell pushes one client update cell into a node through a regular
// coordination session, the way real client traffic dirties the table.
func uploadCell(t *testing.T, n *Node, class, layer int, vec []float32) {
	t.Helper()
	ctx := context.Background()
	sess, err := n.Open(ctx, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	classes, _ := n.Server().Shape()
	freq := make([]float64, classes)
	freq[class] = 1
	err = sess.Upload(ctx, core.UpdateReport{
		Freq:  freq,
		Cells: []core.UpdateCell{{Class: class, Layer: layer, Count: 8, Vec: vec}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// unitVec returns a unit vector dominated by dimension d.
func unitVec(d int) []float32 {
	v := make([]float32, model.Dim)
	for i := range v {
		v[i] = 0.01
	}
	v[d] = 1
	vecmath.Normalize(v)
	return v
}

// TestMeshSyncPropagatesAndSuppressesEcho checks the tentpole mechanics
// on a 2-node mesh: a client-merged cell travels to the peer
// evidence-weighted, and a second sync with no new activity moves no
// bytes (echo suppression: mesh crediting marks received evidence as held
// by every peer view).
func TestMeshSyncPropagatesAndSuppressesEcho(t *testing.T) {
	space := testSpace()
	cfg := testServerConfig()
	nodes := []*Node{
		NewNode(core.NewServer(space, cfg), NodeConfig{ID: 0}),
		NewNode(core.NewServer(space, cfg), NodeConfig{ID: 1}),
	}
	topo, err := NewTopology(Mesh, 2)
	if err != nil {
		t.Fatal(err)
	}

	const class, layer = 2, 5
	before := nodes[1].Server().Table().Get(class, layer)
	probe := unitVec(7)
	uploadCell(t, nodes[0], class, layer, probe)

	if err := SyncNodes(nodes, topo); err != nil {
		t.Fatal(err)
	}
	if got := nodes[1].Server().PeerMerges(); got == 0 {
		t.Fatal("no peer merges applied on node 1")
	}
	after := nodes[1].Server().Table().Get(class, layer)
	if vecmath.Cosine(before, after) >= 1 {
		t.Fatal("peer merge did not move node 1's entry")
	}
	// The peer merge is evidence-weighted: node 1's entry must have moved
	// toward node 0's post-upload entry, not been overwritten by it.
	node0 := nodes[0].Server().Table().Get(class, layer)
	if cos := vecmath.Cosine(after, node0); cos <= vecmath.Cosine(before, node0) {
		t.Fatalf("node 1 entry did not move toward node 0's (cos %v -> %v)", vecmath.Cosine(before, node0), cos)
	}

	s0, s1 := nodes[0].Stats(), nodes[1].Stats()
	if s0.CellsSent == 0 || s0.BytesSent == 0 {
		t.Fatalf("node 0 sent nothing: %+v", s0)
	}
	if s1.CellsRecv != s0.CellsSent || s1.BytesRecv != s0.BytesSent {
		t.Fatalf("asymmetric accounting: sent %+v recv %+v", s0, s1)
	}

	// Second sync with no new client activity: nothing travels.
	if err := SyncNodes(nodes, topo); err != nil {
		t.Fatal(err)
	}
	s0b, s1b := nodes[0].Stats(), nodes[1].Stats()
	if s0b.CellsSent != s0.CellsSent || s1b.CellsSent != s1.CellsSent {
		t.Fatalf("idle sync moved cells: %+v -> %+v / %+v -> %+v", s0, s0b, s1, s1b)
	}
	if s0b.Syncs != 2 {
		t.Fatalf("node 0 sync count %d, want 2", s0b.Syncs)
	}
}

// TestStarForwardsAcrossHub checks multi-hop relay: a cell dirtied at
// leaf 1 reaches leaf 2 via the hub on the second sync round.
func TestStarForwardsAcrossHub(t *testing.T) {
	space := testSpace()
	cfg := testServerConfig()
	// Star members relay: evidence crosses the hub hop by hop.
	nodes := []*Node{
		NewNode(core.NewServer(space, cfg), NodeConfig{ID: 0, Relay: true}),
		NewNode(core.NewServer(space, cfg), NodeConfig{ID: 1, Relay: true}),
		NewNode(core.NewServer(space, cfg), NodeConfig{ID: 2, Relay: true}),
	}
	topo, err := NewTopology(Star, 3)
	if err != nil {
		t.Fatal(err)
	}

	const class, layer = 4, 3
	before := nodes[2].Server().Table().Get(class, layer)
	uploadCell(t, nodes[1], class, layer, unitVec(11))

	// Sync 1: leaf 1 → hub. Leaf 2 must not have changed yet.
	if err := SyncNodes(nodes, topo); err != nil {
		t.Fatal(err)
	}
	if nodes[0].Server().PeerMerges() == 0 {
		t.Fatal("hub did not merge leaf 1's delta")
	}
	if nodes[2].Server().PeerMerges() != 0 {
		t.Fatal("leaf 2 received a delta without a hub hop")
	}
	// Sync 2: hub relays to leaf 2.
	if err := SyncNodes(nodes, topo); err != nil {
		t.Fatal(err)
	}
	if nodes[2].Server().PeerMerges() == 0 {
		t.Fatal("hub did not forward to leaf 2")
	}
	after := nodes[2].Server().Table().Get(class, layer)
	if vecmath.Cosine(before, after) >= 1 {
		t.Fatal("forwarded merge did not move leaf 2's entry")
	}
}

func clusterConfig(space *semantics.Space, syncEvery int) ClusterConfig {
	return ClusterConfig{
		NumServers: 3,
		NumClients: 6,
		Topology:   Mesh,
		SyncEvery:  syncEvery,
		Client: core.ClientConfig{
			Theta: 0.035, Budget: 40, RoundFrames: 40,
			EnvBiasWeight: 0.05, DriftWeight: 0.2, DriftPerRound: 0.3,
		},
		Server: testServerConfig(),
		Stream: stream.Config{
			Dataset: space.DS, NonIIDLevel: 2, SceneMeanFrames: 12,
			WorkingSetSize: 5, WorkingSetChurn: 0.1, Seed: 7,
		},
		Rounds: 3,
	}
}

// TestMeshSmoke is the CI federation smoke: a 3-node in-memory mesh runs
// a short fleet workload with one sync round and must end with peer
// traffic applied on every node.
func TestMeshSmoke(t *testing.T) {
	space := testSpace()
	cfg := clusterConfig(space, 3) // one sync at the 3rd round barrier
	cl, err := NewCluster(space, cfg)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cl.PerServer()); n != 3 {
		t.Fatalf("%d per-server accumulators, want 3", n)
	}
	if combined.Frames() != 6*3*40 {
		t.Fatalf("combined frames %d, want %d", combined.Frames(), 6*3*40)
	}
	stats := cl.SyncStats()
	if stats.Syncs != 3 { // one sync round × three nodes
		t.Fatalf("fleet sync count %d, want 3", stats.Syncs)
	}
	if stats.CellsSent == 0 || stats.BytesSent == 0 {
		t.Fatalf("no sync traffic: %+v", stats)
	}
	if stats.CellsSent != stats.CellsRecv || stats.BytesSent != stats.BytesRecv {
		t.Fatalf("in-process sync lost cells: %+v", stats)
	}
	for i, n := range cl.Nodes {
		if n.Server().PeerMerges() == 0 {
			t.Fatalf("node %d applied no peer merges", i)
		}
	}
}

// TestClusterDeterminism runs the identical federated configuration twice
// and demands bitwise-identical metrics and sync traffic — the
// reproducibility rule the deterministic peer-id merge order exists for.
func TestClusterDeterminism(t *testing.T) {
	run := func() ([]float64, SyncStats) {
		space := testSpace()
		cl, err := NewCluster(space, clusterConfig(space, 1))
		if err != nil {
			t.Fatal(err)
		}
		combined, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		sum := combined.Summary()
		out := []float64{sum.AvgLatencyMs, sum.Accuracy, sum.HitRatio, sum.P50LatencyMs, sum.P95LatencyMs, sum.P99LatencyMs}
		for _, acc := range cl.PerServer() {
			s := acc.Summary()
			out = append(out, s.AvgLatencyMs, s.Accuracy, s.HitRatio)
		}
		return out, cl.SyncStats()
	}
	m1, s1 := run()
	m2, s2 := run()
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("metrics differ across identical runs:\n%v\n%v", m1, m2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("sync stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
}

// TestSyncDisabledIsPartitioned checks the no-sync baseline arm: with
// SyncEvery 0 no peer traffic exists and the run equals NumServers
// independent single-server clusters.
func TestSyncDisabledIsPartitioned(t *testing.T) {
	space := testSpace()
	cl, err := NewCluster(space, clusterConfig(space, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if stats := cl.SyncStats(); !reflect.DeepEqual(stats, SyncStats{}) {
		t.Fatalf("partitioned run produced sync traffic: %+v", stats)
	}
	for i, n := range cl.Nodes {
		if n.Server().PeerMerges() != 0 {
			t.Fatalf("node %d merged peer cells without sync", i)
		}
	}
}
