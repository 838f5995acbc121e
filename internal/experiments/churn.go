package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"

	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/federation"
	"coca/internal/metrics"
	"coca/internal/model"
	"coca/internal/protocol"
	"coca/internal/semantics"
	"coca/internal/transport"
	"coca/internal/xrand"
)

// churnFleet builds n federated nodes over one shared dataset
// construction — the shared ServerConfig.Seed is what makes the initial
// table common knowledge, so a join snapshot only carries what the fleet
// LEARNED.
func churnFleet(n int, relay bool, space *semantics.Space, cfg core.ServerConfig, init *core.ServerInit) []*federation.Node {
	nodes := make([]*federation.Node, n)
	for i := range nodes {
		nodes[i] = federation.NewNode(core.NewServerFrom(space, cfg, init), federation.NodeConfig{ID: i, Relay: relay})
	}
	return nodes
}

// churnUpload pushes one scripted cell update into a node — the
// experiment drives raw evidence through the sync tier without paying
// for full client engines, which is what makes 256-node fleets cheap
// enough to measure.
func churnUpload(ctx context.Context, n *federation.Node, rng *rand.Rand) error {
	classes, layers := n.Server().Shape()
	sess, err := n.Open(ctx, 10_000+n.ID())
	if err != nil {
		return err
	}
	defer sess.Close()
	class := rng.IntN(classes)
	vec := make([]float32, model.Dim)
	for i := range vec {
		vec[i] = float32(rng.Float64())
	}
	freq := make([]float64, classes)
	freq[class] = 1
	return sess.Upload(ctx, core.UpdateReport{
		Freq:  freq,
		Cells: []core.UpdateCell{{Class: class, Layer: rng.IntN(layers), Count: 8, Vec: vec}},
	})
}

// pipePeerSets gives every node a PeerSet over the rest of the fleet, as
// a wire deployment runs one per server: node i answers at "n<i>", and
// dialing it hands out an in-memory transport.Pipe whose far end
// protocol.ServeConn serves against node i until the set closes its link
// or ctx ends. Pull sampling is seeded by seed.
func pipePeerSets(ctx context.Context, nodes []*federation.Node, seed uint64) []*federation.PeerSet {
	byAddr := make(map[string]*federation.Node, len(nodes))
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = fmt.Sprintf("n%d", i)
		byAddr[addrs[i]] = n
	}
	dial := func(_ context.Context, addr string) (transport.Conn, error) {
		c, s := transport.Pipe()
		go func() { _ = protocol.ServeConn(ctx, s, byAddr[addr]) }()
		return c, nil
	}
	sets := make([]*federation.PeerSet, len(nodes))
	for i, n := range nodes {
		peers := append(append([]string(nil), addrs[:i]...), addrs[i+1:]...)
		sets[i] = federation.NewPeerSetWith(n, peers, federation.PeerSetConfig{Dial: dial, Seed: seed})
	}
	return sets
}

// runChurnRounds drives the scripted workload: every node uploads one
// cell per round, then the fleet syncs once over topo. With pulls, every
// node's PeerSet then runs one pull anti-entropy round over the wire — the
// wire fleet's -anti-entropy cadence compressed into the experiment's
// rounds. Peer sampling is the PeerSet's own, so the upload script stays
// byte-identical to an arm without pulls driven by the same rng seed.
func runChurnRounds(ctx context.Context, nodes []*federation.Node, topo *federation.Topology, rounds int, rng *rand.Rand, pulls []*federation.PeerSet) error {
	for r := 0; r < rounds; r++ {
		for _, n := range nodes {
			if err := churnUpload(ctx, n, rng); err != nil {
				return err
			}
		}
		if err := federation.SyncNodes(nodes, topo); err != nil {
			return err
		}
		for _, ps := range pulls {
			if _, err := ps.AntiEntropyOnce(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// fleetBytes sums outbound sync bytes across the fleet.
func fleetBytes(nodes []*federation.Node) int64 {
	var total int64
	for _, n := range nodes {
		total += n.Stats().BytesSent
	}
	return total
}

// fleetByteSplit sums per-channel outbound accounting across the fleet:
// push (delta sync), digest (anti-entropy negotiation frames) and pull
// (anti-entropy repair payloads).
func fleetByteSplit(nodes []*federation.Node) (push, digest, pull int64) {
	for _, n := range nodes {
		st := n.Stats()
		push += st.BytesSent
		digest += st.DigestBytes
		pull += st.PullBytes
	}
	return
}

// ChurnExp measures the elastic-federation tier: gossip fanout-k sync
// bytes per node against full mesh as the fleet grows (16/64/256 at full
// scale), then a membership churn cycle — a snapshot-bootstrap join
// whose cost is compared against replaying the fleet's wire history, and
// a crash the surviving fleet syncs straight through.
func ChurnExp(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	ctx := context.Background()

	// A compact space keeps the 256-node arm tractable; the sync tier's
	// byte accounting is what is under test, not the cache policy.
	ds := dataset.ESC50().Subset(10)
	arch := model.VGG16BN()
	space := newSpace(ds, arch)
	cfg := core.ServerConfig{Theta: thetaFor(arch, true), Seed: opts.Seed, ProfileSamples: 120, InitSamplesPerClass: 16}
	init := core.BuildServerInit(space, cfg)
	rounds := opts.rounds(6)

	out := metrics.NewTable("Churn — gossip vs mesh sync traffic, anti-entropy split and elastic membership (VGG16BN, ESC50-10)",
		"Arm", "Nodes", "Push KiB/node/round", "Digest KiB", "Pull KiB", "Catch-up KiB")

	// Fleet-size sweep: mesh per-node bytes grow with the fleet (every
	// node pushes to n-1 peers); gossip pins per-node cost to fanout k.
	sizes := []int{16, 64, 256}
	if opts.Scale < 1 {
		for i, s := range sizes {
			if s = int(float64(s) * opts.Scale); s < 4 {
				s = 4
			}
			sizes[i] = s
		}
	}
	var meshPerNode, gossipPerNode float64 // largest-size figures for the note
	for _, n := range sizes {
		for _, arm := range []string{"mesh", "gossip"} {
			var topo *federation.Topology
			var err error
			if arm == "mesh" {
				topo, err = federation.NewTopology(federation.Mesh, n)
			} else {
				topo, err = federation.NewGossipTopology(n, federation.DefaultGossipFanout, opts.Seed)
			}
			if err != nil {
				return nil, err
			}
			nodes := churnFleet(n, topo.Forwarding(), space, cfg, init)
			rng := xrand.New(opts.Seed, 0xC0CA, uint64(n))
			if err := runChurnRounds(ctx, nodes, topo, rounds, rng, nil); err != nil {
				return nil, fmt.Errorf("churn %s n=%d: %w", arm, n, err)
			}
			total := fleetBytes(nodes)
			perNode := float64(total) / float64(n) / float64(rounds) / 1024
			label := arm
			if arm == "gossip" {
				label = fmt.Sprintf("gossip (k=%d)", federation.DefaultGossipFanout)
			}
			out.AddRow(label, fmt.Sprintf("%d", n), metrics.Fmt(perNode, 1), "")
			if n == sizes[len(sizes)-1] {
				if arm == "mesh" {
					meshPerNode = perNode
				} else {
					gossipPerNode = perNode
				}
			}
		}
	}

	// Pull anti-entropy layered on the base-size gossip workload, split
	// per channel. Push rises above the push-only arm — repaired evidence is
	// novel to the repaired node and propagates onward — which is repair
	// traffic doing its job, not overhead; digest KiB is the steady
	// per-round price of the negotiation.
	aeN := sizes[0]
	aeTopo, err := federation.NewGossipTopology(aeN, federation.DefaultGossipFanout, opts.Seed)
	if err != nil {
		return nil, err
	}
	div := float64(aeN) * float64(rounds) * 1024
	tagged := churnFleet(aeN, aeTopo.Forwarding(), space, cfg, init)
	pullCtx, stopPulls := context.WithCancel(ctx)
	pulls := pipePeerSets(pullCtx, tagged, opts.Seed)
	err = runChurnRounds(ctx, tagged, aeTopo, rounds, xrand.New(opts.Seed, 0xC0CA, 0xA17E), pulls)
	for _, ps := range pulls {
		ps.Close()
	}
	stopPulls()
	if err != nil {
		return nil, fmt.Errorf("churn anti-entropy: %w", err)
	}
	push, digest, pull := fleetByteSplit(tagged)
	out.AddRow("gossip+anti-entropy", fmt.Sprintf("%d", aeN),
		metrics.Fmt(float64(push)/div, 1), metrics.Fmt(float64(digest)/div, 1), metrics.Fmt(float64(pull)/div, 1), "")

	// Membership churn on the base fleet: build history, then a node
	// joins from one snapshot and a node crashes mid-run.
	n0 := sizes[0]
	topo, err := federation.NewTopology(federation.Mesh, n0)
	if err != nil {
		return nil, err
	}
	nodes := churnFleet(n0, false, space, cfg, init)
	rng := xrand.New(opts.Seed, 0xC0CA, 0xFEED)
	if err := runChurnRounds(ctx, nodes, topo, rounds, rng, nil); err != nil {
		return nil, fmt.Errorf("churn history: %w", err)
	}
	historyPerNode := float64(fleetBytes(nodes)) / float64(n0) / 1024

	// Snapshot join: the joiner bootstraps from ONE batch off nodes[0];
	// the honest byte count is the encoded wire frame the snapshot
	// occupies. Replaying the fleet's history would have cost what an
	// average member spent shipping it round by round.
	classes, layers := space.DS.NumClasses, space.Arch.NumLayers
	joiner := federation.NewNode(core.NewServerFrom(space, cfg, init), federation.NodeConfig{ID: n0})
	snap, err := nodes[0].HandlePeerJoin(&protocol.PeerJoin{
		NodeID: int32(n0), NumClasses: int32(classes), NumLayers: int32(layers), WantSnapshot: true,
	})
	if err != nil {
		return nil, fmt.Errorf("churn join: %w", err)
	}
	frame, err := protocol.Encode(&protocol.Message{Type: protocol.TypePeerSnapshot, PeerSnapshot: snap})
	if err != nil {
		return nil, fmt.Errorf("churn join encode: %w", err)
	}
	joinKiB := float64(len(frame)) / 1024
	if _, err := joiner.ApplySnapshot(snap, len(frame)); err != nil {
		return nil, fmt.Errorf("churn join apply: %w", err)
	}
	out.AddRow("snapshot join", fmt.Sprintf("%d+1", n0), "", "", "", metrics.Fmt(joinKiB, 1))
	out.AddRow("  vs history replay", fmt.Sprintf("%d+1", n0), "", "", "", metrics.Fmt(historyPerNode, 1))

	// Crash: drop a member with no leave announcement; the survivors
	// (joiner included) keep syncing over the shrunk graph.
	survivors := append(append([]*federation.Node{}, nodes[:1]...), nodes[2:]...)
	survivors = append(survivors, joiner)
	crashTopo, err := federation.NewTopology(federation.Mesh, len(survivors))
	if err != nil {
		return nil, err
	}
	preCrash := fleetBytes(survivors)
	crashRounds := opts.rounds(2)
	if err := runChurnRounds(ctx, survivors, crashTopo, crashRounds, rng, nil); err != nil {
		return nil, fmt.Errorf("churn post-crash: %w", err)
	}
	postKiB := float64(fleetBytes(survivors)-preCrash) / float64(len(survivors)) / float64(crashRounds) / 1024
	out.AddRow("post-crash fleet", fmt.Sprintf("%d-1+1", n0+1), metrics.Fmt(postKiB, 1), "")

	if meshPerNode > 0 {
		out.AddNote("gossip per-node sync traffic at the largest fleet is %.1f%% of mesh (%.1f vs %.1f KiB/node/round) — O(k) links instead of O(n)",
			100*gossipPerNode/meshPerNode, gossipPerNode, meshPerNode)
	}
	if historyPerNode > 0 {
		out.AddNote("snapshot join bootstraps in %.1f KiB, %.1f%% of the %.1f KiB an average member spent shipping the same history round by round — join cost scales with what the fleet learned, not how long it ran",
			joinKiB, 100*joinKiB/historyPerNode, historyPerNode)
	}
	out.AddNote("the crash round needs no reconfiguration: deltas commit only on successful exchange, so survivors resend the dead member's share nowhere and owe it nothing")
	out.AddNote("fixed seed reproduces identical rows run-to-run (seeded gossip sampling and scripted uploads)")
	return &Result{ID: "churn", Table: out}, nil
}
