package federation

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/metrics"
	"coca/internal/model"
	"coca/internal/routing"
	"coca/internal/semantics"
	"coca/internal/stream"
)

func TestClusterValidation(t *testing.T) {
	space := testSpace()
	for name, cfg := range map[string]ClusterConfig{
		"zero servers":          {NumServers: 0, NumClients: 1, Rounds: 1},
		"zero clients":          {NumServers: 1, NumClients: 0, Rounds: 1},
		"zero rounds":           {NumServers: 1, NumClients: 1, Rounds: 0},
		"negative sync":         {NumServers: 1, NumClients: 1, Rounds: 1, SyncEvery: -1},
		"client-count mismatch": {NumServers: 1, NumClients: 2, Rounds: 1, Stream: stream.Config{NumClients: 5}},
		"routed and assigned": {NumServers: 2, NumClients: 2, Rounds: 1,
			Routing: &routing.Config{}, Assignment: AssignRoundRobin},
		"rebalance without routing": {NumServers: 2, NumClients: 2, Rounds: 1, RebalanceEvery: 1},
	} {
		if _, err := NewCluster(space, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestClusterRunProducesMetrics(t *testing.T) {
	space := testSpace()
	cl, err := NewCluster(space, ClusterConfig{
		NumServers: 1,
		NumClients: 3,
		Client:     core.ClientConfig{Theta: 0.035, Budget: 40, RoundFrames: 60},
		Server:     core.ServerConfig{Theta: 0.035, Seed: 1, ProfileSamples: 150, InitSamplesPerClass: 16},
		Stream:     stream.Config{SceneMeanFrames: 15, WorkingSetSize: 6, WorkingSetChurn: 0.05, Seed: 2},
		Rounds:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cl.PerClient()); n != 3 {
		t.Fatalf("per-client accumulators = %d", n)
	}
	if combined.Frames() != 3*2*60 {
		t.Fatalf("combined frames = %d, want 360", combined.Frames())
	}
	s := combined.Summary()
	if s.AvgLatencyMs <= 0 || s.Accuracy <= 0 {
		t.Fatalf("degenerate summary %+v", s)
	}
}

func TestClusterSkipRounds(t *testing.T) {
	space := testSpace()
	cl, err := NewCluster(space, ClusterConfig{
		NumServers: 1,
		NumClients: 1,
		Client:     core.ClientConfig{Theta: 0.035, Budget: 40, RoundFrames: 40},
		Server:     core.ServerConfig{Theta: 0.035, Seed: 1, ProfileSamples: 100, InitSamplesPerClass: 16},
		Stream:     stream.Config{SceneMeanFrames: 15, Seed: 2},
		Rounds:     3, SkipRounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if combined.Frames() != 40 {
		t.Fatalf("frames = %d, want only the last round's 40", combined.Frames())
	}
}

// TestClusterDeterministic runs a single-server fleet and a routed fleet
// twice each and demands identical metrics; TestClusterDeterminism covers
// the federated mesh.
func TestClusterDeterministic(t *testing.T) {
	single := func() float64 {
		cl, err := NewCluster(testSpace(), ClusterConfig{
			NumServers: 1,
			NumClients: 2,
			Client:     core.ClientConfig{Theta: 0.035, Budget: 40, RoundFrames: 50, EnvBiasWeight: 0.05},
			Server:     core.ServerConfig{Theta: 0.035, Seed: 1, ProfileSamples: 100, InitSamplesPerClass: 16},
			Stream:     stream.Config{SceneMeanFrames: 15, WorkingSetSize: 6, WorkingSetChurn: 0.1, Seed: 2},
			Rounds:     3,
		})
		if err != nil {
			t.Fatal(err)
		}
		combined, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return combined.Summary().AvgLatencyMs
	}
	if a, b := single(), single(); a != b {
		t.Fatalf("single-server runs not deterministic: %v vs %v", a, b)
	}
	routed := func() float64 {
		cfg := routedConfig(routing.PolicySemantic)
		cfg.RebalanceEvery = 1
		cl, err := NewCluster(routedSpace(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		combined, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return combined.Summary().AvgLatencyMs
	}
	if a, b := routed(), routed(); a != b {
		t.Fatalf("routed runs not deterministic: %v vs %v", a, b)
	}
}

// goldenClusterHash pins the runner's output for three fleets — one
// server; a 3-node mesh whose 0→1 link is cut on odd rounds; a 4-node
// routed semantic fleet rebalanced every round with breaker 0 tripped at
// round 2 — as a SHA-256 over each fleet's combined summary, each server's
// summary (static placement only) and each node's ledger sum. It was
// captured from the three runners (single-server, federated, routed) this
// one replaced; any change to what the runner computes moves it.
const goldenClusterHash = "06ea2507909432ad18d1061e9aac6cce9cbc1192aafa395de4896301fc353717"

func TestClusterGolden(t *testing.T) {
	h := sha256.New()
	summary := func(tag string, acc *metrics.Accumulator) {
		fmt.Fprintf(h, "%s %v\n", tag, acc.Summary())
	}
	ledgers := func(cl *Cluster) {
		for _, n := range cl.Nodes {
			var sum float64
			for _, c := range n.Server().AppendCells(nil) {
				sum += c.EvTotal
			}
			fmt.Fprintf(h, "ledger %x\n", math.Float64bits(sum))
		}
	}
	run := func(name string, space *semantics.Space, cfg ClusterConfig, hook func(*Cluster) func(int)) {
		var cl *Cluster
		if hook != nil {
			cfg.OnRound = func(round int) { hook(cl)(round) }
		}
		cl, err := NewCluster(space, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		combined, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(h, "fleet", name)
		summary("combined", combined)
		for s, acc := range cl.PerServer() {
			summary(fmt.Sprintf("server %d", s), acc)
		}
		ledgers(cl)
	}

	space := testSpace()
	single := clusterConfig(space, 0)
	single.NumServers, single.NumClients = 1, 3
	run("single", space, single, nil)

	mesh := clusterConfig(space, 1)
	mesh.Rounds = 4
	mesh.SyncFault = func(round, from, to int) bool { return round%2 == 1 && from == 0 && to == 1 }
	run("mesh", space, mesh, nil)

	routed := routedConfig(routing.PolicySemantic)
	routed.RebalanceEvery = 1
	routed.Rounds = 5
	run("routed", routedSpace(), routed, func(cl *Cluster) func(int) {
		return func(round int) {
			if round == 2 {
				cl.Router.TripBreaker(0)
			}
		}
	})

	if got := hex.EncodeToString(h.Sum(nil)); got != goldenClusterHash {
		t.Fatalf("cluster golden %s, want %s", got, goldenClusterHash)
	}
}

func routedSpace() *semantics.Space {
	return semantics.NewSpace(dataset.ESC50().Subset(12), model.VGG16BN())
}

func routedConfig(policy routing.Policy) ClusterConfig {
	return ClusterConfig{
		NumServers: 4,
		NumClients: 8,
		Routing:    &routing.Config{Policy: policy, ShardSize: 3, Seed: 11},
		Topology:   Mesh,
		SyncEvery:  2,
		Client:     core.ClientConfig{Theta: 0.035, Budget: 40, RoundFrames: 30},
		Server:     core.ServerConfig{Theta: 0.035, Seed: 3, ProfileSamples: 200, InitSamplesPerClass: 16},
		Stream: stream.Config{
			Dataset:         dataset.ESC50().Subset(12),
			SceneMeanFrames: 15,
			WorkingSetSize:  6,
			WorkingSetChurn: 0.1,
			NonIIDLevel:     4,
			Seed:            9,
		},
		Rounds: 6,
	}
}

// TestRoutingSmoke drives routed clusters — one per placement policy —
// over a 4-node in-memory fleet: the CI routing smoke alongside the
// forced-migration TCP run at the repo root.
func TestRoutingSmoke(t *testing.T) {
	space := routedSpace()
	for _, policy := range []routing.Policy{routing.PolicyHash, routing.PolicySemantic} {
		cfg := routedConfig(policy)
		cfg.ServerInit = core.BuildServerInit(space, cfg.Server)
		if policy == routing.PolicySemantic {
			cfg.RebalanceEvery = 2
		}
		cluster, err := NewCluster(space, cfg)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		combined, err := cluster.Run()
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		sum := combined.Summary()
		if sum.Frames != cfg.NumClients*cfg.Rounds*cfg.Client.RoundFrames {
			t.Errorf("%s: %d frames, want %d", policy, sum.Frames, cfg.NumClients*cfg.Rounds*cfg.Client.RoundFrames)
		}
		if sum.HitRatio <= 0 {
			t.Errorf("%s: fleet hit ratio %.3f, want > 0", policy, sum.HitRatio)
		}
		if cluster.PerServer() != nil {
			t.Errorf("%s: per-server metrics under routing", policy)
		}
		// Placement: every client is on a live server inside its shard.
		for id := 0; id < cfg.NumClients; id++ {
			s := cluster.Router.Lookup(id)
			if s < 0 || s >= cfg.NumServers {
				t.Errorf("%s: client %d on server %d", policy, id, s)
			}
		}
		if st := cluster.Router.Stats(); st.Opens < cfg.NumClients {
			t.Errorf("%s: %d opens for %d clients", policy, st.Opens, cfg.NumClients)
		}
		cluster.Close()
	}
}

// TestRoutedClusterBrownOutRecovers trips one server's breaker mid-run
// and requires the fleet to finish with every client off that server.
func TestRoutedClusterBrownOutRecovers(t *testing.T) {
	cfg := routedConfig(routing.PolicyHash)
	var cluster *Cluster
	cfg.OnRound = func(round int) {
		if round == 2 {
			cluster.Router.TripBreaker(0)
		}
	}
	cluster, err := NewCluster(routedSpace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	combined, err := cluster.Run()
	if err != nil {
		t.Fatal(err)
	}
	if combined.Summary().Frames == 0 {
		t.Fatal("no frames recorded")
	}
	for id := 0; id < cfg.NumClients; id++ {
		if cluster.Router.Lookup(id) == 0 {
			t.Errorf("client %d still on browned-out server 0", id)
		}
	}
	if st := cluster.Router.Stats(); st.Migrations == 0 {
		t.Error("brown-out caused no migrations")
	}
}
