package federation

import (
	"context"
	"fmt"

	"coca/internal/core"
	"coca/internal/engine"
	"coca/internal/metrics"
	"coca/internal/routing"
	"coca/internal/semantics"
	"coca/internal/stream"
)

// RoutedConfig assembles a routed multi-edge-server deployment: the
// federation fleet of Cluster fronted by a routing.Router instead of a
// static client→server assignment.
type RoutedConfig struct {
	// NumServers is the edge-server count.
	NumServers int
	// NumClients is the total fleet size.
	NumClients int
	// Routing configures the control-plane tier (policy, shards,
	// breakers, admission).
	Routing routing.Config
	// RebalanceEvery runs a semantic rebalance pass after every N-th
	// round barrier; 0 disables (only meaningful under PolicySemantic).
	RebalanceEvery int
	// Topology is the peer graph kind (default Mesh).
	Topology Kind
	// SyncEvery runs a federation sync round after every SyncEvery-th
	// round barrier; 0 disables peer sync.
	SyncEvery int
	// RemoteFreqWeight is applied to every node (see ClusterConfig).
	RemoteFreqWeight float64
	// Client is the per-client configuration template (ID/EnvSeed
	// assigned per client).
	Client core.ClientConfig
	// Server configures every edge server (shared Seed — the paper's
	// shared global dataset).
	Server core.ServerConfig
	// ServerInit optionally shares one pre-built construction across the
	// fleet (and across experiment arms); see ClusterConfig.ServerInit.
	ServerInit *core.ServerInit
	// Stream describes the fleet-wide workload.
	Stream stream.Config
	// Rounds and SkipRounds control run length and warm-up exclusion.
	Rounds, SkipRounds int
	// OnRound, when set, runs after every round barrier (before sync and
	// rebalance) — the experiment hook for breaker trips and probes.
	OnRound func(round int)
}

// RoutedCluster is a federated fleet whose clients reach their servers
// through the routing tier: every session is opened against the Router,
// so placement is dynamic — clients migrate live on breaker trips and
// semantic rebalances — while the servers still federate through the
// usual sync plane at round barriers.
//
// Unlike Cluster's per-server runners, one flat engine runner drives
// the whole fleet: placement changes round to round, but the runner's
// post-barrier upload pass stays in ascending fleet id, so the global
// merge sequence — and every metric — remains deterministic for a fixed
// seed regardless of where each client currently lives.
type RoutedCluster struct {
	Space   *semantics.Space
	Nodes   []*Node
	Router  *routing.Router
	Clients []*core.Client

	topo   *Topology
	runner *engine.Runner
	cfg    RoutedConfig
}

// NewRoutedCluster builds the servers, the router over them, and the
// client fleet opened through the router.
func NewRoutedCluster(space *semantics.Space, cfg RoutedConfig) (*RoutedCluster, error) {
	if cfg.NumServers < 1 {
		return nil, fmt.Errorf("federation: routed cluster needs at least one server, got %d", cfg.NumServers)
	}
	if cfg.NumClients < 1 {
		return nil, fmt.Errorf("federation: routed cluster needs at least one client, got %d", cfg.NumClients)
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("federation: routed cluster rounds %d < 1", cfg.Rounds)
	}
	if cfg.SyncEvery < 0 || cfg.RebalanceEvery < 0 {
		return nil, fmt.Errorf("federation: negative cadence (sync %d, rebalance %d)", cfg.SyncEvery, cfg.RebalanceEvery)
	}
	if cfg.Topology == "" {
		cfg.Topology = Mesh
	}
	topo, err := NewTopology(cfg.Topology, cfg.NumServers)
	if err != nil {
		return nil, err
	}
	if cfg.Stream.NumClients == 0 {
		cfg.Stream.NumClients = cfg.NumClients
	}
	if cfg.Stream.NumClients != cfg.NumClients {
		return nil, fmt.Errorf("federation: stream has %d clients, cluster has %d", cfg.Stream.NumClients, cfg.NumClients)
	}
	if cfg.Stream.Dataset == nil {
		cfg.Stream.Dataset = space.DS
	}
	part, err := stream.NewPartition(cfg.Stream)
	if err != nil {
		return nil, fmt.Errorf("federation: routed cluster workload: %w", err)
	}

	c := &RoutedCluster{Space: space, topo: topo, cfg: cfg}
	init := cfg.ServerInit
	if init == nil {
		init = core.BuildServerInit(space, cfg.Server)
	}
	targets := make([]core.Coordinator, 0, cfg.NumServers)
	for s := 0; s < cfg.NumServers; s++ {
		srv := core.NewServerFrom(space, cfg.Server, init)
		node := NewNode(srv, NodeConfig{ID: s, Relay: topo.Forwarding(), RemoteFreqWeight: cfg.RemoteFreqWeight})
		c.Nodes = append(c.Nodes, node)
		targets = append(targets, node)
	}
	c.Router = routing.NewRouter(targets, cfg.Routing)

	frames := cfg.Client.RoundFrames
	if frames == 0 {
		frames = core.DefaultRoundFrames
	}
	engines := make([]engine.Engine, 0, cfg.NumClients)
	gens := make([]*stream.Generator, 0, cfg.NumClients)
	for id := 0; id < cfg.NumClients; id++ {
		ccfg := cfg.Client
		ccfg.ID = id
		if ccfg.EnvSeed == 0 {
			ccfg.EnvSeed = uint64(id) + 1
		}
		client, err := core.NewClient(context.Background(), space, c.Router, ccfg)
		if err != nil {
			return nil, err
		}
		c.Clients = append(c.Clients, client)
		engines = append(engines, client)
		gens = append(gens, part.Client(id))
	}
	c.runner, err = engine.NewRunner(engines, gens, engine.RunConfig{
		Rounds:         cfg.Rounds,
		FramesPerRound: frames,
		SkipRounds:     cfg.SkipRounds,
		Concurrent:     true,
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Topology returns the cluster's peer graph.
func (c *RoutedCluster) Topology() *Topology { return c.topo }

// PerClient returns the per-client metric accumulators (live).
func (c *RoutedCluster) PerClient() []*metrics.Accumulator { return c.runner.PerClient() }

// Combined merges the fleet's accumulators into a fresh one (callable
// mid-run for per-round deltas).
func (c *RoutedCluster) Combined() *metrics.Accumulator { return c.runner.Combined() }

// Run executes the configured rounds: each round the flat runner drives
// every client (allocations and inference in parallel, uploads ordered
// at the barrier), then the OnRound hook fires, peers sync at the
// SyncEvery cadence, and the router rebalances at the RebalanceEvery
// cadence — ordered migrations land at each client's next allocation,
// i.e. the following round's begin.
func (c *RoutedCluster) Run() (combined *metrics.Accumulator, err error) {
	defer c.runner.Close()
	for round := 0; round < c.cfg.Rounds; round++ {
		if err := c.runner.RunRound(round); err != nil {
			return nil, fmt.Errorf("federation: routed round %d: %w", round, err)
		}
		if c.cfg.OnRound != nil {
			c.cfg.OnRound(round)
		}
		if c.cfg.SyncEvery > 0 && (round+1)%c.cfg.SyncEvery == 0 {
			if err := SyncNodes(c.Nodes, c.topo); err != nil {
				return nil, err
			}
		}
		if c.cfg.RebalanceEvery > 0 && (round+1)%c.cfg.RebalanceEvery == 0 {
			c.Router.Rebalance()
		}
	}
	return c.runner.Combined(), nil
}

// SyncStats aggregates the fleet's sync counters.
func (c *RoutedCluster) SyncStats() SyncStats {
	var total SyncStats
	for _, n := range c.Nodes {
		total.add(n.Stats())
	}
	return total
}

// Close closes every client session (the runner is closed by Run).
func (c *RoutedCluster) Close() {
	for _, cl := range c.Clients {
		_ = cl.Close()
	}
}
