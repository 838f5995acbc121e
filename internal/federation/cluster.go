package federation

import (
	"context"
	"errors"
	"fmt"

	"coca/internal/core"
	"coca/internal/engine"
	"coca/internal/metrics"
	"coca/internal/routing"
	"coca/internal/semantics"
	"coca/internal/stream"
)

// ClusterConfig assembles an in-process CoCa deployment: N federated
// servers (one is the paper's single edge server), a fleet of clients
// placed on them statically or through the routing tier, a shared workload
// partition, and the peer-sync cadence.
type ClusterConfig struct {
	// NumServers is the edge-server count.
	NumServers int
	// NumClients is the total fleet size.
	NumClients int
	// Topology is the peer graph kind (default Mesh).
	Topology Kind
	// Assignment maps clients onto servers (default AssignBlock). It is
	// static placement, so it cannot be combined with Routing.
	Assignment AssignPolicy
	// Routing, when set, fronts the servers with a routing.Router (policy,
	// shards, breakers, admission): every client opens its session through
	// it, so placement is dynamic — clients migrate live on breaker trips.
	Routing *routing.Config
	// SyncEvery runs a federation sync round after every SyncEvery-th
	// round barrier; 0 disables peer sync (the partitioned baseline).
	SyncEvery int
	// Fanout is the gossip push fanout (Topology Gossip only; ≤ 0 =
	// DefaultGossipFanout). GossipSeed drives the per-round peer
	// sampling.
	Fanout     int
	GossipSeed uint64
	// Membership tunes every node's failure detector (zero = defaults).
	Membership MembershipConfig
	// SyncFault, when set, is consulted for every sync exchange: a true
	// return fails the from→to link on that round — the chaos hook the
	// partition/heal property tests drive. Faulted deltas stay pending
	// and are resent once the predicate relents (see syncNodes).
	SyncFault func(round, from, to int) bool
	// OnRound, when set, runs after every round barrier, before sync —
	// the experiment hook for breaker trips and probes.
	OnRound func(round int)
	// RemoteFreqWeight is the NodeConfig.RemoteFreqWeight applied to
	// every node (0 = default discount, negative = no frequency sync).
	RemoteFreqWeight float64
	// Client is the per-client configuration template; ID and EnvSeed are
	// assigned per client from its fleet-wide id, so a client behaves
	// identically wherever it is placed.
	Client core.ClientConfig
	// Server configures every edge server. Servers share the Seed — the
	// paper's shared global dataset — so their initial tables agree and
	// the first sync ships only client-driven changes.
	Server core.ServerConfig
	// ServerInit optionally supplies a pre-built shared-dataset
	// construction (core.BuildServerInit) for the Server configuration.
	// When nil, NewCluster builds one itself; either way the cluster's
	// servers share a single build instead of each repeating the
	// construction — they are configured identically by design, so the
	// result is bitwise the same. Callers running several clusters at one
	// seed (experiment arms, A/B baselines) pass the same init to all.
	ServerInit *core.ServerInit
	// Stream describes the fleet-wide workload; its NumClients must match
	// NumClients or be zero (it is then filled in).
	Stream stream.Config
	// Rounds and SkipRounds control the run length and warm-up exclusion.
	Rounds, SkipRounds int
}

// Cluster is a fleet wired in process. One engine runner drives every
// client in ascending fleet id: allocations and inference run in parallel,
// and uploads apply at the round barrier in id order, so the merge
// sequence on every server — and every metric — is deterministic for a
// fixed seed wherever each client currently lives. Between rounds the
// nodes exchange cell deltas in deterministic order.
type Cluster struct {
	Space *semantics.Space
	Nodes []*Node
	// Router places the clients under ClusterConfig.Routing (nil under
	// static placement).
	Router *routing.Router
	// Clients holds the fleet, ascending fleet-wide id.
	Clients []*core.Client

	// assignment lists each server's client ids under static placement.
	assignment [][]int
	topo       *Topology
	runner     *engine.Runner
	cfg        ClusterConfig
}

// NewCluster builds the servers, nodes, the router when configured, and
// the client fleet with its stream generators.
func NewCluster(space *semantics.Space, cfg ClusterConfig) (*Cluster, error) {
	if cfg.NumServers < 1 {
		return nil, fmt.Errorf("federation: cluster needs at least one server, got %d", cfg.NumServers)
	}
	if cfg.NumClients < 1 {
		return nil, fmt.Errorf("federation: cluster needs at least one client, got %d", cfg.NumClients)
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("federation: cluster rounds %d < 1", cfg.Rounds)
	}
	if cfg.SyncEvery < 0 {
		return nil, fmt.Errorf("federation: negative sync cadence %d", cfg.SyncEvery)
	}
	if cfg.Routing != nil && cfg.Assignment != "" {
		return nil, errors.New("federation: Routing and Assignment both set: placement is either routed or static")
	}
	if cfg.Topology == "" {
		cfg.Topology = Mesh
	}
	var topo *Topology
	var err error
	if cfg.Topology == Gossip {
		topo, err = NewGossipTopology(cfg.NumServers, cfg.Fanout, cfg.GossipSeed)
	} else {
		topo, err = NewTopology(cfg.Topology, cfg.NumServers)
	}
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
		return nil, fmt.Errorf("federation: cluster workload: %w", err)
	}

	c := &Cluster{Space: space, topo: topo, cfg: cfg}
	init := cfg.ServerInit
	if init == nil {
		init = core.BuildServerInit(space, cfg.Server)
	}
	for s := 0; s < cfg.NumServers; s++ {
		srv := core.NewServerFrom(space, cfg.Server, init)
		c.Nodes = append(c.Nodes, NewNode(srv, NodeConfig{ID: s, Relay: topo.Forwarding(), RemoteFreqWeight: cfg.RemoteFreqWeight, Membership: cfg.Membership}))
	}
	// coord[id] is where client id opens its session.
	coord := make([]core.Coordinator, cfg.NumClients)
	if cfg.Routing != nil {
		targets := make([]core.Coordinator, len(c.Nodes))
		for s, n := range c.Nodes {
			targets[s] = n
		}
		c.Router = routing.NewRouter(targets, *cfg.Routing)
		for id := range coord {
			coord[id] = c.Router
		}
	} else {
		if c.assignment, err = Assign(cfg.NumClients, cfg.NumServers, cfg.Assignment); err != nil {
			return nil, err
		}
		for s, ids := range c.assignment {
			for _, id := range ids {
				coord[id] = c.Nodes[s]
			}
		}
	}

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
		client, err := core.NewClient(context.Background(), space, coord[id], ccfg)
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
func (c *Cluster) Topology() *Topology { return c.topo }

// PerClient returns the per-client metric accumulators, ascending fleet id
// (live: they keep filling as rounds run).
func (c *Cluster) PerClient() []*metrics.Accumulator { return c.runner.PerClient() }

// PerServer merges each server's clients, ascending id, into one
// accumulator per server. Under Routing clients move between servers, so
// it returns nil.
func (c *Cluster) PerServer() []*metrics.Accumulator {
	if c.Router != nil {
		return nil
	}
	per := c.runner.PerClient()
	out := make([]*metrics.Accumulator, len(c.assignment))
	for s, ids := range c.assignment {
		out[s] = &metrics.Accumulator{}
		for _, id := range ids {
			out[s].Merge(per[id])
		}
	}
	return out
}

// Combined merges the fleet's accumulators into a fresh one (callable
// mid-run for per-round deltas). Under static placement it merges
// PerServer in server order.
func (c *Cluster) Combined() *metrics.Accumulator {
	if c.Router != nil {
		return c.runner.Combined()
	}
	combined := &metrics.Accumulator{}
	for _, acc := range c.PerServer() {
		combined.Merge(acc)
	}
	return combined
}

// Run executes the configured rounds. Each round the runner drives every
// client, then the OnRound hook fires and peers sync at the SyncEvery
// cadence; a breaker tripped in the hook moves its clients at their next
// allocation, the following round's begin. It returns the fleet-combined
// metrics.
func (c *Cluster) Run() (*metrics.Accumulator, error) {
	for round := 0; round < c.cfg.Rounds; round++ {
		if err := c.runner.RunRound(round); err != nil {
			return nil, fmt.Errorf("federation: round %d: %w", round, err)
		}
		if c.cfg.OnRound != nil {
			c.cfg.OnRound(round)
		}
		if c.cfg.SyncEvery > 0 && (round+1)%c.cfg.SyncEvery == 0 {
			var fault func(from, to int) bool
			if c.cfg.SyncFault != nil {
				fault = func(from, to int) bool { return c.cfg.SyncFault(round, from, to) }
			}
			if err := syncNodes(c.Nodes, c.topo, fault); err != nil {
				return nil, err
			}
		}
	}
	return c.Combined(), nil
}

// SyncStats aggregates the fleet's sync counters.
func (c *Cluster) SyncStats() SyncStats {
	var total SyncStats
	for _, n := range c.Nodes {
		total.add(n.Stats())
	}
	return total
}

// Close closes every client session (the runner is closed by Run).
func (c *Cluster) Close() {
	for _, cl := range c.Clients {
		_ = cl.Close()
	}
}
