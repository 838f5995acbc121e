package federation

import (
	"context"
	"fmt"
	"sync"

	"coca/internal/core"
	"coca/internal/engine"
	"coca/internal/metrics"
	"coca/internal/semantics"
	"coca/internal/stream"
)

// ClusterConfig assembles a multi-edge-server CoCa deployment in process:
// N federated servers, a fleet of clients assigned across them, a shared
// workload partition, and a peer-sync cadence.
type ClusterConfig struct {
	// NumServers is the edge-server count.
	NumServers int
	// NumClients is the total fleet size, assigned to servers per
	// Assignment.
	NumClients int
	// Topology is the peer graph kind (default Mesh).
	Topology Kind
	// Assignment maps clients onto servers (default AssignBlock).
	Assignment AssignPolicy
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
	// and are resent once the predicate relents (see SyncPlan.SetFault).
	SyncFault func(round, from, to int) bool
	// RemoteFreqWeight is the NodeConfig.RemoteFreqWeight applied to
	// every node (0 = default discount, negative = no frequency sync).
	RemoteFreqWeight float64
	// Client is the per-client configuration template; ID and EnvSeed are
	// assigned per client from its fleet-wide id, so a client behaves
	// identically wherever it is assigned.
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

// Cluster is a federated fleet wired in process: every server runs its
// clients concurrently each round (the single-server Cluster semantics,
// per server), and at sync barriers the nodes exchange cell deltas in
// deterministic order.
type Cluster struct {
	Space *semantics.Space
	Nodes []*Node
	// Clients holds each server's clients, ascending fleet-wide id.
	Clients [][]*core.Client
	// ClientIDs is the client→server assignment that built Clients.
	ClientIDs [][]int

	topo    *Topology
	runners []*engine.Runner
	cfg     ClusterConfig
}

// NewCluster builds the servers, nodes, per-server client fleets and
// stream generators.
func NewCluster(space *semantics.Space, cfg ClusterConfig) (*Cluster, error) {
	if cfg.NumServers < 1 {
		return nil, fmt.Errorf("federation: cluster needs at least one server, got %d", cfg.NumServers)
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("federation: cluster rounds %d < 1", cfg.Rounds)
	}
	if cfg.SyncEvery < 0 {
		return nil, fmt.Errorf("federation: SyncEvery %d < 0", cfg.SyncEvery)
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
	assignment, err := Assign(cfg.NumClients, cfg.NumServers, cfg.Assignment)
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

	c := &Cluster{Space: space, ClientIDs: assignment, topo: topo, cfg: cfg}
	frames := cfg.Client.RoundFrames
	if frames == 0 {
		frames = core.DefaultRoundFrames
	}
	init := cfg.ServerInit
	if init == nil {
		init = core.BuildServerInit(space, cfg.Server)
	}
	for s := 0; s < cfg.NumServers; s++ {
		srv := core.NewServerFrom(space, cfg.Server, init)
		node := NewNode(srv, NodeConfig{ID: s, Relay: topo.Forwarding(), RemoteFreqWeight: cfg.RemoteFreqWeight, Membership: cfg.Membership})
		c.Nodes = append(c.Nodes, node)

		clients := make([]*core.Client, 0, len(assignment[s]))
		engines := make([]engine.Engine, 0, len(assignment[s]))
		gens := make([]*stream.Generator, 0, len(assignment[s]))
		for _, id := range assignment[s] {
			ccfg := cfg.Client
			ccfg.ID = id
			if ccfg.EnvSeed == 0 {
				ccfg.EnvSeed = uint64(id) + 1
			}
			client, err := core.NewClient(context.Background(), space, node, ccfg)
			if err != nil {
				return nil, err
			}
			clients = append(clients, client)
			engines = append(engines, client)
			gens = append(gens, part.Client(id))
		}
		c.Clients = append(c.Clients, clients)
		runner, err := engine.NewRunner(engines, gens, engine.RunConfig{
			Rounds:         cfg.Rounds,
			FramesPerRound: frames,
			SkipRounds:     cfg.SkipRounds,
			Concurrent:     true,
		})
		if err != nil {
			return nil, err
		}
		c.runners = append(c.runners, runner)
	}
	return c, nil
}

// Topology returns the cluster's peer graph.
func (c *Cluster) Topology() *Topology { return c.topo }

// Run executes the configured rounds. Servers run concurrently within a
// round (their fleets are disjoint and each runner is itself concurrent
// across its clients); at every SyncEvery-th round barrier the nodes
// exchange deltas in deterministic order, so a fixed seed reproduces
// identical metrics run to run. On sync rounds each node's peer-delta
// collection overlaps the round barrier: the node collects (a read of its
// own post-round state) the moment its own clients finish, while other
// servers are still running — only the two-phase apply waits for the full
// barrier, so the sync stays a pure function of every node's pre-sync
// state (see SyncPlan). It returns per-server and fleet-combined metrics.
func (c *Cluster) Run() (perServer []*metrics.Accumulator, combined *metrics.Accumulator, err error) {
	defer func() {
		for _, r := range c.runners {
			r.Close()
		}
	}()
	for round := 0; round < c.cfg.Rounds; round++ {
		var plan *SyncPlan
		if c.cfg.SyncEvery > 0 && (round+1)%c.cfg.SyncEvery == 0 {
			var perr error
			plan, perr = PrepareSync(c.Nodes, c.topo)
			if perr != nil {
				return nil, nil, perr
			}
			if c.cfg.SyncFault != nil {
				r := round
				plan.SetFault(func(from, to int) bool { return c.cfg.SyncFault(r, from, to) })
			}
		}
		errs := make([]error, len(c.runners))
		var wg sync.WaitGroup
		for s := range c.runners {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				errs[s] = c.runners[s].RunRound(round)
				if errs[s] == nil && plan != nil {
					// This node's round is complete (uploads applied at its
					// own barrier): collect its outgoing deltas now, while
					// other servers may still be mid-round.
					errs[s] = plan.Collect(s)
				}
			}(s)
		}
		wg.Wait()
		for s, rerr := range errs {
			if rerr != nil {
				return nil, nil, fmt.Errorf("federation: server %d: %w", s, rerr)
			}
		}
		if plan != nil {
			if err := plan.Apply(); err != nil {
				return nil, nil, err
			}
		}
	}
	perServer = make([]*metrics.Accumulator, len(c.runners))
	combined = &metrics.Accumulator{}
	for s, r := range c.runners {
		perServer[s] = r.Combined()
		combined.Merge(perServer[s])
	}
	return perServer, combined, nil
}

// SyncStats aggregates the fleet's sync counters.
func (c *Cluster) SyncStats() SyncStats {
	var total SyncStats
	for _, n := range c.Nodes {
		total.add(n.Stats())
	}
	return total
}
