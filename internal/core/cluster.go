// In-process multi-client orchestration of CoCa.
package core

import (
	"context"
	"fmt"

	"coca/internal/engine"
	"coca/internal/metrics"
	"coca/internal/semantics"
	"coca/internal/stream"
)

// ClusterConfig assembles a complete in-process CoCa deployment.
type ClusterConfig struct {
	// NumClients is the fleet size.
	NumClients int
	// Client is the per-client configuration template; ID and EnvSeed
	// are assigned per client.
	Client ClientConfig
	// Server configures the edge server.
	Server ServerConfig
	// Stream describes the workload; its NumClients must match or be
	// zero (it is then filled in).
	Stream stream.Config
	// Rounds and SkipRounds control the run length and warm-up exclusion.
	Rounds, SkipRounds int
}

// Cluster is a server plus a fleet of clients wired in-process.
type Cluster struct {
	Space   *semantics.Space
	Server  *Server
	Clients []*Client
	Gens    []*stream.Generator
	cfg     ClusterConfig
}

// NewCluster builds the server, clients and per-client stream generators.
func NewCluster(space *semantics.Space, cfg ClusterConfig) (*Cluster, error) {
	if cfg.NumClients < 1 {
		return nil, fmt.Errorf("core: cluster needs at least one client, got %d", cfg.NumClients)
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("core: cluster rounds %d < 1", cfg.Rounds)
	}
	if cfg.Stream.NumClients == 0 {
		cfg.Stream.NumClients = cfg.NumClients
	}
	if cfg.Stream.NumClients != cfg.NumClients {
		return nil, fmt.Errorf("core: stream has %d clients, cluster has %d", cfg.Stream.NumClients, cfg.NumClients)
	}
	if cfg.Stream.Dataset == nil {
		cfg.Stream.Dataset = space.DS
	}
	srv := NewServer(space, cfg.Server)
	part, err := stream.NewPartition(cfg.Stream)
	if err != nil {
		return nil, fmt.Errorf("core: cluster workload: %w", err)
	}
	cl := &Cluster{Space: space, Server: srv, cfg: cfg}
	for k := 0; k < cfg.NumClients; k++ {
		ccfg := cfg.Client
		ccfg.ID = k
		if ccfg.EnvSeed == 0 {
			ccfg.EnvSeed = uint64(k) + 1
		}
		client, err := NewClient(context.Background(), space, srv, ccfg)
		if err != nil {
			return nil, err
		}
		cl.Clients = append(cl.Clients, client)
		cl.Gens = append(cl.Gens, part.Client(k))
	}
	return cl, nil
}

// Run executes the configured rounds and returns per-client and combined
// metrics. Clients run concurrently — one goroutine per client within
// every round — against the server's session API; uploads apply at the
// round barrier in client order, keeping runs deterministic.
func (c *Cluster) Run() (perClient []*metrics.Accumulator, combined *metrics.Accumulator, err error) {
	engines := make([]engine.Engine, len(c.Clients))
	for i, cl := range c.Clients {
		engines[i] = cl
	}
	frames := c.cfg.Client.withDefaults().RoundFrames
	return engine.RunRounds(engines, c.Gens, engine.RunConfig{
		Rounds:         c.cfg.Rounds,
		FramesPerRound: frames,
		SkipRounds:     c.cfg.SkipRounds,
		Concurrent:     true,
	})
}
