// Package coca is a Go implementation of CoCa, the multi-client
// collaborative caching framework for accelerating edge inference from
// "Many Hands Make Light Work: Accelerating Edge Inference via Multi-Client
// Collaborative Caching" (ICDE 2025).
//
// CoCa inserts semantic cache layers between the blocks of a DNN. Each
// cache entry is the semantic center of a class at a layer; inference
// performs sequential lookups at the activated layers, accumulates cosine
// similarity across layers, and exits early when the top class clearly
// separates from the runner-up. An edge server maintains a global
// classes × layers cache table aggregated from all clients and allocates
// each client a personalized sub-table with the Adaptive Cache Allocation
// heuristic (hot-spot classes by frequency × recency, layers by expected
// latency reduction).
//
// Because this module is a faithful reproduction on a simulated substrate
// (no GPU or video data), models and datasets are synthetic universes that
// preserve the properties caching interacts with: per-layer semantic
// vectors with depth-dependent discriminability, class confusion structure,
// temporal locality, non-IID client distributions and long-tail class
// popularity. See DESIGN.md for the substitution map.
//
// Quick start:
//
//	sys, err := coca.NewSystem(coca.Options{
//		Model: "ResNet101", Dataset: "UCF101", Classes: 50,
//		NumClients: 4, Rounds: 6,
//	})
//	if err != nil { ... }
//	report, err := sys.Run()
//	fmt.Printf("%.1f%% latency reduction at %.2f%% accuracy\n",
//		100*report.LatencyReduction(), 100*report.Accuracy)
package coca

import (
	"fmt"
	"time"

	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/federation"
	"coca/internal/model"
	"coca/internal/routing"
	"coca/internal/semantics"
	"coca/internal/stream"
	"coca/internal/xrand"
)

// Options configures a CoCa deployment. The zero value of every field
// selects the paper's default.
type Options struct {
	// Model is the architecture preset: "VGG16_BN", "ResNet50",
	// "ResNet101" (default), "ResNet152" or "AST".
	Model string
	// Dataset is the dataset preset: "ImageNet-100", "UCF101" (default)
	// or "ESC-50".
	Dataset string
	// Classes restricts the dataset to its first n classes (0 = all).
	Classes int

	// NumClients is the fleet size (default 4).
	NumClients int
	// Rounds to run and WarmupRounds to exclude from metrics.
	Rounds, WarmupRounds int

	// Theta is the cache-hit threshold Θ (0 picks the model's
	// recommended <3%-loss operating point).
	Theta float64
	// Budget is each client's cache size Π in entries (default 300).
	Budget int
	// RoundFrames is F, frames per round (default 300).
	RoundFrames int
	// GammaCollect (Γ) and DeltaCollect (Δ) gate update collection
	// (defaults per the library calibration).
	GammaCollect, DeltaCollect float64

	// NonIIDLevel is the paper's p = 1/ε knob (0 = IID).
	NonIIDLevel float64
	// LongTailRho sets long-tail class popularity with imbalance ratio
	// ρ (0 or 1 = uniform).
	LongTailRho float64
	// SceneMeanFrames, WorkingSetSize and WorkingSetChurn shape temporal
	// locality (defaults 25 / 15 / 0.05).
	SceneMeanFrames float64
	WorkingSetSize  int
	WorkingSetChurn float64

	// ClientBias adds per-client feature shift (default 0.05).
	ClientBias float64
	// DriftWeight and DriftPerRound enable gradual semantic drift.
	DriftWeight, DriftPerRound float64

	// Federation, when non-nil, joins a served endpoint (Serve) to a
	// fleet of federated peer edge servers — see FederationOptions.
	Federation *FederationOptions

	// DialRetries is how many extra connection attempts Dial (and the
	// redirect-following reconnects inside Client.Run) make after a
	// failed dial, backing off between attempts (default 3; negative
	// disables retries).
	DialRetries int
	// DialBackoff is the exponential backoff base between dial attempts
	// (default 100ms). The actual wait is equal-jittered into
	// [d/2, d] of the doubling schedule by a per-client seeded stream,
	// so a fleet sharing a brown-out does not thunder-herd the
	// recovering server; the schedule is deterministic per (Seed,
	// client id).
	DialBackoff time.Duration
	// RetryBudgetRatio tunes the per-client leaky-bucket retry budget:
	// each dial operation earns this fraction of a retry token, each
	// retry spends one, and the bucket holds at most DialRetries tokens
	// (the full schedule of one cold dial). In sustained overload the
	// fleet therefore retries at most Ratio× its dial rate instead of
	// amplifying the overload. 0 selects the default 0.1; negative
	// disables the budget entirely.
	RetryBudgetRatio float64
	// RequestTimeout bounds each per-round coordination request (the
	// status→allocation exchange and the update upload). The deadline
	// travels to the server in every wire frame header, so work that
	// expires while queued is dropped at dequeue instead of computed for
	// nobody. 0 sets no deadline.
	RequestTimeout time.Duration
	// MaxStaleRounds arms the client's serve-stale shield: when a
	// round's allocation fails (peer sync, migration window, suspect or
	// dead backend), the client serves up to this many consecutive
	// rounds from its last-applied allocation view instead of failing,
	// with the staleness counted in telemetry. 0 disables the shield.
	MaxStaleRounds int

	// Routing, when non-nil, deploys the fleet behind the routing tier:
	// several in-process edge servers fronted by a control-plane router
	// that owns client→server placement (consistent-hash shuffle shards),
	// admission (per-server circuit breakers) and live migration. The
	// single-server fields above still shape each server and the workload.
	Routing *RoutingOptions

	// Seed roots all randomness (default 1).
	Seed uint64
}

// FederationOptions configures a served endpoint's federation tier,
// mirroring the RoutingOptions pattern: one nested struct instead of
// loose flat knobs. When attached to Options.Federation, the server
// gossips global-cache cell deltas to its peers every SyncInterval, so
// classes cached by another server's clients accelerate this server's
// clients too.
//
// Every fleet member must use the same model/dataset options and Seed
// (the shared dataset that aligns their initial tables) and a distinct
// NodeID — a peer offering this server's own id is rejected. Sync
// failures (unreachable peers, id or model mismatches) are recorded in
// Server.SyncStats (Errors / LastError, and the per-peer Peers
// breakdown); check it when a fleet shows no federation benefit.
type FederationOptions struct {
	// Peers lists the addresses of federated peer edge servers. With
	// Join set the list only needs to reach the fleet — further member
	// addresses are learned from join announcements.
	Peers []string
	// NodeID is this server's federation id (peer merges apply in id
	// order; give every server a distinct id).
	NodeID int
	// Relay marks this server as a relay hop for non-full-mesh peer
	// graphs (star hubs, ring members): evidence received from one peer
	// then stays pending toward the others and forwards onward. Leave it
	// false when every fleet member lists every other in Peers (a full
	// mesh) — non-relaying servers treat received evidence as delivered
	// everywhere, which is what stops a mesh from re-circulating it.
	Relay bool
	// SyncInterval is the wire peer-sync cadence (default 5s).
	SyncInterval time.Duration
	// Join announces this server to the fleet on its first sync and
	// bootstraps its table from a peer snapshot — everything the fleet
	// learned since construction, shipped as one batch — so a server
	// started mid-run converges without replaying sync history. The
	// server's own address is announced too, and established members
	// start pushing to it without reconfiguration.
	Join bool
	// Gossip, when positive, switches peer sync to epidemic mode: each
	// round pushes to a seeded sample of this many peers instead of all
	// of them, keeping per-node sync cost O(fanout) as the fleet grows.
	Gossip int
	// SuspectAfter and DeadAfter tune the per-peer failure detector:
	// that many consecutive sync failures mark a peer suspect / dead
	// (defaults 2 / 5). Dead peers are skipped by sync and re-probed
	// every few rounds; an announced clean leave (Shutdown) marks the
	// leaver immediately.
	SuspectAfter, DeadAfter int
	// AntiEntropyInterval, when positive, schedules pull anti-entropy
	// rounds on that cadence alongside the push plane: each round the
	// server samples one peer, exchanges compact ledger digests, and
	// pulls exactly the cells where the peer's evidence ledger outruns
	// its own. This is the self-healing path — a server partitioned away
	// and healed reconverges within one interval instead of waiting for
	// push traffic to happen to touch it. Zero disables pulls
	// (push-only, the classic behavior).
	AntiEntropyInterval time.Duration
}

// RoutingOptions configures the routed multi-server deployment.
type RoutingOptions struct {
	// Servers is the edge-server count (default 4).
	Servers int
	// Policy is the placement policy: "hash" (default), "static" or
	// "random".
	Policy string
	// ShardSize bounds each client's shuffle shard (default
	// min(3, Servers)).
	ShardSize int
	// SyncEvery runs a federation peer-sync round after every N-th round
	// barrier (0 disables peer sync).
	SyncEvery int
}

func (o Options) withDefaults() Options {
	if o.Model == "" {
		o.Model = "ResNet101"
	}
	if o.Dataset == "" {
		o.Dataset = "UCF101"
	}
	if o.NumClients == 0 {
		o.NumClients = 4
	}
	if o.Rounds == 0 {
		o.Rounds = 6
	}
	if o.Budget == 0 {
		o.Budget = 300
	}
	if o.RoundFrames == 0 {
		o.RoundFrames = core.DefaultRoundFrames
	}
	if o.SceneMeanFrames == 0 {
		o.SceneMeanFrames = 25
	}
	if o.WorkingSetSize == 0 {
		o.WorkingSetSize = 15
	}
	if o.WorkingSetChurn == 0 {
		o.WorkingSetChurn = 0.05
	}
	if o.ClientBias == 0 {
		o.ClientBias = 0.05
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Federation != nil {
		f := *o.Federation // defaults must not mutate the caller's struct
		if f.SyncInterval == 0 {
			f.SyncInterval = 5 * time.Second
		}
		o.Federation = &f
	}
	if o.DialRetries == 0 {
		o.DialRetries = 3
	}
	if o.DialRetries < 0 {
		o.DialRetries = 0
	}
	if o.DialBackoff == 0 {
		o.DialBackoff = 100 * time.Millisecond
	}
	return o
}

// resolve builds the simulation universe behind the options.
func (o Options) resolve() (*semantics.Space, stream.Config, error) {
	arch, err := model.ByName(o.Model)
	if err != nil {
		return nil, stream.Config{}, err
	}
	ds, err := dataset.ByName(o.Dataset)
	if err != nil {
		return nil, stream.Config{}, err
	}
	if o.Classes > 0 {
		ds = ds.Subset(o.Classes)
	}
	space := semantics.NewSpace(ds, arch)
	scfg := stream.Config{
		Dataset:         ds,
		NumClients:      o.NumClients,
		NonIIDLevel:     o.NonIIDLevel,
		SceneMeanFrames: o.SceneMeanFrames,
		WorkingSetSize:  o.WorkingSetSize,
		WorkingSetChurn: o.WorkingSetChurn,
		Seed:            o.Seed,
	}
	if o.LongTailRho > 1 {
		scfg.ClassWeights = xrand.LongTailWeights(ds.NumClasses, o.LongTailRho)
	}
	return space, scfg, nil
}

// theta picks the configured threshold, or the model's strict operating
// point.
func (o Options) theta(arch *model.Arch) float64 {
	if o.Theta != 0 {
		return o.Theta
	}
	return arch.ThetaStrict
}

// System is an in-process CoCa deployment: one edge server plus a fleet
// of clients over a shared synthetic workload — or, with
// Options.Routing, several servers behind the routing tier.
type System struct {
	cluster *federation.Cluster
}

// NewSystem builds a deployment.
func NewSystem(opts Options) (*System, error) {
	opts = opts.withDefaults()
	space, scfg, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	theta := opts.theta(space.Arch)
	cfg := federation.ClusterConfig{
		NumServers: 1,
		NumClients: opts.NumClients,
		Client: core.ClientConfig{
			Theta:          theta,
			Budget:         opts.Budget,
			RoundFrames:    opts.RoundFrames,
			GammaCollect:   opts.GammaCollect,
			DeltaCollect:   opts.DeltaCollect,
			EnvBiasWeight:  opts.ClientBias,
			DriftWeight:    opts.DriftWeight,
			DriftPerRound:  opts.DriftPerRound,
			RequestTimeout: opts.RequestTimeout,
			MaxStaleRounds: opts.MaxStaleRounds,
		},
		Server: core.ServerConfig{Theta: theta, Seed: opts.Seed},
		Stream: scfg,
		Rounds: opts.Rounds, SkipRounds: opts.WarmupRounds,
	}
	if r := opts.Routing; r != nil {
		cfg.NumServers = r.Servers
		if cfg.NumServers == 0 {
			cfg.NumServers = 4
		}
		policy, err := routing.ParsePolicy(r.Policy)
		if err != nil {
			return nil, err
		}
		cfg.Routing = &routing.Config{Policy: policy, ShardSize: r.ShardSize, Seed: opts.Seed}
		cfg.SyncEvery = r.SyncEvery
	}
	cluster, err := federation.NewCluster(space, cfg)
	if err != nil {
		return nil, err
	}
	return &System{cluster: cluster}, nil
}

// Report summarizes a run.
type Report struct {
	// Frames measured (after warm-up).
	Frames int
	// AvgLatencyMs / P95LatencyMs of cached inference.
	AvgLatencyMs, P95LatencyMs float64
	// EdgeOnlyLatencyMs is the uncached forward-pass latency.
	EdgeOnlyLatencyMs float64
	// Accuracy, HitRatio and HitAccuracy over measured frames.
	Accuracy, HitRatio, HitAccuracy float64
	// PerClient holds each client's average latency and accuracy.
	PerClient []ClientReport
	// Routing summarizes control-plane activity (nil for single-server
	// deployments).
	Routing *RoutingReport
}

// RoutingReport is the control-plane slice of a routed run.
type RoutingReport struct {
	// Servers is the edge-server count behind the router.
	Servers int
	// Migrations counts live client moves (breaker trips and failovers).
	Migrations int
}

// ClientReport is one client's slice of the run.
type ClientReport struct {
	ID           int
	AvgLatencyMs float64
	Accuracy     float64
	HitRatio     float64
}

// LatencyReduction returns the fractional latency saving versus edge-only
// inference.
func (r Report) LatencyReduction() float64 {
	if r.EdgeOnlyLatencyMs == 0 {
		return 0
	}
	return 1 - r.AvgLatencyMs/r.EdgeOnlyLatencyMs
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("frames=%d latency=%.2fms (edge-only %.2fms, −%.1f%%) accuracy=%.2f%% hits=%.1f%% (hit accuracy %.2f%%)",
		r.Frames, r.AvgLatencyMs, r.EdgeOnlyLatencyMs, 100*r.LatencyReduction(),
		100*r.Accuracy, 100*r.HitRatio, 100*r.HitAccuracy)
}

// Run executes the configured rounds and reports combined metrics.
func (s *System) Run() (Report, error) {
	c := s.cluster
	defer c.Close()
	combined, err := c.Run()
	if err != nil {
		return Report{}, err
	}
	sum := combined.Summary()
	rep := Report{
		Frames:            sum.Frames,
		AvgLatencyMs:      sum.AvgLatencyMs,
		P95LatencyMs:      sum.P95LatencyMs,
		EdgeOnlyLatencyMs: c.Space.Arch.TotalLatencyMs(),
		Accuracy:          sum.Accuracy,
		HitRatio:          sum.HitRatio,
		HitAccuracy:       sum.HitAccuracy,
	}
	if c.Router != nil {
		st := c.Router.Stats()
		rep.Routing = &RoutingReport{
			Servers:    c.Router.NumServers(),
			Migrations: st.Migrations,
		}
	}
	for k, acc := range c.PerClient() {
		cs := acc.Summary()
		rep.PerClient = append(rep.PerClient, ClientReport{
			ID: k, AvgLatencyMs: cs.AvgLatencyMs, Accuracy: cs.Accuracy, HitRatio: cs.HitRatio,
		})
	}
	return rep, nil
}
