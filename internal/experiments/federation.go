package experiments

import (
	"fmt"

	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/federation"
	"coca/internal/metrics"
	"coca/internal/model"
	"coca/internal/stream"
	"coca/internal/xrand"
)

// fedArm is one federation experiment configuration.
type fedArm struct {
	name      string
	servers   int
	syncEvery int
	topo      federation.Kind
}

// fedWorkload is the regime where the federation tier matters: non-IID
// Dirichlet client distributions (each server aggregates a skewed class
// subset), long-tail popularity, working-set churn (clients keep
// encountering classes their own server's fleet has not refreshed) and
// shared semantic drift (stale centers decay, so a cell refreshed by any
// fleet member is worth shipping to every server).
func fedWorkload(ds *dataset.Spec, clients int, seed uint64) stream.Config {
	return stream.Config{
		Dataset:         ds,
		NumClients:      clients,
		ClassWeights:    xrand.LongTailWeights(ds.NumClasses, 10),
		NonIIDLevel:     6,
		SceneMeanFrames: 20,
		WorkingSetSize:  8,
		WorkingSetChurn: 0.2,
		Seed:            seed,
	}
}

// runFederationArm builds and runs one arm, returning the fleet summary,
// the minimum per-server hit ratio and the sync statistics.
func runFederationArm(opts Options, arm fedArm, clients, rounds, frames, budget int, init *core.ServerInit) (metrics.Summary, float64, federation.SyncStats, error) {
	ds := dataset.UCF101().Subset(30)
	arch := model.ResNet101()
	space := newSpace(ds, arch)
	theta := thetaFor(arch, true)
	cl, err := federation.NewCluster(space, federation.ClusterConfig{
		ServerInit: init,
		NumServers: arm.servers,
		NumClients: clients,
		Topology:   arm.topo,
		SyncEvery:  arm.syncEvery,
		Client: core.ClientConfig{
			Theta: theta, Budget: budget, RoundFrames: frames,
			EnvBiasWeight: 0.05, DriftWeight: 0.1, DriftPerRound: 0.3,
		},
		Server:     core.ServerConfig{Theta: theta, Seed: opts.Seed, PeerInertia: 4},
		Stream:     fedWorkload(ds, clients, opts.Seed),
		Rounds:     rounds,
		SkipRounds: 1,
	})
	if err != nil {
		return metrics.Summary{}, 0, federation.SyncStats{}, err
	}
	perServer, combined, err := cl.Run()
	if err != nil {
		return metrics.Summary{}, 0, federation.SyncStats{}, err
	}
	minHit := 1.0
	for _, acc := range perServer {
		if s := acc.Summary(); s.HitRatio < minHit {
			minHit = s.HitRatio
		}
	}
	return combined.Summary(), minHit, cl.SyncStats(), nil
}

// FederationExp reproduces the federation-tier evaluation: a fleet of
// edge servers with disjoint client sub-fleets under a drifted, non-IID
// workload, comparing the partitioned no-sync baseline and the federated
// (peer delta-sync) fleet against the single-server oracle that
// aggregates every client. The last rows sweep the fleet size at a fixed
// total client count, measuring how per-server sync traffic scales.
func FederationExp(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	const (
		servers = 3
		clients = 12
		budget  = 150
	)
	rounds := opts.rounds(8)
	frames := opts.frames(200)
	var fedInit *core.ServerInit

	// Every arm runs the same server configuration at the same seed: build
	// the shared-dataset construction once and share it across arms (and
	// across each arm's servers) — bitwise identical to per-server builds.
	{
		ds := dataset.UCF101().Subset(30)
		arch := model.ResNet101()
		initSpace := newSpace(ds, arch)
		theta := thetaFor(arch, true)
		fedInit = core.BuildServerInit(initSpace, core.ServerConfig{Theta: theta, Seed: opts.Seed, PeerInertia: 4})
	}

	out := metrics.NewTable("Federation — cross-server hit amplification under drifted non-IID fleets (ResNet101, UCF101-30)",
		"Arm", "Lat.(ms)", "p50(ms)", "p95(ms)", "p99(ms)", "Acc.(%)", "Hit(%)", "MinSrvHit(%)", "Sync KiB/srv/round")

	arms := []fedArm{
		{name: "single-server oracle", servers: 1, syncEvery: 0, topo: federation.Mesh},
		{name: "partitioned (no sync)", servers: servers, syncEvery: 0, topo: federation.Mesh},
		{name: "federated mesh (sync=1)", servers: servers, syncEvery: 1, topo: federation.Mesh},
		{name: "federated star (sync=1)", servers: servers, syncEvery: 1, topo: federation.Star},
	}
	var oracleHit, oracleAcc, fedHit, fedAcc, noSyncAcc, fedMinHit, noSyncMinHit float64
	for _, arm := range arms {
		sum, minHit, sync, err := runFederationArm(opts, arm, clients, rounds, frames, budget, fedInit)
		if err != nil {
			return nil, fmt.Errorf("federation arm %q: %w", arm.name, err)
		}
		perSrvRound := float64(sync.BytesSent) / float64(arm.servers) / float64(rounds) / 1024
		out.AddRow(arm.name,
			metrics.Fmt(sum.AvgLatencyMs, 2),
			metrics.Fmt(sum.P50LatencyMs, 2),
			metrics.Fmt(sum.P95LatencyMs, 2),
			metrics.Fmt(sum.P99LatencyMs, 2),
			metrics.Pct(sum.Accuracy, 2),
			metrics.Pct(sum.HitRatio, 2),
			metrics.Pct(minHit, 2),
			metrics.Fmt(perSrvRound, 1),
		)
		switch arm.name {
		case "single-server oracle":
			oracleHit, oracleAcc = sum.HitRatio, sum.Accuracy
		case "partitioned (no sync)":
			noSyncMinHit, noSyncAcc = minHit, sum.Accuracy
		case "federated mesh (sync=1)":
			fedMinHit, fedHit, fedAcc = minHit, sum.HitRatio, sum.Accuracy
		}
	}

	// Fleet-size sweep at fixed total client count: per-server sync bytes
	// must grow sub-linearly (each server's locally-dirty set shrinks as
	// the fleet splits the same workload further).
	sweepRounds := opts.rounds(4)
	for _, n := range []int{2, 3, 4} {
		arm := fedArm{servers: n, syncEvery: 1, topo: federation.Mesh}
		_, _, sync, err := runFederationArm(opts, arm, clients, sweepRounds, frames, budget, fedInit)
		if err != nil {
			return nil, fmt.Errorf("federation sweep n=%d: %w", n, err)
		}
		perSrvRound := float64(sync.BytesSent) / float64(n) / float64(sweepRounds) / 1024
		out.AddRow(fmt.Sprintf("  sweep: %d servers, %d clients", n, clients),
			"", "", "", "", "", "", "", metrics.Fmt(perSrvRound, 1))
	}

	if oracleHit > 0 {
		out.AddNote("federated mesh mean per-server hit ratio is %.1f%% of the single-server oracle; worst server recovers from %.1f%% (no sync) to %.1f%%",
			100*fedHit/oracleHit, 100*noSyncMinHit/oracleHit, 100*fedMinHit/oracleHit)
		out.AddNote("accuracy recovers from %.2f%% (partitioned) to %.2f%% federated vs %.2f%% oracle — peer-synced entries stay fresh under drift",
			100*noSyncAcc, 100*fedAcc, 100*oracleAcc)
	}
	out.AddNote("sync traffic is the delta encoding's wire bytes; per-server bytes stay near-flat as the fleet grows at fixed total clients")
	out.AddNote("fixed seed reproduces identical rows run-to-run (deterministic peer-id merge order)")
	return &Result{ID: "federation", Table: out}, nil
}
