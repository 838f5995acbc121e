package experiments

import (
	"context"
	"fmt"
	"reflect"

	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/federation"
	"coca/internal/metrics"
	"coca/internal/model"
	"coca/internal/routing"
	"coca/internal/stream"
	"coca/internal/xrand"
)

// routingWorkload is the regime where placement matters: strongly
// non-IID clients (each has a skewed class profile a server could
// specialize for), long-tail popularity and working-set churn. Peer sync
// is disabled in the experiment so hit-ratio differences are
// attributable to placement alone.
func routingWorkload(ds *dataset.Spec, clients int, seed uint64) stream.Config {
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

// runRoutingArm builds and runs one routed fleet under the given placement
// policy, returning the fleet summary, the router stats and (when skip is
// 0) the per-round fleet hit ratios collected at each round barrier.
func runRoutingArm(opts Options, policy routing.Policy, servers, clients, rounds, skip, frames, budget int, init *core.ServerInit, onRound func(*federation.Cluster, int)) (metrics.Summary, routing.Stats, []float64, error) {
	ds := dataset.UCF101().Subset(30)
	arch := model.ResNet101()
	space := newSpace(ds, arch)
	theta := thetaFor(arch, true)
	var cluster *federation.Cluster
	var roundHits []float64
	var prevFrames, prevHits float64
	cfg := federation.ClusterConfig{
		ServerInit: init,
		NumServers: servers,
		NumClients: clients,
		Routing:    &routing.Config{Policy: policy, ShardSize: servers, Seed: opts.Seed},
		SyncEvery:  0,
		Client: core.ClientConfig{
			Theta: theta, Budget: budget, RoundFrames: frames,
			EnvBiasWeight: 0.05,
		},
		Server:     core.ServerConfig{Theta: theta, Seed: opts.Seed},
		Stream:     routingWorkload(ds, clients, opts.Seed),
		Rounds:     rounds,
		SkipRounds: skip,
		OnRound: func(round int) {
			if onRound != nil {
				onRound(cluster, round)
			}
			// Per-round fleet hit ratio from successive combined deltas
			// (only meaningful when skip == 0: every frame is recorded).
			if skip == 0 {
				s := cluster.Combined().Summary()
				f, h := float64(s.Frames), s.HitRatio*float64(s.Frames)
				if df := f - prevFrames; df > 0 {
					roundHits = append(roundHits, (h-prevHits)/df)
				}
				prevFrames, prevHits = f, h
			}
		},
	}
	var err error
	cluster, err = federation.NewCluster(space, cfg)
	if err != nil {
		return metrics.Summary{}, routing.Stats{}, nil, err
	}
	defer cluster.Close()
	combined, err := cluster.Run()
	if err != nil {
		return metrics.Summary{}, routing.Stats{}, nil, err
	}
	return combined.Summary(), cluster.Router.Stats(), roundHits, nil
}

// mirroredCoord/mirroredSession feed a migration target the same uploads
// its primary saw (the federation sync plane's job in production), so a
// forced migration can be checked for bitwise allocation equivalence
// against an uninterrupted baseline — allocation is a pure function of
// the global table, the layer profile and the client's status.
type mirroredCoord struct{ primary, shadow core.Coordinator }

func (m *mirroredCoord) Open(ctx context.Context, clientID int) (core.Session, error) {
	p, err := m.primary.Open(ctx, clientID)
	if err != nil {
		return nil, err
	}
	s, err := m.shadow.Open(ctx, clientID)
	if err != nil {
		_ = p.Close()
		return nil, err
	}
	return &mirroredSession{p: p, s: s}, nil
}

type mirroredSession struct{ p, s core.Session }

func (m *mirroredSession) Info() core.RegisterInfo { return m.p.Info() }
func (m *mirroredSession) Allocate(ctx context.Context, status core.StatusReport) (core.Delta, error) {
	return m.p.Allocate(ctx, status)
}
func (m *mirroredSession) Upload(ctx context.Context, upd core.UpdateReport) error {
	if err := m.p.Upload(ctx, upd); err != nil {
		return err
	}
	return m.s.Upload(ctx, upd)
}
func (m *mirroredSession) Close() error {
	err := m.p.Close()
	if serr := m.s.Close(); err == nil {
		err = serr
	}
	return err
}

// migrationEquivalence runs the live-migration safety check at small
// scale: a client is force-migrated mid-stream to a server holding the
// same global state and its per-round allocations are compared bitwise
// against an uninterrupted single-server run. It returns the number of
// divergent rounds (0 = bitwise-identical recovery).
func migrationEquivalence(seed uint64) (divergent int, rounds int, err error) {
	const (
		nRounds     = 8
		migrateAt   = 4
		roundFrames = 40
	)
	ctx := context.Background()
	space := newSpace(dataset.ESC50().Subset(10), model.VGG16BN())
	scfg := core.ServerConfig{Theta: 0.035, Seed: seed, ProfileSamples: 200, InitSamplesPerClass: 16}
	init := core.BuildServerInit(space, scfg)
	newServer := func() *core.Server { return core.NewServerFrom(space, scfg, init) }
	ccfg := core.ClientConfig{ID: 0, Theta: 0.035, Budget: 40, RoundFrames: roundFrames}

	runArm := func(coord core.Coordinator, onRound func(round int)) ([]core.Allocation, error) {
		cl, err := core.NewClient(ctx, space, coord, ccfg)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		part, err := stream.NewPartition(stream.Config{
			Dataset: space.DS, NumClients: 1, SceneMeanFrames: 20,
			WorkingSetSize: 6, WorkingSetChurn: 0.05, Seed: seed + 2,
		})
		if err != nil {
			return nil, err
		}
		gen := part.Client(0)
		allocs := make([]core.Allocation, 0, nRounds)
		for round := 0; round < nRounds; round++ {
			if onRound != nil {
				onRound(round)
			}
			if err := cl.BeginRound(); err != nil {
				return nil, err
			}
			allocs = append(allocs, cl.View().Allocation().Clone()) // kept across later rounds
			for f := 0; f < roundFrames; f++ {
				cl.Infer(gen.Next())
			}
			if err := cl.EndRound(); err != nil {
				return nil, err
			}
		}
		return allocs, nil
	}

	base, err := runArm(newServer(), nil)
	if err != nil {
		return 0, 0, err
	}
	shadow := newServer()
	router := routing.NewRouter(
		[]core.Coordinator{&mirroredCoord{primary: newServer(), shadow: shadow}, shadow},
		routing.Config{Policy: routing.PolicyStatic, ShardSize: 2},
	)
	moved, err := runArm(router, func(round int) {
		if round == migrateAt {
			router.TripBreaker(0)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	for round := range base {
		if !reflect.DeepEqual(base[round], moved[round]) {
			divergent++
		}
	}
	return divergent, nRounds, nil
}

// RoutingExp evaluates the routing/admission tier (beyond the paper):
// the placement-policy comparison — random vs consistent-hash placement
// of a strongly non-IID fleet over partitioned servers — plus a simulated
// brown-out measuring migration cost and time-to-recover, and the
// live-migration bitwise-equivalence check.
func RoutingExp(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	const (
		servers = 4
		clients = 16
		budget  = 60
	)
	rounds := opts.rounds(10)
	frames := opts.frames(200)
	skip := rounds / 3

	// All arms share one server construction (same config, same seed).
	var init *core.ServerInit
	{
		ds := dataset.UCF101().Subset(30)
		arch := model.ResNet101()
		theta := thetaFor(arch, true)
		init = core.BuildServerInit(newSpace(ds, arch), core.ServerConfig{Theta: theta, Seed: opts.Seed})
	}

	out := metrics.NewTable("Routing tier — placement policy, admission and live migration (ResNet101, UCF101-30, no peer sync)",
		"Arm", "Lat.(ms)", "p95(ms)", "Acc.(%)", "Hit(%)", "Migrations")

	arms := []struct {
		name   string
		policy routing.Policy
	}{
		{"random placement", routing.PolicyRandom},
		{"consistent-hash", routing.PolicyHash},
	}
	for _, arm := range arms {
		sum, st, _, err := runRoutingArm(opts, arm.policy, servers, clients, rounds, skip, frames, budget, init, nil)
		if err != nil {
			return nil, fmt.Errorf("routing arm %q: %w", arm.name, err)
		}
		out.AddRow(arm.name,
			metrics.Fmt(sum.AvgLatencyMs, 2),
			metrics.Fmt(sum.P95LatencyMs, 2),
			metrics.Pct(sum.Accuracy, 2),
			metrics.Pct(sum.HitRatio, 2),
			fmt.Sprintf("%d", st.Migrations),
		)
	}

	// Brown-out: hash placement, server 0's breaker force-opened after
	// round brownAt. Every client placed there migrates at its next
	// allocation; the per-round fleet hit ratio dips (migrated clients
	// resync and their new servers learn their classes) and recovers.
	brownAt := rounds / 3
	var brownStats routing.Stats
	_, brownStats, roundHits, err := runRoutingArm(opts, routing.PolicyHash, servers, clients, rounds, 0, frames, budget, init,
		func(c *federation.Cluster, round int) {
			if round == brownAt {
				c.Router.TripBreaker(0)
			}
		})
	if err != nil {
		return nil, fmt.Errorf("routing brown-out: %w", err)
	}
	dip, dipRound, recoverRound := brownOutRecovery(roundHits, brownAt)
	out.AddRow("brown-out (hash, trip@"+fmt.Sprint(brownAt)+")",
		"", "", "", metrics.Pct(dip, 2),
		fmt.Sprintf("%d", brownStats.Migrations),
	)

	divergent, eqRounds, err := migrationEquivalence(opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("routing migration equivalence: %w", err)
	}

	if dipRound >= 0 {
		if recoverRound >= 0 {
			out.AddNote("brown-out at round %d: fleet hit ratio dips to %.1f%% (round %d) and recovers to the pre-trip level in %d round(s) — migrated sessions resync their allocation via the delta protocol's version-0 full table",
				brownAt, 100*dip, dipRound, recoverRound-brownAt)
		} else {
			out.AddNote("brown-out at round %d: fleet hit ratio dips to %.1f%% (round %d) and is still recovering at run end (scale up -scale for the full recovery curve)",
				brownAt, 100*dip, dipRound)
		}
	}
	if divergent == 0 {
		out.AddNote("live-migration safety: a session force-migrated mid-stream recovers allocations bitwise-identical to an uninterrupted run over all %d rounds", eqRounds)
	} else {
		out.AddNote("live-migration safety: %d of %d rounds diverged from the uninterrupted baseline — INVESTIGATE", divergent, eqRounds)
	}
	out.AddNote("fixed seed reproduces identical rows run-to-run (placement, workload and breaker schedule are all deterministic)")
	return &Result{ID: "routing", Table: out}, nil
}

// brownOutRecovery scans per-round fleet hit ratios for the post-trip
// dip and the first round back at the pre-trip baseline (95% of the mean
// hit ratio over the rounds before the trip). Returns dip value, dip
// round and recovery round (-1 when absent).
func brownOutRecovery(roundHits []float64, brownAt int) (dip float64, dipRound, recoverRound int) {
	dipRound, recoverRound = -1, -1
	// The trip fires at the round-brownAt barrier, so the first affected
	// round is brownAt+1 (metrics are per completed round).
	if brownAt <= 0 || brownAt+1 >= len(roundHits) {
		return 0, -1, -1
	}
	// Pre-trip baseline over the later warm rounds only: the cold-start
	// rounds would drag the recovery bar below the dip itself.
	lo := brownAt / 2
	pre := 0.0
	for _, h := range roundHits[lo : brownAt+1] {
		pre += h
	}
	pre /= float64(brownAt + 1 - lo)
	dip, dipRound = roundHits[brownAt+1], brownAt+1
	for r := brownAt + 2; r < len(roundHits); r++ {
		if roundHits[r] < dip {
			dip, dipRound = roundHits[r], r
		}
	}
	for r := dipRound; r < len(roundHits); r++ {
		if roundHits[r] >= 0.95*pre {
			recoverRound = r
			break
		}
	}
	return dip, dipRound, recoverRound
}
