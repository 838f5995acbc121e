package routing

// Migration golden equivalence (the safety argument for live session
// migration, exercised end to end): kill a client's session mid-stream,
// re-Open it on a DIFFERENT server, and require the recovered
// allocation to be bitwise-identical, round by round, to an
// uninterrupted run.
//
// The only subtlety is feeding the migration target the same uploads
// the first server saw — in production that is the federation sync
// plane's job; here a mirror coordinator uploads to primary and shadow
// alike, making the shadow a bitwise replica (allocation is a pure
// function of the global table, Φ and the client's status; Allocate
// mutates only counters — see core.Server.computeAllocation). The
// migrated arm then proves two things at once: the router's
// breaker-driven migration re-Opens on the shadow transparently, and
// the version-0 full-delta resync rebuilds the exact allocation the
// uninterrupted baseline holds even though the view versions have
// diverged.

import (
	"context"
	"reflect"
	"testing"

	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/model"
	"coca/internal/semantics"
	"coca/internal/stream"
)

// mirrorCoord opens paired sessions: allocations come from primary,
// uploads land on both, so shadow's global state tracks primary's.
type mirrorCoord struct {
	primary, shadow core.Coordinator
}

func (m *mirrorCoord) Open(ctx context.Context, clientID int) (core.Session, error) {
	p, err := m.primary.Open(ctx, clientID)
	if err != nil {
		return nil, err
	}
	s, err := m.shadow.Open(ctx, clientID)
	if err != nil {
		_ = p.Close()
		return nil, err
	}
	return &mirrorSession{p: p, s: s}, nil
}

type mirrorSession struct {
	p, s core.Session
}

func (m *mirrorSession) Info() core.RegisterInfo { return m.p.Info() }

func (m *mirrorSession) Allocate(ctx context.Context, status core.StatusReport) (core.Delta, error) {
	return m.p.Allocate(ctx, status)
}

func (m *mirrorSession) Upload(ctx context.Context, upd core.UpdateReport) error {
	if err := m.p.Upload(ctx, upd); err != nil {
		return err
	}
	return m.s.Upload(ctx, upd)
}

func (m *mirrorSession) Close() error {
	err := m.p.Close()
	if serr := m.s.Close(); err == nil {
		err = serr
	}
	return err
}

func migrationGen(t *testing.T) *stream.Generator {
	t.Helper()
	part, err := stream.NewPartition(stream.Config{
		Dataset:         dataset.ESC50().Subset(10),
		NumClients:      1,
		SceneMeanFrames: 20,
		WorkingSetSize:  6,
		WorkingSetChurn: 0.05,
		Seed:            5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return part.Client(0)
}

func TestMigrationGoldenEquivalence(t *testing.T) {
	ctx := context.Background()
	const (
		rounds      = 8
		migrateAt   = 4 // trip the breaker before this round's allocation
		roundFrames = 40
	)
	space := semantics.NewSpace(dataset.ESC50().Subset(10), model.VGG16BN())
	scfg := core.ServerConfig{Theta: 0.035, Seed: 3, ProfileSamples: 200, InitSamplesPerClass: 16}
	init := core.BuildServerInit(space, scfg)
	newServer := func() *core.Server { return core.NewServerFrom(space, scfg, init) }
	ccfg := core.ClientConfig{ID: 0, Theta: 0.035, Budget: 40, RoundFrames: roundFrames}

	runArm := func(coord core.Coordinator, onRound func(round int)) ([]core.Allocation, []uint64) {
		cl, err := core.NewClient(ctx, space, coord, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		gen := migrationGen(t)
		allocs := make([]core.Allocation, 0, rounds)
		versions := make([]uint64, 0, rounds)
		for round := 0; round < rounds; round++ {
			if onRound != nil {
				onRound(round)
			}
			if err := cl.BeginRound(); err != nil {
				t.Fatalf("round %d begin: %v", round, err)
			}
			allocs = append(allocs, cl.View().Allocation().Clone()) // kept across later rounds
			versions = append(versions, cl.View().Version())
			for f := 0; f < roundFrames; f++ {
				cl.Infer(gen.Next())
			}
			if err := cl.EndRound(); err != nil {
				t.Fatalf("round %d end: %v", round, err)
			}
		}
		return allocs, versions
	}

	// Baseline: one client, one server, never interrupted.
	base, baseVer := runArm(newServer(), nil)

	// Migrated arm: the client starts on server 0 (primary A mirrored to
	// shadow B), the router force-opens A's breaker before round
	// migrateAt, and the session re-Opens on server 1 — B itself — for
	// the rest of the run.
	shadow := newServer()
	router := NewRouter(
		[]core.Coordinator{&mirrorCoord{primary: newServer(), shadow: shadow}, shadow},
		Config{Policy: PolicyStatic, ShardSize: 2},
	)
	moved, movedVer := runArm(router, func(round int) {
		if round == migrateAt {
			router.TripBreaker(0)
		}
	})

	if st := router.Stats(); st.Migrations != 1 {
		t.Fatalf("Migrations = %d, want exactly 1", st.Migrations)
	}
	if router.Lookup(0) != 1 {
		t.Fatalf("client on server %d after migration, want 1", router.Lookup(0))
	}
	// The resync is real: the fresh session restarts version numbering,
	// so views diverge in version while (the assertion below) agreeing
	// bitwise in content.
	if movedVer[migrateAt] >= baseVer[migrateAt] {
		t.Errorf("post-migration view version %d did not restart (baseline %d)",
			movedVer[migrateAt], baseVer[migrateAt])
	}
	for round := range base {
		if !reflect.DeepEqual(base[round], moved[round]) {
			t.Errorf("round %d: recovered allocation diverged from uninterrupted baseline "+
				"(%d vs %d cells over %d vs %d sites)",
				round, countCells(moved[round]), countCells(base[round]),
				len(moved[round].Layers), len(base[round].Layers))
		}
	}
	if countCells(base[rounds-1]) == 0 {
		t.Fatal("degenerate run: baseline never allocated any cells")
	}
}

func countCells(a core.Allocation) int {
	n := 0
	for _, l := range a.Layers {
		n += len(l.Entries)
	}
	return n
}
