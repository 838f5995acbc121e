package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"coca/internal/cache"
	"coca/internal/dataset"
	"coca/internal/engine"
	"coca/internal/model"
	"coca/internal/semantics"
	"coca/internal/stream"
)

func smallClient(t testing.TB, cfg ClientConfig) (*Client, *Server) {
	t.Helper()
	space := smallSpace()
	srv := NewServer(space, ServerConfig{Theta: 0.035, Seed: 3, ProfileSamples: 200, InitSamplesPerClass: 16})
	if cfg.Theta == 0 {
		cfg.Theta = 0.035
	}
	if cfg.Budget == 0 {
		cfg.Budget = 40
	}
	c, err := NewClient(context.Background(), space, srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, srv
}

func smallGen(t testing.TB) *stream.Generator {
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

func TestClientDefaults(t *testing.T) {
	c, _ := smallClient(t, ClientConfig{ID: 3})
	cfg := c.Config()
	if cfg.Alpha != 0.5 || cfg.Beta != 0.95 || cfg.RoundFrames != 300 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.GammaCollect != DefaultGammaCollect || cfg.DeltaCollect != DefaultDeltaCollect {
		t.Fatalf("collection defaults not applied: %+v", cfg)
	}
}

func TestClientRejectsBadConfig(t *testing.T) {
	space := smallSpace()
	srv := NewServer(space, ServerConfig{Theta: 0.035, Seed: 3, ProfileSamples: 100, InitSamplesPerClass: 16})
	if _, err := NewClient(context.Background(), space, srv, ClientConfig{Theta: -1}); err == nil {
		t.Error("negative theta accepted")
	}
	if _, err := NewClient(context.Background(), space, srv, ClientConfig{Budget: -5}); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestClientInferWithoutCacheFallsThrough(t *testing.T) {
	c, _ := smallClient(t, ClientConfig{})
	smp := dataset.ESC50().Subset(10).NewSample(2, 77)
	res := c.Infer(smp)
	if res.Hit {
		t.Fatal("empty cache cannot hit")
	}
	if res.Pred < 0 {
		t.Fatal("no prediction returned")
	}
	total := c.space.Arch.TotalLatencyMs()
	if res.LatencyMs != total {
		t.Fatalf("uncached latency = %v, want %v", res.LatencyMs, total)
	}
	if res.LookupMs != 0 {
		t.Fatalf("lookup cost without cache = %v", res.LookupMs)
	}
}

func TestClientRoundLifecycle(t *testing.T) {
	c, srv := smallClient(t, ClientConfig{RoundFrames: 50})
	gen := smallGen(t)
	for round := 0; round < 3; round++ {
		if err := c.BeginRound(); err != nil {
			t.Fatal(err)
		}
		if c.Cache().NumEntries() == 0 {
			t.Fatal("no cache after BeginRound")
		}
		for f := 0; f < 50; f++ {
			res := c.Infer(gen.Next())
			if res.LatencyMs <= 0 {
				t.Fatal("non-positive latency")
			}
			if res.Hit && res.LatencyMs >= c.space.Arch.TotalLatencyMs() {
				t.Fatal("hit did not reduce latency")
			}
		}
		if err := c.EndRound(); err != nil {
			t.Fatal(err)
		}
	}
	allocs, _ := srv.Stats()
	if allocs < 3 {
		t.Fatalf("server saw %d allocations, want >= 3", allocs)
	}
	// After EndRound the frequency snapshot must have been uploaded:
	// global frequencies exceed the init counts.
	var totalFreq float64
	for _, f := range srv.GlobalFreq() {
		totalFreq += f
	}
	if totalFreq <= 16*10 {
		t.Fatal("uploads did not grow global frequencies")
	}
}

func TestClientHitsReduceLatency(t *testing.T) {
	c, _ := smallClient(t, ClientConfig{RoundFrames: 100, Budget: 60})
	gen := smallGen(t)
	if err := c.BeginRound(); err != nil {
		t.Fatal(err)
	}
	var hits int
	var hitLat, missLat, nHit, nMiss float64
	for f := 0; f < 100; f++ {
		res := c.Infer(gen.Next())
		if res.Hit {
			hits++
			hitLat += res.LatencyMs
			nHit++
		} else {
			missLat += res.LatencyMs
			nMiss++
		}
	}
	if hits == 0 {
		t.Fatal("no hits on a temporally-local stream")
	}
	if nMiss > 0 && hitLat/nHit >= missLat/nMiss {
		t.Fatalf("hit latency %v not below miss latency %v", hitLat/nHit, missLat/nMiss)
	}
}

func TestClientTauTracksClasses(t *testing.T) {
	c, _ := smallClient(t, ClientConfig{RoundFrames: 10})
	ds := dataset.ESC50().Subset(10)
	if err := c.BeginRound(); err != nil {
		t.Fatal(err)
	}
	c.Infer(ds.NewSample(4, 1))
	if c.tau[4] != 0 {
		t.Fatalf("tau[4] = %d after observing class 4", c.tau[4])
	}
	c.Infer(ds.NewSample(7, 2))
	if c.tau[4] != 1 || c.tau[7] != 0 {
		t.Fatalf("tau = %v, want class 4 aged to 1", c.tau[:8])
	}
}

// wireLikeCoordinator hands its sessions' deltas on the way a wire decoder
// does: vectors in memory the next call reuses.
type wireLikeCoordinator struct{ inner Coordinator }

func (w wireLikeCoordinator) Open(ctx context.Context, clientID int) (Session, error) {
	sess, err := w.inner.Open(ctx, clientID)
	return &wireLikeSession{Session: sess}, err
}

type wireLikeSession struct {
	Session
	arena []float32
	cells []DeltaCell
}

func (s *wireLikeSession) Allocate(ctx context.Context, st StatusReport) (Delta, error) {
	d, err := s.Session.Allocate(ctx, st)
	s.arena, s.cells = s.arena[:0], s.cells[:0]
	for _, c := range d.Cells {
		s.arena = append(s.arena, c.Vec...)
	}
	for i, c := range d.Cells {
		s.cells = append(s.cells, DeltaCell{Site: c.Site, Class: c.Class, Vec: s.arena[i*model.Dim : (i+1)*model.Dim]})
	}
	d.Cells = s.cells
	return d, err
}

func TestClientFrozenAllocation(t *testing.T) {
	space := smallSpace()
	srv := NewServer(space, ServerConfig{Theta: 0.035, Seed: 3, ProfileSamples: 200, InitSamplesPerClass: 16})
	c, err := NewClient(context.Background(), space, wireLikeCoordinator{srv},
		ClientConfig{Theta: 0.035, RoundFrames: 30, DisableDynamicAllocation: true, Budget: 40})
	if err != nil {
		t.Fatal(err)
	}
	gen := smallGen(t)
	if err := c.BeginRound(); err != nil {
		t.Fatal(err)
	}
	sites1 := c.Cache().Sites()
	// What the client froze must stay bit for bit what it was, although the
	// view it came from overwrites its cells in place on every later apply.
	frozen := c.frozen.Clone()
	for round := 0; round < 3; round++ {
		for f := 0; f < 30; f++ {
			c.Infer(gen.Next())
		}
		if err := c.EndRound(); err != nil {
			t.Fatal(err)
		}
		if err := c.BeginRound(); err != nil {
			t.Fatal(err)
		}
	}
	if _, merges := srv.Stats(); merges == 0 {
		t.Fatal("no upload merged: the refreshes overwrote nothing")
	}
	sites2 := c.Cache().Sites()
	if !slices.Equal(sites1, sites2) {
		t.Fatalf("frozen allocation changed sites: %v vs %v", sites1, sites2)
	}
	if len(c.frozen.Layers) != len(frozen.Layers) {
		t.Fatalf("frozen allocation went from %d to %d layers", len(frozen.Layers), len(c.frozen.Layers))
	}
	for j, l := range c.frozen.Layers {
		w := frozen.Layers[j]
		if l.Site != w.Site || !slices.Equal(l.Classes, w.Classes) {
			t.Fatalf("frozen layer %d is now site %d %v, was site %d %v", j, l.Site, l.Classes, w.Site, w.Classes)
		}
		for i := range l.Entries {
			if !slices.Equal(l.Entries[i], w.Entries[i]) {
				t.Fatalf("frozen entry (%d,%d) changed under a later apply", l.Site, l.Classes[i])
			}
		}
	}
}

// failingCoordinator wraps a coordinator and injects failures into the
// sessions it opens.
type failingCoordinator struct {
	inner        Coordinator
	failAllocate bool
	failUpload   bool
}

func (f *failingCoordinator) Open(ctx context.Context, clientID int) (Session, error) {
	sess, err := f.inner.Open(ctx, clientID)
	if err != nil {
		return nil, err
	}
	return &failingSession{Session: sess, f: f}, nil
}

type failingSession struct {
	Session
	f *failingCoordinator
}

func (s *failingSession) Allocate(ctx context.Context, st StatusReport) (Delta, error) {
	if s.f.failAllocate {
		return Delta{}, errors.New("injected allocate failure")
	}
	return s.Session.Allocate(ctx, st)
}

func (s *failingSession) Upload(ctx context.Context, upd UpdateReport) error {
	if s.f.failUpload {
		return errors.New("injected upload failure")
	}
	return s.Session.Upload(ctx, upd)
}

func TestClientSurfacesCoordinatorErrors(t *testing.T) {
	space := smallSpace()
	srv := NewServer(space, ServerConfig{Theta: 0.035, Seed: 3, ProfileSamples: 100, InitSamplesPerClass: 16})
	fc := &failingCoordinator{inner: srv, failAllocate: true}
	c, err := NewClient(context.Background(), space, fc, ClientConfig{Theta: 0.035, Budget: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BeginRound(); err == nil {
		t.Fatal("allocate failure not surfaced")
	}
	fc.failAllocate = false
	fc.failUpload = true
	if err := c.BeginRound(); err != nil {
		t.Fatal(err)
	}
	if err := c.EndRound(); err == nil {
		t.Fatal("upload failure not surfaced")
	}
}

func TestClientCollectionStatsConsistent(t *testing.T) {
	c, _ := smallClient(t, ClientConfig{RoundFrames: 200, Budget: 60})
	gen := smallGen(t)
	if err := c.BeginRound(); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 200; f++ {
		c.Infer(gen.Next())
	}
	cs := c.Collection()
	if cs.Hits+cs.Misses != 200 {
		t.Fatalf("hits %d + misses %d != 200", cs.Hits, cs.Misses)
	}
	if cs.HitAbsorbed > cs.Hits || cs.MissAbsorbed > cs.Misses {
		t.Fatal("absorbed exceeds preconditions")
	}
	if cs.HitAbsorbedCorrect > cs.HitAbsorbed || cs.MissAbsorbedCorrect > cs.MissAbsorbed {
		t.Fatal("correct counts exceed absorbed counts")
	}
}

func TestClientDisableCollectionUploadsNothing(t *testing.T) {
	c, srv := smallClient(t, ClientConfig{RoundFrames: 100, Budget: 60, DisableCollection: true})
	gen := smallGen(t)
	if err := c.BeginRound(); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 100; f++ {
		c.Infer(gen.Next())
	}
	if err := c.EndRound(); err != nil {
		t.Fatal(err)
	}
	if _, merges := srv.Stats(); merges != 0 {
		t.Fatalf("merges = %d with collection disabled", merges)
	}
}

// inferTestStack builds an isolated server+client+generator trio.
func inferTestStack(t testing.TB, ccfg ClientConfig) (*Client, *stream.Generator) {
	t.Helper()
	space := semantics.NewSpace(dataset.UCF101().Subset(30), model.ResNet50())
	srv := NewServer(space, ServerConfig{Theta: 0.012, Seed: 7})
	if ccfg.Theta == 0 {
		ccfg.Theta = 0.012
	}
	if ccfg.Budget == 0 {
		ccfg.Budget = 150
	}
	if ccfg.RoundFrames == 0 {
		ccfg.RoundFrames = 120
	}
	client, err := NewClient(context.Background(), space, srv, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	part, err := stream.NewPartition(stream.Config{
		Dataset: space.DS, NumClients: 1, SceneMeanFrames: 20,
		WorkingSetSize: 10, WorkingSetChurn: 0.05, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return client, part.Client(0)
}

// TestInferZeroAllocsSteadyState is the allocation-regression guard the
// hot path is built around: once warm, Infer must not allocate at all.
func TestInferZeroAllocsSteadyState(t *testing.T) {
	for _, cfg := range []ClientConfig{
		{},
		{DisableCollection: true},
		{EnvBiasWeight: 0.05, DriftWeight: 0.05},
	} {
		client, gen := inferTestStack(t, cfg)
		// Enough frames for the scratch buffers, lookup accumulator and
		// update-table cells to reach steady state.
		if err := client.BeginRound(); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 1600; f++ {
			client.Infer(gen.Next())
		}

		smp := gen.Next()
		if n := testing.AllocsPerRun(200, func() {
			smp = gen.Next()
			client.Infer(smp)
		}); n != 0 {
			t.Errorf("cfg %+v: Infer allocates %v/op at steady state, want 0", cfg, n)
		}
	}
}

// BenchmarkInferencePath measures the host cost per frame of the cached
// inference hot path — Client.Infer over a warm allocation — at the
// paper's reference scale (50 classes, 300-entry budget) and a fleet scale
// (100 classes, 1000 entries). Stream generation runs outside the timed
// loop.
func BenchmarkInferencePath(b *testing.B) {
	for _, sc := range []struct {
		name            string
		classes, budget int
	}{{"ref", 50, 300}, {"fleet", 100, 1000}} {
		space := semantics.NewSpace(dataset.UCF101().Subset(sc.classes), model.ResNet101())
		b.Run("scale="+sc.name, func(b *testing.B) {
			srv := NewServer(space, ServerConfig{Theta: 0.012, Seed: 1})
			client, err := NewClient(context.Background(), space, srv, ClientConfig{
				Theta: 0.012, Budget: sc.budget, RoundFrames: 300,
			})
			if err != nil {
				b.Fatal(err)
			}
			part, err := stream.NewPartition(stream.Config{
				Dataset: space.DS, NumClients: 1, SceneMeanFrames: 25,
				WorkingSetSize: 15, WorkingSetChurn: 0.05, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := client.BeginRound(); err != nil {
				b.Fatal(err)
			}
			// A ring of pre-drawn frames keeps generation out of the timed
			// loop while still varying the frames each iteration sees; one
			// pass over it before the timer warms the client's scratch.
			frames := part.Client(0).Take(64)
			for _, smp := range frames {
				client.Infer(smp)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				client.Infer(frames[n%len(frames)])
			}
		})
	}
}

// TestClosedClientLetsGoOfProbeStaging: Close returns the client's probe
// staging to the pool, and its cache stops reading it. A second client
// that stages a different allocation into the same buffers and infers must
// not change what the closed client's Cache() scores.
func TestClosedClientLetsGoOfProbeStaging(t *testing.T) {
	first, gen := inferTestStack(t, ClientConfig{})
	if err := first.BeginRound(); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 50; f++ {
		first.Infer(gen.Next())
	}
	staging := first.scratch.blocks
	if staging == nil {
		t.Fatal("Infer staged no probe blocks")
	}
	layers := first.Cache().Layers()
	if len(layers) == 0 {
		t.Fatal("the first allocation activated no layer")
	}
	// Each layer probed with the vectors of a few frames, on a fresh lookup.
	smps := gen.Take(4)
	scores := func() []cache.Result {
		var out []cache.Result
		sc := first.space.NewScratch()
		for _, smp := range smps {
			lk := cache.NewLookup(cache.Config{Alpha: cache.DefaultAlpha, Theta: first.cfg.Theta})
			for i := range layers {
				vec := make([]float32, model.Dim)
				first.space.SampleVectorInto(vec, smp, layers[i].Site, nil, sc)
				out = append(out, lk.Probe(&layers[i], vec))
			}
		}
		return out
	}
	want := scores()
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second, gen2 := inferTestStack(t, ClientConfig{Budget: 60})
	second.scratch.blocks = staging // the pool's choice, made certain
	if err := second.BeginRound(); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 50; f++ {
		second.Infer(gen2.Next())
	}
	if second.scratch.blocks != staging {
		t.Fatal("the second client did not stage into the closed client's buffers")
	}
	if got := scores(); !slices.Equal(got, want) {
		t.Fatalf("the closed client's cache scores changed once its staging was reused:\n got %v\nwant %v", got, want)
	}
}

// TestProbeStagingPoolAcrossGoroutines runs short-lived clients on several
// goroutines at once, each closing and so handing its probe staging to the
// next through the shared pool, and requires every client to infer exactly
// what the same client inferred alone (run it with -race).
func TestProbeStagingPoolAcrossGoroutines(t *testing.T) {
	space := semantics.NewSpace(dataset.UCF101().Subset(30), model.ResNet50())
	srv := NewServer(space, ServerConfig{Theta: 0.012, Seed: 7})
	part, err := stream.NewPartition(stream.Config{
		Dataset: space.DS, NumClients: 4, SceneMeanFrames: 20,
		WorkingSetSize: 10, WorkingSetChurn: 0.05, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// life runs one client (budget by id, so allocations differ in size)
	// for a round of 40 frames and closes it.
	life := func(id int) ([]engine.Result, error) {
		c, err := NewClient(context.Background(), space, srv, ClientConfig{ID: id, Theta: 0.012, Budget: 60 + 30*id, RoundFrames: 40, DisableCollection: true})
		if err != nil {
			return nil, err
		}
		defer c.Close()
		if err := c.BeginRound(); err != nil {
			return nil, err
		}
		gen := part.Client(id)
		out := make([]engine.Result, 40)
		for f := range out {
			out[f] = c.Infer(gen.Next())
		}
		return out, nil
	}
	want := make([][]engine.Result, 4)
	for id := range want {
		if want[id], err = life(id); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for id := range want {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				got, err := life(id)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, want[id]) {
					t.Errorf("client %d inferred differently on a pooled staging", id)
					return
				}
			}
		}()
	}
	wg.Wait()
}
