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

// serverStack builds the space, server and stream partition (one stream
// per client) that the inference tests run clients on.
func serverStack(t testing.TB, clients int) (*semantics.Space, *Server, *stream.Partition) {
	t.Helper()
	space := semantics.NewSpace(dataset.UCF101().Subset(30), model.ResNet50())
	srv := NewServer(space, ServerConfig{Theta: 0.012, Seed: 7})
	part, err := stream.NewPartition(stream.Config{
		Dataset: space.DS, NumClients: clients, SceneMeanFrames: 20,
		WorkingSetSize: 10, WorkingSetChurn: 0.05, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return space, srv, part
}

// inferTestStack builds an isolated server+client+generator trio.
func inferTestStack(t testing.TB, ccfg ClientConfig) (*Client, *stream.Generator) {
	t.Helper()
	space, srv, part := serverStack(t, 1)
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

// TestClosedClientStagingGoesToThePool: Close hands the client's view and
// probe staging to the pool and leaves the client with an empty Cache() and
// View(). What it held is the next client's to rewrite, so only a Clone taken
// before Close outlives it: the clone must score bitwise what the live cache
// scored, after a second client has taken the pooled storage, applied a
// smaller allocation into it and inferred.
func TestClosedClientStagingGoesToThePool(t *testing.T) {
	space, srv, part := serverStack(t, 2)
	open := func(id, budget int) *Client {
		c, err := NewClient(context.Background(), space, srv, ClientConfig{ID: id, Theta: 0.012, Budget: budget, RoundFrames: 120})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.BeginRound(); err != nil {
			t.Fatal(err)
		}
		gen := part.Client(id)
		for f := 0; f < 50; f++ {
			c.Infer(gen.Next())
		}
		return c
	}
	// Each layer of ls probed with the vectors of a few frames, on a fresh
	// lookup per frame.
	smps := part.Client(0).Take(4)
	scores := func(ls []cache.Layer) []cache.Result {
		var out []cache.Result
		sc := space.NewScratch()
		for _, smp := range smps {
			lk := cache.NewLookup(cache.Config{Alpha: cache.DefaultAlpha, Theta: 0.012})
			for i := range ls {
				vec := make([]float32, model.Dim)
				space.SampleVectorInto(vec, smp, ls[i].Site, nil, sc)
				out = append(out, lk.Probe(&ls[i], vec))
			}
		}
		return out
	}
	// The pool may drop what it is handed (it does so at random under the race
	// detector), so try until the second client takes the first one's storage.
	for try := 0; try < 200; try++ {
		first := open(0, 150)
		live := first.Cache().Layers()
		if len(live) == 0 {
			t.Fatal("the first allocation activated no layer")
		}
		want := scores(live)
		kept, err := cache.NewLocal(first.View().Allocation().Clone().Layers)
		if err != nil {
			t.Fatal(err)
		}
		st := first.store
		if err := first.Close(); err != nil {
			t.Fatal(err)
		}
		if n := first.Cache().NumEntries(); n != 0 {
			t.Fatalf("closed client's Cache() holds %d entries", n)
		}
		if v := first.View(); v.Version() != 0 || v.NumCells() != 0 || len(v.Layers()) != 0 || len(first.scratch.active) != 0 {
			t.Fatalf("closed client's View() has version %d and %d cells, %d active layers", v.Version(), v.NumCells(), len(first.scratch.active))
		}

		second := open(1, 60)
		if second.store != st {
			_ = second.Close()
			continue
		}
		if n, m := second.View().NumCells(), ownedBuffers(&st.view); n >= m {
			t.Fatalf("second client holds %d cells in a view of %d buffers, want a smaller allocation", n, m)
		}
		if got := scores(kept.Layers()); !slices.Equal(got, want) {
			t.Fatalf("the clone changed once the closed client's storage was reused:\n got %v\nwant %v", got, want)
		}
		_ = second.Close()
		return
	}
	t.Skip("the pool never handed the storage back")
}

// TestProbeStagingPoolAcrossGoroutines runs short-lived clients on several
// goroutines at once, each closing and so handing its view and probe staging
// to the next through the shared pool. No two open clients may hold the same
// storage, every client must infer exactly what the same client inferred
// alone, and a closed one must hold an empty view (run it with -race).
func TestProbeStagingPoolAcrossGoroutines(t *testing.T) {
	space, srv, part := serverStack(t, 4)
	var mu sync.Mutex
	holder := map[*clientStore]int{}
	// life runs one client (budget by id, so allocations differ in size)
	// for a round of 40 frames and closes it.
	life := func(id int) ([]engine.Result, error) {
		c, err := NewClient(context.Background(), space, srv, ClientConfig{ID: id, Theta: 0.012, Budget: 60 + 30*id, RoundFrames: 40, DisableCollection: true})
		if err != nil {
			return nil, err
		}
		if v := c.View(); v.Version() != 0 || v.NumCells() != 0 {
			t.Errorf("client %d opened on a view of version %d with %d cells", id, v.Version(), v.NumCells())
		}
		st := c.store
		mu.Lock()
		if other, dup := holder[st]; dup {
			t.Errorf("clients %d and %d hold the same storage", id, other)
		}
		holder[st] = id
		mu.Unlock()
		if err := c.BeginRound(); err != nil {
			return nil, err
		}
		gen := part.Client(id)
		out := make([]engine.Result, 40)
		for f := range out {
			out[f] = c.Infer(gen.Next())
		}
		mu.Lock()
		delete(holder, st)
		mu.Unlock()
		if err := c.Close(); err != nil {
			return nil, err
		}
		if v := c.View(); v.Version() != 0 || v.NumCells() != 0 || c.Cache().NumEntries() != 0 {
			t.Errorf("client %d closed with view version %d, %d cells, %d cached entries", id, v.Version(), v.NumCells(), c.Cache().NumEntries())
		}
		return out, nil
	}
	want := make([][]engine.Result, 4)
	for id := range want {
		var err error
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

// TestDoubleClosePoolsStorageOnce: a client closed twice hands its storage
// to the pool once. Two clients opened after it hold no cell buffer, view or
// staging in common, and each infers bitwise what a client on storage of its
// own infers.
func TestDoubleClosePoolsStorageOnce(t *testing.T) {
	space, srv, part := serverStack(t, 2)
	// open opens client id and runs its first BeginRound; with own set, on
	// storage of its own instead of the pool's.
	open := func(id int, own bool) *Client {
		c, err := NewClient(context.Background(), space, srv, ClientConfig{ID: id, Theta: 0.012, Budget: 90 + 30*id, RoundFrames: 40, DisableCollection: true})
		if err != nil {
			t.Fatal(err)
		}
		if own {
			c.store, c.view, c.scratch.blocks = nil, NewAllocView(), new(cache.Blocks)
		}
		if err := c.BeginRound(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// What client id infers over 40 frames on storage nothing else had.
	want := make([][]engine.Result, 2)
	for id := range want {
		c := open(id, true)
		gen := part.Client(id)
		for range 40 {
			want[id] = append(want[id], c.Infer(gen.Next()))
		}
		_ = c.Close()
	}

	first := open(0, false)
	first.Infer(part.Client(0).Next())
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	a, b := open(0, false), open(1, false)
	defer a.Close()
	defer b.Close()
	if a.store == b.store || a.scratch.blocks == b.scratch.blocks {
		t.Fatal("two open clients hold the same pooled storage")
	}
	bufs := map[*float32]bool{}
	for _, c := range []*Client{a, b} {
		for _, l := range c.View().Layers() {
			for _, e := range l.Entries {
				if bufs[&e[0]] {
					t.Fatalf("a cell buffer at site %d is in both open clients' views", l.Site)
				}
				bufs[&e[0]] = true
			}
		}
	}
	gens := []*stream.Generator{part.Client(0), part.Client(1)}
	got := make([][]engine.Result, 2)
	for range 40 { // interleaved, so shared storage would show
		for id, c := range []*Client{a, b} {
			got[id] = append(got[id], c.Infer(gens[id].Next()))
		}
	}
	for id := range got {
		if !slices.Equal(got[id], want[id]) {
			t.Errorf("client %d inferred differently after a double Close", id)
		}
	}
}
