// The CoCa edge server: global cache table maintenance, layer-benefit
// profiling, and per-client cache allocation (paper §IV-B, §IV-D), served
// through the session-based Coordinator v2 API.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"coca/internal/cache"
	"coca/internal/dataset"
	"coca/internal/gtable"
	"coca/internal/model"
	"coca/internal/overload"
	"coca/internal/semantics"
	"coca/internal/telemetry"
	"coca/internal/vecmath"
	"coca/internal/xrand"
)

// ServerConfig parametrizes a CoCa server.
type ServerConfig struct {
	// Gamma is the Eq. 4 global-merge decay (paper default 0.99).
	Gamma float64
	// Alpha and Theta configure the lookup model used when profiling
	// layer hit ratios; they should match the clients' settings.
	Alpha, Theta float64
	// InitSamplesPerClass is the size of the shared dataset slice used
	// to build the initial global cache (semantic centers per class and
	// layer).
	InitSamplesPerClass int
	// ProfileSamples is the number of shared-dataset samples used to
	// estimate the per-layer cumulative hit-ratio profile R.
	ProfileSamples int
	// SupportCap bounds the per-cell evidence count used as the Eq. 4
	// merge weight, giving the global cache sliding-window semantics: a
	// bounded cap keeps the adaptation rate constant so entries track
	// gradual semantic drift instead of freezing as evidence accumulates.
	SupportCap float64
	// PeerInertia is the local-weight floor of federation peer merges: a
	// peer cell's fresh evidence is weighed against the local evidence
	// accumulated since the last sync plus this floor, so an idle cell
	// still keeps some inertia instead of being overwritten outright
	// (default 16).
	PeerInertia float64
	// Seed roots the shared dataset draws.
	Seed uint64
	// DisableGlobalUpdates freezes the global table after initialization
	// (the "without GCU" ablation arm, §VI-H).
	DisableGlobalUpdates bool
}

// withDefaults fills unset fields with the paper's defaults.
func (c ServerConfig) withDefaults() ServerConfig {
	if c.Gamma == 0 {
		c.Gamma = gtable.DefaultGamma
	}
	if c.Alpha == 0 {
		c.Alpha = cache.DefaultAlpha
	}
	if c.InitSamplesPerClass == 0 {
		c.InitSamplesPerClass = 64
	}
	if c.ProfileSamples == 0 {
		c.ProfileSamples = 600
	}
	if c.SupportCap == 0 {
		c.SupportCap = 160
	}
	if c.PeerInertia == 0 {
		c.PeerInertia = 16
	}
	return c
}

// StatusReport is the client→server upload at the start of a round
// (§IV-A step 1): staleness counters, the client's current hit-ratio
// estimate, its cache budget, and the allocation version it holds.
type StatusReport struct {
	// Tau is the per-class staleness vector τ_k.
	Tau []int
	// HitRatio is the client's cumulative per-layer hit-ratio estimate
	// R_k (empty to use the server profile).
	HitRatio []float64
	// Budget is Π_k in entry units.
	Budget int
	// RoundFrames is the client's F.
	RoundFrames int
	// LastVersion is the allocation version the client currently holds
	// (0 = none); the server deltas against it, or sends a full
	// allocation when it cannot.
	LastVersion uint64
}

// Allocation is a fully materialized per-client cache: the activated
// layers with entries extracted from the global table. Sessions exchange
// Deltas instead; Allocation remains the materialized form (frozen-
// allocation refreshes, diagnostics).
type Allocation struct {
	Layers []cache.Layer
	// Classes is the hot-spot set backing the layers (diagnostic).
	Classes []int
}

// UpdateCell is one uploaded update-table entry. Count is the number of
// samples absorbed into Vec this round; it weights the Eq. 4 merge so that
// an entry supported by many samples moves the global cache more than a
// single frame can.
type UpdateCell struct {
	Class, Layer int
	Count        int
	Vec          []float32
}

// UpdateReport is the client→server upload at the end of a round
// (§IV-C/D): the Eq. 3 update table and the local class frequencies φ_k.
type UpdateReport struct {
	Cells []UpdateCell
	Freq  []float64
}

// RegisterInfo is handed to clients when a session opens.
type RegisterInfo struct {
	NumClasses int
	NumLayers  int
	// ProfileHitRatio is the server's cumulative per-layer hit-ratio
	// profile R (length NumLayers).
	ProfileHitRatio []float64
	// SavedMs is Υ: compute saved by a hit at each layer. No client reads
	// it, and a wire session does not keep it; it stays on the wire until
	// the next protocol version drops it.
	SavedMs []float64
}

// Server is the CoCa edge server. It implements Coordinator; sessions
// from different clients are served concurrently — the global table is
// sharded by class row (see gtable.Sharded), so allocations and merges
// that touch different classes proceed in parallel, and the frequency
// vector sits behind its own short read/write lock.
type Server struct {
	cfg   ServerConfig
	space *semantics.Space

	table *gtable.Sharded

	freqMu sync.RWMutex
	freq   *gtable.Frequencies

	// profile and savedMs are computed at construction and immutable.
	profile []float64
	savedMs []float64

	sessMu   sync.Mutex
	sessions map[uint64]*ServerSession
	nextSess uint64
	// scratch recycles *sessScratch from Close to Open. By pointer: the runtime
	// keeps a used Pool reachable for two collections, not this server with it.
	scratch *sync.Pool

	// allocs counts allocation requests; merges counts applied update
	// cells; peerMerges counts cells merged from federated peer servers
	// (diagnostics / load analysis).
	allocs     atomic.Int64
	merges     atomic.Int64
	peerMerges atomic.Int64

	// load tracks in-flight coordination depth and queue-wait EWMA; the
	// routing tier's shed decision reads it through LoadSnapshot.
	load *overload.LoadTracker
}

// ServerInit is the shared-dataset construction behind a server: the
// initial global cache table (per-class semantic centers at every layer)
// and the cumulative layer-benefit profile R estimated over it. Both are
// deterministic functions of (space, config), and building them dominates
// server construction, so deployments that stand up several identically
// configured servers — a federation cluster's nodes (which share the
// paper's global shared dataset by design), or experiment arms run at the
// same seed — build one ServerInit and hand it to every NewServerFrom
// call instead of repeating the work. The init is immutable once built and
// safe to share: every server starts its own table from a copy of it.
type ServerInit struct {
	table   *gtable.Sharded
	profile []float64
	// seed and samples pin the build inputs, and the dataset/architecture
	// identity pins the semantic space, so NewServerFrom can reject a
	// mismatch instead of silently seeding a server from the wrong shared
	// dataset (spaces are deterministic in their specs, so spec identity —
	// not pointer identity — is the right equality; experiment arms
	// rebuild equal spaces per arm).
	seed           uint64
	samplesPer     int
	profileSamples int
	alpha, theta   float64
	dsName         string
	dsSeed         uint64
	archName       string
}

// BuildServerInit materializes the shared-dataset construction for the
// given configuration.
func BuildServerInit(space *semantics.Space, cfg ServerConfig) *ServerInit {
	cfg = cfg.withDefaults()
	table := InitialTable(space, cfg.InitSamplesPerClass, cfg.Seed)
	profile := CumulativeHitProfile(space, table,
		cache.Config{Alpha: cfg.Alpha, Theta: cfg.Theta},
		cfg.ProfileSamples, cfg.Seed)
	return &ServerInit{
		table: table, profile: profile,
		seed: cfg.Seed, samplesPer: cfg.InitSamplesPerClass,
		profileSamples: cfg.ProfileSamples,
		alpha:          cfg.Alpha, theta: cfg.Theta,
		dsName: space.DS.Name, dsSeed: space.DS.Seed,
		archName: space.Arch.Name,
	}
}

// matches reports whether the init was built for the given resolved
// configuration.
func (init *ServerInit) matches(cfg ServerConfig) bool {
	return init.seed == cfg.Seed &&
		init.samplesPer == cfg.InitSamplesPerClass &&
		init.profileSamples == cfg.ProfileSamples &&
		init.alpha == cfg.Alpha && init.theta == cfg.Theta
}

// NewServer builds a server: it materializes the initial global cache from
// a simulated shared dataset (per-class semantic centers at every layer)
// and profiles the per-layer cumulative hit ratio R on held-out shared
// samples.
func NewServer(space *semantics.Space, cfg ServerConfig) *Server {
	return NewServerFrom(space, cfg, BuildServerInit(space, cfg))
}

// NewServerFrom builds a server from a previously built (and possibly
// shared) ServerInit. It panics when the init was built for a different
// configuration or model shape: sharing construction must never change
// what the server computes. Results are bitwise identical to NewServer
// with the same configuration.
func NewServerFrom(space *semantics.Space, cfg ServerConfig, init *ServerInit) *Server {
	cfg = cfg.withDefaults()
	if !init.matches(cfg) {
		panic(fmt.Sprintf("core: ServerInit built for seed=%d/init=%d/profile=%d α=%v Θ=%v, server wants seed=%d/init=%d/profile=%d α=%v Θ=%v",
			init.seed, init.samplesPer, init.profileSamples, init.alpha, init.theta,
			cfg.Seed, cfg.InitSamplesPerClass, cfg.ProfileSamples, cfg.Alpha, cfg.Theta))
	}
	if init.table.Classes() != space.DS.NumClasses || init.table.Layers() != space.Arch.NumLayers {
		panic(fmt.Sprintf("core: ServerInit shape %d×%d, space is %d×%d",
			init.table.Classes(), init.table.Layers(), space.DS.NumClasses, space.Arch.NumLayers))
	}
	if init.dsName != space.DS.Name || init.dsSeed != space.DS.Seed || init.archName != space.Arch.Name {
		panic(fmt.Sprintf("core: ServerInit built over %s(seed %d)×%s, space is %s(seed %d)×%s",
			init.dsName, init.dsSeed, init.archName, space.DS.Name, space.DS.Seed, space.Arch.Name))
	}
	s := &Server{
		cfg: cfg, space: space,
		sessions: make(map[uint64]*ServerSession),
		scratch:  new(sync.Pool),
		load:     overload.NewLoadTracker(nil),
	}
	ds := space.DS
	s.table = gtable.ShardedFromTable(init.table, float64(cfg.InitSamplesPerClass))
	s.freq = gtable.NewFrequencies(ds.NumClasses)
	for c := 0; c < ds.NumClasses; c++ {
		s.freq.Add(c, float64(cfg.InitSamplesPerClass))
	}
	s.profileLayers(init)
	return s
}

// InitialTable builds the shared-dataset cache table: per-(class, layer)
// semantic centers averaged over perClass unbiased samples, each cell at
// version 1 with support perClass. It is what the paper's server computes
// from "the global shared dataset" and is also the starting point for the
// single-client baselines (SMTM, policy caches); each takes its own table
// with gtable.ShardedFromTable, sharing the immutable vectors, and nothing
// writes to the table itself.
//
// Classes are independent, so the build fans out across GOMAXPROCS
// workers, each generating vectors through its own allocation-free
// semantics.Scratch; per-class summation order is unchanged, so the
// resulting centers are bitwise identical to a sequential build.
func InitialTable(space *semantics.Space, perClass int, seed uint64) *gtable.Sharded {
	ds := space.DS
	arch := space.Arch
	table := gtable.NewSharded(ds.NumClasses, arch.NumLayers, model.Dim)
	workers := runtime.GOMAXPROCS(0)
	if workers > ds.NumClasses {
		workers = ds.NumClasses
	}
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := space.NewScratch()
			vec := make([]float32, model.Dim)
			center := make([]float32, model.Dim)
			sum := make([][]float64, arch.NumLayers)
			for j := range sum {
				sum[j] = make([]float64, model.Dim)
			}
			for {
				c := int(next.Add(1)) - 1
				if c >= ds.NumClasses {
					return
				}
				for j := range sum {
					clear(sum[j])
				}
				for k := 0; k < perClass; k++ {
					smp := ds.NewSample(c, seed, 0x1217, uint64(k))
					for j := 0; j < arch.NumLayers; j++ {
						space.SampleVectorInto(vec, smp, j, nil, sc)
						for d, x := range vec {
							sum[j][d] += float64(x)
						}
					}
				}
				// Each row is written by exactly one worker (classes are
				// partitioned by the atomic counter).
				for j := 0; j < arch.NumLayers; j++ {
					for d := range center {
						center[d] = float32(sum[j][d])
					}
					if err := table.Set(c, j, center, float64(perClass)); err != nil {
						errs[w] = fmt.Errorf("core: initial cache center degenerate for class %d layer %d: %w", c, j, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			panic(err.Error())
		}
	}
	return table
}

// CumulativeHitProfile estimates R over a table: the probability that a
// shared-dataset sample has hit at or before each layer when every layer
// and class is cached, at the given lookup configuration.
func CumulativeHitProfile(space *semantics.Space, table *gtable.Sharded, lookupCfg cache.Config, samples int, seed uint64) []float64 {
	arch := space.Arch
	ds := space.DS
	L := arch.NumLayers
	allClasses := make([]int, ds.NumClasses)
	for i := range allClasses {
		allClasses[i] = i
	}
	layers := make([]cache.Layer, L)
	for j := 0; j < L; j++ {
		cls, entries, _ := table.ExtractLayerEntriesInto(j, allClasses, nil, nil, nil)
		layers[j] = cache.Layer{Site: j, Classes: cls, Entries: entries}
	}
	// Stage once up front: the workers below share the layers read-only
	// and probe each of them `samples` times.
	local, err := cache.NewLocal(layers)
	if err != nil {
		panic(err.Error()) // one layer per site, classes and entries extracted together
	}
	local.StageBlocks(new(cache.Blocks))
	layers = local.Layers()
	// Sample classes are drawn sequentially (the draw order is part of the
	// deterministic contract); the per-sample probes are then independent,
	// so they fan out across workers, each with its own lookup state and
	// allocation-free scratch. Per-layer hit counts are integer sums, so
	// the profile is identical to a sequential run.
	smps := make([]dataset.Sample, samples)
	r := xrand.New(seed, 0x9F0F)
	for n := range smps {
		smps[n] = ds.NewSample(r.IntN(ds.NumClasses), seed, 0x9F0F, uint64(n))
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > samples {
		workers = samples
	}
	if workers < 1 {
		workers = 1
	}
	hitsBy := make([]int, L)
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := space.NewScratch()
			vec := make([]float32, model.Dim)
			lookup := cache.NewLookup(lookupCfg)
			local := make([]int, L)
			for {
				n := int(next.Add(1)) - 1
				if n >= samples {
					break
				}
				lookup.Reset()
				for j := 0; j < L; j++ {
					space.SampleVectorInto(vec, smps[n], j, nil, sc)
					if lookup.Probe(&layers[j], vec).Hit {
						local[j]++
						break
					}
				}
			}
			mu.Lock()
			for j, h := range local {
				hitsBy[j] += h
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	profile := make([]float64, L)
	cum := 0
	for j := 0; j < L; j++ {
		cum += hitsBy[j]
		profile[j] = float64(cum) / float64(samples)
	}
	return profile
}

// profileLayers adopts the init's R estimate (computed over the same
// initial table the server was just seeded from) and fills Υ with the
// compute each layer saves on a hit.
func (s *Server) profileLayers(init *ServerInit) {
	arch := s.space.Arch
	L := arch.NumLayers
	s.savedMs = make([]float64, L)
	for j := 0; j < L; j++ {
		s.savedMs[j] = arch.RemainingLatencyMs(j)
	}
	s.profile = append([]float64(nil), init.profile...)
}

// registerInfo builds the registration payload around the server's immutable slices.
func (s *Server) registerInfo() RegisterInfo {
	return RegisterInfo{
		NumClasses:      s.space.DS.NumClasses,
		NumLayers:       s.space.Arch.NumLayers,
		ProfileHitRatio: s.profile,
		SavedMs:         s.savedMs,
	}
}

// Open implements Coordinator: it registers the client and returns its
// session. Sessions opened by different clients operate concurrently.
func (s *Server) Open(ctx context.Context, clientID int) (Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sess := &ServerSession{
		srv:      s,
		clientID: clientID,
		info:     s.registerInfo(),
		classes:  s.space.DS.NumClasses,
	}
	if sess.sessScratch, _ = s.scratch.Get().(*sessScratch); sess.sessScratch == nil {
		n := sess.classes * s.space.Arch.NumLayers
		sess.sessScratch = &sessScratch{stamp: make([]uint64, n), ver: make([]uint64, n)}
	}
	s.sessMu.Lock()
	s.nextSess++
	sess.id = s.nextSess
	s.sessions[sess.id] = sess
	s.sessMu.Unlock()
	telemetry.CoreSessionOpens.Inc()
	telemetry.CoreSessionsOpen.Inc()
	if tr := telemetry.Trace(); tr != nil {
		tr.Emit("session_open",
			telemetry.Int64("session", int64(sess.id)),
			telemetry.Int("client", clientID))
	}
	return sess, nil
}

// targetCell is one cell of a freshly computed allocation: the borrowed,
// immutable global-table vector and the table version backing it.
type targetCell struct {
	ref CellRef
	vec []float32
	ver uint64
}

// allocScratch is the session-owned working memory of the allocation hot
// path: the ACA scratch, the frequency snapshot, per-layer extraction
// buffers and the computed target-cell list. At steady state a session's
// Allocate performs no heap allocation at all.
type allocScratch struct {
	aca   ACAScratch
	freq  []float64
	cls   []int
	vecs  [][]float32
	vers  []uint64
	cells []targetCell
	sites []int
}

// stageCheck aborts multi-stage work whose context died between stages —
// the overload tier's "stop computing for nobody" rule. A deadline-caused
// abort is counted; plain cancellation is not an overload signal.
func stageCheck(ctx context.Context) error {
	err := ctx.Err()
	if err == nil {
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) {
		telemetry.OverloadDeadlineExpired.Inc()
	}
	return err
}

// computeAllocation runs ACA on the client's status and extracts the
// resulting sub-table cells from the global cache (§IV-B), into the
// caller's scratch. It takes no global lock: ACA reads a frequency
// snapshot, and extraction read-locks one table row at a time. The
// returned slices (and the cell entry vectors, which are borrowed
// immutable table entries) stay valid until the scratch's next use.
//
// The context is checked at stage boundaries (between the probe and full
// ACA passes, and before extraction) so a request whose propagated
// deadline expires mid-computation stops burning the shared table instead
// of finishing work nobody will read.
func (s *Server) computeAllocation(ctx context.Context, clientID int, status StatusReport, sc *allocScratch) (classes, sites []int, cells []targetCell, err error) {
	if len(status.Tau) != s.space.DS.NumClasses {
		return nil, nil, nil, fmt.Errorf("core: client %d status has %d classes, want %d",
			clientID, len(status.Tau), s.space.DS.NumClasses)
	}
	hitRatio := status.HitRatio
	if len(hitRatio) == 0 {
		hitRatio = s.profile
	} else if len(hitRatio) != s.space.Arch.NumLayers {
		return nil, nil, nil, fmt.Errorf("core: client %d hit-ratio length %d, want %d",
			clientID, len(hitRatio), s.space.Arch.NumLayers)
	}
	roundFrames := status.RoundFrames
	if roundFrames <= 0 {
		roundFrames = DefaultRoundFrames
	}
	s.freqMu.RLock()
	sc.freq = s.freq.SnapshotInto(sc.freq)
	s.freqMu.RUnlock()
	globalFreq := sc.freq
	// Hot-spot set size determines per-layer probe cost; ACA needs it
	// before stage 1 runs, so run stage 1 implicitly via a first pass
	// without the cost guard, then re-run with the guard in place.
	probe, err := RunACAScratch(ACAInput{
		GlobalFreq:  globalFreq,
		Tau:         status.Tau,
		HitRatio:    hitRatio,
		SavedMs:     s.savedMs,
		Budget:      status.Budget,
		RoundFrames: roundFrames,
		MaxLayers:   1,
	}, &sc.aca)
	if err != nil {
		return nil, nil, nil, err
	}
	probeClasses := len(probe.Classes)
	if err := stageCheck(ctx); err != nil {
		return nil, nil, nil, err
	}
	res, err := RunACAScratch(ACAInput{
		GlobalFreq:   globalFreq,
		Tau:          status.Tau,
		HitRatio:     hitRatio,
		SavedMs:      s.savedMs,
		Budget:       status.Budget,
		RoundFrames:  roundFrames,
		LookupCostMs: s.space.Arch.LookupCostMs(probeClasses),
	}, &sc.aca)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := stageCheck(ctx); err != nil {
		return nil, nil, nil, err
	}
	s.allocs.Add(1)
	telemetry.CoreAllocations.Inc()
	sc.cells = sc.cells[:0]
	sc.sites = sc.sites[:0]
	for _, site := range res.Layers {
		sc.cls, sc.vecs, sc.vers = s.table.ExtractLayerEntriesInto(
			site, res.Classes, sc.cls[:0], sc.vecs[:0], sc.vers[:0])
		if len(sc.cls) > 0 {
			sc.sites = append(sc.sites, site)
		}
		for i := range sc.cls {
			sc.cells = append(sc.cells, targetCell{
				ref: CellRef{Site: site, Class: sc.cls[i]},
				vec: sc.vecs[i],
				ver: sc.vers[i],
			})
		}
	}
	// ACA returns layers in selection (benefit) order; Delta.Sites is a
	// wire contract promising ascending order.
	sort.Ints(sc.sites)
	return res.Classes, sc.sites, sc.cells, nil
}

// upload merges the client's update table into the global cache (Eq. 4)
// and folds its frequencies into Φ (Eq. 5).
func (s *Server) upload(clientID int, upd UpdateReport) error {
	if len(upd.Freq) != s.space.DS.NumClasses {
		return fmt.Errorf("core: client %d frequency length %d, want %d",
			clientID, len(upd.Freq), s.space.DS.NumClasses)
	}
	for class, f := range upd.Freq {
		if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("core: client %d frequency for class %d is %v", clientID, class, f)
		}
	}
	if !s.cfg.DisableGlobalUpdates {
		// Every cell's shape and norm are checked before any merges, so a
		// refused report leaves the table and Φ as they were and can be
		// resent.
		for _, cell := range upd.Cells {
			if cell.Class < 0 || cell.Class >= s.table.Classes() || cell.Layer < 0 || cell.Layer >= s.table.Layers() {
				return fmt.Errorf("core: client %d update cell (%d,%d) out of range", clientID, cell.Class, cell.Layer)
			}
			if cell.Count < 1 {
				return fmt.Errorf("core: client %d update cell (%d,%d) has count %d", clientID, cell.Class, cell.Layer, cell.Count)
			}
			if len(cell.Vec) != s.table.Dim() {
				return fmt.Errorf("core: client %d update cell (%d,%d) has dim %d, want %d", clientID, cell.Class, cell.Layer, len(cell.Vec), s.table.Dim())
			}
		}
		if err := checkNorms(clientID, upd.Cells); err != nil {
			return err
		}
		for _, cell := range upd.Cells {
			if err := s.table.Merge(cell.Class, cell.Layer, cell.Vec, s.cfg.Gamma, float64(cell.Count), s.cfg.SupportCap); err != nil {
				return fmt.Errorf("core: client %d merge (%d,%d): %w", clientID, cell.Class, cell.Layer, err)
			}
			s.merges.Add(1)
			telemetry.CoreUploadMerges.Inc()
		}
	}
	s.freqMu.Lock()
	for class, f := range upd.Freq {
		s.freq.Add(class, f)
	}
	s.freqMu.Unlock()
	return nil
}

// checkNorms refuses the first of cells whose vector has no finite, positive
// norm. It sums four vectors per vecmath.SquaredNorms call: a report carries
// dozens of cells, and one in-order chain per cell would put a dim-long
// dependency chain per cell on the upload path.
func checkNorms(clientID int, cells []UpdateCell) error {
	var (
		vecs  [4][]float32
		norm2 [4]float64
	)
	for i := 0; i < len(cells); i += len(vecs) {
		group := cells[i:min(i+len(vecs), len(cells))]
		for j, c := range group {
			vecs[j] = c.Vec
		}
		vecmath.SquaredNorms(vecs[:len(group)], norm2[:len(group)])
		for j, c := range group {
			if err := gtable.CheckSquaredNorm("Upload", c.Class, c.Layer, norm2[j]); err != nil {
				return fmt.Errorf("core: client %d: %w", clientID, err)
			}
		}
	}
	return nil
}

// dropSession removes a closed session from the registry.
func (s *Server) dropSession(id uint64) {
	s.sessMu.Lock()
	delete(s.sessions, id)
	s.sessMu.Unlock()
	telemetry.CoreSessionCloses.Inc()
	telemetry.CoreSessionsOpen.Dec()
	if tr := telemetry.Trace(); tr != nil {
		tr.Emit("session_close", telemetry.Int64("session", int64(id)))
	}
}

// Table returns a snapshot of the global cache table (diagnostics and the
// Fig. 2 experiment): later merges into the server leave it as it was.
func (s *Server) Table() *gtable.Sharded {
	return s.table.Snapshot()
}

// GlobalFreq returns a snapshot of Φ.
func (s *Server) GlobalFreq() []float64 {
	s.freqMu.RLock()
	defer s.freqMu.RUnlock()
	return s.freq.SnapshotInto(nil)
}

// Profile returns the server's cumulative hit-ratio profile R.
func (s *Server) Profile() []float64 {
	return append([]float64(nil), s.profile...)
}

// Stats reports allocation and merge counters.
func (s *Server) Stats() (allocs, merges int) {
	return int(s.allocs.Load()), int(s.merges.Load())
}

// PeerMerges reports how many cells have been merged from federated peer
// servers.
func (s *Server) PeerMerges() int { return int(s.peerMerges.Load()) }

// LoadSnapshot implements overload.LoadReporter: the server's in-flight
// coordination depth and queue-wait EWMA, read by the routing tier's
// queue-depth shed decision.
func (s *Server) LoadSnapshot() overload.Snapshot { return s.load.LoadSnapshot() }

// Shape returns the model agreement pair (classes × cache layers) a peer
// or client must match.
func (s *Server) Shape() (classes, layers int) {
	return s.space.DS.NumClasses, s.space.Arch.NumLayers
}

// AppendCells appends every populated global-table cell to dst — the bulk
// sweep behind federation delta collection, fanned out across per-shard
// workers for large tables (see gtable.Sharded.AppendCells). Cell vectors
// are borrowed immutable entries.
func (s *Server) AppendCells(dst []gtable.Cell) []gtable.Cell {
	return s.table.AppendCells(dst)
}

// EvTotalsInto copies every global-table cell's evidence ledger into dst,
// dense at class*layers+layer (see gtable.Sharded.EvTotalsInto).
func (s *Server) EvTotalsInto(dst []float64) { s.table.EvTotalsInto(dst) }

// GlobalFreqInto copies Φ into dst (growing it only when short) — the
// allocation-free form of GlobalFreq.
func (s *Server) GlobalFreqInto(dst []float64) []float64 {
	s.freqMu.RLock()
	defer s.freqMu.RUnlock()
	return s.freq.SnapshotInto(dst)
}

// MergePeerCell folds one cell received from a federated peer server into
// the global table: a recency-weighted combination of the local entry
// (weighted by the evidence accumulated locally since the last sync with
// that peer — sinceEv names the cell's ledger reading at that sync — plus
// the PeerInertia floor) and the peer entry (weighted by the fresh
// evidence it ships), under the same support cap as client merges. When
// DisableGlobalUpdates is set (the frozen-table ablation) peer cells are
// ignored, mirroring how client updates are; the returned version is 0
// then, and otherwise the cell's resulting write version and evidence
// total.
func (s *Server) MergePeerCell(class, layer int, vec []float32, evidence, sinceEv float64) (uint64, float64, error) {
	if s.cfg.DisableGlobalUpdates {
		return 0, 0, nil
	}
	if class < 0 || class >= s.table.Classes() || layer < 0 || layer >= s.table.Layers() {
		return 0, 0, fmt.Errorf("core: peer cell (%d,%d) out of range", class, layer)
	}
	if evidence <= 0 || math.IsNaN(evidence) || math.IsInf(evidence, 0) {
		return 0, 0, fmt.Errorf("core: peer cell (%d,%d) has evidence %v", class, layer, evidence)
	}
	ver, evTotal, err := s.table.MergePeer(class, layer, vec, evidence, sinceEv, s.cfg.PeerInertia, s.cfg.SupportCap)
	if err != nil {
		return 0, 0, fmt.Errorf("core: peer merge (%d,%d): %w", class, layer, err)
	}
	s.peerMerges.Add(1)
	telemetry.CorePeerMerges.Inc()
	return ver, evTotal, nil
}

// AdoptPeerCell replaces one cell with a dominating peer copy — the pull
// anti-entropy repair path (see gtable.Sharded.AdoptPeer for the
// dominance contract callers must establish). Like peer merges, adoption
// is ignored under DisableGlobalUpdates and reported through the peer
// merge counters; the returned version is 0 when nothing changed (frozen
// table, or a stale copy whose ledger does not exceed the local one).
func (s *Server) AdoptPeerCell(class, layer int, vec []float32, support, evTotal float64) (uint64, error) {
	if s.cfg.DisableGlobalUpdates {
		return 0, nil
	}
	if class < 0 || class >= s.table.Classes() || layer < 0 || layer >= s.table.Layers() {
		return 0, fmt.Errorf("core: peer cell (%d,%d) out of range", class, layer)
	}
	ver, err := s.table.AdoptPeer(class, layer, vec, support, evTotal, s.cfg.SupportCap)
	if err != nil {
		return 0, fmt.Errorf("core: peer adopt (%d,%d): %w", class, layer, err)
	}
	if ver != 0 {
		s.peerMerges.Add(1)
		telemetry.CorePeerMerges.Inc()
	}
	return ver, nil
}

// AddPeerFreq folds a peer server's class-frequency increments into Φ —
// Eq. 5 extended across the federation, which is what lets this server's
// ACA rank classes its own clients never stream. Like client updates,
// peer increments are ignored under DisableGlobalUpdates.
func (s *Server) AddPeerFreq(delta []float64) error {
	// Shape is validated even under the frozen-table ablation: callers
	// credit their per-peer views by the same vector, so a malformed
	// length must fail the exchange, not silently pass.
	if len(delta) != s.space.DS.NumClasses {
		return fmt.Errorf("core: peer frequency length %d, want %d", len(delta), s.space.DS.NumClasses)
	}
	if s.cfg.DisableGlobalUpdates {
		return nil
	}
	for class, f := range delta {
		if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("core: peer frequency for class %d is %v", class, f)
		}
	}
	s.freqMu.Lock()
	for class, f := range delta {
		s.freq.Add(class, f)
	}
	s.freqMu.Unlock()
	return nil
}

// Sessions returns the number of open sessions.
func (s *Server) Sessions() int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return len(s.sessions)
}

var _ Coordinator = (*Server)(nil)

// ServerSession is the in-process Session implementation: it remembers
// which cell versions its client holds so Allocate can answer with a
// delta instead of the full table extract.
//
// The view is a dense, version-stamped per-(site, class) slice — the same
// epoch-stamp technique that replaced cache.Lookup's map on the client hot
// path: a cell belongs to the current view exactly when its stamp equals
// the session's epoch, so rebuilding the view each round is a stamp write
// per cell instead of a map rebuild, and steady-state Allocate performs no
// heap allocation.
type ServerSession struct {
	srv      *Server
	id       uint64
	clientID int
	info     RegisterInfo
	classes  int // dense-view row stride (cells index site*classes+class)

	mu      sync.Mutex
	version uint64
	closed  bool

	*sessScratch // nil once closed
}

// sessScratch is the working memory a session borrows from its server's pool
// from Open until Close; a server's sessions all have one shape, so it fits.
type sessScratch struct {
	// epoch stamps the current view; stamp[i] == epoch marks cell i as
	// held by the client, with ver[i] the table version it last received.
	// The epoch is carried across sessions and Close skips one, so no stamp
	// a previous holder left equals an epoch the next one compares against.
	epoch uint64
	stamp []uint64
	ver   []uint64
	// refs lists the current view's cell indices (the previous round's
	// list is kept to detect evictions); both are reused across rounds.
	refs, prevRefs []int32

	sc allocScratch
	// out double-buffers the delta's Cells/Evict slices. The contract is
	// that a returned Delta (ALL of its slices — Classes and Sites live in
	// the single-buffered compute scratch) is valid only until the next
	// Allocate or Close on this session; the second Cells/Evict buffer is
	// merely hardening so a caller that holds cell contents one call too
	// long reads stale-but-coherent data instead of torn writes. It is not
	// an extension of the contract.
	out     [2]deltaBuf
	outFlip int
}

// deltaBuf backs one outstanding Delta's slices.
type deltaBuf struct {
	cells []DeltaCell
	evict []CellRef
}

// ID returns the server-assigned session identifier.
func (ss *ServerSession) ID() uint64 { return ss.id }

// ClientID returns the registered client id.
func (ss *ServerSession) ClientID() int { return ss.clientID }

// Info implements Session.
func (ss *ServerSession) Info() RegisterInfo { return ss.info }

// Allocate implements Session: it computes the client's allocation and
// returns the delta against the version the client reports holding. The
// delta is full when the client holds nothing (LastVersion 0) or a
// version the session does not recognize (reconnect / divergence).
//
// The returned Delta borrows session-owned memory — its slices (and the
// cell vectors, which are borrowed immutable global-table entries) are
// valid until the next Allocate or Close on this session. Sequential per-client use
// (the Session contract) makes this safe: the caller applies or encodes
// the delta before requesting the next one. The session lock is held for
// the whole call; sessions of different clients still allocate in parallel
// against the sharded table.
func (ss *ServerSession) Allocate(ctx context.Context, status StatusReport) (Delta, error) {
	if err := stageCheck(ctx); err != nil {
		return Delta{}, err
	}
	arrived := ss.srv.load.Arrive()
	defer ss.srv.load.Done()
	ss.mu.Lock()
	defer ss.mu.Unlock()
	// Queue wait is the span from arrival to the moment processing can
	// begin — for an in-process session, the session-lock wait.
	ss.srv.load.Start(arrived)
	if ss.closed {
		return Delta{}, fmt.Errorf("core: session %d closed", ss.id)
	}
	classes, sites, cells, err := ss.srv.computeAllocation(ctx, ss.clientID, status, &ss.sc)
	if err != nil {
		return Delta{}, err
	}

	full := ss.version == 0 || status.LastVersion != ss.version
	ss.epoch++
	epoch := ss.epoch
	buf := &ss.out[ss.outFlip]
	ss.outFlip = 1 - ss.outFlip
	buf.cells = buf.cells[:0]
	buf.evict = buf.evict[:0]
	ss.refs, ss.prevRefs = ss.prevRefs[:0], ss.refs
	d := Delta{Full: full, Classes: classes, Sites: sites}
	for i := range cells {
		c := &cells[i]
		idx := c.ref.Site*ss.classes + c.ref.Class
		unchanged := !full && ss.stamp[idx] == epoch-1 && ss.ver[idx] == c.ver
		ss.stamp[idx] = epoch
		ss.ver[idx] = c.ver
		ss.refs = append(ss.refs, int32(idx))
		if !unchanged {
			buf.cells = append(buf.cells, DeltaCell{
				Site: c.ref.Site, Class: c.ref.Class, Vec: c.vec,
			})
		}
	}
	d.Cells = buf.cells
	if !full {
		d.BaseVersion = ss.version
		// A previous-view cell whose stamp was not advanced to the new
		// epoch is no longer allocated: evict it. Order follows the
		// previous allocation's cell order (deterministic, unlike the
		// map iteration this replaced).
		for _, idx := range ss.prevRefs {
			if ss.stamp[idx] != epoch {
				buf.evict = append(buf.evict, CellRef{Site: int(idx) / ss.classes, Class: int(idx) % ss.classes})
			}
		}
		d.Evict = buf.evict
	}
	ss.version++
	d.Version = ss.version
	telemetry.CoreDeltaCells.Add(uint64(len(d.Cells)))
	telemetry.CoreDeltaEvictions.Add(uint64(len(d.Evict)))
	return d, nil
}

// Upload implements Session.
func (ss *ServerSession) Upload(ctx context.Context, upd UpdateReport) error {
	if err := stageCheck(ctx); err != nil {
		return err
	}
	arrived := ss.srv.load.Arrive()
	defer ss.srv.load.Done()
	ss.mu.Lock()
	ss.srv.load.Start(arrived)
	if ss.closed {
		ss.mu.Unlock()
		return fmt.Errorf("core: session %d closed", ss.id)
	}
	ss.mu.Unlock()
	return ss.srv.upload(ss.clientID, upd)
}

// Close implements Session.
func (ss *ServerSession) Close() error {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return nil
	}
	ss.closed = true
	// No Allocate runs (it holds ss.mu) or will: the scratch goes to the next
	// session, without the table entries its last delta named.
	ss.epoch++
	clear(ss.sc.vecs[:cap(ss.sc.vecs)])
	clear(ss.sc.cells[:cap(ss.sc.cells)])
	clear(ss.out[0].cells[:cap(ss.out[0].cells)])
	clear(ss.out[1].cells[:cap(ss.out[1].cells)])
	ss.srv.scratch.Put(ss.sessScratch)
	ss.sessScratch = nil
	ss.mu.Unlock()
	ss.srv.dropSession(ss.id)
	return nil
}

var _ Session = (*ServerSession)(nil)
