// The CoCa edge client: cached inference, status tracking and update
// collection (paper §IV-A/C), coordinating through a Coordinator v2
// session.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"coca/internal/cache"
	"coca/internal/dataset"
	"coca/internal/engine"
	"coca/internal/gtable"
	"coca/internal/model"
	"coca/internal/semantics"
	"coca/internal/telemetry"
)

// Defaults from the paper.
const (
	// DefaultRoundFrames is F, the frames per round (§IV-C).
	DefaultRoundFrames = 300
	// DefaultGammaCollect is Γ, the hit-reinforcement collection
	// threshold. The paper recommends 0.1 for ResNets; our simulated
	// feature geometry compresses discriminative scores (mid-network
	// lone-class hits peak near 0.05), so the equivalent operating point
	// is 0.05 — the value that absorbs only confident hits and keeps the
	// noise-selection bias of reinforcement mild. See EXPERIMENTS.md
	// (Fig. 6).
	DefaultGammaCollect = 0.05
	// DefaultDeltaCollect is Δ, the miss-expansion collection threshold
	// (§VI-D recommends 0.25 for ResNets).
	DefaultDeltaCollect = 0.25
	// hitRatioEMA is the blending weight for client-observed hit ratios
	// against the previous estimate.
	hitRatioEMA = 0.30
)

// ClientConfig parametrizes a CoCa client.
type ClientConfig struct {
	// ID identifies the client to the coordinator.
	ID int
	// Theta is the Eq. 2 hit threshold Θ.
	Theta float64
	// Alpha is the Eq. 1 decay (default 0.5).
	Alpha float64
	// GammaCollect (Γ) and DeltaCollect (Δ) gate update collection.
	GammaCollect, DeltaCollect float64
	// Beta is the Eq. 3 update-table decay (default 0.95).
	Beta float64
	// RoundFrames is F.
	RoundFrames int
	// Budget is Π_k in entry units.
	Budget int
	// EnvBiasWeight adds a client-specific feature shift (0 disables).
	EnvBiasWeight float64
	// EnvSeed roots the bias direction (defaults to ID).
	EnvSeed uint64
	// DriftWeight scales the shared, gradual evolution of class
	// semantics over time (0 disables). DriftPerRound advances the
	// drift clock at every round boundary.
	DriftWeight, DriftPerRound float64
	// CoordPerRoundMs charges each round's coordination (cache request
	// waiting, transfer, upload) amortized over the round's frames —
	// the server-load effect §VI-I measures. 0 models free coordination.
	CoordPerRoundMs float64
	// DisableDynamicAllocation freezes the first allocation for the
	// whole run (the "without DCA" ablation arm, §VI-H): the client
	// keeps requesting rounds but reuses its initial cache shape, with
	// entries refreshed from the global table.
	DisableDynamicAllocation bool
	// DisableCollection stops the client from uploading update vectors
	// (isolates allocation effects).
	DisableCollection bool
	// PredictedLabelStatus switches the τ/φ status bookkeeping from
	// ground-truth labels to the inference results. The paper's
	// evaluation harness tracks "the current sample class" (§IV-C) with
	// its labeled test streams, which we follow by default; the
	// predicted-label mode shows the staleness feedback loop a fully
	// label-free deployment would face.
	PredictedLabelStatus bool
	// RequestTimeout bounds each coordination request (Allocate, Upload)
	// with a context deadline layered under the lifecycle context. Wire
	// transports propagate the deadline to the server in every frame, so
	// expired work is dropped at dequeue rather than computed for
	// nobody. 0 sets no per-request deadline.
	RequestTimeout time.Duration
	// MaxStaleRounds arms the serve-stale shield: when the coordinator
	// fails a round's allocation (peer sync, migration, or a suspect/dead
	// backend window), the client keeps serving from its last-applied
	// allocation view for up to this many consecutive rounds instead of
	// failing the round. View cells are immutable once published, so the
	// stale read is race-free; the staleness is bounded by this knob and
	// counted in telemetry. 0 disables the shield (allocation failures
	// fail the round, the pre-shield behavior).
	MaxStaleRounds int
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Alpha == 0 {
		c.Alpha = cache.DefaultAlpha
	}
	if c.GammaCollect == 0 {
		c.GammaCollect = DefaultGammaCollect
	}
	if c.DeltaCollect == 0 {
		c.DeltaCollect = DefaultDeltaCollect
	}
	if c.Beta == 0 {
		c.Beta = gtable.DefaultBeta
	}
	if c.RoundFrames == 0 {
		c.RoundFrames = DefaultRoundFrames
	}
	if c.EnvSeed == 0 {
		c.EnvSeed = uint64(c.ID) + 1
	}
	return c
}

// CollectionStats counts update-collection outcomes for the Fig. 6
// experiment.
type CollectionStats struct {
	// Hits and Misses count samples satisfying each precondition.
	Hits, Misses int
	// HitAbsorbed / MissAbsorbed count collected samples per type.
	HitAbsorbed, MissAbsorbed int
	// HitAbsorbedCorrect / MissAbsorbedCorrect count collected samples
	// whose predicted label matched ground truth.
	HitAbsorbedCorrect, MissAbsorbedCorrect int
}

// Client is a CoCa edge client. It implements engine.Engine and
// engine.RoundHooks. Not safe for concurrent use: each client is a single
// simulated device. Its coordination calls run under the lifecycle
// context passed to NewClient.
type Client struct {
	cfg   ClientConfig
	space *semantics.Space
	env   *semantics.Env
	ctx   context.Context
	sess  Session

	local   *cache.Local
	scratch inferScratch
	view    *AllocView
	store   *clientStore // backs view and scratch.blocks; nil once closed
	frozen  *Allocation  // first allocation, when DisableDynamicAllocation

	tau      []int
	freq     *gtable.Frequencies
	upd      *gtable.UpdateTable
	report   UpdateReport // EndRound's upload, rebuilt in place
	hitRatio []float64    // cumulative per-layer estimate R_k

	// per-round hit observation (cumulative by construction).
	roundHitsBy []int
	roundFrames int

	collect CollectionStats
	rounds  int

	// staleRounds counts consecutive rounds served from a stale view under
	// the shield; servedStale totals them over the client's lifetime.
	staleRounds int
	servedStale int
}

// NewClient opens a session with the coordinator and builds a client
// around it. ctx is the client's lifecycle context: it bounds the open
// call and every later per-round coordination call.
func NewClient(ctx context.Context, space *semantics.Space, coord Coordinator, cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.Theta < 0 {
		return nil, fmt.Errorf("core: client %d Theta %v < 0", cfg.ID, cfg.Theta)
	}
	if cfg.Budget < 0 {
		return nil, fmt.Errorf("core: client %d budget %v < 0", cfg.ID, cfg.Budget)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sess, err := coord.Open(ctx, cfg.ID)
	if err != nil {
		return nil, fmt.Errorf("core: client %d open session: %w", cfg.ID, err)
	}
	info := sess.Info()
	if info.NumClasses != space.DS.NumClasses || info.NumLayers != space.Arch.NumLayers {
		_ = sess.Close()
		return nil, fmt.Errorf("core: client %d model/dataset mismatch with server (%d×%d vs %d×%d)",
			cfg.ID, space.DS.NumClasses, space.Arch.NumLayers, info.NumClasses, info.NumLayers)
	}
	// Only a client that opened takes storage, so a redirect or a mismatch
	// has nothing to give back.
	st := storePool.Get().(*clientStore)
	c := &Client{
		cfg:         cfg,
		space:       space,
		ctx:         ctx,
		sess:        sess,
		local:       cache.Empty(),
		view:        &st.view,
		store:       st,
		tau:         make([]int, space.DS.NumClasses),
		freq:        gtable.NewFrequencies(space.DS.NumClasses),
		upd:         gtable.NewUpdateTable(cfg.Beta, model.Dim),
		hitRatio:    append([]float64(nil), info.ProfileHitRatio...),
		roundHitsBy: make([]int, space.Arch.NumLayers),
	}
	// NewLookup surfaces invalid lookup parameters here rather than at
	// first inference.
	c.scratch.lk = cache.NewLookup(cache.Config{Alpha: cfg.Alpha, Theta: cfg.Theta})
	c.scratch.blocks = &st.blocks
	if cfg.EnvBiasWeight != 0 || cfg.DriftWeight != 0 {
		c.env = semantics.NewEnv(cfg.EnvSeed, cfg.EnvBiasWeight)
		c.env.DriftWeight = cfg.DriftWeight
	}
	return c, nil
}

// Config returns the client's configuration.
func (c *Client) Config() ClientConfig { return c.cfg }

// Cache returns the currently loaded local cache (diagnostics). It reads
// the view's storage, so it is valid until the next BeginRound or Close;
// after Close it is empty.
func (c *Client) Cache() *cache.Local { return c.local }

// Collection returns the accumulated collection statistics.
func (c *Client) Collection() CollectionStats { return c.collect }

// Env returns the client's feature environment (nil when unbiased).
func (c *Client) Env() *semantics.Env { return c.env }

// View returns the client's materialized allocation view (diagnostics).
// After Close it is an empty view: version 0, no cells.
func (c *Client) View() *AllocView { return c.view }

// Close releases the client's coordination session and hands its storage
// to the next client that opens: the view is reset, the probe staging
// dropped, and both go back to storePool together. From then on Cache() is
// empty and View() has version 0 and no cells; what Layers, Allocation or
// Cache returned before is no longer valid, since another client rewrites
// that storage (a holder that needs it longer takes Allocation.Clone()
// first). A second Close hands nothing back.
func (c *Client) Close() error {
	if st := c.store; st != nil {
		st.blocks.Drop()
		st.view.reset()
		storePool.Put(st)
		// The closed client keeps working on storage of its own.
		c.store, c.view, c.local = nil, NewAllocView(), cache.Empty()
		clear(c.scratch.active)
		c.scratch.local, c.scratch.active, c.scratch.blocks = nil, c.scratch.active[:0], new(cache.Blocks)
	}
	return c.sess.Close()
}

// Reconnect re-opens the client's coordination session against coord —
// typically a different server, after a redirect or failure — and
// retires the old session. Every piece of client state (τ, the update
// table, hit-ratio estimates, the allocation view) survives the swap;
// the fresh server session holds no allocation record, so the next
// BeginRound receives a Full delta and the view resynchronizes in one
// round (version-0 resync). The model shape must match the original
// registration.
func (c *Client) Reconnect(coord Coordinator) error {
	sess, err := coord.Open(c.ctx, c.cfg.ID)
	if err != nil {
		return fmt.Errorf("core: client %d reconnect: %w", c.cfg.ID, err)
	}
	info := sess.Info()
	if info.NumClasses != c.space.DS.NumClasses || info.NumLayers != c.space.Arch.NumLayers {
		_ = sess.Close()
		return fmt.Errorf("core: client %d reconnect model/dataset mismatch (%d×%d vs %d×%d)",
			c.cfg.ID, c.space.DS.NumClasses, c.space.Arch.NumLayers, info.NumClasses, info.NumLayers)
	}
	// Best-effort: the old session (or its server) may already be gone.
	_ = c.sess.Close()
	c.sess = sess
	return nil
}

// reqCtx derives one coordination request's context: the lifecycle
// context, bounded by RequestTimeout when configured.
func (c *Client) reqCtx() (context.Context, context.CancelFunc) {
	if c.cfg.RequestTimeout > 0 {
		return context.WithTimeout(c.ctx, c.cfg.RequestTimeout)
	}
	return c.ctx, func() {}
}

// allocate requests a delta for the given status, folds it into the view
// and returns the materialized allocation. A delta the client's model cannot
// hold is refused whole, and the view stays as it was.
func (c *Client) allocate(status StatusReport) (Allocation, error) {
	status.LastVersion = c.view.Version()
	ctx, cancel := c.reqCtx()
	delta, err := c.sess.Allocate(ctx, status)
	cancel()
	if err != nil {
		return Allocation{}, err
	}
	err = delta.Check(c.space.DS.NumClasses, c.space.Arch.NumLayers)
	if err == nil {
		err = c.view.Apply(delta)
	}
	if err != nil {
		return Allocation{}, fmt.Errorf("core: client %d delta: %w", c.cfg.ID, err)
	}
	return c.view.Allocation(), nil
}

// BeginRound implements engine.RoundHooks: upload status, receive the
// allocation delta, and load the materialized cache.
func (c *Client) BeginRound() error {
	if c.env != nil {
		c.env.DriftEpoch = float64(c.rounds) * c.cfg.DriftPerRound
	}
	var alloc Allocation
	if c.cfg.DisableDynamicAllocation && c.frozen != nil {
		// Keep the frozen shape but refresh entries from the server by
		// re-requesting with the original status; the server re-extracts
		// current global entries for the frozen classes/layers.
		alloc = *c.frozen
		if refreshed, rerr := c.allocate(c.frozenStatus()); rerr == nil {
			// Use refreshed entries only for the frozen sites.
			alloc = refreshEntries(*c.frozen, refreshed)
		}
	} else {
		var err error
		alloc, err = c.allocate(c.status())
		if err != nil {
			stale, ok := c.shieldAllocation(err)
			if !ok {
				return fmt.Errorf("core: client %d allocate: %w", c.cfg.ID, err)
			}
			alloc = stale
		} else {
			c.exitShield()
		}
		if c.cfg.DisableDynamicAllocation && c.frozen == nil {
			// The allocation aliases the view, which the next refresh
			// overwrites: what is frozen is a copy.
			frozen := alloc.Clone()
			c.frozen = &frozen
		}
	}
	local, err := cache.NewLocal(alloc.Layers)
	if err != nil {
		return fmt.Errorf("core: client %d allocation invalid: %w", c.cfg.ID, err)
	}
	c.local = local
	clear(c.roundHitsBy)
	c.roundFrames = 0
	return nil
}

// shieldAllocation is the serve-stale path: when an allocation round
// fails under an armed shield, reuse the last-applied view for one more
// round, bounded by MaxStaleRounds. Not engaged when the client's own
// lifecycle context is done — a shutting-down client must not mask its
// cancellation as a degraded round.
func (c *Client) shieldAllocation(cause error) (Allocation, bool) {
	if c.cfg.MaxStaleRounds <= 0 || c.ctx.Err() != nil {
		return Allocation{}, false
	}
	if c.view.Version() == 0 || c.staleRounds >= c.cfg.MaxStaleRounds {
		return Allocation{}, false
	}
	c.staleRounds++
	c.servedStale++
	telemetry.OverloadServedStale.Inc()
	if int64(c.staleRounds) > telemetry.OverloadStaleRounds.Load() {
		telemetry.OverloadStaleRounds.Set(int64(c.staleRounds))
	}
	if tr := telemetry.Trace(); tr != nil {
		tr.Emit("serve_stale",
			telemetry.Int("client", c.cfg.ID),
			telemetry.Int("stale_rounds", c.staleRounds),
			telemetry.Str("cause", cause.Error()))
	}
	return c.view.Allocation(), true
}

// exitShield marks a successful allocation after (possibly) degraded
// rounds: the staleness streak ends.
func (c *Client) exitShield() {
	if c.staleRounds == 0 {
		return
	}
	c.staleRounds = 0
	telemetry.OverloadStaleRounds.Set(0)
}

// ServedStale reports how many rounds this client served from a stale
// view under the shield (lifetime total), and StaleRounds the current
// consecutive streak.
func (c *Client) ServedStale() int { return c.servedStale }

// StaleRounds reports the current consecutive stale-round streak.
func (c *Client) StaleRounds() int { return c.staleRounds }

// frozenStatus reproduces a neutral status for frozen-allocation refreshes.
func (c *Client) frozenStatus() StatusReport {
	return StatusReport{
		Tau:         make([]int, c.space.DS.NumClasses),
		HitRatio:    nil, // server profile
		Budget:      c.cfg.Budget,
		RoundFrames: c.cfg.RoundFrames,
	}
}

// refreshEntries overlays refreshed entry vectors onto the frozen shape
// where sites match; sites missing from the refresh keep frozen entries.
func refreshEntries(frozen, refreshed Allocation) Allocation {
	bySite := make(map[int]cache.Layer, len(refreshed.Layers))
	for _, l := range refreshed.Layers {
		bySite[l.Site] = l
	}
	out := Allocation{Classes: frozen.Classes}
	for _, l := range frozen.Layers {
		if r, ok := bySite[l.Site]; ok && len(r.Classes) == len(l.Classes) {
			out.Layers = append(out.Layers, r)
		} else {
			out.Layers = append(out.Layers, l)
		}
	}
	return out
}

// status lends the session the live τ and R_k (see Session.Allocate).
func (c *Client) status() StatusReport {
	return StatusReport{
		Tau:         c.tau,
		HitRatio:    c.hitRatio,
		Budget:      c.cfg.Budget,
		RoundFrames: c.cfg.RoundFrames,
	}
}

// EndRound implements engine.RoundHooks: update the hit-ratio estimate and
// upload the round's update table and frequencies.
func (c *Client) EndRound() error {
	c.updateHitRatio()
	c.report.Freq, c.report.Cells = c.freq.SnapshotInto(c.report.Freq), c.report.Cells[:0]
	if !c.cfg.DisableCollection {
		// The update table's own vectors travel: Upload borrows the report
		// for the call and the table is reset only after it returns.
		c.upd.ForEach(func(class, layer int, vec []float32, count int) {
			c.report.Cells = append(c.report.Cells, UpdateCell{Class: class, Layer: layer, Count: count, Vec: vec})
		})
	}
	ctx, cancel := c.reqCtx()
	err := c.sess.Upload(ctx, c.report)
	cancel()
	if err != nil {
		if c.staleRounds == 0 || c.ctx.Err() != nil {
			return fmt.Errorf("core: client %d upload: %w", c.cfg.ID, err)
		}
		// Shield spans the whole degraded round: the coordinator that
		// could not allocate likely cannot absorb uploads either. The
		// update table is kept (not reset) so the evidence is re-offered
		// once the coordinator recovers.
		c.rounds++
		return nil
	}
	c.upd.Reset()
	c.freq.Reset()
	c.rounds++
	return nil
}

// updateHitRatio folds this round's observed cumulative hit ratios into
// the client's estimate R_k by EMA, only at the activated sites where the
// observation is meaningful. Observations are cumulative-by-layer, matching
// the server profile semantics under the paper's "hits at b also hit at
// b+1" hypothesis; sites that were not activated keep their estimate.
func (c *Client) updateHitRatio() {
	if c.roundFrames == 0 || c.local.NumEntries() == 0 {
		return
	}
	cum, j := 0, 0
	layers := c.local.Layers() // ascending sites
	for i := range layers {
		site := layers[i].Site
		for ; j <= site; j++ {
			cum += c.roundHitsBy[j]
		}
		obs := float64(cum) / float64(c.roundFrames)
		c.hitRatio[site] = (1-hitRatioEMA)*c.hitRatio[site] + hitRatioEMA*obs
	}
}

// inferState is one frame's in-flight inference.
type inferState struct {
	latency   float64
	lookupMs  float64
	nextBlock int // next block-latency index to charge
	probes    int // activated layers probed so far
	hit       bool
	hitSite   int     // serving site on a hit
	hitOrd    int     // ordinal of the serving layer among activated layers
	class     int     // hit class
	score     float64 // discriminative score of the hit (collection gate)
	predClass int     // full-model prediction on a miss
	predGap   float32 // its top-2 probability gap (collection gate)
}

// inferScratch holds the client-owned buffers of the allocation-free
// inference hot path. The first Infer on a new allocation shapes it, so a
// client that never infers builds none of it; the vector store grows only
// when an allocation activates more layers than any before it.
type inferScratch struct {
	local  *cache.Local // the allocation active was taken from
	sem    *semantics.Scratch
	lk     *cache.Lookup
	active []*cache.Layer // activated non-empty layers, ascending sites
	flat   []float32      // vector store backing: one row per active ordinal
	agree  []int          // per-ordinal raw layer winner
	absorb []float32      // deep-site regeneration buffer
	blocks *cache.Blocks  // local's probe staging, staged at the first Infer
}

// clientStore is the storage a closed client hands to the next one that
// opens: its allocation view, reset, and its probe staging, dropped. Both
// keep their buffers, so a stream of short-lived clients parks each cold
// join's Full allocation in buffers a closed client left, and stages its
// probe blocks into them, instead of allocating both per client.
type clientStore struct {
	view   AllocView
	blocks cache.Blocks
}

// storePool holds the storage of closed clients.
var storePool = sync.Pool{New: func() any { return new(clientStore) }}

// shape points the scratch at the activated non-empty layers of the
// client's current allocation and stages their probe blocks.
func (c *Client) shape() {
	sc := &c.scratch
	if sc.sem == nil {
		sc.sem = c.space.NewScratch()
		sc.absorb = make([]float32, model.Dim)
	}
	c.local.StageBlocks(sc.blocks)
	sc.local = c.local
	sc.active = sc.active[:0]
	layers := c.local.Layers()
	for i := range layers {
		if layers[i].Len() > 0 {
			sc.active = append(sc.active, &layers[i])
		}
	}
	if rows := len(sc.active); rows > len(sc.agree) {
		sc.flat = make([]float32, rows*model.Dim)
		sc.agree = make([]int, rows)
	}
}

// vecRow returns the stored semantic vector at activated layer ordinal ord.
func (sc *inferScratch) vecRow(ord int) []float32 {
	base := ord * model.Dim
	return sc.flat[base : base+model.Dim : base+model.Dim]
}

// advanceBlocks charges block latencies up to and including block j, adding
// them one by one in block order.
func (st *inferState) advanceBlocks(blockMs []float64, j int) {
	for ; st.nextBlock <= j; st.nextBlock++ {
		st.latency += blockMs[st.nextBlock]
	}
}

// Infer implements engine.Engine: sequential block execution with cache
// probes at activated sites, early exit on hit, full prediction on miss
// (§II-3, §IV-C). Steady-state calls are allocation-free.
func (c *Client) Infer(smp dataset.Sample) engine.Result {
	if c.scratch.local != c.local {
		c.shape()
	}
	st := c.probe(smp)
	if !st.hit {
		pred := c.space.PredictScratch(c.scratch.sem, smp, c.env)
		st.predClass = pred.Class
		st.predGap = pred.Top2Gap()
	}
	return c.apply(smp, &st)
}

// probe charges the frame's round-amortized coordination cost, then walks
// the activated layers in site order, generating the frame's vector at each
// and probing it, until one hits or the frame runs through the whole model.
func (c *Client) probe(smp dataset.Sample) inferState {
	sc := &c.scratch
	arch := c.space.Arch
	st := inferState{hitSite: -1, hitOrd: -1, predClass: -1}
	if c.cfg.CoordPerRoundMs > 0 {
		st.latency += c.cfg.CoordPerRoundMs / float64(c.cfg.RoundFrames)
	}
	sc.lk.Reset()
	for ord, layer := range sc.active {
		st.advanceBlocks(arch.BlockLatencyMs, layer.Site)
		vec := sc.vecRow(ord)
		c.space.SampleVectorInto(vec, smp, layer.Site, c.env, sc.sem)
		cost := arch.LookupCostMs(layer.Len())
		st.latency += cost
		st.lookupMs += cost
		pr := sc.lk.Probe(layer, vec)
		sc.agree[ord] = pr.LayerClass
		st.probes = ord + 1
		if pr.Hit {
			st.hit = true
			st.hitSite, st.hitOrd = layer.Site, ord
			st.class, st.score = pr.Class, pr.Score
			return st
		}
	}
	st.advanceBlocks(arch.BlockLatencyMs, arch.NumLayers)
	return st
}

// apply commits the frame's side effects — hit reinforcement or miss
// expansion into the update table, collection statistics and the τ/φ
// status vectors — and returns its result.
func (c *Client) apply(smp dataset.Sample, st *inferState) engine.Result {
	sc := &c.scratch
	arch := c.space.Arch
	res := engine.Result{Pred: -1, HitLayer: -1}
	if st.hit {
		res.Pred, res.Hit, res.HitLayer = st.class, true, st.hitSite
		c.roundHitsBy[st.hitSite]++
		c.collect.Hits++
		if !c.cfg.DisableCollection && st.score > c.cfg.GammaCollect {
			c.collect.HitAbsorbed++
			if st.class == smp.Class {
				c.collect.HitAbsorbedCorrect++
			}
			// "Limited to the point of the cache hit": reinforce the
			// entry at the site that served the hit, whose entry
			// population is exactly the samples hitting there.
			// Earlier sites saw this frame as not-yet-discriminative
			// and would only be eroded by its vectors.
			// Absorb errors only arise from degenerate vectors,
			// which unit sample vectors never are.
			_ = c.upd.Absorb(st.class, st.hitSite, sc.vecRow(st.hitOrd))
		}
	} else {
		res.Pred = st.predClass
		c.collect.Misses++
		if !c.cfg.DisableCollection && float64(st.predGap) > c.cfg.DeltaCollect {
			c.collect.MissAbsorbed++
			if st.predClass == smp.Class {
				c.collect.MissAbsorbedCorrect++
			}
			// Expansion vectors: probed sites whose own evidence agrees
			// with the prediction, plus the sites past the last probe,
			// where a confidently-classified frame is fully resolved.
			deepest := -1
			for ord := 0; ord < st.probes; ord++ {
				site := sc.active[ord].Site
				if sc.agree[ord] == st.predClass {
					_ = c.upd.Absorb(st.predClass, site, sc.vecRow(ord))
				}
				deepest = site
			}
			for j := deepest + 1; j < arch.NumLayers; j++ {
				c.space.SampleVectorInto(sc.absorb, smp, j, c.env, sc.sem)
				_ = c.upd.Absorb(st.predClass, j, sc.absorb)
			}
		}
	}

	// Status-vector maintenance (§IV-C).
	statusClass := smp.Class
	if c.cfg.PredictedLabelStatus {
		statusClass = res.Pred
	}
	for i := range c.tau {
		c.tau[i]++
	}
	c.tau[statusClass] = 0
	c.freq.Observe(statusClass)
	c.roundFrames++

	res.LatencyMs = st.latency
	res.LookupMs = st.lookupMs
	return res
}

var (
	_ engine.Engine     = (*Client)(nil)
	_ engine.RoundHooks = (*Client)(nil)
)
