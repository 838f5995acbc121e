// Package cache implements the client-side class-based semantic cache of
// SMTM/CoCa (paper §II-3).
//
// A local cache holds, for each *activated* cache layer, one unit semantic
// entry per hot-spot class. During inference the model probes activated
// layers in depth order: at layer j it computes the cosine similarity
// C(i,j) between the sample's semantic vector and every entry i, folds it
// into the cross-layer accumulated similarity
//
//	A(i,j) = C(i,j) + α·A(i,j-1)            (Eq. 1)
//
// and hits when the discriminative score between the two highest
// accumulated classes a, b
//
//	D(j) = (A(a,j) − A(b,j)) / A(b,j)       (Eq. 2)
//
// exceeds the threshold Θ, returning class a and terminating inference.
package cache

import (
	"fmt"
	"sort"

	"coca/internal/telemetry"
	"coca/internal/vecmath"
)

// recordProbe feeds the live per-site hit/miss series. One atomic add per
// probe against a preallocated slot — the probe paths stay 0 allocs/op.
// Empty layers short-circuit before scoring and are not counted.
func recordProbe(site int, hit bool) {
	if hit {
		telemetry.CacheProbeHits.Inc(site)
	} else {
		telemetry.CacheProbeMisses.Inc(site)
	}
}

// DefaultAlpha is the paper's default cross-layer decay coefficient.
const DefaultAlpha = 0.5

// Config are the lookup parameters.
type Config struct {
	// Alpha is the Eq. 1 decay coefficient for previous layers' scores.
	Alpha float64
	// Theta is the Eq. 2 hit threshold.
	Theta float64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("cache: Alpha %v outside [0,1]", c.Alpha)
	}
	if c.Theta < 0 {
		return fmt.Errorf("cache: Theta %v < 0", c.Theta)
	}
	return nil
}

// Layer is the cache content at one activated cache site.
type Layer struct {
	// Site is the cache-layer index in the model (column of the global
	// table).
	Site int
	// Classes[i] is the class of entry i (row ids).
	Classes []int
	// Entries[i] is the unit semantic vector cached for Classes[i].
	Entries [][]float32

	// Norm2[i] is entry i's squared norm — probe staging that belongs to
	// the prober, never to a tier that only stores and forwards entries.
	// Layers materialized from a client's allocation view arrive with the
	// view's own norms, computed once when a delta changed the cell. Stage
	// keeps norms that are handed in and computes them for layers assembled
	// by hand; either way they are read-only while the layer is probed.
	Norm2 []float64

	// Wide is a widened float64 copy of the entries that only the bench
	// harness reads; nothing in the product sets it, and probes read the
	// float32 entries.
	Wide [][]float64

	// probe is the layer's probe staging in the Blocks it was staged into
	// (Local.StageBlocks); nil until then, and again once those Blocks
	// let the layer go.
	probe *layerProbe
	// maxCls caches the largest class id (valid when staged is set), so
	// probes size their accumulator without an O(n) scan per sample.
	maxCls int
	staged bool
}

// layerProbe is what the block kernel reads for one layer: its entries as
// column-interleaved probe blocks (vecmath.Interleave) and snorm[i] =
// math.Sqrt(Norm2[i]), each entry's half of the cosine's denominator (see
// vecmath.CosinesBlocks).
type layerProbe struct {
	blocks []float32
	snorm  []float64
}

// Len returns the number of entries at this layer.
func (l *Layer) Len() int { return len(l.Classes) }

// Staged reports whether the layer carries its squared norms and max
// class id.
func (l *Layer) Staged() bool { return l.staged }

// Stage computes the layer's squared norms and max class id and marks the
// layer staged. Norms handed in by the allocation path (Norm2 covering
// every entry) are kept: recomputing could only reproduce them. Stage must
// complete before a layer is probed concurrently; staged layers are
// read-only thereafter.
func (l *Layer) Stage() {
	if l.staged {
		return
	}
	if len(l.Norm2) != len(l.Entries) {
		l.Norm2 = make([]float64, len(l.Entries))
		vecmath.SquaredNorms(l.Entries, l.Norm2)
	}
	l.maxCls = l.maxClass()
	l.staged = true
}

// Blocks is a prober's probe staging: the probe blocks and square-root
// norms of the layers of one Local at a time, in buffers that are reused
// when it is staged into the next Local. The zero value is ready. It is not
// safe for concurrent use, and must outlive the probes of the Local it is
// staged into.
type Blocks struct {
	local  *Local // staged into, or nil
	probes []layerProbe
	blocks []float32
	snorm  []float64
}

// StageBlocks stages c's layers into b, so that probes score them with the
// block kernel: every layer with entries gets them interleaved into probe
// blocks, and their norms' square roots, in b's buffers, which grow to
// exactly what c needs when they are short. The Local b was staged into
// before lets go of it first (Drop), so no cache scores blocks that are
// being rewritten. Like Stage, it must complete before c is probed
// concurrently.
func (c *Local) StageBlocks(b *Blocks) {
	b.Drop()
	layers, blocks, entries := 0, 0, 0
	for i := range c.layers {
		if n := c.layers[i].Len(); n > 0 {
			layers++
			blocks += vecmath.BlocksLen(n, len(c.layers[i].Entries[0]))
			entries += n
		}
	}
	if cap(b.probes) < layers {
		b.probes = make([]layerProbe, layers)
	}
	if cap(b.blocks) < blocks {
		b.blocks = make([]float32, blocks)
	}
	if cap(b.snorm) < entries {
		b.snorm = make([]float64, entries)
	}
	probes, buf, snorm := b.probes[:layers], b.blocks[:blocks], b.snorm[:entries]
	for i := range c.layers {
		l := &c.layers[i]
		n := l.Len()
		if n == 0 {
			continue
		}
		p := &probes[0]
		probes = probes[1:]
		k := vecmath.BlocksLen(n, len(l.Entries[0]))
		p.blocks, buf = buf[:k:k], buf[k:]
		p.snorm, snorm = snorm[:n:n], snorm[n:]
		vecmath.Interleave(p.blocks, l.Entries)
		vecmath.SqrtNorms(l.Norm2, p.snorm)
		l.probe = p
	}
	b.local = c
}

// Drop lets go of the Local b is staged into: its layers are probed entry
// by entry with Cosine from then on, bitwise the same, and b may be staged
// into another Local or handed to another prober.
func (b *Blocks) Drop() {
	if b.local == nil {
		return
	}
	for i := range b.local.layers {
		b.local.layers[i].probe = nil
	}
	b.local = nil
}

// Local is a client's allocated cache: a sparse sub-table of the global
// cache, stored as activated layers in ascending site order.
type Local struct {
	layers []Layer
}

// NewLocal assembles a local cache from layers, sorting them by site and
// rejecting duplicates or ragged entry sets.
func NewLocal(layers []Layer) (*Local, error) {
	ls := make([]Layer, len(layers))
	copy(ls, layers)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Site < ls[j].Site })
	for i := range ls {
		if len(ls[i].Classes) != len(ls[i].Entries) {
			return nil, fmt.Errorf("cache: layer site %d has %d classes but %d entries",
				ls[i].Site, len(ls[i].Classes), len(ls[i].Entries))
		}
		if i > 0 && ls[i].Site == ls[i-1].Site {
			return nil, fmt.Errorf("cache: duplicate layer site %d", ls[i].Site)
		}
		// A local cache is probed on the hot path: guarantee staging at
		// construction (free for pre-staged allocation layers).
		ls[i].Stage()
	}
	return &Local{layers: ls}, nil
}

// Empty returns an allocated cache with no layers (all lookups skip).
func Empty() *Local { return &Local{} }

// Layers returns the activated layers in ascending site order. The slice
// is shared; callers must not mutate it.
func (c *Local) Layers() []Layer { return c.layers }

// LayerAt returns the layer at the given model site, or nil if that site
// is not activated.
func (c *Local) LayerAt(site int) *Layer {
	for i := range c.layers {
		if c.layers[i].Site == site {
			return &c.layers[i]
		}
		if c.layers[i].Site > site {
			break
		}
	}
	return nil
}

// NumEntries returns the total entry count across all layers — the cache
// size in entry units (all entries share one dimensionality, so the
// paper's per-entry sizes m(i,j) are uniform here).
func (c *Local) NumEntries() int {
	n := 0
	for i := range c.layers {
		n += c.layers[i].Len()
	}
	return n
}

// Sites returns the activated site indices in ascending order.
func (c *Local) Sites() []int {
	out := make([]int, len(c.layers))
	for i := range c.layers {
		out[i] = c.layers[i].Site
	}
	return out
}

// Result is the outcome of probing one cache layer.
type Result struct {
	// Hit reports whether the discriminative score cleared Theta.
	Hit bool
	// Class is the winning class on a hit (undefined otherwise).
	Class int
	// Score is the discriminative score D(j) of Eq. 2; 0 when fewer than
	// two classes have accumulated scores.
	Score float64
	// Entries is the number of entries compared (for lookup-cost
	// accounting).
	Entries int
	// LayerClass is the top class by this layer's raw cosines alone
	// (no accumulation) — the per-site evidence, used to select which
	// sites' vectors are worth uploading for global updates.
	LayerClass int
}

// Lookup carries the cross-layer accumulated similarities of one inference
// (Eq. 1 state). It must be Reset between samples; it is not safe for
// concurrent use. The steady-state Probe path is allocation-free: the
// per-class accumulator is an epoch-stamped slice that grows once to the
// highest class id and is then reused across samples.
type Lookup struct {
	cfg     Config
	acc     []float64 // by class; valid iff stamp[class] == epoch
	stamp   []uint64
	epoch   uint64
	touched []int // classes accumulated since Reset, in first-touch order

	// scores is the probe scratch: the query's per-entry cosine scores,
	// grown once to the high-water entry count; blk is the block kernel's.
	scores []float32
	blk    vecmath.BlockScratch
}

// NewLookup returns a lookup context. It panics on invalid configuration:
// configurations are produced by code, not user input.
func NewLookup(cfg Config) *Lookup {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Lookup{cfg: cfg, epoch: 1}
}

// Reset clears accumulated state for a new sample.
func (l *Lookup) Reset() {
	l.epoch++
	l.touched = l.touched[:0]
}

// Config returns the lookup parameters.
func (l *Lookup) Config() Config { return l.cfg }

// grow ensures the accumulator covers class ids up to maxClass.
func (l *Lookup) grow(maxClass int) {
	if maxClass < len(l.acc) {
		return
	}
	acc := make([]float64, maxClass+1)
	stamp := make([]uint64, maxClass+1)
	copy(acc, l.acc)
	copy(stamp, l.stamp)
	l.acc, l.stamp = acc, stamp
}

// fold applies one entry's similarity score to the Eq. 1 accumulator.
func (l *Lookup) fold(class int, score float64) {
	prev := 0.0
	if l.stamp[class] == l.epoch {
		prev = l.acc[class]
	} else {
		l.stamp[class] = l.epoch
		l.touched = append(l.touched, class)
	}
	l.acc[class] = score + l.cfg.Alpha*prev
}

// finish computes the Eq. 2 decision over the accumulated classes.
func (l *Lookup) finish(entries, rawBestClass int) Result {
	res := Result{Entries: entries, LayerClass: rawBestClass}
	if len(l.touched) < 2 {
		// A single cached class can never clear Eq. 2; report a miss
		// with zero score.
		return res
	}
	bestClass := -1
	best, second := -1e18, -1e18
	for _, class := range l.touched {
		a := l.acc[class]
		switch {
		case a > best:
			second = best
			best, bestClass = a, class
		case a > second:
			second = a
		}
	}
	if second <= 0 {
		// Degenerate accumulations (non-positive runner-up) cannot be
		// scored by Eq. 2's ratio; treat as a miss.
		return res
	}
	res.Score = (best - second) / second
	if res.Score > l.cfg.Theta {
		res.Hit = true
		res.Class = bestClass
	}
	return res
}

// maxClass returns the largest class id cached at the layer.
func (layer *Layer) maxClass() int {
	m := -1
	for _, c := range layer.Classes {
		if c > m {
			m = c
		}
	}
	return m
}

// Probe runs the Eq. 1 / Eq. 2 update for one activated layer against the
// sample's semantic vector at that layer. A layer with probe blocks
// (Local.StageBlocks) is scored by the block kernel, vecmath.CosinesBlocks, which
// reuses the entries' staged norms instead of Cosine re-deriving both norms
// per pair; any other layer is scored entry by entry with Cosine. Results
// are bitwise identical either way. Steady-state calls are allocation-free.
func (l *Lookup) Probe(layer *Layer, vec []float32) Result {
	n := layer.Len()
	if n == 0 {
		return Result{LayerClass: -1}
	}
	if cap(l.scores) < n {
		l.scores = make([]float32, n)
	}
	scores := l.scores[:n]
	if p := layer.probe; p != nil {
		// Keep Cosine's failure mode for a query that does not match the
		// entries instead of silently scoring a truncated dot.
		if dim := len(layer.Entries[0]); len(vec) != dim {
			panic(fmt.Sprintf("cache: Probe query length %d != entry dim %d", len(vec), dim))
		}
		vecmath.CosinesBlocks(vec, p.blocks, p.snorm, scores, &l.blk)
	} else {
		for i, e := range layer.Entries {
			scores[i] = vecmath.Cosine(vec, e)
		}
	}
	if layer.staged {
		l.grow(layer.maxCls)
	} else {
		l.grow(layer.maxClass())
	}
	rawBest, rawBestClass := -1e18, -1
	for i, class := range layer.Classes {
		c := float64(scores[i])
		if c > rawBest {
			rawBest, rawBestClass = c, class
		}
		l.fold(class, c)
	}
	res := l.finish(n, rawBestClass)
	recordProbe(layer.Site, res.Hit)
	return res
}

// Accumulated returns a copy of the current per-class accumulated scores
// (diagnostic; used by tests and the motivation experiments).
func (l *Lookup) Accumulated() map[int]float64 {
	out := make(map[int]float64, len(l.touched))
	for _, class := range l.touched {
		out[class] = l.acc[class]
	}
	return out
}
