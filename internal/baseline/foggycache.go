package baseline

import (
	"fmt"
	"math"

	"coca/internal/alsh"
	"coca/internal/dataset"
	"coca/internal/engine"
	"coca/internal/model"
	"coca/internal/semantics"
)

// FoggyCacheConfig parametrizes the FoggyCache baseline (Guo et al.,
// MobiCom'18): cross-device approximate computation reuse. Each client
// computes a feature key from a shallow prefix of the model, looks it up in
// a local A-LSH + H-kNN cache, falls back to a shared server cache on a
// local miss, and only then runs the remaining blocks. Caches are LRU.
type FoggyCacheConfig struct {
	// KeyDepthFrac places the key-extraction site at this fraction of
	// the model depth (the reuse embedding; default 0.25).
	KeyDepthFrac float64
	// K, Homogeneity and MinSimilarity configure H-kNN.
	K             int
	Homogeneity   float64
	MinSimilarity float64
	// LocalCapacity and ServerCapacity bound the two caches.
	LocalCapacity, ServerCapacity int
	// ServerRTTMs is the network round-trip added by a server lookup.
	ServerRTTMs float64
	// Seed roots the LSH hyperplanes.
	Seed uint64
}

func (c FoggyCacheConfig) withDefaults() FoggyCacheConfig {
	if c.KeyDepthFrac == 0 {
		c.KeyDepthFrac = 0.25
	}
	if c.K == 0 {
		c.K = 3
	}
	if c.Homogeneity == 0 {
		c.Homogeneity = 0.67
	}
	if c.MinSimilarity == 0 {
		c.MinSimilarity = 0.30
	}
	if c.LocalCapacity == 0 {
		c.LocalCapacity = 400
	}
	if c.ServerCapacity == 0 {
		c.ServerCapacity = 4000
	}
	if c.ServerRTTMs == 0 {
		c.ServerRTTMs = 2.0
	}
	if c.Seed == 0 {
		c.Seed = 0xF066
	}
	return c
}

// FoggyServer is the shared server-side cache all FoggyCache clients fall
// back to — the cross-client reuse the system is named for.
type FoggyServer struct {
	index *alsh.Index
}

// NewFoggyServer builds the shared cache.
func NewFoggyServer(cfg FoggyCacheConfig) *FoggyServer {
	cfg = cfg.withDefaults()
	return &FoggyServer{index: alsh.New(alsh.Config{
		Dim: model.Dim, Bits: 12, Capacity: cfg.ServerCapacity,
		K: cfg.K, Homogeneity: cfg.Homogeneity, MinSimilarity: cfg.MinSimilarity,
		Seed: cfg.Seed ^ 0x5EE5,
	})}
}

// FoggyCache is one client of the FoggyCache system.
type FoggyCache struct {
	cfg     FoggyCacheConfig
	space   *semantics.Space
	env     *semantics.Env
	keySite int
	local   *alsh.Index
	server  *FoggyServer
}

// NewFoggyCache builds a client attached to the shared server cache.
// env may be nil.
func NewFoggyCache(space *semantics.Space, env *semantics.Env, server *FoggyServer, cfg FoggyCacheConfig) (*FoggyCache, error) {
	cfg = cfg.withDefaults()
	if server == nil {
		return nil, fmt.Errorf("baseline: FoggyCache needs a shared server cache")
	}
	if cfg.KeyDepthFrac <= 0 || cfg.KeyDepthFrac >= 1 {
		return nil, fmt.Errorf("baseline: FoggyCache key depth %v outside (0,1)", cfg.KeyDepthFrac)
	}
	site := int(math.Round(cfg.KeyDepthFrac * float64(space.Arch.NumLayers)))
	if site < 0 {
		site = 0
	}
	if site >= space.Arch.NumLayers {
		site = space.Arch.NumLayers - 1
	}
	return &FoggyCache{
		cfg:     cfg,
		space:   space,
		env:     env,
		keySite: site,
		local: alsh.New(alsh.Config{
			Dim: model.Dim, Bits: 10, Capacity: cfg.LocalCapacity,
			K: cfg.K, Homogeneity: cfg.Homogeneity, MinSimilarity: cfg.MinSimilarity,
			Seed: cfg.Seed,
		}),
		server: server,
	}, nil
}

// Infer implements engine.Engine: compute the key prefix, try the local
// cache, then the server cache, then fall back to the remaining blocks,
// inserting the new pair into both caches.
func (f *FoggyCache) Infer(smp dataset.Sample) engine.Result {
	arch := f.space.Arch
	latency := arch.PrefixLatencyMs(f.keySite)
	var lookupMs float64
	// Keys are normalized features with the class-agnostic component
	// removed — instance matching on raw features would be dominated by
	// the shared component and match everything with everything.
	key := f.space.CenteredVector(smp, f.keySite, f.env)

	charge := func(candidates int) {
		// Candidate filtering is the point of A-LSH: only the probed
		// buckets' entries are compared.
		cost := arch.LookupCostMs(candidates)
		latency += cost
		lookupMs += cost
	}

	if res, err := f.local.Query(key); err == nil {
		charge(res.Candidates)
		if res.Hit {
			return engine.Result{
				Pred: res.Label, LatencyMs: latency, LookupMs: lookupMs,
				Hit: true, HitLayer: f.keySite,
			}
		}
	}
	latency += f.cfg.ServerRTTMs
	if res, err := f.server.index.Query(key); err == nil {
		charge(res.Candidates)
		if res.Hit {
			// Cross-client reuse: remember the match locally too.
			_ = f.local.Add(key, res.Label)
			return engine.Result{
				Pred: res.Label, LatencyMs: latency, LookupMs: lookupMs,
				Hit: true, HitLayer: f.keySite,
			}
		}
	}
	// Full inference for the remaining blocks.
	latency += arch.RemainingLatencyMs(f.keySite)
	pred := f.space.Predict(smp, f.env)
	_ = f.local.Add(key, pred.Class)
	_ = f.server.index.Add(key, pred.Class)
	return engine.Result{Pred: pred.Class, LatencyMs: latency, LookupMs: lookupMs, HitLayer: -1}
}

var _ engine.Engine = (*FoggyCache)(nil)
