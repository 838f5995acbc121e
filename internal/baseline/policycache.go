package baseline

import (
	"fmt"

	"coca/internal/cache"
	"coca/internal/dataset"
	"coca/internal/engine"
	"coca/internal/gtable"
	"coca/internal/policy"
	"coca/internal/semantics"
)

// PolicyCacheConfig parametrizes the Fig. 8 comparison engines: a semantic
// cache with a fixed set of activated layers whose class entries are
// managed by a classical replacement policy (LRU / FIFO / RAND) instead of
// ACA.
type PolicyCacheConfig struct {
	// Theta and Alpha configure the lookup.
	Theta, Alpha float64
	// Sites is the fixed set of activated cache sites.
	Sites []int
	// Capacity is the maximum number of classes cached (each cached
	// class holds one entry per site, matching the paper's "entries per
	// cache layer" definition).
	Capacity int
	// Policy is "LRU", "FIFO" or "RAND".
	Policy string
	// Table supplies entry vectors (from core.InitialTable); required.
	Table *gtable.Sharded
	// Seed roots RAND's choices.
	Seed uint64
}

// PolicyCache is a policy-managed semantic cache engine for one client.
type PolicyCache struct {
	cfg      PolicyCacheConfig
	space    *semantics.Space
	env      *semantics.Env
	replacer policy.Replacer
	local    *cache.Local
	lookup   *cache.Lookup
	dirty    bool
}

// NewPolicyCache builds the engine. env may be nil.
func NewPolicyCache(space *semantics.Space, env *semantics.Env, cfg PolicyCacheConfig) (*PolicyCache, error) {
	if cfg.Table == nil {
		return nil, fmt.Errorf("baseline: policy cache needs a table")
	}
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("baseline: policy cache needs at least one site")
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = cache.DefaultAlpha
	}
	repl, err := policy.ByName(cfg.Policy, cfg.Capacity, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &PolicyCache{
		cfg:      cfg,
		space:    space,
		env:      env,
		replacer: repl,
		local:    cache.Empty(),
		lookup:   cache.NewLookup(cache.Config{Alpha: cfg.Alpha, Theta: cfg.Theta}),
		dirty:    true,
	}, nil
}

// rebuild materializes the cached class set into cache layers.
func (p *PolicyCache) rebuild() error {
	classes := p.replacer.Classes()
	layers := make([]cache.Layer, 0, len(p.cfg.Sites))
	for _, site := range p.cfg.Sites {
		cls, entries, _ := p.cfg.Table.ExtractLayerEntriesInto(site, classes, nil, nil, nil)
		layers = append(layers, cache.Layer{Site: site, Classes: cls, Entries: entries})
	}
	local, err := cache.NewLocal(layers)
	if err != nil {
		return err
	}
	local.StageBlocks(new(cache.Blocks))
	p.local = local
	p.dirty = false
	return nil
}

// Infer implements engine.Engine: semantic lookup over the policy-managed
// class set; on a miss the predicted class is inserted per the policy.
func (p *PolicyCache) Infer(smp dataset.Sample) engine.Result {
	if p.dirty {
		if err := p.rebuild(); err != nil {
			// An unusable cache degrades to full inference.
			p.local = cache.Empty()
			p.dirty = false
		}
	}
	res, _ := FixedLookup(p.space, p.env, p.local, p.lookup, smp)
	if res.Hit {
		p.replacer.Touch(res.Pred)
	} else if _, evicted := p.replacer.Insert(res.Pred); evicted || !p.containsLoaded(res.Pred) {
		p.dirty = true
	}
	return res
}

func (p *PolicyCache) containsLoaded(class int) bool {
	for _, l := range p.local.Layers() {
		for _, c := range l.Classes {
			if c == class {
				return true
			}
		}
		break // same class set on every layer
	}
	return false
}

var _ engine.Engine = (*PolicyCache)(nil)
