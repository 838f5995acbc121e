// Package baseline implements the comparison systems of the paper's
// evaluation (§VI-B): Edge-Only, LearnedCache, FoggyCache and SMTM, plus
// the policy-managed semantic cache used by the Fig. 8 replacement-policy
// comparison. All engines satisfy engine.Engine and run against the same
// simulated substrate as CoCa.
package baseline

import (
	"coca/internal/cache"
	"coca/internal/dataset"
	"coca/internal/engine"
	"coca/internal/semantics"
)

// FixedLookup runs one frame through a semantic cache whose loaded table
// does not change during the frame: block by block it charges the block
// latency, and at every cache site holding entries it samples the layer
// vector, charges the lookup cost and probes; the first hit exits there and
// a miss runs the full model. It returns the result and the hit layer's
// vector (nil on a miss).
func FixedLookup(space *semantics.Space, env *semantics.Env, local *cache.Local, lookup *cache.Lookup, smp dataset.Sample) (engine.Result, []float32) {
	arch := space.Arch
	lookup.Reset()
	var latency, lookupMs float64
	var hitVec []float32
	res := engine.Result{Pred: -1, HitLayer: -1}
	for j := 0; j <= arch.NumLayers; j++ {
		latency += arch.BlockLatencyMs[j]
		if j == arch.NumLayers {
			break
		}
		layer := local.LayerAt(j)
		if layer == nil || layer.Len() == 0 {
			continue
		}
		vec := space.SampleVector(smp, j, env)
		cost := arch.LookupCostMs(layer.Len())
		latency += cost
		lookupMs += cost
		if pr := lookup.Probe(layer, vec); pr.Hit {
			res.Pred, res.Hit, res.HitLayer = pr.Class, true, j
			hitVec = vec
			break
		}
	}
	if !res.Hit {
		res.Pred = space.Predict(smp, env).Class
	}
	res.LatencyMs = latency
	res.LookupMs = lookupMs
	return res, hitVec
}

// EdgeOnly runs the full model on every frame — the paper's reference
// configuration that every acceleration method is measured against.
type EdgeOnly struct {
	space *semantics.Space
	env   *semantics.Env
}

// NewEdgeOnly builds the baseline for one client. env may be nil.
func NewEdgeOnly(space *semantics.Space, env *semantics.Env) *EdgeOnly {
	return &EdgeOnly{space: space, env: env}
}

// Infer implements engine.Engine.
func (e *EdgeOnly) Infer(smp dataset.Sample) engine.Result {
	pred := e.space.Predict(smp, e.env)
	return engine.Result{
		Pred:      pred.Class,
		LatencyMs: e.space.Arch.TotalLatencyMs(),
		HitLayer:  -1,
	}
}

var _ engine.Engine = (*EdgeOnly)(nil)
