// Package stream generates the client inference workloads of the paper's
// evaluation: video-like sample streams with temporal locality (scenes of
// consecutive same-class frames), non-IID class distributions across clients
// (Dirichlet partitions at level p = 1/ε, §VI-A), and long-tail class
// popularity (exponential imbalance with ratio ρ).
package stream

import (
	"fmt"
	"math/rand/v2"

	"coca/internal/dataset"
	"coca/internal/xrand"
)

// Config describes a multi-client workload.
type Config struct {
	// Dataset supplies classes and per-sample difficulty.
	Dataset *dataset.Spec
	// NumClients is the number of edge clients sharing the workload.
	NumClients int
	// ClassWeights is the global class popularity; nil means uniform.
	// Use xrand.LongTailWeights for the paper's long-tail construction.
	ClassWeights []float64
	// NonIIDLevel is the paper's p = 1/ε knob: 0 is IID (every client
	// sees the global distribution); larger p concentrates each client
	// on fewer classes via a Dirichlet(ε = 1/p) reweighting.
	NonIIDLevel float64
	// SceneMeanFrames is the mean length of a run of same-class frames
	// (geometric distribution). Values ≤ 1 disable temporal locality.
	SceneMeanFrames float64
	// WorkingSetSize enables scene-level class recurrence: each client
	// revisits a slowly-churning working set of this many class slots
	// (a surveillance camera sees the same classes all day). 0 disables
	// the working set; scenes then draw classes independently.
	WorkingSetSize int
	// WorkingSetChurn is the per-scene probability of replacing one
	// working-set slot with a fresh draw from the client's distribution.
	// Ignored when WorkingSetSize is 0.
	WorkingSetChurn float64
	// Seed roots all workload randomness.
	Seed uint64
}

func (c *Config) validate() error {
	switch {
	case c.Dataset == nil:
		return fmt.Errorf("stream: nil dataset")
	case c.NumClients < 1:
		return fmt.Errorf("stream: NumClients %d < 1", c.NumClients)
	case c.NonIIDLevel < 0:
		return fmt.Errorf("stream: NonIIDLevel %v < 0", c.NonIIDLevel)
	case c.ClassWeights != nil && len(c.ClassWeights) != c.Dataset.NumClasses:
		return fmt.Errorf("stream: len(ClassWeights)=%d, want %d", len(c.ClassWeights), c.Dataset.NumClasses)
	case c.WorkingSetSize < 0:
		return fmt.Errorf("stream: WorkingSetSize %d < 0", c.WorkingSetSize)
	case c.WorkingSetChurn < 0 || c.WorkingSetChurn > 1:
		return fmt.Errorf("stream: WorkingSetChurn %v outside [0,1]", c.WorkingSetChurn)
	}
	return c.Dataset.Validate()
}

// Partition holds the per-client class distributions of a workload.
type Partition struct {
	cfg   Config
	dists [][]float64 // [client][class]
}

// NewPartition derives per-client class distributions. For client k, class
// i: q_k(i) ∝ global(i) · d_k(i), where d_k ~ Dirichlet(ε = 1/p). p = 0
// yields q_k = global exactly.
func NewPartition(cfg Config) (*Partition, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Dataset.NumClasses
	global := cfg.ClassWeights
	if global == nil {
		global = xrand.Uniform(n)
	}
	p := &Partition{cfg: cfg, dists: make([][]float64, cfg.NumClients)}
	for k := range p.dists {
		if cfg.NonIIDLevel == 0 {
			p.dists[k] = append([]float64(nil), global...)
			continue
		}
		eps := 1 / cfg.NonIIDLevel
		r := xrand.New(cfg.Seed, 0xD1D1, uint64(k))
		d := xrand.Dirichlet(r, eps, n)
		q := make([]float64, n)
		var sum float64
		for i := range q {
			q[i] = global[i] * d[i]
			sum += q[i]
		}
		if sum == 0 {
			copy(q, global)
		} else {
			for i := range q {
				q[i] /= sum
			}
		}
		p.dists[k] = q
	}
	return p, nil
}

// NumClients returns the client count.
func (p *Partition) NumClients() int { return len(p.dists) }

// ClientDistribution returns client k's class distribution (shared slice;
// do not mutate).
func (p *Partition) ClientDistribution(k int) []float64 { return p.dists[k] }

// Client returns a fresh generator for client k's stream. Generators are
// independent: each owns its RNG state.
func (p *Partition) Client(k int) *Generator {
	if k < 0 || k >= len(p.dists) {
		panic(fmt.Sprintf("stream: client %d out of range [0,%d)", k, len(p.dists)))
	}
	g := &Generator{
		ds:        p.cfg.Dataset,
		sampler:   xrand.MustAliasSampler(p.dists[k]),
		sceneMean: p.cfg.SceneMeanFrames,
		churn:     p.cfg.WorkingSetChurn,
		rng:       xrand.New(p.cfg.Seed, 0x57E0, uint64(k)),
		st:        xrand.NewStream(),
		client:    k,
		seed:      p.cfg.Seed,
	}
	if p.cfg.WorkingSetSize > 0 {
		g.workset = make([]int, p.cfg.WorkingSetSize)
		for i := range g.workset {
			g.workset[i] = g.sampler.Sample(g.rng)
		}
	}
	return g
}

// Generator produces one client's sample stream.
type Generator struct {
	ds        *dataset.Spec
	sampler   *xrand.AliasSampler
	sceneMean float64
	churn     float64
	workset   []int
	rng       *rand.Rand
	st        *xrand.Stream
	client    int
	seed      uint64

	frame      uint64
	sceneClass int
	sceneLeft  int
}

// Next returns the next frame's sample. Frames within a scene share a class;
// scene lengths are geometric with the configured mean. With a working set
// configured, scene classes are drawn from the set and the set slowly
// churns toward the client's distribution. Next is allocation-free.
func (g *Generator) Next() dataset.Sample {
	if g.sceneLeft <= 0 {
		g.sceneClass = g.nextSceneClass()
		g.sceneLeft = g.sceneLength()
	}
	g.sceneLeft--
	smp := g.ds.StreamSample(g.st, g.sceneClass, g.seed, uint64(g.client), g.frame)
	g.frame++
	return smp
}

func (g *Generator) nextSceneClass() int {
	if len(g.workset) == 0 {
		return g.sampler.Sample(g.rng)
	}
	if g.rng.Float64() < g.churn {
		g.workset[g.rng.IntN(len(g.workset))] = g.sampler.Sample(g.rng)
	}
	return g.workset[g.rng.IntN(len(g.workset))]
}

// Frame reports how many samples have been generated so far.
func (g *Generator) Frame() uint64 { return g.frame }

func (g *Generator) sceneLength() int {
	if g.sceneMean <= 1 {
		return 1
	}
	// Geometric with mean sceneMean: success prob 1/mean.
	p := 1 / g.sceneMean
	n := 1
	for g.rng.Float64() > p {
		n++
		if n >= 10000 { // safety bound; mean lengths are tens of frames
			break
		}
	}
	return n
}

// Take generates the next n samples as a fresh slice.
func (g *Generator) Take(n int) []dataset.Sample {
	out := make([]dataset.Sample, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Concentration measures how non-IID a distribution is: the total mass of
// the smallest set of classes covering the given fraction. Smaller results
// mean more concentrated streams.
func Concentration(dist []float64, fraction float64) int {
	idx := make([]int, len(dist))
	for i := range idx {
		idx[i] = i
	}
	// Selection sort by descending mass; distributions here are short.
	for i := 0; i < len(idx); i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if dist[idx[j]] > dist[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	var mass float64
	for count, i := range idx {
		mass += dist[i]
		if mass >= fraction {
			return count + 1
		}
	}
	return len(dist)
}
