// Package alsh implements the adaptive locality-sensitive hashing index
// with homogenized k-nearest-neighbour lookup that FoggyCache (Guo et al.,
// MobiCom'18) uses to organize and query cached feature→result pairs.
//
// Keys are unit feature vectors. The index hashes each key with random
// hyperplane signatures; queries probe the exact bucket plus all one-bit
// neighbours (multi-probe), rank candidates by cosine similarity, and apply
// the H-kNN homogeneity test: a lookup succeeds only when a clear majority
// of the k nearest neighbours agree on the label and the nearest is close
// enough. Capacity is bounded with LRU eviction.
package alsh

import (
	"container/list"
	"fmt"

	"coca/internal/vecmath"
	"coca/internal/xrand"
)

// Config parametrizes an index.
type Config struct {
	// Dim is the key dimensionality.
	Dim int
	// Bits is the signature width (number of hyperplanes). Buckets are
	// 2^Bits; multi-probe visits Bits+1 of them per query.
	Bits int
	// Capacity bounds the number of stored entries (LRU eviction).
	Capacity int
	// K is the neighbour count for H-kNN.
	K int
	// Homogeneity is the minimum fraction of the k nearest neighbours
	// that must share the winning label (FoggyCache's homogeneity
	// factor).
	Homogeneity float64
	// MinSimilarity is the minimum cosine similarity of the nearest
	// neighbour for a lookup to count as a hit.
	MinSimilarity float64
	// Seed roots the hyperplane randomness.
	Seed uint64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Dim < 1:
		return fmt.Errorf("alsh: Dim %d < 1", c.Dim)
	case c.Bits < 1 || c.Bits > 24:
		return fmt.Errorf("alsh: Bits %d outside [1,24]", c.Bits)
	case c.Capacity < 1:
		return fmt.Errorf("alsh: Capacity %d < 1", c.Capacity)
	case c.K < 1:
		return fmt.Errorf("alsh: K %d < 1", c.K)
	case c.Homogeneity <= 0 || c.Homogeneity > 1:
		return fmt.Errorf("alsh: Homogeneity %v outside (0,1]", c.Homogeneity)
	case c.MinSimilarity < -1 || c.MinSimilarity > 1:
		return fmt.Errorf("alsh: MinSimilarity %v outside [-1,1]", c.MinSimilarity)
	}
	return nil
}

type entry struct {
	vec    []float32
	label  int
	bucket uint32
	lru    *list.Element
}

// Index is an A-LSH + H-kNN cache. Not safe for concurrent use.
type Index struct {
	cfg     Config
	planes  [][]float32
	buckets map[uint32][]*entry
	order   *list.List // front = most recent
	size    int

	// Query scratch, reused so steady-state lookups are allocation-free.
	cands []*entry
	top   []scored
}

// New builds an index. It panics on invalid configuration (configurations
// are code, not user input).
func New(cfg Config) *Index {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	idx := &Index{
		cfg:     cfg,
		buckets: make(map[uint32][]*entry),
		order:   list.New(),
	}
	for b := 0; b < cfg.Bits; b++ {
		idx.planes = append(idx.planes, xrand.NormalVector(xrand.New(cfg.Seed, 0xA15B, uint64(b)), cfg.Dim))
	}
	return idx
}

// Len returns the number of stored entries.
func (x *Index) Len() int { return x.size }

// signature hashes vec to its bucket id.
func (x *Index) signature(vec []float32) uint32 {
	var sig uint32
	for b, plane := range x.planes {
		if vecmath.Dot(vec, plane) >= 0 {
			sig |= 1 << uint(b)
		}
	}
	return sig
}

// Add inserts a (vector, label) pair, evicting the least-recently-used
// entry at capacity. The vector is copied.
func (x *Index) Add(vec []float32, label int) error {
	if len(vec) != x.cfg.Dim {
		return fmt.Errorf("alsh: Add dim %d, want %d", len(vec), x.cfg.Dim)
	}
	if x.size >= x.cfg.Capacity {
		x.evict()
	}
	e := &entry{vec: vecmath.Clone(vec), label: label}
	e.bucket = x.signature(e.vec)
	e.lru = x.order.PushFront(e)
	x.buckets[e.bucket] = append(x.buckets[e.bucket], e)
	x.size++
	return nil
}

func (x *Index) evict() {
	back := x.order.Back()
	if back == nil {
		return
	}
	e := back.Value.(*entry)
	x.order.Remove(back)
	bucket := x.buckets[e.bucket]
	for i, cand := range bucket {
		if cand == e {
			bucket[i] = bucket[len(bucket)-1]
			x.buckets[e.bucket] = bucket[:len(bucket)-1]
			break
		}
	}
	if len(x.buckets[e.bucket]) == 0 {
		delete(x.buckets, e.bucket)
	}
	x.size--
}

// Result is a lookup outcome.
type Result struct {
	// Hit reports whether H-kNN accepted the match.
	Hit bool
	// Label is the winning label on a hit.
	Label int
	// Candidates is the number of candidate entries examined (for cost
	// accounting).
	Candidates int
	// Best is the cosine similarity of the nearest neighbour (0 when no
	// candidates).
	Best float64
}

type scored struct {
	e   *entry
	sim float64
}

// Query runs a multi-probe H-kNN lookup. On a hit, the matched entries are
// refreshed in LRU order. Steady-state queries are allocation-free: the
// candidate and top-k buffers are index-owned scratch.
func (x *Index) Query(vec []float32) (Result, error) {
	if len(vec) != x.cfg.Dim {
		return Result{}, fmt.Errorf("alsh: Query dim %d, want %d", len(vec), x.cfg.Dim)
	}
	sig := x.signature(vec)
	cands := x.cands[:0]
	cands = append(cands, x.buckets[sig]...)
	for b := 0; b < x.cfg.Bits; b++ {
		cands = append(cands, x.buckets[sig^(1<<uint(b))]...)
	}
	x.cands = cands // keep the grown backing array for the next query
	res := Result{Candidates: len(cands)}
	if len(cands) == 0 {
		return res, nil
	}
	if cap(x.top) < x.cfg.K {
		x.top = make([]scored, 0, x.cfg.K)
	}
	top := x.top[:0]
	for _, e := range cands {
		s := float64(vecmath.Cosine(vec, e.vec))
		if len(top) < x.cfg.K {
			top = append(top, scored{e, s})
			// Keep ascending by sim so top[0] is the weakest.
			for i := len(top) - 1; i > 0 && top[i].sim < top[i-1].sim; i-- {
				top[i], top[i-1] = top[i-1], top[i]
			}
			continue
		}
		if s > top[0].sim {
			top[0] = scored{e, s}
			for i := 1; i < len(top) && top[i].sim < top[i-1].sim; i++ {
				top[i], top[i-1] = top[i-1], top[i]
			}
		}
	}
	best := top[len(top)-1]
	res.Best = best.sim
	// Majority vote over the k nearest, counted without a map: for each
	// distinct label (first occurrence wins ties, scanning from the
	// nearest down so the tie-break is deterministic), count its votes.
	winner, winCount := -1, 0
	for i := len(top) - 1; i >= 0; i-- {
		label := top[i].e.label
		seen := false
		for j := len(top) - 1; j > i; j-- {
			if top[j].e.label == label {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		n := 0
		for j := 0; j <= i; j++ {
			if top[j].e.label == label {
				n++
			}
		}
		if n > winCount {
			winner, winCount = label, n
		}
	}
	if best.sim >= x.cfg.MinSimilarity &&
		float64(winCount) >= x.cfg.Homogeneity*float64(len(top)) {
		res.Hit = true
		res.Label = winner
		for _, s := range top {
			if s.e.label == winner {
				x.order.MoveToFront(s.e.lru)
			}
		}
	}
	return res, nil
}
