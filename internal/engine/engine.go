// Package engine defines the inference-engine abstraction shared by CoCa
// and all baselines, and a round-structured runner that drives a fleet of
// per-client engines over their sample streams, mirroring the paper's
// evaluation loop (F frames per round, with per-round coordination hooks).
package engine

import (
	"fmt"
	"runtime"
	"time"

	"coca/internal/dataset"
	"coca/internal/metrics"
	"coca/internal/stream"
	"coca/internal/telemetry"
)

// Result is the outcome of one inference.
type Result struct {
	// Pred is the returned class.
	Pred int
	// LatencyMs is the total virtual latency, including lookups.
	LatencyMs float64
	// LookupMs is the portion spent probing caches.
	LookupMs float64
	// Hit reports whether a cache served the result; HitLayer is the
	// serving cache site (-1 on a miss).
	Hit      bool
	HitLayer int
}

// Engine is a per-client inference engine.
type Engine interface {
	// Infer processes one sample.
	Infer(smp dataset.Sample) Result
}

// RoundHooks is implemented by engines that coordinate per round (CoCa's
// allocation/update protocol, SMTM's cache refresh, LearnedCache's
// retraining).
type RoundHooks interface {
	// BeginRound runs before the round's frames (e.g. request a cache
	// allocation).
	BeginRound() error
	// EndRound runs after the round's frames (e.g. upload updates).
	EndRound() error
}

// RunConfig drives RunRounds.
type RunConfig struct {
	// Rounds is the number of rounds to execute.
	Rounds int
	// FramesPerRound is the paper's F (default cadence 300).
	FramesPerRound int
	// SkipRounds drops the first n rounds from the reported metrics,
	// excluding cold-start transients (cache warm-up) the way the
	// paper's steady-state measurements do. The frames still run.
	SkipRounds int
	// Concurrent drives the clients of each round in parallel, one
	// goroutine per client: BeginRound (allocation) and the round's
	// frames run concurrently across clients, then EndRound (upload)
	// runs at the round barrier in client order. Allocations only read
	// global coordinator state and frames only touch client-local state,
	// so results stay deterministic while the round's heavy work — the
	// paper's concurrent multi-client serving load — runs in parallel.
	Concurrent bool
}

// Runner drives a fleet of engines round by round. It factors the body of
// RunRounds into a steppable form so multi-server orchestrators (the
// federation cluster) can interleave their own work — peer cache syncs —
// between rounds while reusing the exact same per-round machinery.
//
// Concurrent runners own a persistent worker pool: workers are spawned
// once (lazily, at the first concurrent round) and pinned to fixed client
// shards for the runner's lifetime, so a round dispatch is one channel
// send per worker instead of a goroutine spawn per client per round, and
// each client's engine state stays with the same worker across rounds.
// Close releases the pool; a closed runner re-spawns it on demand.
type Runner struct {
	engines   []Engine
	gens      []*stream.Generator
	cfg       RunConfig
	perClient []*metrics.Accumulator
	pool      *workerPool
}

// workerPool is the persistent round-execution pool of a concurrent
// Runner. Worker w owns the client shard {k : k mod workers == w}; the
// shard map never changes, so scheduling is deterministic and per-client
// state (engine scratch, stream position) has a stable home goroutine.
// Errors are written to the per-client errs slots — disjoint across
// workers, read only after the round barrier.
type workerPool struct {
	workers int
	start   []chan roundJob // one channel per worker: its round trigger
	done    chan struct{}   // one tick per worker per round
	errs    []error         // per client, written by the owning worker
}

// roundJob is one round dispatch.
type roundJob struct {
	round  int
	record bool
}

// spawn builds the pool and starts its workers.
func (r *Runner) spawn() *workerPool {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(r.engines) {
		workers = len(r.engines)
	}
	if workers < 1 {
		workers = 1
	}
	p := &workerPool{
		workers: workers,
		start:   make([]chan roundJob, workers),
		done:    make(chan struct{}, workers),
		errs:    make([]error, len(r.engines)),
	}
	for w := 0; w < workers; w++ {
		p.start[w] = make(chan roundJob, 1)
		go r.worker(p, w)
	}
	return p
}

// worker runs one pool worker: for every dispatched round it drives its
// pinned client shard sequentially, then ticks the barrier. Closing the
// worker's start channel ends it.
func (r *Runner) worker(p *workerPool, w int) {
	for job := range p.start[w] {
		for k := w; k < len(r.engines); k += p.workers {
			p.errs[k] = runClientRound(r.engines[k], r.gens[k], r.perClient[k], r.cfg, k, job.round, job.record)
		}
		p.done <- struct{}{}
	}
}

// Close releases the runner's worker pool (idempotent; a later concurrent
// round re-spawns it). Runners that never ran a concurrent round have
// nothing to release.
func (r *Runner) Close() {
	if r.pool == nil {
		return
	}
	for _, ch := range r.pool.start {
		close(ch)
	}
	r.pool = nil
}

// NewRunner validates the configuration and prepares per-client metric
// accumulators. cfg.Rounds only matters to RunRounds-style loops; RunRound
// takes the round index explicitly.
func NewRunner(engines []Engine, gens []*stream.Generator, cfg RunConfig) (*Runner, error) {
	if len(engines) != len(gens) {
		return nil, fmt.Errorf("engine: %d engines but %d generators", len(engines), len(gens))
	}
	if cfg.Rounds < 1 || cfg.FramesPerRound < 1 {
		return nil, fmt.Errorf("engine: invalid run config %+v", cfg)
	}
	r := &Runner{engines: engines, gens: gens, cfg: cfg}
	r.perClient = make([]*metrics.Accumulator, len(engines))
	for i := range r.perClient {
		r.perClient[i] = &metrics.Accumulator{}
	}
	return r, nil
}

// RunRound executes one round (hooks and frames) across the fleet. Metrics
// are recorded when round >= cfg.SkipRounds.
func (r *Runner) RunRound(round int) error {
	record := round >= r.cfg.SkipRounds
	if tr := telemetry.Trace(); tr != nil {
		tr.Emit("round_begin",
			telemetry.Int("round", round),
			telemetry.Int("clients", len(r.engines)),
			telemetry.Bool("recorded", record))
	}
	start := time.Now()
	var err error
	if r.cfg.Concurrent {
		err = r.runRoundConcurrent(round, record)
	} else {
		err = runRoundSequential(r.engines, r.gens, r.perClient, r.cfg, round, record)
	}
	elapsed := time.Since(start).Seconds()
	telemetry.EngineRoundSeconds.Observe(elapsed)
	if tr := telemetry.Trace(); tr != nil {
		tr.Emit("round_end",
			telemetry.Int("round", round),
			telemetry.F64("seconds", elapsed),
			telemetry.Bool("ok", err == nil))
	}
	return err
}

// PerClient returns the per-client accumulators (live; they keep filling
// as rounds run).
func (r *Runner) PerClient() []*metrics.Accumulator { return r.perClient }

// Combined merges the per-client accumulators into a fresh one.
func (r *Runner) Combined() *metrics.Accumulator {
	combined := &metrics.Accumulator{}
	for _, acc := range r.perClient {
		combined.Merge(acc)
	}
	return combined
}

// RunRounds drives one engine per client over its generator for the
// configured rounds and returns a per-client accumulator plus a combined
// one. Engines implementing RoundHooks get BeginRound/EndRound calls around
// every round; hook errors abort the run.
func RunRounds(engines []Engine, gens []*stream.Generator, cfg RunConfig) (perClient []*metrics.Accumulator, combined *metrics.Accumulator, err error) {
	r, err := NewRunner(engines, gens, cfg)
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()
	for round := 0; round < cfg.Rounds; round++ {
		if err := r.RunRound(round); err != nil {
			return nil, nil, err
		}
	}
	return r.PerClient(), r.Combined(), nil
}

// runClientRound drives one client through one round's begin hook and
// frames (the parallelizable part of a round).
func runClientRound(eng Engine, gen *stream.Generator, acc *metrics.Accumulator, cfg RunConfig, k, round int, record bool) error {
	if h, ok := eng.(RoundHooks); ok {
		if err := h.BeginRound(); err != nil {
			return fmt.Errorf("engine: client %d round %d begin: %w", k, round, err)
		}
	}
	for f := 0; f < cfg.FramesPerRound; f++ {
		smp := gen.Next()
		recordObs(acc, smp, eng.Infer(smp), record)
	}
	return nil
}

func recordObs(acc *metrics.Accumulator, smp dataset.Sample, res Result, record bool) {
	if !record {
		return
	}
	acc.Record(metrics.Obs{
		LatencyMs: res.LatencyMs,
		LookupMs:  res.LookupMs,
		Correct:   res.Pred == smp.Class,
		Hit:       res.Hit,
		HitLayer:  res.HitLayer,
		TrueClass: smp.Class,
		Pred:      res.Pred,
	})
}

func endClientRound(eng Engine, k, round int) error {
	if h, ok := eng.(RoundHooks); ok {
		if err := h.EndRound(); err != nil {
			return fmt.Errorf("engine: client %d round %d end: %w", k, round, err)
		}
	}
	return nil
}

func runRoundSequential(engines []Engine, gens []*stream.Generator, perClient []*metrics.Accumulator, cfg RunConfig, round int, record bool) error {
	for k, eng := range engines {
		if err := runClientRound(eng, gens[k], perClient[k], cfg, k, round, record); err != nil {
			return err
		}
		if err := endClientRound(eng, k, round); err != nil {
			return err
		}
	}
	return nil
}

// runRoundConcurrent dispatches the round's begin-and-infer phase to the
// persistent worker pool (spawning it on first use), waits for every
// worker at the barrier, then applies the uploads in client order.
// Ordered uploads keep the global merge sequence — and therefore every
// metric — deterministic while allocations and inference, the bulk of a
// round, run in parallel across the pinned client shards; results are
// identical to the sequential schedule because per-client round work
// touches only client-local state and the shared coordinator reads.
func (r *Runner) runRoundConcurrent(round int, record bool) error {
	if r.pool == nil {
		r.pool = r.spawn()
	}
	p := r.pool
	for _, ch := range p.start {
		ch <- roundJob{round: round, record: record}
	}
	for i := 0; i < p.workers; i++ {
		<-p.done
	}
	for _, err := range p.errs {
		if err != nil {
			return err
		}
	}
	for k, eng := range r.engines {
		if err := endClientRound(eng, k, round); err != nil {
			return err
		}
	}
	return nil
}
