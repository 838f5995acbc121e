// Command coca-client runs a CoCa edge client over TCP: it connects to a
// coca-server (or a coca-router front door), opens a coordination session
// (wire protocol v4: allocation deltas with per-request deadline
// propagation), and drives a
// synthetic sample stream through cached inference for the requested
// number of rounds, printing the latency/accuracy summary.
//
// The model, dataset and class-count flags must match the server's, and
// -clients must name the fleet size so every client carves the same
// workload partition: client -id K of -clients N always streams partition
// K of N, regardless of which process it runs in.
//
// Dials retry with seeded-jitter exponential backoff
// (-dial-retries/-dial-backoff; the jitter de-correlates fleet members
// recovering from a shared brown-out) under a leaky-bucket retry budget
// (-retry-budget; retries past the budget fail fast instead of piling
// onto an overloaded server). -request-timeout puts a deadline on each
// coordination request, carried in the wire frames so the server drops
// expired work instead of serving it late; -max-stale-rounds arms the
// serve-stale shield: when the server brown-outs mid-run, the client
// keeps serving inference from its last-synced allocation for up to
// that many rounds instead of failing the run.
//
// Redirects are followed transparently: a routing front door answers the
// session open with its placement decision, and a mid-stream redirect —
// the routing tier migrating this session during a brown-out — makes the
// client re-open on the named server and resume, recovering its exact
// allocation through the delta protocol's full-table resync.
//
// Usage:
//
//	coca-client -addr localhost:7070 -model ResNet101 -dataset UCF101 \
//	    -classes 50 -id 0 -clients 4 -rounds 5 -budget 300
//	coca-client -addr localhost:7069 -dial-retries 5 -dial-backoff 200ms
//	coca-client -addr localhost:7070 -request-timeout 2s -max-stale-rounds 3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/metrics"
	"coca/internal/model"
	"coca/internal/overload"
	"coca/internal/protocol"
	"coca/internal/semantics"
	"coca/internal/stream"
	"coca/internal/transport"
	"coca/internal/xrand"
)

// maxRedirectHops bounds how many chained redirects one open or
// migration follows (guards against routing loops).
const maxRedirectHops = 4

// dialer dials with retry-and-backoff and builds session coordinators.
type dialer struct {
	retries int
	backoff time.Duration
	seed    uint64
	budget  *overload.RetryBudget
	classes int
	layers  int
}

// dial connects to addr, retrying transient failures with seeded-jitter
// exponential backoff under the retry budget: each retry spends a
// token, and an empty bucket fails the dial fast rather than joining a
// retry storm.
func (d *dialer) dial(ctx context.Context, addr string) (transport.Conn, error) {
	d.budget.Note()
	var err error
	for attempt := 0; ; attempt++ {
		var conn transport.Conn
		conn, err = transport.DialContext(ctx, addr)
		if err == nil {
			return conn, nil
		}
		if attempt >= d.retries || ctx.Err() != nil {
			break
		}
		if !d.budget.Allow() {
			return nil, fmt.Errorf("dial %s: retry budget exhausted after attempt %d: %w", addr, attempt+1, err)
		}
		wait := overload.Backoff(d.backoff, attempt, d.seed)
		log.Printf("dial %s: %v (retrying in %s)", addr, err, wait)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("dial %s (after %d attempts): %w", addr, d.retries+1, err)
}

// session dials addr and wraps the connection in a session coordinator.
func (d *dialer) session(ctx context.Context, addr string) (*protocol.SessionClient, error) {
	conn, err := d.dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return protocol.NewSessionClient(conn, d.classes, d.layers), nil
}

func main() {
	var (
		addr    = flag.String("addr", "localhost:7070", "server (or router front door) address")
		modelN  = flag.String("model", "ResNet101", "model preset")
		dataN   = flag.String("dataset", "UCF101", "dataset preset")
		classes = flag.Int("classes", 0, "dataset subset size (0 = all)")
		id      = flag.Int("id", 0, "client id (0 ≤ id < clients)")
		clients = flag.Int("clients", 1, "fleet size: total clients sharing the workload")
		theta   = flag.Float64("theta", 0, "hit threshold Θ (0 = the model's)")
		budget  = flag.Int("budget", 300, "cache budget Π in entries")
		rounds  = flag.Int("rounds", 5, "rounds to run")
		frames  = flag.Int("frames", core.DefaultRoundFrames, "frames per round F")
		bias    = flag.Float64("bias", 0.05, "client feature-bias weight")
		seed    = flag.Uint64("seed", 7, "workload seed (must match across the fleet)")
		retries = flag.Int("dial-retries", 3, "extra connection attempts after a failed dial")
		backoff = flag.Duration("dial-backoff", 100*time.Millisecond, "base dial-retry backoff (doubles per attempt, equal-jittered per client)")
		rbudget = flag.Float64("retry-budget", 0.1, "retry-budget refill ratio: tokens earned per request, spent per retry (negative = unlimited retries)")
		reqTO   = flag.Duration("request-timeout", 0, "per-request deadline, propagated to the server in wire frames (0 = none)")
		stale   = flag.Int("max-stale-rounds", 0, "serve-stale shield: rounds to keep serving the last-synced allocation through a server brown-out (0 = fail fast)")
	)
	flag.Parse()

	if *clients < 1 || *id < 0 || *id >= *clients {
		log.Fatalf("coca-client: id %d outside fleet of %d clients", *id, *clients)
	}

	arch, err := model.ByName(*modelN)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := dataset.ByName(*dataN)
	if err != nil {
		log.Fatal(err)
	}
	if *classes > 0 {
		ds = ds.Subset(*classes)
	}
	if *theta == 0 {
		*theta = arch.ThetaStrict
	}
	space := semantics.NewSpace(ds, arch)

	ctx := context.Background()
	var retryBudget *overload.RetryBudget
	if *rbudget >= 0 {
		retryBudget = overload.NewRetryBudget(overload.RetryBudgetConfig{Ratio: *rbudget, Burst: float64(*retries)})
	}
	d := &dialer{
		retries: *retries, backoff: *backoff,
		seed:    xrand.HashSeed(*seed, 0x6a697474, uint64(*id)), // the serve-tier dial-jitter stream
		budget:  retryBudget,
		classes: ds.NumClasses, layers: arch.NumLayers,
	}

	// Initial open, following front-door placement redirects.
	coord, err := d.session(ctx, *addr)
	if err != nil {
		log.Fatal(err)
	}
	var client *core.Client
	cfg := core.ClientConfig{
		ID: *id, Theta: *theta, Budget: *budget, RoundFrames: *frames,
		EnvBiasWeight: *bias, EnvSeed: uint64(*id) + 1,
		RequestTimeout: *reqTO, MaxStaleRounds: *stale,
	}
	for hop := 0; ; hop++ {
		client, err = core.NewClient(ctx, space, coord, cfg)
		if err == nil {
			break
		}
		_ = coord.Close()
		var re *core.RedirectError
		if !errors.As(err, &re) || hop >= maxRedirectHops {
			log.Fatal(err)
		}
		log.Printf("redirected to %s (%s)", re.Addr, re.Reason)
		if coord, err = d.session(ctx, re.Addr); err != nil {
			log.Fatal(err)
		}
	}
	defer coord.Close()
	defer client.Close()

	// migrate re-opens the session on the redirect target and retires the
	// old connection; the next allocation resyncs the full table.
	migrate := func(target string) {
		for hop := 0; ; hop++ {
			next, err := d.session(ctx, target)
			if err != nil {
				log.Fatal(err)
			}
			err = client.Reconnect(next)
			if err == nil {
				_ = coord.Close()
				coord = next
				return
			}
			_ = next.Close()
			var re *core.RedirectError
			if !errors.As(err, &re) || hop >= maxRedirectHops {
				log.Fatal(err)
			}
			target = re.Addr
		}
	}
	// withMigration retries op once after following a redirect error.
	withMigration := func(op func() error) error {
		err := op()
		var re *core.RedirectError
		if !errors.As(err, &re) {
			return err
		}
		log.Printf("session migrating to %s (%s)", re.Addr, re.Reason)
		migrate(re.Addr)
		return op()
	}

	// The fleet-wide partition: every process builds the same N-client
	// partition and takes its own slice, so streams are disjoint and
	// consistent no matter how the fleet is launched.
	part, err := stream.NewPartition(stream.Config{
		Dataset: ds, NumClients: *clients, SceneMeanFrames: 25,
		WorkingSetSize: 15, WorkingSetChurn: 0.05, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	gen := part.Client(*id)

	var acc metrics.Accumulator
	for round := 0; round < *rounds; round++ {
		if err := withMigration(client.BeginRound); err != nil {
			log.Fatalf("round %d begin: %v", round, err)
		}
		for f := 0; f < *frames; f++ {
			smp := gen.Next()
			res := client.Infer(smp)
			acc.Record(metrics.Obs{
				LatencyMs: res.LatencyMs, LookupMs: res.LookupMs,
				Correct: res.Pred == smp.Class, Hit: res.Hit, HitLayer: res.HitLayer,
			})
		}
		if err := withMigration(client.EndRound); err != nil {
			log.Fatalf("round %d end: %v", round, err)
		}
		s := acc.Summary()
		fmt.Printf("round %d: avg %.2f ms, accuracy %.2f%%, hit ratio %.1f%%, cache view v%d (%d cells)\n",
			round, s.AvgLatencyMs, 100*s.Accuracy, 100*s.HitRatio,
			client.View().Version(), client.View().NumCells())
	}
	s := acc.Summary()
	fmt.Printf("\nclient %d/%d done: frames=%d avg=%.2fms p95=%.2fms acc=%.2f%% hit=%.1f%% hitAcc=%.2f%% (edge-only %.2fms)\n",
		*id, *clients, s.Frames, s.AvgLatencyMs, s.P95LatencyMs, 100*s.Accuracy,
		100*s.HitRatio, 100*s.HitAccuracy, arch.TotalLatencyMs())
}
