// Command coca-client runs a CoCa edge client over TCP on the public
// serving API (coca.Dial, then Client.Run): it connects to a coca-server
// (or a coca-router front door), opens a coordination session (wire
// protocol v4: allocation deltas with per-request deadline propagation),
// and drives a synthetic sample stream through cached inference for the
// requested number of rounds, printing the latency/accuracy summary.
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
	"flag"
	"fmt"
	"log"
	"time"

	"coca"
	"coca/internal/core"
)

func main() {
	var (
		addr    = flag.String("addr", "localhost:7070", "server (or router front door) address")
		modelN  = flag.String("model", "ResNet101", "model preset")
		dataN   = flag.String("dataset", "UCF101", "dataset preset")
		classes = flag.Int("classes", 0, "dataset subset size (0 = all)")
		id      = flag.Int("id", 0, "client id (0 ≤ id < clients)")
		clients = flag.Int("clients", 1, "fleet size: total clients sharing the workload")
		theta   = flag.Float64("theta", 0, "hit threshold Θ (0 = the model's)")
		budget  = flag.Int("budget", 300, "cache budget Π in entries (0 = the library default)")
		rounds  = flag.Int("rounds", 5, "rounds to run (0 = the library default)")
		frames  = flag.Int("frames", core.DefaultRoundFrames, "frames per round F (0 = the library default)")
		bias    = flag.Float64("bias", 0.05, "client feature-bias weight (0 = the library default)")
		seed    = flag.Uint64("seed", 7, "workload seed (must match across the fleet)")
		retries = flag.Int("dial-retries", 3, "extra connection attempts after a failed dial (0 = none)")
		backoff = flag.Duration("dial-backoff", 100*time.Millisecond, "base dial-retry backoff (doubles per attempt, equal-jittered per client)")
		rbudget = flag.Float64("retry-budget", 0.1, "retry-budget refill ratio: tokens earned per request, spent per retry (0 = the library default; negative = unlimited retries)")
		reqTO   = flag.Duration("request-timeout", 0, "per-request deadline, propagated to the server in wire frames (0 = none)")
		stale   = flag.Int("max-stale-rounds", 0, "serve-stale shield: rounds to keep serving the last-synced allocation through a server brown-out (0 = fail fast)")
	)
	flag.Parse()

	if *clients < 1 {
		log.Fatalf("coca-client: fleet of %d clients", *clients)
	}
	if *retries == 0 {
		*retries = -1 // Options reads 0 as its default; negative disables retries
	}
	ctx := context.Background()
	cl, err := coca.Dial(ctx, *addr, *id, coca.Options{
		Model: *modelN, Dataset: *dataN, Classes: *classes,
		NumClients: *clients, Rounds: *rounds,
		Theta: *theta, Budget: *budget, RoundFrames: *frames, ClientBias: *bias,
		DialRetries: *retries, DialBackoff: *backoff, RetryBudgetRatio: *rbudget,
		RequestTimeout: *reqTO, MaxStaleRounds: *stale,
		Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	rep, err := cl.Run(ctx, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cache view v%d on %s after %d migration(s)\n", cl.ViewVersion(), cl.Addr(), cl.Migrations())
	fmt.Printf("\nclient %d/%d done: frames=%d avg=%.2fms p95=%.2fms acc=%.2f%% hit=%.1f%% hitAcc=%.2f%% (edge-only %.2fms)\n",
		*id, *clients, rep.Frames, rep.AvgLatencyMs, rep.P95LatencyMs, 100*rep.Accuracy,
		100*rep.HitRatio, 100*rep.HitAccuracy, rep.EdgeOnlyLatencyMs)
}
