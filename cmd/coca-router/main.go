// Command coca-router runs the routing front door for a fleet of
// coca-server processes: a wire-facing control plane that owns
// client→server placement. Clients dial the router first; every session
// open is admitted (per-client rate limit, per-backend circuit breaker),
// placed on a backend via consistent-hash shuffle-shard placement, and
// answered with a redirect naming that backend's address — the client
// then dials its edge server directly, so no inference or coordination
// traffic ever proxies through the router.
//
// A background health-check loop probes every backend each -hc-interval
// (a dial-and-close); repeated failures open that backend's breaker,
// steering new clients to the other members of their shuffle shards, and
// recovery closes it again through the breaker's half-open probes.
//
// A redirect-only front door never sees a session after placement, so it
// degrades under overload through its rate limit and breakers alone.
// Queue-depth load shedding and live migration run in the in-process
// routed deployment (coca.Options.Routing), where the router holds the
// backend servers themselves.
//
// Live observability: -pprof exposes net/http/pprof and a JSON /stats
// page (admissions, rejections by cause, per-backend breaker state and
// trip counts); -metrics serves the process-wide telemetry
// registry in Prometheus text format at /metrics — when both name the
// same address one listener serves everything. -trace appends
// timestamped JSON-lines control-plane events (migrations, breaker
// transitions) to a file.
//
// Usage:
//
//	coca-router -listen :7069 -servers 127.0.0.1:7070,127.0.0.1:7071,127.0.0.1:7072
//	coca-router -listen :7069 -servers host1:7070,host2:7070 -shard 2 -rate 100
//	coca-router -listen :7069 -servers host1:7070 -pprof localhost:6061 -metrics localhost:6061
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"coca/internal/protocol"
	"coca/internal/routing"
	"coca/internal/telemetry"
	"coca/internal/transport"
)

func main() {
	var (
		listen  = flag.String("listen", ":7069", "listen address")
		servers = flag.String("servers", "", "comma-separated backend coca-server addresses (host:port,...)")
		route   = flag.String("route", "hash", "placement policy (static, hash or random)")
		shard   = flag.Int("shard", 0, "shuffle-shard size per client (0 = min(3, servers))")
		vnodes  = flag.Int("vnodes", 0, "virtual nodes per server on the hash ring (0 = default)")
		seed    = flag.Uint64("seed", 1, "placement hash seed (must match across router replicas)")
		hcInt   = flag.Duration("hc-interval", 2*time.Second, "backend health-check cadence (0 disables probing)")
		hcTime  = flag.Duration("hc-timeout", time.Second, "per-probe dial timeout")
		rate    = flag.Float64("rate", 0, "per-client admission rate limit in opens/sec (0 = unlimited)")

		pprofA   = flag.String("pprof", "", "expose net/http/pprof and JSON /stats on this address (e.g. localhost:6061; empty = off)")
		metricsA = flag.String("metrics", "", "expose Prometheus /metrics on this address (may equal -pprof to share one listener; empty = off)")
		traceF   = flag.String("trace", "", "append JSON-lines telemetry events (migrations, breaker transitions) to this file (empty = off)")
	)
	flag.Parse()

	var addrs []string
	for _, a := range strings.Split(*servers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("coca-router: -servers must list at least one backend address")
	}
	policy, err := routing.ParsePolicy(*route)
	if err != nil {
		log.Fatal(err)
	}
	fd := routing.NewFrontDoor(addrs, routing.Config{
		Policy:    policy,
		ShardSize: *shard,
		VNodes:    *vnodes,
		Seed:      *seed,
		Rate:      routing.RateConfig{PerSec: *rate},
	})

	// statsHandler renders the front door's control-plane counters:
	// admission outcomes plus per-backend breaker state, as JSON for
	// curl/scripts (Prometheus series live on /metrics).
	statsHandler := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		type backend struct {
			ID      int    `json:"id"`
			Addr    string `json:"addr"`
			Breaker string `json:"breaker"`
			Trips   int    `json:"trips"`
		}
		st := fd.Stats()
		out := struct {
			Admitted       int       `json:"admitted"`
			RateLimited    int       `json:"rate_limited"`
			BreakerDenials int       `json:"breaker_denials"`
			Backends       []backend `json:"backends"`
		}{
			Admitted:       st.Opens,
			RateLimited:    st.RateLimited,
			BreakerDenials: st.BreakerDenials,
		}
		for s, addr := range addrs {
			out.Backends = append(out.Backends, backend{
				ID: s, Addr: addr,
				Breaker: fd.BreakerState(s).String(),
				Trips:   fd.BreakerTrips(s),
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
	if *pprofA != "" {
		// pprof registers on the default mux at import time; /stats (and
		// /metrics when sharing the address) join it there so one
		// listener serves all diagnostics.
		http.Handle("/stats", statsHandler)
		if *metricsA == *pprofA {
			http.Handle("/metrics", telemetry.Handler())
		}
		go func() {
			fmt.Fprintf(os.Stderr, "coca-router: pprof on http://%s/debug/pprof/, stats on http://%s/stats\n", *pprofA, *pprofA)
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}
	if *metricsA != "" && *metricsA != *pprofA {
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.Handler())
		mux.Handle("/stats", statsHandler)
		go func() {
			fmt.Fprintf(os.Stderr, "coca-router: metrics on http://%s/metrics\n", *metricsA)
			if err := http.ListenAndServe(*metricsA, mux); err != nil {
				log.Printf("metrics: %v", err)
			}
		}()
	}
	if *traceF != "" {
		f, err := os.OpenFile(*traceF, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		telemetry.SetTracer(telemetry.NewTracer(f))
		defer func() {
			telemetry.SetTracer(nil)
			_ = f.Close()
		}()
		fmt.Fprintf(os.Stderr, "coca-router: tracing events to %s\n", *traceF)
	}

	l, err := transport.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "coca-router: %s placement over %d backend(s), listening on %s\n",
		policy, len(addrs), l.Addr())

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	connCtx, cancelConns := context.WithCancel(context.Background())
	defer cancelConns()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Every open on this coordinator answers with a redirect
				// frame; the connection then ends (clients dial onward).
				if err := protocol.ServeConn(connCtx, conn, fd); err != nil {
					log.Printf("session: %v", err)
				}
				_ = conn.Close()
			}()
		}
	}()

	if *hcInt > 0 {
		probe := func(addr string) error {
			ctx, cancel := context.WithTimeout(connCtx, *hcTime)
			defer cancel()
			conn, err := transport.DialContext(ctx, addr)
			if err != nil {
				return err
			}
			return conn.Close()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticker := time.NewTicker(*hcInt)
			defer ticker.Stop()
			for {
				select {
				case <-sigCtx.Done():
					return
				case <-ticker.C:
					fd.HealthCheck(probe)
					for s := range addrs {
						if st := fd.BreakerState(s); st != routing.BreakerClosed {
							log.Printf("health: backend %d (%s) breaker %s", s, addrs[s], st)
						}
					}
				}
			}
		}()
	}

	<-sigCtx.Done()
	_ = l.Close()
	cancelConns()
	wg.Wait()
	st := fd.Stats()
	snap := telemetry.Snapshot()
	fmt.Fprintln(os.Stderr, "coca-router: shut down cleanly; final stats:")
	fmt.Fprintf(os.Stderr, "  opens placed     %d\n", st.Opens)
	fmt.Fprintf(os.Stderr, "  breaker denials  %d\n", st.BreakerDenials)
	fmt.Fprintf(os.Stderr, "  rate limited     %d\n", st.RateLimited)
	fmt.Fprintf(os.Stderr, "  breaker trips    %d\n", int64(snap.Value("coca_routing_breaker_trips_total")))
}
