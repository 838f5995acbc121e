// Command coca-server runs a CoCa edge server over TCP: it builds the
// simulated model/dataset universe, initializes the global cache table from
// the shared dataset, and serves session, cache-allocation and
// global-update requests from coca-client processes (wire protocol v4:
// session deltas with per-request deadline propagation; other versions
// are refused).
//
// With -peers, the server joins a federation: it gossips global-cache
// cell deltas to the listed peer servers every -sync interval and merges
// the deltas they push, so classes cached by another server's clients
// accelerate this server's clients too. Every fleet member must run the
// same -model/-dataset/-classes/-seed (the shared dataset aligning their
// initial tables) and a distinct -node-id.
//
// The fleet is elastic: with -join, a server started mid-run announces
// itself to the listed peers and bootstraps its table from a snapshot
// (everything the fleet learned since construction, shipped as one batch)
// instead of replaying sync history, and established members learn the
// joiner's address and push back without reconfiguration. A per-peer
// failure detector (-suspect-after / -dead-after consecutive failures)
// keeps sync from stalling on crashed peers; -gossip N switches each sync
// round to an epidemic push toward N sampled peers instead of all of
// them.
//
// On SIGINT/SIGTERM the server shuts down gracefully: it announces a
// clean leave to live peers (so they mark it left immediately rather than
// waiting out the suspect timeout), stops accepting new connections, lets
// in-flight sessions drain for up to -drain-timeout, then closes the
// remaining connections, prints its final counters (allocations, merges,
// sessions, peer-sync traffic with a per-peer breakdown) and exits.
// Sessions that finish inside the window count as drained, the
// force-closed remainder as aborted (coca_overload_drain_sessions_total
// in /metrics).
//
// Live observability: -metrics serves the process-wide telemetry registry
// (per-tier counters, gauges and histograms — cache hits, sync bytes,
// membership states, session/allocation counts) in Prometheus text format
// at /metrics; when -metrics and -pprof name the same address one listener
// serves both. -trace appends timestamped JSON-lines lifecycle events
// (session open/close, peer sync exchanges, membership transitions) to a
// file. The graceful-shutdown stats dump reads the same telemetry
// snapshot the /metrics page is rendered from, so the two can never
// disagree.
//
// Usage:
//
//	coca-server -addr :7070 -model ResNet101 -dataset UCF101 -classes 50
//	coca-server -addr :7071 -node-id 1 -peers 127.0.0.1:7070,127.0.0.1:7072 -sync 5s
//	coca-server -addr :7072 -node-id 2 -peers 127.0.0.1:7070 -join -sync 5s
//	coca-server -addr :7070 -pprof localhost:6060 -metrics localhost:6060 -trace events.jsonl
package main

import (
	"context"
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

	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/federation"
	"coca/internal/model"
	"coca/internal/protocol"
	"coca/internal/semantics"
	"coca/internal/telemetry"
	"coca/internal/transport"
)

func main() {
	var (
		addr     = flag.String("addr", ":7070", "listen address")
		modelN   = flag.String("model", "ResNet101", "model preset (VGG16_BN, ResNet50, ResNet101, ResNet152, AST)")
		dataN    = flag.String("dataset", "UCF101", "dataset preset (ImageNet-100, UCF101, ESC-50)")
		classes  = flag.Int("classes", 0, "restrict the dataset to its first N classes (0 = all)")
		theta    = flag.Float64("theta", 0, "hit threshold Θ used for layer profiling (0 = the model's)")
		gamma    = flag.Float64("gamma", 0.99, "global merge decay γ (Eq. 4)")
		seed     = flag.Uint64("seed", 1, "shared-dataset seed")
		drain    = flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown bound: in-flight sessions get this long to drain before being force-closed")
		peersF   = flag.String("peers", "", "comma-separated federated peer server addresses (host:port,...)")
		nodeID   = flag.Int("node-id", 0, "this server's federation id (distinct per fleet member)")
		relay    = flag.Bool("relay", false, "relay received peer evidence onward (set on star hubs / ring members; leave off in a full mesh)")
		syncInt  = flag.Duration("sync", 5*time.Second, "federation peer-sync cadence (with -peers)")
		join     = flag.Bool("join", false, "announce this server to the fleet and bootstrap from a peer snapshot (elastic join; with -peers)")
		gossip   = flag.Int("gossip", 0, "gossip fanout: push each sync round to N sampled peers instead of all (0 = all)")
		suspect  = flag.Int("suspect-after", 0, "consecutive sync failures before a peer is suspect (0 = default 2)")
		dead     = flag.Int("dead-after", 0, "consecutive sync failures before a peer is dead and skipped (0 = default 5)")
		antiEnt  = flag.Duration("anti-entropy", 0, "pull anti-entropy cadence: periodically reconcile ledgers with one sampled peer via digests (with -peers; 0 = off)")
		pprofA   = flag.String("pprof", "", "expose net/http/pprof on this address (e.g. localhost:6060; empty = off)")
		metricsA = flag.String("metrics", "", "expose Prometheus /metrics on this address (may equal -pprof to share one listener; empty = off)")
		traceF   = flag.String("trace", "", "append JSON-lines telemetry events (sessions, syncs, membership) to this file (empty = off)")
	)
	flag.Parse()

	if *metricsA != "" && *metricsA == *pprofA {
		// Shared diagnostics listener: pprof registers on the default
		// mux at import time, so /metrics joins it there and the single
		// server below serves both.
		http.Handle("/metrics", telemetry.Handler())
	}
	if *pprofA != "" {
		// Diagnostics only: profiles of the serving hot path are taken
		// live (go tool pprof http://<addr>/debug/pprof/profile) without
		// touching the coordination sockets or redeploying.
		go func() {
			fmt.Fprintf(os.Stderr, "coca-server: pprof on http://%s/debug/pprof/\n", *pprofA)
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}
	if *metricsA != "" && *metricsA != *pprofA {
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.Handler())
		go func() {
			fmt.Fprintf(os.Stderr, "coca-server: metrics on http://%s/metrics\n", *metricsA)
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
		fmt.Fprintf(os.Stderr, "coca-server: tracing events to %s\n", *traceF)
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
	fmt.Fprintf(os.Stderr, "coca-server: building %s × %s universe...\n", arch.Name, ds.Name)
	space := semantics.NewSpace(ds, arch)
	srv := core.NewServer(space, core.ServerConfig{Theta: *theta, Gamma: *gamma, Seed: *seed})
	node := federation.NewNode(srv, federation.NodeConfig{
		ID: *nodeID, Relay: *relay,
		Membership: federation.MembershipConfig{SuspectAfter: *suspect, DeadAfter: *dead},
	})

	var peerAddrs []string
	for _, a := range strings.Split(*peersF, ",") {
		if a = strings.TrimSpace(a); a != "" {
			peerAddrs = append(peerAddrs, a)
		}
	}

	l, err := transport.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "coca-server: %s × %s (%d classes, %d cache sites) listening on %s\n",
		arch.Name, ds.Name, ds.NumClasses, arch.NumLayers, l.Addr())
	if len(peerAddrs) > 0 {
		fmt.Fprintf(os.Stderr, "coca-server: federation node %d syncing with %d peer(s) every %s\n",
			*nodeID, len(peerAddrs), *syncInt)
	}

	// Shutdown plumbing: the signal cancels sigCtx; connCtx stays open
	// through the drain window so in-flight sessions can finish their
	// round trips, then its cancellation force-closes the stragglers.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	connCtx, cancelConns := context.WithCancel(context.Background())
	defer cancelConns()

	// The accept loop itself is counted in the WaitGroup so that a
	// connection accepted right at shutdown cannot slip between its
	// wg.Add and the main goroutine's wg.Wait.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed (shutdown) or fatal accept error
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := protocol.ServeConn(connCtx, conn, node); err != nil {
					log.Printf("session: %v", err)
				}
				_ = conn.Close()
				allocs, merges := srv.Stats()
				fmt.Fprintf(os.Stderr, "coca-server: connection done (open sessions %d, total allocations %d, merges %d)\n",
					srv.Sessions(), allocs, merges)
			}()
		}
	}()

	// The peer-sync loop runs on its own context, canceled right after the
	// clean-leave announcement so the drain window is spent on sessions,
	// not gossip.
	var peerWg sync.WaitGroup
	var peers *federation.PeerSet
	peerCtx, cancelPeers := context.WithCancel(context.Background())
	defer cancelPeers()
	if len(peerAddrs) > 0 || *join {
		peers = federation.NewPeerSetWith(node, peerAddrs, federation.PeerSetConfig{
			Join:        *join,
			SelfAddr:    l.Addr(),
			Fanout:      *gossip,
			Seed:        *seed,
			AntiEntropy: *antiEnt,
		})
		peerWg.Add(1)
		go func() {
			defer peerWg.Done()
			peers.Run(peerCtx, *syncInt, func(err error) { log.Printf("peer sync: %v", err) })
		}()
	}

	<-sigCtx.Done()
	atShutdown := srv.Sessions()
	fmt.Fprintf(os.Stderr, "coca-server: shutting down: draining %d open session(s) for up to %s...\n",
		atShutdown, *drain)
	if peers != nil {
		// Announce the departure while the links are still up: surviving
		// peers mark this node left immediately instead of waiting out the
		// suspect timeout.
		peers.AnnounceLeave()
	}
	cancelPeers()
	peerWg.Wait()
	_ = l.Close() // stop accepting

	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
		telemetry.OverloadDrains.Add(telemetry.DrainDrained, uint64(atShutdown))
	case <-time.After(*drain):
		// Sessions that beat the deadline drained; the stragglers are
		// force-closed and counted aborted — the bounded-drain contract.
		aborted := srv.Sessions()
		telemetry.OverloadDrains.Add(telemetry.DrainAborted, uint64(aborted))
		if n := atShutdown - aborted; n > 0 {
			telemetry.OverloadDrains.Add(telemetry.DrainDrained, uint64(n))
		}
		fmt.Fprintf(os.Stderr, "coca-server: drain deadline elapsed; closing %d remaining connection(s)\n", aborted)
		cancelConns()
		<-drained
	}
	printFinalStats(node)
}

// printFinalStats renders the server's counters on graceful shutdown —
// the numbers a multi-server run is debugged from. The counters come
// from the same telemetry snapshot the live /metrics page renders, so
// the shutdown report and a final scrape can never disagree; only the
// per-peer breakdown and last-error detail (not exposed as series) read
// from the node directly.
func printFinalStats(node *federation.Node) {
	snap := telemetry.Snapshot()
	count := func(name string) int64 { return int64(snap.Value(name)) }
	sync := node.Stats()
	fmt.Fprintln(os.Stderr, "coca-server: shut down cleanly; final stats:")
	fmt.Fprintf(os.Stderr, "  allocations      %d\n", count("coca_core_allocations_total"))
	fmt.Fprintf(os.Stderr, "  merges           %d\n", count("coca_core_upload_merges_total"))
	fmt.Fprintf(os.Stderr, "  peer merges      %d\n", count("coca_core_peer_merges_total"))
	fmt.Fprintf(os.Stderr, "  open sessions    %d\n", count("coca_core_sessions_open"))
	fmt.Fprintf(os.Stderr, "  peer syncs       %d\n", count("coca_federation_syncs_total"))
	fmt.Fprintf(os.Stderr, "  peer cells sent  %d (%.1f KiB)\n",
		count("coca_federation_cells_sent_total"), snap.Value("coca_federation_sync_bytes_sent_total")/1024)
	fmt.Fprintf(os.Stderr, "  peer cells recv  %d (%.1f KiB)\n",
		count("coca_federation_cells_recv_total"), snap.Value("coca_federation_sync_bytes_recv_total")/1024)
	if d, a := telemetry.OverloadDrains.Load(telemetry.DrainDrained), telemetry.OverloadDrains.Load(telemetry.DrainAborted); d+a > 0 {
		fmt.Fprintf(os.Stderr, "  drain            %d drained, %d aborted\n", d, a)
	}
	if sync.Errors > 0 {
		fmt.Fprintf(os.Stderr, "  peer sync errors %d (last: %s)\n", sync.Errors, sync.LastError)
	}
	for _, p := range sync.Peers {
		fmt.Fprintf(os.Stderr, "  peer %-4d %-7s addr=%s syncs=%d last-epoch=%d sent=%d resent=%d recv=%d joins=%d\n",
			p.ID, p.State, orDash(p.Addr), p.Syncs, p.LastSyncEpoch, p.CellsSent, p.CellsResent, p.CellsRecv, p.Joins)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
