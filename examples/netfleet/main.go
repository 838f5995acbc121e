// Network fleet via the public serving API: coca.Serve starts a
// session-serving edge server on loopback, coca.Dial connects each fleet
// client, and the clients run their rounds concurrently — the delta
// protocol end to end with no internal imports. Afterwards a second
// server joins elastically (Options.Federation with Join set): it
// bootstraps everything the first server learned from one snapshot
// instead of replaying history, without the first server being
// reconfigured.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"coca"
)

func main() {
	ctx := context.Background()
	opts := coca.Options{
		Model: "ResNet50", Dataset: "UCF101", Classes: 20,
		NumClients: 3, Rounds: 4, RoundFrames: 100, Budget: 80, Seed: 2,
	}

	srv, clients, err := coca.ServeAndDial(ctx, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("netfleet: serving on %s, %d clients connected\n", srv.Addr(), len(clients))

	var wg sync.WaitGroup
	for id, cl := range clients {
		wg.Add(1)
		go func(id int, cl *coca.Client) {
			defer wg.Done()
			rep, err := cl.Run(ctx, 0)
			if err != nil {
				log.Printf("client %d: %v", id, err)
				return
			}
			fmt.Printf("client %d: %s (cache view v%d)\n", id, rep, cl.ViewVersion())
		}(id, cl)
	}
	wg.Wait()

	for _, cl := range clients {
		_ = cl.Close()
	}
	allocs, merges, sessions := srv.Stats()
	fmt.Printf("server: %d allocations, %d merges, %d open sessions\n", allocs, merges, sessions)

	// Elastic join: a fresh server enters the fleet after the fact and
	// catches up from a snapshot — the whole run's learning in one batch.
	lateOpts := opts
	lateOpts.Federation = &coca.FederationOptions{
		NodeID: 1, Peers: []string{srv.Addr()},
		Join: true, SyncInterval: 20 * time.Millisecond,
	}
	late, err := coca.Serve(ctx, "127.0.0.1:0", lateOpts)
	if err != nil {
		log.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // a few sync ticks: join + snapshot land
	st := late.SyncStats()
	fmt.Printf("late joiner: bootstrapped %d cells (%.1f KiB) via snapshot\n",
		st.CellsRecv, float64(st.BytesRecv)/1024)
	for _, p := range late.PeerStats() {
		fmt.Printf("  peer %d: %s, %d syncs\n", p.ID, p.State, p.Syncs)
	}

	for i, s := range []*coca.Server{late, srv} {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.Shutdown(sctx); err != nil {
			log.Fatalf("shutdown %d: %v", i, err)
		}
		cancel()
	}
	fmt.Println("netfleet: fleet shut down cleanly")
}
