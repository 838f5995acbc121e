// Acoustic monitoring over a real network: an AST (Audio Spectrogram
// Transformer) fleet classifying environmental sound (ESC-50), with the
// CoCa server and clients talking over TCP loopback through the public
// serving API (coca.ServeAndDial) — the deployment shape of
// cmd/coca-server and cmd/coca-client, self-contained in one process.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"coca"
)

func main() {
	opts := coca.Options{
		Model: "AST", Dataset: "ESC-50",
		NumClients: 3, Rounds: 4, RoundFrames: 150,
		Theta: 0.022, Budget: 200,
		NonIIDLevel: 2, SceneMeanFrames: 30, WorkingSetSize: 10,
		Seed: 5,
	}
	fmt.Printf("acoustic monitoring: %s × %s over TCP, %d sensors\n", opts.Model, opts.Dataset, opts.NumClients)
	ctx := context.Background()
	srv, sensors, err := coca.ServeAndDial(ctx, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()

	for id, sensor := range sensors {
		rep, err := sensor.Run(ctx, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sensor %d: %.2f ms/clip (edge-only %.2f), accuracy %.2f%%, hits %.1f%%\n",
			id, rep.AvgLatencyMs, rep.EdgeOnlyLatencyMs, 100*rep.Accuracy, 100*rep.HitRatio)
		_ = sensor.Close()
	}
	allocs, merges, _ := srv.Stats()
	fmt.Printf("server: %d allocations, %d global-cache merges\n", allocs, merges)
}
