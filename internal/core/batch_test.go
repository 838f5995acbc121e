package core

import (
	"context"
	"fmt"
	"testing"

	"coca/internal/dataset"
	"coca/internal/engine"
	"coca/internal/model"
	"coca/internal/semantics"
	"coca/internal/stream"
)

// batchTestStack builds an isolated server+client+generator trio so two
// runs can be compared without sharing mutable global-table state.
func batchTestStack(t testing.TB, ccfg ClientConfig) (*Client, *stream.Generator) {
	t.Helper()
	space := semantics.NewSpace(dataset.UCF101().Subset(30), model.ResNet50())
	srv := NewServer(space, ServerConfig{Theta: 0.012, Seed: 7})
	if ccfg.Theta == 0 {
		ccfg.Theta = 0.012
	}
	if ccfg.Budget == 0 {
		ccfg.Budget = 150
	}
	if ccfg.RoundFrames == 0 {
		ccfg.RoundFrames = 120
	}
	client, err := NewClient(context.Background(), space, srv, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	part, err := stream.NewPartition(stream.Config{
		Dataset: space.DS, NumClients: 1, SceneMeanFrames: 20,
		WorkingSetSize: 10, WorkingSetChurn: 0.05, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return client, part.Client(0)
}

// TestInferBatchMatchesSequential is the core equivalence guarantee: a
// batch of inferences must be indistinguishable — results, collection
// statistics, uploaded updates, everything — from the same frames pushed
// one at a time, for identical seeds.
func TestInferBatchMatchesSequential(t *testing.T) {
	for _, cfg := range []ClientConfig{
		{},                    // plain
		{EnvBiasWeight: 0.05}, // client feature bias
		{EnvBiasWeight: 0.05, DriftWeight: 0.05, DriftPerRound: 0.3}, // + drift
		{DisableCollection: true},
		{PredictedLabelStatus: true},
	} {
		seq, seqGen := batchTestStack(t, cfg)
		bat, batGen := batchTestStack(t, cfg)

		const rounds, frames, batch = 3, 120, 32
		for round := 0; round < rounds; round++ {
			if err := seq.BeginRound(); err != nil {
				t.Fatal(err)
			}
			if err := bat.BeginRound(); err != nil {
				t.Fatal(err)
			}
			seqRes := make([]engine.Result, 0, frames)
			for f := 0; f < frames; f++ {
				seqRes = append(seqRes, seq.Infer(seqGen.Next()))
			}
			batRes := make([]engine.Result, 0, frames)
			buf := make([]dataset.Sample, batch)
			for f := 0; f < frames; f += batch {
				n := frames - f
				if n > batch {
					n = batch
				}
				batRes = append(batRes, bat.InferBatch(batGen.NextBatch(buf[:n]))...)
			}
			for i := range seqRes {
				if seqRes[i] != batRes[i] {
					t.Fatalf("cfg %+v round %d frame %d: sequential %+v != batched %+v",
						cfg, round, i, seqRes[i], batRes[i])
				}
			}
			if err := seq.EndRound(); err != nil {
				t.Fatal(err)
			}
			if err := bat.EndRound(); err != nil {
				t.Fatal(err)
			}
		}
		if seq.Collection() != bat.Collection() {
			t.Fatalf("cfg %+v: collection stats diverged: %+v != %+v", cfg, seq.Collection(), bat.Collection())
		}
	}
}

// TestClusterBatchSizeInvariant runs the same cluster configuration with
// and without batching and requires identical metrics end to end (the
// batched round driver must only change the execution schedule).
func TestClusterBatchSizeInvariant(t *testing.T) {
	run := func(batch int) []float64 {
		space := semantics.NewSpace(dataset.UCF101().Subset(20), model.ResNet50())
		cl, err := NewCluster(space, ClusterConfig{
			NumClients: 3,
			Client:     ClientConfig{Theta: 0.012, Budget: 120, RoundFrames: 90, EnvBiasWeight: 0.05},
			Server:     ServerConfig{Theta: 0.012, Seed: 3},
			Stream:     stream.Config{SceneMeanFrames: 20, WorkingSetSize: 8, WorkingSetChurn: 0.05, Seed: 9},
			Rounds:     3, SkipRounds: 1, BatchSize: batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		per, combined, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		sum := combined.Summary()
		out := []float64{sum.AvgLatencyMs, sum.Accuracy, sum.HitRatio, float64(sum.Frames)}
		for _, acc := range per {
			s := acc.Summary()
			out = append(out, s.AvgLatencyMs, s.Accuracy, s.HitRatio)
		}
		return out
	}
	plain := run(0)
	batched := run(32)
	for i := range plain {
		if plain[i] != batched[i] {
			t.Fatalf("metric %d diverged: %v (frame-at-a-time) != %v (batch=32)", i, plain[i], batched[i])
		}
	}
}

// warmClient drives enough frames through a client that its scratch
// buffers, lookup accumulators and update-table cells reach steady state.
func warmClient(t testing.TB, c *Client, gen *stream.Generator, frames int) {
	t.Helper()
	if err := c.BeginRound(); err != nil {
		t.Fatal(err)
	}
	buf := make([]dataset.Sample, 32)
	for f := 0; f < frames; f += len(buf) {
		c.InferBatch(gen.NextBatch(buf))
	}
}

// TestInferZeroAllocsSteadyState is the allocation-regression guard the
// hot path is built around: once warm, Infer and InferBatch must not
// allocate at all.
func TestInferZeroAllocsSteadyState(t *testing.T) {
	for _, cfg := range []ClientConfig{
		{},
		{DisableCollection: true},
		{EnvBiasWeight: 0.05, DriftWeight: 0.05},
	} {
		client, gen := batchTestStack(t, cfg)
		warmClient(t, client, gen, 1600)

		smp := gen.Next()
		if n := testing.AllocsPerRun(200, func() {
			smp = gen.Next()
			client.Infer(smp)
		}); n != 0 {
			t.Errorf("cfg %+v: Infer allocates %v/op at steady state, want 0", cfg, n)
		}

		batch := gen.Take(32)
		if n := testing.AllocsPerRun(100, func() {
			gen.NextBatch(batch)
			client.InferBatch(batch)
		}); n != 0 {
			t.Errorf("cfg %+v: InferBatch allocates %v/op at steady state, want 0", cfg, n)
		}
	}
}

// BenchmarkInferencePath measures the host cost per sample of the cached
// inference hot path — Client.InferBatch over a warm allocation — across
// batch sizes, at the paper's reference scale (50 classes, 300-entry
// budget) and a fleet scale (100 classes, 1000 entries). ns/op is per
// sample, so sub-benchmarks compare directly: this is the batch-vs-frame
// number the wall-clock harness, which runs batch 1 only, cannot give.
// Stream generation runs outside the timed loop.
func BenchmarkInferencePath(b *testing.B) {
	for _, sc := range []struct {
		name            string
		classes, budget int
	}{{"ref", 50, 300}, {"fleet", 100, 1000}} {
		space := semantics.NewSpace(dataset.UCF101().Subset(sc.classes), model.ResNet101())
		for _, batch := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("scale=%s/batch=%d", sc.name, batch), func(b *testing.B) {
				srv := NewServer(space, ServerConfig{Theta: 0.012, Seed: 1})
				client, err := NewClient(context.Background(), space, srv, ClientConfig{
					Theta: 0.012, Budget: sc.budget, RoundFrames: 300,
				})
				if err != nil {
					b.Fatal(err)
				}
				part, err := stream.NewPartition(stream.Config{
					Dataset: space.DS, NumClients: 1, SceneMeanFrames: 25,
					WorkingSetSize: 15, WorkingSetChurn: 0.05, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				gen := part.Client(0)
				if err := client.BeginRound(); err != nil {
					b.Fatal(err)
				}
				// A ring of pre-drawn batches keeps generation out of the timed
				// loop while still varying the frames each iteration sees; one
				// pass over it before the timer warms the client's scratch.
				const ring = 64
				batches := make([][]dataset.Sample, ring)
				for i := range batches {
					batches[i] = gen.Take(batch)
					client.InferBatch(batches[i])
				}
				b.ReportAllocs()
				b.ResetTimer()
				// Exactly b.N samples pass through, so ns/op is per sample at
				// every batch size (the final batch is trimmed to the remainder).
				for n := 0; n < b.N; n += batch {
					chunk := batches[(n/batch)%ring]
					if left := b.N - n; left < len(chunk) {
						chunk = chunk[:left]
					}
					client.InferBatch(chunk)
				}
			})
		}
	}
}
