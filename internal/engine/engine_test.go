package engine

import (
	"errors"
	"testing"

	"coca/internal/dataset"
	"coca/internal/stream"
)

// scriptedEngine returns canned results and records hook calls.
type scriptedEngine struct {
	latency     float64
	begins      int
	ends        int
	frames      int
	failBegin   bool
	failEnd     bool
	correctness bool
}

func (s *scriptedEngine) Infer(smp dataset.Sample) Result {
	s.frames++
	pred := smp.Class
	if !s.correctness {
		pred = smp.Class + 1
	}
	return Result{Pred: pred, LatencyMs: s.latency, Hit: s.frames%2 == 0, HitLayer: 3}
}

func (s *scriptedEngine) BeginRound() error {
	s.begins++
	if s.failBegin {
		return errors.New("begin failed")
	}
	return nil
}

func (s *scriptedEngine) EndRound() error {
	s.ends++
	if s.failEnd {
		return errors.New("end failed")
	}
	return nil
}

func gens(t *testing.T, n int) []*stream.Generator {
	t.Helper()
	part, err := stream.NewPartition(stream.Config{
		Dataset: dataset.ESC50().Subset(10), NumClients: n,
		SceneMeanFrames: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*stream.Generator, n)
	for i := range out {
		out[i] = part.Client(i)
	}
	return out
}

func TestRunRoundsBasics(t *testing.T) {
	e1 := &scriptedEngine{latency: 10, correctness: true}
	e2 := &scriptedEngine{latency: 20}
	per, combined, err := RunRounds([]Engine{e1, e2}, gens(t, 2), RunConfig{
		Rounds: 3, FramesPerRound: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e1.begins != 3 || e1.ends != 3 || e2.begins != 3 {
		t.Fatalf("hooks: %d/%d/%d", e1.begins, e1.ends, e2.begins)
	}
	if combined.Frames() != 2*3*40 {
		t.Fatalf("combined frames = %d", combined.Frames())
	}
	s1 := per[0].Summary()
	s2 := per[1].Summary()
	if s1.Accuracy != 1 || s2.Accuracy != 0 {
		t.Fatalf("accuracies %v / %v", s1.Accuracy, s2.Accuracy)
	}
	if s1.AvgLatencyMs != 10 || s2.AvgLatencyMs != 20 {
		t.Fatalf("latencies %v / %v", s1.AvgLatencyMs, s2.AvgLatencyMs)
	}
}

func TestRunRoundsSkipRounds(t *testing.T) {
	e := &scriptedEngine{latency: 5}
	_, combined, err := RunRounds([]Engine{e}, gens(t, 1), RunConfig{
		Rounds: 4, FramesPerRound: 10, SkipRounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if combined.Frames() != 10 {
		t.Fatalf("frames = %d, want only the last round", combined.Frames())
	}
	if e.frames != 40 {
		t.Fatalf("engine saw %d frames, want all 40", e.frames)
	}
}

func TestRunRoundsValidation(t *testing.T) {
	if _, _, err := RunRounds([]Engine{&scriptedEngine{}}, gens(t, 2), RunConfig{Rounds: 1, FramesPerRound: 1}); err == nil {
		t.Error("engine/generator mismatch accepted")
	}
	if _, _, err := RunRounds([]Engine{&scriptedEngine{}}, gens(t, 1), RunConfig{Rounds: 0, FramesPerRound: 1}); err == nil {
		t.Error("zero rounds accepted")
	}
}

func TestRunRoundsHookErrorsAbort(t *testing.T) {
	if _, _, err := RunRounds([]Engine{&scriptedEngine{failBegin: true}}, gens(t, 1), RunConfig{Rounds: 1, FramesPerRound: 5}); err == nil {
		t.Error("begin failure not surfaced")
	}
	if _, _, err := RunRounds([]Engine{&scriptedEngine{failEnd: true}}, gens(t, 1), RunConfig{Rounds: 1, FramesPerRound: 5}); err == nil {
		t.Error("end failure not surfaced")
	}
}

// TestWorkerPoolMatchesSequential pins the concurrent round's determinism
// contract: a concurrent run must produce exactly the metrics of the
// sequential schedule (per-client work is client-local; the upload barrier
// orders the rest), across client counts around the shard widths.
func TestWorkerPoolMatchesSequential(t *testing.T) {
	for _, clients := range []int{1, 2, 5, 9} {
		run := func(concurrent bool) []float64 {
			engines := make([]Engine, clients)
			for i := range engines {
				engines[i] = &scriptedEngine{latency: float64(1 + i), correctness: i%2 == 0}
			}
			per, combined, err := RunRounds(engines, gens(t, clients), RunConfig{
				Rounds: 4, FramesPerRound: 7, SkipRounds: 1, Concurrent: concurrent,
			})
			if err != nil {
				t.Fatal(err)
			}
			out := []float64{combined.Summary().AvgLatencyMs, combined.Summary().Accuracy, combined.Summary().HitRatio}
			for _, acc := range per {
				s := acc.Summary()
				out = append(out, s.AvgLatencyMs, s.Accuracy, s.HitRatio)
			}
			return out
		}
		seq := run(false)
		con := run(true)
		for i := range seq {
			if seq[i] != con[i] {
				t.Fatalf("clients=%d metric %d: sequential %v != concurrent %v", clients, i, seq[i], con[i])
			}
		}
	}
}
