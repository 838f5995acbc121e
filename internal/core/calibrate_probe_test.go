package core

import (
	"context"
	"fmt"
	"testing"

	"coca/internal/dataset"
	"coca/internal/engine"
	"coca/internal/metrics"
	"coca/internal/model"
	"coca/internal/semantics"
	"coca/internal/stream"
	"coca/internal/xrand"
)

// TestCalibrationProbe prints the simulator's operating point for the
// paper's reference configuration (ResNet101, UCF101-50, Θ=0.012). Run with
// -v to inspect. It asserts only broad sanity; the experiment suite checks
// the paper shapes.
func TestCalibrationProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe skipped in -short")
	}
	space := semantics.NewSpace(dataset.UCF101().Subset(50), model.ResNet101())
	cl := newTestFleet(t, space, 2,
		ClientConfig{Theta: 0.012, Budget: 200, RoundFrames: 300, EnvBiasWeight: 0.05},
		ServerConfig{Theta: 0.012, Seed: 7},
		stream.Config{SceneMeanFrames: 25, WorkingSetSize: 15, WorkingSetChurn: 0.05, Seed: 11})
	s := cl.run(t, 6, 1)
	noCache := space.Arch.TotalLatencyMs()
	t.Logf("frames=%d avgLat=%.2fms (no-cache %.2f, reduction %.1f%%) acc=%.2f%% hit=%.1f%% hitAcc=%.2f%% lookup=%.2fms",
		s.Frames, s.AvgLatencyMs, noCache, 100*(1-s.AvgLatencyMs/noCache),
		100*s.Accuracy, 100*s.HitRatio, 100*s.HitAccuracy, s.AvgLookupMs)
	prof := cl.server.Profile()
	t.Logf("server cumulative profile R: %v", fmtF(prof))
	alloc := cl.clients[0].Cache()
	t.Logf("client0 sites=%v entries=%d", alloc.Sites(), alloc.NumEntries())
	if s.HitRatio < 0.2 {
		t.Errorf("hit ratio %v too low — geometry/threshold miscalibrated", s.HitRatio)
	}
	if s.AvgLatencyMs >= noCache {
		t.Errorf("caching made latency worse: %v >= %v", s.AvgLatencyMs, noCache)
	}
	if s.Accuracy < 0.60 {
		t.Errorf("accuracy collapsed: %v", s.Accuracy)
	}
}

// testFleet is one server and its clients on a shared stream partition:
// the in-process fleet the calibration and diagnostic probes drive, through
// engine.RunRounds or round by round.
type testFleet struct {
	server  *Server
	clients []*Client
	gens    []*stream.Generator
	frames  int
}

func newTestFleet(t *testing.T, space *semantics.Space, n int, ccfg ClientConfig, scfg ServerConfig, wl stream.Config) *testFleet {
	t.Helper()
	wl.Dataset, wl.NumClients = space.DS, n
	part, err := stream.NewPartition(wl)
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{server: NewServer(space, scfg), frames: ccfg.RoundFrames}
	for k := 0; k < n; k++ {
		cfg := ccfg
		cfg.ID, cfg.EnvSeed = k, uint64(k)+1
		cl, err := NewClient(context.Background(), space, f.server, cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.clients = append(f.clients, cl)
		f.gens = append(f.gens, part.Client(k))
	}
	return f
}

// run drives the fleet concurrently for rounds and summarizes all but the
// first skip of them.
func (f *testFleet) run(t *testing.T, rounds, skip int) metrics.Summary {
	t.Helper()
	engines := make([]engine.Engine, len(f.clients))
	for k, cl := range f.clients {
		engines[k] = cl
	}
	_, combined, err := engine.RunRounds(engines, f.gens, engine.RunConfig{
		Rounds: rounds, FramesPerRound: f.frames, SkipRounds: skip, Concurrent: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return combined.Summary()
}

func fmtF(xs []float64) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.2f", x)
	}
	return out
}

// TestCalibrationRepresentative runs CoCa on the paper-style workload
// (mild non-IID, long-tail popularity) and checks the headline claim:
// substantial latency reduction at small accuracy loss.
func TestCalibrationRepresentative(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe skipped in -short")
	}
	ds := dataset.UCF101().Subset(50)
	space := semantics.NewSpace(ds, model.ResNet101())
	cl := newTestFleet(t, space, 4,
		ClientConfig{Theta: 0.012, Budget: 300, RoundFrames: 300, EnvBiasWeight: 0.05},
		ServerConfig{Theta: 0.012, Seed: 7},
		stream.Config{
			ClassWeights:    xrand.LongTailWeights(50, 10),
			NonIIDLevel:     1,
			SceneMeanFrames: 25,
			WorkingSetSize:  15,
			WorkingSetChurn: 0.05,
			Seed:            11,
		})
	s := cl.run(t, 8, 2)
	noCache := space.Arch.TotalLatencyMs()
	// Edge-Only accuracy on the same streams for the loss comparison.
	part, err := stream.NewPartition(stream.Config{
		Dataset:         ds,
		NumClients:      4,
		ClassWeights:    xrand.LongTailWeights(50, 10),
		NonIIDLevel:     1,
		SceneMeanFrames: 25,
		WorkingSetSize:  15,
		WorkingSetChurn: 0.05,
		Seed:            11,
	})
	if err != nil {
		t.Fatal(err)
	}
	correct, n := 0, 0
	for k := 0; k < 4; k++ {
		g := part.Client(k)
		env := cl.clients[k].Env()
		for f := 0; f < 8*300; f++ {
			smp := g.Next()
			if space.Predict(smp, env).Class == smp.Class {
				correct++
			}
			n++
		}
	}
	edgeAcc := float64(correct) / float64(n)
	reduction := 1 - s.AvgLatencyMs/noCache
	loss := edgeAcc - s.Accuracy
	t.Logf("CoCa: lat=%.2fms (reduction %.1f%%) acc=%.2f%% (edge %.2f%%, loss %.2f%%) hit=%.1f%% hitAcc=%.1f%%",
		s.AvgLatencyMs, 100*reduction, 100*s.Accuracy, 100*edgeAcc, 100*loss, 100*s.HitRatio, 100*s.HitAccuracy)
	if reduction < 0.20 {
		t.Errorf("latency reduction %.3f below paper's 23%% floor", reduction)
	}
	if loss > 0.05 {
		t.Errorf("accuracy loss %.3f exceeds 5%%", loss)
	}
}
