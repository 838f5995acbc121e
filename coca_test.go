package coca

import (
	"strings"
	"testing"
)

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(Options{Classes: 10, RoundFrames: 60, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 4*2*60 {
		t.Fatalf("frames = %d, want 480", rep.Frames)
	}
	if rep.EdgeOnlyLatencyMs <= 0 || rep.AvgLatencyMs <= 0 {
		t.Fatalf("degenerate latencies: %+v", rep)
	}
	if rep.AvgLatencyMs >= rep.EdgeOnlyLatencyMs {
		t.Fatalf("caching did not reduce latency: %v >= %v", rep.AvgLatencyMs, rep.EdgeOnlyLatencyMs)
	}
	if rep.LatencyReduction() <= 0 || rep.LatencyReduction() >= 1 {
		t.Fatalf("reduction = %v", rep.LatencyReduction())
	}
	if len(rep.PerClient) != 4 {
		t.Fatalf("per-client reports = %d", len(rep.PerClient))
	}
	if !strings.Contains(rep.String(), "latency=") {
		t.Fatalf("report string: %q", rep.String())
	}
}

func TestNewSystemUnknownPresets(t *testing.T) {
	if _, err := NewSystem(Options{Model: "BERT"}); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := NewSystem(Options{Dataset: "CIFAR"}); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestNewSystemLongTailAndNonIID(t *testing.T) {
	sys, err := NewSystem(Options{
		Classes: 10, RoundFrames: 60, Rounds: 2,
		LongTailRho: 20, NonIIDLevel: 2, NumClients: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.HitRatio == 0 {
		t.Fatal("no hits on a concentrated workload")
	}
}

func TestSystemDeterministic(t *testing.T) {
	run := func() Report {
		sys, err := NewSystem(Options{Classes: 10, RoundFrames: 60, Rounds: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.AvgLatencyMs != b.AvgLatencyMs || a.Accuracy != b.Accuracy {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}

func TestThetaDefaultPerModel(t *testing.T) {
	for _, tc := range []struct {
		model string
		want  float64
	}{
		{"ResNet101", 0.012},
		{"VGG16_BN", 0.035},
		{"AST", 0.022},
	} {
		o := Options{Model: tc.model}.withDefaults()
		space, _, err := o.resolve()
		if err != nil {
			t.Fatal(err)
		}
		if got := o.theta(space.Arch); got != tc.want {
			t.Errorf("%s theta = %v, want %v", tc.model, got, tc.want)
		}
	}
}

func TestNewSystemRouted(t *testing.T) {
	sys, err := NewSystem(Options{
		Model: "VGG16_BN", Dataset: "ESC-50", Classes: 12,
		NumClients: 8, RoundFrames: 40, Rounds: 3, Budget: 40,
		NonIIDLevel: 4,
		Routing:     &RoutingOptions{Servers: 4, Policy: "semantic", RebalanceEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 8*3*40 {
		t.Fatalf("frames = %d, want %d", rep.Frames, 8*3*40)
	}
	if rep.Routing == nil || rep.Routing.Servers != 4 {
		t.Fatalf("routing report: %+v", rep.Routing)
	}
	if len(rep.PerClient) != 8 {
		t.Fatalf("per-client reports = %d", len(rep.PerClient))
	}
	if rep.HitRatio <= 0 {
		t.Fatalf("degenerate routed run: %+v", rep)
	}
}

func TestNewSystemRoutedBadPolicy(t *testing.T) {
	_, err := NewSystem(Options{Routing: &RoutingOptions{Policy: "nearest"}})
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("bad policy error: %v", err)
	}
}
