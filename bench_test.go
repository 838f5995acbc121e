// Benchmarks regenerating every table and figure of the paper's evaluation
// at reduced scale: one testing.B benchmark per artifact, reporting the
// headline virtual-latency metrics via b.ReportMetric so `go test -bench`
// output doubles as a compact reproduction summary. Full-scale runs are
// produced by cmd/coca-bench (see EXPERIMENTS.md).
package coca

import (
	"strconv"
	"testing"

	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/experiments"
	"coca/internal/federation"
	"coca/internal/model"
	"coca/internal/semantics"
	"coca/internal/stream"
	"coca/internal/xrand"
)

// benchExperiment runs a registered experiment once per iteration at
// benchmark scale.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(experiments.Options{Scale: 0.25, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1a(b *testing.B)  { benchExperiment(b, "fig1a") }
func BenchmarkFig1b(b *testing.B)  { benchExperiment(b, "fig1b") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10a(b *testing.B) { benchExperiment(b, "fig10a") }
func BenchmarkFig10b(b *testing.B) { benchExperiment(b, "fig10b") }

// --- Ablation benches for the design decisions DESIGN.md calls out ---

// BenchmarkAblationLayerSelection compares ACA's residual-discount greedy
// layer selection against naive top-k ζ selection.
func BenchmarkAblationLayerSelection(b *testing.B) {
	space := semantics.NewSpace(dataset.UCF101().Subset(50), model.ResNet101())
	srv := core.NewServer(space, core.ServerConfig{Theta: 0.012, Seed: 1})
	profile := srv.Profile()
	saved := make([]float64, len(profile))
	for j := range saved {
		saved[j] = space.Arch.RemainingLatencyMs(j)
	}
	run := func(maxLayers int) float64 {
		in := core.ACAInput{
			GlobalFreq:  xrand.Uniform(50),
			Tau:         make([]int, 50),
			HitRatio:    profile,
			SavedMs:     saved,
			Budget:      300,
			RoundFrames: 300,
			MaxLayers:   maxLayers,
		}
		res, err := core.RunACA(in)
		if err != nil {
			b.Fatal(err)
		}
		return float64(len(res.Layers))
	}
	var layers float64
	for i := 0; i < b.N; i++ {
		layers = run(0)
	}
	b.ReportMetric(layers, "layers-selected")
}

// BenchmarkAblationHotspotScore compares Eq. 10's frequency×recency score
// against pure-frequency scoring: how many of the truly recent classes
// each selects.
func BenchmarkAblationHotspotScore(b *testing.B) {
	const classes = 50
	freq := make([]float64, classes)
	tau := make([]int, classes)
	r := xrand.New(7)
	for i := range freq {
		freq[i] = 10 + r.Float64()*200
		tau[i] = r.IntN(1500)
	}
	profile := []float64{0.3, 0.5, 0.7}
	saved := []float64{30, 20, 10}
	var eq10Recent float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunACA(core.ACAInput{
			GlobalFreq: freq, Tau: tau, HitRatio: profile, SavedMs: saved,
			Budget: 60, RoundFrames: 300,
		})
		if err != nil {
			b.Fatal(err)
		}
		recent := 0
		for _, c := range res.Classes {
			if tau[c] < 300 {
				recent++
			}
		}
		if len(res.Classes) > 0 {
			eq10Recent = float64(recent) / float64(len(res.Classes))
		}
	}
	b.ReportMetric(100*eq10Recent, "recent-class-share-%")
}

// BenchmarkAblationGamma probes the sensitivity of global-update tracking
// to the Eq. 4 decay γ under semantic drift.
func BenchmarkAblationGamma(b *testing.B) {
	for _, gamma := range []float64{0.90, 0.99} {
		b.Run("gamma="+strconv.FormatFloat(gamma, 'f', 2, 64), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				space := semantics.NewSpace(dataset.UCF101().Subset(20), model.ResNet101())
				cl, err := federation.NewCluster(space, federation.ClusterConfig{
					NumServers: 1,
					NumClients: 4,
					Client: core.ClientConfig{
						Theta: 0.012, Budget: 200, RoundFrames: 100,
						EnvBiasWeight: 0.05, DriftWeight: 0.05, DriftPerRound: 0.2,
					},
					Server: core.ServerConfig{Theta: 0.012, Seed: 1, Gamma: gamma},
					Stream: stream.Config{SceneMeanFrames: 25, WorkingSetSize: 8, WorkingSetChurn: 0.05, Seed: 2},
					Rounds: 4, SkipRounds: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				combined, err := cl.Run()
				if err != nil {
					b.Fatal(err)
				}
				acc = combined.Summary().Accuracy
			}
			b.ReportMetric(100*acc, "accuracy-%")
		})
	}
}

// BenchmarkAblationNoiseProfile verifies the difficulty-coupled depth-noise
// design: the per-layer hit-ratio profile must be non-trivial (neither all
// shallow nor all deep).
func BenchmarkAblationNoiseProfile(b *testing.B) {
	space := semantics.NewSpace(dataset.UCF101().Subset(50), model.ResNet101())
	var shallowShare float64
	for i := 0; i < b.N; i++ {
		srv := core.NewServer(space, core.ServerConfig{Theta: 0.012, Seed: uint64(i) + 1, ProfileSamples: 300})
		profile := srv.Profile()
		L := len(profile)
		shallowShare = profile[L/4] / profile[L-1]
	}
	b.ReportMetric(100*shallowShare, "hits-by-quarter-depth-%")
}
