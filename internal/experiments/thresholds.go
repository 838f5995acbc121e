package experiments

import (
	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/metrics"
	"coca/internal/model"
	"coca/internal/semantics"
)

// Fig5 reproduces Fig. 5: the hit-threshold Θ sweep for VGG16_BN
// (0.027–0.043) and ResNet101 (0.008–0.016), reporting hit ratio, hit
// accuracy, overall accuracy and average latency at each Θ.
func Fig5(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	out := metrics.NewTable("Fig. 5 — threshold Θ sweep (UCF101-50)",
		"Model", "Θ", "Lat.(ms)", "Acc.(%)", "Hit acc.(%)", "Hit ratio (%)")
	cases := []struct {
		arch   *model.Arch
		thetas []float64
	}{
		{model.VGG16BN(), []float64{0.027, 0.031, 0.035, 0.039, 0.043}},
		{model.ResNet101(), []float64{0.008, 0.010, 0.012, 0.014, 0.016}},
	}
	ds := dataset.UCF101().Subset(50)
	for _, c := range cases {
		space := semantics.NewSpace(ds, c.arch)
		for _, theta := range c.thetas {
			ms := newMethodSet(space, 4, theta, 300, opts.frames(300), opts.Seed)
			engines, _, err := ms.coca(theta, nil)
			if err != nil {
				return nil, err
			}
			w := opts.workload(ds)
			s, err := runEngines(engines, w, opts.rounds(6), ms.frames, 1)
			if err != nil {
				return nil, err
			}
			out.AddRow(c.arch.Name, metrics.Fmt(theta, 3),
				metrics.Fmt(s.AvgLatencyMs, 2),
				metrics.Pct(s.Accuracy, 2),
				metrics.Pct(s.HitAccuracy, 2),
				metrics.Pct(s.HitRatio, 1))
		}
	}
	out.AddNote("paper: as Θ rises, hit ratio falls (ResNet101: 95.5%%→88.3%%) while hit accuracy, overall accuracy and latency rise")
	return &Result{ID: "fig5", Table: out}, nil
}

// Fig6 reproduces Fig. 6: the collection-threshold sweeps. For Γ (hit
// reinforcement) and Δ (miss expansion) it reports the absorption ratio —
// collected samples over samples meeting the precondition — and the label
// accuracy of what was collected.
func Fig6(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	ds := dataset.UCF101().Subset(50)
	arch := model.ResNet101()
	theta := thetaFor(arch, true)
	out := metrics.NewTable("Fig. 6 — collection thresholds (ResNet101, UCF101-50)",
		"Threshold", "Value", "Absorption (%)", "Collected acc. (%)")

	run := func(gamma, delta float64) (core.CollectionStats, error) {
		space := semantics.NewSpace(ds, arch)
		ms := newMethodSet(space, 4, theta, 300, opts.frames(300), opts.Seed)
		engines, clients, err := ms.coca(theta, func(c *core.ClientConfig, _ *core.ServerConfig) {
			c.GammaCollect = gamma
			c.DeltaCollect = delta
		})
		if err != nil {
			return core.CollectionStats{}, err
		}
		w := opts.workload(ds)
		if _, err := runEngines(engines, w, opts.rounds(5), ms.frames, 0); err != nil {
			return core.CollectionStats{}, err
		}
		var total core.CollectionStats
		for _, c := range clients {
			cs := c.Collection()
			total.Hits += cs.Hits
			total.HitAbsorbed += cs.HitAbsorbed
			total.HitAbsorbedCorrect += cs.HitAbsorbedCorrect
			total.Misses += cs.Misses
			total.MissAbsorbed += cs.MissAbsorbed
			total.MissAbsorbedCorrect += cs.MissAbsorbedCorrect
		}
		return total, nil
	}

	// Γ sweep. The paper sweeps 0.02–0.14; our feature geometry
	// compresses discriminative scores ~2×, so the equivalent range is
	// 0.01–0.07 (documented in EXPERIMENTS.md).
	for _, gamma := range []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07} {
		cs, err := run(gamma, 1e9)
		if err != nil {
			return nil, err
		}
		ratio, acc := 0.0, 0.0
		if cs.Hits > 0 {
			ratio = float64(cs.HitAbsorbed) / float64(cs.Hits)
		}
		if cs.HitAbsorbed > 0 {
			acc = float64(cs.HitAbsorbedCorrect) / float64(cs.HitAbsorbed)
		}
		out.AddRow("Γ", metrics.Fmt(gamma, 2), metrics.Pct(ratio, 2), metrics.Pct(acc, 1))
	}
	// Δ sweep (paper values verbatim).
	for _, delta := range []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35} {
		cs, err := run(1e9, delta)
		if err != nil {
			return nil, err
		}
		ratio, acc := 0.0, 0.0
		if cs.Misses > 0 {
			ratio = float64(cs.MissAbsorbed) / float64(cs.Misses)
		}
		if cs.MissAbsorbed > 0 {
			acc = float64(cs.MissAbsorbedCorrect) / float64(cs.MissAbsorbed)
		}
		out.AddRow("Δ", metrics.Fmt(delta, 2), metrics.Pct(ratio, 2), metrics.Pct(acc, 1))
	}
	out.AddNote("paper: absorption falls and collected accuracy rises with both thresholds (Γ=0.14: 0.21%% absorbed; Δ=0.35: 6.47%%, both ~100%% accurate)")
	return &Result{ID: "fig6", Table: out}, nil
}
