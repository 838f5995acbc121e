package experiments

import (
	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/metrics"
	"coca/internal/model"
	"coca/internal/semantics"
)

// Fig9 reproduces Fig. 9: the component ablation on a 50-class UCF101
// subset across four models. Normal freezes both components (a static
// first allocation and a static global cache, i.e. plain semantic caching);
// DCA enables dynamic cache allocation only; GCU enables global cache
// updates only; DCA+GCU is full CoCa. The workload includes gradual
// semantic drift, the condition GCU exists to handle.
func Fig9(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	ds := dataset.UCF101().Subset(50)
	out := metrics.NewTable("Fig. 9 — ablation (UCF101-50)",
		"Model", "Arm", "Lat.(ms)", "Acc.(%)", "Hit(%)")

	arms := []struct {
		name               string
		dynAlloc, globUpds bool
	}{
		{"Normal", false, false},
		{"GCU", false, true},
		{"DCA", true, false},
		{"DCA+GCU", true, true},
	}
	for _, arch := range []*model.Arch{model.VGG16BN(), model.ResNet50(), model.ResNet101(), model.ResNet152()} {
		space := semantics.NewSpace(ds, arch)
		theta := thetaFor(arch, true)
		for _, arm := range arms {
			ms := newMethodSet(space, 4, theta, 300, opts.frames(300), opts.Seed)
			engines, _, err := ms.coca(theta, func(c *core.ClientConfig, sc *core.ServerConfig) {
				c.DisableDynamicAllocation = !arm.dynAlloc
				c.DriftWeight = 0.05
				c.DriftPerRound = 0.15
				sc.DisableGlobalUpdates = !arm.globUpds
			})
			if err != nil {
				return nil, err
			}
			w := opts.workload(ds)
			s, err := runEngines(engines, w, opts.rounds(6), ms.frames, 1)
			if err != nil {
				return nil, err
			}
			out.AddRow(arch.Name, arm.name,
				metrics.Fmt(s.AvgLatencyMs, 2),
				metrics.Pct(s.Accuracy, 2),
				metrics.Pct(s.HitRatio, 1))
		}
	}
	out.AddNote("paper: DCA dominates latency reduction (ResNet152: 39.2%% vs GCU's 6.6%%); DCA+GCU best overall")
	return &Result{ID: "fig9", Table: out}, nil
}
