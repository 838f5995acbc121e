package experiments

import (
	"context"

	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/gtable"
	"coca/internal/metrics"
	"coca/internal/model"
	"coca/internal/semantics"
	"coca/internal/vecmath"
)

// Fig2 reproduces Fig. 2: 10 clients on a 20-class UCF101 subset whose
// class semantics gradually drift; over several rounds each client uploads
// Eq. 3 update tables built from its inference samples, which the server
// merges into the global cache (Eq. 4/5). After the rounds, the cached
// semantic centers at the middle cache layer are compared against fresh
// sample clusters, with and without the global-update mechanism, via the
// center→cluster cosine and the centers' silhouette against those
// clusters, the two numbers behind what the paper's t-SNE plot shows. No
// embedding is computed: the plot itself is not reproduced.
func Fig2(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	ds := dataset.UCF101().Subset(20)
	arch := model.ResNet101()
	layer := 18 // the paper's probed layer (of 34)
	const (
		numClients      = 10
		samplesPerRound = 20
		driftWeight     = 0.15
		driftPerRound   = 0.40
	)
	rounds := opts.rounds(8)
	ctx := context.Background()
	probeClasses := []int{0, 5, 10, 15} // 4 classes, as in the figure
	const samplesPerClass = 25

	out := metrics.NewTable("Fig. 2 — cluster alignment with/without global updates (layer 18, UCF101-20)",
		"Setting", "Center→cluster cos", "Center silhouette")

	// Client environments share the drift clock; each has a small bias.
	envs := make([]*semantics.Env, numClients)
	space := semantics.NewSpace(ds, arch)
	for k := range envs {
		envs[k] = semantics.NewEnv(uint64(k)+1, 0.05)
		envs[k].DriftWeight = driftWeight
	}
	finalEpoch := float64(rounds) * driftPerRound

	for _, updates := range []bool{false, true} {
		srv := core.NewServer(space, core.ServerConfig{
			Theta: thetaFor(arch, true), Seed: opts.Seed,
			DisableGlobalUpdates: !updates,
		})
		// One coordination session per client, as a real fleet would hold.
		sessions := make([]core.Session, numClients)
		for k := range sessions {
			sess, err := srv.Open(ctx, k)
			if err != nil {
				return nil, err
			}
			sessions[k] = sess
		}
		// Rounds of client uploads: each client absorbs semantic vectors
		// of the samples it inferred (Eq. 3) and uploads them (Eq. 4/5),
		// exactly the §IV-C/D cycle, driven directly so every class and
		// layer receives updates.
		for round := 0; round < rounds; round++ {
			epoch := float64(round) * driftPerRound
			for k := 0; k < numClients; k++ {
				envs[k].DriftEpoch = epoch
				upd := gtable.NewUpdateTable(gtable.DefaultBeta, model.Dim)
				freq := make([]float64, ds.NumClasses)
				for i := 0; i < samplesPerRound; i++ {
					class := (k + i*3) % ds.NumClasses
					smp := ds.NewSample(class, opts.Seed, 0xF2, uint64(round), uint64(k), uint64(i))
					freq[class]++
					_ = upd.Absorb(class, layer, space.SampleVector(smp, layer, envs[k]))
				}
				report := core.UpdateReport{Freq: freq}
				upd.ForEach(func(class, l int, vec []float32, count int) {
					report.Cells = append(report.Cells, core.UpdateCell{
						Class: class, Layer: l, Count: count,
						Vec: append([]float32(nil), vec...),
					})
				})
				if err := sessions[k].Upload(ctx, report); err != nil {
					return nil, err
				}
			}
		}

		// Fresh samples from the current (drifted) distribution.
		envs[0].DriftEpoch = finalEpoch
		var vecs [][]float32
		for _, class := range probeClasses {
			for i := 0; i < samplesPerClass; i++ {
				smp := ds.NewSample(class, opts.Seed, 0xF16, uint64(class), uint64(i))
				vecs = append(vecs, space.SampleVector(smp, layer, envs[0]))
			}
		}
		table := srv.Table()
		var centerCos float64
		for ci, class := range probeClasses {
			mean := vecmath.Mean(vecs[ci*samplesPerClass : (ci+1)*samplesPerClass])
			vecmath.Normalize(mean)
			centerCos += float64(vecmath.Cosine(table.Get(class, layer), mean))
		}
		centerCos /= float64(len(probeClasses))

		// Center silhouette: for each cached center, the silhouette
		// against the sample clusters — the quantity the figure's
		// "larger points sit inside their cluster" conveys.
		var centerSil float64
		for ci, class := range probeClasses {
			var a float64
			bs := make([]float64, 0, len(probeClasses)-1)
			for cj := range probeClasses {
				var d float64
				for i := 0; i < samplesPerClass; i++ {
					d += 1 - float64(vecmath.Cosine(table.Get(class, layer), vecs[cj*samplesPerClass+i]))
				}
				d /= samplesPerClass
				if cj == ci {
					a = d
				} else {
					bs = append(bs, d)
				}
			}
			b := bs[0]
			for _, x := range bs[1:] {
				if x < b {
					b = x
				}
			}
			if mx := max(a, b); mx > 0 {
				centerSil += (b - a) / mx
			}
		}
		centerSil /= float64(len(probeClasses))

		name := "without global updates"
		if updates {
			name = "with global updates"
		}
		out.AddRow(name,
			metrics.Fmt(centerCos, 4),
			metrics.Fmt(centerSil, 3),
		)
	}
	out.AddNote("paper: with global updates the semantic centers align with the current class sample clusters")
	return &Result{ID: "fig2", Table: out}, nil
}
