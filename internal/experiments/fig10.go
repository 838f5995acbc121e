package experiments

import (
	"fmt"
	"sort"

	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/metrics"
	"coca/internal/model"
	"coca/internal/xrand"
)

// Fig10a reproduces Fig. 10(a): the update-cycle F sweep on VGG16_BN with
// a long-tail 100-class UCF101 workload — latency improves then stabilizes
// for F ≥ 300 while accuracy slowly declines as caches go stale.
func Fig10a(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	ds := dataset.UCF101().Subset(100)
	arch := model.VGG16BN()
	space := newSpace(ds, arch)
	theta := thetaFor(arch, true)
	out := metrics.NewTable("Fig. 10(a) — update cycle F (VGG16_BN, long-tail UCF101-100)",
		"F", "Lat.(ms)", "Acc.(%)", "Hit(%)")

	const totalFrames = 5400 // fixed horizon: rounds = horizon / F
	const fleet = 6
	for _, F := range []int{150, 300, 450, 600, 750, 900} {
		frames := opts.frames(F)
		rounds := totalFrames / F
		if rounds < 3 {
			rounds = 3
		}
		skip := 900 / F // warm-up: first ~900 frames
		if skip < 1 {
			skip = 1
		}
		// Per-round coordination: with short cycles, clients contend for
		// the server more often and each round pays the request waiting
		// time (§VI-I); amortized over the round's frames this dominates
		// the small-F regime exactly as the paper reports.
		coord := simulateResponseLatency(arch, ds, fleet*10, opts.Seed) + 300
		ms := newMethodSet(space, fleet, theta, 300, frames, opts.Seed)
		// Drift makes cache freshness matter, so long cycles cost
		// accuracy. Drift advances per wall-clock round, so its
		// per-frame rate is held constant across F values.
		engines, _, err := ms.coca(theta, func(c *core.ClientConfig, _ *core.ServerConfig) {
			c.DriftWeight = 0.04
			c.DriftPerRound = 0.08 * float64(F) / 300.0
			c.CoordPerRoundMs = coord
		})
		if err != nil {
			return nil, err
		}
		w := opts.workload(ds)
		w.classWeights = xrand.LongTailWeights(ds.NumClasses, 90)
		s, err := runEngines(engines, w, opts.rounds(rounds), frames, skip)
		if err != nil {
			return nil, err
		}
		out.AddRow(fmt.Sprintf("%d", F),
			metrics.Fmt(s.AvgLatencyMs, 2),
			metrics.Pct(s.Accuracy, 2),
			metrics.Pct(s.HitRatio, 1))
	}
	out.AddNote("paper: latency falls from 26.54 ms (F=150) to 24.02 ms (F=900) and stabilizes past F=300; accuracy declines slightly")
	return &Result{ID: "fig10a", Table: out}, nil
}

// Fig10b reproduces Fig. 10(b): the cache-request response latency as the
// fleet grows from 60 to 160 clients, for four models.
//
// Rather than instantiating hundreds of full clients, this experiment uses
// a discrete-event queue simulation faithful to the deployment: each
// client issues an allocation request every F frames of inference (its
// round time varies with its own average latency), the server handles
// requests FIFO with a processing cost proportional to the global-table
// work (I × L), and the response latency is queueing delay + processing +
// network round-trip. This matches §VI-I, which measures request/response
// latency under contention, not inference latency.
func Fig10b(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	out := metrics.NewTable("Fig. 10(b) — cache-request response latency vs clients",
		"Clients", "VGG16_BN (ms)", "ResNet50 (ms)", "ResNet101 (ms)", "AST (ms)")

	type modelCase struct {
		arch *model.Arch
		ds   *dataset.Spec
	}
	cases := []modelCase{
		{model.VGG16BN(), dataset.UCF101().Subset(100)},
		{model.ResNet50(), dataset.UCF101().Subset(100)},
		{model.ResNet101(), dataset.UCF101().Subset(100)},
		{model.ASTBase(), dataset.ESC50()},
	}
	clientCounts := []int{60, 80, 100, 120, 140, 160}
	results := make([][]float64, len(cases))
	for ci, c := range cases {
		for _, n := range clientCounts {
			results[ci] = append(results[ci], simulateResponseLatency(c.arch, c.ds, n, opts.Seed))
		}
	}
	for i, n := range clientCounts {
		row := []string{fmt.Sprintf("%d", n)}
		for ci := range cases {
			row = append(row, metrics.Fmt(results[ci][i], 2))
		}
		out.AddRow(row...)
	}
	out.AddNote("paper: ResNet101 response latency rises from 56.70 ms (60 clients) to 60.93 ms (160), +7.46%%")
	return &Result{ID: "fig10b", Table: out}, nil
}

// simulateResponseLatency runs the FIFO queue model for several rounds and
// returns the mean response latency of allocation requests.
func simulateResponseLatency(arch *model.Arch, ds *dataset.Spec, clients int, seed uint64) float64 {
	const (
		F          = 300  // frames per round
		rounds     = 8    // simulated rounds
		networkRTT = 38.0 // ms: request+response transfer incl. the cache payload
	)
	// Server processing: ACA scoring over I classes plus sub-table
	// extraction and merge application over the allocated layers'
	// entries, under the global-cache lock.
	procMs := 0.9 + 0.0045*float64(ds.NumClasses)*float64(arch.NumLayers)
	// Clients' round durations vary with their cache effectiveness; model
	// the average frame latency as 55–75% of the uncached pass.
	r := xrand.New(seed, 0xF10B, uint64(clients), uint64(arch.NumLayers))
	roundDur := make([]float64, clients)
	offset := make([]float64, clients)
	for k := range roundDur {
		frac := 0.55 + 0.20*r.Float64()
		roundDur[k] = float64(F) * arch.TotalLatencyMs() * frac
		// Clients boot at staggered times within their first round.
		offset[k] = r.Float64() * roundDur[k]
	}
	type request struct{ at float64 }
	var reqs []request
	for k := 0; k < clients; k++ {
		for rd := 0; rd < rounds; rd++ {
			reqs = append(reqs, request{at: offset[k] + float64(rd)*roundDur[k]})
		}
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].at < reqs[j].at })
	var busyUntil float64
	var total float64
	for _, q := range reqs {
		start := q.at
		if busyUntil > start {
			start = busyUntil
		}
		finish := start + procMs
		busyUntil = finish
		total += (finish - q.at) + networkRTT
	}
	return total / float64(len(reqs))
}
