package main

import (
	"math"
	"time"

	"coca/internal/cache"
	"coca/internal/core"
	"coca/internal/gtable"
	"coca/internal/model"
	"coca/internal/protocol"
	"coca/internal/routing"
	"coca/internal/stream"
	"coca/internal/vecmath"
)

// Isolated replays run after the traced window, on the run's own captured
// inputs, one layer's public function at a time. They give the per-layer
// unit costs the spans cannot separate (a probe inside Infer, a merge inside
// Upload).

// replayBudget is how long each isolated replay runs.
const replayBudget = 100 * time.Millisecond

// perUnit calls pass until replayBudget has elapsed and returns the
// nanoseconds per unit, where one pass does units units of work.
func perUnit(units int, pass func()) float64 {
	if units == 0 {
		return 0
	}
	passes := 0
	start := time.Now()
	for time.Since(start) < replayBudget {
		pass()
		passes++
	}
	return float64(time.Since(start)) / float64(passes*units)
}

// sink keeps replayed results alive so the calls are not optimised away.
var sink float64

// replayCaptured replays the frames and payloads every traced workload
// captures: the codec over the load connections' frames, the global table
// over the uploaded cells, and the restage over the received delta vectors.
func (b *bench) replayCaptured() {
	v, tr := b.vals, b.tr

	// Each captured frame is decoded and, while the message still lives in
	// the decoder's scratch, re-encoded; the two halves are timed apart.
	var dec protocol.Decoder
	var buf []byte
	var decNs, encNs time.Duration
	var inBytes, outBytes int
	for start := time.Now(); len(tr.frames) > 0 && time.Since(start) < replayBudget; {
		for _, f := range tr.frames {
			t0 := time.Now()
			m, err := dec.Decode(f)
			t1 := time.Now()
			if err != nil {
				b.rep.fail("captured frame does not decode: %v", err)
				continue
			}
			buf, err = protocol.AppendEncode(buf[:0], m)
			t2 := time.Now()
			if err != nil {
				b.rep.fail("captured frame does not re-encode: %v", err)
				continue
			}
			decNs, inBytes = decNs+t1.Sub(t0), inBytes+len(f)
			encNs, outBytes = encNs+t2.Sub(t1), outBytes+len(buf)
		}
	}
	v["protocol.decode_ns_per_kib"] = ratio(float64(decNs), float64(inBytes)/1024)
	v["protocol.encode_ns_per_kib"] = ratio(float64(encNs), float64(outBytes)/1024)

	var cells []core.UpdateCell
	for _, u := range tr.updates {
		cells = append(cells, u.Cells...)
	}
	tbl := gtable.ShardedFromTable(b.sys.node.Server().Table(), 64)
	v["gtable.merge_ns_per_cell"] = perUnit(len(cells), func() {
		for _, c := range cells {
			_ = tbl.Merge(c.Class, c.Layer, c.Vec, gtable.DefaultGamma, float64(c.Count), 160)
		}
	})
	v["gtable.merge_peer_ns_per_cell"] = perUnit(len(cells), func() {
		for _, c := range cells {
			_, _, _ = tbl.MergePeer(c.Class, c.Layer, c.Vec, float64(c.Count), 0, 16, 160)
		}
	})
	classes := make([]int, tbl.Classes())
	for i := range classes {
		classes[i] = i
	}
	var (
		cls     []int
		entries [][]float32
		vers    []uint64
		wide    [][]float64
		norm2   []float64
	)
	v["gtable.extract_ns_per_cell"] = perUnit(tbl.Layers()*len(classes), func() {
		for j := 0; j < tbl.Layers(); j++ {
			cls, entries, vers, wide, norm2 = tbl.ExtractLayerStagedInto(j, classes, cls[:0], entries[:0], vers[:0], wide[:0], norm2[:0])
		}
	})

	nvec := 0
	for _, d := range tr.deltas {
		nvec += len(d)
	}
	v["vecmath.widen_ns_per_vec"] = perUnit(nvec, func() {
		for _, d := range tr.deltas {
			for _, vec := range d {
				_, n2 := vecmath.WidenRow(vec)
				sink += n2
			}
		}
	})
}

// replayInference replays the inference substrate and the cache over a
// streaming client's live layers and its own next samples.
func (b *bench) replayInference(cl *core.Client, gen *stream.Generator) {
	v, u := b.vals, b.sys.u
	v["stream.next_ns_per_frame"] = perUnit(1, func() { sink += float64(gen.Next().Class) })

	smps := gen.Take(256)
	layers := cl.Cache().Layers()
	sc := u.space.NewScratch()
	vecs := make([][][]float32, len(smps))
	for s, smp := range smps {
		vecs[s] = make([][]float32, len(layers))
		for i := range layers {
			vecs[s][i] = make([]float32, model.Dim)
			u.space.SampleVectorInto(vecs[s][i], smp, layers[i].Site, cl.Env(), sc)
		}
	}

	// One pass probes every sample the way Infer does: layers in order,
	// stopping at the first hit. depth[s] is how many layers sample s probed.
	lk := cache.NewLookup(cache.Config{Alpha: cache.DefaultAlpha, Theta: u.sc.theta})
	depth := make([]int, len(smps))
	probePass := func() (probes, entries int) {
		for s := range smps {
			lk.Reset()
			for i := range layers {
				r := lk.Probe(&layers[i], vecs[s][i])
				probes++
				entries += r.Entries
				depth[s] = i + 1
				if r.Hit {
					break
				}
			}
		}
		return probes, entries
	}
	probes, entries := probePass()
	v["cache.entries_per_probe"] = ratio(float64(entries), float64(probes))
	v["cache.probe_ns_per_call"] = perUnit(probes, func() { probePass() })

	// The substrate's share of a frame: one semantic vector per layer the
	// frame probes, and the full-model prediction a miss falls back to.
	v["semantics.sample_ns_per_frame"] = perUnit(len(smps), func() {
		for s, smp := range smps {
			for i := 0; i < depth[s]; i++ {
				u.space.SampleVectorInto(vecs[s][i], smp, layers[i].Site, cl.Env(), sc)
			}
		}
	})
	v["semantics.predict_ns_per_call"] = perUnit(len(smps), func() {
		for _, smp := range smps {
			sink += float64(u.space.PredictScratch(sc, smp, cl.Env()).Class)
		}
	})

	total := 0
	for i := range layers {
		total += layers[i].Len()
	}
	snorm := make([][]float64, len(layers))
	out := make([][]float32, len(layers))
	for i := range layers {
		snorm[i] = make([]float64, layers[i].Len())
		vecmath.SqrtNorms(layers[i].Norm2, snorm[i])
		out[i] = make([]float32, layers[i].Len())
	}
	vec64 := make([]float64, model.Dim)
	v["vecmath.cosines_ns_per_entry"] = perUnit(total, func() {
		for i := range layers {
			sq := math.Sqrt(vecmath.WidenVec(vecs[0][i], vec64))
			vecmath.CosinesWidenedRows(vec64, sq, layers[i].Wide, snorm[i], out[i])
		}
	})

	view := cl.View().Layers()
	v["cache.new_local_us"] = perUnit(1, func() {
		if _, err := cache.NewLocal(view); err != nil {
			b.rep.fail("cache.NewLocal on the client's own view: %v", err)
		}
	}) / 1e3
}

// replayAdmit times the router's admission path alone, over as many backends
// as the front door had.
func (b *bench) replayAdmit(backends int) {
	r := routing.NewRouter(make([]core.Coordinator, backends), routing.Config{})
	const clients = 1024
	b.vals["routing.admit_ns_per_call"] = perUnit(clients, func() {
		for id := 0; id < clients; id++ {
			if _, err := r.Admit(id); err != nil {
				b.rep.fail("isolated Router.Admit refused client %d: %v", id, err)
			}
		}
	})
}
