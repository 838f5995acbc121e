package core

import (
	"testing"

	"coca/internal/cache"
	"coca/internal/dataset"
	"coca/internal/model"
	"coca/internal/semantics"
	"coca/internal/stream"
	"coca/internal/xrand"
)

// TestDiagHitAnatomy dissects where cache hits land and how accurate they
// are, layer by layer, with the full 50-class cache — isolating lookup
// quality from allocation effects. Diagnostic output via -v.
func TestDiagHitAnatomy(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	space := semantics.NewSpace(dataset.UCF101().Subset(50), model.ResNet101())
	srv := NewServer(space, ServerConfig{Theta: 0.012, Seed: 7})
	tbl := srv.Table()
	arch := space.Arch
	ds := space.DS
	all := make([]int, ds.NumClasses)
	for i := range all {
		all[i] = i
	}
	layers := make([]cache.Layer, arch.NumLayers)
	for j := range layers {
		cls, entries, _ := tbl.ExtractLayerEntriesInto(j, all, nil, nil, nil)
		layers[j] = cache.Layer{Site: j, Classes: cls, Entries: entries}
	}
	lookup := cache.NewLookup(cache.Config{Alpha: 0.5, Theta: 0.012})
	r := xrand.New(42)
	const N = 3000
	type bucket struct{ hits, correct int }
	perLayer := make([]bucket, arch.NumLayers)
	var hits, correct, easyHits, easyCorrect, hardHits, hardCorrect int
	for n := 0; n < N; n++ {
		smp := ds.NewSample(r.IntN(ds.NumClasses), 0xD1A6, uint64(n))
		lookup.Reset()
		for j := 0; j < arch.NumLayers; j++ {
			vec := space.SampleVector(smp, j, nil)
			res := lookup.Probe(&layers[j], vec)
			if res.Hit {
				hits++
				ok := res.Class == smp.Class
				if ok {
					correct++
				}
				perLayer[j].hits++
				if ok {
					perLayer[j].correct++
				}
				if smp.Difficulty < space.ErrThreshold() {
					easyHits++
					if ok {
						easyCorrect++
					}
				} else {
					hardHits++
					if ok {
						hardCorrect++
					}
				}
				break
			}
		}
	}
	t.Logf("full-cache: hitRatio=%.1f%% hitAcc=%.1f%%", 100*float64(hits)/N, 100*float64(correct)/float64(hits))
	t.Logf("easy hits: %d acc=%.1f%%  hard hits: %d acc=%.1f%%",
		easyHits, 100*float64(easyCorrect)/float64(max(easyHits, 1)),
		hardHits, 100*float64(hardCorrect)/float64(max(hardHits, 1)))
	for j, b := range perLayer {
		if b.hits > 0 {
			t.Logf("layer %2d: hits=%4d (%.1f%%) acc=%.1f%%", j, b.hits, 100*float64(b.hits)/N, 100*float64(b.correct)/float64(b.hits))
		}
	}
	if float64(correct)/float64(hits) < 0.70 {
		t.Errorf("full-cache hit accuracy %.3f below 0.70", float64(correct)/float64(hits))
	}
}

// TestDiagClusterAnatomy dissects the full multi-client pipeline: hit
// accuracy split by whether the sample's class was cached, and collection
// behaviour.
func TestDiagClusterAnatomy(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	space := semantics.NewSpace(dataset.UCF101().Subset(50), model.ResNet101())
	cl := newTestFleet(t, space, 2,
		ClientConfig{Theta: 0.012, Budget: 200, RoundFrames: 300, EnvBiasWeight: 0.05},
		ServerConfig{Theta: 0.012, Seed: 7},
		streamConfigDiag())
	type counts struct{ n, hit, hitCorrect, missCorrect int }
	var cached, uncached counts
	for round := 0; round < 6; round++ {
		for k, client := range cl.clients {
			if err := client.BeginRound(); err != nil {
				t.Fatal(err)
			}
			covered := make(map[int]bool)
			for _, layer := range client.Cache().Layers() {
				for _, c := range layer.Classes {
					covered[c] = true
				}
			}
			for f := 0; f < 300; f++ {
				smp := cl.gens[k].Next()
				res := client.Infer(smp)
				b := &uncached
				if covered[smp.Class] {
					b = &cached
				}
				b.n++
				if res.Hit {
					b.hit++
					if res.Pred == smp.Class {
						b.hitCorrect++
					}
				} else if res.Pred == smp.Class {
					b.missCorrect++
				}
			}
			if err := client.EndRound(); err != nil {
				t.Fatal(err)
			}
		}
	}
	report := func(name string, c counts) {
		if c.n == 0 {
			return
		}
		t.Logf("%s: frames=%d hitRatio=%.1f%% hitAcc=%.1f%% missAcc=%.1f%%",
			name, c.n, 100*float64(c.hit)/float64(c.n),
			100*float64(c.hitCorrect)/float64(max(c.hit, 1)),
			100*float64(c.missCorrect)/float64(max(c.n-c.hit, 1)))
	}
	report("cached-class  ", cached)
	report("uncached-class", uncached)
	cs := cl.clients[0].Collection()
	t.Logf("collection client0: hits=%d absorbed=%d (acc %.1f%%), misses=%d absorbed=%d (acc %.1f%%)",
		cs.Hits, cs.HitAbsorbed, 100*float64(cs.HitAbsorbedCorrect)/float64(max(cs.HitAbsorbed, 1)),
		cs.Misses, cs.MissAbsorbed, 100*float64(cs.MissAbsorbedCorrect)/float64(max(cs.MissAbsorbed, 1)))
}

func streamConfigDiag() stream.Config {
	return stream.Config{SceneMeanFrames: 25, WorkingSetSize: 15, WorkingSetChurn: 0.05, Seed: 11}
}
