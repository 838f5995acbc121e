package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"coca/internal/dataset"
	"coca/internal/model"
)

// smokeScale is a reduced operating point, small enough for a test.
var smokeScale = scale{
	arch:  model.VGG16BN,
	ds:    func() *dataset.Spec { return dataset.ESC50().Subset(10) },
	theta: 0.035, budget: 40, frames: 60,
	streamClients: 8, epochRounds: 4, recClients: 4, recRounds: 6,
	setupReps: 1, warmup: 100 * time.Millisecond,
}

// TestSmoke runs all four workloads at reduced scale, untraced and traced,
// and checks that every metric of the contract is emitted, finite and
// carries its unit, that nothing else is emitted, and that the output checks
// pass.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name, defs := wl.Name+"/end-to-end", endToEnd
			if traced {
				name, defs = wl.Name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				rep, err := runWorkload(wl, smokeScale, 1, 600*time.Millisecond, traced, out)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.problems)
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, contract names %d", len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s is %v", d.Name, m.Value)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s is %v, want > 0", d.Name, m.Value)
					}
				}
				if traced {
					checkSpanFile(t, filepath.Join(out, wl.Name+"-seed1.spans.jsonl"))
				}
			})
		}
	}
}

// TestQualityFloorFailsRun checks that stream-ref's output check bites: a
// window whose accuracy is under the operating point's floor is not correct.
func TestQualityFloorFailsRun(t *testing.T) {
	sc := smokeScale
	sc.minAccuracyPct = 100
	rep, err := runWorkload(workloads[0], sc, 1, 300*time.Millisecond, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if workloads[0].Name != "stream-ref" || rep.Correct || len(rep.problems) != 1 {
		t.Errorf("%s with an accuracy floor of 100%%: correct=%v, problems %v", workloads[0].Name, rep.Correct, rep.problems)
	}
}

// checkSpanFile checks that the spans of one op share its id: every span
// whose parent was recorded belongs to the same op as that parent.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type rec struct {
		ID, Parent int32
		Op         int64
		Name       string
		Start      int64 `json:"start_ns"`
		End        int64 `json:"end_ns"`
	}
	byID := map[int32]rec{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if r.ID == 0 || r.Name == "" || r.End < r.Start {
			t.Fatalf("malformed span %+v", r)
		}
		byID[r.ID] = r
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	ops := 0
	for _, r := range byID {
		if r.Name == "op" {
			ops++
		}
		if p, ok := byID[r.Parent]; ok && p.Op != r.Op {
			t.Errorf("span %d (%s, op %d) has parent %d (%s) of op %d", r.ID, r.Name, r.Op, p.ID, p.Name, p.Op)
		}
	}
	if ops == 0 {
		t.Errorf("%s holds no op span", path)
	}
}

// TestContractAgreesWithBenchmarkJSON checks that BENCHMARK.json and the
// tables in this package name the same workloads and metrics, with the same
// units, directions and bounds, in both directions.
func TestContractAgreesWithBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", c.Paths)
	}
	if c.RunSeconds < 10 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", c.RunSeconds)
	}
	var names []struct{ Name, Why string }
	for _, w := range workloads {
		names = append(names, struct{ Name, Why string }{w.Name, w.Why})
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(c.Workloads, names) {
		t.Errorf("workloads differ:\n json %v\n code %v", c.Workloads, names)
	}
	if !reflect.DeepEqual(c.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", c.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(c.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", c.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestTrafficDeterministic checks the replay fixture: two recordings with
// one seed carry identical payloads, and another seed differs.
func TestTrafficDeterministic(t *testing.T) {
	u := buildUniverse(smokeScale)
	sum := func(seed uint64) uint64 {
		tr, err := u.record(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr) != u.sc.recClients || len(tr[0]) != u.sc.recRounds || len(tr[0][0].update.Freq) == 0 {
			t.Fatalf("recording has %d clients × %d rounds", len(tr), len(tr[0]))
		}
		return tr.checksum()
	}
	a, b, c := sum(7), sum(7), sum(8)
	if a != b {
		t.Errorf("two recordings with seed 7 differ: %x vs %x", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 recorded identical traffic (%x)", a)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}
