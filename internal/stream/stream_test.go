package stream

import (
	"math"
	"testing"

	"coca/internal/dataset"
	"coca/internal/xrand"
)

func baseConfig() Config {
	return Config{
		Dataset:         dataset.UCF101().Subset(50),
		NumClients:      4,
		SceneMeanFrames: 20,
		Seed:            1,
	}
}

func TestNewPartitionValidation(t *testing.T) {
	bad := baseConfig()
	bad.Dataset = nil
	if _, err := NewPartition(bad); err == nil {
		t.Error("expected error for nil dataset")
	}
	bad = baseConfig()
	bad.NumClients = 0
	if _, err := NewPartition(bad); err == nil {
		t.Error("expected error for zero clients")
	}
	bad = baseConfig()
	bad.NonIIDLevel = -1
	if _, err := NewPartition(bad); err == nil {
		t.Error("expected error for negative non-IID level")
	}
	bad = baseConfig()
	bad.ClassWeights = []float64{1, 2}
	if _, err := NewPartition(bad); err == nil {
		t.Error("expected error for wrong ClassWeights length")
	}
}

func TestIIDPartitionMatchesGlobal(t *testing.T) {
	cfg := baseConfig()
	p, err := NewPartition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < cfg.NumClients; k++ {
		d := p.ClientDistribution(k)
		for _, x := range d {
			if math.Abs(x-1.0/50) > 1e-12 {
				t.Fatalf("IID client %d distribution not uniform: %v", k, x)
			}
		}
	}
}

func TestNonIIDConcentration(t *testing.T) {
	concAt := func(level float64) float64 {
		cfg := baseConfig()
		cfg.NonIIDLevel = level
		p, err := NewPartition(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var avg float64
		for k := 0; k < cfg.NumClients; k++ {
			avg += float64(Concentration(p.ClientDistribution(k), 0.9))
		}
		return avg / float64(cfg.NumClients)
	}
	iid := concAt(0)
	mild := concAt(1)
	strong := concAt(10)
	if !(strong < mild && mild < iid) {
		t.Fatalf("concentration must tighten with non-IID level: iid=%v mild=%v strong=%v", iid, mild, strong)
	}
	if strong > 15 {
		t.Fatalf("p=10 should concentrate on few classes, got %v covering 90%%", strong)
	}
}

func TestPartitionDistributionsAreSimplex(t *testing.T) {
	cfg := baseConfig()
	cfg.NonIIDLevel = 2
	cfg.ClassWeights = xrand.LongTailWeights(50, 90)
	p, err := NewPartition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < cfg.NumClients; k++ {
		var sum float64
		for _, x := range p.ClientDistribution(k) {
			if x < 0 {
				t.Fatal("negative mass")
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("client %d distribution sums to %v", k, sum)
		}
	}
}

func TestLongTailWeightingBiasesStream(t *testing.T) {
	cfg := baseConfig()
	cfg.ClassWeights = xrand.LongTailWeights(50, 90)
	p, err := NewPartition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Client(0)
	counts := make([]int, 50)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[g.Next().Class]++
	}
	var top10, bottom10 int
	for i := 0; i < 10; i++ {
		top10 += counts[i]
	}
	for i := 40; i < 50; i++ {
		bottom10 += counts[i]
	}
	if top10 < 4*bottom10 {
		t.Fatalf("long-tail head not dominant: top10=%d bottom10=%d", top10, bottom10)
	}
}

func TestTemporalLocality(t *testing.T) {
	cfg := baseConfig()
	cfg.SceneMeanFrames = 25
	p, err := NewPartition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Client(0)
	const n = 10000
	prev := -1
	same := 0
	for i := 0; i < n; i++ {
		c := g.Next().Class
		if c == prev {
			same++
		}
		prev = c
	}
	frac := float64(same) / n
	// Mean scene length 25 => ~96% of transitions stay in-class.
	if frac < 0.9 {
		t.Fatalf("temporal locality too weak: same-class fraction %v", frac)
	}
}

func TestSceneMeanLength(t *testing.T) {
	cfg := baseConfig()
	cfg.SceneMeanFrames = 30
	cfg.Dataset = dataset.ImageNet100()
	p, err := NewPartition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Client(1)
	const n = 60000
	prev := -1
	scenes := 0
	for i := 0; i < n; i++ {
		c := g.Next().Class
		if c != prev {
			scenes++
			prev = c
		}
	}
	meanLen := float64(n) / float64(scenes)
	// Same class may repeat across adjacent scenes, so the observed runs
	// can be slightly longer than the configured mean.
	if meanLen < 24 || meanLen > 45 {
		t.Fatalf("mean scene length = %v, want ~30", meanLen)
	}
}

func TestNoLocalityWhenSceneMeanOne(t *testing.T) {
	cfg := baseConfig()
	cfg.SceneMeanFrames = 1
	p, err := NewPartition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Client(0)
	prev := -1
	same := 0
	const n = 5000
	for i := 0; i < n; i++ {
		c := g.Next().Class
		if c == prev {
			same++
		}
		prev = c
	}
	// With 50 uniform classes, chance same-class rate is ~2%.
	if float64(same)/n > 0.1 {
		t.Fatalf("unexpected locality with scene mean 1: %v", float64(same)/n)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg := baseConfig()
	cfg.NonIIDLevel = 2
	p1, _ := NewPartition(cfg)
	p2, _ := NewPartition(cfg)
	g1, g2 := p1.Client(2), p2.Client(2)
	for i := 0; i < 500; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("streams diverge at frame %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestGeneratorsIndependentAcrossClients(t *testing.T) {
	cfg := baseConfig()
	cfg.NonIIDLevel = 10
	p, _ := NewPartition(cfg)
	a := p.Client(0).Take(200)
	b := p.Client(1).Take(200)
	same := 0
	for i := range a {
		if a[i].Class == b[i].Class {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("distinct clients produced identical class streams")
	}
}

func TestTakeAndFrame(t *testing.T) {
	p, _ := NewPartition(baseConfig())
	g := p.Client(0)
	s := g.Take(10)
	if len(s) != 10 || g.Frame() != 10 {
		t.Fatalf("Take/Frame mismatch: %d %d", len(s), g.Frame())
	}
}

func TestClientOutOfRangePanics(t *testing.T) {
	p, _ := NewPartition(baseConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Client(99)
}

func TestConcentrationHelper(t *testing.T) {
	if got := Concentration([]float64{0.5, 0.3, 0.2}, 0.75); got != 2 {
		t.Fatalf("Concentration = %d, want 2", got)
	}
	if got := Concentration([]float64{0.25, 0.25, 0.25, 0.25}, 1.0); got != 4 {
		t.Fatalf("Concentration full = %d, want 4", got)
	}
}

// TestNextZeroAllocs guards the stream draw's allocation-free contract.
func TestNextZeroAllocs(t *testing.T) {
	p, err := NewPartition(Config{
		Dataset: dataset.UCF101().Subset(20), NumClients: 2,
		SceneMeanFrames: 15, WorkingSetSize: 6, WorkingSetChurn: 0.1, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := p.Client(1)
	g.Next() // warm
	if n := testing.AllocsPerRun(500, func() {
		g.Next()
	}); n != 0 {
		t.Errorf("Next allocates %v/op, want 0", n)
	}
}
