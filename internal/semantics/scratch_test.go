package semantics

import (
	"testing"

	"coca/internal/dataset"
	"coca/internal/model"
)

// TestScratchPathsZeroAlloc asserts the scratch generators never allocate
// after the scratch is warm.
func TestScratchPathsZeroAlloc(t *testing.T) {
	space := NewSpace(dataset.UCF101().Subset(25), model.ResNet50())
	sc := space.NewScratch()
	env := NewEnv(9, 0.05)
	env.DriftWeight = 0.05
	smp := space.DS.NewSample(3, 1)
	dst := make([]float32, model.Dim)
	space.SampleVectorInto(dst, smp, 2, env, sc)
	space.PredictScratch(sc, smp, env)
	if n := testing.AllocsPerRun(200, func() {
		space.SampleVectorInto(dst, smp, 2, env, sc)
	}); n != 0 {
		t.Errorf("SampleVectorInto allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		space.PredictScratch(sc, smp, env)
	}); n != 0 {
		t.Errorf("PredictScratch allocates %v/op, want 0", n)
	}
}
