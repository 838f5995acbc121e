// Package model defines the simulated DNN architectures the paper
// evaluates: VGG16_BN, ResNet50/101/152 and AST-Base.
//
// A simulated architecture captures exactly the properties semantic caching
// interacts with:
//
//   - L cache-layer sites splitting the network into L+1 blocks, each with a
//     compute latency (milliseconds of virtual time);
//   - a per-layer discriminability profile: how noisy a sample's semantic
//     vector is at each depth (shallow features are generic and noisy, deep
//     features are class-specific and clean, with the steepest gain in the
//     last blocks — the property behind the paper's Fig. 1(b));
//   - a cache lookup cost model (per-layer overhead plus per-entry cost),
//     calibrated so that searching every layer with a 50-class cache costs
//     ≈ 56% of the uncached forward pass, matching the paper's measurement
//     for ResNet101 (§III-1).
//
// All times are virtual: the simulator adds these numbers up on a logical
// clock rather than timing host execution, which keeps experiments exact,
// fast and machine-independent.
package model

import (
	"fmt"
	"math"
)

// Dim is the dimensionality of semantic vectors at every cache layer.
// SMTM-style caches use global-average-pooled channel embeddings; 256
// matches mid-network channel counts and gives the noise-averaging that
// real embeddings have (pairwise-gap noise shrinks as 1/√Dim).
const Dim = 256

// lookupCalibration describes how lookup costs are derived from a model's
// total latency: searching all layers with refClasses entries per layer
// costs fraction×total, of which baseShare is per-layer fixed overhead.
const (
	lookupFraction   = 0.5622 // paper §III-1: 56.22% of uncached latency
	lookupBaseShare  = 0.60
	lookupRefClasses = 50
)

// Arch is a simulated architecture.
type Arch struct {
	// Name identifies the architecture, e.g. "ResNet101".
	Name string
	// NumLayers is the number of cache-layer sites (L). Site j sits after
	// block j, for j in [0, L).
	NumLayers int
	// BlockLatencyMs[j] is the compute latency of block j in virtual
	// milliseconds; len = NumLayers+1 (the final block runs from the last
	// cache site through the classifier head).
	BlockLatencyMs []float64
	// NoiseScale[j] is the semantic-noise multiplier at cache site j;
	// len = NumLayers+1 where index NumLayers is the virtual "final
	// feature" used by the full-model classifier. Decreasing in j.
	NoiseScale []float64
	// RhoCross[j] is the target cosine between prototypes of classes in
	// different confusion groups at site j; len = NumLayers+1. High at
	// shallow layers (generic edges/textures look alike) and declining
	// with depth as features become class-specific.
	RhoCross []float64
	// RhoSame is the target cosine between prototypes of classes in the
	// same confusion group. It sets the scale of Eq. 2 discriminative
	// scores, D ≈ (1−RhoSame)/RhoSame: ResNets' highly overlapping deep
	// features give tiny scores (paper Θ ≈ 0.008–0.016), VGG's flatter
	// space gives larger ones (Θ ≈ 0.027–0.043).
	RhoSame float64
	// Resolution[j] is the feature maturity at site j: a sample of
	// difficulty δ carries class-specific signal only once Resolution
	// exceeds δ (ramped; see semantics). Non-decreasing, ending above 1
	// so every sample resolves by the head. Its shape sets where samples
	// of each difficulty become cache-hittable: fast early growth (easy
	// frames exit shallow), a slow middle, and a late surge — the
	// paper's Fig. 1(b) hit-ratio U-shape.
	Resolution []float64
	// LookupBaseMs is the fixed virtual cost of probing one cache layer.
	LookupBaseMs float64
	// LookupPerEntryMs is the virtual cost per cache entry compared at a
	// layer.
	LookupPerEntryMs float64
	// ThetaStrict and ThetaLoose are the hit thresholds Θ that meet the
	// paper's two SLO accuracy-loss budgets (§VI-D), < 3 % and < 5 %.
	// ThetaStrict is the model's default operating point.
	ThetaStrict, ThetaLoose float64
}

// Validate reports whether the architecture is internally consistent.
func (a *Arch) Validate() error {
	switch {
	case a.NumLayers < 1:
		return fmt.Errorf("model %q: NumLayers %d < 1", a.Name, a.NumLayers)
	case len(a.BlockLatencyMs) != a.NumLayers+1:
		return fmt.Errorf("model %q: len(BlockLatencyMs)=%d, want %d", a.Name, len(a.BlockLatencyMs), a.NumLayers+1)
	case len(a.NoiseScale) != a.NumLayers+1:
		return fmt.Errorf("model %q: len(NoiseScale)=%d, want %d", a.Name, len(a.NoiseScale), a.NumLayers+1)
	case len(a.RhoCross) != a.NumLayers+1:
		return fmt.Errorf("model %q: len(RhoCross)=%d, want %d", a.Name, len(a.RhoCross), a.NumLayers+1)
	case a.RhoSame <= 0 || a.RhoSame >= 1:
		return fmt.Errorf("model %q: RhoSame %v outside (0,1)", a.Name, a.RhoSame)
	case a.LookupBaseMs < 0 || a.LookupPerEntryMs < 0:
		return fmt.Errorf("model %q: negative lookup costs", a.Name)
	}
	for j, r := range a.RhoCross {
		if r <= 0 || r >= a.RhoSame {
			return fmt.Errorf("model %q: RhoCross[%d]=%v must lie in (0, RhoSame=%v)", a.Name, j, r, a.RhoSame)
		}
	}
	if len(a.Resolution) != a.NumLayers+1 {
		return fmt.Errorf("model %q: len(Resolution)=%d, want %d", a.Name, len(a.Resolution), a.NumLayers+1)
	}
	for j := 1; j < len(a.Resolution); j++ {
		if a.Resolution[j] < a.Resolution[j-1] {
			return fmt.Errorf("model %q: Resolution must be non-decreasing (site %d)", a.Name, j)
		}
	}
	if last := a.Resolution[a.NumLayers]; last < 1 {
		return fmt.Errorf("model %q: final Resolution %v < 1 (samples must resolve by the head)", a.Name, last)
	}
	for j, l := range a.BlockLatencyMs {
		if l <= 0 {
			return fmt.Errorf("model %q: block %d latency %v <= 0", a.Name, j, l)
		}
	}
	for j := 1; j < len(a.NoiseScale); j++ {
		if a.NoiseScale[j] > a.NoiseScale[j-1]+1e-9 {
			return fmt.Errorf("model %q: NoiseScale must be non-increasing (site %d)", a.Name, j)
		}
	}
	return nil
}

// TotalLatencyMs is the uncached forward-pass latency: the sum of all block
// latencies.
func (a *Arch) TotalLatencyMs() float64 {
	var t float64
	for _, l := range a.BlockLatencyMs {
		t += l
	}
	return t
}

// PrefixLatencyMs returns the compute latency of blocks 0..layer inclusive,
// i.e. the compute spent to reach cache site layer.
func (a *Arch) PrefixLatencyMs(layer int) float64 {
	var t float64
	for j := 0; j <= layer; j++ {
		t += a.BlockLatencyMs[j]
	}
	return t
}

// RemainingLatencyMs returns the compute saved by exiting at cache site
// layer: the latency of blocks layer+1..L.
func (a *Arch) RemainingLatencyMs(layer int) float64 {
	return a.TotalLatencyMs() - a.PrefixLatencyMs(layer)
}

// LookupCostMs returns the virtual cost of probing one cache layer holding
// the given number of entries. Zero entries cost nothing (an empty layer is
// skipped).
func (a *Arch) LookupCostMs(entries int) float64 {
	if entries <= 0 {
		return 0
	}
	return a.LookupBaseMs + float64(entries)*a.LookupPerEntryMs
}

// build assembles an Arch from a target total latency and shape parameters.
//
// Block latencies follow a mild ramp (deeper blocks slightly heavier, as in
// real CNN stages where channel counts grow). The noise profile decays
// gently through the early and middle layers and sharply over the last
// quarter of the network, ending at finalNoise for the classifier features;
// this makes easy samples separable early while hard samples only become
// separable near the head. Cross-group prototype correlation declines
// slightly from rhoCross0 to rhoCrossMid over the first 70% of depth, then
// falls to rhoCrossL at the head. The mid plateau is calibrated so that a
// sample whose class is absent from the cache scores just below the
// model's recommended Θ against a cached sibling — erroneous hits appear
// when Θ is set too low (the paper's Fig. 5 accuracy trend) or when the
// cache holds too few classes (Table I), but not at the operating point.
func build(name string, layers int, totalMs, startNoise, midNoise, finalNoise, rhoCross0, rhoCrossMid, rhoCrossL, rhoSame float64) *Arch {
	a := &Arch{
		Name:           name,
		NumLayers:      layers,
		BlockLatencyMs: make([]float64, layers+1),
		NoiseScale:     make([]float64, layers+1),
		RhoCross:       make([]float64, layers+1),
		RhoSame:        rhoSame,
		Resolution:     make([]float64, layers+1),
	}
	// Latency ramp: weight(j) = 1 + j/L, normalized to totalMs.
	var wsum float64
	for j := 0; j <= layers; j++ {
		w := 1 + float64(j)/float64(layers)
		a.BlockLatencyMs[j] = w
		wsum += w
	}
	for j := range a.BlockLatencyMs {
		a.BlockLatencyMs[j] *= totalMs / wsum
	}
	// Noise: linear from startNoise to midNoise over the first 75% of
	// depth, then geometric drop to finalNoise.
	knee := int(math.Round(0.75 * float64(layers)))
	if knee < 1 {
		knee = 1
	}
	for j := 0; j <= layers; j++ {
		var n float64
		if j <= knee {
			t := float64(j) / float64(knee)
			n = startNoise + (midNoise-startNoise)*t
		} else {
			t := float64(j-knee) / float64(layers-knee)
			// Geometric interpolation for a sharp late drop.
			n = midNoise * math.Pow(finalNoise/midNoise, t)
		}
		a.NoiseScale[j] = n
		frac := float64(j) / float64(layers)
		if frac <= 0.7 {
			a.RhoCross[j] = rhoCross0 + (rhoCrossMid-rhoCross0)*(frac/0.7)
		} else {
			a.RhoCross[j] = rhoCrossMid + (rhoCrossL-rhoCrossMid)*((frac-0.7)/0.3)
		}
		// Resolution: steady growth through the first three quarters of
		// depth (0.15→0.62), then a late surge to 1.05 where the last
		// blocks resolve the hard residue. Paired with the right-skewed
		// difficulty distribution this spreads exits over the network
		// with extra mass at shallow and final layers (Fig. 1(b)).
		if frac <= 0.75 {
			a.Resolution[j] = 0.12 + (0.58-0.12)*(frac/0.75)
		} else {
			a.Resolution[j] = 0.58 + (1.05-0.58)*((frac-0.75)/0.25)
		}
	}
	// Lookup cost calibration (see package comment).
	lookupTotal := lookupFraction * totalMs
	a.LookupBaseMs = lookupTotal * lookupBaseShare / float64(layers)
	a.LookupPerEntryMs = lookupTotal * (1 - lookupBaseShare) / (float64(layers) * lookupRefClasses)
	return a
}

// withTheta sets a's two operating points and returns a.
func (a *Arch) withTheta(strict, loose float64) *Arch {
	a.ThetaStrict, a.ThetaLoose = strict, loose
	return a
}

// Preset architectures. Cache-site counts follow the paper (§III-1, §VI-A):
// ResNet101 has "up to 34 cache layers"; VGG16_BN has 13 conv layers;
// ResNet50 has 16 residual blocks; ResNet152 has 50; AST-Base has 12
// transformer blocks. Total latencies match the paper's Edge-Only rows.

// VGG16BN returns the simulated VGG16_BN (13 cache sites, 29.94 ms).
func VGG16BN() *Arch {
	return build("VGG16_BN", 13, 29.94, 1.05, 0.52, 0.105, 0.944, 0.9406, 0.76, 0.950).withTheta(0.035, 0.027)
}

// ResNet50 returns the simulated ResNet50 (16 cache sites, 36.1 ms).
func ResNet50() *Arch {
	return build("ResNet50", 16, 36.10, 1.05, 0.52, 0.10, 0.980, 0.975, 0.80, 0.982).withTheta(0.012, 0.008)
}

// ResNet101 returns the simulated ResNet101 (34 cache sites, 40.58 ms).
func ResNet101() *Arch {
	return build("ResNet101", 34, 40.58, 1.05, 0.52, 0.10, 0.980, 0.975, 0.80, 0.982).withTheta(0.012, 0.008)
}

// ResNet152 returns the simulated ResNet152 (50 cache sites, 62.85 ms).
func ResNet152() *Arch {
	return build("ResNet152", 50, 62.85, 1.05, 0.52, 0.10, 0.980, 0.975, 0.80, 0.982).withTheta(0.012, 0.008)
}

// ASTBase returns the simulated Audio Spectrogram Transformer
// (12 cache sites, 52.0 ms).
func ASTBase() *Arch {
	return build("AST", 12, 52.00, 1.00, 0.50, 0.11, 0.961, 0.9583, 0.78, 0.966).withTheta(0.022, 0.017)
}

// ByName returns the preset with the given name, or an error.
func ByName(name string) (*Arch, error) {
	switch name {
	case "VGG16_BN":
		return VGG16BN(), nil
	case "ResNet50":
		return ResNet50(), nil
	case "ResNet101":
		return ResNet101(), nil
	case "ResNet152":
		return ResNet152(), nil
	case "AST":
		return ASTBase(), nil
	}
	return nil, fmt.Errorf("model: unknown preset %q", name)
}

// Presets returns all preset architectures in paper order.
func Presets() []*Arch {
	return []*Arch{VGG16BN(), ResNet50(), ResNet101(), ResNet152(), ASTBase()}
}
