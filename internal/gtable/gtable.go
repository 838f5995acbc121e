// Package gtable implements CoCa's two-dimensional cache tables
// (paper §IV): the server's global cache table, whose rows are classes and
// columns are cache layers, and the client-side cache update table that is
// periodically uploaded and merged into it.
//
// Update rules implemented here:
//
//	U(i,j) = V(i,j) + β·U(i,j), then L2-normalize          (Eq. 3)
//	E(i,j) = γ·Φi/(Φi+φi)·E(i,j) + φi/(Φi+φi)·U(i,j),
//	         then L2-normalize                              (Eq. 4)
//	Φi     = Φi + φi                                        (Eq. 5)
package gtable

import (
	"fmt"
	"math"

	"coca/internal/telemetry"
	"coca/internal/vecmath"
)

// Default decay coefficients from the paper.
const (
	// DefaultBeta attenuates older samples in the client update table
	// (Eq. 3).
	DefaultBeta = 0.95
	// DefaultGamma attenuates the old global entry during merges
	// (Eq. 4).
	DefaultGamma = 0.99
)

// mergeEntry is the Eq. 4 combination behind Sharded.Merge and MergePeer,
// written into dst, a fresh vector (published cells are immutable, so dst
// shares no memory with old or update, one of the two cases
// vecmath.WeightedSumInto allows): the old entry weighted γ·Φ/(Φ+φ)
// against the update weighted φ/(Φ+φ), re-normalized. It returns the norm of
// the combination: 0 on perfect cancellation, where callers keep the previous
// entry rather than a degenerate zero; not usable when the update is refused.
func mergeEntry(dst, old, update []float32, gamma, globalFreq, localFreq float64) float32 {
	wOld := float32(gamma * globalFreq / (globalFreq + localFreq))
	wNew := float32(localFreq / (globalFreq + localFreq))
	vecmath.WeightedSumInto(dst, wOld, old, wNew, update)
	return vecmath.Normalize(dst)
}

// usable reports whether n, the norm of a vector about to be published, is
// finite and positive: one NaN or Inf component makes it NaN or +Inf, so the
// norm every merge computes anyway is the whole finiteness check.
func usable(n float32) bool { return n > 0 && n <= math.MaxFloat32 }

// CheckSquaredNorm refuses, as a merge into an absent cell would, a vector
// whose squared norm norm2 (vecmath.SquaredNorm) gives it a norm that is not
// finite and positive, counting it like a merge's refusal. A caller that
// validates a whole report with it before merging any of it refuses the
// report without writing a cell.
func CheckSquaredNorm(op string, class, layer int, norm2 float64) error {
	if n := float32(math.Sqrt(norm2)); !usable(n) {
		return rejected(op, class, layer, n)
	}
	return nil
}

// rejected counts, and returns the error for, a vector refused for its norm,
// before anything (vector, support, ledger, version) is written.
func rejected(op string, class, layer int, n float32) error {
	telemetry.CoreRejectedVecs.Inc()
	return fmt.Errorf("gtable: %s vector at (%d,%d) has norm %v, want finite and positive", op, class, layer, n)
}

// UpdateTable accumulates a client's selected sample vectors between
// uploads (Eq. 3). It is sparse: only touched (class, layer) cells exist.
// Each cell also tracks how many samples it absorbed, which the server
// uses as the merge weight — an entry supported by many samples carries
// more evidence than one built from a single frame.
type UpdateTable struct {
	beta   float64
	dim    int
	vecs   map[cell][]float32
	counts map[cell]int
	tmp    []float32   // Absorb staging buffer, so failures leave cells intact
	free   [][]float32 // what Reset took out of vecs, for the cells Absorb adds
}

type cell struct{ class, layer int }

// NewUpdateTable creates an empty update table with decay beta.
func NewUpdateTable(beta float64, dim int) *UpdateTable {
	if beta < 0 || beta > 1 {
		panic(fmt.Sprintf("gtable: update beta %v outside [0,1]", beta))
	}
	if dim < 1 {
		panic(fmt.Sprintf("gtable: update dim %d < 1", dim))
	}
	return &UpdateTable{
		beta:   beta,
		dim:    dim,
		vecs:   make(map[cell][]float32),
		counts: make(map[cell]int),
		tmp:    make([]float32, dim),
	}
}

// Absorb folds a sample's semantic vector at (class, layer) into the
// table per Eq. 3 and re-normalizes. The combination is staged in a reused
// buffer and copied over the cell's vector, which a new cell takes from those
// Reset freed: the table allocates only for more cells than a round ever held.
func (u *UpdateTable) Absorb(class, layer int, vec []float32) error {
	if len(vec) != u.dim {
		return fmt.Errorf("gtable: Absorb dim %d, want %d", len(vec), u.dim)
	}
	key := cell{class, layer}
	old := u.vecs[key]
	v := u.tmp
	if old == nil {
		copy(v, vec)
	} else {
		beta := float32(u.beta)
		for i, x := range vec {
			v[i] = x + beta*old[i]
		}
	}
	if vecmath.Normalize(v) == 0 {
		return fmt.Errorf("gtable: Absorb degenerate vector at (%d,%d)", class, layer)
	}
	if old == nil {
		if n := len(u.free); n > 0 {
			old, u.free = u.free[n-1], u.free[:n-1]
		} else {
			old = make([]float32, u.dim)
		}
		u.vecs[key] = old
	}
	copy(old, v)
	u.counts[key]++
	return nil
}

// Len returns the number of populated cells.
func (u *UpdateTable) Len() int { return len(u.vecs) }

// Reset clears the table for the next round. Its vectors stay the table's and
// are overwritten by later rounds: whoever was lent one is done with it.
func (u *UpdateTable) Reset() {
	for _, v := range u.vecs {
		u.free = append(u.free, v)
	}
	clear(u.vecs)
	clear(u.counts)
}

// Entry returns the cell's vector, or nil. Shared; do not mutate.
func (u *UpdateTable) Entry(class, layer int) []float32 {
	return u.vecs[cell{class, layer}]
}

// Count returns how many samples the cell absorbed since the last Reset.
func (u *UpdateTable) Count(class, layer int) int {
	return u.counts[cell{class, layer}]
}

// ForEach visits populated cells in unspecified order.
func (u *UpdateTable) ForEach(fn func(class, layer int, vec []float32, count int)) {
	for k, v := range u.vecs {
		fn(k.class, k.layer, v, u.counts[k])
	}
}

// Cells returns the populated (class, layer) pairs in unspecified order.
func (u *UpdateTable) Cells() [][2]int {
	out := make([][2]int, 0, len(u.vecs))
	for k := range u.vecs {
		out = append(out, [2]int{k.class, k.layer})
	}
	return out
}

// Frequencies tracks the class frequency vectors Φ (global) and φ (local).
type Frequencies struct {
	counts []float64
}

// NewFrequencies creates a zero frequency vector over n classes.
func NewFrequencies(n int) *Frequencies {
	if n < 1 {
		panic(fmt.Sprintf("gtable: frequencies over %d classes", n))
	}
	return &Frequencies{counts: make([]float64, n)}
}

// Observe increments class's count.
func (f *Frequencies) Observe(class int) { f.counts[class]++ }

// Add increases class's count by n (n must be non-negative).
func (f *Frequencies) Add(class int, n float64) {
	if n < 0 {
		panic(fmt.Sprintf("gtable: Add negative count %v", n))
	}
	f.counts[class] += n
}

// Count returns class's count.
func (f *Frequencies) Count(class int) float64 { return f.counts[class] }

// Len returns the class count.
func (f *Frequencies) Len() int { return len(f.counts) }

// AddFrom merges another frequency vector per Eq. 5.
func (f *Frequencies) AddFrom(other *Frequencies) error {
	if other.Len() != f.Len() {
		return fmt.Errorf("gtable: AddFrom length %d, want %d", other.Len(), f.Len())
	}
	for i, c := range other.counts {
		f.counts[i] += c
	}
	return nil
}

// Reset zeroes all counts.
func (f *Frequencies) Reset() {
	for i := range f.counts {
		f.counts[i] = 0
	}
}

// SnapshotInto copies the counts into dst, growing it only when its
// capacity is short: hot paths reuse a scratch buffer, others pass nil.
func (f *Frequencies) SnapshotInto(dst []float64) []float64 {
	dst = append(dst[:0], f.counts...)
	return dst
}

// Total returns the sum of all counts.
func (f *Frequencies) Total() float64 {
	var s float64
	for _, c := range f.counts {
		s += c
	}
	return s
}
