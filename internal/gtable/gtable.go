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

// Table is a dense classes × layers table of unit semantic vectors.
// Entries may be absent (nil) until first set. Table is not safe for
// concurrent mutation; CoCa's server serializes access.
type Table struct {
	classes int
	layers  int
	dim     int
	vecs    [][][]float32 // [class][layer] -> unit vector or nil
}

// New creates an empty table. It panics on non-positive dimensions:
// table shapes come from validated specs.
func New(classes, layers, dim int) *Table {
	if classes < 1 || layers < 1 || dim < 1 {
		panic(fmt.Sprintf("gtable: invalid shape %d×%d×%d", classes, layers, dim))
	}
	t := &Table{classes: classes, layers: layers, dim: dim}
	t.vecs = make([][][]float32, classes)
	for i := range t.vecs {
		t.vecs[i] = make([][]float32, layers)
	}
	return t
}

// Classes returns the number of rows.
func (t *Table) Classes() int { return t.classes }

// Layers returns the number of columns.
func (t *Table) Layers() int { return t.layers }

// Dim returns the entry dimensionality.
func (t *Table) Dim() int { return t.dim }

func (t *Table) check(class, layer int) {
	if class < 0 || class >= t.classes || layer < 0 || layer >= t.layers {
		panic(fmt.Sprintf("gtable: index (%d,%d) outside %d×%d", class, layer, t.classes, t.layers))
	}
}

// Has reports whether entry (class, layer) is populated.
func (t *Table) Has(class, layer int) bool {
	t.check(class, layer)
	return t.vecs[class][layer] != nil
}

// Get returns the entry at (class, layer), or nil if absent. The returned
// slice is shared; callers must not mutate it.
func (t *Table) Get(class, layer int) []float32 {
	t.check(class, layer)
	return t.vecs[class][layer]
}

// Set stores a normalized copy of vec at (class, layer). A zero vector is
// rejected.
func (t *Table) Set(class, layer int, vec []float32) error {
	t.check(class, layer)
	if len(vec) != t.dim {
		return fmt.Errorf("gtable: Set dim %d, want %d", len(vec), t.dim)
	}
	v := vecmath.Clone(vec)
	if n := vecmath.Normalize(v); !usable(n) {
		return rejected("Set", class, layer, n)
	}
	t.vecs[class][layer] = v
	return nil
}

// Merge applies Eq. 4 to entry (class, layer): a weighted combination of
// the existing global entry (weight γ·Φ/(Φ+φ)) and the uploaded update
// vector (weight φ/(Φ+φ)), re-normalized. If the entry was absent the
// update is stored directly. globalFreq and localFreq are Φi and φi; both
// must be non-negative and localFreq positive.
func (t *Table) Merge(class, layer int, update []float32, gamma, globalFreq, localFreq float64) error {
	t.check(class, layer)
	if len(update) != t.dim {
		return fmt.Errorf("gtable: Merge dim %d, want %d", len(update), t.dim)
	}
	if gamma < 0 || gamma > 1 {
		return fmt.Errorf("gtable: Merge gamma %v outside [0,1]", gamma)
	}
	if globalFreq < 0 || localFreq <= 0 {
		return fmt.Errorf("gtable: Merge frequencies Φ=%v φ=%v invalid", globalFreq, localFreq)
	}
	old := t.vecs[class][layer]
	if old == nil {
		return t.Set(class, layer, update)
	}
	merged := make([]float32, t.dim)
	if n := mergeEntry(merged, old, update, gamma, globalFreq, localFreq); usable(n) {
		t.vecs[class][layer] = merged
	} else if n != 0 {
		return rejected("Merge", class, layer, n)
	}
	return nil
}

// mergeEntry is the Eq. 4 combination shared by Table.Merge and
// Sharded.Merge, written into dst, a fresh vector (published entries are
// immutable, so dst shares no memory with old or update, one of the two
// cases vecmath.WeightedSumInto allows): the old entry weighted γ·Φ/(Φ+φ)
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

// rejected counts, and returns the error for, a vector refused for its norm,
// before anything (vector, support, ledger, version) is written.
func rejected(op string, class, layer int, n float32) error {
	telemetry.CoreRejectedVecs.Inc()
	return fmt.Errorf("gtable: %s vector at (%d,%d) has norm %v, want finite and positive", op, class, layer, n)
}

// Snapshot returns a deep copy of the table.
func (t *Table) Snapshot() *Table {
	out := New(t.classes, t.layers, t.dim)
	for i := range t.vecs {
		for j, v := range t.vecs[i] {
			if v != nil {
				out.vecs[i][j] = vecmath.Clone(v)
			}
		}
	}
	return out
}

// ExtractLayer returns copies of the populated entries of the given column
// restricted to classes, preserving the class order and skipping absent
// entries.
func (t *Table) ExtractLayer(layer int, classes []int) (cls []int, entries [][]float32) {
	for _, c := range classes {
		t.check(c, layer)
		if v := t.vecs[c][layer]; v != nil {
			cls = append(cls, c)
			entries = append(entries, vecmath.Clone(v))
		}
	}
	return cls, entries
}

// Populated returns the number of non-nil entries.
func (t *Table) Populated() int {
	n := 0
	for i := range t.vecs {
		for _, v := range t.vecs[i] {
			if v != nil {
				n++
			}
		}
	}
	return n
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
