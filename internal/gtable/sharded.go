package gtable

import (
	"fmt"
	"runtime"
	"sync"

	"coca/internal/vecmath"
)

// Sharded is the classes × layers cache table: the server's global table,
// the shared-dataset table it starts from, and the client-local tables of
// the single-client baselines. It is sharded by class row: every row carries
// its own RWMutex, so merges and extractions that touch different classes
// proceed in parallel and extractions (reads) of the same row only contend
// with merges into it.
//
// A published cell is a plain unit []float32, immutable from publication
// on: merges replace a row's slice, never write through it, so an
// extraction, a delta, a snapshot and any number of client views may hold
// the same vector. The table stores and forwards vectors only; probe staging
// (each vector's squared norm) belongs to whoever probes.
//
// Each cell also tracks
//
//   - a version counter, bumped on every write, which the session layer
//     uses to compute delta allocations (resend a cell only when its
//     version moved past the one the client last saw), and
//   - a support count — the per-cell evidence behind the entry, used as
//     the Eq. 4 merge weight Φ and capped to keep the adaptation rate
//     bounded (sliding-window semantics), and
//   - an uncapped evidence total, the monotone ledger federation peer
//     syncs difference against (see shardRow.evtotal).
type Sharded struct {
	classes int
	layers  int
	dim     int
	rows    []shardRow
}

type shardRow struct {
	mu      sync.RWMutex
	vecs    [][]float32 // [layer] -> published vector or nil
	vers    []uint64    // [layer] -> write version (0 = never written)
	support []float64   // [layer] -> evidence count Φ (capped)
	// evtotal is the uncapped, monotone evidence accumulated by the cell
	// over its lifetime. Where support is the capped sliding-window weight
	// Eq. 4 merges against, evtotal is the federation tier's ledger: the
	// evidence a peer delta ships for a cell is the evtotal growth since
	// the last sync with that peer, so a sync transfers exactly the new
	// information — never the (capped) bulk of the entry's history.
	evtotal []float64
}

// NewSharded creates an empty sharded table. It panics on non-positive
// dimensions: table shapes come from validated specs.
func NewSharded(classes, layers, dim int) *Sharded {
	if classes < 1 || layers < 1 || dim < 1 {
		panic(fmt.Sprintf("gtable: invalid sharded shape %d×%d×%d", classes, layers, dim))
	}
	s := &Sharded{classes: classes, layers: layers, dim: dim}
	s.rows = make([]shardRow, classes)
	for i := range s.rows {
		s.rows[i].vecs = make([][]float32, layers)
		s.rows[i].vers = make([]uint64, layers)
		s.rows[i].support = make([]float64, layers)
		s.rows[i].evtotal = make([]float64, layers)
	}
	return s
}

// ShardedFromTable returns a new table holding t's cells, giving every
// populated cell the initial support count (the evidence behind the
// shared-dataset centers) and version 1: how a server, or a single-client
// baseline, starts from the shared-dataset table. The vectors are shared
// with t, as published cells are immutable. Copying them kept the heap
// large enough that connection-per-op joins collected less often, which
// paid while a join made ≈ 930 KiB of garbage: sharing read −7 %
// `join-churn` ops/s on a 2-vCPU Xeon. Since closed clients' views are
// recycled (≈ 21 KiB per join), sharing reads +2.0 % ops/s there (3 of 4
// pairs) and −15.6 % peak RSS (4 of 4).
func ShardedFromTable(t *Sharded, initialSupport float64) *Sharded {
	s := t.Snapshot()
	for c := range s.rows {
		row := &s.rows[c]
		for j, v := range row.vecs {
			if v != nil {
				row.vers[j] = 1
				row.support[j] = initialSupport
				row.evtotal[j] = initialSupport
			}
		}
	}
	return s
}

// Classes returns the number of rows.
func (s *Sharded) Classes() int { return s.classes }

// Layers returns the number of columns.
func (s *Sharded) Layers() int { return s.layers }

// Dim returns the entry dimensionality.
func (s *Sharded) Dim() int { return s.dim }

func (s *Sharded) check(class, layer int) error {
	if class < 0 || class >= s.classes || layer < 0 || layer >= s.layers {
		return fmt.Errorf("gtable: index (%d,%d) outside %d×%d", class, layer, s.classes, s.layers)
	}
	return nil
}

// Get returns a copy of the entry at (class, layer), or nil if absent.
func (s *Sharded) Get(class, layer int) []float32 {
	if err := s.check(class, layer); err != nil {
		panic(err)
	}
	row := &s.rows[class]
	row.mu.RLock()
	defer row.mu.RUnlock()
	if row.vecs[layer] == nil {
		return nil
	}
	return vecmath.Clone(row.vecs[layer])
}

// CellVersion returns the write version of (class, layer); 0 means the
// cell was never written.
func (s *Sharded) CellVersion(class, layer int) uint64 {
	if err := s.check(class, layer); err != nil {
		panic(err)
	}
	row := &s.rows[class]
	row.mu.RLock()
	defer row.mu.RUnlock()
	return row.vers[layer]
}

// Merge applies Eq. 4 to cell (class, layer) under the row's lock: the
// existing entry weighted γ·Φ/(Φ+φ) against the update weighted φ/(Φ+φ),
// re-normalized, where Φ is the cell's stored support and φ is localFreq.
// The support is then advanced by φ and capped at supportCap (no cap when
// supportCap <= 0), and the cell version is bumped. Absent cells store the
// update directly. It is MergeGroup's one-cell case.
func (s *Sharded) Merge(class, layer int, update []float32, gamma, localFreq, supportCap float64) error {
	one := [1]Update{{Class: class, Layer: layer, Vec: update, LocalFreq: localFreq}}
	_, err := s.MergeGroup(one[:], gamma, supportCap)
	return err
}

// Update is one cell a client's upload merges: its update vector and the
// local frequency φ behind it.
type Update struct {
	Class, Layer int
	Vec          []float32
	LocalFreq    float64
}

// mergeGroupMax is how many cells a group merge forms at once: the cells
// vecmath.SquaredNorms sums per kernel call.
const mergeGroupMax = 4

// MergeGroup merges updates in order, each as Merge would, and returns how
// many it merged: all of them, or those before the one whose error it
// returns. It takes them four at a time: it locks the group's rows once,
// in ascending class order, forms the four Eq. 4 combinations, sums their
// squared norms in one vecmath.SquaredNorms call and installs the cells in
// order, stopping at the first it refuses. Cells are independent, so the
// table, the error and the rejected-vector count are bitwise what successive
// Merge calls leave; a group that names a cell twice is merged one cell at a
// time, each merge seeing the last.
func (s *Sharded) MergeGroup(updates []Update, gamma, supportCap float64) (int, error) {
	for i := 0; i < len(updates); i += mergeGroupMax {
		group := updates[i:min(i+mergeGroupMax, len(updates))]
		valid := len(group)
		var err error
		for j := range group {
			if err = s.checkUpdate(&group[j], gamma); err != nil {
				valid = j
				break
			}
		}
		n, merr := s.mergeGroup(group[:valid], gamma, supportCap)
		if merr != nil {
			return i + n, merr
		}
		if err != nil {
			return i + valid, err
		}
	}
	return len(updates), nil
}

// checkUpdate refuses, as Merge does, an update outside the table, of the
// wrong dimension, with a γ outside [0,1] or with a non-positive φ.
func (s *Sharded) checkUpdate(u *Update, gamma float64) error {
	if err := s.check(u.Class, u.Layer); err != nil {
		return err
	}
	if len(u.Vec) != s.dim {
		return fmt.Errorf("gtable: Merge dim %d, want %d", len(u.Vec), s.dim)
	}
	if gamma < 0 || gamma > 1 {
		return fmt.Errorf("gtable: Merge gamma %v outside [0,1]", gamma)
	}
	if u.LocalFreq <= 0 {
		return fmt.Errorf("gtable: Merge local frequency φ=%v invalid", u.LocalFreq)
	}
	return nil
}

// mergeGroup merges up to mergeGroupMax checked updates, as one group when
// they name distinct cells and one by one when they do not.
func (s *Sharded) mergeGroup(group []Update, gamma, supportCap float64) (int, error) {
	for j := range group {
		for k := range j {
			if group[k].Class == group[j].Class && group[k].Layer == group[j].Layer {
				for m := range group {
					if _, err := s.mergeDistinct(group[m:m+1], gamma, supportCap); err != nil {
						return m, err
					}
				}
				return len(group), nil
			}
		}
	}
	return s.mergeDistinct(group, gamma, supportCap)
}

// mergeDistinct merges up to mergeGroupMax checked updates of distinct cells
// under their rows' locks, taken in ascending class order, each row once.
func (s *Sharded) mergeDistinct(group []Update, gamma, supportCap float64) (int, error) {
	var (
		rows  [mergeGroupMax]int
		nrows int
	)
	for _, u := range group {
		i := 0
		for i < nrows && rows[i] < u.Class {
			i++
		}
		if i < nrows && rows[i] == u.Class {
			continue
		}
		copy(rows[i+1:nrows+1], rows[i:nrows])
		rows[i] = u.Class
		nrows++
	}
	for _, c := range rows[:nrows] {
		s.rows[c].mu.Lock()
	}
	defer func() {
		for _, c := range rows[:nrows] {
			s.rows[c].mu.Unlock()
		}
	}()
	var (
		vecs  [mergeGroupMax][]float32
		norm2 [mergeGroupMax]float64
	)
	for j, u := range group {
		row := &s.rows[u.Class]
		vecs[j] = combine(row.vecs[u.Layer], u.Vec, gamma, row.support[u.Layer], u.LocalFreq)
	}
	vecmath.SquaredNorms(vecs[:len(group)], norm2[:len(group)])
	for j, u := range group {
		row, layer := &s.rows[u.Class], u.Layer
		v, err := publish("Merge", u.Class, layer, row.vecs[layer], vecs[j], norm2[j])
		if err != nil {
			return j, err
		}
		row.vecs[layer] = v
		row.support[layer] += u.LocalFreq
		if supportCap > 0 && row.support[layer] > supportCap {
			row.support[layer] = supportCap
		}
		row.evtotal[layer] += u.LocalFreq
		row.vers[layer]++
	}
	return len(group), nil
}

// MergePeer folds a peer server's cell into (class, layer) under the
// row's lock — the federation-tier merge. Unlike Merge (a client upload,
// which the paper decays by γ), a peer cell is an aggregated estimate
// whose value is its freshness, so the combination is weighted by RECENT
// evidence on both sides: the peer entry by the evidence it ships (its
// ledger growth since the last sync) against the local entry by the local
// ledger growth since the same point (sinceEv names the ledger reading at
// the last sync) plus a small inertia floor. Lifetime support is
// deliberately not the local weight — under drift it is a poor recency
// signal, and weighting by it would make a federated entry lag an
// actively-streaming peer by many rounds. A cell nobody local streams
// therefore tracks its remote feeder closely (local recent evidence ~0),
// while a locally-hot cell blends streams in proportion to their rates —
// approximating what one shared table would have computed from both
// fleets' uploads.
//
// Support still advances by the peer evidence and is capped
// (sliding-window semantics, same as Merge), the ledger advances so
// forwarding topologies relay received evidence onward, and the cell
// version is bumped so delta allocations and onward peer syncs see the
// change. Absent cells adopt the peer entry directly. It returns the
// cell's resulting write version and evidence total, which the federation
// tier records in its per-peer views.
func (s *Sharded) MergePeer(class, layer int, update []float32, evidence, sinceEv, inertia, supportCap float64) (uint64, float64, error) {
	if err := s.check(class, layer); err != nil {
		return 0, 0, err
	}
	if len(update) != s.dim {
		return 0, 0, fmt.Errorf("gtable: MergePeer dim %d, want %d", len(update), s.dim)
	}
	if evidence <= 0 {
		return 0, 0, fmt.Errorf("gtable: MergePeer evidence %v invalid", evidence)
	}
	if inertia < 0 {
		return 0, 0, fmt.Errorf("gtable: MergePeer inertia %v invalid", inertia)
	}
	row := &s.rows[class]
	row.mu.Lock()
	defer row.mu.Unlock()
	localRecent := row.evtotal[layer] - sinceEv
	if localRecent < 0 {
		localRecent = 0
	}
	v := combine(row.vecs[layer], update, 1, localRecent+inertia, evidence)
	v, err := publish("MergePeer", class, layer, row.vecs[layer], v, vecmath.SquaredNorm(v))
	if err != nil {
		return 0, 0, err
	}
	row.vecs[layer] = v
	row.support[layer] += evidence
	if supportCap > 0 && row.support[layer] > supportCap {
		row.support[layer] = supportCap
	}
	row.evtotal[layer] += evidence
	row.vers[layer]++
	return row.vers[layer], row.evtotal[layer], nil
}

// AdoptPeer replaces a cell outright with a dominating peer copy — the
// pull anti-entropy repair path. Unlike MergePeer's recency-weighted
// blend, adoption is reserved for the case the federation tier has
// already proven: every origin's evidence height behind the local cell
// is at or below the peer's, so the peer's entry is what this cell would
// have computed had it seen the same exchanges. The vector is stored
// verbatim (a bitwise copy of the peer's published entry, no
// renormalization — renormalizing an already-unit vector is not bitwise
// idempotent), and support and the evidence ledger jump to the peer's
// absolute readings, clamped by the local support cap. Adoption never
// rewinds: a copy whose ledger reading does not exceed the local one is
// a stale or duplicate pull response and is ignored (returned version
// 0), so delayed repairs cannot roll a cell back.
func (s *Sharded) AdoptPeer(class, layer int, vec []float32, support, evTotal, supportCap float64) (uint64, error) {
	if err := s.check(class, layer); err != nil {
		return 0, err
	}
	if len(vec) != s.dim {
		return 0, fmt.Errorf("gtable: AdoptPeer dim %d, want %d", len(vec), s.dim)
	}
	if evTotal <= 0 || support <= 0 {
		return 0, fmt.Errorf("gtable: AdoptPeer readings (support %v, evTotal %v) invalid", support, evTotal)
	}
	if n := vecmath.Norm(vec); !usable(n) {
		return 0, rejected("AdoptPeer", class, layer, n)
	}
	row := &s.rows[class]
	row.mu.Lock()
	defer row.mu.Unlock()
	if evTotal <= row.evtotal[layer] {
		return 0, nil
	}
	row.vecs[layer] = vecmath.Clone(vec)
	if supportCap > 0 && support > supportCap {
		support = supportCap
	}
	row.support[layer] = support
	row.evtotal[layer] = evTotal
	row.vers[layer]++
	return row.vers[layer], nil
}

// Support returns the evidence count behind (class, layer).
func (s *Sharded) Support(class, layer int) float64 {
	if err := s.check(class, layer); err != nil {
		panic(err)
	}
	row := &s.rows[class]
	row.mu.RLock()
	defer row.mu.RUnlock()
	return row.support[layer]
}

// EvTotalsInto copies every cell's evidence ledger into dst, dense at
// class*Layers()+layer and 0 for an empty cell, read-locking one row at a
// time. dst must hold Classes()*Layers() values. It allocates nothing,
// where a sweep of Cells costs 64 bytes per populated cell.
func (s *Sharded) EvTotalsInto(dst []float64) {
	for c := range s.rows {
		row := &s.rows[c]
		row.mu.RLock()
		copy(dst[c*s.layers:(c+1)*s.layers], row.evtotal)
		row.mu.RUnlock()
	}
}

// Cell is one populated cell as captured by a sweep. Vec is a borrowed
// reference to the live, immutable cell, so holding it is a stable snapshot
// and must not be written through.
type Cell struct {
	Class, Layer int
	Vec          []float32
	Ver          uint64
	Support      float64
	EvTotal      float64
}

// sweepParallelMinRows is the row count below which a parallel sweep
// cannot amortize its goroutine fan-out; sweepMaxWorkers bounds the
// fan-out (diminishing returns past a handful of lock-stride readers,
// and a fixed bound keeps the per-sweep worker list off the heap).
const (
	sweepParallelMinRows = 32
	sweepMaxWorkers      = 16
)

// cellBufPool recycles per-worker sweep buffers, keeping the parallel
// sweep's cell storage allocation-free at steady state.
var cellBufPool = sync.Pool{New: func() any { return new([]Cell) }}

// AppendCells appends every populated cell in (class, layer) order to dst
// and returns the extended slice — the table sweep the federation tier's
// delta collection runs. Rows are read-locked one at a time, so concurrent
// merges into other rows are not blocked. Vec fields are borrowed (see
// Cell). The sequential regime (small tables) allocates nothing beyond
// dst growth; tables with at least sweepParallelMinRows rows are swept by
// up to sweepMaxWorkers workers over contiguous row ranges — cell storage
// comes from pooled buffers stitched back in row order, so the parallel
// regime's steady-state cost is the goroutine fan-out itself, not per-cell
// allocation — and one slow reader no longer serializes the whole sweep
// behind a single goroutine.
func (s *Sharded) AppendCells(dst []Cell) []Cell {
	workers := runtime.GOMAXPROCS(0)
	if s.classes < sweepParallelMinRows || workers < 2 {
		return s.appendRows(dst, 0, s.classes)
	}
	if workers > sweepMaxWorkers {
		workers = sweepMaxWorkers
	}
	if workers > s.classes {
		workers = s.classes
	}
	var bufs [sweepMaxWorkers]*[]Cell
	var wg sync.WaitGroup
	chunk := (s.classes + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > s.classes {
			hi = s.classes
		}
		buf := cellBufPool.Get().(*[]Cell)
		bufs[w] = buf
		wg.Add(1)
		go s.sweepWorker(lo, hi, buf, &wg)
	}
	wg.Wait()
	for _, buf := range bufs[:workers] {
		dst = append(dst, *buf...)
		// Zero the elements before pooling: a parked buffer must not pin
		// superseded entry slices (Vec borrows) against the GC.
		clear(*buf)
		*buf = (*buf)[:0]
		cellBufPool.Put(buf)
	}
	return dst
}

// sweepWorker fills one pooled buffer with rows [lo, hi); taking plain
// arguments (no closure) keeps the spawn allocation-free.
func (s *Sharded) sweepWorker(lo, hi int, buf *[]Cell, wg *sync.WaitGroup) {
	defer wg.Done()
	*buf = s.appendRows((*buf)[:0], lo, hi)
}

// appendRows appends the populated cells of rows [lo, hi) to dst in
// (class, layer) order, read-locking one row at a time.
func (s *Sharded) appendRows(dst []Cell, lo, hi int) []Cell {
	for c := lo; c < hi; c++ {
		row := &s.rows[c]
		row.mu.RLock()
		for j, v := range row.vecs {
			if v != nil {
				dst = append(dst, Cell{
					Class: c, Layer: j, Vec: v,
					Ver: row.vers[j], Support: row.support[j], EvTotal: row.evtotal[j],
				})
			}
		}
		row.mu.RUnlock()
	}
	return dst
}

// Set stores a normalized copy of vec at (class, layer), bumping version
// and setting support to the given evidence count.
func (s *Sharded) Set(class, layer int, vec []float32, support float64) error {
	if err := s.check(class, layer); err != nil {
		return err
	}
	if len(vec) != s.dim {
		return fmt.Errorf("gtable: Set dim %d, want %d", len(vec), s.dim)
	}
	v := vecmath.Clone(vec)
	if n := vecmath.Normalize(v); !usable(n) {
		return rejected("Set", class, layer, n)
	}
	row := &s.rows[class]
	row.mu.Lock()
	defer row.mu.Unlock()
	row.vecs[layer] = v
	row.support[layer] = support
	row.evtotal[layer] += support // the ledger stays monotone across re-seeds
	row.vers[layer]++
	return nil
}

// load captures the published vector and write version of (class, layer)
// under the row's read lock: two words, no allocation.
func (s *Sharded) load(class, layer int) ([]float32, uint64) {
	if err := s.check(class, layer); err != nil {
		panic(err)
	}
	row := &s.rows[class]
	row.mu.RLock()
	defer row.mu.RUnlock()
	return row.vecs[layer], row.vers[layer]
}

// ExtractLayerEntriesInto appends the published vectors of the given column
// restricted to classes — with each cell's current version, preserving class
// order and skipping absent cells — onto the caller's scratch slices and
// returns them. The vectors are borrowed immutable cells, nothing is widened,
// and at steady state, once the scratch has grown to the working-set size,
// the extraction allocates nothing at all.
func (s *Sharded) ExtractLayerEntriesInto(layer int, classes []int, cls []int, vecs [][]float32, vers []uint64) ([]int, [][]float32, []uint64) {
	for _, c := range classes {
		if v, ver := s.load(c, layer); v != nil {
			cls = append(cls, c)
			vecs = append(vecs, v)
			vers = append(vers, ver)
		}
	}
	return cls, vecs, vers
}

// ExtractLayerStagedInto is the probing form of ExtractLayerEntriesInto: it
// also returns each vector's widened mirror and squared norm (wide[i] and
// norm2[i] belong to entries[i]), built by vecmath.WidenRow on every call.
// Only the bench harness calls it; the product probes float32 cells and
// leaves staging to the view that probes them.
func (s *Sharded) ExtractLayerStagedInto(layer int, classes []int, cls []int, entries [][]float32, vers []uint64, wide [][]float64, norm2 []float64) ([]int, [][]float32, []uint64, [][]float64, []float64) {
	for _, c := range classes {
		if v, ver := s.load(c, layer); v != nil {
			w, n2 := vecmath.WidenRow(v)
			cls = append(cls, c)
			entries = append(entries, v)
			vers = append(vers, ver)
			wide = append(wide, w)
			norm2 = append(norm2, n2)
		}
	}
	return cls, entries, vers, wide, norm2
}

// Snapshot returns a copy of the table: every cell's vector, version, support
// and evidence total. Rows are locked one at a time — the snapshot is per-row
// consistent, matching what any single allocation can observe — and the
// vectors are shared, not copied (published cells are immutable), so
// concurrent Merge writers never wait on a snapshot's allocations and later
// writes to either table leave the other as it was.
func (s *Sharded) Snapshot() *Sharded {
	out := NewSharded(s.classes, s.layers, s.dim)
	for c := range s.rows {
		row, dst := &s.rows[c], &out.rows[c]
		row.mu.RLock()
		copy(dst.vecs, row.vecs)
		copy(dst.vers, row.vers)
		copy(dst.support, row.support)
		copy(dst.evtotal, row.evtotal)
		row.mu.RUnlock()
	}
	return out
}

// Populated returns the number of non-nil entries.
func (s *Sharded) Populated() int {
	n := 0
	for c := range s.rows {
		row := &s.rows[c]
		row.mu.RLock()
		for _, v := range row.vecs {
			if v != nil {
				n++
			}
		}
		row.mu.RUnlock()
	}
	return n
}
