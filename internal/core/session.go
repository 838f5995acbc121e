// Coordinator v2: the session-based client↔server coordination API.
//
// The v1 coordinator was a context-free three-method interface
// (Register/Allocate/Upload) that re-materialized the client's whole cache
// table every round and serialized all clients behind one server mutex.
// v2 makes coordination session-oriented: registration opens a Session,
// every call takes a context, and Allocate returns a versioned Delta
// against the client's last-seen allocation — only changed and evicted
// cells travel, which is what makes the per-round hot path cheap at fleet
// scale.
package core

import (
	"context"
	"fmt"
	"slices"

	"coca/internal/cache"
	"coca/internal/model"
	"coca/internal/vecmath"
)

// Coordinator is the server-side interface clients depend on; it is
// implemented in-process by *Server and over the wire by the protocol
// session client.
type Coordinator interface {
	// Open registers a client and returns its coordination session.
	Open(ctx context.Context, clientID int) (Session, error)
}

// Session is one registered client's handle to the coordinator. A session
// is owned by a single client and its methods are called sequentially by
// that client; different sessions may be used concurrently.
type Session interface {
	// Info returns the registration payload (model shape, server profile).
	Info() RegisterInfo
	// Allocate runs cache allocation on the client's status and returns a
	// versioned delta against the allocation version named by
	// status.LastVersion. When the server cannot delta against that
	// version (first round, reconnect, or divergence) the delta is Full.
	// The status is borrowed for the call, like Upload's report, and retained
	// by no implementation; the delta is the session's memory, valid until
	// its next call, Close included.
	Allocate(ctx context.Context, status StatusReport) (Delta, error)
	// Upload merges the client's round update table and frequencies into
	// the global state. The report is borrowed for the call: an
	// implementation encodes or merges it before returning and retains none
	// of its slices, so the caller may hand over live vectors and reuse
	// them afterwards.
	Upload(ctx context.Context, upd UpdateReport) error
	// Close releases the session; subsequent calls fail.
	Close() error
}

// CellRef names one allocated cache cell: class at cache site.
type CellRef struct {
	Site, Class int
}

// DeltaCell is one new or changed cache cell with its entry vector. Vec is
// borrowed: an in-process session hands out the published global-table
// vector, a wire decoder its arena. Either way the receiving view keeps its
// own copy and stages it on apply (once per changed cell, never per round).
type DeltaCell struct {
	Site, Class int
	Vec         []float32
}

// Delta is a versioned allocation update. Applying it to the allocation
// with version BaseVersion yields the allocation with version Version:
// Cells are upserted, Evict cells are dropped, and the activated shape
// becomes exactly Sites × (the classes present per site). When Full is
// set the delta ignores BaseVersion and describes the complete
// allocation.
type Delta struct {
	// Version identifies the resulting allocation.
	Version uint64
	// BaseVersion is the allocation this delta applies to (0 with Full).
	BaseVersion uint64
	// Full marks a complete (non-incremental) allocation.
	Full bool
	// Classes is the hot-spot class set behind the allocation
	// (diagnostic, mirrors Allocation.Classes).
	Classes []int
	// Sites lists the activated cache sites of the resulting allocation,
	// ascending.
	Sites []int
	// Cells are the new or changed cells.
	Cells []DeltaCell
	// Evict are the cells to drop (never set with Full).
	Evict []CellRef
}

// Check refuses a delta a client of numClasses × numLayers cannot hold: a
// site outside [0, numLayers), in Sites or at a cell; a cell class outside
// [0, numClasses); or a cell vector that is not model.Dim long. The wire
// decoder and AllocView.Apply take any of these, and the client's probe
// indexes by all three, so a client checks every delta before applying it.
func (d Delta) Check(numClasses, numLayers int) error {
	for _, s := range d.Sites {
		if s < 0 || s >= numLayers {
			return fmt.Errorf("core: delta site %d outside the model's %d layers", s, numLayers)
		}
	}
	for _, c := range d.Cells {
		switch {
		case c.Site < 0 || c.Site >= numLayers:
			return fmt.Errorf("core: delta cell (%d,%d) outside the model's %d layers", c.Site, c.Class, numLayers)
		case c.Class < 0 || c.Class >= numClasses:
			return fmt.Errorf("core: delta cell (%d,%d) outside the model's %d classes", c.Site, c.Class, numClasses)
		case len(c.Vec) != model.Dim:
			return fmt.Errorf("core: delta cell (%d,%d) has %d dimensions, want %d", c.Site, c.Class, len(c.Vec), model.Dim)
		}
	}
	return nil
}

// AllocView is a client-side materialized view of its current allocation:
// the cells received so far, stored per site in the shape cache.NewLocal
// consumes. Applying successive deltas keeps the view in sync with the
// server's session record; the view's version is echoed back in
// StatusReport.LastVersion so the server knows which base the client holds.
//
// The view owns the storage of every cell it holds at its high-water mark,
// one float32 vector per cell, whether the delta came from an in-process
// session or over the wire: a changed cell is overwritten where it lies, the
// buffer of a cell that leaves waits in spare for whichever later delta adds
// a cell, and a delta that needs more buffers than the view ever held at
// once gets them all from one slab. No buffer is ever dropped and there is
// no cap — a slab cell cannot be freed on its own, so dropping would pin
// whole slabs behind single live cells — hence the view owns exactly as many
// buffers as the most cells it held at once (≤ sites × classes). Each buffer
// has cap == len, so an append through Layers cannot reach a neighbouring
// cell. Layers and Allocation hand out the view's own slices, valid until
// the next Apply or Close. A client's view goes back to the pool on the
// client's Close, buffers and all, and the next client that opens applies
// its Full delta into them.
type AllocView struct {
	version uint64
	classes []int
	sites   []viewSite // every site a delta ever put a cell at, ascending
	ncells  int
	spare   [][]float32   // owned buffers no cell uses
	slab    []float32     // the running Apply's slab, less what it has carved
	layers  []cache.Layer // what Layers hands out
	plan    applyPlan
}

// viewSite is one site's cells, classes ascending; grow counts the cells the
// running Apply adds to the site.
type viewSite struct {
	layer cache.Layer
	grow  int
}

// applyPlan is Apply's working memory, kept from one delta to the next: the
// delta's cells at active sites and its evictions, grouped by their site's
// position in Delta.Sites and ascending by class within a group, and the
// buffers the delta needs per dimension.
type applyPlan struct {
	// keys holds the grouped cells, then the grouped evictions: a cell is
	// classKey(Class) | its index in Delta.Cells, an eviction classKey alone.
	keys []uint64
	// at holds, for the n sites of Delta.Sites, the cells' group bounds
	// (group r is keys[at[r]:at[r+1]]), the evictions' (n+2 on), and each
	// site's position in AllocView.sites or -1 (2n+4 on).
	at   []int32
	need []dimNeed
}

// dimNeed counts the buffers of one dimension the running Apply takes.
type dimNeed struct{ dim, n int }

// classKey maps a class in the int32 range a delta carries to the upper
// half of a sort key, in the same order.
func classKey(class int) uint64 { return uint64(uint32(class)^1<<31) << 32 }

// keyClass is the class part of a key.
const keyClass = ^uint64(1<<32 - 1)

// NewAllocView returns an empty view (version 0: nothing allocated yet).
func NewAllocView() *AllocView { return &AllocView{} }

// Version returns the version of the currently held allocation.
func (v *AllocView) Version() uint64 { return v.version }

// Classes returns the hot-spot class set of the current allocation.
func (v *AllocView) Classes() []int { return v.classes }

// NumCells returns the number of materialized cells.
func (v *AllocView) NumCells() int { return v.ncells }

// Apply folds a delta into the view. A non-full delta must be based on
// the view's current version; a full delta resets the view. A delta that is
// rejected leaves the view untouched.
//
// The delta's slices are borrowed (server sessions and wire decoders reuse
// them between calls), so Apply copies every vector into view-owned storage
// and the delta may be invalidated freely once it returns. What Layers and
// Allocation returned before is invalidated by Apply (and by the owning
// client's Close): a holder that needs it longer takes a Clone.
// Delta.Sites is ascending by contract (the wire format and the server both
// guarantee it); a delta that breaks it is rejected, and so is a cell whose
// class lies outside the int32 range the wire carries.
//
// Apply visits each touched site once: it drops the rows the delta evicts,
// counts the buffers the delta needs and sizes one slab for what the parked
// buffers do not cover, then merges the site's cells into its rows from the
// back, copying each vector and staging its squared norm four cells per
// vecmath.SquaredNorms call. A cell the delta names twice keeps its last
// vector.
func (v *AllocView) Apply(d Delta) error {
	if !slices.IsSorted(d.Sites) {
		return fmt.Errorf("core: delta sites %v not ascending", d.Sites)
	}
	if !d.Full && d.BaseVersion != v.version {
		return fmt.Errorf("core: delta base version %d, view holds %d", d.BaseVersion, v.version)
	}
	for _, c := range d.Cells {
		if len(c.Vec) == 0 {
			return fmt.Errorf("core: delta cell (%d,%d) has empty vector", c.Site, c.Class)
		}
		if c.Class != int(int32(c.Class)) {
			return fmt.Errorf("core: delta cell (%d,%d) has a class outside int32", c.Site, c.Class)
		}
	}
	if d.Full {
		for i := range v.sites {
			v.release(&v.sites[i])
		}
		d.Evict = nil
	}
	p := &v.plan
	p.group(d)
	// The view is an exact function of the delta's declared shape: a site it
	// does not activate is dropped, and a cell there never materialized.
	n := len(d.Sites)
	cellAt, evictAt, siteAt := p.at[:n+1], p.at[n+2:2*n+3], p.at[2*n+4:]
	v.sites = slices.Grow(v.sites, v.missingSites(d.Sites, cellAt))
	p.need = p.need[:0]
	vi := 0
	for r, site := range d.Sites {
		for ; vi < len(v.sites) && v.sites[vi].layer.Site < site; vi++ {
			v.release(&v.sites[vi])
		}
		siteAt[r] = -1
		cells, evict := p.keys[cellAt[r]:cellAt[r+1]], p.keys[evictAt[r]:evictAt[r+1]]
		if vi == len(v.sites) || v.sites[vi].layer.Site != site {
			if len(cells) == 0 {
				continue
			}
			v.sites = slices.Insert(v.sites, vi, viewSite{layer: cache.Layer{Site: site}})
		}
		siteAt[r] = int32(vi)
		if len(cells)+len(evict) > 0 {
			v.sweep(&v.sites[vi], evict, cells, d.Cells)
		}
		vi++
	}
	for ; vi < len(v.sites); vi++ {
		v.release(&v.sites[vi])
	}
	v.reserve()
	var g normGather
	for r, vi := range siteAt {
		if cells := p.keys[cellAt[r]:cellAt[r+1]]; vi >= 0 && len(cells) > 0 {
			v.place(&v.sites[vi], cells, d.Cells, &g)
		}
	}
	g.flush()
	v.version = d.Version
	v.classes = append(v.classes[:0], d.Classes...)
	return nil
}

// group fills p.keys and p.at from d: a counting pass and a placing pass over
// the cells and then the evictions, each finding its site's position in
// d.Sites once per run of entries at one site (a delta lists its cells site
// by site), and one sort of plain keys per group.
func (p *applyPlan) group(d Delta) {
	n := len(d.Sites)
	if m := 3*n + 4; cap(p.at) < m {
		p.at = make([]int32, m)
	} else {
		p.at = p.at[:m]
		clear(p.at)
	}
	if m := len(d.Cells) + len(d.Evict); cap(p.keys) < m {
		p.keys = make([]uint64, m)
	}
	// Counts land two places up, so that the prefix sums leave group r's
	// start at r+1, where placing advances it to group r's end.
	cellAt, evictAt := p.at[:n+2], p.at[n+2:2*n+4]
	rank := sitePos{sites: d.Sites}
	for _, c := range d.Cells {
		if r := rank.of(c.Site); r >= 0 {
			cellAt[r+2]++
		}
	}
	rank = sitePos{sites: d.Sites}
	for _, e := range d.Evict {
		if r := rank.of(e.Site); r >= 0 && e.Class == int(int32(e.Class)) {
			evictAt[r+2]++
		}
	}
	for r := 2; r < n+2; r++ {
		cellAt[r] += cellAt[r-1]
	}
	evictAt[0], evictAt[1] = cellAt[n+1], cellAt[n+1] // the evictions follow the cells
	for r := 2; r < n+2; r++ {
		evictAt[r] += evictAt[r-1]
	}
	rank = sitePos{sites: d.Sites}
	for i, c := range d.Cells {
		if r := rank.of(c.Site); r >= 0 {
			p.keys[cellAt[r+1]] = classKey(c.Class) | uint64(i)
			cellAt[r+1]++
		}
	}
	rank = sitePos{sites: d.Sites}
	for _, e := range d.Evict {
		if r := rank.of(e.Site); r >= 0 && e.Class == int(int32(e.Class)) {
			p.keys[evictAt[r+1]] = classKey(e.Class)
			evictAt[r+1]++
		}
	}
	for r := range n {
		slices.Sort(p.keys[cellAt[r]:cellAt[r+1]])
		slices.Sort(p.keys[evictAt[r]:evictAt[r+1]])
	}
}

// sitePos finds sites' positions in an ascending site list, remembering the
// last one: it searches once per run of entries at one site.
type sitePos struct {
	sites     []int
	site, pos int
	looked    bool
}

// of returns site's position in the list, or -1 when the list lacks it.
func (s *sitePos) of(site int) int {
	if !s.looked || site != s.site {
		i, ok := slices.BinarySearch(s.sites, site)
		if !ok {
			i = -1
		}
		s.site, s.pos, s.looked = site, i, true
	}
	return s.pos
}

// missingSites counts the sites of the delta that get a cell (their group
// in cellAt is not empty) and are not in the view yet.
func (v *AllocView) missingSites(sites []int, cellAt []int32) int {
	missing, vi := 0, 0
	for r, site := range sites {
		for vi < len(v.sites) && v.sites[vi].layer.Site < site {
			vi++
		}
		if cellAt[r+1] > cellAt[r] && (vi == len(v.sites) || v.sites[vi].layer.Site != site) {
			missing++
		}
	}
	return missing
}

// release takes every cell of a site out of the view; their buffers are
// parked in v.spare.
func (v *AllocView) release(s *viewSite) {
	l := &s.layer
	v.spare = append(v.spare, l.Entries...)
	clear(l.Entries)
	v.ncells -= len(l.Classes)
	l.Classes, l.Entries, l.Norm2 = l.Classes[:0], l.Entries[:0], l.Norm2[:0]
}

// sweep is the first half of applying a delta to one site, a forward walk of
// its rows beside the site's evictions and cells, both sorted by class. It
// compacts out the rows the delta evicts and does not write again, parking
// their buffers; parks the buffer of a held cell whose new vector has
// another dimension; and counts in s.grow the cells the delta adds, noting
// the buffers they and the outgrown cells will take.
func (v *AllocView) sweep(s *viewSite, evict, cells []uint64, dc []DeltaCell) {
	l := &s.layer
	w, e, k := 0, 0, 0
	adds := func(below uint64) {
		for ; k < len(cells) && cells[k]&keyClass < below; k++ {
			if k+1 == len(cells) || cells[k+1]&keyClass != cells[k]&keyClass {
				s.grow++
				v.plan.needs(len(dc[uint32(cells[k])].Vec))
			}
		}
	}
	for i, class := range l.Classes {
		key := classKey(class)
		adds(key)
		written := -1 // the last write of this cell
		for ; k < len(cells) && cells[k]&keyClass == key; k++ {
			written = int(uint32(cells[k]))
		}
		for e < len(evict) && evict[e] < key {
			e++
		}
		if written < 0 && e < len(evict) && evict[e] == key {
			v.spare = append(v.spare, l.Entries[i])
			continue
		}
		l.Classes[w], l.Entries[w], l.Norm2[w] = class, l.Entries[i], l.Norm2[i]
		if written >= 0 && len(l.Entries[w]) != len(dc[written].Vec) {
			v.spare = append(v.spare, l.Entries[w])
			l.Entries[w] = nil
			v.plan.needs(len(dc[written].Vec))
		}
		w++
	}
	adds(^uint64(0))
	clear(l.Entries[w:])
	v.ncells -= len(l.Classes) - w
	l.Classes, l.Entries, l.Norm2 = l.Classes[:w], l.Entries[:w], l.Norm2[:w]
}

// needs counts one buffer of dimension dim that the running Apply takes.
func (p *applyPlan) needs(dim int) {
	for i := range p.need {
		if p.need[i].dim == dim {
			p.need[i].n++
			return
		}
	}
	p.need = append(p.need, dimNeed{dim, 1})
}

// reserve makes the running Apply's slab: per dimension, room for the
// buffers it takes beyond those parked.
func (v *AllocView) reserve() {
	floats := 0
	for _, nd := range v.plan.need {
		parked := 0
		for _, b := range v.spare {
			if len(b) == nd.dim {
				parked++
			}
		}
		floats += max(nd.n-parked, 0) * nd.dim
	}
	v.slab = make([]float32, floats)
}

// take hands out an owned buffer of dimension n that no cell uses: a parked
// one, else the next of the running Apply's slab (reserve sized it for it).
func (v *AllocView) take(n int) []float32 {
	if j := slices.IndexFunc(v.spare, func(b []float32) bool { return len(b) == n }); j >= 0 {
		b, last := v.spare[j], len(v.spare)-1
		v.spare[j], v.spare = v.spare[last], v.spare[:last]
		return b
	}
	b := v.slab[:n:n]
	v.slab = v.slab[n:]
	return b
}

// place is the second half: it merges the site's cells, sorted by class,
// into its rows from the back. Every row the cells land beyond moves once,
// to where it ends; a held cell is overwritten where it ends and a new one
// written there, in a buffer it has or takes; and each written row's squared
// norm is left to g.
func (v *AllocView) place(s *viewSite, cells []uint64, dc []DeltaCell, g *normGather) {
	l := &s.layer
	i, n := len(l.Classes)-1, len(l.Classes)+s.grow
	l.Classes = slices.Grow(l.Classes, s.grow)[:n]
	l.Entries = slices.Grow(l.Entries, s.grow)[:n]
	l.Norm2 = slices.Grow(l.Norm2, s.grow)[:n]
	v.ncells += s.grow
	s.grow = 0
	t := n - 1
	for j := len(cells) - 1; j >= 0; j, t = j-1, t-1 {
		key := cells[j] & keyClass
		c := &dc[uint32(cells[j])]
		for j > 0 && cells[j-1]&keyClass == key {
			j-- // an earlier write of the same cell
		}
		for ; i >= 0 && classKey(l.Classes[i]) > key; i, t = i-1, t-1 {
			l.Classes[t], l.Entries[t], l.Norm2[t] = l.Classes[i], l.Entries[i], l.Norm2[i]
		}
		if i >= 0 && classKey(l.Classes[i]) == key {
			l.Classes[t], l.Entries[t] = l.Classes[i], l.Entries[i]
			i--
		} else {
			l.Classes[t], l.Entries[t] = c.Class, nil
		}
		if l.Entries[t] == nil {
			l.Entries[t] = v.take(len(c.Vec))
		}
		copy(l.Entries[t], c.Vec)
		g.add(l.Entries[t], &l.Norm2[t])
	}
}

// normGather stages written cells' squared norms four per
// vecmath.SquaredNorms call, filing each at its row once no row moves.
type normGather struct {
	vecs [4][]float32
	dst  [4]*float64
	n    int
}

func (g *normGather) add(vec []float32, dst *float64) {
	g.vecs[g.n], g.dst[g.n] = vec, dst
	if g.n++; g.n == len(g.vecs) {
		g.flush()
	}
}

func (g *normGather) flush() {
	var out [4]float64
	vecmath.SquaredNorms(g.vecs[:g.n], out[:g.n])
	for j, p := range g.dst[:g.n] {
		*p = out[j]
	}
	g.n = 0
}

// reset empties the view the way a Full delta does: every cell is released,
// its buffer parked in spare, and the parallel slices keep their capacity, so
// a Full delta of as many cells into the reset view allocates no slab.
func (v *AllocView) reset() {
	for i := range v.sites {
		v.release(&v.sites[i])
	}
	v.version, v.classes, v.layers = 0, v.classes[:0], v.layers[:0]
}

// Layers materializes the view as cache layers (sites ascending, classes
// ascending within a site), the shape cache.NewLocal consumes, staged. The
// layers alias the view's storage and are valid until the next Apply or
// Close.
func (v *AllocView) Layers() []cache.Layer {
	out := v.layers[:0]
	for i := range v.sites {
		if l := &v.sites[i].layer; l.Len() > 0 {
			out = append(out, *l)
		}
	}
	v.layers = out
	return out
}

// Allocation materializes the view as a full allocation (used by
// frozen-allocation refreshes). Like Layers, it is valid until the next
// Apply or Close.
func (v *AllocView) Allocation() Allocation {
	return Allocation{Classes: v.classes, Layers: v.Layers()}
}

// Clone returns a copy of the allocation's shape and entry vectors that
// shares nothing with the view it was materialized from, for holders that
// outlive that view's next Apply or Close. Staging is left to whoever probes
// the copy.
func (a Allocation) Clone() Allocation {
	out := Allocation{Classes: slices.Clone(a.Classes), Layers: make([]cache.Layer, len(a.Layers))}
	for i, l := range a.Layers {
		entries := make([][]float32, len(l.Entries))
		for k, e := range l.Entries {
			entries[k] = slices.Clone(e)
		}
		out.Layers[i] = cache.Layer{Site: l.Site, Classes: slices.Clone(l.Classes), Entries: entries}
	}
	return out
}
