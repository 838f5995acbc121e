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
}

// viewSite is one site's cells, classes ascending; grow counts the cells the
// running Apply adds to the site.
type viewSite struct {
	layer cache.Layer
	grow  int
}

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
// guarantee it); a delta that breaks it is rejected.
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
	}
	// The view is an exact function of the delta's declared shape: cells at
	// a site it does not activate are dropped, and never materialized.
	for i := range v.sites {
		if s := &v.sites[i]; d.Full || !activeSite(d.Sites, s.layer.Site) {
			v.release(s, 0, s.layer.Len())
		}
	}
	for _, ref := range d.Evict {
		if si, ok := v.site(ref.Site); ok {
			if i, ok := slices.BinarySearch(v.sites[si].layer.Classes, ref.Class); ok {
				v.release(&v.sites[si], i, i+1)
			}
		}
	}
	v.reserve(d)
	for _, c := range d.Cells {
		if activeSite(d.Sites, c.Site) {
			v.upsert(c)
		}
	}
	v.stage(d)
	v.version = d.Version
	v.classes = append(v.classes[:0], d.Classes...)
	return nil
}

// activeSite reports whether site is in the ascending list sites.
func activeSite(sites []int, site int) bool {
	_, ok := slices.BinarySearch(sites, site)
	return ok
}

// site returns the position of site in v.sites and whether it is there. It
// compares by index: a comparison callback would take each viewSite by value.
func (v *AllocView) site(site int) (int, bool) {
	lo, hi := 0, len(v.sites)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if v.sites[m].layer.Site < site {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(v.sites) && v.sites[lo].layer.Site == site
}

// release takes cells [i, j) of a site out of the view; their buffers are
// parked in v.spare.
func (v *AllocView) release(s *viewSite, i, j int) {
	l := &s.layer
	v.spare = append(v.spare, l.Entries[i:j]...)
	l.Classes = slices.Delete(l.Classes, i, j)
	l.Entries = slices.Delete(l.Entries, i, j)
	l.Norm2 = slices.Delete(l.Norm2, i, j)
	v.ncells -= j - i
}

// reserve sizes the view for the cells d adds, so that upserting them
// allocates nothing: every site's parallel slices grow once, and the cells
// that neither lie in a buffer nor find a parked one of their dimension get
// theirs from one slab.
func (v *AllocView) reserve(d Delta) {
	parked, floats := 0, 0 // spare[:parked] is spoken for
	for _, c := range d.Cells {
		if !activeSite(d.Sites, c.Site) {
			continue
		}
		si, ok := v.site(c.Site)
		if !ok {
			v.sites = slices.Insert(v.sites, si, viewSite{layer: cache.Layer{Site: c.Site}})
		}
		s := &v.sites[si]
		i, held := slices.BinarySearch(s.layer.Classes, c.Class)
		if !held {
			s.grow++
		}
		if held && len(s.layer.Entries[i]) == len(c.Vec) {
			continue // the cell's buffer fits
		}
		if j := slices.IndexFunc(v.spare[parked:], func(b []float32) bool { return len(b) == len(c.Vec) }); j >= 0 {
			v.spare[parked], v.spare[parked+j] = v.spare[parked+j], v.spare[parked]
			parked++
		} else {
			floats += len(c.Vec)
		}
	}
	for i := range v.sites {
		if s := &v.sites[i]; s.grow > 0 {
			l := &s.layer
			l.Classes = slices.Grow(l.Classes, s.grow)
			l.Entries = slices.Grow(l.Entries, s.grow)
			l.Norm2 = slices.Grow(l.Norm2, s.grow)
			s.grow = 0
		}
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

// upsert stores one delta cell, in place when the view already holds it.
func (v *AllocView) upsert(c DeltaCell) {
	si, _ := v.site(c.Site)
	l := &v.sites[si].layer
	i, ok := slices.BinarySearch(l.Classes, c.Class)
	if !ok {
		l.Classes = slices.Insert(l.Classes, i, c.Class)
		l.Entries = slices.Insert(l.Entries, i, nil)
		l.Norm2 = slices.Insert(l.Norm2, i, 0)
		v.ncells++
	}
	// The view keeps a copy — in the buffer this cell already has, else in
	// one nothing uses — and stage takes its squared norm once the delta's
	// cells are all in, once per changed cell, for every probe until the
	// cell changes again.
	if len(l.Entries[i]) != len(c.Vec) {
		if l.Entries[i] != nil {
			v.spare = append(v.spare, l.Entries[i]) // the buffer the cell outgrew
		}
		l.Entries[i] = v.take(len(c.Vec))
	}
	copy(l.Entries[i], c.Vec)
}

// stage computes the squared norms of the cells of d once every upsert is
// in, four per vecmath.SquaredNorms call, and files each at its cell: no
// insertion moves a cell after this. A cell the delta names twice is summed
// twice from what it holds at the end.
func (v *AllocView) stage(d Delta) {
	var (
		vecs  [4][]float32
		norm2 [4]*float64
	)
	n := 0
	for k, c := range d.Cells {
		if activeSite(d.Sites, c.Site) {
			si, _ := v.site(c.Site)
			l := &v.sites[si].layer
			i, _ := slices.BinarySearch(l.Classes, c.Class)
			vecs[n], norm2[n] = l.Entries[i], &l.Norm2[i]
			n++
		}
		if n == len(vecs) || n > 0 && k == len(d.Cells)-1 {
			var out [4]float64
			vecmath.SquaredNorms(vecs[:n], out[:n])
			for j, p := range norm2[:n] {
				*p = out[j]
			}
			n = 0
		}
	}
}

// reset empties the view the way a Full delta does: every cell is released,
// its buffer parked in spare, and the parallel slices keep their capacity, so
// a Full delta of as many cells into the reset view allocates no slab.
func (v *AllocView) reset() {
	for i := range v.sites {
		v.release(&v.sites[i], 0, v.sites[i].layer.Len())
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
