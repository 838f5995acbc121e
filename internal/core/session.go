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
	"coca/internal/gtable"
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

// DeltaCell is one new or changed cache cell with its entry vector. Entry is
// set by in-process sessions only: it is the published global-table entry
// Vec belongs to, and lets the receiving view share the table's memory —
// the vector and the staging memoised on the entry — instead of copying.
// Wire transports ship Vec alone; the receiving view keeps its own copy and
// stages it on apply (once per changed cell, never per round).
type DeltaCell struct {
	Site, Class int
	Vec         []float32
	Entry       *gtable.Entry
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
	// (diagnostic, mirrors v1 Allocation.Classes).
	Classes []int
	// Sites lists the activated cache sites of the resulting allocation,
	// ascending.
	Sites []int
	// Cells are the new or changed cells.
	Cells []DeltaCell
	// Evict are the cells to drop (never set with Full).
	Evict []CellRef
}

// AllocView is a client-side materialized view of its current allocation:
// the cells received so far, stored per site in the shape cache.NewLocal
// consumes. Applying successive deltas keeps the view in sync with the
// server's session record; the view's version is echoed back in
// StatusReport.LastVersion so the server knows which base the client holds.
//
// The view owns the storage of the cells a wire delta delivered: a changed
// cell is overwritten where it lies, and the buffers of an evicted cell serve
// the cells the same delta adds. Cells of an in-process delta share the
// published table entry instead. Either way Layers and Allocation hand out
// the view's own slices, valid until the next Apply.
type AllocView struct {
	version uint64
	classes []int
	sites   []viewSite // every site that ever held a cell, ascending
	ncells  int
	spare   []cellBuf // released by the running Apply, for the cells it adds
}

// viewSite is one site's cells, classes ascending. ents[i] is the published
// entry cell i shares (its staging is fetched when Layers is asked for it), or
// nil when the view owns layer.Entries[i] and layer.Wide[i].
type viewSite struct {
	layer cache.Layer
	ents  []*gtable.Entry
}

// cellBuf is the view-owned storage of one cell.
type cellBuf struct {
	vec  []float32
	wide []float64
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
// them between calls), so Apply copies every vector that comes without an
// entry handle into view-owned storage and the delta may be invalidated
// freely once it returns. What Layers and Allocation returned before is
// invalidated by Apply: a holder that needs it longer takes a Clone.
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
	for _, c := range d.Cells {
		if activeSite(d.Sites, c.Site) {
			v.upsert(c)
		}
	}
	clear(v.spare[:cap(v.spare)]) // what no added cell took is dropped
	v.spare = v.spare[:0]
	v.version = d.Version
	v.classes = append(v.classes[:0], d.Classes...)
	return nil
}

// activeSite reports whether site is in the ascending list sites.
func activeSite(sites []int, site int) bool {
	_, ok := slices.BinarySearch(sites, site)
	return ok
}

// site returns the position of site in v.sites and whether it is there.
func (v *AllocView) site(site int) (int, bool) {
	return slices.BinarySearchFunc(v.sites, site, func(s viewSite, site int) int { return s.layer.Site - site })
}

// release takes cells [i, j) of a site out of the view; the buffers the view
// owns among them wait in v.spare for the cells the running Apply adds.
func (v *AllocView) release(s *viewSite, i, j int) {
	l := &s.layer
	for k := i; k < j; k++ {
		if s.ents[k] == nil {
			v.spare = append(v.spare, cellBuf{l.Entries[k], l.Wide[k]})
		}
	}
	l.Classes = slices.Delete(l.Classes, i, j)
	l.Entries = slices.Delete(l.Entries, i, j)
	l.Wide = slices.Delete(l.Wide, i, j)
	l.Norm2 = slices.Delete(l.Norm2, i, j)
	s.ents = slices.Delete(s.ents, i, j)
	v.ncells -= j - i
}

// upsert stores one delta cell, in place when the view already holds it.
func (v *AllocView) upsert(c DeltaCell) {
	si, ok := v.site(c.Site)
	if !ok {
		v.sites = slices.Insert(v.sites, si, viewSite{layer: cache.Layer{Site: c.Site}})
	}
	s := &v.sites[si]
	l := &s.layer
	i, ok := slices.BinarySearch(l.Classes, c.Class)
	if !ok {
		l.Classes = slices.Insert(l.Classes, i, c.Class)
		l.Entries = slices.Insert(l.Entries, i, nil)
		l.Wide = slices.Insert(l.Wide, i, nil)
		l.Norm2 = slices.Insert(l.Norm2, i, 0)
		s.ents = slices.Insert(s.ents, i, nil)
		v.ncells++
	}
	if c.Entry != nil {
		// In-process cell: the entry is immutable published table memory
		// (merges replace, never mutate, it), so the view shares it.
		if s.ents[i] == nil && l.Entries[i] != nil {
			v.spare = append(v.spare, cellBuf{l.Entries[i], l.Wide[i]})
		}
		s.ents[i], l.Entries[i], l.Wide[i], l.Norm2[i] = c.Entry, c.Entry.Vec, nil, 0
		return
	}
	// Wire cell: the decoder reuses its arena between calls, so the view
	// keeps a copy — in the buffers this cell already has, else in a pair
	// this delta released — and stages it here, once per changed cell,
	// for every probe until the cell changes again.
	if s.ents[i] != nil || len(l.Entries[i]) != len(c.Vec) {
		var b cellBuf
		if n := len(v.spare) - 1; n >= 0 {
			b, v.spare = v.spare[n], v.spare[:n]
		}
		if len(b.vec) != len(c.Vec) {
			b = cellBuf{make([]float32, len(c.Vec)), make([]float64, len(c.Vec))}
		}
		s.ents[i], l.Entries[i], l.Wide[i] = nil, b.vec, b.wide
	}
	copy(l.Entries[i], c.Vec)
	l.Norm2[i] = vecmath.WidenVec(c.Vec, l.Wide[i])
}

// Layers materializes the view as cache layers (sites ascending, classes
// ascending within a site), the shape cache.NewLocal consumes. The layers
// alias the view's storage and are valid until the next Apply. Cells shared
// with an in-process table get their staging from the published entry here,
// which is when a prober first asks for it.
func (v *AllocView) Layers() []cache.Layer {
	out := make([]cache.Layer, 0, len(v.sites))
	for i := range v.sites {
		s := &v.sites[i]
		if s.layer.Len() == 0 {
			continue
		}
		for k, e := range s.ents {
			if e != nil && s.layer.Wide[k] == nil {
				s.layer.Wide[k], s.layer.Norm2[k] = e.Staging()
			}
		}
		out = append(out, s.layer)
	}
	return out
}

// Allocation materializes the view as a v1-style full allocation (used by
// the wire server to answer protocol-v1 clients and by frozen-allocation
// refreshes). Like Layers, it is valid until the next Apply.
func (v *AllocView) Allocation() Allocation {
	return Allocation{Classes: append([]int(nil), v.classes...), Layers: v.Layers()}
}

// Clone returns a copy of the allocation's shape and entry vectors that
// shares nothing with the view it was materialized from, for holders that
// outlive that view's next Apply. Staging is left to whoever probes the copy.
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
