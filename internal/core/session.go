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
	"sort"

	"coca/internal/cache"
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
	// the global state.
	Upload(ctx context.Context, upd UpdateReport) error
	// Close releases the session; subsequent calls fail.
	Close() error
}

// CellRef names one allocated cache cell: class at cache site.
type CellRef struct {
	Site, Class int
}

// DeltaCell is one new or changed cache cell with its entry vector.
// Wide and Norm2 are the entry's publish-time probe staging (widened
// float64 mirror and squared norm, computed once when the global-table
// cell was merged/published). In-process sessions fill them — the mirrors
// are immutable-once-published table memory, shared read-only — while
// wire transports ship only Vec and the receiving view restages on apply
// (once per changed cell, never per round).
type DeltaCell struct {
	Site, Class int
	Vec         []float32
	Wide        []float64
	Norm2       float64
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
// the cells received so far, keyed by (site, class). Applying successive
// deltas keeps the view in sync with the server's session record; the
// view's version is echoed back in StatusReport.LastVersion so the server
// knows which base the client holds.
type AllocView struct {
	version uint64
	classes []int
	sites   []int
	cells   map[CellRef]viewCell
}

// viewCell is one materialized cell: the entry vector plus its probe
// staging (see DeltaCell). For in-process deltas all three borrow the
// immutable published global-table memory; for wire deltas vec is a
// view-owned copy and the staging is computed at apply time.
type viewCell struct {
	vec   []float32
	wide  []float64
	norm2 float64
}

// NewAllocView returns an empty view (version 0: nothing allocated yet).
func NewAllocView() *AllocView {
	return &AllocView{cells: make(map[CellRef]viewCell)}
}

// Version returns the version of the currently held allocation.
func (v *AllocView) Version() uint64 { return v.version }

// Classes returns the hot-spot class set of the current allocation.
func (v *AllocView) Classes() []int { return v.classes }

// NumCells returns the number of materialized cells.
func (v *AllocView) NumCells() int { return len(v.cells) }

// Apply folds a delta into the view. A non-full delta must be based on
// the view's current version; a full delta resets the view.
//
// The delta's slices are borrowed (server sessions and wire decoders
// reuse them between calls), so Apply copies everything it keeps: each
// changed cell gets a FRESH view-owned vector — never an in-place
// overwrite, because previously materialized Layers()/Allocation() (the
// frozen-allocation ablation retains one) alias the old slices and must
// stay bitwise stable. After Apply returns, the delta may be invalidated
// freely. Delta.Sites is ascending by contract (the wire format and the
// server both guarantee it); a delta that breaks it is rejected.
func (v *AllocView) Apply(d Delta) error {
	if !slices.IsSorted(d.Sites) {
		return fmt.Errorf("core: delta sites %v not ascending", d.Sites)
	}
	if d.Full {
		clear(v.cells)
	} else if d.BaseVersion != v.version {
		return fmt.Errorf("core: delta base version %d, view holds %d", d.BaseVersion, v.version)
	}
	for _, ref := range d.Evict {
		delete(v.cells, ref)
	}
	for _, c := range d.Cells {
		if len(c.Vec) == 0 {
			return fmt.Errorf("core: delta cell (%d,%d) has empty vector", c.Site, c.Class)
		}
		if !activeSite(d.Sites, c.Site) {
			// The view is an exact function of the delta's declared shape:
			// a cell outside the activated sites is never materialized.
			continue
		}
		vc := viewCell{vec: c.Vec, wide: c.Wide, norm2: c.Norm2}
		if len(c.Wide) == len(c.Vec) {
			// In-process delta: Vec and Wide are immutable published
			// global-table memory (merges replace, never mutate, entry
			// slices), so the view shares them instead of copying.
		} else {
			// Wire delta: the decoder reuses its arena between calls, so
			// copy the vector, and publish its staging here — once per
			// changed cell, reused by every probe until the cell changes
			// again.
			vc.vec = append([]float32(nil), c.Vec...)
			vc.wide, vc.norm2 = vecmath.WidenRow(vc.vec)
		}
		v.cells[CellRef{Site: c.Site, Class: c.Class}] = vc
	}
	// Cells held at a site this delta deactivates are dropped (shape shrink
	// without explicit evictions only happens on Full deltas, which start
	// from an empty view; the common delta deactivates nothing and skips
	// the sweep).
	if !d.Full && deactivates(v.sites, d.Sites) {
		for ref := range v.cells {
			if !activeSite(d.Sites, ref.Site) {
				delete(v.cells, ref)
			}
		}
	}
	v.version = d.Version
	v.classes = append(v.classes[:0], d.Classes...)
	v.sites = append(v.sites[:0], d.Sites...)
	return nil
}

// activeSite reports whether site is in the ascending list sites.
func activeSite(sites []int, site int) bool {
	_, ok := slices.BinarySearch(sites, site)
	return ok
}

// deactivates reports whether some site of the ascending list old is
// missing from the ascending list cur.
func deactivates(old, cur []int) bool {
	for _, s := range old {
		if !activeSite(cur, s) {
			return true
		}
	}
	return false
}

// Layers materializes the view as cache layers (sites ascending, classes
// ascending within a site), the shape cache.NewLocal consumes.
func (v *AllocView) Layers() []cache.Layer {
	bySite := make(map[int][]int)
	for ref := range v.cells {
		bySite[ref.Site] = append(bySite[ref.Site], ref.Class)
	}
	sites := make([]int, 0, len(bySite))
	for s := range bySite {
		sites = append(sites, s)
	}
	sort.Ints(sites)
	out := make([]cache.Layer, 0, len(sites))
	for _, s := range sites {
		cls := bySite[s]
		sort.Ints(cls)
		entries := make([][]float32, len(cls))
		wide := make([][]float64, len(cls))
		norm2 := make([]float64, len(cls))
		for i, c := range cls {
			vc := v.cells[CellRef{Site: s, Class: c}]
			entries[i] = vc.vec
			wide[i] = vc.wide
			norm2[i] = vc.norm2
		}
		out = append(out, cache.Layer{Site: s, Classes: cls, Entries: entries, Wide: wide, Norm2: norm2})
	}
	return out
}

// Allocation materializes the view as a v1-style full allocation (used by
// the wire server to answer protocol-v1 clients and by frozen-allocation
// refreshes).
func (v *AllocView) Allocation() Allocation {
	return Allocation{Classes: append([]int(nil), v.classes...), Layers: v.Layers()}
}
