package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"coca/internal/core"
	"coca/internal/federation"
	"coca/internal/transport"
)

// The traced run records a span at every layer boundary the harness can
// reach from outside: around the calls a load loop makes, around Send/Recv
// on both ends of every connection, and around the coordinator the server's
// connection handler calls into. Nothing inside the program is timed.
//
// Spans live in per-goroutine lanes (no locking on the record path) and are
// written out when the run ends. A lane tracks the span currently open on
// its goroutine, which becomes the parent of the next span begun there. The
// two ends of a connection run on different goroutines; they are joined by a
// link the client end fills in before each Send (its op and its own span)
// and the server end reads after each Recv — exact because the wire protocol
// is strictly request/response and each connection has one caller at a time.

// span is one timed interval. Start and End are nanoseconds since the tracer
// was created.
type span struct {
	ID, Parent int32
	Op         int64
	Name       string
	Start, End int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer owns the lanes of one run. Recording is off until enable is called,
// so the same stood-up system runs first untraced (the overhead baseline)
// and then traced.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Int32

	mu    sync.Mutex
	lanes []*lane
	// frames keeps the first maxFrames frames seen in each direction on
	// load connections, for the isolated codec replay.
	frames [][]byte
	// updates and deltas keep payloads seen by the client-side session
	// decorator, for the isolated table and restage replays.
	updates []core.UpdateReport
	deltas  [][][]float32

	// Counts taken at the same boundaries as the spans: frames and bytes on
	// load connections (both directions), and the server's allocation
	// replies.
	loadFrames, loadBytes atomic.Int64
	allocates, fullDeltas atomic.Int64
}

const (
	maxFrames  = 256
	maxUpdates = 64
	maxDeltas  = 64
)

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// lane is the span buffer and open-span stack of one goroutine.
type lane struct {
	tr    *tracer
	cur   int32 // innermost open span
	op    int64 // op the goroutine is working on
	spans []span
}

func (t *tracer) newLane() *lane {
	l := &lane{tr: t}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// open is a begun, not yet ended span.
type open struct {
	id, parent int32
	start      int64
}

// begin opens a span under the lane's current one. A nil lane (the untraced
// run) is a no-op, so load loops call it unconditionally.
func (l *lane) begin() open {
	if l == nil {
		return open{}
	}
	o := open{id: l.tr.nextID.Add(1), parent: l.cur, start: l.tr.now()}
	l.cur = o.id
	return o
}

// end closes o and records it while tracing is enabled.
func (l *lane) end(o open, name string) {
	if l == nil {
		return
	}
	l.cur = o.parent
	if l.tr.on.Load() {
		l.spans = append(l.spans, span{ID: o.id, Parent: o.parent, Op: l.op, Name: name, Start: o.start, End: l.tr.now()})
	}
}

// link joins the two ends of one connection.
type link struct {
	op     atomic.Int64
	parent atomic.Int32
}

// clientConn is the dialing end's decorator: a span around each
// Send→Recv exchange, frame and byte counts, and a bounded frame sample.
type clientConn struct {
	transport.Conn
	lane *lane
	lk   *link
	load bool // a load connection (counted), as opposed to a peer link
	o    open
}

func (c *clientConn) Send(frame []byte) error {
	c.o = c.lane.begin()
	c.lk.op.Store(c.lane.op)
	c.lk.parent.Store(c.o.id)
	c.lane.tr.sawFrame(frame, c.load)
	return c.Conn.Send(frame)
}

func (c *clientConn) Recv() ([]byte, error) {
	frame, err := c.Conn.Recv()
	c.lane.end(c.o, "client.conn")
	if err == nil {
		c.lane.tr.sawFrame(frame, c.load)
	}
	return frame, err
}

func (t *tracer) sawFrame(frame []byte, load bool) {
	if !load || !t.on.Load() {
		return
	}
	t.loadFrames.Add(1)
	t.loadBytes.Add(int64(len(frame)) + 4) // + the transport's length prefix
	t.mu.Lock()
	if len(t.frames) < maxFrames {
		t.frames = append(t.frames, append([]byte(nil), frame...))
	}
	t.mu.Unlock()
}

// serverConn is the accepting end's decorator: one span from the return of
// Recv to the return of Send, i.e. the server's whole handling of a frame.
type serverConn struct {
	transport.Conn
	lane *lane
	lk   *link
	o    open
}

func (c *serverConn) Recv() ([]byte, error) {
	frame, err := c.Conn.Recv()
	if err == nil {
		c.lane.op = c.lk.op.Load()
		c.lane.cur = c.lk.parent.Load()
		c.o = c.lane.begin()
	}
	return frame, err
}

func (c *serverConn) Send(frame []byte) error {
	err := c.Conn.Send(frame)
	c.lane.end(c.o, "server.conn")
	return err
}

// laneKey carries a server connection's lane to the coordinator decorator
// through the context protocol.ServeConn hands to every coordinator call.
type laneKey struct{}

// tracedCoord decorates a core.Coordinator and the sessions it opens with
// open/allocate/upload spans. On the client side the lane is fixed (the load
// goroutine's); on the server side it comes from the request context.
type tracedCoord struct {
	inner  core.Coordinator
	prefix string // "client." or "core."
	lane   *lane  // nil on the server side
}

func (c tracedCoord) laneOf(ctx context.Context) *lane {
	if c.lane != nil {
		return c.lane
	}
	l, _ := ctx.Value(laneKey{}).(*lane)
	return l
}

func (c tracedCoord) Open(ctx context.Context, clientID int) (core.Session, error) {
	l := c.laneOf(ctx)
	o := l.begin()
	sess, err := c.inner.Open(ctx, clientID)
	l.end(o, c.prefix+"open")
	if err != nil {
		return nil, err
	}
	return &tracedSession{Session: sess, c: c}, nil
}

type tracedSession struct {
	core.Session
	c tracedCoord
}

func (s *tracedSession) Allocate(ctx context.Context, status core.StatusReport) (core.Delta, error) {
	l := s.c.laneOf(ctx)
	o := l.begin()
	d, err := s.Session.Allocate(ctx, status)
	l.end(o, s.c.prefix+"allocate")
	if err == nil && l != nil && l.tr.on.Load() {
		if s.c.lane == nil {
			l.tr.allocates.Add(1)
			if d.Full {
				l.tr.fullDeltas.Add(1)
			}
		} else {
			l.tr.sawDelta(d)
		}
	}
	return d, err
}

func (s *tracedSession) Upload(ctx context.Context, upd core.UpdateReport) error {
	l := s.c.laneOf(ctx)
	if s.c.lane != nil && l.tr.on.Load() {
		l.tr.sawUpdate(upd)
	}
	o := l.begin()
	err := s.Session.Upload(ctx, upd)
	l.end(o, s.c.prefix+"upload")
	return err
}

func (s *tracedSession) Close() error {
	if s.c.lane == nil {
		return s.Session.Close()
	}
	o := s.c.lane.begin()
	err := s.Session.Close()
	s.c.lane.end(o, s.c.prefix+"bye")
	return err
}

// sawUpdate keeps a bounded sample of uploads. The callers' reports are
// never mutated after the call (core.Client builds a fresh one per round and
// the replay fixture is read-only), so they are kept by reference.
func (t *tracer) sawUpdate(upd core.UpdateReport) {
	t.mu.Lock()
	if len(t.updates) < maxUpdates && len(upd.Cells) > 0 {
		t.updates = append(t.updates, upd)
	}
	t.mu.Unlock()
}

// sawDelta keeps a bounded sample of received cell vectors; the delta's
// memory is reused by the session, so the vectors are copied.
func (t *tracer) sawDelta(d core.Delta) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.deltas) >= maxDeltas || len(d.Cells) == 0 {
		return
	}
	vecs := make([][]float32, len(d.Cells))
	for i, c := range d.Cells {
		vecs[i] = append([]float32(nil), c.Vec...)
	}
	t.deltas = append(t.deltas, vecs)
}

// tracedNode serves a federation node through the coordinator decorator
// while keeping the node's peer-plane handlers reachable to ServeConn.
type tracedNode struct {
	*federation.Node
	c tracedCoord
}

func (n tracedNode) Open(ctx context.Context, clientID int) (core.Session, error) {
	return n.c.Open(ctx, clientID)
}

// all returns every recorded span.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	return out
}

// selfTimes returns, per span name, the summed self time in nanoseconds:
// a span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]int64 {
	byID := make(map[int32]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	covered := make([]int64, len(spans))
	for _, s := range spans {
		pi, ok := byID[s.Parent]
		if !ok {
			continue
		}
		p := spans[pi]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[pi] += hi - lo
		}
	}
	self := make(map[string]int64)
	for i, s := range spans {
		self[s.Name] += max(s.dur()-covered[i], 0)
	}
	return self
}

// durations returns the durations of the spans called name, in the given
// unit (nanoseconds per unit).
func durations(spans []span, name string, unit float64) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/unit)
		}
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Op, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
