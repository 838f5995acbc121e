// Package protocol defines the wire format of CoCa's client–server
// exchanges and adapters that run the core coordinator over any
// transport.Conn: a versioned binary codec (stdlib encoding/binary only)
// for session establishment, status upload / delta cache allocation, and
// update upload.
//
// The wire speaks one version, Version (4). Every frame names it in its
// first byte, and the handshake frames (Hello, HelloAck, PeerHello,
// PeerJoin, PeerSnapshot, PeerAck) repeat it in a version byte of their
// own; a frame naming any other version in either place — the retired
// versions 1 to 3 included — is refused with an error naming version 4.
// Hello opens a server-side session (the ack carries its id) and
// allocation replies are versioned deltas: only changed and evicted cells
// travel. Every frame header carries the client's absolute deadline
// (microseconds since the epoch, 0 = none), so servers can drop expired
// work at dequeue instead of computing answers nobody is waiting for.
// Federation peer delta cells carry per-origin evidence heights (so cyclic
// relays deduplicate recirculated evidence instead of re-merging it), peer
// frames piggyback epidemic membership gossip, and three frame types
// (PeerDigestRequest / PeerDigest / PeerPullResponse) implement pull
// anti-entropy over compact ledger digests.
package protocol

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"coca/internal/core"
	"coca/internal/vecmath"
)

// Version is the wire version: the first byte of every frame and the
// version byte of every handshake frame.
const Version = 4

// Message type tags. The numbering is part of the wire format: a retired
// tag keeps its slot, so the tags after it never move.
const (
	TypeHello byte = iota + 1
	TypeHelloAck
	TypeStatus
	_ // 4: v1 full allocation, retired
	TypeUpdate
	TypeAck
	TypeError
	TypeDelta
	TypeBye
	TypePeerHello
	TypePeerDelta
	TypePeerAck
	// TypeRedirect tells the client to re-open its session against another
	// server — the wire form of core.RedirectError, emitted by routing
	// front doors at placement time and by servers migrating a live
	// session.
	TypeRedirect
	// TypePeerJoin asks an established fleet member to admit a joining
	// node: it registers the joiner's id and address for future syncs and
	// — when the joiner asks for one — answers with a bootstrap snapshot
	// instead of the plain PeerAck a PeerHello gets.
	TypePeerJoin
	// TypePeerSnapshot answers PeerJoin: the responder's table growth
	// since the shared dataset construction, folded into one delta-shaped
	// batch so the joiner catches up without replaying the per-round delta
	// history (the evidence ledger).
	TypePeerSnapshot
	// TypePeerLeave announces a clean departure: the receiver marks the
	// sender dead immediately instead of waiting out the suspect timeout.
	TypePeerLeave
	// TypePeerDigestRequest opens a pull anti-entropy exchange:
	// with empty Wants it carries the requester's per-class ledger row
	// sums and asks for a PeerDigest of the rows that disagree; with
	// non-empty Wants it asks for a PeerPullResponse carrying the listed
	// cells.
	TypePeerDigestRequest
	// TypePeerDigest answers a digest request: per-origin
	// evidence heights for every cell in a row whose sum disagreed.
	TypePeerDigest
	// TypePeerPullResponse answers a want-list: the requested
	// cells' entry vectors, absolute support/ledger readings and full
	// origin decomposition, so the requester can repair exactly the cells
	// where this peer's ledger is ahead.
	TypePeerPullResponse
)

// Message is a decoded protocol message; exactly one payload field is set,
// matching Type.
type Message struct {
	Type     byte
	ClientID int32
	// SessionID routes frames to their server-side session (0 in Hello,
	// which opens the session).
	SessionID uint64
	// DeadlineMicros is the request's absolute deadline in microseconds
	// since the Unix epoch (0 = none). It travels in every frame header.
	DeadlineMicros uint64

	Hello             *Hello
	HelloAck          *core.RegisterInfo
	Status            *core.StatusReport
	Delta             *core.Delta
	Update            *core.UpdateReport
	PeerHello         *PeerHello
	PeerDelta         *PeerDelta
	PeerAck           *PeerAck
	PeerJoin          *PeerJoin
	PeerSnapshot      *PeerSnapshot
	PeerLeave         *PeerLeave
	PeerDigestRequest *PeerDigestRequest
	PeerDigest        *PeerDigest
	PeerPullResponse  *PeerPullResponse
	Redirect          *Redirect
	Error             string
}

// Redirect is the TypeRedirect payload: where to re-open and why.
type Redirect struct {
	// Addr is the server to dial instead.
	Addr string
	// Reason is a short diagnostic ("placement", "breaker-open", ...).
	Reason string
}

// Hello is the registration request.
type Hello struct {
	// NumClasses and NumLayers let the server verify model agreement.
	NumClasses, NumLayers int32
}

// PeerHello opens a federation peer link between two edge servers. It
// mirrors the client Hello: the dialing node names itself and states its
// model shape for agreement checking; the PeerAck answers with the
// accepting node's id.
type PeerHello struct {
	// NodeID is the dialing node's federation id.
	NodeID int32
	// NumClasses and NumLayers let the peer verify model agreement.
	NumClasses, NumLayers int32
}

// OriginHeight names one origin node's cumulative evidence height behind
// a cell: the total evidence that origin has contributed to the cell, as
// far as the sender knows. Heights are absolute (not increments), so
// receivers apply each origin's contribution at most once — max-merging
// heights is what turns at-least-once delta delivery into exactly-once
// evidence accounting, and what makes cyclic relay traffic decay instead
// of recirculating at constant amplitude.
type OriginHeight struct {
	// Origin is the contributing node's federation id.
	Origin int32
	// Height is that origin's cumulative evidence for the cell.
	Height float64
}

// PeerCell is one global-table cell traveling between federated edge
// servers: the entry vector plus the evidence count behind it, which
// weights the receiving server's merge (DESIGN.md evidence-weighted rule).
type PeerCell struct {
	Class, Layer int
	// Evidence is the support count behind Vec on the sending server.
	Evidence float64
	Vec      []float32
	// Origins decomposes the sender's evidence ledger for this cell by
	// contributing origin. The receiver ignores Evidence and applies only
	// the per-origin height advances it has not yet accounted for; a cell
	// without origins is refused.
	Origins []OriginHeight
}

// MemberUpdate is one epidemic membership rumor piggybacked on a peer
// exchange: a node's state transition (possibly a TTL'd death
// certificate) and/or a learned sync address.
type MemberUpdate struct {
	// ID is the subject node's federation id.
	ID int32
	// State is the subject's membership state (federation.PeerState
	// numbering: alive, suspect, dead, left).
	State byte
	// TTL is the death certificate's remaining propagation budget in
	// hops; 0 for plain rumors (which never resurrect a dead record).
	TTL uint32
	// Addr is the subject's sync address ("" when unknown).
	Addr string
}

// PeerDelta carries what changed on the sending node since it last synced
// with the receiving peer — the federation tier's analogue of the client
// allocation delta, built from the same per-cell write versions: the
// changed cells, plus the growth of the class-frequency vector Φ (Eq. 5
// extended across servers, which is what informs the receiving server's
// ACA hot-spot selection about classes its own clients never stream).
type PeerDelta struct {
	// NodeID is the sending node's federation id.
	NodeID int32
	// Epoch counts the sender's sync rounds (diagnostic / ordering aid).
	Epoch uint64
	Cells []PeerCell
	// Freq is the per-class Φ increments since the last sync with this
	// peer (empty when nothing moved).
	Freq []float64
	// Gossip piggybacks epidemic membership rumors on the delta.
	Gossip []MemberUpdate
}

// PeerAck answers PeerHello (carrying the accepting node's id),
// PeerDelta (carrying the number of cells merged) and PeerLeave.
type PeerAck struct {
	// NodeID is the responding node's federation id.
	NodeID int32
	// Applied is the number of delta cells merged (0 for hello acks).
	Applied int32
}

// PeerJoin asks an established fleet member to admit a joining node. It
// subsumes PeerHello (same model-agreement check, and the connection is
// handshaken afterwards) and additionally registers the joiner's sync
// address with the responder's membership, so the responder starts
// pushing deltas to the joiner without static reconfiguration.
type PeerJoin struct {
	// NodeID is the joining node's federation id.
	NodeID int32
	// NumClasses and NumLayers let the peer verify model agreement.
	NumClasses, NumLayers int32
	// Addr is the joiner's own listen address, registered with the
	// responder's membership for future outbound syncs ("" when the
	// joiner does not accept inbound syncs).
	Addr string
	// WantSnapshot asks for a bootstrap snapshot in the reply. A joiner
	// requests one from its first seed and announces itself (false) to
	// the rest — every member should learn the joiner's address, but only
	// one snapshot is needed.
	WantSnapshot bool
}

// PeerSnapshot answers PeerJoin: the responder's table growth since the
// fleet's shared dataset construction, delta-shaped (cells carry the
// summed evidence growth, Freq the summed Φ increments). Because
// federated servers are built from the same shared dataset seed, the
// joiner's freshly-constructed table equals the snapshot's implicit base,
// so applying the snapshot is one commutative merge batch — bytes shipped
// are one pass over the populated cells, not the per-round delta history.
// Cells and Freq are empty when the joiner declined the snapshot.
type PeerSnapshot struct {
	// NodeID is the responding node's federation id.
	NodeID int32
	// Epoch is the responder's completed sync-round count at snapshot time.
	Epoch uint64
	Cells []PeerCell
	// Freq is the responder's per-class Φ growth since construction,
	// discounted like a regular delta (empty when nothing moved).
	Freq []float64
}

// PeerLeave announces a clean departure from the fleet; the receiver
// marks the sender departed immediately (no suspect timeout) and stops
// syncing to it until it rejoins.
type PeerLeave struct {
	// NodeID is the departing node's federation id.
	NodeID int32
}

// DigestCell names one origin's evidence height at one cell — the unit
// of the anti-entropy digest detail and of want-lists.
type DigestCell struct {
	Class, Layer, Origin int32
	// Height is the named origin's cumulative evidence for the cell on
	// the digest's sender (the requester's local reading in a want-list).
	Height float64
}

// PeerDigestRequest opens (Wants empty) or continues (Wants set) a pull
// anti-entropy exchange. The opening request ships per-class ledger row
// sums — a few hundred bytes regardless of table size — so the responder
// answers with per-origin detail only for the rows that disagree; the
// follow-up request lists exactly the cells where the responder's
// heights outran the requester's view.
type PeerDigestRequest struct {
	// NodeID is the requesting node's federation id.
	NodeID int32
	// Rows is the requester's per-class ledger digest: for each class,
	// the sum over its layers of every origin's evidence height. Height
	// arithmetic is integer-valued, so equal knowledge sums to an
	// identical float64 on both sides.
	Rows []float64
	// Wants, when non-empty, turns the request into a pull: the cells
	// (with the requester's current heights) whose content the requester
	// asks for. Rows is empty then.
	Wants []DigestCell
	// Gossip piggybacks epidemic membership rumors.
	Gossip []MemberUpdate
}

// PeerDigest answers the opening PeerDigestRequest: the responder's
// per-origin heights for every cell of every class row whose sum
// disagreed with the requester's digest.
type PeerDigest struct {
	// NodeID is the responding node's federation id.
	NodeID int32
	// Epoch is the responder's completed sync-round count (diagnostic).
	Epoch uint64
	Cells []DigestCell
	// Gossip piggybacks epidemic membership rumors.
	Gossip []MemberUpdate
}

// PullCell is one repaired cell in a PeerPullResponse: the responder's
// current entry vector with its absolute support and ledger readings and
// the full per-origin decomposition. Absolute readings (rather than
// increments) let a requester whose cell is fully dominated adopt the
// responder's state verbatim — bitwise reconvergence — and let every
// other requester fold in exactly the height advances it lacks.
type PullCell struct {
	Class, Layer int
	// Support and EvTotal are the responder's absolute per-cell support
	// and evidence-ledger readings.
	Support, EvTotal float64
	Vec              []float32
	Origins          []OriginHeight
}

// PeerPullResponse answers a want-list PeerDigestRequest with the
// requested cells (those still ahead of the requester's stated heights).
type PeerPullResponse struct {
	// NodeID is the responding node's federation id.
	NodeID int32
	Cells  []PullCell
	// Gossip piggybacks epidemic membership rumors.
	Gossip []MemberUpdate
}

// ---- encoding primitives ----

type writer struct{ buf []byte }

func (w *writer) u8(v byte)     { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32)  { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)  { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) i32(v int32)   { w.u32(uint32(v)) }
func (w *writer) f64(v float64) { w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(v)) }

// extend appends n bytes (amortized growth if AppendEncode's up-front sizing
// fell short) and returns them for the caller to fill.
func (w *writer) extend(n int) []byte {
	off := len(w.buf)
	w.buf = slices.Grow(w.buf, n)[:off+n]
	return w.buf[off:]
}

// The slice writers size the buffer once per slice and fill it with a tight
// big-endian loop: one grow and no per-element append. Entry vectors are
// ≈ 99 % of a coordination frame's bytes, so f32s and its reader hand the
// vector's longest multiple of 8 floats to vecmath's AVX2 byte-order kernel
// and finish in a Go loop unrolled by four, which does it all without AVX2.
// The kernel only permutes bytes, so the wire bytes are the same either way.

// useAVX2 sends f32s through the byte-order kernel; vecmath decides it once,
// from the CPU.
var useAVX2 = vecmath.AVX2()

func (w *writer) i32s(vs []int) {
	w.u32(uint32(len(vs)))
	b := w.extend(4 * len(vs))
	for _, v := range vs {
		binary.BigEndian.PutUint32(b, uint32(int32(v)))
		b = b[4:]
	}
}

func (w *writer) f64s(vs []float64) {
	w.u32(uint32(len(vs)))
	b := w.extend(8 * len(vs))
	for _, v := range vs {
		binary.BigEndian.PutUint64(b, math.Float64bits(v))
		b = b[8:]
	}
}

func (w *writer) f32s(vs []float32) {
	w.u32(uint32(len(vs)))
	b := w.extend(4 * len(vs))
	if useAVX2 {
		n := vecmath.EncodeBigEndian(b, vs)
		vs, b = vs[n:], b[4*n:]
	}
	for len(vs) >= 4 && len(b) >= 16 {
		binary.BigEndian.PutUint32(b, math.Float32bits(vs[0]))
		binary.BigEndian.PutUint32(b[4:], math.Float32bits(vs[1]))
		binary.BigEndian.PutUint32(b[8:], math.Float32bits(vs[2]))
		binary.BigEndian.PutUint32(b[12:], math.Float32bits(vs[3]))
		vs, b = vs[4:], b[16:]
	}
	for _, v := range vs {
		binary.BigEndian.PutUint32(b, math.Float32bits(v))
		b = b[4:]
	}
}

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

type reader struct {
	buf []byte
	off int
	err error
	// dec supplies the scratch every decoded payload and slice is written
	// into.
	dec *Decoder
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("protocol: truncated %s at offset %d", what, r.off)
	}
}

func (r *reader) u8() byte {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail("u8")
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail("u32")
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) i32() int32 { return int32(r.u32()) }

func (r *reader) f64() float64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail("f64")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// length reads a collection length and bounds it against the remaining
// bytes (at least minElemSize bytes must remain per element). The bound
// divides rather than multiplies, so a length near 2³¹ cannot overflow a
// 32-bit int past it.
func (r *reader) length(minElemSize int) int {
	n := int(r.u32())
	if r.err == nil && (n < 0 || n > (len(r.buf)-r.off)/minElemSize) {
		r.fail("length")
		return 0
	}
	return n
}

// bulk reads the length prefix of a run of fixed-size elements and returns
// the run's bytes: one bounds and error check for the whole run, after which
// the caller's loop decodes without touching r.err.
func (r *reader) bulk(elemSize int) (b []byte, n int) {
	n = r.length(elemSize)
	if r.err != nil {
		return nil, 0
	}
	b = r.buf[r.off : r.off+n*elemSize]
	r.off += n * elemSize
	return b, n
}

func (r *reader) i32s() []int {
	b, n := r.bulk(4)
	out := r.dec.ints.take(n)[:n]
	for i := range out {
		out[i] = int(int32(binary.BigEndian.Uint32(b)))
		b = b[4:]
	}
	return out
}

func (r *reader) f64s() []float64 {
	b, n := r.bulk(8)
	out := r.dec.f64s.take(n)[:n]
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(b))
		b = b[8:]
	}
	return out
}

func (r *reader) f32s() []float32 {
	b, n := r.bulk(4)
	out := r.dec.f32s.take(n)[:n]
	vs := out
	if useAVX2 {
		n := vecmath.DecodeBigEndian(vs, b)
		vs, b = vs[n:], b[4*n:]
	}
	for len(vs) >= 4 && len(b) >= 16 {
		vs[0] = math.Float32frombits(binary.BigEndian.Uint32(b))
		vs[1] = math.Float32frombits(binary.BigEndian.Uint32(b[4:]))
		vs[2] = math.Float32frombits(binary.BigEndian.Uint32(b[8:]))
		vs[3] = math.Float32frombits(binary.BigEndian.Uint32(b[12:]))
		vs, b = vs[4:], b[16:]
	}
	for i := range vs {
		vs[i] = math.Float32frombits(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	return out
}

func (r *reader) str() string {
	n := r.length(1)
	if r.err != nil {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// ---- decode scratch ----

// arena is a reusable backing store for one element type: take carves a
// zero-length slice with exactly the requested capacity and advances the
// cursor, growing the backing only past its high-water mark. Slices carved
// before a growth keep the old backing and stay valid.
type arena[T any] struct {
	buf []T
	off int
}

func (a *arena[T]) reset() { a.off = 0 }

// reserve resets the arena and sizes its backing to at least n elements with
// one exact allocation, so takes summing to at most n never regrow it.
func (a *arena[T]) reserve(n int) {
	a.off = 0
	if n > len(a.buf) {
		a.buf = make([]T, n)
	}
}

func (a *arena[T]) take(n int) []T {
	if a.off+n > len(a.buf) {
		need := a.off + n
		if need < 2*len(a.buf) {
			need = 2 * len(a.buf)
		}
		a.buf = make([]T, need)
		a.off = 0
	}
	s := a.buf[a.off : a.off : a.off+n]
	a.off += n
	return s
}

// Decoder is the one frame decoder: the returned Message, its payload
// structs and every decoded slice live in decoder-owned memory and are valid
// only until the next Decode call. One decoder serves one connection (or any
// other strictly sequential frame stream); it is not safe for concurrent
// use. At steady state — once the arenas have grown to the connection's
// largest message shape — decoding allocates nothing. The package-level
// Decode runs a fresh Decoder, whose results the caller then owns.
type Decoder struct {
	msg  Message
	ints arena[int]
	f64s arena[float64]
	f32s arena[float32]
	ohs  arena[OriginHeight]

	dcells []core.DeltaCell
	ucells []core.UpdateCell
	pcells []PeerCell
	evicts []core.CellRef
	gcells []DigestCell
	lcells []PullCell
	mems   []MemberUpdate

	hello      Hello
	helloAck   core.RegisterInfo
	status     core.StatusReport
	delta      core.Delta
	update     core.UpdateReport
	peerHello  PeerHello
	peerDelta  PeerDelta
	peerAck    PeerAck
	peerJoin   PeerJoin
	peerSnap   PeerSnapshot
	peerLeave  PeerLeave
	peerDigReq PeerDigestRequest
	peerDigest PeerDigest
	peerPull   PeerPullResponse
	redirect   Redirect
}

// Decode parses a frame into the decoder's scratch.
// The result is valid until the next Decode on this decoder.
func (d *Decoder) Decode(frame []byte) (*Message, error) {
	d.ints.reset()
	d.f64s.reset()
	d.ohs.reset()
	// Every decoded float32 occupies four frame bytes, so len(frame)/4 bounds
	// the vectors of the whole message: the arena that holds ≈ 99 % of a
	// decoded delta is sized once, never doubled and abandoned mid-message.
	d.f32s.reserve(len(frame) / 4)
	r := &reader{buf: frame, dec: d}
	if v := r.u8(); v != Version {
		return nil, versionError(v)
	}
	m, err := decodeSession(r)
	if err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(frame) {
		return nil, fmt.Errorf("protocol: %d trailing bytes", len(frame)-r.off)
	}
	return m, nil
}

// zeroed resets *p and returns it: each decoded payload is written straight
// into its slot in the decoder.
func zeroed[T any](p *T) *T {
	var zero T
	*p = zero
	return p
}

// ---- message codec ----

// Encode serializes a message in the wire format.
func Encode(m *Message) ([]byte, error) {
	return AppendEncode(nil, m)
}

// AppendEncode serializes a message appending onto dst and returns the
// extended buffer — the reuse form of Encode: serving loops and peer
// links keep one buffer per connection, so steady-state encoding costs no
// allocation beyond the buffer's initial growth to the largest message.
// On error the returned buffer may carry a partial frame and must be
// truncated back by the caller before reuse.
func AppendEncode(dst []byte, m *Message) ([]byte, error) {
	// Sized once from the message's shape: no append-growth from empty.
	w := writer{buf: slices.Grow(dst, sizeHint(m))}
	if err := encodeSession(&w, m); err != nil {
		return dst, err
	}
	return w.buf, nil
}

// sizeHint bounds the encoded size of a vector-carrying message from its
// shape: every cell at its fixed part plus its vector. Other messages are
// small or ride in a buffer a larger one already sized; the slice writers
// grow for them.
func sizeHint(m *Message) int {
	n := 256 // frame header, scalar fields, class and site lists
	switch {
	case m.Delta != nil:
		n += 8 * len(m.Delta.Evict)
		for i := range m.Delta.Cells {
			n += 12 + 4*len(m.Delta.Cells[i].Vec)
		}
	case m.Update != nil:
		n += 8 * len(m.Update.Freq)
		for i := range m.Update.Cells {
			n += 16 + 4*len(m.Update.Cells[i].Vec)
		}
	case m.PeerDelta != nil:
		n += peerCellsSize(m.PeerDelta.Cells) + 8*len(m.PeerDelta.Freq) + 48*len(m.PeerDelta.Gossip)
	case m.PeerSnapshot != nil:
		n += peerCellsSize(m.PeerSnapshot.Cells) + 8*len(m.PeerSnapshot.Freq)
	}
	return n
}

func peerCellsSize(cells []PeerCell) int {
	n := 0
	for i := range cells {
		n += 28 + 4*len(cells[i].Vec) + 12*len(cells[i].Origins)
	}
	return n
}

// encodeSession writes a frame: the header (version, type, client and
// session ids, deadline), then the payload of its type.
func encodeSession(w *writer, m *Message) error {
	w.u8(Version)
	w.u8(m.Type)
	w.i32(m.ClientID)
	w.u64(m.SessionID)
	w.u64(m.DeadlineMicros)
	switch m.Type {
	case TypeHello:
		if m.Hello == nil {
			return fmt.Errorf("protocol: hello payload missing")
		}
		w.i32(m.Hello.NumClasses)
		w.i32(m.Hello.NumLayers)
		w.u8(Version)
	case TypeHelloAck:
		if m.HelloAck == nil {
			return fmt.Errorf("protocol: hello-ack payload missing")
		}
		w.u8(Version)
		w.i32(int32(m.HelloAck.NumClasses))
		w.i32(int32(m.HelloAck.NumLayers))
		w.f64s(m.HelloAck.ProfileHitRatio)
		w.f64s(m.HelloAck.SavedMs)
	case TypeStatus:
		if m.Status == nil {
			return fmt.Errorf("protocol: status payload missing")
		}
		w.i32s(m.Status.Tau)
		w.f64s(m.Status.HitRatio)
		w.i32(int32(m.Status.Budget))
		w.i32(int32(m.Status.RoundFrames))
		w.u64(m.Status.LastVersion)
	case TypeDelta:
		if m.Delta == nil {
			return fmt.Errorf("protocol: delta payload missing")
		}
		d := m.Delta
		w.u64(d.Version)
		w.u64(d.BaseVersion)
		if d.Full {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.i32s(d.Classes)
		w.i32s(d.Sites)
		w.u32(uint32(len(d.Cells)))
		for _, c := range d.Cells {
			w.i32(int32(c.Site))
			w.i32(int32(c.Class))
			w.f32s(c.Vec)
		}
		w.u32(uint32(len(d.Evict)))
		for _, e := range d.Evict {
			w.i32(int32(e.Site))
			w.i32(int32(e.Class))
		}
	case TypeUpdate:
		if m.Update == nil {
			return fmt.Errorf("protocol: update payload missing")
		}
		encodeUpdate(w, m.Update)
	case TypePeerHello:
		if m.PeerHello == nil {
			return fmt.Errorf("protocol: peer-hello payload missing")
		}
		w.u8(Version)
		w.i32(m.PeerHello.NodeID)
		w.i32(m.PeerHello.NumClasses)
		w.i32(m.PeerHello.NumLayers)
	case TypePeerDelta:
		if m.PeerDelta == nil {
			return fmt.Errorf("protocol: peer-delta payload missing")
		}
		d := m.PeerDelta
		w.i32(d.NodeID)
		w.u64(d.Epoch)
		encodePeerCells(w, d.Cells)
		w.f64s(d.Freq)
		encodeMemberUpdates(w, d.Gossip)
	case TypePeerJoin:
		if m.PeerJoin == nil {
			return fmt.Errorf("protocol: peer-join payload missing")
		}
		w.u8(Version)
		w.i32(m.PeerJoin.NodeID)
		w.i32(m.PeerJoin.NumClasses)
		w.i32(m.PeerJoin.NumLayers)
		w.str(m.PeerJoin.Addr)
		if m.PeerJoin.WantSnapshot {
			w.u8(1)
		} else {
			w.u8(0)
		}
	case TypePeerSnapshot:
		if m.PeerSnapshot == nil {
			return fmt.Errorf("protocol: peer-snapshot payload missing")
		}
		s := m.PeerSnapshot
		w.u8(Version)
		w.i32(s.NodeID)
		w.u64(s.Epoch)
		encodePeerCells(w, s.Cells)
		w.f64s(s.Freq)
	case TypePeerLeave:
		if m.PeerLeave == nil {
			return fmt.Errorf("protocol: peer-leave payload missing")
		}
		w.i32(m.PeerLeave.NodeID)
	case TypePeerDigestRequest:
		if m.PeerDigestRequest == nil {
			return fmt.Errorf("protocol: peer-digest-request payload missing")
		}
		q := m.PeerDigestRequest
		w.i32(q.NodeID)
		w.f64s(q.Rows)
		encodeDigestCells(w, q.Wants)
		encodeMemberUpdates(w, q.Gossip)
	case TypePeerDigest:
		if m.PeerDigest == nil {
			return fmt.Errorf("protocol: peer-digest payload missing")
		}
		g := m.PeerDigest
		w.i32(g.NodeID)
		w.u64(g.Epoch)
		encodeDigestCells(w, g.Cells)
		encodeMemberUpdates(w, g.Gossip)
	case TypePeerPullResponse:
		if m.PeerPullResponse == nil {
			return fmt.Errorf("protocol: peer-pull-response payload missing")
		}
		p := m.PeerPullResponse
		w.i32(p.NodeID)
		w.u32(uint32(len(p.Cells)))
		for _, c := range p.Cells {
			w.i32(int32(c.Class))
			w.i32(int32(c.Layer))
			w.f64(c.Support)
			w.f64(c.EvTotal)
			w.f32s(c.Vec)
			encodeOrigins(w, c.Origins)
		}
		encodeMemberUpdates(w, p.Gossip)
	case TypePeerAck:
		if m.PeerAck == nil {
			return fmt.Errorf("protocol: peer-ack payload missing")
		}
		w.u8(Version)
		w.i32(m.PeerAck.NodeID)
		w.i32(m.PeerAck.Applied)
	case TypeRedirect:
		if m.Redirect == nil {
			return fmt.Errorf("protocol: redirect payload missing")
		}
		w.str(m.Redirect.Addr)
		w.str(m.Redirect.Reason)
	case TypeAck, TypeBye:
		// no payload
	case TypeError:
		w.str(m.Error)
	default:
		return fmt.Errorf("protocol: message type %d not in version %d", m.Type, Version)
	}
	return nil
}

// encodePeerCells writes a peer-cell batch (shared by PeerDelta and
// PeerSnapshot — a snapshot is delta-shaped on the wire), each cell with
// its origin decomposition.
func encodePeerCells(w *writer, cells []PeerCell) {
	w.u32(uint32(len(cells)))
	for _, c := range cells {
		w.i32(int32(c.Class))
		w.i32(int32(c.Layer))
		w.f64(c.Evidence)
		w.f32s(c.Vec)
		encodeOrigins(w, c.Origins)
	}
}

// decodePeerCells reads a peer-cell batch into decoder scratch.
func decodePeerCells(r *reader) []PeerCell {
	nCells := r.length(20)
	cells := r.dec.pcells[:0]
	for i := 0; i < nCells && r.err == nil; i++ {
		c := PeerCell{Class: int(r.i32()), Layer: int(r.i32()), Evidence: r.f64()}
		c.Vec = r.f32s()
		c.Origins = decodeOrigins(r)
		cells = append(cells, c)
	}
	r.dec.pcells = cells[:0]
	if nCells == 0 {
		return nil
	}
	return cells
}

// encodeOrigins writes one cell's origin decomposition.
func encodeOrigins(w *writer, ohs []OriginHeight) {
	w.u32(uint32(len(ohs)))
	for _, oh := range ohs {
		w.i32(oh.Origin)
		w.f64(oh.Height)
	}
}

// decodeOrigins reads one cell's origin decomposition from the decoder's
// origin arena.
func decodeOrigins(r *reader) []OriginHeight {
	n := r.length(12)
	out := r.dec.ohs.take(n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, OriginHeight{Origin: r.i32(), Height: r.f64()})
	}
	if n == 0 {
		return nil
	}
	return out
}

// encodeDigestCells writes a digest-detail (or want-list) batch.
func encodeDigestCells(w *writer, cells []DigestCell) {
	w.u32(uint32(len(cells)))
	for _, c := range cells {
		w.i32(c.Class)
		w.i32(c.Layer)
		w.i32(c.Origin)
		w.f64(c.Height)
	}
}

// decodeDigestCells reads a digest-detail (or want-list) batch into
// decoder scratch.
func decodeDigestCells(r *reader) []DigestCell {
	n := r.length(20)
	cells := r.dec.gcells[:0]
	for i := 0; i < n && r.err == nil; i++ {
		cells = append(cells, DigestCell{Class: r.i32(), Layer: r.i32(), Origin: r.i32(), Height: r.f64()})
	}
	r.dec.gcells = cells[:0]
	if n == 0 {
		return nil
	}
	return cells
}

// encodeMemberUpdates writes a piggybacked membership-gossip batch.
func encodeMemberUpdates(w *writer, mups []MemberUpdate) {
	w.u32(uint32(len(mups)))
	for _, mu := range mups {
		w.i32(mu.ID)
		w.u8(mu.State)
		w.u32(mu.TTL)
		w.str(mu.Addr)
	}
}

// decodeMemberUpdates reads a piggybacked membership-gossip batch into
// decoder scratch (addresses are fresh strings the caller may keep).
func decodeMemberUpdates(r *reader) []MemberUpdate {
	n := r.length(13)
	mups := r.dec.mems[:0]
	for i := 0; i < n && r.err == nil; i++ {
		mu := MemberUpdate{ID: r.i32(), State: r.u8(), TTL: r.u32()}
		mu.Addr = r.str()
		mups = append(mups, mu)
	}
	r.dec.mems = mups[:0]
	if n == 0 {
		return nil
	}
	return mups
}

func encodeUpdate(w *writer, up *core.UpdateReport) {
	w.f64s(up.Freq)
	w.u32(uint32(len(up.Cells)))
	for _, c := range up.Cells {
		w.i32(int32(c.Class))
		w.i32(int32(c.Layer))
		w.i32(int32(c.Count))
		w.f32s(c.Vec)
	}
}

// Decode parses a frame into a fresh Decoder, so the result is owned by the
// caller; sequential frame streams reuse one Decoder instead.
func Decode(frame []byte) (*Message, error) { return new(Decoder).Decode(frame) }

// versionError refuses a frame or handshake naming a version other than
// Version.
func versionError(v byte) error {
	return fmt.Errorf("protocol: version %d, want %d", v, Version)
}

// handshakeVersion reads a handshake frame's version byte, failing the
// decode unless it names Version.
func (r *reader) handshakeVersion() {
	if v := r.u8(); r.err == nil && v != Version {
		r.err = versionError(v)
	}
}

func decodeSession(r *reader) (*Message, error) {
	m := zeroed(&r.dec.msg)
	m.Type, m.ClientID, m.SessionID, m.DeadlineMicros = r.u8(), r.i32(), r.u64(), r.u64()
	switch m.Type {
	case TypeHello:
		h := zeroed(&r.dec.hello)
		h.NumClasses, h.NumLayers = r.i32(), r.i32()
		m.Hello = h
		r.handshakeVersion()
	case TypeHelloAck:
		r.handshakeVersion()
		info := zeroed(&r.dec.helloAck)
		info.NumClasses = int(r.i32())
		info.NumLayers = int(r.i32())
		info.ProfileHitRatio = r.f64s()
		info.SavedMs = r.f64s()
		m.HelloAck = info
	case TypeStatus:
		st := zeroed(&r.dec.status)
		st.Tau = r.i32s()
		st.HitRatio = r.f64s()
		st.Budget = int(r.i32())
		st.RoundFrames = int(r.i32())
		st.LastVersion = r.u64()
		m.Status = st
	case TypeDelta:
		d := zeroed(&r.dec.delta)
		d.Version = r.u64()
		d.BaseVersion = r.u64()
		d.Full = r.u8() == 1
		d.Classes = r.i32s()
		d.Sites = r.i32s()
		nCells := r.length(12)
		cells := r.dec.dcells[:0]
		for i := 0; i < nCells && r.err == nil; i++ {
			c := core.DeltaCell{Site: int(r.i32()), Class: int(r.i32())}
			c.Vec = r.f32s()
			cells = append(cells, c)
		}
		if nCells > 0 {
			d.Cells = cells
		}
		nEvict := r.length(8)
		evicts := r.dec.evicts[:0]
		for i := 0; i < nEvict && r.err == nil; i++ {
			evicts = append(evicts, core.CellRef{Site: int(r.i32()), Class: int(r.i32())})
		}
		if nEvict > 0 {
			d.Evict = evicts
		}
		r.dec.dcells, r.dec.evicts = cells[:0], evicts[:0]
		m.Delta = d
	case TypeUpdate:
		m.Update = decodeUpdate(r)
	case TypePeerHello:
		r.handshakeVersion()
		ph := zeroed(&r.dec.peerHello)
		ph.NodeID, ph.NumClasses, ph.NumLayers = r.i32(), r.i32(), r.i32()
		m.PeerHello = ph
	case TypePeerDelta:
		d := zeroed(&r.dec.peerDelta)
		d.NodeID, d.Epoch = r.i32(), r.u64()
		d.Cells = decodePeerCells(r)
		if f := r.f64s(); len(f) > 0 {
			d.Freq = f
		}
		d.Gossip = decodeMemberUpdates(r)
		m.PeerDelta = d
	case TypePeerJoin:
		r.handshakeVersion()
		pj := zeroed(&r.dec.peerJoin)
		pj.NodeID, pj.NumClasses, pj.NumLayers = r.i32(), r.i32(), r.i32()
		pj.Addr = r.str()
		pj.WantSnapshot = r.u8() == 1
		m.PeerJoin = pj
	case TypePeerSnapshot:
		r.handshakeVersion()
		ps := zeroed(&r.dec.peerSnap)
		ps.NodeID, ps.Epoch = r.i32(), r.u64()
		ps.Cells = decodePeerCells(r)
		if f := r.f64s(); len(f) > 0 {
			ps.Freq = f
		}
		m.PeerSnapshot = ps
	case TypePeerLeave:
		pl := zeroed(&r.dec.peerLeave)
		pl.NodeID = r.i32()
		m.PeerLeave = pl
	case TypePeerDigestRequest:
		q := zeroed(&r.dec.peerDigReq)
		q.NodeID = r.i32()
		q.Rows = r.f64s()
		q.Wants = decodeDigestCells(r)
		q.Gossip = decodeMemberUpdates(r)
		m.PeerDigestRequest = q
	case TypePeerDigest:
		g := zeroed(&r.dec.peerDigest)
		g.NodeID, g.Epoch = r.i32(), r.u64()
		g.Cells = decodeDigestCells(r)
		g.Gossip = decodeMemberUpdates(r)
		m.PeerDigest = g
	case TypePeerPullResponse:
		p := zeroed(&r.dec.peerPull)
		p.NodeID = r.i32()
		nCells := r.length(36)
		cells := r.dec.lcells[:0]
		for i := 0; i < nCells && r.err == nil; i++ {
			c := PullCell{Class: int(r.i32()), Layer: int(r.i32()), Support: r.f64(), EvTotal: r.f64()}
			c.Vec = r.f32s()
			c.Origins = decodeOrigins(r)
			cells = append(cells, c)
		}
		r.dec.lcells = cells[:0]
		if nCells > 0 {
			p.Cells = cells
		}
		p.Gossip = decodeMemberUpdates(r)
		m.PeerPullResponse = p
	case TypePeerAck:
		r.handshakeVersion()
		pa := zeroed(&r.dec.peerAck)
		pa.NodeID, pa.Applied = r.i32(), r.i32()
		m.PeerAck = pa
	case TypeRedirect:
		rd := zeroed(&r.dec.redirect)
		rd.Addr = r.str()
		rd.Reason = r.str()
		m.Redirect = rd
	case TypeAck, TypeBye:
		// no payload
	case TypeError:
		m.Error = r.str()
	default:
		return nil, fmt.Errorf("protocol: unknown v%d message type %d", Version, m.Type)
	}
	return m, nil
}

func decodeUpdate(r *reader) *core.UpdateReport {
	up := zeroed(&r.dec.update)
	up.Freq = r.f64s()
	nCells := r.length(12)
	cells := r.dec.ucells[:0]
	for i := 0; i < nCells && r.err == nil; i++ {
		c := core.UpdateCell{
			Class: int(r.i32()),
			Layer: int(r.i32()),
			Count: int(r.i32()),
		}
		c.Vec = r.f32s()
		cells = append(cells, c)
	}
	if nCells > 0 {
		up.Cells = cells
	}
	r.dec.ucells = cells[:0]
	return up
}
