package protocol

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"coca/internal/core"
	"coca/internal/overload"
	"coca/internal/telemetry"
	"coca/internal/transport"
)

// SessionClient implements core.Coordinator over a transport connection:
// Open performs the Hello handshake (obtaining a server session id) and
// returns a core.Session whose Allocate receives versioned deltas. One
// connection can carry several sessions; round trips are serialized on the
// connection, matching the strictly request/response wire format.
type SessionClient struct {
	conn transport.Conn
	// expected model shape, sent with Hello for server-side validation.
	numClasses, numLayers int

	mu sync.Mutex // serializes round trips; guards enc and free
	// enc is the connection's pooled encode buffer, free its pool of reply
	// decoders: a session holds one while its reply is live (from the
	// round trip that decoded it until the session's next call has been
	// answered) and hands it back otherwise, so steady-state round trips
	// allocate nothing in the codec and a connection multiplexing many
	// sessions keeps as many decoders as replies are live at once, not one
	// per session. The connection draws on the process-wide replyDecoders
	// when free is empty and returns what is free at Close.
	enc  []byte
	free []*Decoder

	closed atomic.Bool // set by the first Close
}

// replyDecoders recycles reply decoders (*Decoder) between connections: a
// connection per join would otherwise grow, and leave behind, a delta-sized
// arena of its own.
var replyDecoders sync.Pool

// NewSessionClient wraps a connection. numClasses/numLayers describe the
// client's model and are validated by the server at session open.
func NewSessionClient(conn transport.Conn, numClasses, numLayers int) *SessionClient {
	return &SessionClient{conn: conn, numClasses: numClasses, numLayers: numLayers}
}

// roundTrip performs one serialized request/response exchange, decoding the
// reply into *hold (taken from the connection's pool when nil) while still
// holding the connection lock: the received frame lives in the connection's
// receive buffer, which the next round trip — possibly from another session
// sharing this connection — overwrites. The decoder is the caller's until
// it calls release, so the returned message stays valid until then. The
// context gates entry only: an exchange already in flight is not
// interrupted (the transport has no per-frame cancellation), so a stalled
// server holds the call until the connection is closed.
func (c *SessionClient) roundTrip(ctx context.Context, req *Message, hold **Decoder) (*Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	frame, err := AppendEncode(c.enc[:0], req)
	if err != nil {
		return nil, err
	}
	c.enc = frame[:0]
	if err := c.conn.Send(frame); err != nil {
		return nil, err
	}
	resp, err := c.conn.Recv()
	if err != nil {
		return nil, err
	}
	if *hold == nil {
		if n := len(c.free); n > 0 {
			*hold, c.free = c.free[n-1], c.free[:n-1]
		} else if *hold, _ = replyDecoders.Get().(*Decoder); *hold == nil {
			*hold = new(Decoder)
		}
	}
	m, err := (*hold).Decode(resp)
	if err != nil {
		return nil, err
	}
	if m.Type == TypeError {
		return nil, fmt.Errorf("protocol: server error: %s", m.Error)
	}
	if m.Type == TypeRedirect && m.Redirect != nil {
		// Decoded strings are fresh allocations, not decoder scratch, so
		// the error may outlive this round trip.
		return nil, &core.RedirectError{Addr: m.Redirect.Addr, Reason: m.Redirect.Reason}
	}
	return m, nil
}

// release hands a reply decoder back to the connection's pool once nothing
// decoded into it is needed any more.
func (c *SessionClient) release(hold **Decoder) {
	if *hold == nil {
		return
	}
	c.mu.Lock()
	c.free = append(c.free, *hold)
	c.mu.Unlock()
	*hold = nil
}

// deadlineMicros extracts ctx's deadline for a frame header; 0 when ctx
// has none.
func deadlineMicros(ctx context.Context) uint64 {
	if t, ok := ctx.Deadline(); ok {
		return overload.DeadlineMicros(t)
	}
	return 0
}

// Open implements core.Coordinator: it registers the client and returns
// its wire-backed session.
func (c *SessionClient) Open(ctx context.Context, clientID int) (core.Session, error) {
	sess := &wireSession{c: c, clientID: int32(clientID)}
	m, err := c.roundTrip(ctx, &Message{
		Type:     TypeHello,
		ClientID: int32(clientID),
		Hello:    &Hello{NumClasses: int32(c.numClasses), NumLayers: int32(c.numLayers)},
	}, &sess.dec)
	defer c.release(&sess.dec) // everything kept is copied out below
	if err != nil {
		return nil, err
	}
	if m.Type != TypeHelloAck || m.HelloAck == nil {
		return nil, fmt.Errorf("protocol: unexpected reply type %d to hello", m.Type)
	}
	if m.SessionID == 0 {
		return nil, fmt.Errorf("protocol: server did not assign a session id")
	}
	// The decoded ack lives in decoder scratch that goes back to the pool;
	// the session retains its registration info, so copy it out. No client
	// reads SavedMs, so it is not kept.
	sess.id = m.SessionID
	sess.info = *m.HelloAck
	sess.info.ProfileHitRatio = append([]float64(nil), m.HelloAck.ProfileHitRatio...)
	sess.info.SavedMs = nil
	return sess, nil
}

// Close releases the connection (and with it every session opened on it),
// and returns what the connection pooled to the process: its free reply
// decoders — not one a session still holds, whose reply may be being read —
// and the transport's receive buffer. Only the first call does this; a
// later one returns nil.
func (c *SessionClient) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	err := c.conn.Close() // a round trip stalled in the transport fails now
	c.mu.Lock()           // and none is in flight past this line: no frame is being decoded
	defer c.mu.Unlock()
	transport.Release(c.conn)
	for _, d := range c.free {
		if 4*len(d.f32s.buf) <= transport.MaxScratch {
			replyDecoders.Put(d)
		}
	}
	c.free = nil
	return err
}

var _ core.Coordinator = (*SessionClient)(nil)

// wireSession is the client-side handle to one server session.
type wireSession struct {
	c        *SessionClient
	id       uint64
	clientID int32
	info     core.RegisterInfo

	mu     sync.Mutex
	closed bool
	calls  int // Allocate/Upload calls in flight: one at most by the Session contract

	// dec holds this session's live reply (nil between an answered Upload
	// and the next Allocate): replies are decoded under the connection lock
	// straight into a decoder only this session holds, so sessions sharing
	// one connection cannot tear each other's replies and a delta's
	// vectors are copied once on their way from the frame to the client's
	// view. Sessions are used sequentially by one client, so one suffices.
	dec *Decoder
}

// Info implements core.Session.
func (s *wireSession) Info() core.RegisterInfo { return s.info }

// enter admits one Allocate/Upload call unless the session is closed; exit
// ends it. Close reads the count to learn whether the reply the session
// holds can still be being produced.
func (s *wireSession) enter() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("protocol: session %d closed", s.id)
	}
	s.calls++
	return nil
}

func (s *wireSession) exit() {
	s.mu.Lock()
	s.calls--
	s.mu.Unlock()
}

// Allocate implements core.Session. The returned delta lives in the
// decoder the session holds and is valid until this session's next call,
// Close included; core.AllocView.Apply copies what it keeps.
func (s *wireSession) Allocate(ctx context.Context, status core.StatusReport) (core.Delta, error) {
	if err := s.enter(); err != nil {
		return core.Delta{}, err
	}
	defer s.exit()
	m, err := s.c.roundTrip(ctx, &Message{
		Type:           TypeStatus,
		ClientID:       s.clientID,
		SessionID:      s.id,
		DeadlineMicros: deadlineMicros(ctx),
		Status:         &status,
	}, &s.dec)
	if err != nil {
		return core.Delta{}, err
	}
	if m.Type != TypeDelta || m.Delta == nil {
		return core.Delta{}, fmt.Errorf("protocol: unexpected reply type %d to status", m.Type)
	}
	return *m.Delta, nil
}

// Upload implements core.Session.
func (s *wireSession) Upload(ctx context.Context, upd core.UpdateReport) error {
	if err := s.enter(); err != nil {
		return err
	}
	defer s.exit()
	m, err := s.c.roundTrip(ctx, &Message{
		Type:           TypeUpdate,
		ClientID:       s.clientID,
		SessionID:      s.id,
		DeadlineMicros: deadlineMicros(ctx),
		Update:         &upd,
	}, &s.dec)
	// By calling Upload the client is done with its last delta, and the ack
	// carries nothing to keep: the decoder serves the next live reply.
	defer s.c.release(&s.dec)
	if err != nil {
		return err
	}
	if m.Type != TypeAck {
		return fmt.Errorf("protocol: unexpected reply type %d to update", m.Type)
	}
	return nil
}

// Close implements core.Session: it sends Bye so the server can release
// the session. Transport failures are tolerated — the connection may
// already be gone, which releases the session server-side anyway.
func (s *wireSession) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	idle := s.calls == 0
	s.mu.Unlock()
	// Bye is best-effort: the connection may already be gone, which
	// releases the session server-side anyway.
	// Close may overlap the owner's last call on shutdown paths, so the ack
	// is decoded into a decoder of its own, never the one the session holds.
	var dec *Decoder
	_, _ = s.c.roundTrip(context.Background(), &Message{
		Type: TypeBye, ClientID: s.clientID, SessionID: s.id,
	}, &dec)
	s.c.release(&dec)
	if idle {
		// No call was in flight and none can start: the delta the session may
		// still hold ended with this call, so its decoder (the delta-sized
		// one on a connection per join) goes on to serve other replies.
		s.c.release(&s.dec)
	}
	return nil
}

var _ core.Session = (*wireSession)(nil)

// PeerHandler is implemented by coordinators that also participate in the
// federation tier (federation.Node): ServeConn routes every peer frame to
// it. Coordinators without PeerHandler reject peer frames with an error
// reply. Replies must remain valid through the reply encode
// (implementations return caller-owned slices, not reusable scratch).
type PeerHandler interface {
	// HandlePeerHello validates a peer link request and returns the local
	// node's federation id.
	HandlePeerHello(nodeID, numClasses, numLayers int) (localID int, err error)
	// HandlePeerDelta merges a peer's delta (changed cells and frequency
	// increments) and returns how many cells were applied.
	HandlePeerDelta(d *PeerDelta) (applied int, err error)
	// HandlePeerJoin admits a joining node: it validates like a hello,
	// registers the joiner (and its sync address) with the local
	// membership, and returns the bootstrap snapshot when one was asked
	// for (an empty snapshot otherwise).
	HandlePeerJoin(j *PeerJoin) (snap *PeerSnapshot, err error)
	// HandlePeerLeave records a peer's clean departure.
	HandlePeerLeave(nodeID int)
	// HandlePeerDigestRequest compares the requester's per-class row sums
	// against the local ledger and returns per-origin detail for the rows
	// that disagree (applying any piggybacked gossip).
	HandlePeerDigestRequest(q *PeerDigestRequest) (*PeerDigest, error)
	// HandlePeerPull serves a want-list: the requested cells still ahead
	// of the requester's stated heights.
	HandlePeerPull(q *PeerDigestRequest) (*PeerPullResponse, error)
}

// PeerClient is the dialing side of a federation peer link: it performs
// the PeerHello handshake over a transport connection and ships deltas.
// Round trips are serialized on the connection.
type PeerClient struct {
	conn transport.Conn
	// localID is this node's federation id; peerID is learned from the
	// handshake ack.
	localID int
	peerID  int

	mu sync.Mutex // serializes round trips; guards enc and dec
	// enc and dec are reused across deltas: a sync round encodes into the
	// same buffer and decodes acks into the same arenas every time.
	enc []byte
	dec Decoder
	// lastRespBytes is the most recent reply frame's size (guarded by mu;
	// read by the anti-entropy round trips for byte accounting).
	lastRespBytes int
}

// DialPeer performs the PeerHello handshake for the node localID over an
// established connection, validating model agreement (numClasses ×
// numLayers), and returns the link.
func DialPeer(conn transport.Conn, localID, numClasses, numLayers int) (*PeerClient, error) {
	pc := &PeerClient{conn: conn, localID: localID}
	m, _, err := pc.roundTripSized(&Message{
		Type: TypePeerHello,
		PeerHello: &PeerHello{
			NodeID:     int32(localID),
			NumClasses: int32(numClasses),
			NumLayers:  int32(numLayers),
		},
	})
	if err != nil {
		return nil, err
	}
	if m.Type != TypePeerAck || m.PeerAck == nil {
		return nil, fmt.Errorf("protocol: unexpected reply type %d to peer hello", m.Type)
	}
	pc.peerID = int(m.PeerAck.NodeID)
	return pc, nil
}

// JoinPeer performs the PeerJoin handshake for node localID over an
// established connection: like DialPeer, but the reply is the peer's
// bootstrap snapshot (when wantSnapshot is set) and the joiner's own
// listen address travels with the request so the peer starts syncing back.
// The returned link is handshaken — deltas may be sent on it. The
// snapshot lives in the link's decoder scratch and is valid only until
// the next round trip on this link: apply it before syncing. snapBytes is
// the received snapshot frame size (the joiner's bootstrap traffic).
func JoinPeer(conn transport.Conn, localID, numClasses, numLayers int, addr string, wantSnapshot bool) (pc *PeerClient, snap *PeerSnapshot, snapBytes int, err error) {
	pc = &PeerClient{conn: conn, localID: localID}
	m, _, err := pc.roundTripSized(&Message{
		Type: TypePeerJoin,
		PeerJoin: &PeerJoin{
			NodeID:       int32(localID),
			NumClasses:   int32(numClasses),
			NumLayers:    int32(numLayers),
			Addr:         addr,
			WantSnapshot: wantSnapshot,
		},
	})
	if err != nil {
		return nil, nil, 0, err
	}
	if m.Type != TypePeerSnapshot || m.PeerSnapshot == nil {
		return nil, nil, 0, fmt.Errorf("protocol: unexpected reply type %d to peer join", m.Type)
	}
	pc.peerID = int(m.PeerSnapshot.NodeID)
	return pc, m.PeerSnapshot, pc.lastRespBytes, nil
}

// Leave announces a clean departure to the peer (best-effort: callers
// typically ignore the error — the connection may already be gone, which
// the peer's failure detector handles anyway).
func (pc *PeerClient) Leave() error {
	m, _, err := pc.roundTripSized(&Message{
		Type:      TypePeerLeave,
		PeerLeave: &PeerLeave{NodeID: int32(pc.localID)},
	})
	if err != nil {
		return err
	}
	if m.Type != TypePeerAck {
		return fmt.Errorf("protocol: unexpected reply type %d to peer leave", m.Type)
	}
	return nil
}

// PeerID returns the remote node's federation id (from the handshake ack).
func (pc *PeerClient) PeerID() int { return pc.peerID }

// roundTripSized performs one serialized request/response exchange and also
// returns the encoded request size, which the federation tier reports as
// sync traffic.
func (pc *PeerClient) roundTripSized(req *Message) (*Message, int, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	frame, err := AppendEncode(pc.enc[:0], req)
	if err != nil {
		return nil, 0, err
	}
	pc.enc = frame[:0]
	if err := pc.conn.Send(frame); err != nil {
		return nil, len(frame), err
	}
	resp, err := pc.conn.Recv()
	if err != nil {
		return nil, len(frame), err
	}
	pc.lastRespBytes = len(resp)
	m, err := pc.dec.Decode(resp)
	if err != nil {
		return nil, len(frame), err
	}
	if m.Type == TypeError {
		return nil, len(frame), fmt.Errorf("protocol: peer error: %s", m.Error)
	}
	return m, len(frame), nil
}

// SendDelta ships changed cells and frequency increments to the peer and
// returns how many cells it applied plus the encoded frame size in bytes
// (the sync-traffic measurement the federation experiments report).
func (pc *PeerClient) SendDelta(epoch uint64, cells []PeerCell, freq []float64, gossip []MemberUpdate) (applied, wireBytes int, err error) {
	m, wireBytes, err := pc.roundTripSized(&Message{
		Type:      TypePeerDelta,
		PeerDelta: &PeerDelta{NodeID: int32(pc.localID), Epoch: epoch, Cells: cells, Freq: freq, Gossip: gossip},
	})
	if err != nil {
		return 0, wireBytes, err
	}
	if m.Type != TypePeerAck || m.PeerAck == nil {
		return 0, wireBytes, fmt.Errorf("protocol: unexpected reply type %d to peer delta", m.Type)
	}
	return int(m.PeerAck.Applied), wireBytes, nil
}

// SendDigestRequest opens a pull anti-entropy exchange: it ships the
// requester's per-class row sums (plus gossip) and returns the peer's
// digest detail for disagreeing rows. The reply lives in the link's
// decoder scratch and is valid only until the next round trip; reqBytes
// and respBytes are the two frames' encoded sizes.
func (pc *PeerClient) SendDigestRequest(q *PeerDigestRequest) (digest *PeerDigest, reqBytes, respBytes int, err error) {
	q.NodeID = int32(pc.localID)
	m, n, err := pc.roundTripSized(&Message{Type: TypePeerDigestRequest, PeerDigestRequest: q})
	if err != nil {
		return nil, n, 0, err
	}
	if m.Type != TypePeerDigest || m.PeerDigest == nil {
		return nil, n, 0, fmt.Errorf("protocol: unexpected reply type %d to peer digest request", m.Type)
	}
	return m.PeerDigest, n, pc.lastRespBytes, nil
}

// SendPull continues the exchange: it ships the want-list (a digest
// request with Wants set) and returns the peer's pull response. The reply
// lives in the link's decoder scratch and is valid only until the next
// round trip.
func (pc *PeerClient) SendPull(q *PeerDigestRequest) (pull *PeerPullResponse, reqBytes, respBytes int, err error) {
	q.NodeID = int32(pc.localID)
	m, n, err := pc.roundTripSized(&Message{Type: TypePeerDigestRequest, PeerDigestRequest: q})
	if err != nil {
		return nil, n, 0, err
	}
	if m.Type != TypePeerPullResponse || m.PeerPullResponse == nil {
		return nil, n, 0, fmt.Errorf("protocol: unexpected reply type %d to peer pull", m.Type)
	}
	return m.PeerPullResponse, n, pc.lastRespBytes, nil
}

// Close releases the underlying connection.
func (pc *PeerClient) Close() error { return pc.conn.Close() }

// connState tracks everything a connection's sessions own, so it can be
// released when the peer disconnects.
type connState struct {
	coord    core.Coordinator
	sessions map[uint64]core.Session
	// peerHello records that the connection completed a federation peer
	// handshake (gates TypePeerDelta and the anti-entropy frames).
	peerHello bool
	// enc and dec are the connection's pooled codec scratch: requests
	// decode into reused arenas (handlers consume them before the next
	// frame) and replies encode into one reused buffer (the transport
	// does not retain frames past Send), taken from the transport's
	// scratch pool and handed back when ServeConn returns.
	enc []byte
	dec Decoder
	// delta holds the allocation reply through its encode, so the hot
	// status→delta path builds its reply without touching the heap.
	delta core.Delta
}

// maxSessionsPerConn bounds the sessions one connection may hold open. A
// Hello comes off an untrusted socket, and every session holds pooled
// server scratch until it is closed or its connection drops; the
// wall-clock harness peaks at 9 sessions on one connection.
const maxSessionsPerConn = 1024

func (cs *connState) closeAll() {
	for _, s := range cs.sessions {
		_ = s.Close()
	}
}

// ServeConn drives one client connection against the coordinator until
// the peer disconnects or ctx is canceled (which closes the connection
// and drains the handler). Malformed requests — frames of a version other
// than Version included — receive a TypeError reply and leave the
// connection open; transport failures end it. It returns nil on orderly
// shutdown.
func ServeConn(ctx context.Context, conn transport.Conn, coord core.Coordinator) error {
	cs := &connState{coord: coord, sessions: make(map[uint64]core.Session)}
	defer cs.closeAll()
	defer func() { transport.RecycleScratch(cs.enc) }() // only this goroutine encodes

	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			_ = conn.Close() // unblocks Recv
		case <-done:
		}
	}()

	for {
		frame, err := conn.Recv()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) || errors.Is(err, io.EOF) || ctx.Err() != nil {
				return nil
			}
			// Stream transports surface EOF wrapped; treat any receive
			// failure after at least one message as disconnect.
			return nil
		}
		resp := cs.handle(ctx, frame)
		if need := sizeHint(&resp); need > cap(cs.enc) {
			cs.enc = transport.TakeScratch(need) // the outgrown buffer is dropped
		}
		out, err := AppendEncode(cs.enc[:0], &resp)
		if err != nil {
			return fmt.Errorf("protocol: encode reply: %w", err)
		}
		cs.enc = out[:0]
		if err := conn.Send(out); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("protocol: send reply: %w", err)
		}
	}
}

func (cs *connState) handle(ctx context.Context, frame []byte) Message {
	m, err := cs.dec.Decode(frame)
	if err != nil {
		return Message{Type: TypeError, Error: err.Error()}
	}
	return cs.handleSession(ctx, m, len(frame))
}

func errorReply(clientID int32, sessionID uint64, format string, args ...any) Message {
	return Message{Type: TypeError, ClientID: clientID, SessionID: sessionID,
		Error: fmt.Sprintf(format, args...)}
}

// failureReply maps a coordinator error to its wire form: a
// core.RedirectError becomes a TypeRedirect frame, everything else a
// TypeError.
func failureReply(clientID int32, sessionID uint64, err error) Message {
	var re *core.RedirectError
	if errors.As(err, &re) {
		return Message{Type: TypeRedirect, ClientID: clientID, SessionID: sessionID,
			Redirect: &Redirect{Addr: re.Addr, Reason: re.Reason}}
	}
	return errorReply(clientID, sessionID, "%v", err)
}

// open validates the hello shape against a fresh session's registration
// info, closing the session and reporting the mismatch if they disagree.
func (cs *connState) open(ctx context.Context, clientID int32, hello *Hello) (core.Session, core.RegisterInfo, error) {
	sess, err := cs.coord.Open(ctx, int(clientID))
	if err != nil {
		return nil, core.RegisterInfo{}, err
	}
	info := sess.Info()
	if int(hello.NumClasses) != info.NumClasses || int(hello.NumLayers) != info.NumLayers {
		_ = sess.Close()
		return nil, core.RegisterInfo{}, fmt.Errorf("model mismatch: client %d×%d, server %d×%d",
			hello.NumClasses, hello.NumLayers, info.NumClasses, info.NumLayers)
	}
	return sess, info, nil
}

// deadlineContext applies a propagated wire deadline to ctx. expired
// reports that the deadline had already passed at dequeue — the caller
// must drop the work without computing it.
func deadlineContext(ctx context.Context, micros uint64) (_ context.Context, cancel context.CancelFunc, expired bool) {
	t, ok := overload.DeadlineTime(micros)
	if !ok {
		return ctx, func() {}, false
	}
	if !t.After(time.Now()) {
		return ctx, func() {}, true
	}
	ctx, cancel = context.WithDeadline(ctx, t)
	return ctx, cancel, false
}

// expiredReply drops a request whose deadline passed before processing
// began — the drop-at-dequeue half of deadline propagation. The counter
// is the overload tier's congestion-collapse sentinel: work the server
// declined to compute because nobody was waiting for the answer anymore.
func expiredReply(clientID int32, sessionID uint64) Message {
	telemetry.OverloadDeadlineExpired.Inc()
	return errorReply(clientID, sessionID, "deadline expired at dequeue")
}

// handleSession serves one decoded request. frameLen is the received
// frame's size, accounted as sync traffic for peer deltas.
func (cs *connState) handleSession(ctx context.Context, m *Message, frameLen int) Message {
	switch m.Type {
	case TypeHello:
		if len(cs.sessions) >= maxSessionsPerConn {
			return errorReply(m.ClientID, 0, "connection already holds %d sessions, the limit", maxSessionsPerConn)
		}
		sess, info, err := cs.open(ctx, m.ClientID, m.Hello)
		if err != nil {
			return failureReply(m.ClientID, 0, err)
		}
		id := sessionID(sess)
		cs.sessions[id] = sess
		return Message{Type: TypeHelloAck, ClientID: m.ClientID, SessionID: id, HelloAck: &info}
	case TypeStatus:
		sess, ok := cs.sessions[m.SessionID]
		if !ok {
			return errorReply(m.ClientID, m.SessionID, "unknown session %d", m.SessionID)
		}
		dctx, cancel, expired := deadlineContext(ctx, m.DeadlineMicros)
		if expired {
			return expiredReply(m.ClientID, m.SessionID)
		}
		delta, err := sess.Allocate(dctx, *m.Status)
		cancel()
		if err != nil {
			return failureReply(m.ClientID, m.SessionID, err)
		}
		cs.delta = delta
		return Message{Type: TypeDelta, ClientID: m.ClientID, SessionID: m.SessionID, Delta: &cs.delta}
	case TypeUpdate:
		sess, ok := cs.sessions[m.SessionID]
		if !ok {
			return errorReply(m.ClientID, m.SessionID, "unknown session %d", m.SessionID)
		}
		dctx, cancel, expired := deadlineContext(ctx, m.DeadlineMicros)
		if expired {
			return expiredReply(m.ClientID, m.SessionID)
		}
		err := sess.Upload(dctx, *m.Update)
		cancel()
		if err != nil {
			return failureReply(m.ClientID, m.SessionID, err)
		}
		return Message{Type: TypeAck, ClientID: m.ClientID, SessionID: m.SessionID}
	case TypeBye:
		sess, ok := cs.sessions[m.SessionID]
		if !ok {
			return errorReply(m.ClientID, m.SessionID, "unknown session %d", m.SessionID)
		}
		delete(cs.sessions, m.SessionID)
		_ = sess.Close()
		return Message{Type: TypeAck, ClientID: m.ClientID, SessionID: m.SessionID}
	case TypePeerHello:
		ph, ok := cs.coord.(PeerHandler)
		if !ok {
			return errorReply(m.ClientID, 0, "peer sync not supported by this endpoint")
		}
		localID, err := ph.HandlePeerHello(int(m.PeerHello.NodeID), int(m.PeerHello.NumClasses), int(m.PeerHello.NumLayers))
		if err != nil {
			return errorReply(m.ClientID, 0, "%v", err)
		}
		cs.peerHello = true
		return Message{Type: TypePeerAck, PeerAck: &PeerAck{NodeID: int32(localID)}}
	case TypePeerDelta:
		ph, ok := cs.coord.(PeerHandler)
		if !ok {
			return errorReply(m.ClientID, 0, "peer sync not supported by this endpoint")
		}
		if !cs.peerHello {
			return errorReply(m.ClientID, 0, "peer delta before peer hello")
		}
		applied, err := ph.HandlePeerDelta(m.PeerDelta)
		if err != nil {
			return errorReply(m.ClientID, 0, "%v", err)
		}
		if br, ok := cs.coord.(interface{ NotePeerRecvBytes(int) }); ok {
			br.NotePeerRecvBytes(frameLen)
		}
		return Message{Type: TypePeerAck, PeerAck: &PeerAck{Applied: int32(applied)}}
	case TypePeerJoin:
		ph, ok := cs.coord.(PeerHandler)
		if !ok {
			return errorReply(m.ClientID, 0, "peer sync not supported by this endpoint")
		}
		snap, err := ph.HandlePeerJoin(m.PeerJoin)
		if err != nil {
			return errorReply(m.ClientID, 0, "%v", err)
		}
		// A join doubles as the handshake: the joiner may push deltas on
		// this connection next.
		cs.peerHello = true
		return Message{Type: TypePeerSnapshot, PeerSnapshot: snap}
	case TypePeerLeave:
		ph, ok := cs.coord.(PeerHandler)
		if !ok {
			return errorReply(m.ClientID, 0, "peer sync not supported by this endpoint")
		}
		ph.HandlePeerLeave(int(m.PeerLeave.NodeID))
		return Message{Type: TypePeerAck, PeerAck: &PeerAck{}}
	case TypePeerDigestRequest:
		ph, ok := cs.coord.(PeerHandler)
		if !ok {
			return errorReply(m.ClientID, 0, "peer sync not supported by this endpoint")
		}
		if !cs.peerHello {
			return errorReply(m.ClientID, 0, "peer digest before peer hello")
		}
		if len(m.PeerDigestRequest.Wants) > 0 {
			pull, err := ph.HandlePeerPull(m.PeerDigestRequest)
			if err != nil {
				return errorReply(m.ClientID, 0, "%v", err)
			}
			return Message{Type: TypePeerPullResponse, PeerPullResponse: pull}
		}
		dig, err := ph.HandlePeerDigestRequest(m.PeerDigestRequest)
		if err != nil {
			return errorReply(m.ClientID, 0, "%v", err)
		}
		return Message{Type: TypePeerDigest, PeerDigest: dig}
	default:
		return errorReply(m.ClientID, m.SessionID, "unexpected request type %d", m.Type)
	}
}

// sessionID extracts the server-assigned id when the coordinator is the
// in-process server; sessions from other coordinators get process-local
// ids (safe across the concurrent per-connection serve loops).
var fallbackID atomic.Uint64

func sessionID(sess core.Session) uint64 {
	if ss, ok := sess.(*core.ServerSession); ok {
		return ss.ID()
	}
	return fallbackID.Add(1)
}
