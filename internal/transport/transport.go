// Package transport provides the message-framing layer of CoCa's
// client–server protocol: an in-process channel transport for simulations
// and tests, and a TCP transport with length-prefixed frames for real
// deployments (the role MPI plays in the paper's testbed, §VI-C).
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// MaxFrameSize bounds a single message (16 MiB): large enough for a full
// global-cache sub-table, small enough to reject corrupt length prefixes.
const MaxFrameSize = 16 << 20

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// Conn is a reliable, ordered, message-oriented connection.
type Conn interface {
	// Send transmits one frame. The frame is not retained past the call.
	Send(frame []byte) error
	// Recv blocks for the next frame. The returned slice is valid until the
	// next Recv on this connection (implementations may reuse its backing
	// memory); callers decode or copy before receiving again.
	Recv() ([]byte, error)
	// Close releases the connection; pending Recv calls fail.
	Close() error
}

// Pipe returns an in-process connection pair: frames sent on one end are
// received on the other. Both ends are safe for one concurrent sender and
// one concurrent receiver.
func Pipe() (Conn, Conn) {
	ab := make(chan []byte, 16)
	ba := make(chan []byte, 16)
	done := make(chan struct{})
	var once sync.Once
	closeFn := func() { once.Do(func() { close(done) }) }
	a := &pipeConn{send: ab, recv: ba, done: done, close: closeFn}
	b := &pipeConn{send: ba, recv: ab, done: done, close: closeFn}
	return a, b
}

type pipeConn struct {
	send  chan []byte
	recv  chan []byte
	done  chan struct{}
	close func()
}

func (c *pipeConn) Send(frame []byte) error {
	// Check for closure first: with buffer space available, the send
	// case below would otherwise race the done case and sometimes win
	// on an already-closed connection.
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	cp := append([]byte(nil), frame...)
	select {
	case c.send <- cp:
		return nil
	case <-c.done:
		return ErrClosed
	}
}

func (c *pipeConn) Recv() ([]byte, error) {
	select {
	case f := <-c.recv:
		return f, nil
	case <-c.done:
		// Drain anything already queued before reporting closure.
		select {
		case f := <-c.recv:
			return f, nil
		default:
			return nil, ErrClosed
		}
	}
}

func (c *pipeConn) Close() error {
	c.close()
	return nil
}

// maxRetainedFrame bounds the receive buffer a tcpConn keeps between
// frames. Coordination frames (a delta or an update of up to a few hundred
// cells) fit and reuse one buffer for the life of the connection; larger
// frames — peer-sync batches, bootstrap snapshots — get a one-shot buffer, so
// a first-sync high-water mark is not pinned for the life of a peer link.
// A constant, not an option: it trades one allocation per oversized frame
// against resident memory per connection, and no caller needs another value.
// It bounds what the scratch pool keeps as well.
const maxRetainedFrame = 512 << 10

// MaxScratch is the largest buffer the scratch pool keeps, for the layers
// above that recycle frame-sized state of their own by the same rule.
const MaxScratch = maxRetainedFrame

// scratch recycles frame-sized byte buffers across the process's
// connections: a connection per join would otherwise allocate, and leave
// behind, one buffer per large frame it ever received or encoded. It holds
// *[]byte with readBufSize < cap ≤ maxRetainedFrame: a smaller buffer costs
// less to allocate than to share, a larger one is one-shot by design.
var scratch sync.Pool

// TakeScratch returns an empty buffer with room for n bytes: a recycled one
// when the pool has one that large, a new one with an eighth to spare
// otherwise (a pooled buffer that is too small is dropped, so the pool's
// sizes ratchet up to what the process's frames need). The caller owns the
// buffer and hands it back with RecycleScratch when nothing reads it any more.
func TakeScratch(n int) []byte {
	if n > maxRetainedFrame {
		return make([]byte, 0, n) // one-shot
	}
	if n > readBufSize {
		if p, _ := scratch.Get().(*[]byte); p != nil && cap(*p) >= n {
			return (*p)[:0]
		}
		n = min(n+n/8, maxRetainedFrame)
	}
	return make([]byte, 0, n)
}

// RecycleScratch offers a buffer to the pool. The caller must not touch it
// afterwards: pass a buffer, never the address of a field that goes on
// naming it.
func RecycleScratch(buf []byte) {
	if cap(buf) > readBufSize && cap(buf) <= maxRetainedFrame {
		scratch.Put(&buf)
	}
}

// readBufSize is the per-connection read buffer: the length prefix and a
// small frame (status, ack, hello) arrive in one read; the body of a large
// frame bypasses it and is read straight into the frame buffer.
const readBufSize = 4 << 10

// readers recycles the connections' read buffers (*bufio.Reader, detached
// from their stream) by the scratch pool's rule: a receiver takes one at its
// first Recv and only the receiver hands it back (see tcpConn.recycle).
var readers sync.Pool

// frameHeader is the size of the length prefix.
const frameHeader = 4

// tcpConn frames messages over a stream with a 4-byte big-endian length
// prefix. One sender and one receiver may use it concurrently.
type tcpConn struct {
	nc net.Conn

	sendLock sync.Mutex
	sendHdr  [frameHeader]byte
	sendVec  [2][]byte   // header and body of the frame being sent
	sendBufs net.Buffers // sendVec[:], consumed by each write

	recvLock sync.Mutex
	rd       *bufio.Reader // from the readers pool; nil before the first Recv and after recycle
	recvHdr  [frameHeader]byte
	frame    []byte // reused receive buffer from the scratch pool, cap ≤ maxRetainedFrame
}

// NewTCPConn wraps an established net.Conn with message framing.
func NewTCPConn(nc net.Conn) Conn {
	return &tcpConn{nc: nc}
}

// Dial connects to a CoCa server at addr ("host:port").
func Dial(addr string) (Conn, error) {
	return DialContext(context.Background(), addr)
}

// DialContext connects to a CoCa server at addr, honoring the context's
// cancellation and deadline during connection establishment.
func DialContext(ctx context.Context, addr string) (Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewTCPConn(nc), nil
}

// Send hands the kernel the length prefix and the frame in one vectored
// write (writev on TCP), so the peer is woken once per frame and never
// between header and body, and the frame is not copied in user space.
func (c *tcpConn) Send(frame []byte) error {
	if len(frame) > MaxFrameSize {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(frame))
	}
	c.sendLock.Lock()
	defer c.sendLock.Unlock()
	binary.BigEndian.PutUint32(c.sendHdr[:], uint32(len(frame)))
	c.sendVec[0], c.sendVec[1] = c.sendHdr[:], frame
	c.sendBufs = c.sendVec[:]
	_, err := c.sendBufs.WriteTo(c.nc)
	c.sendVec[1] = nil // the frame is not retained past the call
	if err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// Recv returns the next frame in the connection's reused frame buffer: the
// slice is valid until the next Recv. The buffer comes from the scratch pool
// and is replaced when a frame outgrows it (the outgrown one is dropped: too
// small here, it would be too small for the next connection like this one),
// never past maxRetainedFrame; a larger frame gets a one-shot buffer. A
// failed Recv — how a receiver that runs until its peer is gone learns that
// it is — hands the buffer, and the read buffer, back to their pools.
func (c *tcpConn) Recv() ([]byte, error) {
	c.recvLock.Lock()
	defer c.recvLock.Unlock()
	if c.rd == nil {
		if c.rd, _ = readers.Get().(*bufio.Reader); c.rd == nil {
			c.rd = bufio.NewReaderSize(nil, readBufSize)
		}
		c.rd.Reset(c.nc)
	}
	if _, err := io.ReadFull(c.rd, c.recvHdr[:]); err != nil {
		c.recycle()
		return nil, fmt.Errorf("transport: read header: %w", err)
	}
	n := int(binary.BigEndian.Uint32(c.recvHdr[:]))
	if n > MaxFrameSize {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	frame := c.frame
	if n > cap(frame) {
		frame = TakeScratch(n)
		if n <= maxRetainedFrame {
			c.frame = frame
		}
	}
	frame = frame[:n]
	if _, err := io.ReadFull(c.rd, frame); err != nil {
		c.recycle()
		return nil, fmt.Errorf("transport: read frame: %w", err)
	}
	return frame, nil
}

// recycle hands the receive buffer to the scratch pool and the read buffer to
// its own; a later Recv takes others. A read buffer that holds bytes of a
// frame the peer sent ahead stays with the connection. Callers hold recvLock.
func (c *tcpConn) recycle() {
	RecycleScratch(c.frame)
	c.frame = nil
	if c.rd != nil && c.rd.Buffered() == 0 {
		c.rd.Reset(nil)
		readers.Put(c.rd)
		c.rd = nil
	}
}

// Close closes the stream. It leaves the receive buffer alone: a frame from
// it may still be being decoded on another goroutine (see Release).
func (c *tcpConn) Close() error { return c.nc.Close() }

// Release hands conn's receive and read buffers back to their pools. Only the
// connection's receiver may call it, and only when it is done with the frame
// its last Recv returned and will not call Recv concurrently — which a
// closer on another goroutine cannot know, so Close itself never recycles.
// A receiver that runs until Recv fails need not call it: the failed Recv
// released the buffer. A no-op for connections that do not pool.
func Release(conn Conn) {
	if c, ok := conn.(*tcpConn); ok {
		c.recvLock.Lock()
		c.recycle()
		c.recvLock.Unlock()
	}
}

// Listener accepts framed connections.
type Listener struct {
	nl net.Listener
}

// Listen opens a TCP listener at addr (":0" for an ephemeral port).
func Listen(addr string) (*Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{nl: nl}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.nl.Addr().String() }

// Accept blocks for the next connection.
func (l *Listener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return NewTCPConn(nc), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.nl.Close() }
