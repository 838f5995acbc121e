package transport

// The scratch pool's contract: a recycled buffer serves a later connection,
// nothing above maxRetainedFrame (or small enough to be cheaper to allocate)
// is kept, a connection's buffer goes back only when its receiver is
// provably done with it, and a frame stays intact for its whole validity
// window whatever other connections do with the pool meanwhile.

import (
	"bytes"
	"sync"
	"testing"
)

// sameBacking reports whether two buffers share their first byte.
func sameBacking(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

func TestScratchPoolRecyclesWithinBounds(t *testing.T) {
	// sync.Pool may drop any Put (and does so at random under the race
	// detector), so reuse is looked for over a number of attempts.
	reused := false
	for attempt := 0; attempt < 200 && !reused; attempt++ {
		buf := TakeScratch(100 << 10)
		if cap(buf) < 100<<10 || len(buf) != 0 {
			t.Fatalf("TakeScratch(100 KiB): len %d cap %d", len(buf), cap(buf))
		}
		RecycleScratch(buf)
		reused = sameBacking(buf, TakeScratch(64<<10))
	}
	if !reused {
		t.Error("a recycled 100 KiB buffer never served a later 64 KiB request")
	}

	// Above the retention bound: one-shot on the way out, dropped on the way in.
	huge := TakeScratch(maxRetainedFrame + 1)
	if cap(huge) != maxRetainedFrame+1 {
		t.Fatalf("an oversized request got cap %d, want exactly %d", cap(huge), maxRetainedFrame+1)
	}
	small := make([]byte, 0, readBufSize)
	for i := 0; i < 200; i++ {
		RecycleScratch(huge)
		RecycleScratch(small)
		got := TakeScratch(maxRetainedFrame)
		if cap(got) > maxRetainedFrame || sameBacking(got, huge) {
			t.Fatalf("a buffer of cap %d came out of the pool: nothing above %d may be kept", cap(got), maxRetainedFrame)
		}
		if got = TakeScratch(readBufSize); sameBacking(got, small) {
			t.Fatal("a buffer no larger than the read buffer was pooled")
		}
	}
}

// TestPoolRecvBufferReleasedOnlyByItsReceiver: Close leaves the receive
// buffer alone (another goroutine may be decoding a frame from it), Release
// and a failed Recv hand it back, and neither aliases a buffer the
// connection goes on using.
func TestPoolRecvBufferReleasedOnlyByItsReceiver(t *testing.T) {
	body := patterned(64<<10, 5)
	conn := NewTCPConn(&scriptConn{segments: [][]byte{append(framed(body), framed(body)...)}})
	tc := conn.(*tcpConn)
	got, err := conn.Recv()
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("frame: %v", err)
	}
	_ = conn.Close()
	if !sameBacking(tc.frame, got) || !bytes.Equal(got, body) {
		t.Fatal("Close recycled a receive buffer whose frame may still be in use")
	}
	Release(conn)
	if tc.frame != nil {
		t.Fatal("Release left the connection naming the buffer it handed to the pool")
	}
	// The connection is still usable after a Release: it takes another buffer.
	if got, err = conn.Recv(); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("frame after Release: %v", err)
	}
	if _, err := conn.Recv(); err == nil {
		t.Fatal("Recv past the end of the stream succeeded")
	}
	if tc.frame != nil {
		t.Fatal("a failed Recv kept the receive buffer")
	}
	Release(conn) // nothing left to release: a no-op
	a, b := Pipe()
	Release(a) // not a pooling connection: a no-op
	_, _ = a.Close(), b.Close()
}

// TestPoolFrameIntactWhileOtherConnectionsChurn holds a frame received on
// connection A for its whole validity window — until A's next Recv — while
// connections B open, receive frames of the same size class and close, each
// returning its buffer to the pool and the next one taking it.
func TestPoolFrameIntactWhileOtherConnectionsChurn(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const size = 96 << 10
	var wg sync.WaitGroup
	defer wg.Wait() // after the listener closes and the accept loop ends
	defer l.Close()
	wg.Add(1)
	go func() { // the far end: every connection is sent two frames salted by its order
		defer wg.Done()
		for salt := byte(1); ; salt++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			_ = conn.Send(patterned(size, salt))
			_ = conn.Send(patterned(size/2, salt+100))
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = conn.Recv() // until the dialer closes
				_ = conn.Close()
			}()
		}
	}()
	a, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close() // on every path, so that the far end's handlers return
	held, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b, err := Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		_ = b.Close() // the frame outlives Close: only Release ends it
		if err != nil || !bytes.Equal(got, patterned(size, byte(2+i))) {
			t.Fatalf("connection B%d: frame differs from what was sent (%v)", i, err)
		}
		if sameBacking(got, held) {
			t.Fatalf("connection B%d received into the buffer connection A's live frame is in", i)
		}
		Release(b)
	}
	if !bytes.Equal(held, patterned(size, 1)) {
		t.Fatal("connection A's frame changed while other connections opened, received and closed")
	}
	next, err := a.Recv()
	if err != nil || !bytes.Equal(next, patterned(size/2, 101)) {
		t.Fatalf("connection A's next frame: %v", err)
	}
}

// TestPoolReadBufferFollowsTheReceiveBuffer: a connection takes its read
// buffer at its first Recv, hands it back where it hands the receive buffer
// back (Release, a failed Recv — never Close), detached from its stream, and
// the next connection's first Recv takes it; a read buffer that still holds
// bytes the peer sent ahead is not handed back, so a Release between two
// frames loses nothing.
func TestPoolReadBufferFollowsTheReceiveBuffer(t *testing.T) {
	small := patterned(100, 3)
	// Both frames arrive in one segment: the first Recv buffers the second.
	conn := NewTCPConn(&scriptConn{segments: [][]byte{append(framed(small), framed(small)...)}})
	tc := conn.(*tcpConn)
	if tc.rd != nil {
		t.Fatal("a connection that never received holds a read buffer")
	}
	if got, err := conn.Recv(); err != nil || !bytes.Equal(got, small) {
		t.Fatalf("first frame: %v", err)
	}
	_ = conn.Close()
	if tc.rd == nil {
		t.Fatal("Close took the read buffer from under the receiver")
	}
	Release(conn)
	if tc.rd == nil || tc.rd.Buffered() == 0 {
		t.Fatal("Release handed back a read buffer that held the next frame")
	}
	if got, err := conn.Recv(); err != nil || !bytes.Equal(got, small) {
		t.Fatalf("the frame sent ahead, after a Release: %v", err)
	}
	// sync.Pool may drop any Put (and does so at random under the race
	// detector), so reuse is looked for over a number of attempts.
	reused := false
	for attempt := 0; attempt < 200 && !reused; attempt++ {
		a := NewTCPConn(&scriptConn{segments: [][]byte{framed(small)}}).(*tcpConn)
		if _, err := a.Recv(); err != nil {
			t.Fatal(err)
		}
		rd := a.rd
		if attempt%2 == 0 {
			Release(a)
		} else if _, err := a.Recv(); err == nil {
			t.Fatal("Recv past the end of the stream succeeded")
		}
		if a.rd != nil {
			t.Fatal("the connection still names the read buffer it handed back")
		}
		b := NewTCPConn(&scriptConn{segments: [][]byte{framed(patterned(200, 9))}}).(*tcpConn)
		got, err := b.Recv()
		if err != nil || !bytes.Equal(got, patterned(200, 9)) {
			t.Fatalf("frame through a possibly recycled read buffer: %v", err)
		}
		reused = b.rd == rd
		Release(b)
	}
	if !reused {
		t.Error("a read buffer handed back never served a later connection")
	}
}
