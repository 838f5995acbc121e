package transport

// The TCP framing contract: one write per Send, frames delivered intact
// however the stream is segmented, and a receive buffer that is reused up
// to maxRetainedFrame and never beyond it.

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scriptConn is a net.Conn whose Read hands out one scripted segment per
// call, the way a TCP stream delivers whatever happened to arrive; writes
// are discarded.
type scriptConn struct {
	segments [][]byte
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.segments) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.segments[0])
	if c.segments[0] = c.segments[0][n:]; len(c.segments[0]) == 0 {
		c.segments = c.segments[1:]
	}
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// framed returns body behind its length prefix.
func framed(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

func patterned(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + salt
	}
	return b
}

func TestTCPRecvReassemblesSegments(t *testing.T) {
	small1, small2 := patterned(37, 1), patterned(300, 2)
	big := patterned(3*readBufSize+11, 3) // larger than the read buffer
	stream := append(append(framed(small1), framed(small2)...), framed(big)...)
	cut := func(at ...int) [][]byte {
		var segs [][]byte
		prev := 0
		for _, a := range append(at, len(stream)) {
			segs = append(segs, append([]byte(nil), stream[prev:a]...))
			prev = a
		}
		return segs
	}
	f2 := frameHeader + len(small1)      // where frame 2 starts
	f3 := f2 + frameHeader + len(small2) // where frame 3 starts
	cases := map[string][][]byte{
		"one segment":             cut(),
		"header split":            cut(2, f2+1, f3+3),
		"two frames coalesced":    cut(f3),
		"frame tail with next":    cut(f2-5, f3+frameHeader+100),
		"byte at a time at start": cut(1, 2, 3, 4, 5, 6),
		"big frame in pieces":     cut(f3+frameHeader, f3+frameHeader+1000, f3+frameHeader+readBufSize+1),
	}
	for name, segs := range cases {
		conn := NewTCPConn(&scriptConn{segments: segs})
		for i, want := range [][]byte{small1, small2, big} {
			got, err := conn.Recv()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: frame %d: %d bytes delivered, differ from the %d sent", name, i, len(got), len(want))
			}
		}
		if _, err := conn.Recv(); err == nil {
			t.Fatalf("%s: Recv past the end of the stream succeeded", name)
		}
	}
}

// TestTCPRecvBufferReuseAndRetention pins the weakened Recv contract and its
// memory bound: frames up to maxRetainedFrame share one buffer (so a frame
// is valid only until the next Recv), and a frame above it is delivered in
// a one-shot buffer that the connection does not keep.
func TestTCPRecvBufferReuseAndRetention(t *testing.T) {
	a, b := patterned(2000, 1), patterned(1500, 2)
	huge := patterned(maxRetainedFrame+1, 3)
	c := patterned(100, 4)
	stream := append(append(append(framed(a), framed(b)...), framed(huge)...), framed(c)...)
	conn := NewTCPConn(&scriptConn{segments: [][]byte{stream}})

	gotA, err := conn.Recv()
	if err != nil || !bytes.Equal(gotA, a) {
		t.Fatalf("frame a: %v", err)
	}
	gotB, err := conn.Recv()
	if err != nil || !bytes.Equal(gotB, b) {
		t.Fatalf("frame b: %v", err)
	}
	if &gotA[0] != &gotB[0] {
		t.Error("a second small frame did not reuse the receive buffer")
	}
	gotHuge, err := conn.Recv()
	if err != nil || !bytes.Equal(gotHuge, huge) {
		t.Fatalf("oversized frame: %v", err)
	}
	gotC, err := conn.Recv()
	if err != nil || !bytes.Equal(gotC, c) {
		t.Fatalf("frame after the oversized one: %v", err)
	}
	if cap(gotC) >= len(huge) {
		t.Errorf("a %d-byte frame after an oversized one has cap %d: the %d-byte buffer was retained",
			len(c), cap(gotC), len(huge))
	}
	if &gotC[0] != &gotB[0] {
		t.Error("the frame after an oversized one did not return to the reused buffer")
	}
	if !bytes.Equal(gotHuge, huge) {
		t.Error("the oversized frame's one-shot buffer was overwritten by the next Recv")
	}
}

// writeSyscalls reads the process's cumulative write-syscall count.
func writeSyscalls() (int, bool) {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			n, err := strconv.Atoi(v)
			return n, err == nil
		}
	}
	return 0, false
}

// TestTCPSendIsOneWrite: a frame leaves in one write. Send hands header and
// body to the kernel as one vectored write, which a stub net.Conn cannot
// observe (net.Buffers degrades to a Write per buffer on anything but a real
// socket), so the test counts the process's write syscalls over loopback
// TCP: one per Send, where the two-write framing cost two.
func TestTCPSendIsOneWrite(t *testing.T) {
	if _, ok := writeSyscalls(); !ok {
		t.Skip("no /proc/self/io: cannot count write syscalls on this platform")
	}
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const sends = 200
	received := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			received <- err
			return
		}
		defer conn.Close()
		for i := 0; i < sends; i++ {
			if _, err := conn.Recv(); err != nil {
				received <- err
				return
			}
		}
		received <- nil
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frame := patterned(600, 9)
	before, _ := writeSyscalls()
	for i := 0; i < sends; i++ {
		if err := c.Send(frame); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := writeSyscalls()
	if err := <-received; err != nil {
		t.Fatal(err)
	}
	// Nothing else in the test binary writes meanwhile (the receiver only
	// reads); a little slack keeps an unrelated runtime write from failing it.
	if got := after - before; got < sends || got > sends+sends/10 {
		t.Fatalf("%d write syscalls for %d Sends, want one each", got, sends)
	}
}

// TestChaosOverReusedTCPBuffers runs the chaos wrapper over real TCP
// connections, whose Recv results are only valid until the next Recv: a
// lost reply is read and discarded to keep the framing aligned, and delayed
// round trips deliver every payload intact.
func TestChaosOverReusedTCPBuffers(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					f, err := conn.Recv()
					if err != nil || conn.Send(f) != nil {
						return
					}
				}
			}()
		}
	}()
	chaos := NewChaosNet(5, FaultConfig{Delay: 1, MaxDelay: time.Millisecond})
	conn, err := chaos.Dial("a")(t.Context(), l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 20; i++ {
		want := patterned(100+i*500, byte(i))
		if err := conn.Send(want); err != nil {
			t.Fatal(err)
		}
		got, err := conn.Recv()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("round trip %d: %d bytes, %v", i, len(got), err)
		}
	}
	chaos.SetFaults(FaultConfig{Dup: 1})
	if err := conn.Send([]byte("processed, reply lost")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err == nil || !strings.Contains(err.Error(), "reply lost") {
		t.Fatalf("recv with the reply lost: %v", err)
	}
}
