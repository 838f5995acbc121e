package protocol

// Wire-level tests for deadline propagation: the header word carries the
// client's deadline, and the serving side drops already-expired requests
// at dequeue instead of computing them.

import (
	"context"
	"strings"
	"testing"
	"time"

	"coca/internal/core"
	"coca/internal/overload"
	"coca/internal/telemetry"
	"coca/internal/transport"
)

func TestDeadlineRoundTripV3(t *testing.T) {
	micros := overload.DeadlineMicros(time.Now().Add(40 * time.Millisecond))
	m := &Message{
		Type: TypeStatus, ClientID: 7, SessionID: 3,
		DeadlineMicros: micros,
		Status:         &core.StatusReport{Tau: []int{0, 1}, Budget: 10, RoundFrames: 50},
	}
	frame, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.DeadlineMicros != micros {
		t.Fatalf("deadline %d survived as %d", micros, got.DeadlineMicros)
	}

	// No deadline travels as 0 and decodes as none.
	m.DeadlineMicros = 0
	frame, err = Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.DeadlineMicros != 0 {
		t.Fatalf("deadline-free frame decoded deadline %d", got.DeadlineMicros)
	}
}

// rawRoundTrip performs one pre-encoded exchange against a serve loop.
func rawRoundTrip(t *testing.T, conn transport.Conn, req *Message) *Message {
	t.Helper()
	frame, err := Encode(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(frame); err != nil {
		t.Fatal(err)
	}
	resp, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(resp)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDeadlineExpiredDroppedAtDequeue(t *testing.T) {
	srv, space := testServer(t)
	cConn, sConn := transport.Pipe()
	go func() { _ = ServeConn(context.Background(), sConn, srv) }()
	defer cConn.Close()

	ack := rawRoundTrip(t, cConn, &Message{
		Type: TypeHello, ClientID: 0,
		Hello: &Hello{NumClasses: int32(space.DS.NumClasses), NumLayers: int32(space.Arch.NumLayers)},
	})
	if ack.Type != TypeHelloAck {
		t.Fatalf("hello not acknowledged: %+v", ack)
	}

	status := &core.StatusReport{Tau: make([]int, space.DS.NumClasses), Budget: 40, RoundFrames: 50}

	// A live deadline is honored: the allocation computes normally.
	live := rawRoundTrip(t, cConn, &Message{
		Type: TypeStatus, ClientID: 0, SessionID: ack.SessionID,
		DeadlineMicros: overload.DeadlineMicros(time.Now().Add(time.Minute)),
		Status:         status,
	})
	if live.Type != TypeDelta {
		t.Fatalf("live-deadline status answered with type %d (%s)", live.Type, live.Error)
	}

	// An already-expired deadline is dropped before any computation and
	// counted as overload work the server declined.
	before := telemetry.OverloadDeadlineExpired.Load()
	dead := rawRoundTrip(t, cConn, &Message{
		Type: TypeStatus, ClientID: 0, SessionID: ack.SessionID,
		DeadlineMicros: overload.DeadlineMicros(time.Now().Add(-time.Second)),
		Status:         status,
	})
	if dead.Type != TypeError || !strings.Contains(dead.Error, "deadline expired") {
		t.Fatalf("expired status not dropped at dequeue: %+v", dead)
	}
	if after := telemetry.OverloadDeadlineExpired.Load(); after != before+1 {
		t.Fatalf("deadline-expired counter moved %d -> %d, want +1", before, after)
	}

	// A request without a deadline is served regardless of how long it
	// waited.
	free := rawRoundTrip(t, cConn, &Message{
		Type: TypeStatus, ClientID: 0, SessionID: ack.SessionID,
		Status: status,
	})
	if free.Type != TypeDelta {
		t.Fatalf("deadline-free status answered with type %d (%s)", free.Type, free.Error)
	}
}
