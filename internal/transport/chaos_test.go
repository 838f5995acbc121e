package transport

import (
	"context"
	"strings"
	"testing"
	"time"
)

// startEcho runs an echo loop on conn, pushing every frame it receives
// onto the returned channel before echoing it back. The loop ends when
// conn errors (closed or broken); the second channel closes then.
func startEcho(conn Conn) (<-chan []byte, <-chan struct{}) {
	got := make(chan []byte, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			f, err := conn.Recv()
			if err != nil {
				return
			}
			got <- append([]byte(nil), f...) // f is only valid until the next Recv
			if conn.Send(f) != nil {
				return
			}
		}
	}()
	return got, done
}

// TestChaosDropSemantics pins what a dropped request looks like from both
// ends: the Send "succeeds" (the frame vanished in flight, the sender
// cannot know yet), the receiver never sees it, the awaited reply errors,
// and the connection is broken from then on — forcing the redial that the
// resend discipline relies on.
func TestChaosDropSemantics(t *testing.T) {
	net := NewChaosNet(1, FaultConfig{Drop: 1})
	client, server := Pipe()
	got, done := startEcho(server)
	conn := net.Wrap(client, "a", "b")

	if err := conn.Send([]byte("req")); err != nil {
		t.Fatalf("dropped send reported an error: %v", err)
	}
	if _, err := conn.Recv(); err == nil || !strings.Contains(err.Error(), "request dropped") {
		t.Fatalf("recv after drop: %v, want request-dropped error", err)
	}
	// The link is torn: every later operation fails without redialing.
	if err := conn.Send([]byte("again")); err == nil || !strings.Contains(err.Error(), "broken link") {
		t.Fatalf("send on broken link: %v, want broken-link error", err)
	}
	if _, err := conn.Recv(); err == nil || !strings.Contains(err.Error(), "broken link") {
		t.Fatalf("recv on broken link: %v, want broken-link error", err)
	}
	// Nothing ever reached the receiver: the drop happened before the
	// inner connection, not after.
	select {
	case f := <-got:
		t.Fatalf("receiver saw dropped frame %q", f)
	default:
	}
	_ = server.Close()
	<-done
}

// TestChaosDupSemantics pins the duplicate path: the request IS delivered
// and processed, the reply is consumed and discarded (keeping the inner
// framing aligned), and the sender sees an error identical in shape to a
// drop — so its retry after redialing delivers the same payload a second
// time. That at-least-once double delivery is exactly what the ledger
// merge must absorb.
func TestChaosDupSemantics(t *testing.T) {
	net := NewChaosNet(1, FaultConfig{Dup: 1})
	client, server := Pipe()
	got, done := startEcho(server)

	deliveries := 0
	for attempt := 0; attempt < 2; attempt++ {
		conn := net.Wrap(client, "a", "b")
		if err := conn.Send([]byte("req")); err != nil {
			t.Fatalf("attempt %d send: %v", attempt, err)
		}
		if _, err := conn.Recv(); err == nil || !strings.Contains(err.Error(), "reply lost") {
			t.Fatalf("attempt %d recv: %v, want reply-lost error", attempt, err)
		}
		// The receiver processed this attempt before the reply vanished.
		select {
		case <-got:
			deliveries++
		default:
			t.Fatalf("attempt %d: request never delivered despite dup fault", attempt)
		}
	}
	if deliveries != 2 {
		t.Fatalf("%d deliveries across retries, want the at-least-once duplicate (2)", deliveries)
	}
	_ = server.Close()
	<-done
}

// TestChaosPartition covers the partition plane: established connections
// fail on the next operation, dials are refused outright, and Heal /
// HealAll restore the link (over a real TCP listener, since Dial is the
// production entry point).
func TestChaosPartition(t *testing.T) {
	net := NewChaosNet(1, FaultConfig{})
	client, server := Pipe()
	conn := net.Wrap(client, "a", "b")
	if err := conn.Send([]byte("ok")); err != nil {
		t.Fatalf("send before partition: %v", err)
	}

	net.Partition("a", "b")
	if !net.Partitioned("a", "b") || !net.Partitioned("b", "a") {
		t.Fatal("partition not symmetric")
	}
	c2 := net.Wrap(client, "a", "b")
	if err := c2.Send([]byte("req")); err == nil || !strings.Contains(err.Error(), "partitioned") {
		t.Fatalf("send across partition: %v, want partitioned error", err)
	}
	_ = server.Close()

	// Dials to a partitioned endpoint are refused before any syscall.
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			accepted <- c
		}
	}()
	dial := net.Dial("a")
	net.Partition("a", l.Addr())
	if _, err := dial(context.Background(), l.Addr()); err == nil || !strings.Contains(err.Error(), "partitioned") {
		t.Fatalf("dial across partition: %v, want refusal", err)
	}
	net.Heal("a", l.Addr())
	if net.Partitioned("a", l.Addr()) {
		t.Fatal("Heal left the link partitioned")
	}
	cc, err := dial(context.Background(), l.Addr())
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	defer cc.Close()
	sc := <-accepted
	defer sc.Close()
	if err := cc.Send([]byte("hello")); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	if f, err := sc.Recv(); err != nil || string(f) != "hello" {
		t.Fatalf("recv after heal: %q, %v", f, err)
	}

	net.Partition("a", "b")
	net.HealAll()
	if net.Partitioned("a", "b") {
		t.Fatal("HealAll left a partition standing")
	}
}

// TestChaosDelayPassThrough checks that delay-only chaos is loss-free:
// every round trip completes with the payload intact, just later.
func TestChaosDelayPassThrough(t *testing.T) {
	net := NewChaosNet(3, FaultConfig{Delay: 1, MaxDelay: time.Millisecond})
	client, server := Pipe()
	_, done := startEcho(server)
	conn := net.Wrap(client, "a", "b")
	for i := 0; i < 5; i++ {
		if err := conn.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		f, err := conn.Recv()
		if err != nil || len(f) != 1 || f[0] != byte(i) {
			t.Fatalf("round trip %d: %q, %v", i, f, err)
		}
	}
	_ = server.Close()
	<-done
}

// TestChaosDeterminism is the replay guarantee: the same seed and the
// same dial/traffic sequence produce the same fault pattern, while a
// different seed produces a different one — so a failing chaos test can
// be replayed exactly from its seed.
func TestChaosDeterminism(t *testing.T) {
	script := func(seed uint64) []string {
		net := NewChaosNet(seed, FaultConfig{Drop: 0.4, Dup: 0.3})
		outcomes := make([]string, 0, 40)
		for i := 0; i < 40; i++ {
			client, server := Pipe()
			_, done := startEcho(server)
			conn := net.Wrap(client, "a", "b")
			if err := conn.Send([]byte("x")); err != nil {
				t.Fatalf("trial %d send: %v", i, err)
			}
			_, err := conn.Recv()
			switch {
			case err == nil:
				outcomes = append(outcomes, "ok")
			case strings.Contains(err.Error(), "request dropped"):
				outcomes = append(outcomes, "drop")
			case strings.Contains(err.Error(), "reply lost"):
				outcomes = append(outcomes, "dup")
			default:
				t.Fatalf("trial %d: unexpected error %v", i, err)
			}
			_ = server.Close()
			<-done
		}
		return outcomes
	}

	a, b := script(7), script(7)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	seen := map[string]bool{}
	for _, o := range a {
		seen[o] = true
	}
	if !seen["ok"] || !seen["drop"] || !seen["dup"] {
		t.Fatalf("40 trials at 40%%/30%% fault rates missed an outcome class: %v", a)
	}
	if c := script(8); strings.Join(a, ",") == strings.Join(c, ",") {
		t.Fatal("different seeds produced identical fault patterns")
	}
}
