package protocol

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"coca/internal/core"
	"coca/internal/model"
	"coca/internal/vecmath"
	"coca/internal/xrand"
)

// sampleMessages covers every session, join and push message shape; the
// anti-entropy frames are in bulkSamples.
func sampleMessages() []*Message {
	return []*Message{
		{Type: TypeHello, ClientID: 3,
			Hello: &Hello{NumClasses: 50, NumLayers: 34}},
		{Type: TypeHelloAck, ClientID: 3, SessionID: 12,
			HelloAck: &core.RegisterInfo{
				NumClasses: 50, NumLayers: 34,
				ProfileHitRatio: []float64{0.1, 0.5, 0.9},
				SavedMs:         []float64{40, 20, 5},
			}},
		{Type: TypeStatus, ClientID: 7, SessionID: 12, Status: &core.StatusReport{
			Tau:      []int{0, 3, 900},
			HitRatio: []float64{0.2, 0.4},
			Budget:   200, RoundFrames: 300, LastVersion: 41,
		}},
		{Type: TypeDelta, ClientID: 7, SessionID: 12, Delta: &core.Delta{
			Version: 42, BaseVersion: 41,
			Classes: []int{4, 9}, Sites: []int{2, 8},
			Cells: []core.DeltaCell{
				{Site: 2, Class: 4, Vec: []float32{1, 0}},
				{Site: 8, Class: 9, Vec: []float32{0.7, 0.1}},
			},
			Evict: []core.CellRef{{Site: 2, Class: 1}},
		}},
		{Type: TypeDelta, ClientID: 7, SessionID: 13, Delta: &core.Delta{
			Version: 1, Full: true,
			Classes: []int{4}, Sites: []int{2},
			Cells: []core.DeltaCell{{Site: 2, Class: 4, Vec: []float32{1, 0}}},
		}},
		{Type: TypeUpdate, ClientID: 1, SessionID: 12, Update: &core.UpdateReport{
			Freq: []float64{1, 0, 7},
			Cells: []core.UpdateCell{
				{Class: 0, Layer: 5, Count: 3, Vec: []float32{0.1, 0.9}},
			},
		}},
		{Type: TypeBye, ClientID: 1, SessionID: 12},
		{Type: TypeAck, ClientID: 1, SessionID: 12},
		{Type: TypeError, ClientID: 2, SessionID: 12, Error: "model mismatch"},
		{Type: TypePeerHello,
			PeerHello: &PeerHello{NodeID: 2, NumClasses: 50, NumLayers: 34}},
		{Type: TypePeerDelta, PeerDelta: &PeerDelta{
			NodeID: 2, Epoch: 9,
			Cells: []PeerCell{
				{Class: 4, Layer: 2, Evidence: 64, Vec: []float32{1, 0},
					Origins: []OriginHeight{{Origin: 2, Height: 64}}},
				{Class: 9, Layer: 8, Evidence: 160, Vec: []float32{0.7, 0.1},
					Origins: []OriginHeight{{Origin: 2, Height: 100}, {Origin: 0, Height: 60}}},
			},
			Gossip: []MemberUpdate{{ID: 3, State: 2, TTL: 4, Addr: "10.0.0.3:7071"}},
		}},
		{Type: TypePeerAck, PeerAck: &PeerAck{NodeID: 1, Applied: 2}},
		{Type: TypeRedirect, ClientID: 2, SessionID: 12,
			Redirect: &Redirect{Addr: "10.0.0.9:7000", Reason: "breaker-open"}},
		{Type: TypePeerJoin, PeerJoin: &PeerJoin{
			NodeID: 5, NumClasses: 50, NumLayers: 34,
			Addr: "10.0.0.7:7071", WantSnapshot: true}},
		{Type: TypePeerJoin, PeerJoin: &PeerJoin{
			NodeID: 6, NumClasses: 50, NumLayers: 34}},
		{Type: TypePeerSnapshot, PeerSnapshot: &PeerSnapshot{
			NodeID: 1, Epoch: 17,
			Cells: []PeerCell{
				{Class: 4, Layer: 2, Evidence: 64, Vec: []float32{1, 0},
					Origins: []OriginHeight{{Origin: 1, Height: 64}}},
				{Class: 9, Layer: 8, Evidence: 160, Vec: []float32{0.7, 0.1}},
			},
			Freq: []float64{0.5, 0, 2}}},
		{Type: TypePeerSnapshot,
			PeerSnapshot: &PeerSnapshot{NodeID: 1, Epoch: 3}},
		{Type: TypePeerLeave, PeerLeave: &PeerLeave{NodeID: 5}},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		frame, err := Encode(m)
		if err != nil {
			t.Fatalf("encode type %d: %v", m.Type, err)
		}
		got, err := Decode(frame)
		if err != nil {
			t.Fatalf("decode type %d: %v", m.Type, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("round-trip mismatch for type %d:\n  sent %+v\n  got  %+v", m.Type, m, got)
		}
	}
}

// handshakeVersionOffset is where a handshake frame repeats the wire
// version: right after the 22-byte frame header, or after Hello's two
// shape words. Other frames have no such byte (-1).
func handshakeVersionOffset(typ byte) int {
	switch typ {
	case TypeHello:
		return frameHeaderLen + 8
	case TypeHelloAck, TypePeerHello, TypePeerJoin, TypePeerSnapshot, TypePeerAck:
		return frameHeaderLen
	}
	return -1
}

// frameHeaderLen is the fixed frame header: version, type, client id,
// session id and deadline word.
const frameHeaderLen = 1 + 1 + 4 + 8 + 8

func TestEncodeDefaultsToLatestVersion(t *testing.T) {
	for _, m := range sampleMessages() {
		frame, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if frame[0] != Version {
			t.Fatalf("type %d encoded as v%d, want v%d", m.Type, frame[0], Version)
		}
		if off := handshakeVersionOffset(m.Type); off >= 0 && frame[off] != Version {
			t.Fatalf("type %d handshake byte %d, want %d", m.Type, frame[off], Version)
		}
	}
}

// TestDecodeRejectsVersionMismatch: a frame naming any version but
// Version — in its first byte, or in a handshake frame's version byte — is
// refused with an error naming Version.
func TestDecodeRejectsVersionMismatch(t *testing.T) {
	want := fmt.Sprintf("want %d", Version)
	for _, m := range sampleMessages() {
		frame, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []byte{0, 1, 2, 3, Version + 1} {
			places := []int{0}
			if off := handshakeVersionOffset(m.Type); off >= 0 {
				places = append(places, off)
			}
			for _, at := range places {
				bad := append([]byte(nil), frame...)
				bad[at] = v
				_, err := Decode(bad)
				if err == nil {
					t.Fatalf("type %d with version %d at byte %d accepted", m.Type, v, at)
				}
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("type %d version-%d refusal %q does not name %q", m.Type, v, err, want)
				}
			}
		}
	}
}

// TestEncodeRejectsCrossVersionTypes: the retired tag 4 (the v1 full
// allocation) does not encode.
func TestEncodeRejectsCrossVersionTypes(t *testing.T) {
	if _, err := Encode(&Message{Type: 4}); err == nil {
		t.Error("retired type 4 encoded")
	}
}

// TestDecodeRejectsUnknownType covers an unassigned tag and the retired
// tag 4.
func TestDecodeRejectsUnknownType(t *testing.T) {
	for _, typ := range []byte{4, 0x7F} {
		frame, err := Encode(&Message{Type: TypeAck})
		if err != nil {
			t.Fatal(err)
		}
		frame[1] = typ
		if _, err := Decode(frame); err == nil {
			t.Fatalf("type %d accepted", typ)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	for _, m := range sampleMessages() {
		frame, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{1, len(frame) / 2, len(frame) - 1} {
			if cut >= len(frame) {
				continue
			}
			if _, err := Decode(frame[:cut]); err == nil {
				t.Fatalf("truncated frame (type %d, %d/%d bytes) accepted", m.Type, cut, len(frame))
			}
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	frame, err := Encode(&Message{Type: TypeAck, ClientID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(frame, 0xAA)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestEncodeRejectsMissingPayload(t *testing.T) {
	for _, typ := range []byte{TypeHello, TypeHelloAck, TypeStatus, TypeUpdate, TypeDelta, TypePeerHello, TypePeerDelta, TypePeerAck} {
		if _, err := Encode(&Message{Type: typ}); err == nil {
			t.Errorf("type %d with nil payload accepted", typ)
		}
	}
	if _, err := Encode(&Message{Type: 0x55}); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestDecodeRejectsAbsurdLengths(t *testing.T) {
	// A status message claiming 2^31 tau entries in a tiny frame.
	w := &writer{}
	w.u8(Version)
	w.u8(TypeStatus)
	w.i32(1)
	w.u64(9)          // session id
	w.u64(0)          // deadline
	w.u32(0x7FFFFFFF) // tau length
	_, err := Decode(w.buf)
	if err == nil {
		t.Fatal("absurd collection length accepted")
	}
	if !strings.Contains(err.Error(), "truncated length") {
		t.Fatalf("absurd length refused for another reason: %v", err)
	}
}

func TestPropertyFuzzDecodeNeverPanics(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		r := xrand.New(seed)
		frame := make([]byte, int(size))
		for i := range frame {
			frame[i] = byte(r.UintN(256))
		}
		// Must not panic; errors are fine.
		_, _ = Decode(frame)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStatusRoundTrip(t *testing.T) {
	f := func(seed uint64, nc, nl uint8) bool {
		r := xrand.New(seed)
		classes := 1 + int(nc)%60
		layers := 1 + int(nl)%40
		st := &core.StatusReport{
			Tau:      make([]int, classes),
			HitRatio: make([]float64, layers),
			Budget:   r.IntN(1000), RoundFrames: 1 + r.IntN(900),
		}
		for i := range st.Tau {
			st.Tau[i] = r.IntN(5000)
		}
		for j := range st.HitRatio {
			st.HitRatio[j] = r.Float64()
		}
		st.LastVersion = r.Uint64()
		m := &Message{Type: TypeStatus, ClientID: int32(r.IntN(200)), SessionID: r.Uint64(),
			DeadlineMicros: r.Uint64(), Status: st}
		frame, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(frame)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateDeltaSmallerThanV1Full is the wire-cost argument for
// delta allocations: after the first round, an unchanged-shape allocation
// encodes as a near-empty delta, far below the Full delta (LastVersion 0)
// of the same cache — the frame that replaced version 1's full allocation.
func TestSteadyStateDeltaSmallerThanV1Full(t *testing.T) {
	srv, _ := testServer(t)
	ctx := context.Background()
	sess, err := srv.Open(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	status := core.StatusReport{Tau: make([]int, 10), Budget: 40, RoundFrames: 300}

	first, err := sess.Allocate(ctx, status)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Full {
		t.Fatal("first allocation must be full")
	}
	view := core.NewAllocView()
	if err := view.Apply(first); err != nil {
		t.Fatal(err)
	}

	// Steady state with a little churn: one cell of the held allocation
	// is refreshed by an upload before the next round.
	vec := xrand.NormalVector(xrand.New(11), model.Dim)
	vecmath.Normalize(vec)
	upd := core.UpdateReport{
		Cells: []core.UpdateCell{{Class: first.Cells[0].Class, Layer: first.Cells[0].Site, Count: 4, Vec: vec}},
		Freq:  make([]float64, 10),
	}
	if err := sess.Upload(ctx, upd); err != nil {
		t.Fatal(err)
	}

	status.LastVersion = view.Version()
	second, err := sess.Allocate(ctx, status)
	if err != nil {
		t.Fatal(err)
	}
	if second.Full {
		t.Fatal("steady-state allocation should be a delta, not full")
	}
	if len(second.Cells) >= len(first.Cells) {
		t.Fatalf("steady-state delta carries %d cells, full allocation %d", len(second.Cells), len(first.Cells))
	}
	// Encode before the next Allocate: a delta lives in session scratch.
	deltaFrame, err := Encode(&Message{Type: TypeDelta, SessionID: 1, Delta: &second})
	if err != nil {
		t.Fatal(err)
	}
	if err := view.Apply(second); err != nil {
		t.Fatal(err)
	}

	status.LastVersion = 0
	full, err := sess.Allocate(ctx, status)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Full || len(full.Cells) != view.NumCells() {
		t.Fatalf("LastVersion 0 answered with full=%v and %d cells, want a Full delta of the view's %d",
			full.Full, len(full.Cells), view.NumCells())
	}
	fullFrame, err := Encode(&Message{Type: TypeDelta, SessionID: 1, Delta: &full})
	if err != nil {
		t.Fatal(err)
	}
	if len(deltaFrame) >= len(fullFrame) {
		t.Fatalf("steady-state delta (%d bytes) not smaller than the Full delta (%d bytes)",
			len(deltaFrame), len(fullFrame))
	}
	t.Logf("steady-state delta %d bytes vs Full delta %d bytes (%.1f%%)",
		len(deltaFrame), len(fullFrame), 100*float64(len(deltaFrame))/float64(len(fullFrame)))
}
