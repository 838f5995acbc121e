package protocol

// Differential and fuzz net for the bulk slice codec: the per-element
// reader/writer loops the bulk ones replaced are kept here as the reference,
// and every observable — bytes, values, error text, read offset — must agree
// between the two on random lengths and on truncation at every byte offset.
// FuzzDecode then holds a reused decoder to a fresh one on arbitrary frames
// of every live version, and FuzzEncodeDecode the float32 run codec,
// AVX2 byte-order kernel on and off, to the reference on arbitrary bits.

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"coca/internal/core"
	"coca/internal/vecmath"
)

// ---- reference: one append, one error check, one bounds check per element ----

func refWriteI32s(w *writer, vs []int) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.i32(int32(v))
	}
}

func refWriteF64s(w *writer, vs []float64) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.f64(v)
	}
}

func refWriteF32s(w *writer, vs []float32) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.u32(math.Float32bits(v))
	}
}

func refReadI32s(r *reader) []int {
	n := r.length(4)
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, int(r.i32()))
	}
	return out
}

func refReadF64s(r *reader) []float64 {
	n := r.length(8)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.f64())
	}
	return out
}

func refReadF32s(r *reader) []float32 {
	n := r.length(4)
	out := make([]float32, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, math.Float32frombits(r.u32()))
	}
	return out
}

// sliceCodec pairs one element type's bulk codec with its reference. Values
// are compared by bit pattern, so NaNs and signed zeros count.
type sliceCodec struct {
	name     string
	elemSize int
	// encode writes n pseudo-random elements with the bulk and the reference
	// writer; decode reads a run with the bulk reader or the reference
	// reader and returns the values' bit patterns.
	encode func(rng *rand.Rand, n int) (bulk, ref []byte)
	decode func(r *reader, reference bool) []uint64
}

func sliceCodecs() []sliceCodec {
	return []sliceCodec{
		{
			name: "i32s", elemSize: 4,
			encode: func(rng *rand.Rand, n int) ([]byte, []byte) {
				vs := make([]int, n)
				for i := range vs {
					vs[i] = int(int32(rng.Uint32()))
				}
				var a, b writer
				a.i32s(vs)
				refWriteI32s(&b, vs)
				return a.buf, b.buf
			},
			decode: func(r *reader, reference bool) []uint64 {
				vs := r.i32s
				if reference {
					vs = func() []int { return refReadI32s(r) }
				}
				var out []uint64
				for _, v := range vs() {
					out = append(out, uint64(v))
				}
				return out
			},
		},
		{
			name: "f64s", elemSize: 8,
			encode: func(rng *rand.Rand, n int) ([]byte, []byte) {
				vs := make([]float64, n)
				for i := range vs {
					vs[i] = math.Float64frombits(rng.Uint64())
				}
				var a, b writer
				a.f64s(vs)
				refWriteF64s(&b, vs)
				return a.buf, b.buf
			},
			decode: func(r *reader, reference bool) []uint64 {
				vs := r.f64s
				if reference {
					vs = func() []float64 { return refReadF64s(r) }
				}
				var out []uint64
				for _, v := range vs() {
					out = append(out, math.Float64bits(v))
				}
				return out
			},
		},
		{
			name: "f32s", elemSize: 4,
			encode: func(rng *rand.Rand, n int) ([]byte, []byte) {
				vs := make([]float32, n)
				for i := range vs {
					vs[i] = math.Float32frombits(rng.Uint32())
				}
				var a, b writer
				a.f32s(vs)
				refWriteF32s(&b, vs)
				return a.buf, b.buf
			},
			decode: func(r *reader, reference bool) []uint64 {
				vs := r.f32s
				if reference {
					vs = func() []float32 { return refReadF32s(r) }
				}
				var out []uint64
				for _, v := range vs() {
					out = append(out, uint64(math.Float32bits(v)))
				}
				return out
			},
		},
	}
}

// sameRead decodes buf with the bulk reader (through a fresh Decoder and
// through the reused dec) and with the reference and fails on any difference
// in values, error text or final offset.
func sameRead(t *testing.T, c sliceCodec, buf []byte, dec *Decoder, ctx string) {
	t.Helper()
	ref := &reader{buf: buf, dec: new(Decoder)}
	want := c.decode(ref, true)
	dec.ints.reset()
	dec.f64s.reset()
	dec.f32s.reset()
	for _, r := range []*reader{{buf: buf, dec: new(Decoder)}, {buf: buf, dec: dec}} {
		got := c.decode(r, false)
		switch {
		case (r.err == nil) != (ref.err == nil) || (r.err != nil && r.err.Error() != ref.err.Error()):
			t.Fatalf("%s %s: bulk error %v, reference error %v", c.name, ctx, r.err, ref.err)
		case r.off != ref.off:
			t.Fatalf("%s %s: bulk reader stopped at offset %d, reference at %d", c.name, ctx, r.off, ref.off)
		case len(got) != len(want):
			t.Fatalf("%s %s: bulk decoded %d values, reference %d", c.name, ctx, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s %s: value %d is %#x, reference %#x", c.name, ctx, i, got[i], want[i])
			}
		}
	}
}

func TestBulkSliceCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 29))
	var dec Decoder
	for _, c := range sliceCodecs() {
		// Random lengths 0…4096 (and every small one): identical bytes out,
		// identical values back, also behind a prefix and before a suffix so
		// offsets other than zero are exercised.
		lengths := []int{4096}
		for n := 0; n <= 40; n++ {
			lengths = append(lengths, n)
		}
		for i := 0; i < 60; i++ {
			lengths = append(lengths, rng.IntN(4097))
		}
		for _, n := range lengths {
			bulk, ref := c.encode(rng, n)
			if !bytes.Equal(bulk, ref) {
				t.Fatalf("%s: %d elements encode to different bytes (bulk %d, reference %d bytes)", c.name, n, len(bulk), len(ref))
			}
			sameRead(t, c, bulk, &dec, "whole run")
			sameRead(t, c, append(bulk[:len(bulk):len(bulk)], 0xAB, 0xCD), &dec, "run with trailing bytes")
		}
		// Truncation at every byte offset, the length prefix included.
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 257} {
			bulk, _ := c.encode(rng, n)
			for cut := 0; cut < len(bulk); cut++ {
				sameRead(t, c, bulk[:cut:cut], &dec, "truncated")
			}
		}
		// A length prefix that promises fewer elements than follow, more
		// than the frame holds, or more than an int32: identical outcome.
		for _, n := range []uint32{1, 1 << 20, math.MaxInt32, math.MaxUint32} {
			var w writer
			w.u32(n)
			w.buf = append(w.buf, make([]byte, 3*c.elemSize)...)
			sameRead(t, c, w.buf, &dec, "length prefix at odds with the frame")
		}
	}
}

// TestBulkWriterAppends: the bulk writers extend a buffer that already holds
// data, sized up front or not, without disturbing it.
func TestBulkWriterAppends(t *testing.T) {
	vs := []float32{1, -2, 3.5, 0, 7, 8, 9}
	for _, capacity := range []int{0, 3, 64, 4096} {
		w := writer{buf: append(make([]byte, 0, capacity), "hdr"...)}
		w.f32s(vs)
		w.i32s([]int{-1, 2})
		w.f64s([]float64{math.Pi})
		ref := writer{buf: []byte("hdr")}
		refWriteF32s(&ref, vs)
		refWriteI32s(&ref, []int{-1, 2})
		refWriteF64s(&ref, []float64{math.Pi})
		if !bytes.Equal(w.buf, ref.buf) {
			t.Fatalf("cap %d: bulk writers produced %x, reference %x", capacity, w.buf, ref.buf)
		}
	}
}

// FuzzEncodeDecode holds writer.f32s and reader.f32s to the per-element
// reference on arbitrary float32 bit patterns, with the AVX2 byte-order
// kernel on (where the CPU has it) and off: identical bytes, written behind
// a header of pad bytes so the run starts at any alignment, and identical
// bit patterns back, NaN payloads included, through a fresh Decoder and
// through a reused one.
func FuzzEncodeDecode(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0x7f, 0xc0, 0x01, 0x23}, 9), uint8(3))
	f.Add(bytes.Repeat([]byte{0x80, 0, 0, 0, 1, 0, 0, 0}, 33), uint8(1))
	var dec Decoder
	f.Fuzz(func(t *testing.T, data []byte, pad uint8) {
		vs := make([]float32, len(data)/4)
		for i := range vs {
			vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		hdr := make([]byte, pad%8)
		ref := writer{buf: slices.Clone(hdr)}
		refWriteF32s(&ref, vs)
		for _, kernel := range []bool{true, false} {
			if kernel && !vecmath.AVX2() {
				continue
			}
			func() {
				saved := useAVX2
				useAVX2 = kernel
				defer func() { useAVX2 = saved }()
				w := writer{buf: slices.Clone(hdr)}
				w.f32s(vs)
				if !bytes.Equal(w.buf, ref.buf) {
					t.Fatalf("kernel=%v: f32s wrote %x, reference %x", kernel, w.buf, ref.buf)
				}
				dec.f32s.reset()
				for _, r := range []*reader{{buf: w.buf, off: len(hdr), dec: new(Decoder)}, {buf: w.buf, off: len(hdr), dec: &dec}} {
					got := r.f32s()
					if r.err != nil || len(got) != len(vs) {
						t.Fatalf("kernel=%v: f32s read %d floats (error %v), want %d", kernel, len(got), r.err, len(vs))
					}
					for i := range vs {
						if math.Float32bits(got[i]) != math.Float32bits(vs[i]) {
							t.Fatalf("kernel=%v float %d: read %#x, wrote %#x", kernel, i, math.Float32bits(got[i]), math.Float32bits(vs[i]))
						}
					}
				}
			}()
		}
		back := refReadF32s(&reader{buf: ref.buf, off: len(hdr), dec: new(Decoder)})
		for i := range vs {
			if math.Float32bits(back[i]) != math.Float32bits(vs[i]) {
				t.Fatalf("float %d: reference read %#x, wrote %#x", i, math.Float32bits(back[i]), math.Float32bits(vs[i]))
			}
		}
	})
}

// sampleMessagesAE covers the anti-entropy frames, beside a peer delta and a
// status frame with every optional field set.
func sampleMessagesAE() []*Message {
	gossip := []MemberUpdate{{ID: 3, State: 2, TTL: 4, Addr: "10.0.0.3:7071"}, {ID: 1, State: 0}}
	return []*Message{
		{Type: TypePeerDelta, PeerDelta: &PeerDelta{
			NodeID: 2, Epoch: 9, Freq: []float64{0, 1.5},
			Cells: []PeerCell{{Class: 4, Layer: 2, Evidence: 64, Vec: []float32{1, 0, 0.5},
				Origins: []OriginHeight{{Origin: 0, Height: 40}, {Origin: 2, Height: 24}}}},
			Gossip: gossip}},
		{Type: TypePeerDigestRequest, PeerDigestRequest: &PeerDigestRequest{
			NodeID: 1, Rows: []float64{10, 0, 32}, Gossip: gossip}},
		{Type: TypePeerDigestRequest, PeerDigestRequest: &PeerDigestRequest{
			NodeID: 1, Wants: []DigestCell{{Class: 4, Layer: 2, Origin: 0, Height: 12}}}},
		{Type: TypePeerDigest, PeerDigest: &PeerDigest{
			NodeID: 2, Epoch: 11, Cells: []DigestCell{{Class: 4, Layer: 2, Origin: 2, Height: 24}}, Gossip: gossip}},
		{Type: TypePeerPullResponse, PeerPullResponse: &PeerPullResponse{
			NodeID: 2, Cells: []PullCell{{Class: 4, Layer: 2, Support: 64, EvTotal: 64, Vec: []float32{1, 0},
				Origins: []OriginHeight{{Origin: 0, Height: 40}}}}}},
		{Type: TypeStatus, ClientID: 7, SessionID: 12, DeadlineMicros: 1_700_000_000_000_000,
			Status: &core.StatusReport{Tau: []int{1, 2}, HitRatio: []float64{0.5}, Budget: 40, RoundFrames: 300, LastVersion: 3}},
	}
}

// FuzzDecode holds reused decoders to the package-level Decode (a fresh
// Decoder) on arbitrary frames: neither panics, both accept or both refuse
// with the same error, and an accepted frame re-encodes to the same bytes
// from either result — on another fresh Decoder, on one whose scratch
// earlier inputs have already shaped,
// and on one that comes out of the process-wide reply-decoder pool after a
// larger message shaped it on some other connection. The corpus starts from
// every sample message, whole and cut in half, and from frames both decoders
// must refuse: each sample relabelled as the retired versions 1, 2 and 3 and
// the unknown version 5, each handshake sample with its version byte so
// relabelled, and the retired tag 4.
func FuzzDecode(f *testing.F) {
	samples := append(sampleMessages(), sampleMessagesAE()...)
	frames := make([][]byte, len(samples))
	for i, m := range samples {
		frame, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		frames[i] = frame
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	retired := []byte{1, 2, 3, Version + 1}
	for _, frame := range frames {
		for _, v := range retired {
			bad := slices.Clone(frame)
			bad[0] = v
			f.Add(bad)
		}
	}
	for i, m := range samples {
		off := handshakeVersionOffset(m.Type)
		if off < 0 {
			continue
		}
		for _, v := range retired[:3] {
			bad := slices.Clone(frames[i])
			bad[off] = v
			f.Add(bad)
		}
	}
	frame, err := Encode(&Message{Type: TypeAck})
	if err != nil {
		f.Fatal(err)
	}
	frame[1] = 4
	f.Add(frame)
	var warm Decoder
	large, err := Encode(benchDeltaMessage())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		want, wantErr := Decode(frame)
		pooled, _ := replyDecoders.Get().(*Decoder)
		if pooled == nil { // the pool may drop what it is given
			pooled = new(Decoder)
			if _, err := pooled.Decode(large); err != nil {
				t.Fatal(err)
			}
		}
		defer replyDecoders.Put(pooled)
		for _, dec := range []*Decoder{new(Decoder), &warm, pooled} {
			got, err := dec.Decode(frame)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("Decoder.Decode error %v, Decode error %v", err, wantErr)
			}
			if err != nil {
				continue
			}
			wantBytes, err := Encode(want)
			if err != nil {
				t.Fatalf("decoded message does not re-encode: %v", err)
			}
			gotBytes, err := Encode(got)
			if err != nil {
				t.Fatalf("Decoder.Decode result does not re-encode: %v", err)
			}
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("Decoder.Decode and Decode disagree:\n got %x\nwant %x", gotBytes, wantBytes)
			}
		}
	})
}
