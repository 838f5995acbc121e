package federation

// Wire-delta equivalence: the server-side hot paths (session delta
// computation, global-table sweeps, federation delta collection and the
// protocol codec) were rebuilt around reusable scratch and pooled buffers.
// This test pins the OBSERVABLE contract across that refactor: for a fixed,
// deterministic schedule of allocations, uploads and peer syncs, the
// encoded wire frames must be byte-identical to the ones the pre-refactor
// path produced (golden hash captured before the rewrite). Any change to
// delta content, ordering or encoding — however subtle — moves the hash.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sort"
	"testing"

	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/model"
	"coca/internal/protocol"
	"coca/internal/semantics"
	"coca/internal/xrand"
)

// goldenWireHash is the SHA-256 over every frame (length-prefixed) the
// schedule below emits, captured from the pre-refactor server path. The
// frames carry sampled feature vectors, so a change to the simulated
// substrate moves it too; semantics' TestSubstrateGolden pins those bits on
// their own and fails first. The frames are wire version 4: every header
// carries the deadline word and every peer cell its origin tags.
const goldenWireHash = "82e7648f7afd87b6d86b824b03afde4f0bc8a66826f5c178cf1115e640fbcffe"

// recordFrame hashes one encoded frame with a length prefix, so frame
// boundaries cannot cancel out across the stream.
func recordFrame(t *testing.T, h hash.Hash, m *protocol.Message) {
	t.Helper()
	frame, err := protocol.Encode(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
	h.Write(hdr[:])
	h.Write(frame)
}

// scriptedStatus builds a deterministic status report from the shared rng.
func scriptedStatus(r interface{ IntN(int) int }, classes int, lastVer uint64) core.StatusReport {
	st := core.StatusReport{
		Tau:         make([]int, classes),
		Budget:      40,
		RoundFrames: 50,
		LastVersion: lastVer,
	}
	for c := range st.Tau {
		st.Tau[c] = r.IntN(300)
	}
	return st
}

func TestWireDeltaEquivalenceGolden(t *testing.T) {
	ctx := context.Background()
	h := sha256.New()

	ds := dataset.UCF101().Subset(12)
	space := semantics.NewSpace(ds, model.ResNet50())
	cfg := core.ServerConfig{Theta: 0.012, Seed: 7, InitSamplesPerClass: 16, ProfileSamples: 120}

	// ---- Part 1: session allocation deltas ----
	srv := core.NewServer(space, cfg)
	r := xrand.New(99)
	update := func(classes, layers int) core.UpdateReport {
		upd := core.UpdateReport{Freq: make([]float64, classes)}
		for c := range upd.Freq {
			upd.Freq[c] = float64(r.IntN(5))
		}
		for k := 0; k < 6; k++ {
			upd.Cells = append(upd.Cells, core.UpdateCell{
				Class: r.IntN(classes),
				Layer: r.IntN(layers),
				Count: 1 + r.IntN(3),
				Vec:   xrand.NormalVector(r, model.Dim),
			})
		}
		return upd
	}

	var sessions []core.Session
	for id := 0; id < 2; id++ {
		sess, err := srv.Open(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		sessions = append(sessions, sess)
	}
	lastVer := make([]uint64, len(sessions))
	for round := 0; round < 6; round++ {
		for i, sess := range sessions {
			status := scriptedStatus(r, ds.NumClasses, lastVer[i])
			if round == 4 && i == 0 {
				status.LastVersion = 999 // divergence: the server must resend in full
			}
			d, err := sess.Allocate(ctx, status)
			if err != nil {
				t.Fatal(err)
			}
			// The pre-refactor session emitted evictions in map-iteration
			// order; canonicalize so the hash pins the eviction SET (and
			// every other byte) rather than incidental map order.
			d.Evict = append([]core.CellRef(nil), d.Evict...)
			sort.Slice(d.Evict, func(a, b int) bool {
				if d.Evict[a].Site != d.Evict[b].Site {
					return d.Evict[a].Site < d.Evict[b].Site
				}
				return d.Evict[a].Class < d.Evict[b].Class
			})
			recordFrame(t, h, &protocol.Message{
				Type:      protocol.TypeDelta,
				ClientID:  int32(i),
				SessionID: uint64(i) + 1,
				Delta:     &d,
			})
			lastVer[i] = d.Version
			if err := sess.Upload(ctx, update(ds.NumClasses, space.Arch.NumLayers)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// ---- Part 2: federation peer deltas over a 3-node mesh ----
	topo, err := NewTopology(Mesh, 3)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, 3)
	peerSessions := make([]core.Session, 3)
	for i := range nodes {
		nodes[i] = NewNode(core.NewServer(space, cfg), NodeConfig{ID: i})
		sess, err := nodes[i].Open(ctx, 100+i)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		peerSessions[i] = sess
	}
	for round := 0; round < 3; round++ {
		for i, sess := range peerSessions {
			if err := sess.Upload(ctx, update(ds.NumClasses, space.Arch.NumLayers)); err != nil {
				t.Fatalf("node %d upload: %v", i, err)
			}
		}
		// One sync round, mirroring SyncNodes' two-phase order, with every
		// non-empty delta frame recorded.
		type exchange struct {
			from, to int
			delta    Delta
		}
		var exchanges []exchange
		for i, n := range nodes {
			for _, p := range topo.Peers(i) {
				d := n.CollectDelta(nodes[p].ID())
				if d.Empty() {
					continue
				}
				recordFrame(t, h, &protocol.Message{
					Type: protocol.TypePeerDelta,
					PeerDelta: &protocol.PeerDelta{
						NodeID: int32(n.ID()),
						Epoch:  n.Epoch(),
						Cells:  d.Cells,
						Freq:   d.Freq,
					},
				})
				exchanges = append(exchanges, exchange{from: n.ID(), to: nodes[p].ID(), delta: d})
			}
		}
		for _, n := range nodes {
			for _, ex := range exchanges {
				if ex.to != n.ID() {
					continue
				}
				if _, err := n.HandlePeerDelta(&protocol.PeerDelta{
					NodeID: int32(ex.from),
					Cells:  ex.delta.Cells,
					Freq:   ex.delta.Freq,
				}); err != nil {
					t.Fatalf("apply %d→%d: %v", ex.from, ex.to, err)
				}
				nodes[ex.from].CommitDelta(ex.to, ex.delta, 0)
			}
		}
		for _, n := range nodes {
			n.EndSync()
		}
	}

	got := hex.EncodeToString(h.Sum(nil))
	if goldenWireHash == "PLACEHOLDER" {
		t.Fatalf("golden hash not set; computed %s", got)
	}
	if got != goldenWireHash {
		t.Errorf("wire frames diverged from the pre-refactor path: hash %s, want %s", got, goldenWireHash)
	}
}

// TestSyncRoundSteadyStateAllocs pins the allocation profile of the
// in-process sync plane (the server-tier counterpart of the client alloc
// tests): an idle sync round — nothing changed anywhere — must cost at
// most the driver's fixed bookkeeping, and a loaded round may allocate
// only in proportion to the cells actually merged (one replacement entry
// slice per merge on each receiver, the immutable-entry invariant).
func TestSyncRoundSteadyStateAllocs(t *testing.T) {
	ctx := context.Background()
	ds := dataset.UCF101().Subset(12)
	space := semantics.NewSpace(ds, model.ResNet50())
	cfg := core.ServerConfig{Theta: 0.012, Seed: 7, InitSamplesPerClass: 16, ProfileSamples: 120}
	topo, err := NewTopology(Mesh, 3)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, 3)
	sessions := make([]core.Session, 3)
	for i := range nodes {
		nodes[i] = NewNode(core.NewServer(space, cfg), NodeConfig{ID: i})
		sess, err := nodes[i].Open(ctx, 100+i)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		sessions[i] = sess
	}
	r := xrand.New(5)
	upload := func() int {
		cells := 0
		for i := range sessions {
			upd := core.UpdateReport{Freq: make([]float64, ds.NumClasses)}
			for k := 0; k < 4; k++ {
				upd.Freq[r.IntN(ds.NumClasses)] += 2
				upd.Cells = append(upd.Cells, core.UpdateCell{
					Class: r.IntN(ds.NumClasses),
					Layer: r.IntN(space.Arch.NumLayers),
					Count: 1 + r.IntN(3),
					Vec:   xrand.NormalVector(r, model.Dim),
				})
			}
			cells += len(upd.Cells)
			if err := sessions[i].Upload(ctx, upd); err != nil {
				t.Fatal(err)
			}
		}
		return cells
	}
	// Warm scratch, views and pooled buffers.
	for i := 0; i < 3; i++ {
		upload()
		if err := SyncNodes(nodes, topo); err != nil {
			t.Fatal(err)
		}
	}

	idle := testing.AllocsPerRun(20, func() {
		if err := SyncNodes(nodes, topo); err != nil {
			t.Fatal(err)
		}
	})
	if idle > 8 {
		t.Errorf("idle sync round: %.1f allocs/op, want <= 8 (fixed driver bookkeeping only)", idle)
	}

	var applied int
	loaded := testing.AllocsPerRun(20, func() {
		cells := upload()
		if err := SyncNodes(nodes, topo); err != nil {
			t.Fatal(err)
		}
		// Every shipped cell is merged on both mesh receivers.
		applied = 2 * cells
	})
	// Per loaded round: one merge-replacement slice plus its publish-time
	// staged mirror per sender-side client merge (upload) and per
	// receiver-side peer merge, with slack for the driver's fixed
	// bookkeeping. The pre-refactor path (fresh delta slices, map views,
	// fresh encode buffers) sat far above this bound.
	if bound := float64(4*applied + 32); loaded > bound {
		t.Errorf("loaded sync round: %.1f allocs/op, want <= %.0f", loaded, bound)
	}
}
