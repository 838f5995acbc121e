package federation

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"coca/internal/core"
	"coca/internal/protocol"
	"coca/internal/stream"
	"coca/internal/transport"
)

// TestWirePeerSyncOverPipe drives the peer protocol end to end over the
// in-memory transport: handshake, delta push, ack, and the receiving
// node's merge.
func TestWirePeerSyncOverPipe(t *testing.T) {
	space := testSpace()
	cfg := testServerConfig()
	local := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 0})
	remote := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 1})

	cConn, sConn := transport.Pipe()
	go func() { _ = protocol.ServeConn(context.Background(), sConn, remote) }()

	classes, layers := local.Server().Shape()
	pc, err := protocol.DialPeer(cConn, local.ID(), classes, layers)
	if err != nil {
		t.Fatal(err)
	}
	if pc.PeerID() != 1 {
		t.Fatalf("handshake returned peer id %d, want 1", pc.PeerID())
	}

	uploadCell(t, local, 3, 6, unitVec(5))
	d := local.CollectDelta(pc.PeerID())
	if len(d.Cells) == 0 {
		t.Fatal("no delta collected after client upload")
	}
	applied, wireBytes, err := pc.SendDelta(local.Epoch(), d.Cells, d.Freq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if applied != len(d.Cells) {
		t.Fatalf("peer applied %d of %d cells", applied, len(d.Cells))
	}
	if wireBytes == 0 {
		t.Fatal("delta frame measured at 0 bytes")
	}
	local.CommitDelta(pc.PeerID(), d, wireBytes)
	if remote.Server().PeerMerges() != applied {
		t.Fatalf("remote merged %d cells, want %d", remote.Server().PeerMerges(), applied)
	}
	if got := remote.Stats().CellsRecv; got != applied {
		t.Fatalf("remote recv stats %d, want %d", got, applied)
	}

	// Committed: a second collection for the same peer is empty.
	if d2 := local.CollectDelta(pc.PeerID()); len(d2.Cells) != 0 {
		t.Fatalf("committed cells re-collected: %d", len(d2.Cells))
	}
	_ = pc.Close()
}

// TestPeerSetOverTCP exercises the PeerSet path against a real listener:
// lazy dial, handshake, delta push, and the empty-delta fast path.
func TestPeerSetOverTCP(t *testing.T) {
	space := testSpace()
	cfg := testServerConfig()
	local := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 0})
	remote := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 1})

	l, err := transport.Listen("127.0.0.1:0")
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
			go func() { _ = protocol.ServeConn(context.Background(), conn, remote) }()
		}
	}()

	peers := NewPeerSet(local, []string{l.Addr()})
	defer peers.Close()

	uploadCell(t, local, 1, 2, unitVec(9))
	synced, err := peers.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if synced != 1 {
		t.Fatalf("synced %d peers, want 1", synced)
	}
	if remote.Server().PeerMerges() == 0 {
		t.Fatal("remote applied no merges over TCP")
	}
	if local.Stats().BytesSent == 0 {
		t.Fatal("no bytes accounted for the TCP sync")
	}

	// Nothing new: the second sync still succeeds and ships nothing.
	sent := local.Stats().CellsSent
	if _, err := peers.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := local.Stats().CellsSent; got != sent {
		t.Fatalf("idle TCP sync sent cells: %d -> %d", sent, got)
	}
}

// TestPeerSetRetriesUnreachable checks the failure path: an unreachable
// peer reports an error, keeps the delta pending, and the node state
// stays intact.
func TestPeerSetRetriesUnreachable(t *testing.T) {
	space := testSpace()
	local := NewNode(core.NewServer(space, testServerConfig()), NodeConfig{ID: 0})
	peers := NewPeerSet(local, []string{"127.0.0.1:1"}) // nothing listens on port 1
	defer peers.Close()

	uploadCell(t, local, 0, 0, unitVec(3))
	synced, err := peers.SyncOnce(context.Background())
	if synced != 0 || err == nil {
		t.Fatalf("unreachable peer: synced=%d err=%v", synced, err)
	}
	if local.Stats().CellsSent != 0 {
		t.Fatal("failed sync accounted cells as sent")
	}
}

func TestPeerHelloRejectsModelMismatch(t *testing.T) {
	remote := NewNode(core.NewServer(testSpace(), testServerConfig()), NodeConfig{ID: 1})
	cConn, sConn := transport.Pipe()
	go func() { _ = protocol.ServeConn(context.Background(), sConn, remote) }()
	if _, err := protocol.DialPeer(cConn, 0, 99, 99); err == nil || !strings.Contains(err.Error(), "model mismatch") {
		t.Fatalf("mismatched peer hello not rejected: %v", err)
	}
	_ = cConn.Close()
}

func TestPeerDeltaRequiresHello(t *testing.T) {
	remote := NewNode(core.NewServer(testSpace(), testServerConfig()), NodeConfig{ID: 1})
	cConn, sConn := transport.Pipe()
	go func() { _ = protocol.ServeConn(context.Background(), sConn, remote) }()
	frame, err := protocol.Encode(&protocol.Message{
		Type:      protocol.TypePeerDelta,
		PeerDelta: &protocol.PeerDelta{NodeID: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cConn.Send(frame); err != nil {
		t.Fatal(err)
	}
	resp, err := cConn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	m, err := protocol.Decode(resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != protocol.TypeError || !strings.Contains(m.Error, "peer delta before peer hello") {
		t.Fatalf("unhandshaken delta not rejected: %+v", m)
	}
	_ = cConn.Close()
}

// TestPeerSyncRejectedByPlainServer checks that a non-federated endpoint
// (a bare core.Server coordinator) refuses peer frames instead of
// misbehaving.
func TestPeerSyncRejectedByPlainServer(t *testing.T) {
	srv := core.NewServer(testSpace(), testServerConfig())
	cConn, sConn := transport.Pipe()
	go func() { _ = protocol.ServeConn(context.Background(), sConn, srv) }()
	classes, layers := srv.Shape()
	if _, err := protocol.DialPeer(cConn, 0, classes, layers); err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("plain server accepted a peer hello: %v", err)
	}
	_ = cConn.Close()
}

// TestWireClientsDuringPeerSync serves wire session clients from
// one federated node while peer sync runs concurrently against a second
// node whose own fleet is in-process. Run under -race in CI: allocations,
// uploads and peer merges all interleave freely here.
func TestWireClientsDuringPeerSync(t *testing.T) {
	space := testSpace()
	cfg := testServerConfig()
	nodeA := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 0})
	nodeB := NewNode(core.NewServer(space, cfg), NodeConfig{ID: 1})
	topo, err := NewTopology(Mesh, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const wireClients = 3
	const rounds = 3
	const frames = 30
	part, err := stream.NewPartition(stream.Config{
		Dataset: space.DS, NumClients: wireClients + 2, SceneMeanFrames: 10,
		WorkingSetSize: 5, WorkingSetChurn: 0.1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, wireClients+2)
	var clients, wg sync.WaitGroup

	// Wire clients against node A.
	for id := 0; id < wireClients; id++ {
		cConn, sConn := transport.Pipe()
		go func() { _ = protocol.ServeConn(ctx, sConn, nodeA) }()
		clients.Add(1)
		go func(id int) {
			defer clients.Done()
			coord := protocol.NewSessionClient(cConn, space.DS.NumClasses, space.Arch.NumLayers)
			defer coord.Close()
			client, err := core.NewClient(ctx, space, coord, core.ClientConfig{
				ID: id, Theta: 0.035, Budget: 40, RoundFrames: frames,
			})
			if err != nil {
				errs <- fmt.Errorf("wire client %d: %w", id, err)
				return
			}
			defer client.Close()
			gen := part.Client(id)
			for r := 0; r < rounds; r++ {
				if err := client.BeginRound(); err != nil {
					errs <- fmt.Errorf("wire client %d round %d: %w", id, r, err)
					return
				}
				for f := 0; f < frames; f++ {
					client.Infer(gen.Next())
				}
				if err := client.EndRound(); err != nil {
					errs <- fmt.Errorf("wire client %d round %d: %w", id, r, err)
					return
				}
			}
		}(id)
	}

	// Node B's own fleet: one in-process client keeping B's table dirty
	// so syncs travel both directions.
	clients.Add(1)
	go func() {
		defer clients.Done()
		client, err := core.NewClient(ctx, space, nodeB, core.ClientConfig{
			ID: wireClients + 1, Theta: 0.035, Budget: 40, RoundFrames: frames,
		})
		if err != nil {
			errs <- fmt.Errorf("node B client: %w", err)
			return
		}
		defer client.Close()
		gen := part.Client(wireClients + 1)
		for r := 0; r < rounds; r++ {
			if err := client.BeginRound(); err != nil {
				errs <- fmt.Errorf("node B round %d: %w", r, err)
				return
			}
			for f := 0; f < frames; f++ {
				client.Infer(gen.Next())
			}
			if err := client.EndRound(); err != nil {
				errs <- fmt.Errorf("node B round %d: %w", r, err)
				return
			}
		}
	}()

	// Peer sync runs concurrently with all of the above, at least six
	// times and at least once after the last upload, so that merges happen
	// however the scheduler interleaves syncs and rounds.
	clientsDone := make(chan struct{})
	go func() { clients.Wait(); close(clientsDone) }()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, last := 0, false; !last || i < 6; i++ {
			select {
			case <-clientsDone:
				last = true
			default:
			}
			if err := SyncNodes([]*Node{nodeA, nodeB}, topo); err != nil {
				errs <- fmt.Errorf("sync %d: %w", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if nodeA.Server().PeerMerges() == 0 && nodeB.Server().PeerMerges() == 0 {
		t.Fatal("no peer merges happened while wire clients ran")
	}
	if n := nodeA.Server().Sessions(); n != 0 {
		t.Fatalf("node A leaked %d sessions", n)
	}
}
