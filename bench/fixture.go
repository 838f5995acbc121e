package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/federation"
	"coca/internal/model"
	"coca/internal/protocol"
	"coca/internal/semantics"
	"coca/internal/stream"
	"coca/internal/transport"
	"coca/internal/xrand"
)

// serverSeed roots the servers' shared-dataset construction. It is part of
// the program's configuration, not of the workload: -seed shapes only the
// traffic the load generator produces, so the program under test receives
// generated payloads and never the workload seed.
const serverSeed = 1

// loadConns is the number of closed-loop load connections: one per core of
// the 2-core machine the benchmark's bounds were measured on.
const loadConns = 2

// scale is an operating point. The benchmark runs at refScale only; the smoke
// test defines a smaller one of its own.
type scale struct {
	arch   func() *model.Arch
	ds     func() *dataset.Spec
	theta  float64
	budget int
	frames int
	// Floors of stream-ref's output check, in percent: the paper's outputs
	// over a measured window must each stay above its floor.
	minReductionPct, minAccuracyPct, minHitPct float64
	// stream-ref draws its clients' streams from a pool of streamClients
	// and gives every client a life of epochRounds rounds.
	streamClients, epochRounds int
	// recClients × recRounds is the size of the recorded coordination
	// traffic; sessions are multiplexed recClients/loadConns per connection.
	recClients, recRounds int
	// setupReps is how many times set-up is measured (the median is
	// reported); warmup precedes every measured window.
	setupReps int
	warmup    time.Duration
}

// refScale is the paper's reference operating point (benchsuite.Headline's
// configuration).
var refScale = scale{
	arch:  model.ResNet101,
	ds:    func() *dataset.Spec { return dataset.UCF101().Subset(50) },
	theta: 0.012, budget: 300, frames: 300,
	// Two points under the lowest of ten 20 s windows (seeds 1-10: reduction
	// 48.9-49.8, accuracy 74.9-75.5, hits 69.7-70.3).
	minReductionPct: 47, minAccuracyPct: 73, minHitPct: 68,
	streamClients: 256, epochRounds: 10, recClients: 16, recRounds: 10,
	setupReps: 5, warmup: 3 * time.Second,
}

// universe is the shared, immutable part of a stood-up system: the semantic
// space and the servers' shared-dataset construction.
type universe struct {
	sc    scale
	space *semantics.Space
	scfg  core.ServerConfig
	init  *core.ServerInit

	spaceBuild, serverBuild time.Duration
}

func buildUniverse(sc scale) *universe {
	t0 := time.Now()
	space := semantics.NewSpace(sc.ds(), sc.arch())
	t1 := time.Now()
	scfg := core.ServerConfig{Theta: sc.theta, Seed: serverSeed}
	init := core.BuildServerInit(space, scfg)
	return &universe{sc: sc, space: space, scfg: scfg, init: init,
		spaceBuild: t1.Sub(t0), serverBuild: time.Since(t1)}
}

// newNode builds one edge server the way coca.Serve does, from the shared
// construction.
func (u *universe) newNode(id int) *federation.Node {
	return federation.NewNode(core.NewServerFrom(u.space, u.scfg, u.init), federation.NodeConfig{ID: id})
}

func (u *universe) shape() (classes, layers int) {
	return u.space.DS.NumClasses, u.space.Arch.NumLayers
}

func (u *universe) clientConfig(id int) core.ClientConfig {
	return core.ClientConfig{
		ID: id, Theta: u.sc.theta, Budget: u.sc.budget, RoundFrames: u.sc.frames,
		EnvBiasWeight: 0.05,
	}
}

// streamConfig is the reference workload: long-tail ρ=10, non-IID p=1,
// scenes of 25 frames over a 15-slot working set with churn 0.05.
func (u *universe) streamConfig(seed uint64, clients int) stream.Config {
	return stream.Config{
		Dataset:         u.space.DS,
		NumClients:      clients,
		ClassWeights:    xrand.LongTailWeights(u.space.DS.NumClasses, 10),
		NonIIDLevel:     1,
		SceneMeanFrames: 25,
		WorkingSetSize:  15,
		WorkingSetChurn: 0.05,
		Seed:            seed,
	}
}

// endpoint is one listening server: transport.Listen, an accept loop, and
// protocol.ServeConn per connection — what coca.Serve runs.
type endpoint struct {
	lis    *transport.Listener
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// Tracing only: dialMu orders dials so that pending, filled by dial and
	// drained by the accept loop, pairs each accepted connection with the
	// link of the dial that produced it (the kernel queues connections in
	// the order they completed).
	dialMu sync.Mutex
	// pending is bounded by the connections dialed but not yet accepted,
	// which the listen backlog caps far below 1024.
	pending chan *link
}

func serve(coord core.Coordinator, tr *tracer) (*endpoint, error) {
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &endpoint{lis: lis, cancel: cancel, pending: make(chan *link, 1024)}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return // listener closed
			}
			cctx := ctx
			if tr != nil {
				select {
				case lk := <-e.pending:
					l := tr.newLane()
					conn = &serverConn{Conn: conn, lane: l, lk: lk}
					cctx = context.WithValue(ctx, laneKey{}, l)
				default: // not dialed through e.dial
				}
			}
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				_ = protocol.ServeConn(cctx, conn, coord)
				_ = conn.Close()
			}()
		}
	}()
	return e, nil
}

func (e *endpoint) addr() string { return e.lis.Addr() }

// dial connects to the endpoint. In the traced run the connection is
// decorated and bound to the caller's lane; load marks a load connection,
// whose frames are counted. A failed traced dial leaves its link queued and
// mispairs later spans — harmless, because a failed dial already fails the
// run.
func (e *endpoint) dial(l *lane, load bool) (transport.Conn, error) {
	if l == nil {
		return transport.Dial(e.addr())
	}
	lk := &link{}
	e.dialMu.Lock()
	e.pending <- lk
	conn, err := transport.Dial(e.addr())
	e.dialMu.Unlock()
	if err != nil {
		return nil, err
	}
	return &clientConn{Conn: conn, lane: l, lk: lk, load: load}, nil
}

// close stops accepting, cuts every connection and waits for the handlers.
func (e *endpoint) close() {
	_ = e.lis.Close()
	e.cancel()
	e.wg.Wait()
}

// nodeCoord is what an endpoint serves for a node: the node itself, or in
// the traced run the node behind the coordinator decorator.
func nodeCoord(n *federation.Node, tr *tracer) core.Coordinator {
	if tr == nil {
		return n
	}
	return tracedNode{Node: n, c: tracedCoord{inner: n, prefix: "core."}}
}

// connect dials an endpoint and wraps the connection in a session client,
// like coca.Dial. The returned closer closes the connection.
func (u *universe) connect(e *endpoint, l *lane) (core.Coordinator, io.Closer, error) {
	o := l.begin()
	conn, err := e.dial(l, true)
	l.end(o, "dial")
	if err != nil {
		return nil, nil, err
	}
	classes, layers := u.shape()
	sc := protocol.NewSessionClient(conn, classes, layers)
	if l == nil {
		return sc, sc, nil
	}
	return tracedCoord{inner: sc, prefix: "client.", lane: l}, sc, nil
}

// system is a stood-up universe with its first serving node.
type system struct {
	u    *universe
	node *federation.Node
	ep   *endpoint
}

// standUp measures set-up: process-independent universe construction, one
// server, its listener, and the first session open over TCP.
func standUp(sc scale, tr *tracer) (*system, time.Duration, error) {
	t0 := time.Now()
	u := buildUniverse(sc)
	node := u.newNode(0)
	ep, err := serve(nodeCoord(node, tr), tr)
	if err != nil {
		return nil, 0, err
	}
	coord, closer, err := u.connect(ep, nil)
	if err != nil {
		ep.close()
		return nil, 0, err
	}
	sess, err := coord.Open(context.Background(), 0)
	elapsed := time.Since(t0)
	if err != nil {
		ep.close()
		return nil, 0, fmt.Errorf("first session open: %w", err)
	}
	_ = sess.Close() // best-effort Bye; the connection closes next
	_ = closer.Close()
	return &system{u: u, node: node, ep: ep}, elapsed, nil
}

// roundPayload is one recorded round of one client's coordination traffic.
type roundPayload struct {
	status core.StatusReport
	update core.UpdateReport
}

// traffic is the deterministic replay fixture: [client][round].
type traffic [][]roundPayload

// recorder is the recording core.Coordinator/core.Session decorator.
type recorder struct {
	inner core.Coordinator
	log   traffic
}

func (r *recorder) Open(ctx context.Context, clientID int) (core.Session, error) {
	sess, err := r.inner.Open(ctx, clientID)
	if err != nil {
		return nil, err
	}
	return &recordedSession{Session: sess, rounds: &r.log[clientID]}, nil
}

type recordedSession struct {
	core.Session
	rounds *[]roundPayload
}

func (s *recordedSession) Allocate(ctx context.Context, st core.StatusReport) (core.Delta, error) {
	cp := st
	cp.Tau = append([]int(nil), st.Tau...)
	cp.HitRatio = append([]float64(nil), st.HitRatio...)
	*s.rounds = append(*s.rounds, roundPayload{status: cp})
	return s.Session.Allocate(ctx, st)
}

func (s *recordedSession) Upload(ctx context.Context, upd core.UpdateReport) error {
	cp := core.UpdateReport{Freq: append([]float64(nil), upd.Freq...), Cells: make([]core.UpdateCell, len(upd.Cells))}
	for i, c := range upd.Cells {
		c.Vec = append([]float32(nil), c.Vec...)
		cp.Cells[i] = c
	}
	// core.Client lists its update table in map order; the cells of one
	// report are independent, so the fixture fixes a canonical order.
	sort.Slice(cp.Cells, func(i, j int) bool {
		a, b := cp.Cells[i], cp.Cells[j]
		return a.Class < b.Class || a.Class == b.Class && a.Layer < b.Layer
	})
	(*s.rounds)[len(*s.rounds)-1].update = cp
	return s.Session.Upload(ctx, upd)
}

// record generates the replay fixture: recClients streaming clients run
// recRounds rounds at the operating point against an in-process server,
// round-robin on one goroutine, so the payloads are a function of seed alone.
func (u *universe) record(seed uint64) (traffic, error) {
	sc := u.sc
	part, err := stream.NewPartition(u.streamConfig(seed, sc.recClients))
	if err != nil {
		return nil, err
	}
	rec := &recorder{inner: core.NewServerFrom(u.space, u.scfg, u.init), log: make(traffic, sc.recClients)}
	clients := make([]*core.Client, sc.recClients)
	gens := make([]*stream.Generator, sc.recClients)
	for k := range clients {
		if clients[k], err = core.NewClient(context.Background(), u.space, rec, u.clientConfig(k)); err != nil {
			return nil, err
		}
		gens[k] = part.Client(k)
	}
	for r := 0; r < sc.recRounds; r++ {
		for k, cl := range clients {
			if err := cl.BeginRound(); err != nil {
				return nil, err
			}
			for f := 0; f < sc.frames; f++ {
				cl.Infer(gens[k].Next())
			}
			if err := cl.EndRound(); err != nil {
				return nil, err
			}
		}
	}
	return rec.log, nil
}

// checksum folds every recorded payload into one FNV-1a hash.
func (t traffic) checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, rounds := range t {
		for _, p := range rounds {
			put(uint64(p.status.Budget))
			put(uint64(p.status.RoundFrames))
			for _, x := range p.status.Tau {
				put(uint64(x))
			}
			for _, x := range p.status.HitRatio {
				put(math.Float64bits(x))
			}
			for _, x := range p.update.Freq {
				put(math.Float64bits(x))
			}
			for _, c := range p.update.Cells {
				put(uint64(c.Class))
				put(uint64(c.Layer))
				put(uint64(c.Count))
				for _, x := range c.Vec {
					put(uint64(math.Float32bits(x)))
				}
			}
		}
	}
	return h.Sum64()
}
