package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"coca/internal/cache"
	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/engine"
	"coca/internal/federation"
	"coca/internal/routing"
	"coca/internal/stream"
	"coca/internal/transport"
)

// workloads are the four closed-loop traffic mixes. Every caller waits for
// its reply before it sends the next request.
var workloads = []workloadDef{
	{"stream-ref", "reference point: real streaming clients, one per connection; cache/vecmath/semantics do >90% of the work, so probe-kernel and batch-path changes show here only; carries the paper's quality numbers", runStreamRef},
	{"coord-replay", "recorded status/update traffic, 16 sessions over 2 connections, no inference: protocol, transport, core server and gtable do all the work, probe kernels none", runCoordReplay},
	{"join-churn", "connection per op through the routing front door, cold Full allocation: dial, hello, redirect, open and restage costs that steady-state precomputation would move here", runJoinChurn},
	{"fed-mesh", "coord-replay traffic on a 3-node wire mesh with op-scheduled sync ticks: federation collect/encode/merge work and its interference with coordination", runFedMesh},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

var bg = context.Background()

// lane returns a fresh lane in the traced run and nil otherwise.
func (b *bench) lane() *lane {
	if b.tr == nil {
		return nil
	}
	return b.tr.newLane()
}

// quality sums the paper's outputs over the measured window.
type quality struct {
	frames, correct, hits int
	latencyMs             float64
}

func (q *quality) add(smp dataset.Sample, res engine.Result) {
	q.frames++
	q.latencyMs += res.LatencyMs
	if res.Pred == smp.Class {
		q.correct++
	}
	if res.Hit {
		q.hits++
	}
}

// generation is one edge server of stream-ref. The program's accuracy decays
// with the age of a server's global table (hit reinforcement feeds on its own
// wrong hits: 76% in the paper's first rounds, under 20% after a few
// thousand), so a time-based window over one long-lived server would measure
// a moving target. Each server therefore lives for loadConns client
// lifetimes of epochRounds rounds — the horizon the paper evaluates — and is
// then replaced.
type generation struct {
	ep           *endpoint
	joined, left int
}

// epochs hands out generations; a loop joins the current one whenever its
// client's life ends, so no loop ever waits for another.
type epochs struct {
	b  *bench
	mu sync.Mutex
	// cur is the generation still admitting clients; live are the ones not
	// yet closed.
	cur     *generation
	live    map[*generation]bool
	clients int // clients created so far: the next client's id
}

func (e *epochs) join() (*generation, int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cur == nil || e.cur.joined == loadConns {
		ep, err := serve(nodeCoord(e.b.sys.u.newNode(0), e.b.tr), e.b.tr)
		if err != nil {
			return nil, 0, err
		}
		e.cur = &generation{ep: ep}
		e.live[e.cur] = true
	}
	e.cur.joined++
	e.clients++
	return e.cur, e.clients - 1, nil
}

func (e *epochs) leave(g *generation) {
	e.mu.Lock()
	g.left++
	done := g.left == loadConns
	if done {
		delete(e.live, g)
	}
	e.mu.Unlock()
	if done {
		g.ep.close()
	}
}

func (e *epochs) closeAll() {
	for g := range e.live {
		g.ep.close()
	}
}

// streamLoop is one load connection of stream-ref: the real streaming client
// it currently runs, that client's stream, and the quality sums of the window.
type streamLoop struct {
	b    *bench
	ep   *epochs
	part *stream.Partition
	lane *lane

	gen    *generation
	closer io.Closer
	cl     *core.Client
	stream *stream.Generator
	rounds int // of the current client's life
	q      quality
}

// retire ends the current client's life, if there is one.
func (s *streamLoop) retire() {
	if s.cl == nil {
		return
	}
	_ = s.cl.Close() // best-effort Bye
	_ = s.closer.Close()
	s.ep.leave(s.gen)
	s.cl = nil
}

// renew replaces a client that has lived epochRounds rounds by a fresh one
// with the next stream, on the generation currently admitting clients.
func (s *streamLoop) renew() error {
	if s.cl != nil && s.rounds < s.b.sc.epochRounds {
		return nil
	}
	s.retire()
	u := s.b.sys.u
	g, id, err := s.ep.join()
	if err != nil {
		return err
	}
	coord, closer, err := u.connect(g.ep, s.lane)
	if err != nil {
		return err
	}
	cl, err := core.NewClient(bg, u.space, coord, u.clientConfig(id))
	if err != nil {
		return err
	}
	s.gen, s.closer, s.cl, s.rounds = g, closer, cl, 0
	s.stream = s.part.Client(id % s.b.sc.streamClients)
	return nil
}

// round runs one round (BeginRound, frames × Infer, EndRound) and returns the
// round-boundary stall: the time blocked in BeginRound and EndRound.
func (s *streamLoop) round(int64) (time.Duration, error) {
	s.rounds++
	l := s.lane
	prev := s.cl.View().Version()
	t0 := time.Now()
	o := l.begin()
	err := s.cl.BeginRound()
	l.end(o, "begin_round")
	if err != nil {
		return 0, err
	}
	if v := s.cl.View().Version(); v != prev+1 {
		return 0, fmt.Errorf("view version went %d -> %d in one round", prev, v)
	}
	t1 := time.Now()
	o = l.begin()
	measuring := s.b.measuring.Load()
	for f := 0; f < s.b.sc.frames; f++ {
		smp := s.stream.Next()
		res := s.cl.Infer(smp)
		if measuring {
			s.q.add(smp, res)
		}
	}
	l.end(o, "infer")
	t2 := time.Now()
	o = l.begin()
	err = s.cl.EndRound()
	l.end(o, "end_round")
	return t1.Sub(t0) + time.Since(t2), err
}

// runStreamRef: op = one round of a real streaming client, one client per
// load connection at a time. Between ops — outside the op's own timing, but
// inside the window's throughput, CPU and allocation — a client whose life
// has ended is replaced.
func runStreamRef(b *bench) error {
	u := b.sys.u
	part, err := stream.NewPartition(u.streamConfig(b.seed, b.sc.streamClients))
	if err != nil {
		return err
	}
	ep := &epochs{b: b, live: map[*generation]bool{}}
	b.cleanup = append(b.cleanup, ep.closeAll)
	loops := make([]*loop, loadConns)
	streams := make([]*streamLoop, loadConns)
	for c := range loops {
		s := &streamLoop{b: b, ep: ep, part: part, lane: b.lane()}
		b.cleanup = append(b.cleanup, s.retire)
		streams[c], loops[c] = s, &loop{lane: s.lane, prep: s.renew, op: s.round}
	}
	b.drive(loops)

	var q quality
	for _, s := range streams {
		q.frames += s.q.frames
		q.correct += s.q.correct
		q.hits += s.q.hits
		q.latencyMs += s.q.latencyMs
	}
	// The paper's outputs over the window. A speed-up that stops caching, or
	// caches wrong answers, is a regression: each output has a floor.
	outputs := []struct {
		name  string
		value float64
		floor float64
	}{
		{"quality.virtual_latency_reduction_pct", 100 * (1 - ratio(q.latencyMs, float64(q.frames))/u.space.Arch.TotalLatencyMs()), b.sc.minReductionPct},
		{"quality.accuracy_pct", 100 * ratio(float64(q.correct), float64(q.frames)), b.sc.minAccuracyPct},
		{"quality.hit_pct", 100 * ratio(float64(q.hits), float64(q.frames)), b.sc.minHitPct},
	}
	for _, o := range outputs {
		b.vals[o.name] = o.value
		b.rep.note("%s %.4f %% over %d frames (floor %.1f)", o.name, o.value, q.frames, o.floor)
		if q.frames == 0 || o.value <= o.floor {
			b.rep.fail("%s is %.2f%% over %d frames, floor %.1f%%", o.name, o.value, q.frames, o.floor)
		}
	}
	if b.tr != nil {
		// (The quality sums cover both halves of the traced window.)
		b.replayInference(streams[0].cl, streams[0].stream)
	}
	return nil
}

// replaySession is one multiplexed session of the replay workloads.
type replaySession struct {
	sess   core.Session
	view   *core.AllocView
	rounds []roundPayload
	next   int
}

// step replays the session's next recorded round: Allocate, Apply, Upload.
func (rs *replaySession) step(l *lane) (time.Duration, error) {
	p := rs.rounds[rs.next%len(rs.rounds)]
	rs.next++
	st := p.status
	prev := rs.view.Version()
	st.LastVersion = prev
	t0 := time.Now()
	d, err := rs.sess.Allocate(bg, st)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	o := l.begin()
	err = rs.view.Apply(d)
	l.end(o, "apply")
	if err != nil {
		return 0, err
	}
	if v := rs.view.Version(); v != prev+1 {
		return 0, fmt.Errorf("view version went %d -> %d in one round", prev, v)
	}
	t2 := time.Now()
	err = rs.sess.Upload(bg, p.update)
	return t1.Sub(t0) + time.Since(t2), err
}

// replayConn is one load connection with the sessions multiplexed on it.
type replayConn struct {
	coord    core.Coordinator
	sessions []*replaySession
	turn     int
}

// replayLoops opens the recorded clients' sessions, an equal share on a
// connection to each endpoint, and returns one closed loop per connection.
func (b *bench) replayLoops(eps []*endpoint, tr traffic) ([]*loop, []*replayConn, error) {
	per := len(tr) / len(eps)
	loops := make([]*loop, len(eps))
	conns := make([]*replayConn, len(eps))
	for c, ep := range eps {
		l := b.lane()
		coord, closer, err := b.sys.u.connect(ep, l)
		if err != nil {
			return nil, nil, err
		}
		b.cleanup = append(b.cleanup, func() { _ = closer.Close() })
		rc := &replayConn{coord: coord}
		for i := 0; i < per; i++ {
			id := c*per + i
			sess, err := coord.Open(bg, id)
			if err != nil {
				return nil, nil, err
			}
			rc.sessions = append(rc.sessions, &replaySession{sess: sess, view: core.NewAllocView(), rounds: tr[id]})
		}
		conns[c] = rc
		loops[c] = &loop{lane: l, op: func(int64) (time.Duration, error) {
			rs := rc.sessions[rc.turn%len(rc.sessions)]
			rc.turn++
			return rs.step(l)
		}}
	}
	return loops, conns, nil
}

// recordTraffic builds the replay fixture and reports how long it took.
func (b *bench) recordTraffic() (traffic, error) {
	t0 := time.Now()
	tr, err := b.sys.u.record(b.seed)
	b.vals["loadgen.record_s"] = time.Since(t0).Seconds()
	return tr, err
}

// verifyViews is the delta-protocol output check, run once load has stopped:
// every replayed session does one last allocate + apply, and a fresh session
// sent the same status gets a Full allocation; the delta-applied view and
// the Full one must match cell for cell, bit for bit.
func (b *bench) verifyViews(conns []*replayConn) {
	for c, rc := range conns {
		for i, rs := range rc.sessions {
			st := rs.rounds[rs.next%len(rs.rounds)].status
			st.LastVersion = rs.view.Version()
			d, err := rs.sess.Allocate(bg, st)
			if err == nil {
				err = rs.view.Apply(d)
			}
			if err != nil {
				b.rep.fail("conn %d session %d: final allocate: %v", c, i, err)
				continue
			}
			fresh, err := rc.coord.Open(bg, 1_000_000+c*len(rc.sessions)+i)
			if err != nil {
				b.rep.fail("conn %d session %d: fresh open: %v", c, i, err)
				continue
			}
			st.LastVersion = 0
			full, err := fresh.Allocate(bg, st)
			if err == nil && !full.Full {
				err = errors.New("fresh session's allocation is not Full")
			}
			want := core.NewAllocView()
			if err == nil {
				err = want.Apply(full)
			}
			if err == nil {
				err = sameView(rs.view, want)
			}
			if err != nil {
				b.rep.fail("conn %d session %d: delta-applied view vs Full: %v", c, i, err)
			}
			_ = fresh.Close() // best-effort Bye
		}
	}
}

// sameView compares two views' materialised layers bit for bit.
func sameView(got, want *core.AllocView) error {
	g, w := got.Layers(), want.Layers()
	if len(g) != len(w) {
		return fmt.Errorf("%d activated sites, want %d", len(g), len(w))
	}
	for i := range g {
		if err := sameLayer(g[i], w[i]); err != nil {
			return err
		}
	}
	return nil
}

func sameLayer(g, w cache.Layer) error {
	if g.Site != w.Site || len(g.Classes) != len(w.Classes) {
		return fmt.Errorf("site %d with %d classes, want site %d with %d", g.Site, len(g.Classes), w.Site, len(w.Classes))
	}
	for j := range g.Classes {
		if g.Classes[j] != w.Classes[j] || len(g.Entries[j]) != len(w.Entries[j]) {
			return fmt.Errorf("site %d entry %d: class %d, want %d", g.Site, j, g.Classes[j], w.Classes[j])
		}
		for d := range g.Entries[j] {
			if math.Float32bits(g.Entries[j][d]) != math.Float32bits(w.Entries[j][d]) {
				return fmt.Errorf("site %d class %d differs at component %d", g.Site, g.Classes[j], d)
			}
		}
	}
	return nil
}

// runCoordReplay: op = Session.Allocate + AllocView.Apply + Session.Upload of
// a recorded round, 8 sessions multiplexed over the 2 connections; the stall
// is the time blocked in the two round trips.
func runCoordReplay(b *bench) error {
	tr, err := b.recordTraffic()
	if err != nil {
		return err
	}
	eps := make([]*endpoint, loadConns)
	for i := range eps {
		eps[i] = b.sys.ep
	}
	loops, conns, err := b.replayLoops(eps, tr)
	if err != nil {
		return err
	}
	b.drive(loops)
	b.verifyViews(conns)
	return nil
}

// runJoinChurn: op = dial the front door, hello, redirect, dial the named
// backend, open, BeginRound (a Full delta: apply + restage), close — with a
// fresh client id every time. The whole op is a stall: the client cannot
// infer until it ends.
func runJoinChurn(b *bench) error {
	u := b.sys.u
	backends := []*endpoint{b.sys.ep}
	ep1, err := serve(nodeCoord(u.newNode(1), b.tr), b.tr)
	if err != nil {
		return err
	}
	b.cleanup = append(b.cleanup, ep1.close)
	backends = append(backends, ep1)
	byAddr := map[string]*endpoint{}
	addrs := make([]string, len(backends))
	for i, e := range backends {
		addrs[i] = e.addr()
		byAddr[e.addr()] = e
	}
	// Default admission: no rate limit, no shedding, breakers closed — so
	// nothing is refused.
	door, err := serve(routing.NewFrontDoor(addrs, routing.Config{}), b.tr)
	if err != nil {
		return err
	}
	b.cleanup = append(b.cleanup, door.close)

	loops := make([]*loop, loadConns)
	for k := range loops {
		l := b.lane()
		loops[k] = &loop{lane: l, op: func(n int64) (time.Duration, error) {
			t0 := time.Now()
			cfg := u.clientConfig(int(n))
			o := l.begin()
			coord, closer, err := u.connect(door, l)
			if err != nil {
				return 0, err
			}
			_, err = core.NewClient(bg, u.space, coord, cfg)
			_ = closer.Close()
			l.end(o, "redirect")
			var re *core.RedirectError
			if !errors.As(err, &re) {
				return 0, fmt.Errorf("front door answered %v, want a redirect", err)
			}
			target, ok := byAddr[re.Addr]
			if !ok {
				return 0, fmt.Errorf("redirected to unknown backend %s", re.Addr)
			}
			coord, closer, err = u.connect(target, l)
			if err != nil {
				return 0, err
			}
			defer closer.Close()
			cl, err := core.NewClient(bg, u.space, coord, cfg)
			if err != nil {
				return 0, err
			}
			o = l.begin()
			err = cl.BeginRound()
			l.end(o, "begin_round")
			if err != nil {
				return 0, err
			}
			if v, cells := cl.View().Version(), cl.View().NumCells(); v != 1 || cells == 0 {
				return 0, fmt.Errorf("joined with view version %d and %d cells, want version 1 and a Full allocation", v, cells)
			}
			if err := cl.Close(); err != nil {
				return 0, err
			}
			return time.Since(t0), nil
		}}
	}
	b.drive(loops)
	if b.tr != nil {
		b.replayAdmit(len(backends))
	}
	return nil
}

// meshTickOps is how many completed ops schedule one fleet sync tick. The
// tick is op-scheduled, not time-scheduled, so sync work per op does not
// depend on machine speed.
const meshTickOps = 100

// meshBacklog is how many owed ticks may queue behind the one the driver is
// running. A load loop that owes one more blocks until the driver catches up,
// so faster ops cannot push federation work out of the measured window: the
// sync work per op inside it stays constant, and what the driver cannot
// absorb shows as lost ops_per_s.
const meshBacklog = 1

// mesh is fed-mesh's fleet: three nodes in a full wire mesh and the single
// goroutine that runs their sync loop.
type mesh struct {
	b     *bench
	nodes []*federation.Node
	sets  []*federation.PeerSet
	lane  *lane

	ops  chan struct{} // one token per meshTickOps completed ops; holds meshBacklog
	stop chan struct{}
	done chan struct{}

	ticks, measuredTicks int
	syncMs, aeMs         []float64
	stats0               federation.SyncStats
}

func (m *mesh) stats() federation.SyncStats {
	var s federation.SyncStats
	for _, n := range m.nodes {
		st := n.Stats()
		s.CellsSent += st.CellsSent
		s.BytesSent += st.BytesSent
		s.AntiEntropyRounds += st.AntiEntropyRounds
		s.DigestBytes += st.DigestBytes
		s.PullBytes += st.PullBytes
		s.CellsRepaired += st.CellsRepaired
		s.Errors += st.Errors
		if st.LastError != "" {
			s.LastError = st.LastError
		}
	}
	return s
}

// tick runs one fleet tick: SyncOnce on each node in turn, plus
// AntiEntropyOnce on each node every 4th tick.
func (m *mesh) tick() {
	m.ticks++
	record := m.b.measuring.Load()
	if record {
		if m.measuredTicks == 0 {
			m.stats0 = m.stats()
		}
		m.measuredTicks++
	}
	if m.lane != nil {
		m.lane.op = -int64(m.ticks)
	}
	for _, ps := range m.sets {
		o := m.lane.begin()
		t0 := time.Now()
		_, _ = ps.SyncOnce(bg) // failures are counted in the node's SyncStats
		dt := time.Since(t0)
		m.lane.end(o, "federation.sync")
		if record {
			m.syncMs = append(m.syncMs, float64(dt)/1e6)
		}
	}
	if m.ticks%4 == 0 {
		for _, ps := range m.sets {
			o := m.lane.begin()
			t0 := time.Now()
			_, _ = ps.AntiEntropyOnce(bg)
			dt := time.Since(t0)
			m.lane.end(o, "federation.antientropy")
			if record {
				m.aeMs = append(m.aeMs, float64(dt)/1e6)
			}
		}
	}
}

func (m *mesh) run() {
	defer close(m.done)
	for {
		select {
		case <-m.ops:
			m.tick()
		case <-m.stop:
			return
		}
	}
}

// runFedMesh: coord-replay's traffic (connection 0 to node 0, connection 1
// to node 1, node 2 serves no clients) while the fleet's sync loop runs.
func runFedMesh(b *bench) error {
	u := b.sys.u
	tr, err := b.recordTraffic()
	if err != nil {
		return err
	}
	m := &mesh{b: b, nodes: []*federation.Node{b.sys.node}, lane: b.lane(),
		ops:  make(chan struct{}, meshBacklog),
		stop: make(chan struct{}), done: make(chan struct{})}
	eps := []*endpoint{b.sys.ep}
	for id := 1; id < 3; id++ {
		n := u.newNode(id)
		ep, err := serve(nodeCoord(n, b.tr), b.tr)
		if err != nil {
			return err
		}
		b.cleanup = append(b.cleanup, ep.close)
		m.nodes, eps = append(m.nodes, n), append(eps, ep)
	}
	byAddr := map[string]*endpoint{}
	for _, e := range eps {
		byAddr[e.addr()] = e
	}
	for i, n := range m.nodes {
		var peers []string
		for j, e := range eps {
			if j != i {
				peers = append(peers, e.addr())
			}
		}
		cfg := federation.PeerSetConfig{SelfAddr: eps[i].addr(), Seed: serverSeed}
		if b.tr != nil {
			cfg.Dial = func(_ context.Context, addr string) (transport.Conn, error) {
				return byAddr[addr].dial(m.lane, false)
			}
		}
		ps := federation.NewPeerSetWith(n, peers, cfg)
		b.cleanup = append(b.cleanup, ps.Close)
		m.sets = append(m.sets, ps)
	}

	loops, conns, err := b.replayLoops(eps[:loadConns], tr)
	if err != nil {
		return err
	}
	var completed atomic.Int64
	b.onOp = func() {
		if completed.Add(1)%meshTickOps == 0 {
			m.ops <- struct{}{}
		}
	}
	go m.run()
	b.drive(loops)
	b.onOp = nil

	// Load has stopped: let the driver finish the tick it may still owe, then
	// tick until one ships nothing.
	for len(m.ops) > 0 {
		time.Sleep(time.Millisecond)
	}
	close(m.stop)
	<-m.done
	end := m.stats()
	quiesce := 0
	for sent := -1; sent != 0 && quiesce <= 20; quiesce++ {
		before := m.stats().CellsSent
		m.tick()
		sent = m.stats().CellsSent - before
	}
	if quiesce > 20 {
		b.rep.fail("mesh still shipping cells %d ticks after load stopped", quiesce)
	}
	if st := m.stats(); st.Errors != 0 {
		b.rep.fail("%d federation sync errors, last: %s", st.Errors, st.LastError)
	}
	if m.nodes[2].Server().PeerMerges() == 0 {
		b.rep.fail("node 2 serves no clients and merged no peer cells: the mesh did not propagate")
	}
	b.verifyViews(conns)

	if b.tr != nil {
		v := b.vals
		ticks := float64(m.measuredTicks)
		rounds := float64(end.AntiEntropyRounds - m.stats0.AntiEntropyRounds)
		sortedSync, sortedAE := sortedCopy(m.syncMs), sortedCopy(m.aeMs)
		v["federation.sync_ms_p50"] = percentile(sortedSync, 0.50)
		v["federation.sync_ms_p95"] = percentile(sortedSync, 0.95)
		v["federation.antientropy_ms_p50"] = percentile(sortedAE, 0.50)
		v["federation.cells_sent_per_tick"] = ratio(float64(end.CellsSent-m.stats0.CellsSent), ticks)
		v["federation.sync_kib_per_tick"] = ratio(float64(end.BytesSent-m.stats0.BytesSent)/1024, ticks)
		v["federation.digest_kib_per_round"] = ratio(float64(end.DigestBytes-m.stats0.DigestBytes)/1024, rounds)
		v["federation.pull_kib_per_round"] = ratio(float64(end.PullBytes-m.stats0.PullBytes)/1024, rounds)
		v["federation.repaired_cells_per_round"] = ratio(float64(end.CellsRepaired-m.stats0.CellsRepaired), rounds)
		v["federation.sync_errors"] = float64(m.stats().Errors)
		v["federation.quiesce_ticks"] = float64(quiesce)
	}
	return nil
}
