// Network serving: the one client/server loop over TCP, which
// cmd/coca-server, cmd/coca-client and the examples run on. Serve starts
// a session-serving CoCa edge server; Dial connects a client to it. Both
// speak wire protocol v4 (delta allocations with deadline propagation)
// and refuse any other version, and — with Options.Federation set — the
// server federates with peer edge servers by gossiping global-cache cell
// deltas.
package coca

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"coca/internal/core"
	"coca/internal/federation"
	"coca/internal/metrics"
	"coca/internal/overload"
	"coca/internal/protocol"
	"coca/internal/semantics"
	"coca/internal/stream"
	"coca/internal/telemetry"
	"coca/internal/transport"
	"coca/internal/xrand"
)

// Server is a running network CoCa deployment: the edge server plus its
// TCP listener, connection handlers and (when Options.Federation is set)
// its federation sync loop.
type Server struct {
	core  *core.Server
	node  *federation.Node
	lis   *transport.Listener
	peers *federation.PeerSet

	cancelConns context.CancelFunc
	cancelPeers context.CancelFunc
	wg          sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// Serve builds the simulation universe behind opts, starts a CoCa edge
// server and serves coordination sessions over TCP at addr (":0" picks an
// ephemeral port; see Addr). Canceling ctx starts a shutdown equivalent
// to Shutdown with no drain window. Serve returns once the listener is
// accepting.
func Serve(ctx context.Context, addr string, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	space, _, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	fed := opts.Federation
	srv := core.NewServer(space, core.ServerConfig{Theta: opts.theta(space.Arch), Seed: opts.Seed})
	ncfg := federation.NodeConfig{}
	if fed != nil {
		ncfg = federation.NodeConfig{
			ID:    fed.NodeID,
			Relay: fed.Relay,
			Membership: federation.MembershipConfig{
				SuspectAfter: fed.SuspectAfter,
				DeadAfter:    fed.DeadAfter,
			},
		}
	}
	node := federation.NewNode(srv, ncfg)
	lis, err := transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	connCtx, cancelConns := context.WithCancel(context.Background())
	s := &Server{core: srv, node: node, lis: lis, cancelConns: cancelConns}

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return // listener closed
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				_ = protocol.ServeConn(connCtx, conn, node)
				_ = conn.Close()
			}()
		}
	}()
	if fed != nil && (len(fed.Peers) > 0 || fed.Join) {
		// The sync loop stops as soon as shutdown begins (its own context,
		// canceled before the connection drain), so draining sessions
		// never wait on a peer cadence.
		peerCtx, cancelPeers := context.WithCancel(context.Background())
		s.cancelPeers = cancelPeers
		s.peers = federation.NewPeerSetWith(node, fed.Peers, federation.PeerSetConfig{
			Join:        fed.Join,
			SelfAddr:    lis.Addr(),
			Fanout:      fed.Gossip,
			Seed:        opts.Seed,
			AntiEntropy: fed.AntiEntropyInterval,
		})
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.peers.Run(peerCtx, fed.SyncInterval, nil)
		}()
	}
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				// No drain window: Shutdown gets a context that is already
				// done, so it closes every session still open at once.
				now, cancel := context.WithCancel(context.Background())
				cancel()
				_ = s.Shutdown(now)
			case <-connCtx.Done():
			}
		}()
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.lis.Addr() }

// Stats reports the underlying server's allocation/merge counters and
// open session count.
func (s *Server) Stats() (allocs, merges, sessions int) {
	allocs, merges = s.core.Stats()
	return allocs, merges, s.core.Sessions()
}

// PeerMerges reports how many global-cache cells were merged from
// federated peer servers.
func (s *Server) PeerMerges() int { return s.core.PeerMerges() }

// SyncStats reports the federation sync counters (zero when the server
// has no peers and no peer has dialed it), including the per-peer
// breakdown in SyncStats.Peers.
func (s *Server) SyncStats() federation.SyncStats { return s.node.Stats() }

// PeerStats reports the per-peer membership breakdown alone: each known
// peer's health state, last sync epoch, resend count and split traffic.
func (s *Server) PeerStats() []federation.PeerStats { return s.node.Members().Stats() }

// Shutdown stops accepting connections, waits for in-flight sessions to
// drain until ctx is done, then force-closes the remainder. It is safe
// to call more than once.
//
// Bounded drain: a deadline on ctx bounds the drain window, so shutdown
// can never hang on a stuck session. Outcomes are counted per session in
// coca_overload_drains_total: the sessions open when Shutdown begins
// count as drained when they close inside the window, and the
// force-closed remainder as aborted.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	atShutdown := s.core.Sessions()
	if s.peers != nil {
		// Announce the departure while the links are still up: surviving
		// peers mark this node left immediately instead of waiting out
		// the suspect timeout.
		s.peers.AnnounceLeave()
	}
	if s.cancelPeers != nil {
		s.cancelPeers()
	}
	_ = s.lis.Close()
	drained := make(chan struct{})
	go func() { s.wg.Wait(); close(drained) }()
	select {
	case <-drained:
		telemetry.OverloadDrains.Add(telemetry.DrainDrained, uint64(atShutdown))
	case <-ctx.Done():
		aborted := s.core.Sessions()
		telemetry.OverloadDrains.Add(telemetry.DrainAborted, uint64(aborted))
		if n := atShutdown - aborted; n > 0 {
			telemetry.OverloadDrains.Add(telemetry.DrainDrained, uint64(n))
		}
		s.cancelConns()
		<-drained
	}
	s.cancelConns()
	return nil
}

// Client is a network CoCa client: a coordination session to a served
// endpoint plus the client's slice of the fleet workload.
type Client struct {
	opts   Options
	id     int
	space  *semantics.Space
	conn   *protocol.SessionClient
	client *core.Client
	gen    *stream.Generator

	// budget meters reconnect retries across the client's whole life:
	// the first dial, every migration and every redirect hop draw from
	// the same leaky bucket (nil when Options.RetryBudgetRatio < 0).
	budget *overload.RetryBudget

	// addr is the server currently holding the session (moves on
	// redirects); migrations counts the redirects followed.
	addr       string
	migrations int
}

// maxRedirectHops bounds how many redirects a single open or migration
// follows before giving up (guards against routing loops).
const maxRedirectHops = 4

// dialSeed derives a client's dial-jitter stream: distinct per (Seed,
// client id), so fleet members sharing a brown-out spread their retries
// instead of thundering back in lockstep, yet every schedule replays
// bit-for-bit under the same options.
func dialSeed(opts Options, clientID int) uint64 {
	return xrand.HashSeed(opts.Seed, 0x6a697474, uint64(clientID)) // "jitt"
}

// dialBackoff is the wait before retry number attempt (0-based): the
// doubling DialBackoff schedule, equal-jittered into [d/2, d] by the
// client's seeded stream.
func dialBackoff(opts Options, clientID, attempt int) time.Duration {
	return overload.Backoff(opts.DialBackoff, attempt, dialSeed(opts, clientID))
}

// retryBudget builds the per-client leaky-bucket retry budget behind
// opts (nil — always allowing — when disabled).
func retryBudget(opts Options) *overload.RetryBudget {
	if opts.RetryBudgetRatio < 0 {
		return nil
	}
	return overload.NewRetryBudget(overload.RetryBudgetConfig{
		Ratio: opts.RetryBudgetRatio,
		Burst: float64(opts.DialRetries),
	})
}

// dialRetry dials addr with the options' retry schedule: DialRetries
// extra attempts after a failure, each retry drawing one token from the
// client's retry budget and waiting out the seeded-jitter backoff
// schedule. ctx cancellation cuts both the dial and the wait; an
// exhausted budget fails fast — in sustained overload, retrying is
// exactly what turns a brown-out into congestion collapse.
func dialRetry(ctx context.Context, addr string, clientID int, opts Options, budget *overload.RetryBudget) (transport.Conn, error) {
	budget.Note()
	var err error
	for attempt := 0; ; attempt++ {
		var conn transport.Conn
		conn, err = transport.DialContext(ctx, addr)
		if err == nil {
			return conn, nil
		}
		if attempt >= opts.DialRetries || ctx.Err() != nil {
			break
		}
		if !budget.Allow() {
			telemetry.OverloadRetryDenials.Inc()
			return nil, fmt.Errorf("coca: dial %s: retry budget exhausted after attempt %d: %w", addr, attempt+1, err)
		}
		select {
		case <-time.After(dialBackoff(opts, clientID, attempt)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("coca: dial %s (after %d attempts): %w", addr, opts.DialRetries+1, err)
}

// Dial connects to a CoCa server at addr and registers client clientID of
// the opts.NumClients-wide fleet. The model/dataset options must match
// the server's; the workload options carve this client's partition — the
// same opts on every fleet member yield disjoint, consistent streams.
//
// Failed dials retry per opts.DialRetries/DialBackoff, and a redirect
// answer — a routing front door assigning this client its edge server —
// is followed transparently (bounded hops), so the returned client's
// session lives on the assigned server.
func Dial(ctx context.Context, addr string, clientID int, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	if clientID < 0 || clientID >= opts.NumClients {
		return nil, fmt.Errorf("coca: client id %d outside fleet of %d", clientID, opts.NumClients)
	}
	space, scfg, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	part, err := stream.NewPartition(scfg)
	if err != nil {
		return nil, err
	}
	ccfg := core.ClientConfig{
		ID:             clientID,
		Theta:          opts.theta(space.Arch),
		Budget:         opts.Budget,
		RoundFrames:    opts.RoundFrames,
		GammaCollect:   opts.GammaCollect,
		DeltaCollect:   opts.DeltaCollect,
		EnvBiasWeight:  opts.ClientBias,
		DriftWeight:    opts.DriftWeight,
		DriftPerRound:  opts.DriftPerRound,
		RequestTimeout: opts.RequestTimeout,
		MaxStaleRounds: opts.MaxStaleRounds,
	}
	budget := retryBudget(opts)
	for hop := 0; ; hop++ {
		conn, err := dialRetry(ctx, addr, clientID, opts, budget)
		if err != nil {
			return nil, err
		}
		coord := protocol.NewSessionClient(conn, space.DS.NumClasses, space.Arch.NumLayers)
		cl, err := core.NewClient(ctx, space, coord, ccfg)
		if err == nil {
			return &Client{opts: opts, id: clientID, space: space, conn: coord, client: cl, gen: part.Client(clientID), budget: budget, addr: addr}, nil
		}
		_ = coord.Close()
		var re *core.RedirectError
		if !errors.As(err, &re) {
			return nil, err
		}
		if hop >= maxRedirectHops {
			return nil, fmt.Errorf("coca: client %d: redirect chain exceeds %d hops (last to %s): %w", clientID, maxRedirectHops, re.Addr, err)
		}
		addr = re.Addr
	}
}

// migrate follows a mid-stream redirect: it dials the target (with the
// dial retry schedule), re-opens the session there — the fresh session's
// version-0 state makes the server answer the next allocation with a
// full table, so the client recovers its exact allocation — and retires
// the old connection. Chained redirects are followed up to
// maxRedirectHops.
func (c *Client) migrate(ctx context.Context, addr string) error {
	for hop := 0; ; hop++ {
		conn, err := dialRetry(ctx, addr, c.id, c.opts, c.budget)
		if err != nil {
			return err
		}
		coord := protocol.NewSessionClient(conn, c.space.DS.NumClasses, c.space.Arch.NumLayers)
		err = c.client.Reconnect(coord)
		if err == nil {
			_ = c.conn.Close()
			c.conn = coord
			c.addr = addr
			c.migrations++
			return nil
		}
		_ = coord.Close()
		var re *core.RedirectError
		if !errors.As(err, &re) {
			return err
		}
		if hop >= maxRedirectHops {
			return fmt.Errorf("coca: client %d: redirect chain exceeds %d hops (last to %s): %w", c.id, maxRedirectHops, re.Addr, err)
		}
		addr = re.Addr
	}
}

// followRedirect migrates and retries op once when err carries a
// redirect; otherwise it returns err unchanged.
func (c *Client) followRedirect(ctx context.Context, err error, op func() error) error {
	var re *core.RedirectError
	if !errors.As(err, &re) {
		return err
	}
	if merr := c.migrate(ctx, re.Addr); merr != nil {
		return fmt.Errorf("coca: client %d migrate (%s): %w", c.id, re.Reason, merr)
	}
	return op()
}

// Run drives the client for the given number of rounds (opts.Rounds when
// 0) and reports its metrics. ctx is checked at round boundaries.
// Redirects from the server — a routing tier migrating this session to
// another edge server — are followed live: the client re-opens on the
// target and resumes, recovering its allocation through the delta
// protocol's full-table resync.
func (c *Client) Run(ctx context.Context, rounds int) (Report, error) {
	if rounds <= 0 {
		rounds = c.opts.Rounds
	}
	var acc metrics.Accumulator
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return Report{}, err
		}
		if err := c.client.BeginRound(); err != nil {
			err = c.followRedirect(ctx, err, c.client.BeginRound)
			if err != nil {
				return Report{}, fmt.Errorf("coca: round %d begin: %w", round, err)
			}
		}
		for f := 0; f < c.opts.RoundFrames; f++ {
			smp := c.gen.Next()
			res := c.client.Infer(smp)
			if round >= c.opts.WarmupRounds {
				acc.Record(metrics.Obs{
					LatencyMs: res.LatencyMs, LookupMs: res.LookupMs,
					Correct: res.Pred == smp.Class, Hit: res.Hit, HitLayer: res.HitLayer,
				})
			}
		}
		if err := c.client.EndRound(); err != nil {
			err = c.followRedirect(ctx, err, c.client.EndRound)
			if err != nil {
				return Report{}, fmt.Errorf("coca: round %d end: %w", round, err)
			}
		}
	}
	sum := acc.Summary()
	rep := Report{
		Frames:            sum.Frames,
		AvgLatencyMs:      sum.AvgLatencyMs,
		P95LatencyMs:      sum.P95LatencyMs,
		EdgeOnlyLatencyMs: c.space.Arch.TotalLatencyMs(),
		Accuracy:          sum.Accuracy,
		HitRatio:          sum.HitRatio,
		HitAccuracy:       sum.HitAccuracy,
		PerClient: []ClientReport{{
			ID: c.id, AvgLatencyMs: sum.AvgLatencyMs, Accuracy: sum.Accuracy, HitRatio: sum.HitRatio,
		}},
	}
	return rep, nil
}

// ViewVersion returns the version of the allocation the client holds
// (grows by one per round; diagnostic for the delta protocol).
func (c *Client) ViewVersion() uint64 { return c.client.View().Version() }

// Addr returns the address of the server currently holding the session
// (the dialed address until a redirect moves it).
func (c *Client) Addr() string { return c.addr }

// Migrations counts the redirects this client has followed mid-stream.
func (c *Client) Migrations() int { return c.migrations }

// Close ends the coordination session and the connection. A second Close
// returns nil.
func (c *Client) Close() error {
	_ = c.client.Close()
	return c.conn.Close()
}

// ServeAndDial is a convenience for tests and examples: it serves on a
// loopback ephemeral port and dials the full fleet, returning the server
// and connected clients. The caller owns shutdown/closing.
func ServeAndDial(ctx context.Context, opts Options) (*Server, []*Client, error) {
	srv, err := Serve(ctx, "127.0.0.1:0", opts)
	if err != nil {
		return nil, nil, err
	}
	opts = opts.withDefaults()
	clients := make([]*Client, 0, opts.NumClients)
	for id := 0; id < opts.NumClients; id++ {
		cl, err := Dial(ctx, srv.Addr(), id, opts)
		if err != nil {
			for _, c := range clients {
				_ = c.Close()
			}
			sctx, cancel := context.WithTimeout(context.Background(), time.Second)
			_ = srv.Shutdown(sctx)
			cancel()
			return nil, nil, err
		}
		clients = append(clients, cl)
	}
	return srv, clients, nil
}
