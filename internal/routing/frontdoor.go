package routing

import (
	"context"

	"coca/internal/core"
	"coca/internal/telemetry"
)

// FrontDoor is the wire-facing control plane: a router over backend
// *addresses* rather than in-process coordinators. It implements
// core.Coordinator so protocol.ServeConn can serve it directly, but it
// never proxies traffic — every Open answers with a
// *core.RedirectError naming the placed backend's address (carried to
// wire clients as a TypeRedirect frame), and the client dials the
// backend itself. Placement, breakers and rate limiting are exactly
// the Router's; health is fed by HealthCheck probes since no backend
// traffic flows through the front door.
//
// Profiles never reach a front door (clients talk to their backend
// directly after the redirect), so the semantic policy degrades to
// hash placement here; semantic steering needs the in-process Router.
type FrontDoor struct {
	r     *Router
	addrs []string
}

// frontDoorMaxClients bounds a front door's client table. A front door
// redirects and never sees the session close, and its client ids come off
// untrusted sockets, so without a bound it keeps one record per id ever
// seen. A record only matters while its rate-limit bucket is refilling, so
// the bound needs to cover the ids admitted within one refill period; at
// ≈ 0.5 KiB a record (shard, bucket, map slot) it caps the table near 2 MiB.
const frontDoorMaxClients = 4096

// NewFrontDoor builds a front door over the backend addresses.
func NewFrontDoor(addrs []string, cfg Config) *FrontDoor {
	// The routers' targets are never dereferenced — admission only.
	f := &FrontDoor{r: NewRouter(make([]core.Coordinator, len(addrs)), cfg), addrs: addrs}
	f.r.maxClients = frontDoorMaxClients
	for s, addr := range addrs {
		f.r.Breaker(s).SetName(addr)
	}
	return f
}

// Stats returns the control-plane counters.
func (f *FrontDoor) Stats() Stats { return f.r.Stats() }

// TripBreaker force-opens backend s's breaker.
func (f *FrontDoor) TripBreaker(s int) { f.r.TripBreaker(s) }

// BreakerState reports backend s's breaker state.
func (f *FrontDoor) BreakerState(s int) BreakerState { return f.r.Breaker(s).State() }

// BreakerTrips returns backend s's cumulative breaker trip count (for
// the router's stats endpoint).
func (f *FrontDoor) BreakerTrips(s int) int { return f.r.Breaker(s).Trips() }

// Open implements core.Coordinator by always redirecting: the client
// is admitted (rate limit + breakers), placed, and handed the backend
// address to dial.
func (f *FrontDoor) Open(_ context.Context, clientID int) (core.Session, error) {
	s, err := f.r.Admit(clientID)
	if err != nil {
		return nil, err
	}
	f.r.mu.Lock()
	f.r.stats.Opens++
	f.r.mu.Unlock()
	telemetry.RoutingRedirects.Inc()
	return nil, &core.RedirectError{Addr: f.addrs[s], Reason: "placement"}
}

// HealthCheck runs one probe pass: each backend whose breaker admits
// traffic is probed and the outcome recorded, so repeated failures
// open the breaker (routing new clients away) and recovered backends
// close it again via the half-open probe path. The caller owns the
// loop and the probe transport (typically a dial-and-close).
func (f *FrontDoor) HealthCheck(probe func(addr string) error) {
	for s, addr := range f.addrs {
		br := f.r.Breaker(s)
		if !br.Allow() {
			continue
		}
		br.Record(probe(addr) == nil)
	}
}
