// Package routing is the control-plane tier in front of a CoCa edge
// fleet: it owns client→server placement and admission, sitting between
// "a client" and "a server" where the static federation assignment
// (federation.Assign) cannot react to load or failure.
//
// Placement combines a consistent-hash ring (Ring) with shuffle
// sharding (ShuffleShard): every client maps deterministically onto a
// small bounded subset of servers — its shard — and is placed on a ring
// walk inside that shard. A failing server therefore affects only the
// clients whose shards contain it (blast radius O(shard)), while
// clients sharing a shard and a hash neighborhood still co-locate.
//
// Admission is health-gated: every server has a circuit breaker
// (Breaker: closed/open/half-open over a failure-rate window) fed by
// backend outcomes and external health checks, and every client passes
// a token-bucket rate limit. A client whose current server's breaker is
// open is migrated live: its routed session re-Opens on another shard
// member and the versioned delta machinery resynchronizes the client's
// allocation view with a full (version-0) delta — no client-side state
// is lost.
package routing

import (
	"fmt"
	"time"

	"coca/internal/overload"
)

// Policy selects how clients are placed onto servers.
type Policy string

const (
	// PolicyStatic stripes clients over servers by id (client k → server
	// k mod N), the class-blind baseline matching the federation tier's
	// round-robin assignment.
	PolicyStatic Policy = "static"
	// PolicyHash places every client by consistent-hash ring walk within
	// its shuffle shard.
	PolicyHash Policy = "hash"
	// PolicyRandom places every client uniformly at random (seeded,
	// deterministic per client) within its shard — the experiment's
	// class- and hash-blind control arm.
	PolicyRandom Policy = "random"
)

// ParsePolicy validates a policy name ("" selects hash).
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "":
		return PolicyHash, nil
	case PolicyStatic, PolicyHash, PolicyRandom:
		return Policy(s), nil
	}
	return "", fmt.Errorf("routing: unknown policy %q (want static, hash or random)", s)
}

// Config parametrizes a Router or FrontDoor.
type Config struct {
	// Policy is the placement policy (default hash).
	Policy Policy
	// ShardSize bounds every client's shuffle shard — the subset of
	// servers it may ever be placed on. 0 defaults to min(3, servers);
	// values are clamped to the server count. Smaller shards shrink the
	// blast radius of a bad server, larger shards give failover more
	// freedom.
	ShardSize int
	// VNodes is the number of ring points per server (default 32).
	VNodes int
	// Seed roots the ring and shard hashing (default 1). The same seed
	// reproduces identical placement.
	Seed uint64
	// Breaker configures the per-server circuit breakers.
	Breaker BreakerConfig
	// Rate configures per-client token-bucket admission (zero disables).
	Rate RateConfig
	// Shed configures queue-depth load shedding: sheddable admissions
	// are rejected per server once its queue-wait EWMA stays above
	// Shed.Target for Shed.Interval (CoDel's standing-queue criterion)
	// or its in-flight depth exceeds Shed.MaxDepth. Load is read from
	// targets implementing overload.LoadReporter; targets that do not
	// report load are never shed. The zero value disables shedding.
	Shed overload.ShedConfig
	// Now is the clock (test hook; defaults to time.Now). Breakers and
	// rate limiters share it.
	Now func() time.Time
}

// withDefaults resolves the configuration against a server count.
func (c Config) withDefaults(servers int) Config {
	if c.Policy == "" {
		c.Policy = PolicyHash
	}
	if c.ShardSize == 0 {
		c.ShardSize = 3
	}
	if c.ShardSize > servers {
		c.ShardSize = servers
	}
	if c.VNodes == 0 {
		c.VNodes = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Breaker.Now == nil {
		c.Breaker.Now = c.Now
	}
	c.Breaker = c.Breaker.withDefaults()
	c.Rate = c.Rate.withDefaults()
	c.Shed = c.Shed.WithDefaults()
	return c
}

// Stats counts the router's control-plane decisions.
type Stats struct {
	// Opens is the number of admitted session opens.
	Opens int
	// Migrations counts live session migrations (breaker-driven moves
	// and failovers after a backend error).
	Migrations int
	// RateLimited counts opens rejected by the token bucket.
	RateLimited int
	// BreakerDenials counts placement attempts that skipped a server
	// because its breaker was not accepting traffic.
	BreakerDenials int
	// Shed counts sheddable admissions rejected by queue-depth load
	// shedding.
	Shed int
}
