package routing

import (
	"errors"
	"time"
)

// ErrRateLimited is returned by admission when a client exceeds its
// token bucket.
var ErrRateLimited = errors.New("routing: client rate limited")

// RateConfig parametrizes per-client token-bucket admission. The zero
// value disables rate limiting.
type RateConfig struct {
	// PerSec is the sustained request rate per client (tokens/second).
	PerSec float64
	// Burst is the bucket capacity (defaults to max(1, PerSec) when
	// PerSec is set).
	Burst float64
}

func (c RateConfig) enabled() bool { return c.PerSec > 0 }

func (c RateConfig) withDefaults() RateConfig {
	if c.enabled() && c.Burst == 0 {
		c.Burst = c.PerSec
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	return c
}

// bucket is a lazily-refilled token bucket. Not safe for concurrent use
// on its own; callers hold the owning router's lock.
type bucket struct {
	tokens float64
	last   time.Time
}

// take refills by elapsed time and spends one token, reporting whether
// one was available.
func (b *bucket) take(cfg RateConfig, now time.Time) bool {
	if !cfg.enabled() {
		return true
	}
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * cfg.PerSec
	} else {
		b.tokens = cfg.Burst
	}
	b.last = now
	if b.tokens > cfg.Burst {
		b.tokens = cfg.Burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// refilled reports whether the bucket holds (or would hold, once refilled
// to now) its full burst — the state a fresh bucket starts from.
func (b *bucket) refilled(cfg RateConfig, now time.Time) bool {
	return !cfg.enabled() || b.last.IsZero() ||
		b.tokens+now.Sub(b.last).Seconds()*cfg.PerSec >= cfg.Burst
}
