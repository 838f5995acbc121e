package core

import "fmt"

// RedirectError instructs a client to re-Open its coordination session
// against a different server. It is returned by routing front doors
// (from Open when placement lands elsewhere, or from a session call
// when the client is being migrated live) and carried over the wire as
// a protocol TypeRedirect frame. The client's allocation view survives
// the move: the new session's first Allocate deltas against an unknown
// version and therefore returns a Full allocation (version-0 resync).
type RedirectError struct {
	// Addr is the target to dial (wire deployments) — empty for
	// in-process routing where the router re-targets internally.
	Addr string
	// Reason is a short diagnostic ("placement", "breaker-open", ...).
	Reason string
}

// Error implements error.
func (e *RedirectError) Error() string {
	if e.Addr == "" {
		return fmt.Sprintf("core: session redirected (%s)", e.Reason)
	}
	return fmt.Sprintf("core: session redirected to %s (%s)", e.Addr, e.Reason)
}
