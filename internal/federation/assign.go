package federation

import "fmt"

// AssignPolicy names a client→server assignment rule.
type AssignPolicy string

const (
	// AssignBlock gives each server a contiguous block of client ids.
	// Combined with a non-IID Dirichlet stream partition this is the
	// interesting federation regime: each server aggregates a small,
	// skewed subset of the fleet's class distributions, so servers see
	// different hot-spot sets and cross-server sync has something to
	// share.
	AssignBlock AssignPolicy = "block"
	// AssignRoundRobin deals client ids out modulo the server count —
	// a load-balancer-style spread that mixes the skew across servers.
	AssignRoundRobin AssignPolicy = "round-robin"
)

// Assign maps numClients client ids onto numServers servers under the
// policy, returning each server's ascending client-id list. Every server
// receives at least ⌊clients/servers⌋ clients; block assignment gives the
// first clients%servers servers one extra.
func Assign(numClients, numServers int, policy AssignPolicy) ([][]int, error) {
	if numServers < 1 {
		return nil, fmt.Errorf("federation: assign over %d servers", numServers)
	}
	if numClients < numServers {
		return nil, fmt.Errorf("federation: %d clients cannot cover %d servers", numClients, numServers)
	}
	out := make([][]int, numServers)
	switch policy {
	case "", AssignBlock:
		base, extra := numClients/numServers, numClients%numServers
		id := 0
		for s := 0; s < numServers; s++ {
			n := base
			if s < extra {
				n++
			}
			for i := 0; i < n; i++ {
				out[s] = append(out[s], id)
				id++
			}
		}
	case AssignRoundRobin:
		for id := 0; id < numClients; id++ {
			s := id % numServers
			out[s] = append(out[s], id)
		}
	default:
		return nil, fmt.Errorf("federation: unknown assignment policy %q", policy)
	}
	return out, nil
}
