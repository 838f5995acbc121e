package telemetry

// The process-wide instrument set, one block per tier, all pre-registered
// at init so record paths never registration-check. Slot orders of the
// vector instruments mirror the enums they mirror:
//
//   - FedMembers slots follow federation.PeerState (alive, suspect, dead,
//     left);
//   - RoutingBreakers slots follow routing.BreakerState (closed, open,
//     half-open);
//   - RoutingRejections slots are the Reject* constants below;
//   - CacheProbeHits/Misses slots are model cut sites (layer indices).
//
// telemetry sits below every tier (it imports only the standard library),
// so the wiring direction is core/cache/federation/routing/engine →
// telemetry, never back.
var (
	// --- core: session + global-table coordination ---

	CoreSessionsOpen   = NewGauge("coca_core_sessions_open", "client sessions currently open")
	CoreSessionOpens   = NewCounter("coca_core_session_opens_total", "client sessions opened")
	CoreSessionCloses  = NewCounter("coca_core_session_closes_total", "client sessions closed or expired")
	CoreAllocations    = NewCounter("coca_core_allocations_total", "ACA allocation rounds computed")
	CoreDeltaCells     = NewCounter("coca_core_delta_cells_total", "changed cells shipped in allocation deltas")
	CoreDeltaEvictions = NewCounter("coca_core_delta_evictions_total", "evictions shipped in allocation deltas")
	CoreUploadMerges   = NewCounter("coca_core_upload_merges_total", "client update cells merged into the global table")
	CorePeerMerges     = NewCounter("coca_core_peer_merges_total", "peer evidence cells merged into the global table")
	CoreRejectedVecs   = NewCounter("coca_core_rejected_vectors_total", "uploaded or peer vectors refused because their (merged) norm was not finite and positive")

	// --- cache: per-layer semantic probes ---

	CacheProbeHits   = NewCounterVec("coca_cache_probe_hits_total", "cache probe hits by model cut site", "site")
	CacheProbeMisses = NewCounterVec("coca_cache_probe_misses_total", "cache probe misses by model cut site", "site")

	// --- federation: peer delta sync + membership ---

	FedSyncs         = NewCounter("coca_federation_syncs_total", "completed peer sync rounds")
	FedSyncErrors    = NewCounter("coca_federation_sync_errors_total", "failed peer sync exchanges")
	FedCellsSent     = NewCounter("coca_federation_cells_sent_total", "evidence cells sent to peers")
	FedCellsRecv     = NewCounter("coca_federation_cells_recv_total", "evidence cells received and applied from peers")
	FedBytesSent     = NewCounter("coca_federation_sync_bytes_sent_total", "wire bytes of committed outbound peer deltas")
	FedBytesRecv     = NewCounter("coca_federation_sync_bytes_recv_total", "wire bytes of inbound peer deltas")
	FedGossipSends   = NewCounter("coca_federation_gossip_sends_total", "delta pushes sent by fanout-sampled gossip")
	FedSnapshotJoins = NewCounter("coca_federation_snapshot_joins_total", "bootstrap snapshots served to joining peers")
	FedMembers       = NewGaugeVec("coca_federation_members", "known peers by membership state", "state",
		"alive", "suspect", "dead", "left")
	FedExchangeBytes = NewHistogram("coca_federation_sync_exchange_bytes",
		"wire bytes per committed outbound peer delta exchange", BytesBuckets)

	// --- federation: pull anti-entropy + epidemic membership ---

	FedAntiEntropyRounds = NewCounter("coca_federation_antientropy_rounds_total",
		"completed pull anti-entropy rounds initiated by this node")
	FedDigestBytes = NewCounter("coca_federation_antientropy_digest_bytes_total",
		"anti-entropy digest negotiation traffic in wire bytes (request, digest and want frames)")
	FedPullBytes = NewCounter("coca_federation_antientropy_pull_bytes_total",
		"anti-entropy pull repair traffic in wire bytes (pull response frames)")
	FedRepairedCells = NewCounter("coca_federation_antientropy_repaired_cells_total",
		"cells healed by pull anti-entropy (adopted or incrementally merged)")
	FedTombstones = NewGauge("coca_federation_tombstones",
		"death certificates currently circulating in the gossip event ring")

	// --- routing: front-door admission + breakers ---

	RoutingAdmissions = NewCounter("coca_routing_admissions_total", "front-door admissions granted")
	RoutingRejections = NewCounterVec("coca_routing_rejections_total", "front-door rejections by cause", "cause",
		"rate-limited", "no-healthy-server", "shed")
	RoutingRedirects    = NewCounter("coca_routing_redirects_total", "placement redirects issued by the front door")
	RoutingMigrations   = NewCounter("coca_routing_migrations_total", "live session migrations ordered")
	RoutingBreakerTrips = NewCounter("coca_routing_breaker_trips_total", "circuit-breaker trips into the open state")
	RoutingBreakers     = NewGaugeVec("coca_routing_breakers", "circuit breakers by state", "state",
		"closed", "open", "half-open")

	// --- engine: fleet round driver ---

	EngineRoundSeconds = NewHistogram("coca_engine_round_duration_seconds",
		"wall-clock duration of one fleet round", LatencySecondsBuckets)

	// --- overload: graceful-degradation control plane ---

	OverloadDeadlineExpired = NewCounter("coca_overload_deadline_expired_total",
		"requests dropped because their propagated deadline had already passed")
	OverloadSheds = NewCounter("coca_overload_sheds_total",
		"sheddable requests rejected by queue-depth load shedding")
	OverloadServedStale = NewCounter("coca_overload_served_stale_total",
		"client rounds served from a stale allocation view under shield mode")
	OverloadStaleRounds = NewGauge("coca_overload_stale_rounds",
		"highest current consecutive-stale-round count across shielded clients")
	OverloadRetryDenials = NewCounter("coca_overload_retry_denials_total",
		"retries suppressed by an exhausted retry budget")
	OverloadDrains = NewCounterVec("coca_overload_drains_total",
		"graceful-shutdown drain outcomes", "outcome", "drained", "aborted")
)

// RoutingRejections slot indices.
const (
	RejectRateLimited = iota
	RejectNoHealthy
	RejectShed
)

// OverloadDrains slot indices.
const (
	DrainDrained = iota
	DrainAborted
)
