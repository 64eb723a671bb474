// Package msg is the DSUD protocol's vocabulary: the requests the
// coordinator H sends a local site, the replies it gets, and the values
// they carry — the query, a site's representative ⟨t, P(t), P_sky(t, D_i)⟩
// (§4) and the feedback tuple of the Server-Delivery phase (§5). The
// round engine (internal/round) fills and reads these messages directly,
// the sites (internal/site) answer them, and internal/transport carries
// them, encoding them in its wire.go. The package is a leaf: it depends
// on geom, uncertain and the standard library only, and make boundary
// keeps it so.
package msg

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

// Kind discriminates protocol requests.
type Kind int

// Protocol request kinds. One request type with optional payload fields
// keeps the encoding one presence mask while staying explicit about the
// protocol surface.
const (
	// KindInit asks a site to run its local skyline phase for the given
	// query and return its first representative, its Version and, unless
	// the coordinator already holds that version's, its Summary; a resumed
	// query's Init also carries the answer already known (Request.Tuples,
	// RemoveIDs).
	KindInit Kind = iota + 1
	// KindNext asks for the site's next representative tuple, after
	// pruning by the feedback it carries in Tuples, if any.
	KindNext
	// KindEvaluate ships a feedback tuple (§5: Server-Delivery phase); the
	// site prunes by the feedback carried in Tuples, answers with its eq. 9
	// factor and prunes its local skyline, and with Refill set it then
	// answers as KindNext would, in the same reply. One without a Feed and
	// without a session carries a batch of maintenance candidates in
	// Tuples instead, answered with one factor each in CrossProbs.
	KindEvaluate
	// KindShipAll asks for the site's entire partition (baseline
	// algorithm).
	KindShipAll
	// KindInsert applies one tuple insertion at the site (§5.4).
	KindInsert
	// KindDelete applies one tuple deletion at the site (§5.4); one that
	// names a Query also answers the promotion candidates KindCandidates
	// would, on the post-delete index.
	KindDelete
	// KindCandidates asks, after a deletion, for local tuples that were
	// dominated by the deleted tuple and now locally qualify (§5.4
	// incremental maintenance).
	KindCandidates
	// KindEndQuery releases the per-query session state created by
	// KindInit. Idempotent; best-effort (a lost end-query only costs
	// memory until the session cap evicts it).
	KindEndQuery
	// KindReplicate synchronises the site's replica of the global skyline
	// SKY(H) (§5.4: "we duplicate SKY(H) at all local sites"), as adds
	// plus removals. Sites use the replica to reject hopeless inserts
	// without a global evaluation round.
	KindReplicate
	// KindStatus asks the site for its operational snapshot (uptime,
	// partition and index shape, replica version, in-flight requests) —
	// the protocol-level health probe behind dsud-query -cluster-status.
	KindStatus

	kindEnd // new kinds go above this line, so MaxKind follows them
)

// MaxKind is the largest Kind. Per-kind instruments in internal/transport
// and internal/site are arrays indexed by Kind (index 0 unused; kinds
// start at 1) and sized by this one bound.
const MaxKind = int(kindEnd) - 1

func (k Kind) String() string {
	switch k {
	case KindInit:
		return "init"
	case KindNext:
		return "next"
	case KindEvaluate:
		return "evaluate"
	case KindShipAll:
		return "ship-all"
	case KindInsert:
		return "insert"
	case KindDelete:
		return "delete"
	case KindCandidates:
		return "candidates"
	case KindEndQuery:
		return "end-query"
	case KindReplicate:
		return "replicate"
	case KindStatus:
		return "status"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Query describes the skyline query being executed.
type Query struct {
	// Threshold is the paper's q: report tuples with global skyline
	// probability >= q.
	Threshold float64
	// Dims optionally restricts dominance to a subspace (nil = full
	// space), per the paper's §4 subspace extension.
	Dims []int
	// NoPrune disables the Observation-2 local pruning at the site — an
	// ablation control; production queries leave it false.
	NoPrune bool
}

// Validate rejects malformed queries before they cross the wire.
func (q Query) Validate(d int) error {
	if !(q.Threshold > 0 && q.Threshold <= 1) {
		return fmt.Errorf("msg: threshold %v outside (0,1]", q.Threshold)
	}
	if !geom.ValidDims(q.Dims, d) {
		return fmt.Errorf("msg: invalid subspace %v for dimensionality %d", q.Dims, d)
	}
	return nil
}

// Representative is the paper's quaternion ⟨i, j, P(t), P_sky(t, D_i)⟩: a
// site's currently most promising local skyline tuple.
type Representative struct {
	Tuple uncertain.Tuple
	// LocalProb is P_sky(Tuple, D_i), eq. 3 over the site's partition.
	LocalProb float64
}

// Feedback is a tuple broadcast from the coordinator during the
// Server-Delivery phase, carrying the home-site local skyline probability
// that remote sites need for the Observation-2 pruning bound.
type Feedback struct {
	Tuple uncertain.Tuple
	// HomeLocalProb is P_sky(Tuple, D_home).
	HomeLocalProb float64
}

// Request is the single protocol request envelope.
type Request struct {
	// Seq, when nonzero, makes the request idempotent: sites remember,
	// per Client, the last sequence number they processed and replay the
	// cached response when the same request arrives again (at-most-once
	// execution). The Retry client assigns both fields automatically;
	// callers running over reliable transports may leave them zero.
	Seq uint64
	// Client scopes Seq: independent coordinators draw distinct random
	// client IDs so their sequence spaces never collide at the site.
	Client uint64
	// Session scopes per-query state (the local skyline cursor and prune
	// list) so multiple queries can run concurrently against the same
	// site. KindInit creates the session, KindNext/KindEvaluate operate
	// within it, KindEndQuery releases it. Session 0 is the default
	// single-query session.
	Session uint64

	// Timed asks the site to stamp Response.ServiceNS. The coordinator
	// sets it on every request of a query that carries a Trace; untimed
	// requests read no clock at the site on its account.
	Timed bool

	Kind  Kind
	Query Query    // KindInit
	Feed  Feedback // KindEvaluate, KindCandidates (the deleted tuple)
	// Refill asks a KindEvaluate inside a session to pop the site's next
	// representative once the feedback has pruned: the refill of a
	// candidate e-DSUD expunged, riding the broadcast instead of a wait of
	// its own. The reply carries Rep/Exhausted beside the factor.
	Refill bool

	Tuple uncertain.Tuple   // KindInsert
	ID    uncertain.TupleID // KindDelete
	Point geom.Point        // KindDelete

	// Tuples carries replica additions for KindReplicate, the
	// candidates of a sessionless KindEvaluate batch, on a resumed query's
	// KindInit the known answer's members homed at other sites, and on a
	// session's KindNext or KindEvaluate the feedback the site was not
	// sent when it was broadcast (each at its home local probability, to
	// prune by, in broadcast order); RemoveIDs the replica evictions, or
	// that Init's known members homed at this site.
	Tuples    []Representative
	RemoveIDs []uncertain.TupleID

	// SummaryVersion is, on KindInit, the site Version whose Summary of
	// the query's subspace the coordinator holds (0: none). The site
	// leaves Response.Summary out when it is still at that version.
	SummaryVersion uint64
}

// HasFeed reports whether the request carries a feedback tuple: a
// session's evaluate does, a maintenance batch does not.
func (r *Request) HasFeed() bool { return len(r.Feed.Tuple.Point) > 0 }

// Response is the single protocol response envelope.
type Response struct {
	// Rep is the site's representative for KindInit/KindNext and a
	// Refill evaluate; Exhausted reports that the site's local skyline
	// set is empty.
	Rep       Representative
	Exhausted bool

	// CrossProb is the eq. 9 factor for KindEvaluate; Pruned counts local
	// skyline tuples discarded by the feedback, or by the known answer a
	// resumed KindInit carries.
	CrossProb float64
	Pruned    int
	// SessionPruned is the session's cumulative Observation-2 prune
	// count after this evaluation — the authoritative per-site figure
	// behind each delivered result's provenance (a retried request
	// replays its Pruned delta; the cumulative count cannot
	// double-count).
	SessionPruned int
	// CrossProbs answers a batched KindEvaluate: the eq. 9 factor of each
	// of Request.Tuples, aligned with them.
	CrossProbs []float64

	// Tuples carries the partition for KindShipAll and promotion
	// candidates for KindCandidates and a KindDelete that names a Query.
	Tuples []Representative

	// Hopeless reports (for KindInsert against a replica-holding site)
	// that the inserted tuple provably cannot reach the threshold
	// globally, so the coordinator can skip its evaluation broadcast.
	Hopeless bool

	// Status answers KindStatus.
	Status *SiteStatus

	// ServiceNS is the site's handling time for a Timed request, in
	// nanoseconds (at least 1); zero when the request was not timed.
	ServiceNS int64

	// Version names the state of the site's partition after KindInit,
	// KindInsert and KindDelete: a random per-process epoch plus one per
	// insert and delete, so a restarted site names values no coordinator
	// cached from the process before it (but by a 2⁻⁶⁴ chance).
	// Summary answers KindInit unless Request.SummaryVersion equals
	// Version.
	Version uint64
	Summary Summary
}

// SiteStatus is one site's operational snapshot, answered to KindStatus
// (a watching coordinator's /clusterz carries each site's latest one
// verbatim). The JSON field names are wire-stable: the JSON document is
// the protocol's encoding of the struct.
type SiteStatus struct {
	// ID is the site index the daemon was started with.
	ID int `json:"id"`
	// Tuples is the partition size; TreeHeight the PR-tree's height in
	// levels (1 = a single leaf root).
	Tuples     int `json:"tuples"`
	TreeHeight int `json:"tree_height"`
	// Sessions is the number of live query sessions.
	Sessions int `json:"sessions"`
	// InFlight is the number of requests currently being handled
	// (including queued behind the engine lock).
	InFlight int `json:"in_flight"`
	// ReplicaSize is the size of the SKY(H) replica (0 when replication
	// is off); ReplicaVersion counts replica deltas applied, so the
	// coordinator can spot a stale replica by comparing versions across
	// sites.
	ReplicaSize    int    `json:"replica_size"`
	ReplicaVersion uint64 `json:"replica_version"`
	// StartUnixNano is the engine's construction time; UptimeSeconds is
	// derived from it at snapshot time.
	StartUnixNano int64   `json:"start_unix_nano"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// LastUpdateUnixNano is the time of the last mutating operation
	// (insert, delete, replicate); 0 = never updated since start.
	LastUpdateUnixNano int64 `json:"last_update_unix_nano,omitempty"`
	// RequestsTotal counts requests executed since start (replays served
	// from the dedup cache included).
	RequestsTotal uint64 `json:"requests_total"`

	// Windowed request-latency percentiles in milliseconds, estimated by
	// bucket interpolation over the engine's rotating window (obs.Window);
	// WindowRate is the windowed request rate in requests/second and
	// WindowSeconds the window span the figures cover.
	LatencyP50Ms  float64 `json:"latency_p50_ms,omitempty"`
	LatencyP95Ms  float64 `json:"latency_p95_ms,omitempty"`
	LatencyP99Ms  float64 `json:"latency_p99_ms,omitempty"`
	WindowRate    float64 `json:"window_rate,omitempty"`
	WindowSeconds float64 `json:"window_seconds,omitempty"`

	// Worker-pool saturation: MuxWorkersBusy of MuxWorkerLimit
	// per-connection slots are in handlers across MuxConns live
	// connections, and MuxQueued read loops are parked waiting for a slot
	// — the backpressure signal in-flight counts alone cannot show.
	MuxConns       int `json:"mux_conns,omitempty"`
	MuxWorkersBusy int `json:"mux_workers_busy,omitempty"`
	MuxWorkerLimit int `json:"mux_worker_limit,omitempty"`
	MuxQueued      int `json:"mux_queued,omitempty"`

	// The window the percentiles above were estimated from, so a
	// coordinator can merge it with other sites' windows: the bucket upper
	// bounds in nanoseconds and the per-bucket (non-cumulative) counts,
	// the last count being the +Inf tail. Empty until the window sees
	// traffic.
	WindowBoundsNS []int64  `json:"window_bounds_ns,omitempty"`
	WindowCounts   []uint64 `json:"window_counts,omitempty"`
}
