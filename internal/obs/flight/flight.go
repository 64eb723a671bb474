// Package flight is the always-on flight recorder: a fixed-size ring
// buffer of per-query Records kept by the coordinator (and, per session,
// by the sites), cheap enough to leave enabled in production. A
// coordinator Record is the one per-query record: identity, outcome,
// protocol tallies, bandwidth, per-phase and per-site cost, the delivery
// curve and the path of the query's transcript, all keyed by query_id.
// When a query misbehaves — it crossed the slow-query threshold, the
// online auditor flagged an invariant violation, the daemon is shutting
// down — the recent history is already in memory and can be dumped as
// JSON, either on demand (the /debug/flightz endpoint) or automatically
// into a dump directory.
//
// Design rules, mirroring internal/obs:
//
//   - Nil-safe. Every method of a nil *Recorder is a no-op, so
//     instrumented code never guards call sites.
//   - Lock-cheap, allocation-free recording. Record claims a slot with
//     one atomic add and copies the caller's Record under that slot's
//     mutex; the Record struct is fixed-size fields (bounded per-site and
//     per-phase arrays) plus strings and a curve pointer the caller
//     already built, so the hot path allocates nothing (pinned by
//     TestRecordZeroAlloc). Dumps copy slots out under the same per-slot
//     mutexes and do their allocation outside them.
//   - No dependencies beyond the standard library and
//     internal/obs/progress.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/progress"
)

// MaxSites bounds the per-site cost breakdown carried by one Record.
// Clusters larger than this keep exact totals; the per-site tail beyond
// MaxSites-1 is folded into the last slot and SitesTruncated is set.
const MaxSites = 16

// MaxPhases bounds the per-phase span summary (the DSUD protocol has 4
// phases; the headroom keeps the wire shape stable if one is added).
const MaxPhases = 6

// DefaultSize is the ring capacity daemons use unless configured.
const DefaultSize = 256

// Outcome classifies how a query ended.
type Outcome string

// Outcomes.
const (
	// OutcomeOK: the query completed normally.
	OutcomeOK Outcome = "ok"
	// OutcomeError: the query failed (Err carries the message).
	OutcomeError Outcome = "error"
	// OutcomeCanceled: the query's context was canceled.
	OutcomeCanceled Outcome = "canceled"
)

// SiteCost is one site's slice of a query's cost.
type SiteCost struct {
	// Shipped counts representatives the site sent up (Init + refills;
	// for the baseline, its whole partition).
	Shipped int64 `json:"shipped"`
	// Pruned counts local skyline tuples the site discarded under
	// Observation-2 feedback pruning.
	Pruned int64 `json:"pruned"`
	// WaitNS and ServiceNS split a traced query's calls to the site: the
	// time the site spent handling them, and the rest of what the
	// coordinator waited (network, queueing, simulated latency). Zero
	// when the query ran untraced.
	WaitNS    int64 `json:"wait_ns,omitempty"`
	ServiceNS int64 `json:"service_ns,omitempty"`
}

// PhaseSummary is one protocol phase's span tally for a query.
type PhaseSummary struct {
	Name  string `json:"name,omitempty"`
	Spans int64  `json:"spans,omitempty"`
	NS    int64  `json:"ns,omitempty"`
}

// Record is one completed query (coordinator) or query session (site).
// Recording copies it without allocating: string fields are expected to
// reference constants or pre-built values, and Curve points at a digest
// that is never written again.
type Record struct {
	// QueryID is the query's ID, the query_id of its log records: its
	// session ID, or for a served read (which opens no session, so
	// Session is 0) one drawn from the same sequence. Session is the
	// per-site session ID.
	QueryID uint64 `json:"query_id,omitempty"`
	Session uint64 `json:"session,omitempty"`
	// Algorithm is the algorithm's wire name ("e-dsud", ...). Empty for
	// site-side session records (sites don't know the algorithm).
	Algorithm string `json:"algorithm,omitempty"`
	// Threshold is the paper's q.
	Threshold float64 `json:"threshold"`
	// TopK / MaxResults echo the query's early-termination options.
	TopK       int `json:"top_k,omitempty"`
	MaxResults int `json:"max_results,omitempty"`

	// Start is the query's start UnixNano; ElapsedNS its duration.
	Start     int64 `json:"start_unix_nano"`
	ElapsedNS int64 `json:"elapsed_ns"`
	// Slow marks queries that crossed the recorder owner's slow-query
	// threshold (these trigger an auto-dump when a dump dir is set).
	Slow bool `json:"slow,omitempty"`

	Outcome Outcome `json:"outcome"`
	// Err is the failure message for OutcomeError/OutcomeCanceled.
	Err string `json:"err,omitempty"`

	// Results is the number of skyline tuples delivered.
	Results int `json:"results"`
	// Protocol tallies (coordinator records; zero for site records).
	Iterations  int `json:"iterations,omitempty"`
	Broadcasts  int `json:"broadcasts,omitempty"`
	Expunged    int `json:"expunged,omitempty"`
	Refills     int `json:"refills,omitempty"`
	PrunedLocal int `json:"pruned_local,omitempty"`

	// Bandwidth totals for the query (transport meter delta).
	TuplesUp   int64 `json:"tuples_up,omitempty"`
	TuplesDown int64 `json:"tuples_down,omitempty"`
	Messages   int64 `json:"messages,omitempty"`
	Bytes      int64 `json:"bytes,omitempty"`

	// Phases holds the per-phase span summary (first NumPhases entries).
	Phases    [MaxPhases]PhaseSummary `json:"phases"`
	NumPhases int                     `json:"num_phases,omitempty"`

	// PerSite breaks shipped/pruned down by site index; Sites is the
	// cluster size. Beyond MaxSites the tail folds into the last slot.
	PerSite        [MaxSites]SiteCost `json:"per_site"`
	Sites          int                `json:"sites,omitempty"`
	SitesTruncated bool               `json:"sites_truncated,omitempty"`

	// Curve is the query's delivery curve, shared with its Report (nil
	// for failed queries and site records).
	Curve *progress.Digest `json:"curve,omitempty"`
	// Transcript is the path of the query's recorded transcript (empty
	// when it was not recorded); TranscriptErr says why a recording
	// could not be written.
	Transcript    string `json:"transcript,omitempty"`
	TranscriptErr string `json:"transcript_err,omitempty"`
}

// AddSiteCost accumulates a site's shipped/pruned delta into the bounded
// per-site array, folding overflow sites into the last slot.
func (r *Record) AddSiteCost(site int, shipped, pruned int64) {
	if c := r.siteCost(site); c != nil {
		c.Shipped += shipped
		c.Pruned += pruned
	}
}

// AddSiteTime accumulates a site's wait/service split the same way.
func (r *Record) AddSiteTime(site int, waitNS, serviceNS int64) {
	if c := r.siteCost(site); c != nil {
		c.WaitNS += waitNS
		c.ServiceNS += serviceNS
	}
}

// siteCost returns the slot site accumulates into (nil for a negative
// site).
func (r *Record) siteCost(site int) *SiteCost {
	if site < 0 {
		return nil
	}
	if site >= MaxSites {
		site = MaxSites - 1
		r.SitesTruncated = true
	}
	return &r.PerSite[site]
}

// slot is one ring entry: a sequence-stamped Record behind its own lock
// so writers contend only when they collide on the same slot.
type slot struct {
	mu  sync.Mutex
	seq uint64 // 1-based claim number; 0 = never written
	rec Record
}

// Recorder is the fixed-size ring. Construct with New; a nil *Recorder
// is a fully usable disabled recorder.
type Recorder struct {
	slots []slot
	next  atomic.Uint64 // total records ever claimed

	// dumpDir, when non-empty, enables Dump (and the automatic dump that
	// Record triggers for slow queries). Guarded by dumpMu; dumping
	// serialises dumps so a burst of slow queries produces one file each
	// without interleaving.
	dumpMu  sync.Mutex
	dumpDir string
	dumpSeq atomic.Uint64
}

// New returns a recorder holding the most recent size records (size < 1
// selects DefaultSize).
func New(size int) *Recorder {
	if size < 1 {
		size = DefaultSize
	}
	return &Recorder{slots: make([]slot, size)}
}

// Size returns the ring capacity (0 for nil).
func (r *Recorder) Size() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Total returns how many records have ever been recorded (0 for nil);
// min(Total, Size) records are currently retained.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Record stores a copy of rec in the ring, overwriting the oldest entry
// once the ring is full. Nil-safe; safe for concurrent use; does not
// allocate (TestRecordZeroAlloc pins this). If rec.Slow is set and a
// dump directory is configured, a dump is written asynchronously — the
// recording path itself stays allocation-free.
func (r *Recorder) Record(rec *Record) {
	if r == nil || rec == nil {
		return
	}
	seq := r.next.Add(1)
	s := &r.slots[(seq-1)%uint64(len(r.slots))]
	s.mu.Lock()
	// A slow writer may lap the ring: keep the newest claim only.
	if seq > s.seq {
		s.seq = seq
		s.rec = *rec
	}
	s.mu.Unlock()
	if rec.Slow && r.hasDumpDir() {
		go r.Dump("slow-query")
	}
}

// hasDumpDir reports whether automatic dumps are enabled, without
// allocating.
func (r *Recorder) hasDumpDir() bool {
	if r == nil {
		return false
	}
	r.dumpMu.Lock()
	ok := r.dumpDir != ""
	r.dumpMu.Unlock()
	return ok
}

// SetDumpDir enables automatic and on-demand dumps into dir (empty
// disables). The directory is created on first dump. Nil-safe.
func (r *Recorder) SetDumpDir(dir string) {
	if r == nil {
		return
	}
	r.dumpMu.Lock()
	r.dumpDir = dir
	r.dumpMu.Unlock()
}

// Snapshot copies the retained records out, oldest first. Under
// concurrent writers the copy is a consistent per-record view (each
// record is copied under its slot lock) but the set itself is only
// approximately ordered — exactly what a post-hoc dump needs. Nil-safe.
func (r *Recorder) Snapshot() []Record {
	if r == nil {
		return nil
	}
	type stamped struct {
		seq uint64
		rec Record
	}
	out := make([]stamped, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.seq != 0 {
			out = append(out, stamped{seq: s.seq, rec: s.rec})
		}
		s.mu.Unlock()
	}
	// Insertion sort by claim sequence: the ring is small and nearly
	// sorted (one rotation), so this beats pulling in sort for the hot
	// dump path... and keeps the function dependency-free.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].seq > out[j].seq; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	recs := make([]Record, len(out))
	for i := range out {
		recs[i] = out[i].rec
	}
	return recs
}

// dumpDoc is the JSON envelope flightz and Dump share.
type dumpDoc struct {
	// Reason says why the dump was taken ("request", "slow-query",
	// "audit-violation", "shutdown").
	Reason string `json:"reason"`
	// TakenUnixNano timestamps the dump.
	TakenUnixNano int64 `json:"taken_unix_nano"`
	// Capacity is the ring size; Total the number of records ever
	// recorded (Total − len(Records) have been overwritten).
	Capacity int      `json:"capacity"`
	Total    uint64   `json:"total"`
	Records  []Record `json:"records"`
}

// WriteJSON writes the retained records as one JSON document. Nil-safe
// (writes an empty document).
func (r *Recorder) WriteJSON(w io.Writer, reason string) error {
	doc := dumpDoc{
		Reason:        reason,
		TakenUnixNano: time.Now().UnixNano(),
		Capacity:      r.Size(),
		Total:         r.Total(),
		Records:       r.Snapshot(),
	}
	if doc.Records == nil {
		doc.Records = []Record{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Dump writes the retained records to a fresh file in the configured
// dump directory and returns its path. A recorder without a dump dir
// (or a nil recorder) returns "" with no error — dumps are best-effort
// diagnostics and must never fail the caller.
func (r *Recorder) Dump(reason string) (string, error) {
	if r == nil {
		return "", nil
	}
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	if r.dumpDir == "" {
		return "", nil
	}
	if err := os.MkdirAll(r.dumpDir, 0o755); err != nil {
		return "", fmt.Errorf("flight: dump dir: %w", err)
	}
	// Timestamp + per-process sequence: unique even when two dumps land
	// in the same nanosecond bucket on a coarse clock.
	name := fmt.Sprintf("flight-%d-%03d-%s.json",
		time.Now().UnixNano(), r.dumpSeq.Add(1), sanitizeReason(reason))
	path := filepath.Join(r.dumpDir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("flight: dump: %w", err)
	}
	if err := r.WriteJSON(f, reason); err != nil {
		f.Close()
		return "", fmt.Errorf("flight: dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("flight: dump: %w", err)
	}
	return path, nil
}

// sanitizeReason keeps dump filenames shell- and filesystem-safe.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "manual"
	}
	b := []byte(reason)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			b[i] = '_'
		}
	}
	const maxLen = 32
	if len(b) > maxLen {
		b = b[:maxLen]
	}
	return string(b)
}

// Handler serves the ring as JSON — mount at /debug/flightz. GET only;
// Content-Type application/json.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		r.WriteJSON(w, "request")
	})
}
