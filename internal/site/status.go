package site

import (
	"time"

	"repro/internal/msg"
)

// Status returns the site's operational snapshot, the same struct
// answered to msg.KindStatus.
func (e *Engine) Status() msg.SiteStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return *e.statusLocked()
}

// statusLocked builds the snapshot; caller holds e.mu. inFlight counts
// this request itself (it entered Handle), which is the honest view: a
// probe observing "1 in flight" is watching itself be served.
func (e *Engine) statusLocked() *msg.SiteStatus {
	now := time.Now()
	st := &msg.SiteStatus{
		ID:                 e.id,
		Tuples:             e.index.Len(),
		TreeHeight:         e.index.Height(),
		Sessions:           len(e.sessions),
		InFlight:           int(e.inFlight.Load()),
		ReplicaSize:        len(e.replica),
		ReplicaVersion:     e.replicaVersion,
		StartUnixNano:      e.start.UnixNano(),
		UptimeSeconds:      now.Sub(e.start).Seconds(),
		LastUpdateUnixNano: e.lastUpdate.Load(),
		RequestsTotal:      e.requestsTotal.Load(),
	}
	if s := e.win.Snapshot(); s.Count > 0 {
		st.LatencyP50Ms = float64(s.Quantile(0.50)) / float64(time.Millisecond)
		st.LatencyP95Ms = float64(s.Quantile(0.95)) / float64(time.Millisecond)
		st.LatencyP99Ms = float64(s.Quantile(0.99)) / float64(time.Millisecond)
		st.WindowRate = s.Rate()
		st.WindowSeconds = s.Span.Seconds()
		for _, b := range s.Bounds {
			st.WindowBoundsNS = append(st.WindowBoundsNS, int64(b))
		}
		st.WindowCounts = s.Counts
	}
	if e.workerStats != nil {
		w := e.workerStats()
		st.MuxConns = w.Conns
		st.MuxWorkersBusy = w.Busy
		st.MuxWorkerLimit = w.Limit
		st.MuxQueued = w.Queued
	}
	return st
}
