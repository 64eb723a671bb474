package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, series by
// label string, histograms as cumulative _bucket/_sum/_count triples.
// Nil-safe (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.families() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, ins := range f.sortedSeries() {
			if err := writeSeries(w, f, ins); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f famSnap, ins *instrument) error {
	switch {
	case ins.ctr != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, ins.labels, ins.ctr.Value())
		return err
	case ins.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, ins.labels, formatFloat(ins.gauge.Value()))
		return err
	case ins.fn != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, ins.labels, formatFloat(ins.fn()))
		return err
	case ins.hist != nil:
		s := ins.hist.Snapshot()
		for i, ub := range s.Buckets {
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, withLE(ins.labels, formatFloat(ub)), s.Counts[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, withLE(ins.labels, "+Inf"), s.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, ins.labels, formatFloat(s.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, ins.labels, s.Count)
		return err
	}
	return nil
}

// withLE splices the le label into an existing (possibly empty) label
// block.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// histogramJSON is the /vars rendering of one histogram series. P50/P95/
// P99 are bucket-interpolated estimates (HistogramSnapshot.Quantile) so
// consumers get percentiles directly instead of re-deriving them from
// the cumulative buckets.
type histogramJSON struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	P50     float64           `json:"p50"`
	P95     float64           `json:"p95"`
	P99     float64           `json:"p99"`
	Buckets map[string]uint64 `json:"buckets"` // le → cumulative count
}

// WriteJSON dumps every series as one flat JSON object keyed by
// name{labels} — the expvar idiom, convenient for curl | jq and for
// tests. Nil-safe (writes {}).
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make(map[string]interface{})
	for _, f := range r.families() {
		for _, ins := range f.sortedSeries() {
			key := f.name + ins.labels
			switch {
			case ins.ctr != nil:
				out[key] = ins.ctr.Value()
			case ins.gauge != nil:
				out[key] = ins.gauge.Value()
			case ins.fn != nil:
				out[key] = ins.fn()
			case ins.hist != nil:
				s := ins.hist.Snapshot()
				h := histogramJSON{
					Count:   s.Count,
					Sum:     s.Sum,
					P50:     s.Quantile(0.50),
					P95:     s.Quantile(0.95),
					P99:     s.Quantile(0.99),
					Buckets: make(map[string]uint64, len(s.Buckets)+1),
				}
				for i, ub := range s.Buckets {
					h.Buckets[formatFloat(ub)] = s.Counts[i]
				}
				h.Buckets["+Inf"] = s.Count
				out[key] = h
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Handler serves the Prometheus text exposition (mount at /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// JSONHandler serves the expvar-style dump (mount at /vars).
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.WriteJSON(w)
	})
}

// getOnly rejects every method except GET and HEAD with 405 — the debug
// surface is strictly read-only.
func getOnly(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		h.ServeHTTP(w, req)
	})
}

// DebugMux assembles the standard introspection surface the cmd/ daemons
// mount behind -debug-addr:
//
//	/metrics       Prometheus text exposition
//	/vars          flat JSON dump of the same series
//	/healthz       200 {"status":"ok"} liveness probe
//	/debug/pprof/  the net/http/pprof profile suite
//
// Every endpoint sets a Content-Type; /metrics, /vars and /healthz are
// GET/HEAD only (pprof manages its own methods — /debug/pprof/symbol
// legitimately accepts POST). extra handlers (path → handler) are
// mounted verbatim, letting callers add component-specific pages (e.g.
// a watching coordinator's /clusterz or the flight recorder's
// /debug/flightz); they are expected to enforce their own methods.
func DebugMux(r *Registry, extra map[string]http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", getOnly(r.Handler()))
	mux.Handle("/vars", getOnly(r.JSONHandler()))
	mux.Handle("/healthz", getOnly(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{\"status\":\"ok\"}\n")
	})))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for path, h := range extra {
		mux.Handle(path, h)
	}
	return mux
}
