package server

import (
	"fmt"
	"net/http"

	"instantdb/internal/engine"
)

// MetricsHandler returns an http.Handler exposing db's observability
// surface:
//
//	GET /metrics       — Prometheus text exposition of every registered metric
//	GET /healthz       — liveness plus the headline SLO: 200 and
//	                     "ok lag=<seconds>" while the database is serving
//	GET /debug/traces  — recent and slow traces as text span trees
//	GET /debug/pprof/* — the Go profiler (see AttachDebug)
//
// It is served on a separate listener from the wire protocol
// (cmd/instantdb-server -metrics-listen), so scrapers and profilers
// never consume a database connection slot and a wedged scraper cannot
// interfere with sessions.
func MetricsHandler(db *engine.DB) http.Handler {
	mux := http.NewServeMux()
	AttachDebug(mux, db.Tracer())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := db.Metrics().WritePrometheus(w); err != nil {
			// Headers are gone; nothing to do but drop the connection.
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		lag := db.Degrader().Lag(db.Clock().Now())
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok lag=%.3fs\n", lag.Seconds())
	})
	return mux
}
