package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// HTTP export surface. Both daemons mount this behind their -metrics
// flag:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON snapshot (ts + merged metric values)
//	/trace.json    assembled spans as Chrome trace-event JSON (Perfetto)
//	/trace         merged flight-recorder events as NDJSON
//	/debug/pprof/  the standard pprof handlers
//
// The Source abstracts where snapshots come from: a live *Registry for
// the atomic-stripe daemon path, a *Recorder (last barrier-published
// snapshot) for deterministic plain-stripe sims.

// Source yields merged snapshots for export.
type Source interface {
	Snapshot() *Snapshot
}

// HandlerConfig wires the export surface.
type HandlerConfig struct {
	// Source yields snapshots for /metrics and /metrics.json.
	Source Source
	// Flight, if set, backs /trace.json and /trace.
	Flight *FlightRecorder
}

// NewHandler builds the export mux.
func NewHandler(cfg HandlerConfig) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, cfg.Source.Snapshot())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(cfg.Source.Snapshot())
	})
	if cfg.Flight != nil {
		mux.HandleFunc("/trace.json", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = WriteChromeTrace(w, AssembleSpans(cfg.Flight.Events()))
		})
		mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = WriteTraceNDJSON(w, cfg.Flight.Events())
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
