// Command mbserver exposes MacroBase queries over a small REST API —
// the programmatic presentation mode of paper §3.2 step 5 (e.g. for
// forwarding explanations to reporting tools).
//
// Endpoints:
//
//	GET  /healthz              liveness probe
//	POST /query                body: ingest.QueryConfig JSON; runs the
//	                           query server-side over the configured CSV
//	                           and returns ranked, decoded explanations
//	POST /stream/start         body: QueryConfig JSON + "shards" (+
//	                           "partitions" and "replay" with
//	                           "input":"push"); starts a resident sharded
//	                           streaming session and returns its id
//	GET  /stream/{id}          polls the session's current reconciled
//	                           explanation set without pausing ingest
//	POST /stream/{id}/push     point records pushed into a session
//	                           started with "input":"push"; the body is
//	                           NDJSON by default, or the binary row
//	                           format under Content-Type
//	                           application/x-macrobase-rows (or
//	                           ?format=binary); ?partition=N pins a
//	                           partition (default round-robin), ?eof=1
//	                           ends the stream after this request's
//	                           points
//	POST /stream/{id}/stop     halts the session and returns its final
//	                           result (also DELETE /stream/{id})
//	GET  /stream/{id}/checkpoint
//	                           snapshots the session's committed ingest
//	                           offsets as a versioned JSON blob (and acks
//	                           them to the source, trimming push replay
//	                           buffers); 409 when the session has no
//	                           checkpointable partitions
//	POST /stream/{id}/checkpoint
//	                           body: a blob from GET; once the session
//	                           has terminated, restarts it from the
//	                           checkpoint — push partitions seek back to
//	                           the committed offsets and replay the
//	                           retained unacked tail through a fresh
//	                           pipeline under the same id (requires a
//	                           push session started with "replay":true)
//
// Both push wire formats, NDJSON records and the "MBR1" binary rows,
// are specified and decoded by ingest.PushDecoder, which each session
// pools across requests: records decode straight into recycled batch
// slabs, so a steady-rate producer costs the server no steady-state
// allocations on the binary path.
//
// Every session has one lifecycle (newStreamState): its input — the CSV
// file, or the push source — is opened once at start and closed as
// soon as the stream ends, whether it ran out, was stopped or failed,
// with no further request needed.
//
// Poll and stop responses for push sessions carry an "ingest" block,
// read with the rest of the session's account: per-partition
// producer-side counters (queued batches, cumulative blocked
// nanoseconds, batches/points accepted) that make backpressure
// observable before clients start timing out.
//
// Profiling a live session: start with -pprof (off by default) and
// point the toolchain at the running server, e.g.
// `go tool pprof 'http://localhost:8080/debug/pprof/profile?seconds=10'`
// or `.../debug/pprof/heap`.
//
// Usage:
//
//	mbserver -addr :8080 [-pprof]
//	curl -s localhost:8080/query -d @query.json
//	id=$(curl -s localhost:8080/stream/start -d @query.json | jq -r .id)
//	curl -s localhost:8080/stream/$id
//	curl -s -X POST localhost:8080/stream/$id/stop
//
// Push ingestion (no server-side file at all — producers feed the
// resident session directly, with backpressure):
//
//	id=$(curl -s localhost:8080/stream/start \
//	    -d '{"input":"push","metrics":["power"],"attributes":["device"],"shards":4,"partitions":2}' | jq -r .id)
//	curl -s localhost:8080/stream/$id/push --data-binary \
//	    '{"metrics":[41.5],"attributes":{"device":"B264"}}'
//	curl -s "localhost:8080/stream/$id/push?eof=1" --data-binary @points.ndjson
//	curl -s -X POST localhost:8080/stream/$id/stop
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"time"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	profiling := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	flag.Parse()

	mux := newMux(newStreamRegistry())
	if *profiling {
		mountPprof(mux)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	log.Printf("mbserver listening on %s", *addr)
	if err := srv.ListenAndServe(); err != nil {
		log.Fatal(err)
	}
}

// newMux assembles the routes; tests construct their own instance.
func newMux(reg *streamRegistry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /query", handleQuery)
	mux.HandleFunc("POST /stream/start", reg.handleStart)
	mux.HandleFunc("GET /stream/{id}", reg.handlePoll)
	mux.HandleFunc("POST /stream/{id}/push", reg.handlePush)
	mux.HandleFunc("POST /stream/{id}/stop", reg.handleStop)
	mux.HandleFunc("DELETE /stream/{id}", reg.handleStop)
	mux.HandleFunc("GET /stream/{id}/checkpoint", reg.handleCheckpoint)
	mux.HandleFunc("POST /stream/{id}/checkpoint", reg.handleResume)
	return mux
}

// mountPprof adds the net/http/pprof handlers (index and named
// profiles, cmdline, profile, symbol, trace) to mux. Off unless
// -pprof is given: profiles expose process internals.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
