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
//	                           "partitions" with "input":"push"); starts
//	                           a resident sharded streaming session and
//	                           returns its id
//	GET  /stream/{id}          polls the session's current reconciled
//	                           explanation set without pausing ingest
//	POST /stream/{id}/push     point records pushed into a session
//	                           started with "input":"push"; the body is
//	                           NDJSON by default, or the compact binary
//	                           row format below under Content-Type
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
// Push wire formats. NDJSON: one JSON object per record,
// {"metrics":[...],"attributes":{"col":"value",...},"time":t}. The
// binary row format is for high-rate producers that want to skip JSON
// entirely — the stream is the 4-byte magic "MBR1" followed by
// length-prefixed rows (uvarint bodyLen, then: flags byte with bit 0 =
// has-time; float64le time iff flagged; uvarint metric count + that
// many float64le; uvarint attribute count + per attribute uvarint
// length + raw UTF-8 bytes, in the session's configured column order);
// see internal/ingest/binrows.go for the authoritative spec. Both
// formats decode through per-session pooled decoders straight into
// recycled batch slabs, so a steady-rate producer costs the server no
// steady-state allocations on the binary path.
//
// Poll and stop responses for push sessions carry an "ingest" block:
// per-partition producer-side counters (queued batches, cumulative
// blocked nanoseconds, batches/points accepted) that make backpressure
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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"mime"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"macrobase/internal/core"
	"macrobase/internal/encode"
	"macrobase/internal/ingest"
	"macrobase/internal/pipeline"
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

// queryResponse is the JSON report returned to programmatic consumers.
type queryResponse struct {
	Points       int               `json:"points"`
	Outliers     int               `json:"outliers"`
	Explanations []explanationJSON `json:"explanations"`
}

type explanationJSON struct {
	Attributes []core.Attribute `json:"attributes"`
	Support    float64          `json:"support"`
	RiskRatio  float64          `json:"riskRatio"`
	Outliers   float64          `json:"outlierCount"`
	Inliers    float64          `json:"inlierCount"`
	// CI is the risk ratio's confidence interval, present when the
	// query asked for one ("confidence").
	CI *intervalJSON `json:"ci,omitempty"`
}

// intervalJSON is a confidence interval on the wire. Lo and Hi pass
// through jsonSafe: Hi is +Inf for a combination absent from the
// inliers, just as its risk ratio is.
type intervalJSON struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Level float64 `json:"level"`
}

// maxControlBody caps the JSON body of /query, /stream/start and
// POST /stream/{id}/checkpoint (1 MiB, far above any query config or
// checkpoint blob): json.Decoder buffers a whole value, so an uncapped
// body would let one request pin any amount of server memory.
const maxControlBody = 1 << 20

// bodyErrorStatus answers 413 for a body cut off at its
// http.MaxBytesReader cap and 400 for any other decoding failure.
func bodyErrorStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func handleQuery(w http.ResponseWriter, r *http.Request) {
	cfg, err := ingest.ReadQueryConfig(http.MaxBytesReader(w, r.Body, maxControlBody))
	if err != nil {
		http.Error(w, err.Error(), bodyErrorStatus(err))
		return
	}
	if !routingBucketsOK(w, cfg.RoutingBuckets) {
		return
	}
	f, err := os.Open(cfg.Input)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer f.Close()
	// Every failure past the open is the request's own input: a CSV
	// that does not parse, or data its model cannot be fit to.
	res, err := pipeline.RunQuery(cfg, f)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, queryResponse{
		Points:       res.Stats.Points,
		Outliers:     res.Stats.Outliers,
		Explanations: explanationsJSON(res.Explanations),
	})
}

func explanationsJSON(exps []core.Explanation) []explanationJSON {
	out := make([]explanationJSON, 0, len(exps))
	for _, e := range exps {
		ej := explanationJSON{
			Attributes: e.Attributes,
			Support:    e.Support,
			RiskRatio:  jsonSafe(e.RiskRatio),
			Outliers:   e.OutlierCount,
			Inliers:    e.InlierCount,
		}
		if e.CI.Level > 0 {
			ej.CI = &intervalJSON{Lo: jsonSafe(e.CI.Lo), Hi: jsonSafe(e.CI.Hi), Level: e.CI.Level}
		}
		out = append(out, ej)
	}
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encoding response: %v", err)
	}
}

// streamStartRequest is the /stream/start body: a query config plus
// shard count. Streaming mode is implied. With "input":"push" the
// session has no server-side input at all: it is fed through
// POST /stream/{id}/push across Partitions independent push
// partitions.
type streamStartRequest struct {
	ingest.QueryConfig
	// Shards is the worker count P (default 1).
	Shards int `json:"shards,omitempty"`
	// Partitions is the push-ingest partition count (push sessions
	// only; default = shards). Each partition is an independent
	// producer lane with its own ordering and backpressure.
	Partitions int `json:"partitions,omitempty"`
	// Replay (push sessions only) retains delivered points until a
	// checkpoint acknowledges them, enabling GET/POST
	// /stream/{id}/checkpoint at the cost of one copy per delivered
	// batch plus the retained memory between checkpoints.
	Replay bool `json:"replay,omitempty"`
}

// pushInput is the magic QueryConfig.Input selecting push ingestion.
const pushInput = "push"

// maxShards bounds the per-request worker count: a shard costs a
// goroutine plus classifier/explainer replicas (~10K-element
// reservoirs and sketches each), so an uncapped value is a one-request
// denial of service. Past the core count extra shards only fragment
// the training samples anyway (see doc.go).
var maxShards = max(64, 4*runtime.GOMAXPROCS(0))

// maxRoutingBuckets bounds the per-request virtual-bucket count: every
// push partition keeps one load counter per bucket and the router one
// table slot, so an uncapped value is a one-request allocation of
// gigabytes. 65536 is 256 times the default and costs 512 KB of
// counters per partition.
const maxRoutingBuckets = 1 << 16

// routingBucketsOK holds the wire's routingBuckets to maxRoutingBuckets,
// answering 400 otherwise.
func routingBucketsOK(w http.ResponseWriter, n int) bool {
	if n > maxRoutingBuckets {
		http.Error(w, fmt.Sprintf("routingBuckets must be <= %d", maxRoutingBuckets), http.StatusBadRequest)
		return false
	}
	return true
}

// streamState is one resident streaming query with its encoder (ids
// must decode with the encoder that interned them) and either the open
// input file (CSV sessions; closed as soon as the stream terminates,
// closeOnce guarding the poll/stop race) or the push source its
// /push handlers feed.
type streamState struct {
	session   *pipeline.StreamSession
	enc       *encode.Encoder
	file      *os.File // nil for push sessions
	closeOnce sync.Once

	// push ingestion state (nil for CSV sessions). nextPart deals
	// unpinned push requests round-robin across partitions; decoders
	// pools this session's push decoders (schema- and encoder-bound
	// scratch) across requests.
	push     *ingest.Push
	schema   ingest.Schema
	nextPart atomic.Uint64
	decoders sync.Pool

	// pcfg/shards are retained so POST /stream/{id}/checkpoint can
	// rebuild the pipeline with the original parameters on resume.
	pcfg   pipeline.Config
	shards int
}

// pushDecoder is one request's decoding scratch, pooled per session:
// the binary row reader (reset per request) and the NDJSON record
// scratch whose metrics slice and attribute map are reused across
// records.
type pushDecoder struct {
	bin  *ingest.BinaryRowReader
	rec  pushRecord
	abuf []int32
}

// getDecoder fetches a pooled decoder (or a fresh one).
func (st *streamState) getDecoder() *pushDecoder {
	if d, ok := st.decoders.Get().(*pushDecoder); ok {
		return d
	}
	return &pushDecoder{}
}

// reapFile closes the input file once the session no longer reads it.
// Called whenever a handler observes the session done, so streams that
// end naturally release their descriptor even if the client never
// stops them. Push sessions have no file; their producers are closed
// instead so pending pushes fail fast.
func (st *streamState) reapFile() {
	st.closeOnce.Do(func() {
		if st.file != nil {
			st.file.Close()
		}
		if st.push != nil {
			st.push.CloseAll()
		}
	})
}

// maxSessions bounds concurrently resident streams; finished sessions
// are reaped lazily on start, so the cap applies to live ones.
const maxSessions = 64

// streamRegistry tracks resident streaming sessions by id.
type streamRegistry struct {
	mu       sync.Mutex
	sessions map[string]*streamState
	next     int
}

// reserve claims a session slot and id under one critical section, so
// concurrent starts cannot race past the cap: the placeholder holds
// the slot until install replaces it or release frees it. Under
// pressure it first reaps sessions whose streams have finished
// (closing their inputs and dropping their shard state) — finished-
// but-unpolled results are sacrificed only then, so clients that poll
// or stop promptly never notice.
func (g *streamRegistry) reserve() (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.sessions) >= maxSessions {
		for id, st := range g.sessions {
			if st.session != nil && st.session.Done() {
				st.reapFile()
				delete(g.sessions, id)
			}
		}
		if len(g.sessions) >= maxSessions {
			return "", false
		}
	}
	g.next++
	id := "s" + strconv.Itoa(g.next)
	g.sessions[id] = &streamState{} // placeholder holds the slot
	return id, true
}

// install replaces the reserved placeholder with the live session.
func (g *streamRegistry) install(id string, st *streamState) {
	g.mu.Lock()
	g.sessions[id] = st
	g.mu.Unlock()
}

// release frees a reserved slot after a failed start.
func (g *streamRegistry) release(id string) {
	g.mu.Lock()
	delete(g.sessions, id)
	g.mu.Unlock()
}

func newStreamRegistry() *streamRegistry {
	return &streamRegistry{sessions: make(map[string]*streamState)}
}

func (g *streamRegistry) handleStart(w http.ResponseWriter, r *http.Request) {
	var req streamStartRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("parsing stream config: %v", err), bodyErrorStatus(err))
		return
	}
	if err := req.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Shards == 0 {
		req.Shards = 1
	}
	if req.Shards < 0 {
		http.Error(w, "shards must be positive", http.StatusBadRequest)
		return
	}
	if req.Shards > maxShards {
		http.Error(w, fmt.Sprintf("shards must be <= %d", maxShards), http.StatusBadRequest)
		return
	}
	if !routingBucketsOK(w, req.RoutingBuckets) {
		return
	}
	if req.Input == pushInput {
		g.startPush(w, &req)
		return
	}
	if req.Partitions != 0 {
		http.Error(w, `partitions requires "input":"push"`, http.StatusBadRequest)
		return
	}
	if req.Replay {
		http.Error(w, `replay requires "input":"push"`, http.StatusBadRequest)
		return
	}
	id, ok := g.reserve()
	if !ok {
		http.Error(w, fmt.Sprintf("too many resident streams (max %d); stop one first", maxSessions), http.StatusTooManyRequests)
		return
	}
	f, err := os.Open(req.Input)
	if err != nil {
		g.release(id)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	enc := encode.NewEncoder(req.Attributes...)
	src, err := ingest.NewCSVSource(f, req.Schema(), enc)
	if err != nil {
		g.release(id)
		f.Close()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sess, err := pipeline.StartPartitionedStream(src, pipeline.FromQuery(&req.QueryConfig), req.Shards)
	if err != nil {
		g.release(id)
		f.Close()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	g.install(id, &streamState{session: sess, enc: enc, file: f})
	writeJSON(w, map[string]any{"id": id, "shards": req.Shards})
}

// pushQueueDepth bounds each push partition's in-flight batches: one
// slow pipeline shows up as producer backpressure (a blocked /push
// request), not as unbounded server-side buffering.
const pushQueueDepth = 4

// maxPushBody caps one /push request's body (~64 MB, on the order of
// a million NDJSON points): a request is decoded in full before its
// single Send, so this cap is what keeps a giant or endless chunked
// upload from buffering unboundedly ahead of the bounded queue.
const maxPushBody = 64 << 20

// startPush launches a push-ingest session: no server-side input —
// the returned id is fed through POST /stream/{id}/push.
func (g *streamRegistry) startPush(w http.ResponseWriter, req *streamStartRequest) {
	if req.Partitions == 0 {
		req.Partitions = req.Shards
	}
	if req.Partitions < 0 || req.Partitions > maxShards {
		http.Error(w, fmt.Sprintf("partitions must be in 1..%d", maxShards), http.StatusBadRequest)
		return
	}
	id, ok := g.reserve()
	if !ok {
		http.Error(w, fmt.Sprintf("too many resident streams (max %d); stop one first", maxSessions), http.StatusTooManyRequests)
		return
	}
	enc := encode.NewEncoder(req.Attributes...)
	src := ingest.NewPush(req.Partitions, pushQueueDepth)
	if req.Replay {
		src.EnableReplay(0)
	}
	pcfg := pipeline.FromQuery(&req.QueryConfig)
	sess, err := pipeline.StartPartitionedStream(src, pcfg, req.Shards)
	if err != nil {
		g.release(id)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	g.install(id, &streamState{session: sess, enc: enc, push: src, schema: req.Schema(), pcfg: pcfg, shards: req.Shards})
	writeJSON(w, map[string]any{"id": id, "shards": req.Shards, "partitions": src.NumPartitions()})
}

// pushRecord is one NDJSON line of POST /stream/{id}/push.
type pushRecord struct {
	// Metrics in the order the session's "metrics" config named them.
	Metrics []float64 `json:"metrics"`
	// Attributes maps attribute column name -> value; every configured
	// attribute column must be present.
	Attributes map[string]string `json:"attributes"`
	// Time is the optional event time in seconds.
	Time float64 `json:"time,omitempty"`
}

// handlePush appends point records — NDJSON, or the binary row format
// under Content-Type application/x-macrobase-rows (or ?format=binary)
// — to a push session. The whole request body becomes one batch on one
// partition (?partition=N pins it; otherwise requests are dealt
// round-robin), so per-producer ordering is preserved by pinning. The
// records decode straight into a batch loaned from the session's
// recycled free list through a per-session pooled decoder, so the
// request goroutine's parse cost is the format's floor (on the binary
// path, allocation-free). Backpressure propagates: when the pipeline
// is behind, the request blocks until the partition queue drains or
// the client gives up. ?eof=1 closes every partition after this
// request's points, ending the stream once drained.
func (g *streamRegistry) handlePush(w http.ResponseWriter, r *http.Request) {
	st, id, ok := g.lookup(r)
	if !ok {
		http.Error(w, "unknown stream "+id, http.StatusNotFound)
		return
	}
	if st.push == nil {
		http.Error(w, "stream "+id+` does not accept pushes (start it with "input":"push")`, http.StatusBadRequest)
		return
	}
	if st.session.Done() {
		st.reapFile()
		http.Error(w, "stream "+id+" already finished", http.StatusConflict)
		return
	}
	part := int(st.nextPart.Add(1)-1) % st.push.NumPartitions()
	if v := r.URL.Query().Get("partition"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 0 || p >= st.push.NumPartitions() {
			http.Error(w, fmt.Sprintf("partition must be in 0..%d", st.push.NumPartitions()-1), http.StatusBadRequest)
			return
		}
		part = p
	}
	// One request is one batch, decoded fully before the Send, so the
	// body must be bounded: past this cap producers have to split into
	// several requests, and the partition queue's backpressure — not
	// server memory — absorbs the burst.
	body := http.MaxBytesReader(w, r.Body, maxPushBody)
	pr := st.push.Producer(part)
	b := pr.GetBatch()
	dec := st.getDecoder()
	var err error
	if binaryPush(r) {
		err = st.decodeBinary(body, b, dec)
	} else {
		err = st.decodeNDJSON(body, b, dec)
	}
	st.decoders.Put(dec)
	if err != nil {
		pr.PutBatch(b)
		http.Error(w, err.Error(), bodyErrorStatus(err))
		return
	}
	accepted := b.Len()
	if accepted > 0 {
		// The request context bounds the backpressure wait: a client
		// that disconnects releases its queue claim.
		if err := pr.SendBatch(r.Context(), b); err != nil {
			status := http.StatusServiceUnavailable
			if err == ingest.ErrProducerClosed {
				status = http.StatusConflict
			}
			http.Error(w, err.Error(), status)
			return
		}
	} else {
		pr.PutBatch(b)
	}
	eof := r.URL.Query().Get("eof") != ""
	if eof {
		st.push.CloseAll()
	}
	writeJSON(w, map[string]any{"accepted": accepted, "partition": part, "eof": eof})
}

// binaryPush reports whether the request carries the binary row
// format. Media types are case-insensitive with optional parameters
// (RFC 9110), so the header goes through mime.ParseMediaType rather
// than a string compare.
func binaryPush(r *http.Request) bool {
	if r.URL.Query().Get("format") == "binary" {
		return true
	}
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return err == nil && mt == ingest.BinaryContentType
}

// decodeBinary parses binary rows into b through the session's pooled
// row reader (schema validation and attribute interning included).
func (st *streamState) decodeBinary(body io.Reader, b *core.Batch, d *pushDecoder) error {
	if d.bin == nil {
		d.bin = ingest.NewBinaryRowReader(body, st.schema, st.enc)
	} else {
		d.bin.Reset(body)
	}
	for {
		if _, err := d.bin.ReadInto(b, 8192); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// decodeNDJSON parses NDJSON records into b under the session's schema
// and encoder. The record scratch (metrics slice, attribute map,
// encoded-id buffer) is pooled; the per-record strings the JSON
// decoder materializes are the path's allocation floor — producers
// that need less use the binary format.
func (st *streamState) decodeNDJSON(body io.Reader, b *core.Batch, d *pushDecoder) error {
	dec := json.NewDecoder(body)
	if cap(d.abuf) < len(st.schema.Attributes) {
		d.abuf = make([]int32, len(st.schema.Attributes))
	}
	abuf := d.abuf[:len(st.schema.Attributes)]
	for line := 1; ; line++ {
		// Reset the reused scratch so a field omitted by this record
		// cannot inherit the previous record's value.
		d.rec.Metrics = d.rec.Metrics[:0]
		d.rec.Time = 0
		clear(d.rec.Attributes)
		if err := dec.Decode(&d.rec); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("record %d: %w", line, err)
		}
		if len(d.rec.Metrics) != len(st.schema.Metrics) {
			return fmt.Errorf("record %d: %d metrics, want %d (%v)", line, len(d.rec.Metrics), len(st.schema.Metrics), st.schema.Metrics)
		}
		for j, col := range st.schema.Attributes {
			v, ok := d.rec.Attributes[col]
			if !ok {
				return fmt.Errorf("record %d: missing attribute %q", line, col)
			}
			abuf[j] = st.enc.Encode(j, v)
		}
		b.Append(d.rec.Metrics, abuf, d.rec.Time)
	}
}

// handleCheckpoint snapshots the session's committed ingest offsets
// (GET /stream/{id}/checkpoint): the returned blob plus the original
// stream configuration is everything POST needs to resume. Committed
// offsets are simultaneously acked to the source, so a push session
// with replay enabled trims its retained points up to the checkpoint.
// Sessions without checkpointable partitions (CSV sessions over a
// single reader, push sessions generally being the target) get 409.
func (g *streamRegistry) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	st, id, ok := g.lookup(r)
	if !ok {
		http.Error(w, "unknown stream "+id, http.StatusNotFound)
		return
	}
	ck, err := st.session.Checkpoint()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, ck)
}

// handleResume restarts a terminated push session from a checkpoint
// blob (POST /stream/{id}/checkpoint): each partition seeks back to
// its committed offset and the retained unacked tail replays through a
// fresh pipeline, installed under the same id. The session must have
// terminated first (the partitions are otherwise still being consumed)
// and must have been started with "replay":true — without the replay
// buffer there is nothing to seek into — both reported as 409.
func (g *streamRegistry) handleResume(w http.ResponseWriter, r *http.Request) {
	st, id, ok := g.lookup(r)
	if !ok {
		http.Error(w, "unknown stream "+id, http.StatusNotFound)
		return
	}
	if st.push == nil {
		http.Error(w, "stream "+id+` is not resumable (start it with "input":"push" and "replay":true)`, http.StatusConflict)
		return
	}
	if !st.session.Done() {
		http.Error(w, "stream "+id+" is still running; resume applies to terminated sessions", http.StatusConflict)
		return
	}
	var ck pipeline.Checkpoint
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBody)).Decode(&ck); err != nil {
		http.Error(w, fmt.Sprintf("parsing checkpoint: %v", err), bodyErrorStatus(err))
		return
	}
	sess, err := pipeline.ResumeStream(st.push, st.pcfg, st.shards, &ck)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	nst := &streamState{
		session: sess,
		enc:     st.enc,
		push:    st.push,
		schema:  st.schema,
		pcfg:    st.pcfg,
		shards:  st.shards,
	}
	// Swap the registry entry only if it still points at the session we
	// resumed from; a concurrent stop/delete wins and the fresh session
	// is torn down rather than leaked.
	g.mu.Lock()
	cur, live := g.sessions[id]
	if live && cur == st {
		g.sessions[id] = nst
	} else {
		live = false
	}
	g.mu.Unlock()
	if !live {
		sess.Stop()
		http.Error(w, "stream "+id+" was removed while resuming", http.StatusConflict)
		return
	}
	writeJSON(w, map[string]any{"id": id, "shards": nst.shards, "partitions": nst.push.NumPartitions(), "resumed": true})
}

// lookup fetches a session by path id without removing it. Reserved
// placeholders (start still in flight) are reported as absent.
func (g *streamRegistry) lookup(r *http.Request) (*streamState, string, bool) {
	id := r.PathValue("id")
	g.mu.Lock()
	st, ok := g.sessions[id]
	g.mu.Unlock()
	return st, id, ok && st.session != nil
}

// streamResponse is the poll/stop report.
type streamResponse struct {
	ID         string `json:"id"`
	Done       bool   `json:"done"`
	Points     int    `json:"points"`
	Outliers   int    `json:"outliers"`
	DecayTicks int    `json:"decayTicks"`
	// Ingest, for push sessions, reports live per-partition
	// producer-side counters: queue depth and cumulative blocked time
	// (backpressure felt by producers) plus accepted batch/point
	// totals and windowed per-second rates.
	Ingest       []core.PartitionIngestStats `json:"ingest,omitempty"`
	Explanations []explanationJSON           `json:"explanations"`
	// Shards is the skew breakdown: per-shard load, outlier rate, and
	// threshold state, the hot-shard imbalance metric, and the
	// coordination view (rounds completed, last global cutoff).
	Shards *pipeline.ShardBreakdown `json:"shards,omitempty"`
	// Health reports whether the session is running clean or degraded
	// (a shard worker panicked and was quarantined; the stream keeps
	// running on the survivors and the explanations cover their share
	// of the data only).
	Health healthJSON `json:"health"`
}

// healthJSON is the poll/stop health block.
type healthJSON struct {
	// Status is "ok" or "degraded".
	Status string `json:"status"`
	// DegradedShards lists quarantined shard indexes.
	DegradedShards []int `json:"degradedShards,omitempty"`
	// DroppedPoints totals points routed to dead shards and drained
	// without processing.
	DroppedPoints int64 `json:"droppedPoints,omitempty"`
	// Errors carries each dead shard's failure message.
	Errors []string `json:"errors,omitempty"`
}

// healthOf folds a result's failure records into the health block.
func healthOf(res *pipeline.ShardedResult) healthJSON {
	h := healthJSON{Status: "ok"}
	if !res.Stats.Degraded {
		return h
	}
	h.Status = "degraded"
	for _, f := range res.Stats.ShardFailures {
		h.DegradedShards = append(h.DegradedShards, f.Shard)
		h.DroppedPoints += f.DroppedPoints
		h.Errors = append(h.Errors, f.Err)
	}
	return h
}

func (g *streamRegistry) handlePoll(w http.ResponseWriter, r *http.Request) {
	st, id, ok := g.lookup(r)
	if !ok {
		http.Error(w, "unknown stream "+id, http.StatusNotFound)
		return
	}
	// Capture doneness before polling: if the stream terminates while
	// Poll is in flight, the snapshot may predate the final flush, so
	// reporting done:false (client polls again, sees the final result)
	// errs in the harmless direction.
	done := st.session.Done()
	res, err := st.session.Poll()
	if st.session.Done() {
		st.reapFile()
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeStreamResponse(w, id, st, res, done)
}

func (g *streamRegistry) handleStop(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	g.mu.Lock()
	st, ok := g.sessions[id]
	if ok && st.session == nil {
		ok = false // reserved placeholder: start still in flight
	} else {
		delete(g.sessions, id)
	}
	g.mu.Unlock()
	if !ok {
		http.Error(w, "unknown stream "+id, http.StatusNotFound)
		return
	}
	res, err := st.session.Stop()
	st.reapFile()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeStreamResponse(w, id, st, res, true)
}

func writeStreamResponse(w http.ResponseWriter, id string, st *streamState, res *pipeline.ShardedResult, done bool) {
	// Decorate a copy: poll results are session-owned snapshots but
	// the final result is shared across concurrent poll/stop calls.
	exps := make([]core.Explanation, len(res.Explanations))
	copy(exps, res.Explanations)
	st.enc.Decorate(exps)
	resp := streamResponse{
		ID:         id,
		Done:       done,
		Points:     res.Stats.Points,
		Outliers:   res.Stats.Outliers,
		DecayTicks: res.Stats.DecayTicks,
		Health:     healthOf(res),
	}
	if st.push != nil {
		resp.Ingest = st.push.IngestStats(nil)
	}
	resp.Explanations = explanationsJSON(exps)
	// The breakdown types marshal their own NaN/±Inf fields safely
	// (pipeline.ShardBreakdown.MarshalJSON), so no scrubbing pass here.
	resp.Shards = res.Shards
	writeJSON(w, resp)
}

// jsonSafe maps the +Inf risk ratio of combinations absent from the
// inliers onto a large finite value; encoding/json rejects Inf/NaN.
func jsonSafe(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	if math.IsNaN(v) {
		return 0
	}
	return v
}
