package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"os"
	"strconv"

	"macrobase/internal/ingest"
	"macrobase/internal/pipeline"
)

// maxControlBody caps the JSON body of /query, /stream/start and
// POST /stream/{id}/checkpoint (1 MiB, far above any query config or
// checkpoint blob): json.Decoder buffers a whole value, so an uncapped
// body would let one request pin any amount of server memory.
const maxControlBody = 1 << 20

// maxPushBody caps one /push request's body (~64 MB, on the order of
// a million NDJSON points): a request is decoded in full before its
// single Send, so this cap is what keeps a giant or endless chunked
// upload from buffering unboundedly ahead of the bounded queue.
const maxPushBody = 64 << 20

// bodyErrorStatus answers 413 for a body cut off at its
// http.MaxBytesReader cap and 400 for any other decoding failure.
func bodyErrorStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// sessionErrorStatus answers 400 for a session that ended on a bad row
// of its input and 500 for any other failure, which is the server's.
func sessionErrorStatus(err error) int {
	if errors.Is(err, ingest.ErrBadRow) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func handleQuery(w http.ResponseWriter, r *http.Request) {
	cfg, err := ingest.ReadQueryConfig(http.MaxBytesReader(w, r.Body, maxControlBody))
	if err != nil {
		http.Error(w, err.Error(), bodyErrorStatus(err))
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

// handleStart starts a session (POST /stream/start): decode and check
// the request, reserve a slot, open the input and start the session,
// install it.
func (g *streamRegistry) handleStart(w http.ResponseWriter, r *http.Request) {
	var req streamStartRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("parsing stream config: %v", err), bodyErrorStatus(err))
		return
	}
	if err := req.check(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id, ok := g.reserve()
	if !ok {
		http.Error(w, fmt.Sprintf("too many resident streams (max %d); stop one first", maxSessions), http.StatusTooManyRequests)
		return
	}
	st, err := req.open()
	if err != nil {
		g.release(id)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	g.install(id, st)
	writeJSON(w, st.startedJSON(id))
}

// handlePush appends point records — NDJSON, or the binary row format
// under Content-Type application/x-macrobase-rows (or ?format=binary)
// — to a push session. The whole request body becomes one batch on one
// partition (?partition=N pins it; otherwise requests are dealt
// round-robin), so per-producer ordering is preserved by pinning. The
// records decode straight into a batch loaned from the session's
// recycled free list through a per-session pooled ingest.PushDecoder,
// so the request goroutine's parse cost is the format's floor (on the
// binary path, allocation-free). Backpressure propagates: when the
// pipeline is behind, the request blocks until the partition queue
// drains or the client gives up. ?eof=1 closes every partition after
// this request's points, ending the stream once drained.
func (g *streamRegistry) handlePush(w http.ResponseWriter, r *http.Request) {
	st, id, ok := g.lookup(w, r, false)
	if !ok {
		return
	}
	if st.push == nil {
		http.Error(w, "stream "+id+` does not accept pushes (start it with "input":"push")`, http.StatusBadRequest)
		return
	}
	if st.session.Done() {
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
	dec := st.decoders.Get().(*ingest.PushDecoder)
	err := dec.Decode(body, binaryPush(r), b)
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

// handleCheckpoint snapshots the session's committed ingest offsets
// (GET /stream/{id}/checkpoint): the returned blob plus the original
// stream configuration is everything POST needs to resume. Committed
// offsets are simultaneously acked to the source, so a push session
// with replay enabled trims its retained points up to the checkpoint.
// Sessions without checkpointable partitions (CSV sessions over a
// single reader, push sessions generally being the target) get 409.
func (g *streamRegistry) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	st, _, ok := g.lookup(w, r, false)
	if !ok {
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
// buffer there is nothing to seek into — both reported as 409. So is
// a resume that finds another resume of the session under way or
// done: the source has one reader.
func (g *streamRegistry) handleResume(w http.ResponseWriter, r *http.Request) {
	st, id, ok := g.lookup(w, r, false)
	if !ok {
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
	if !st.resuming.TryLock() {
		http.Error(w, "stream "+id+" is already being resumed", http.StatusConflict)
		return
	}
	nst, err := st.resume(&ck)
	// Install the resumed session only if the entry still holds the one
	// it resumed from; a concurrent stop/delete wins and the fresh
	// session is torn down rather than leaked.
	if err == nil && !g.swap(id, st, nst) {
		nst.session.Stop()
		err = errors.New("stream " + id + " was removed while resuming")
	}
	if err != nil {
		st.resuming.Unlock()
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	resp := nst.startedJSON(id)
	resp["resumed"] = true
	writeJSON(w, resp)
}

func (g *streamRegistry) handlePoll(w http.ResponseWriter, r *http.Request) {
	st, id, ok := g.lookup(w, r, false)
	if !ok {
		return
	}
	// Capture doneness before polling: if the stream terminates while
	// Poll is in flight, the snapshot may predate the last batches, so
	// reporting done:false (client polls again, sees the final result)
	// errs in the harmless direction.
	done := st.session.Done()
	res, err := st.session.Poll()
	if err != nil {
		http.Error(w, err.Error(), sessionErrorStatus(err))
		return
	}
	writeStreamResponse(w, id, st, res, done)
}

func (g *streamRegistry) handleStop(w http.ResponseWriter, r *http.Request) {
	st, id, ok := g.lookup(w, r, true)
	if !ok {
		return
	}
	res, err := st.session.Stop()
	if err != nil {
		http.Error(w, err.Error(), sessionErrorStatus(err))
		return
	}
	writeStreamResponse(w, id, st, res, true)
}
