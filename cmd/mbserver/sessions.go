package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"macrobase/internal/core"
	"macrobase/internal/encode"
	"macrobase/internal/ingest"
	"macrobase/internal/pipeline"
)

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

// check applies the request's defaults and rejects every request the
// server will not start: the query config's own checks, the shard and
// partition bounds, and push-only settings on a CSV input.
func (req *streamStartRequest) check() error {
	if err := req.Validate(); err != nil {
		return err
	}
	if req.Shards == 0 {
		req.Shards = 1
	}
	if req.Shards < 0 {
		return errors.New("shards must be positive")
	}
	if req.Shards > maxShards {
		return fmt.Errorf("shards must be <= %d", maxShards)
	}
	if req.Input != pushInput {
		if req.Partitions != 0 {
			return errors.New(`partitions requires "input":"push"`)
		}
		if req.Replay {
			return errors.New(`replay requires "input":"push"`)
		}
		return nil
	}
	if req.Partitions == 0 {
		req.Partitions = req.Shards
	}
	if req.Partitions < 0 || req.Partitions > maxShards {
		return fmt.Errorf("partitions must be in 1..%d", maxShards)
	}
	return nil
}

// open opens the request's input — the CSV file, or a fresh push
// source that the /push handler feeds — and starts a session over it.
func (req *streamStartRequest) open() (*streamState, error) {
	enc := encode.NewEncoder(req.Attributes...)
	var src core.PartitionedSource
	var push *ingest.Push
	var closeInput func()
	if req.Input == pushInput {
		push = ingest.NewPush(req.Partitions)
		if req.Replay {
			push.EnableReplay()
		}
		src, closeInput = push, push.CloseAll
	} else {
		f, err := os.Open(req.Input)
		if err != nil {
			return nil, err
		}
		closeInput = func() { f.Close() }
		if src, err = ingest.NewCSVSource(f, req.Schema(), enc); err != nil {
			closeInput()
			return nil, err
		}
	}
	sess, err := pipeline.StartPartitionedStream(src, pipeline.FromQuery(&req.QueryConfig), req.Shards)
	if err != nil {
		closeInput()
		return nil, err
	}
	return newStreamState(req, enc, push, sess, closeInput), nil
}

// streamState is one resident streaming session: the request it was
// started from, its encoder (ids must decode with the encoder that
// interned them) and, for push sessions, the push source its /push
// handler feeds.
type streamState struct {
	req     *streamStartRequest
	session *pipeline.StreamSession
	enc     *encode.Encoder

	// Push ingestion state (push nil for CSV sessions). nextPart deals
	// unpinned push requests round-robin across partitions; decoders
	// pools the session's ingest.PushDecoder values across requests.
	push     *ingest.Push
	nextPart atomic.Uint64
	decoders sync.Pool

	// inputClosed is closed once the stream has terminated and its
	// input has been closed.
	inputClosed chan struct{}
	// resuming admits one resume to the session's source: a resume
	// holds it before it seeks, releases it if it fails, and keeps it
	// for good once it succeeds (the resumed session is a new
	// streamState).
	resuming sync.Mutex
}

// newStreamState wraps a started session — new over a CSV file, new
// over a push source, or resumed — and closes its input (closeInput)
// as soon as the stream terminates: a finished CSV session holds no
// descriptor, and pushes to a finished push session fail fast.
func newStreamState(req *streamStartRequest, enc *encode.Encoder, push *ingest.Push, sess *pipeline.StreamSession, closeInput func()) *streamState {
	st := &streamState{req: req, session: sess, enc: enc, push: push, inputClosed: make(chan struct{})}
	schema := req.Schema()
	st.decoders.New = func() any { return ingest.NewPushDecoder(schema, enc) }
	go func() {
		sess.Wait()
		closeInput()
		close(st.inputClosed)
	}()
	return st
}

// resume restarts the terminated push session from ck, over the same
// source and request. The caller holds st.resuming.
func (st *streamState) resume(ck *pipeline.Checkpoint) (*streamState, error) {
	<-st.inputClosed // the old session's close must not land on the new one
	sess, err := pipeline.ResumeStream(st.push, pipeline.FromQuery(&st.req.QueryConfig), st.req.Shards, ck)
	if err != nil {
		return nil, err
	}
	return newStreamState(st.req, st.enc, st.push, sess, st.push.CloseAll), nil
}

// startedJSON is the answer to a start or a resume.
func (st *streamState) startedJSON(id string) map[string]any {
	resp := map[string]any{"id": id, "shards": st.req.Shards}
	if st.push != nil {
		resp["partitions"] = st.push.NumPartitions()
	}
	return resp
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

func newStreamRegistry() *streamRegistry {
	return &streamRegistry{sessions: make(map[string]*streamState)}
}

// reserve claims a session slot and id under one critical section, so
// concurrent starts cannot race past the cap: the placeholder holds
// the slot until install replaces it or release frees it. Under
// pressure it first drops sessions whose streams have finished (and
// with them their shard state) — finished-but-unpolled results are
// sacrificed only then, so clients that poll or stop promptly never
// notice.
func (g *streamRegistry) reserve() (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.sessions) >= maxSessions {
		for id, st := range g.sessions {
			if st.session != nil && st.session.Done() {
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

// swap replaces the entry for id with next if it still holds cur; a
// concurrent stop or delete wins.
func (g *streamRegistry) swap(id string, cur, next *streamState) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sessions[id] != cur {
		return false
	}
	g.sessions[id] = next
	return true
}

// lookup fetches the session named by the request path, taking it
// out of the registry when take is set. An unknown id, or a reserved
// placeholder (start still in flight), is answered 404.
func (g *streamRegistry) lookup(w http.ResponseWriter, r *http.Request, take bool) (*streamState, string, bool) {
	id := r.PathValue("id")
	g.mu.Lock()
	st, ok := g.sessions[id]
	ok = ok && st.session != nil
	if ok && take {
		delete(g.sessions, id)
	}
	g.mu.Unlock()
	if !ok {
		http.Error(w, "unknown stream "+id, http.StatusNotFound)
	}
	return st, id, ok
}
