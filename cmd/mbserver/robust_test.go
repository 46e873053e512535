package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"macrobase/internal/core"
	"macrobase/internal/ingest"
	"macrobase/internal/pipeline"
)

// postBlob posts a JSON body (postJSON posts an empty one).
func postBlob(t *testing.T, url string, body []byte, dst any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestStreamCheckpointResume drives the durable-session loop over
// HTTP: push with replay, checkpoint mid-stream, drain, resume from
// the blob under the same id, and verify the resumed run covers
// exactly the unacked tail.
func TestStreamCheckpointResume(t *testing.T) {
	srv := httptest.NewServer(newMux(newStreamRegistry()))
	defer srv.Close()
	id := startStream(t, srv, `{"input":"push","metrics":["power"],"attributes":["device","version"],"minSupport":0.05,"shards":2,"partitions":1,"replay":true}`)
	pushURL := srv.URL + "/stream/" + id + "/push"
	ckURL := srv.URL + "/stream/" + id + "/checkpoint"

	const n = 5000
	recs := pushTestRecords(n)
	if code, _ := pushNDJSON(t, pushURL, ndjsonPushBody(recs)); code != http.StatusOK {
		t.Fatalf("push status %d", code)
	}

	// Resume needs a terminated session.
	if code := postBlob(t, ckURL, []byte(`{"version":1,"partitions":[{"partition":0,"offset":0,"checkpointable":true}]}`), nil); code != http.StatusConflict {
		t.Fatalf("resume while running: status %d, want 409", code)
	}

	var ck pipeline.Checkpoint
	if code := getJSON(t, ckURL, &ck); code != http.StatusOK {
		t.Fatalf("checkpoint status %d", code)
	}
	if ck.Version != pipeline.CheckpointVersion || len(ck.Partitions) != 1 {
		t.Fatalf("checkpoint blob: %+v", ck)
	}
	po := ck.Partitions[0]
	if !po.Checkpointable || po.Offset < 0 || po.Offset > n {
		t.Fatalf("partition entry: %+v", po)
	}

	if code, _ := pushNDJSON(t, pushURL+"?eof=1", ""); code != http.StatusOK {
		t.Fatal("eof rejected")
	}
	// Drain via polls only: a stop would reap the registry entry and
	// the session must stay addressable to be resumed.
	final := waitStreamDone(t, srv, id)
	if final.Points != n {
		t.Fatalf("first run saw %d points, want %d", final.Points, n)
	}

	blob, err := json.Marshal(&ck)
	if err != nil {
		t.Fatal(err)
	}
	resumed := map[string]any{}
	if code := postBlob(t, ckURL, blob, &resumed); code != http.StatusOK {
		t.Fatalf("resume status %d", code)
	}
	if resumed["resumed"] != true || resumed["id"] != id {
		t.Fatalf("resume response: %+v", resumed)
	}
	final2 := waitStreamDone(t, srv, id)
	if want := n - int(po.Offset); final2.Points != want {
		t.Fatalf("resumed run saw %d points, want the %d-point unacked tail (committed %d)", final2.Points, want, po.Offset)
	}
	// A checkpoint of the finished resumed session covers everything.
	var ck2 pipeline.Checkpoint
	if code := getJSON(t, ckURL, &ck2); code != http.StatusOK {
		t.Fatalf("post-run checkpoint status %d", code)
	}
	if len(ck2.Partitions) != 1 || ck2.Partitions[0].Offset != n {
		t.Fatalf("post-run checkpoint: %+v", ck2)
	}
	postJSON(t, srv.URL+"/stream/"+id+"/stop", nil)
}

// TestStreamCheckpointErrors covers the sessions and blobs the
// checkpoint endpoints must refuse.
func TestStreamCheckpointErrors(t *testing.T) {
	srv := httptest.NewServer(newMux(newStreamRegistry()))
	defer srv.Close()

	if code := getJSON(t, srv.URL+"/stream/nope/checkpoint", nil); code != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", code)
	}

	// CSV sessions have no checkpointable partitions and no push
	// source to resume.
	csvID := startStream(t, srv, `{"input":"`+writeTestCSV(t)+`","metrics":["power"],"attributes":["device"],"minSupport":0.05}`)
	if code := getJSON(t, srv.URL+"/stream/"+csvID+"/checkpoint", nil); code != http.StatusConflict {
		t.Errorf("checkpoint of csv session: status %d, want 409", code)
	}
	if code := postBlob(t, srv.URL+"/stream/"+csvID+"/checkpoint", []byte(`{"version":1}`), nil); code != http.StatusConflict {
		t.Errorf("resume of csv session: status %d, want 409", code)
	}
	postJSON(t, srv.URL+"/stream/"+csvID+"/stop", nil)

	// A push session without replay can checkpoint (offsets are free)
	// but not resume (nothing is retained to seek into).
	plainID := startStream(t, srv, `{"input":"push","metrics":["power"],"attributes":["device"],"partitions":1}`)
	plainPush := srv.URL + "/stream/" + plainID + "/push"
	if code, _ := pushNDJSON(t, plainPush, `{"metrics":[1],"attributes":{"device":"d"}}`); code != http.StatusOK {
		t.Fatal("push failed")
	}
	pushNDJSON(t, plainPush+"?eof=1", "")
	waitStreamDone(t, srv, plainID)
	ckURL := srv.URL + "/stream/" + plainID + "/checkpoint"
	if code := postBlob(t, ckURL, []byte(`{"version":1,"partitions":[{"partition":0,"offset":1,"checkpointable":true}]}`), nil); code != http.StatusConflict {
		t.Errorf("resume without replay: status %d, want 409", code)
	}
	postJSON(t, srv.URL+"/stream/"+plainID+"/stop", nil)

	// Replay session, terminated: malformed and mis-versioned blobs.
	id := startStream(t, srv, `{"input":"push","metrics":["power"],"attributes":["device"],"partitions":1,"replay":true}`)
	pushNDJSON(t, srv.URL+"/stream/"+id+"/push?eof=1", "")
	waitStreamDone(t, srv, id)
	ckURL = srv.URL + "/stream/" + id + "/checkpoint"
	if code := postBlob(t, ckURL, []byte(`{"version":`), nil); code != http.StatusBadRequest {
		t.Errorf("garbage blob: status %d, want 400", code)
	}
	if code := postBlob(t, ckURL, []byte(`{"version":99,"partitions":[{"partition":0,"offset":0,"checkpointable":true}]}`), nil); code != http.StatusConflict {
		t.Errorf("wrong version: status %d, want 409", code)
	}
	postJSON(t, srv.URL+"/stream/"+id+"/stop", nil)
}

// TestStreamCheckpointRejectsMisnumberedPartitions: a blob whose entry
// count matches but which names partition 0 twice (and never names
// partition 1) is a 409, and the session stays resumable from a
// well-formed blob, which replays both partitions' tails.
func TestStreamCheckpointRejectsMisnumberedPartitions(t *testing.T) {
	srv := httptest.NewServer(newMux(newStreamRegistry()))
	defer srv.Close()
	id := startStream(t, srv, `{"input":"push","metrics":["power"],"attributes":["device","version"],"minSupport":0.05,"shards":2,"partitions":2,"replay":true}`)
	pushURL := srv.URL + "/stream/" + id + "/push"
	const n = 1000
	for part := 0; part < 2; part++ {
		if code, _ := pushNDJSON(t, fmt.Sprintf("%s?partition=%d", pushURL, part), ndjsonPushBody(pushTestRecords(n))); code != http.StatusOK {
			t.Fatalf("push to partition %d: status %d", part, code)
		}
	}
	pushNDJSON(t, pushURL+"?eof=1", "")
	waitStreamDone(t, srv, id)

	ckURL := srv.URL + "/stream/" + id + "/checkpoint"
	twice := `{"version":1,"partitions":[{"partition":0,"offset":0,"checkpointable":true},{"partition":0,"offset":0,"checkpointable":true}]}`
	if code := postBlob(t, ckURL, []byte(twice), nil); code != http.StatusConflict {
		t.Fatalf("checkpoint naming partition 0 twice: status %d, want 409", code)
	}
	good := `{"version":1,"partitions":[{"partition":0,"offset":0,"checkpointable":true},{"partition":1,"offset":0,"checkpointable":true}]}`
	if code := postBlob(t, ckURL, []byte(good), nil); code != http.StatusOK {
		t.Fatalf("well-formed checkpoint: status %d, want 200", code)
	}
	if final := waitStreamDone(t, srv, id); final.Points != 2*n {
		t.Fatalf("resumed run saw %d points, want %d", final.Points, 2*n)
	}
	postJSON(t, srv.URL+"/stream/"+id+"/stop", nil)
}

// TestControlBodiesCapped: /query, /stream/start and POST
// /stream/{id}/checkpoint stop reading a JSON body at maxControlBody
// and answer 413, so one request cannot pin unbounded server memory.
func TestControlBodiesCapped(t *testing.T) {
	srv := httptest.NewServer(newMux(newStreamRegistry()))
	defer srv.Close()
	// A syntactically open value: the decoder keeps buffering until the
	// cap cuts it off.
	huge := []byte(`{"input":"` + strings.Repeat("a", maxControlBody+1) + `"}`)

	id := startStream(t, srv, `{"input":"push","metrics":["power"],"attributes":["device"],"partitions":1,"replay":true}`)
	pushNDJSON(t, srv.URL+"/stream/"+id+"/push?eof=1", "")
	waitStreamDone(t, srv, id)

	for _, path := range []string{"/query", "/stream/start", "/stream/" + id + "/checkpoint"} {
		if code := postBlob(t, srv.URL+path, huge, nil); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", path, len(huge), code)
		}
	}
	postJSON(t, srv.URL+"/stream/"+id+"/stop", nil)
}

// TestStreamHealthBlock: healthy sessions report "ok" end to end, and
// the health fold turns failure records into the degraded block.
func TestStreamHealthBlock(t *testing.T) {
	srv := httptest.NewServer(newMux(newStreamRegistry()))
	defer srv.Close()
	id := startStream(t, srv, `{"input":"push","metrics":["power"],"attributes":["device","version"],"minSupport":0.05,"shards":2,"partitions":1}`)
	pushURL := srv.URL + "/stream/" + id + "/push"
	if code, _ := pushNDJSON(t, pushURL, ndjsonPushBody(pushTestRecords(1000))); code != http.StatusOK {
		t.Fatal("push failed")
	}
	var poll streamResponse
	if code := getJSON(t, srv.URL+"/stream/"+id, &poll); code != http.StatusOK {
		t.Fatal("poll failed")
	}
	if poll.Health.Status != "ok" {
		t.Errorf("live health = %+v, want ok", poll.Health)
	}
	pushNDJSON(t, pushURL+"?eof=1", "")
	final := waitStreamDone(t, srv, id)
	if final.Health.Status != "ok" || len(final.Health.Errors) != 0 {
		t.Errorf("final health = %+v, want ok", final.Health)
	}
	postJSON(t, srv.URL+"/stream/"+id+"/stop", nil)

	degraded := healthOf(&pipeline.ShardedResult{
		Degraded: true,
		Stats: core.StreamStats{
			Degraded: true,
			ShardFailures: []core.ShardFailure{
				{Shard: 1, Err: "panic: boom", DroppedPoints: 42},
				{Shard: 3, Err: "panic: bust", DroppedPoints: 8},
			},
		},
	})
	want := healthJSON{Status: "degraded", DegradedShards: []int{1, 3}, DroppedPoints: 50, Errors: []string{"panic: boom", "panic: bust"}}
	if !reflect.DeepEqual(degraded, want) {
		t.Errorf("healthOf = %+v, want %+v", degraded, want)
	}
	if clean := healthOf(&pipeline.ShardedResult{}); clean.Status != "ok" {
		t.Errorf("healthOf(clean) = %+v", clean)
	}
}

// TestStreamPushTornBinary: torn binary frames (a connection cut
// mid-write) must 400 without wedging the session — later pushes on
// the same stream keep working and the session drains clean.
func TestStreamPushTornBinary(t *testing.T) {
	srv := httptest.NewServer(newMux(newStreamRegistry()))
	defer srv.Close()
	id := startStream(t, srv, `{"input":"push","metrics":["power"],"attributes":["device","version"],"minSupport":0.05,"partitions":1}`)
	pushURL := srv.URL + "/stream/" + id + "/push"

	frames := binaryPushBody(t, pushTestRecords(300))
	rejected := 0
	for seed := uint64(1); seed <= 8; seed++ {
		code, _ := pushBinary(t, pushURL, ingest.TornFrames(frames, seed))
		switch code {
		case http.StatusBadRequest:
			rejected++
		case http.StatusOK:
			// The tear landed on a row boundary: a clean prefix is a
			// legal (shorter) stream.
		default:
			t.Fatalf("seed %d: torn push status %d", seed, code)
		}
		// The session survives the bad request.
		if code, _ := pushBinary(t, pushURL, binaryPushBody(t, pushTestRecords(10))); code != http.StatusOK {
			t.Fatalf("seed %d: push after torn frame: status %d", seed, code)
		}
	}
	if rejected == 0 {
		t.Error("no torn frame was rejected across 8 seeds")
	}
	pushNDJSON(t, pushURL+"?eof=1", "")
	final := waitStreamDone(t, srv, id)
	if final.Health.Status != "ok" {
		t.Errorf("request-level decode errors degraded the session: %+v", final.Health)
	}
	postJSON(t, srv.URL+"/stream/"+id+"/stop", nil)
}
