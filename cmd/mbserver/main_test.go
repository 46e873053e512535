package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"macrobase/internal/ingest"
)

// writeTestCSV materializes a small CSV with one anomalous device.
func writeTestCSV(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewPCG(1, 2))
	var b strings.Builder
	b.WriteString("power,device\n")
	for i := 0; i < 20_000; i++ {
		dev := fmt.Sprintf("dev%d", rng.IntN(20))
		v := 10 + rng.NormFloat64()*2
		if dev == "dev7" && rng.Float64() < 0.5 {
			v = 60 + rng.NormFloat64()*2
		}
		fmt.Fprintf(&b, "%.4f,%s\n", v, dev)
	}
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestHandleQueryOneShot(t *testing.T) {
	csvPath := writeTestCSV(t)
	body := fmt.Sprintf(`{"input":%q,"metrics":["power"],"attributes":["device"],"minSupport":0.05}`, csvPath)
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	rec := httptest.NewRecorder()
	handleQuery(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Points != 20_000 {
		t.Errorf("points = %d", resp.Points)
	}
	found := false
	for _, e := range resp.Explanations {
		for _, a := range e.Attributes {
			if a.Column == "device" && a.Value == "dev7" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("anomalous device not reported: %+v", resp.Explanations)
	}
}

func TestHandleQueryStreaming(t *testing.T) {
	csvPath := writeTestCSV(t)
	body := fmt.Sprintf(`{"input":%q,"metrics":["power"],"attributes":["device"],"streaming":true,"minSupport":0.05,"decayEveryPoints":5000}`, csvPath)
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	rec := httptest.NewRecorder()
	handleQuery(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

func TestHandleQueryErrors(t *testing.T) {
	// Invalid config.
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{}`))
	rec := httptest.NewRecorder()
	handleQuery(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("invalid config status = %d", rec.Code)
	}
	// Missing input file.
	req = httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"input":"/nonexistent.csv","metrics":["m"],"attributes":["a"]}`))
	rec = httptest.NewRecorder()
	handleQuery(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing file status = %d", rec.Code)
	}
}

func TestJSONSafe(t *testing.T) {
	if jsonSafe(math.Inf(1)) != math.MaxFloat64 {
		t.Error("inf not mapped")
	}
	if jsonSafe(math.NaN()) != 0 {
		t.Error("nan not mapped")
	}
	if jsonSafe(3.5) != 3.5 {
		t.Error("finite value altered")
	}
}

// startStream posts a stream/start request and returns the session id.
func startStream(t *testing.T, srv *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(srv.URL+"/stream/start", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("start status %d", resp.StatusCode)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" {
		t.Fatal("empty stream id")
	}
	return out.ID
}

func getJSON(t *testing.T, url string, dst any) int {
	t.Helper()
	resp, err := http.Get(url)
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

func postJSON(t *testing.T, url string, dst any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
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

// TestStreamEndpointsLifecycle: start a sharded streaming session over
// CSV data, poll it, stop it, and check the final report still names
// the anomalous device.
func TestStreamEndpointsLifecycle(t *testing.T) {
	srv := httptest.NewServer(newMux(newStreamRegistry()))
	defer srv.Close()
	csvPath := writeTestCSV(t)
	body := fmt.Sprintf(`{"input":%q,"metrics":["power"],"attributes":["device"],"minSupport":0.05,"decayEveryPoints":5000,"shards":2}`, csvPath)
	id := startStream(t, srv, body)

	var poll streamResponse
	if code := getJSON(t, srv.URL+"/stream/"+id, &poll); code != http.StatusOK {
		t.Fatalf("poll status %d", code)
	}
	if poll.ID != id {
		t.Errorf("poll id %q, want %q", poll.ID, id)
	}
	// Stop only once the run has read the CSV: a stop that beats the
	// first batch (about two runs in three on a 2-core box) reports a
	// legitimately empty stream and fails every check below.
	waitStreamDone(t, srv, id)

	var final streamResponse
	if code := postJSON(t, srv.URL+"/stream/"+id+"/stop", &final); code != http.StatusOK {
		t.Fatalf("stop status %d", code)
	}
	if !final.Done {
		t.Error("final report not done")
	}
	if final.Points == 0 {
		t.Error("final report has no points")
	}
	found := false
	for _, e := range final.Explanations {
		for _, a := range e.Attributes {
			if a.Column == "device" && a.Value == "dev7" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("anomalous device not in final report: %+v", final.Explanations)
	}
	// The skew breakdown rides along: one status per shard, per-shard
	// points summing to the stream total, and the imbalance metric.
	if final.Shards == nil || len(final.Shards.PerShard) != 2 {
		t.Fatalf("shards block: %+v", final.Shards)
	}
	sum := 0
	for _, s := range final.Shards.PerShard {
		sum += s.Points
	}
	if sum != final.Points {
		t.Errorf("per-shard points sum %d, want %d", sum, final.Points)
	}
	if final.Shards.Imbalance < 1 {
		t.Errorf("imbalance %v < 1", final.Shards.Imbalance)
	}
	// The session is reaped: further polls and stops 404.
	if code := getJSON(t, srv.URL+"/stream/"+id, nil); code != http.StatusNotFound {
		t.Errorf("poll after stop status %d, want 404", code)
	}
	if code := postJSON(t, srv.URL+"/stream/"+id+"/stop", nil); code != http.StatusNotFound {
		t.Errorf("double stop status %d, want 404", code)
	}
}

// TestStreamEndpointsConcurrent hammers the registry with concurrent
// session starts, polls, and stops; run under -race this exercises the
// full ingest/worker/snapshot/stop concurrency of the sharded engine
// behind the HTTP surface.
func TestStreamEndpointsConcurrent(t *testing.T) {
	srv := httptest.NewServer(newMux(newStreamRegistry()))
	defer srv.Close()
	csvPath := writeTestCSV(t)

	const sessions = 4
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"input":%q,"metrics":["power"],"attributes":["device"],"minSupport":0.05,"decayEveryPoints":2000,"shards":%d}`, csvPath, 1+s%3)
			id := startStream(t, srv, body)

			var pollers sync.WaitGroup
			for p := 0; p < 3; p++ {
				pollers.Add(1)
				go func() {
					defer pollers.Done()
					for i := 0; i < 5; i++ {
						code := getJSON(t, srv.URL+"/stream/"+id, nil)
						// 404 is legal once a concurrent stop reaped it.
						if code != http.StatusOK && code != http.StatusNotFound {
							t.Errorf("poll status %d", code)
							return
						}
					}
				}()
			}
			pollers.Wait()
			code := postJSON(t, srv.URL+"/stream/"+id+"/stop", nil)
			if code != http.StatusOK && code != http.StatusNotFound {
				t.Errorf("stop status %d", code)
			}
		}(s)
	}
	wg.Wait()
}

// TestStreamStartErrors covers rejected stream configurations. The
// push-session rows are hostile: a push session needs no file, so
// nothing but validation stands between each of them and the session
// runner (a decay rate outside [0, 1) panicked there, on a goroutine
// net/http cannot recover, and took the server down) or a routing table
// of billions of buckets. Every row must be a 400 naming the bad field,
// and a session started beforehand must still answer polls afterwards.
func TestStreamStartErrors(t *testing.T) {
	srv := httptest.NewServer(newMux(newStreamRegistry()))
	defer srv.Close()
	var started map[string]any
	resp, err := http.Post(srv.URL+"/stream/start", "application/json",
		strings.NewReader(`{"input":"push","metrics":["m"],"attributes":["a"],"shards":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&started); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("good push start: status %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	const push = `"input":"push","metrics":["m"],"attributes":["a"]`
	for _, tc := range []struct{ name, body, names string }{
		{"empty config", `{}`, ""},
		{"bad json", `{"shards":`, ""},
		{"unknown field", `{"input":"x.csv","metrics":["m"],"attributes":["a"],"bogus":1}`, "bogus"},
		{"missing file", `{"input":"/nonexistent.csv","metrics":["m"],"attributes":["a"]}`, ""},
		{"neg shards", `{"input":"/nonexistent.csv","metrics":["m"],"attributes":["a"],"shards":-2}`, "shards"},
		{"huge shards", `{"input":"/nonexistent.csv","metrics":["m"],"attributes":["a"],"shards":1000000000}`, "shards"},
		{"negative decayRate", `{` + push + `,"decayRate":-3}`, "decayRate"},
		{"decayRate one", `{` + push + `,"decayRate":1}`, "decayRate"},
		{"decayRate above one", `{` + push + `,"decayRate":7,"shards":2}`, "decayRate"},
		{"negative decayEveryPoints", `{` + push + `,"decayEveryPoints":-1}`, "decayEveryPoints"},
		{"negative reservoirSize", `{` + push + `,"reservoirSize":-5}`, "reservoirSize"},
		{"negative coordinateEvery", `{` + push + `,"coordinateEvery":-1,"shards":2}`, "coordinateEvery"},
		{"negative routingBuckets", `{` + push + `,"routingBuckets":-1,"shards":2}`, "routingBuckets"},
		{"huge routingBuckets", `{` + push + `,"routingBuckets":10000000000,"shards":2}`, "routingBuckets must be <="},
		// The poll worker count is no longer a setting.
		{"pollParallelism", `{` + push + `,"pollParallelism":4}`, "pollParallelism"},
	} {
		resp, err := http.Post(srv.URL+"/stream/start", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v (did the server die?)", tc.name, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if !strings.Contains(string(msg), tc.names) {
			t.Errorf("%s: response %q does not name %q", tc.name, msg, tc.names)
		}
	}
	id := started["id"].(string)
	if code := getJSON(t, srv.URL+"/stream/"+id, nil); code != http.StatusOK {
		t.Errorf("poll of the good session after the hostile starts: status %d, want 200", code)
	}
	if code := postJSON(t, srv.URL+"/stream/"+id+"/stop", nil); code != http.StatusOK {
		t.Errorf("stop of the good session: status %d, want 200", code)
	}
	if code := getJSON(t, srv.URL+"/stream/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown id poll status %d, want 404", code)
	}
}

// pushNDJSON posts NDJSON lines to a push stream and returns status +
// decoded response.
func pushNDJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// TestStreamPushLifecycle: start a push session, feed it NDJSON from
// several producer requests across partitions, poll, send eof, and
// check the final report names the anomalous device.
func TestStreamPushLifecycle(t *testing.T) {
	srv := httptest.NewServer(newMux(newStreamRegistry()))
	defer srv.Close()
	body := `{"input":"push","metrics":["power"],"attributes":["device"],"minSupport":0.05,"decayEveryPoints":5000,"shards":2,"partitions":2}`
	id := startStream(t, srv, body)
	pushURL := srv.URL + "/stream/" + id + "/push"

	// Anomalous dev7 at high power, background fleet at low power,
	// pushed in chunks that alternate partitions round-robin.
	rng := rand.New(rand.NewPCG(3, 4))
	var chunk strings.Builder
	total := 0
	flush := func() {
		if chunk.Len() == 0 {
			return
		}
		code, out := pushNDJSON(t, pushURL, chunk.String())
		if code != http.StatusOK {
			t.Fatalf("push status %d", code)
		}
		if int(out["accepted"].(float64)) == 0 {
			t.Fatal("push accepted nothing")
		}
		chunk.Reset()
	}
	for i := 0; i < 12_000; i++ {
		dev := fmt.Sprintf("dev%d", rng.IntN(20))
		v := 10 + rng.NormFloat64()*2
		if dev == "dev7" && rng.Float64() < 0.5 {
			v = 60 + rng.NormFloat64()*2
		}
		fmt.Fprintf(&chunk, "{\"metrics\":[%.4f],\"attributes\":{\"device\":%q}}\n", v, dev)
		total++
		if total%2000 == 0 {
			flush()
		}
	}
	flush()

	// A live poll works while the stream is open.
	var poll streamResponse
	if code := getJSON(t, srv.URL+"/stream/"+id, &poll); code != http.StatusOK {
		t.Fatalf("poll status %d", code)
	}
	if poll.Done {
		t.Error("push stream reported done while producers are open")
	}

	// End the stream; the session drains and finishes on its own.
	if code, out := pushNDJSON(t, pushURL+"?eof=1", ""); code != http.StatusOK || out["eof"] != true {
		t.Fatalf("eof push: status %d, %v", code, out)
	}
	// Pushing after eof is a clean conflict, never a panic or a hang.
	if code, _ := pushNDJSON(t, pushURL, `{"metrics":[1],"attributes":{"device":"dev1"}}`); code != http.StatusConflict && code != http.StatusServiceUnavailable {
		t.Fatalf("post-eof push status %d, want conflict", code)
	}

	var final streamResponse
	if code := postJSON(t, srv.URL+"/stream/"+id+"/stop", &final); code != http.StatusOK {
		t.Fatalf("stop status %d", code)
	}
	if final.Points != total {
		t.Errorf("final points %d, want %d", final.Points, total)
	}
	found := false
	for _, e := range final.Explanations {
		for _, a := range e.Attributes {
			if a.Column == "device" && a.Value == "dev7" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("anomalous device not in final report: %+v", final.Explanations)
	}
}

// TestStreamPushErrors covers push-specific rejections.
func TestStreamPushErrors(t *testing.T) {
	srv := httptest.NewServer(newMux(newStreamRegistry()))
	defer srv.Close()

	// partitions without push input.
	resp, err := http.Post(srv.URL+"/stream/start", "application/json",
		strings.NewReader(`{"input":"/nonexistent.csv","metrics":["m"],"attributes":["a"],"partitions":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("partitions on csv session: status %d", resp.StatusCode)
	}

	id := startStream(t, srv, `{"input":"push","metrics":["power"],"attributes":["device"],"shards":2}`)
	pushURL := srv.URL + "/stream/" + id + "/push"
	for name, tc := range map[string]struct {
		url  string
		body string
	}{
		"bad json":          {pushURL, `{"metrics":`},
		"metric arity":      {pushURL, `{"metrics":[1,2],"attributes":{"device":"d"}}`},
		"missing attribute": {pushURL, `{"metrics":[1],"attributes":{"other":"d"}}`},
		"bad partition":     {pushURL + "?partition=99", `{"metrics":[1],"attributes":{"device":"d"}}`},
	} {
		if code, _ := pushNDJSON(t, tc.url, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	// Pushing to a CSV session is rejected.
	csvPath := writeTestCSV(t)
	csvID := startStream(t, srv, fmt.Sprintf(`{"input":%q,"metrics":["power"],"attributes":["device"],"minSupport":0.05}`, csvPath))
	if code, _ := pushNDJSON(t, srv.URL+"/stream/"+csvID+"/push", `{"metrics":[1],"attributes":{"device":"d"}}`); code != http.StatusBadRequest {
		t.Errorf("push to csv session: status %d, want 400", code)
	}
	postJSON(t, srv.URL+"/stream/"+id+"/stop", nil)
	postJSON(t, srv.URL+"/stream/"+csvID+"/stop", nil)
}

// pushBinary posts a binary row body under the binary content type.
func pushBinary(t *testing.T, url string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, ingest.BinaryContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// binaryPushBody encodes records into one binary request body.
func binaryPushBody(t *testing.T, recs []pushTestRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := ingest.NewBinaryRowWriter(&buf)
	for _, r := range recs {
		if err := w.WriteRow(r.metrics, r.attrs, r.time); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

type pushTestRecord struct {
	metrics []float64
	attrs   []string
	time    float64
}

// pushTestRecords builds a deterministic workload with one anomalous
// device.
func pushTestRecords(n int) []pushTestRecord {
	rng := rand.New(rand.NewPCG(11, 13))
	recs := make([]pushTestRecord, n)
	for i := range recs {
		dev := fmt.Sprintf("dev%d", rng.IntN(20))
		v := 10 + rng.NormFloat64()*2
		if dev == "dev7" && rng.Float64() < 0.5 {
			v = 60 + rng.NormFloat64()*2
		}
		recs[i] = pushTestRecord{metrics: []float64{v}, attrs: []string{dev, fmt.Sprintf("v%d", i%3)}}
	}
	return recs
}

// ndjsonPushBody encodes the same records as NDJSON.
func ndjsonPushBody(recs []pushTestRecord) string {
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "{\"metrics\":[%v],\"attributes\":{\"device\":%q,\"version\":%q}}\n",
			r.metrics[0], r.attrs[0], r.attrs[1])
	}
	return b.String()
}

// waitStreamDone polls until the session reports done (eof drained).
func waitStreamDone(t *testing.T, srv *httptest.Server, id string) streamResponse {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		var poll streamResponse
		if code := getJSON(t, srv.URL+"/stream/"+id, &poll); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if poll.Done {
			return poll
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("stream did not finish")
	return streamResponse{}
}

// TestStreamPushBinaryMatchesNDJSON: the same records pushed through
// the binary row format and through NDJSON, with identical request
// chunking, must produce identical ranked explanations — the wire
// format is presentation, not semantics. The poll/stop responses must
// also carry the producer-side ingest counters.
func TestStreamPushBinaryMatchesNDJSON(t *testing.T) {
	srv := httptest.NewServer(newMux(newStreamRegistry()))
	defer srv.Close()
	recs := pushTestRecords(10_000)
	// Coordination off: this is a bit-exactness comparison between two
	// runs, and coordination rounds fire asynchronously.
	cfg := `{"input":"push","metrics":["power"],"attributes":["device","version"],"minSupport":0.05,"decayEveryPoints":4000,"shards":2,"partitions":1,"disableGlobalThreshold":true}`
	const chunk = 2500

	run := func(binary bool) streamResponse {
		id := startStream(t, srv, cfg)
		pushURL := srv.URL + "/stream/" + id + "/push"
		for off := 0; off < len(recs); off += chunk {
			part := recs[off : off+chunk]
			if binary {
				code, out := pushBinary(t, pushURL, binaryPushBody(t, part))
				if code != http.StatusOK || int(out["accepted"].(float64)) != chunk {
					t.Fatalf("binary push: status %d, %v", code, out)
				}
			} else {
				code, out := pushNDJSON(t, pushURL, ndjsonPushBody(part))
				if code != http.StatusOK || int(out["accepted"].(float64)) != chunk {
					t.Fatalf("ndjson push: status %d, %v", code, out)
				}
			}
		}
		if code, _ := pushNDJSON(t, pushURL+"?eof=1", ""); code != http.StatusOK {
			t.Fatalf("eof status %d", code)
		}
		waitStreamDone(t, srv, id)
		var final streamResponse
		if code := postJSON(t, srv.URL+"/stream/"+id+"/stop", &final); code != http.StatusOK {
			t.Fatalf("stop status %d", code)
		}
		if final.Points != len(recs) {
			t.Fatalf("final points %d, want %d", final.Points, len(recs))
		}
		if len(final.Ingest) != 1 {
			t.Fatalf("ingest block: %+v", final.Ingest)
		}
		if final.Ingest[0].Points != int64(len(recs)) || final.Ingest[0].Batches != 4 {
			t.Fatalf("ingest counters: %+v", final.Ingest[0])
		}
		return final
	}

	nd := run(false)
	bin := run(true)
	if len(nd.Explanations) == 0 {
		t.Fatal("ndjson run produced no explanations; equivalence is vacuous")
	}
	if !reflect.DeepEqual(nd.Explanations, bin.Explanations) {
		t.Fatalf("binary and NDJSON runs diverge:\n ndjson %+v\n binary %+v", nd.Explanations, bin.Explanations)
	}
}

// TestStreamPushBinaryErrors: malformed binary bodies are clean 400s
// with the session still usable, and ?format=binary selects the
// decoder without the content type.
func TestStreamPushBinaryErrors(t *testing.T) {
	srv := httptest.NewServer(newMux(newStreamRegistry()))
	defer srv.Close()
	id := startStream(t, srv, `{"input":"push","metrics":["power"],"attributes":["device"],"shards":2}`)
	pushURL := srv.URL + "/stream/" + id + "/push"

	if code, _ := pushBinary(t, pushURL, []byte("garbage-not-mbr1")); code != http.StatusBadRequest {
		t.Fatalf("bad magic: status %d, want 400", code)
	}
	// Truncated row after valid magic.
	var buf bytes.Buffer
	w := ingest.NewBinaryRowWriter(&buf)
	if err := w.WriteRow([]float64{1}, []string{"d0"}, 0); err != nil {
		t.Fatal(err)
	}
	if code, _ := pushBinary(t, pushURL, buf.Bytes()[:buf.Len()-2]); code != http.StatusBadRequest {
		t.Fatalf("truncated row: status %d, want 400", code)
	}
	// Arity mismatch.
	buf.Reset()
	w = ingest.NewBinaryRowWriter(&buf)
	if err := w.WriteRow([]float64{1, 2}, []string{"d0"}, 0); err != nil {
		t.Fatal(err)
	}
	if code, _ := pushBinary(t, pushURL, buf.Bytes()); code != http.StatusBadRequest {
		t.Fatalf("arity mismatch: status %d, want 400", code)
	}

	// The session survives the bad requests; ?format=binary works
	// without the content type.
	buf.Reset()
	w = ingest.NewBinaryRowWriter(&buf)
	for i := 0; i < 10; i++ {
		if err := w.WriteRow([]float64{float64(i)}, []string{"d0"}, 0); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(pushURL+"?format=binary", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || int(out["accepted"].(float64)) != 10 {
		t.Fatalf("format=binary push: status %d, %v", resp.StatusCode, out)
	}

	// Media types are case-insensitive (RFC 9110): a mixed-case binary
	// content type with parameters must still select the binary decoder.
	req, err := http.NewRequest(http.MethodPost, pushURL, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "Application/X-Macrobase-Rows; charset=binary")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	clear(out)
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || int(out["accepted"].(float64)) != 10 {
		t.Fatalf("mixed-case binary content type: status %d, %v", resp.StatusCode, out)
	}

	// An empty binary body with ?eof=1 must end the stream cleanly,
	// exactly like the NDJSON idiom — not 400 with the eof dropped.
	if code, out := pushBinary(t, pushURL+"?eof=1", nil); code != http.StatusOK || out["eof"] != true {
		t.Fatalf("empty binary eof: status %d, %v", code, out)
	}
	waitStreamDone(t, srv, id)
	postJSON(t, srv.URL+"/stream/"+id+"/stop", nil)
}

// TestPprofMountedOnlyOnRequest pins both states of the -pprof flag:
// the default mux serves nothing under /debug/pprof/, and mountPprof
// adds the index and the named profiles without disturbing the API
// routes.
func TestPprofMountedOnlyOnRequest(t *testing.T) {
	get := func(mux *http.ServeMux, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	off := newMux(newStreamRegistry())
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/cmdline"} {
		if rec := get(off, path); rec.Code != http.StatusNotFound {
			t.Errorf("pprof off: GET %s = %d, want 404", path, rec.Code)
		}
	}
	on := newMux(newStreamRegistry())
	mountPprof(on)
	if rec := get(on, "/debug/pprof/"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("pprof on: index = %d, body lists no profiles", rec.Code)
	}
	for _, path := range []string{"/debug/pprof/heap", "/debug/pprof/cmdline", "/debug/pprof/symbol", "/healthz"} {
		if rec := get(on, path); rec.Code != http.StatusOK {
			t.Errorf("pprof on: GET %s = %d, want 200", path, rec.Code)
		}
	}
}
