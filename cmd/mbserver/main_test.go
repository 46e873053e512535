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

	"macrobase/internal/core"
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
	// Out-of-range settings over a readable input. A reservoir too large
	// to allocate would panic the streaming run instead.
	csvPath := writeTestCSV(t)
	for _, tc := range []struct{ name, settings, names string }{
		{"huge streaming reservoirSize", `"streaming":true,"reservoirSize":1000000000000000`, "reservoirSize"},
		{"reservoirSize past the limit", `"reservoirSize":1048577`, "reservoirSize"},
		{"minSupport above one", `"minSupport":5`, "minSupport"},
		{"negative minSupport", `"minSupport":-0.1`, "minSupport"},
		{"negative minRiskRatio", `"minRiskRatio":-2`, "minRiskRatio"},
	} {
		body := fmt.Sprintf(`{"input":%q,"metrics":["power"],"attributes":["device"],%s}`, csvPath, tc.settings)
		rec := httptest.NewRecorder()
		handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), tc.names) {
			t.Errorf("%s: response %q does not name %q", tc.name, rec.Body.String(), tc.names)
		}
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
// net/http cannot recover, and took the server down). Routing settings
// are not fields, so a routing table of billions of buckets is an
// unknown-field 400. Every row must be a 400 naming the bad field, and
// a session started beforehand must still answer polls afterwards.
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
		{"huge reservoirSize", `{` + push + `,"reservoirSize":1000000000000000,"shards":2}`, "reservoirSize"},
		{"minSupport above one", `{` + push + `,"minSupport":5}`, "minSupport"},
		{"negative minRiskRatio", `{` + push + `,"minRiskRatio":-1}`, "minRiskRatio"},
		{"negative coordinateEvery", `{` + push + `,"coordinateEvery":-1,"shards":2}`, "coordinateEvery"},
		{"negative routingBuckets", `{` + push + `,"routingBuckets":-1,"shards":2}`, "routingBuckets"},
		{"huge routingBuckets", `{` + push + `,"routingBuckets":10000000000,"shards":2}`, "routingBuckets"},
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

// TestNonFiniteRowsRejected: a NaN or infinite metric is a bad row, as
// an unparsable one is. One such row used to poison the whole answer: a
// NaN left /query with no outliers, an Inf with one wrong explanation.
func TestNonFiniteRowsRejected(t *testing.T) {
	data, err := os.ReadFile(writeTestCSV(t))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	for _, tc := range []struct{ name, row, settings string }{
		{"one-shot NaN", "NaN,dev3\n", ""},
		{"one-shot Inf", "Inf,dev3\n", ""},
		{"streaming NaN", "NaN,dev3\n", `,"streaming":true`},
	} {
		lines[100] = tc.row // data row 100, after the header
		path := filepath.Join(t.TempDir(), "poisoned.csv")
		if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o600); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"input":%q,"metrics":["power"],"attributes":["device"],"minSupport":0.05%s}`, path, tc.settings)
		rec := httptest.NewRecorder()
		handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "row 100") {
			t.Errorf("/query, %s: status %d, body %q; want 400 naming row 100", tc.name, rec.Code, rec.Body.String())
		}
	}

	srv := httptest.NewServer(newMux(newStreamRegistry()))
	defer srv.Close()
	id := startStream(t, srv, `{"input":"push","metrics":["power"],"attributes":["device","version"]}`)
	recs := pushTestRecords(200)
	recs[100].metrics[0] = math.Inf(1)
	if code, _ := pushBinary(t, srv.URL+"/stream/"+id+"/push", binaryPushBody(t, recs)); code != http.StatusBadRequest {
		t.Errorf("binary push with an Inf metric: status %d, want 400", code)
	}
	postJSON(t, srv.URL+"/stream/"+id+"/stop", nil)
}

// TestBadRowSessionAnswers400: a CSV session whose input has a bad row
// ends with that row's error, and the poll and the stop that read it
// answer 400 naming the row, as /query does; they used to answer 500. A
// failure that is not the input's stays a 500.
func TestBadRowSessionAnswers400(t *testing.T) {
	data, err := os.ReadFile(writeTestCSV(t))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	srv := httptest.NewServer(newMux(newStreamRegistry()))
	defer srv.Close()
	for _, tc := range []struct{ name, row string }{
		{"unparsable", "abc,dev3\n"},
		{"NaN", "NaN,dev3\n"},
	} {
		lines[100] = tc.row // data row 100, after the header
		path := filepath.Join(t.TempDir(), "bad.csv")
		if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o600); err != nil {
			t.Fatal(err)
		}
		id := startStream(t, srv, fmt.Sprintf(`{"input":%q,"metrics":["power"],"attributes":["device"],"minSupport":0.05}`, path))
		answer := func(resp *http.Response, err error) (int, string) {
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(body)
		}
		// A poll answers 200 (done:false) until the run reaches the row.
		code, body := http.StatusOK, ""
		for deadline := time.Now().Add(20 * time.Second); code == http.StatusOK && time.Now().Before(deadline); {
			code, body = answer(http.Get(srv.URL + "/stream/" + id))
		}
		if code != http.StatusBadRequest || !strings.Contains(body, "row 100") {
			t.Errorf("%s row, poll: status %d, body %q; want 400 naming row 100", tc.name, code, body)
		}
		code, body = answer(http.Post(srv.URL+"/stream/"+id+"/stop", "application/json", nil))
		if code != http.StatusBadRequest || !strings.Contains(body, "row 100") {
			t.Errorf("%s row, stop: status %d, body %q; want 400 naming row 100", tc.name, code, body)
		}
	}
	if got := sessionErrorStatus(fmt.Errorf("core: source: %w", io.ErrUnexpectedEOF)); got != http.StatusInternalServerError {
		t.Errorf("a failed read answers %d, want 500", got)
	}
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

// TestPushPollIngestIsTheAccount: a push session's "ingest" block is the
// session's account (core.StreamRunner.Stats), not a second read of the
// push source. Live, once every pushed point is consumed, its
// cumulative counters equal the next account read's; once the stream is
// done, the block is the final account's to the last counter, however
// much later it is read.
func TestPushPollIngestIsTheAccount(t *testing.T) {
	reg := newStreamRegistry()
	srv := httptest.NewServer(newMux(reg))
	defer srv.Close()
	recs := pushTestRecords(3_000)
	id := startStream(t, srv, `{"input":"push","metrics":["power"],"attributes":["device","version"],"minSupport":0.05,"shards":1,"partitions":2}`)
	pushURL := srv.URL + "/stream/" + id + "/push"
	for off := 0; off < len(recs); off += 1_000 {
		if code, out := pushNDJSON(t, pushURL, ndjsonPushBody(recs[off:off+1_000])); code != http.StatusOK {
			t.Fatalf("push: status %d, %v", code, out)
		}
	}
	reg.mu.Lock()
	sess := reg.sessions[id].session
	reg.mu.Unlock()

	var live streamResponse
	for deadline := time.Now().Add(20 * time.Second); live.Points != len(recs); {
		if code := getJSON(t, srv.URL+"/stream/"+id, &live); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session took in %d of %d points", live.Points, len(recs))
		}
	}
	acct, err := sess.Poll()
	if err != nil {
		t.Fatal(err)
	}
	cumulative := func(in []core.PartitionIngestStats) []core.PartitionIngestStats {
		out := make([]core.PartitionIngestStats, len(in))
		for i, p := range in {
			out[i] = core.PartitionIngestStats{Queued: p.Queued, Batches: p.Batches, Points: p.Points, BlockedNanos: p.BlockedNanos}
		}
		return out
	}
	if got, want := cumulative(live.Ingest), cumulative(acct.Stats.Ingest); len(got) != 2 || got[0].Points+got[1].Points != int64(len(recs)) || !reflect.DeepEqual(got, want) {
		t.Errorf("live ingest block %+v, account %+v", live.Ingest, acct.Stats.Ingest)
	}

	if code, _ := pushNDJSON(t, pushURL+"?eof=1", ""); code != http.StatusOK {
		t.Fatalf("eof status %d", code)
	}
	waitStreamDone(t, srv, id)
	final, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // time passes; the counters the stop reads must not move with it
	var done streamResponse
	if code := postJSON(t, srv.URL+"/stream/"+id+"/stop", &done); code != http.StatusOK {
		t.Fatalf("stop status %d", code)
	}
	if !reflect.DeepEqual(done.Ingest, final.Stats.Ingest) {
		t.Errorf("done ingest block %+v, final account %+v", done.Ingest, final.Stats.Ingest)
	}
}

// TestCheckpointReadsLeavePollIngestAlone: reads of a session's account
// do not move one another. Points are pushed in two halves, 300 ms
// apart, with a poll between them, so a source whose reads turned its
// counters into rates would have rates to show. Once every point is
// consumed, a poll, several checkpoint reads, a wait of 300 ms and a
// second poll see the same "ingest" block, byte for byte.
func TestCheckpointReadsLeavePollIngestAlone(t *testing.T) {
	srv := httptest.NewServer(newMux(newStreamRegistry()))
	defer srv.Close()
	recs := pushTestRecords(2_000)
	id := startStream(t, srv, `{"input":"push","metrics":["power"],"attributes":["device"],"shards":1,"partitions":1,"replay":true}`)
	pollURL := srv.URL + "/stream/" + id
	push := func(recs []pushTestRecord) {
		if code, out := pushNDJSON(t, pollURL+"/push", ndjsonPushBody(recs)); code != http.StatusOK {
			t.Fatalf("push: status %d, %v", code, out)
		}
	}
	poll := func() (streamResponse, json.RawMessage) {
		t.Helper()
		resp, err := http.Get(pollURL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", resp.StatusCode, body)
		}
		var sr streamResponse
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatal(err)
		}
		return sr, raw["ingest"]
	}

	push(recs[:1_000])
	poll()
	time.Sleep(300 * time.Millisecond)
	push(recs[1_000:])
	var first json.RawMessage
	for deadline := time.Now().Add(20 * time.Second); ; {
		sr, ingest := poll()
		if sr.Points == len(recs) {
			if len(sr.Ingest) != 1 || sr.Ingest[0].Points != int64(len(recs)) || sr.Ingest[0].Queued != 0 {
				t.Fatalf("ingest block once every point is consumed: %+v", sr.Ingest)
			}
			first = ingest
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session took in %d of %d points", sr.Points, len(recs))
		}
	}
	for i := 0; i < 3; i++ {
		if code := getJSON(t, pollURL+"/checkpoint", nil); code != http.StatusOK {
			t.Fatalf("checkpoint status %d", code)
		}
	}
	time.Sleep(300 * time.Millisecond)
	if _, second := poll(); !bytes.Equal(second, first) {
		t.Errorf("ingest block moved with no push between polls:\n first  %s\n second %s", first, second)
	}
	if code := postJSON(t, pollURL+"/stop", nil); code != http.StatusOK {
		t.Fatalf("stop status %d", code)
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

// TestConfidenceIntervalsReachClients: a query that asks for
// confidence intervals gets one on every explanation, around its risk
// ratio, from /query and from a push session's live poll alike; a
// confidence of 1, whose interval would be infinitely wide, is a 400.
func TestConfidenceIntervalsReachClients(t *testing.T) {
	checkCIs := func(where string, exps []explanationJSON) {
		t.Helper()
		if len(exps) == 0 {
			t.Fatalf("%s: no explanations", where)
		}
		for _, e := range exps {
			if e.CI == nil || e.CI.Level != 0.95 || e.CI.Lo > e.RiskRatio || e.RiskRatio > e.CI.Hi {
				t.Errorf("%s: %v riskRatio %v, ci %+v; want a 95%% interval around it", where, e.Attributes, e.RiskRatio, e.CI)
			}
		}
	}
	csvPath := writeTestCSV(t)
	body := fmt.Sprintf(`{"input":%q,"metrics":["power"],"attributes":["device"],"minSupport":0.05,"confidence":0.95}`, csvPath)
	rec := httptest.NewRecorder()
	handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body.String())
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	checkCIs("/query", resp.Explanations)

	srv := httptest.NewServer(newMux(newStreamRegistry()))
	defer srv.Close()
	id := startStream(t, srv, `{"input":"push","metrics":["power"],"attributes":["device"],"minSupport":0.05,"confidence":0.95,"shards":2}`)
	rng := rand.New(rand.NewPCG(5, 6))
	var chunk strings.Builder
	for i := 0; i < 10_000; i++ {
		dev := fmt.Sprintf("dev%d", rng.IntN(20))
		v := 10 + rng.NormFloat64()*2
		if dev == "dev7" && rng.Float64() < 0.5 {
			v = 60 + rng.NormFloat64()*2
		}
		fmt.Fprintf(&chunk, "{\"metrics\":[%.4f],\"attributes\":{\"device\":%q}}\n", v, dev)
	}
	if code, _ := pushNDJSON(t, srv.URL+"/stream/"+id+"/push", chunk.String()); code != http.StatusOK {
		t.Fatalf("push status %d", code)
	}
	var poll streamResponse
	for deadline := time.Now().Add(10 * time.Second); len(poll.Explanations) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no explanations in a live poll after 10 s")
		}
		if code := getJSON(t, srv.URL+"/stream/"+id, &poll); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
	}
	if poll.Done {
		t.Error("push stream reported done while producers are open")
	}
	checkCIs("live poll", poll.Explanations)
	postJSON(t, srv.URL+"/stream/"+id+"/stop", nil)

	rec = httptest.NewRecorder()
	handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(strings.Replace(body, "0.95", "1", 1))))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("/query with confidence 1: status %d, want 400", rec.Code)
	}
	start, err := http.Post(srv.URL+"/stream/start", "application/json", strings.NewReader(`{"input":"push","metrics":["power"],"attributes":["device"],"confidence":1}`))
	if err != nil {
		t.Fatal(err)
	}
	start.Body.Close()
	if start.StatusCode != http.StatusBadRequest {
		t.Errorf("/stream/start with confidence 1: status %d, want 400", start.StatusCode)
	}
}
