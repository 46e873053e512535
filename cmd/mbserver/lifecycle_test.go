package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// fdOpen reports whether any of this process's descriptors resolves to
// path.
func fdOpen(t *testing.T, path string) bool {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && target == path {
			return true
		}
	}
	return false
}

// TestCSVSessionClosesInputWhenStreamEnds: once a CSV session's stream
// has run out, its file is closed with no further request — no poll,
// stop or start has to come along and reap it. The session stays
// addressable with its final result.
func TestCSVSessionClosesInputWhenStreamEnds(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/fd")
	}
	srv := httptest.NewServer(newMux(newStreamRegistry()))
	defer srv.Close()
	path := writeTestCSV(t)
	id := startStream(t, srv, `{"input":"`+path+`","metrics":["power"],"attributes":["device"],"minSupport":0.05}`)
	for deadline := time.Now().Add(10 * time.Second); fdOpen(t, path); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the CSV file is still open 10s after start, with no request since")
		}
	}
	if final := waitStreamDone(t, srv, id); final.Points != 20_000 {
		t.Fatalf("final result saw %d points, want 20000", final.Points)
	}
	postJSON(t, srv.URL+"/stream/"+id+"/stop", nil)
}

// gatedBody is a request body that reports its handler's first Read.
type gatedBody struct {
	io.Reader
	reading chan struct{}
	once    sync.Once
}

func (b *gatedBody) Read(p []byte) (int, error) {
	b.once.Do(func() { close(b.reading) })
	return b.Reader.Read(p)
}

// TestStreamConcurrentResumesOneWins: two resumes of one terminated
// session, both past the terminated check and reading their bodies at
// once, race for the session's one replay log. Exactly one answers 200;
// the other is a 409 before it seeks or starts anything, so the resumed
// run replays exactly the retained tail.
func TestStreamConcurrentResumesOneWins(t *testing.T) {
	const n = 20_000
	records := binaryPushBody(t, pushTestRecords(n))
	blob := `{"version":1,"partitions":[{"partition":0,"offset":0,"checkpointable":true}]}`
	for iter := 0; iter < 30; iter++ {
		mux := newMux(newStreamRegistry())
		srv := httptest.NewServer(mux)
		id := startStream(t, srv, `{"input":"push","metrics":["power"],"attributes":["device","version"],"minSupport":0.05,"shards":2,"partitions":1,"replay":true}`)
		if code, _ := pushBinary(t, srv.URL+"/stream/"+id+"/push?eof=1", records); code != http.StatusOK {
			t.Fatalf("push status %d", code)
		}
		waitStreamDone(t, srv, id)

		codes := make([]int, 2)
		writers := make([]*io.PipeWriter, 2)
		var wg sync.WaitGroup
		for i := range codes {
			pr, pw := io.Pipe()
			body := &gatedBody{Reader: pr, reading: make(chan struct{})}
			writers[i] = pw
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/stream/"+id+"/checkpoint", body))
				codes[i] = rec.Code
			}()
			<-body.reading
		}
		for _, pw := range writers {
			go func() {
				io.WriteString(pw, blob)
				pw.Close()
			}()
		}
		wg.Wait()
		if ok, conflict := count(codes, http.StatusOK), count(codes, http.StatusConflict); ok != 1 || conflict != 1 {
			t.Fatalf("iteration %d: resume statuses %v, want one 200 and one 409", iter, codes)
		}
		if final := waitStreamDone(t, srv, id); final.Points != n {
			t.Fatalf("iteration %d: resumed run saw %d points, want the %d-point retained tail", iter, final.Points, n)
		}
		postJSON(t, srv.URL+"/stream/"+id+"/stop", nil)
		srv.Close()
	}
}

// count reports how many of codes equal code.
func count(codes []int, code int) int {
	c := 0
	for _, v := range codes {
		if v == code {
			c++
		}
	}
	return c
}
