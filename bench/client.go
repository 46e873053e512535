//go:build linux

package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// ops counts what the contract calls operations — every push, poll,
// query and end-of-run check — and how many of them failed. A non-2xx
// status, a transport error and a wrong answer all fail.
type ops struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string // first few failure messages, for the report
}

func (o *ops) record(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.notes) < 8 {
			o.notes = append(o.notes, err.Error())
		}
	}
}

// check records one end-of-run correctness check.
func (o *ops) check(ok bool, format string, args ...any) {
	if ok {
		o.record(nil)
		return
	}
	o.record(fmt.Errorf("check failed: "+format, args...))
}

// client is one keep-alive connection to the server: the harness opens
// one for the pusher and one for the poller (or one for the query
// caller), never more than the machine has cores.
type client struct {
	hc  *http.Client
	ops *ops
	tr  *tracer
	buf bytes.Buffer
}

func newClient(o *ops, tr *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		ops: o,
		tr:  tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do performs one operation and returns the response body (valid until
// the client's next call) and the time from request to fully read
// response. The operation is counted, and traced under parent when a
// tracer is set.
func (c *client) do(parent int, name, method, url, ctype string, body []byte) ([]byte, time.Duration, error) {
	id := c.tr.begin(parent, name)
	start := time.Now()
	err := c.roundTrip(method, url, ctype, body)
	d := time.Since(start)
	c.tr.end(id)
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	c.ops.record(err)
	return c.buf.Bytes(), d, err
}

func (c *client) roundTrip(method, url, ctype string, body []byte) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, c.buf.Bytes())
	}
	return nil
}
