//go:build linux

package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a client-side operation of the traced
// run, or one call into a layer's public function in the staged
// replay. Parent is the id of the span that caused it (0 for a root);
// every span of one invocation shares the tracer's run id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, so untraced runs pay one nil check per operation.
type tracer struct {
	mu    sync.Mutex
	run   string
	epoch time.Time
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// nameTotals aggregates spans by name.
type nameTotals struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// selfTimes computes each span's self time — its duration minus the
// part of that interval its child spans cover (children may overlap
// each other, so covered time is the union of their intervals, clipped
// to the parent) — and sums duration and self time by span name.
func selfTimes(spans []span) map[string]*nameTotals {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]*nameTotals)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		t := out[s.Name]
		if t == nil {
			t = &nameTotals{}
			out[s.Name] = t
		}
		t.Count++
		t.TotalNs += s.End - s.Start
		t.SelfNs += s.End - s.Start - covered
	}
	return out
}

// cpuSample is the server's cumulative CPU at one segment boundary of
// the traced run.
type cpuSample struct {
	Frame  int     `json:"frame"`
	WallNs int64   `json:"wall_ns"`
	CPUSec float64 `json:"server_cpu_s"`
}

// write stores the spans, their per-name totals and the CPU samples.
func (t *tracer) write(path string, samples []cpuSample) error {
	doc := struct {
		Run     string                 `json:"run"`
		Totals  map[string]*nameTotals `json:"totals_by_name"`
		Samples []cpuSample            `json:"server_cpu_samples"`
		Spans   []span                 `json:"spans"`
	}{t.run, selfTimes(t.spans), samples, t.spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
