//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// resultLine is the contract's result object.
type resultLine struct {
	Correct   *bool                  `json:"correct"`
	Attempted *int                   `json:"attempted"`
	Failed    *int                   `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runToy runs one workload at toy size against a real mbserver child
// and returns the report and its parsed last line.
func runToy(t *testing.T, workload string, trace bool) (string, resultLine) {
	t.Helper()
	if runtime.NumCPU() < 2 {
		t.Skip("the streaming workloads keep two connections open and refuse to start on one core")
	}
	var out bytes.Buffer
	o := options{workload: workload, seed: 7, seconds: 1, trace: trace, root: "..", outDir: t.TempDir()}
	if err := run(o, &out); err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not a result object: %v\n%s", workload, err, lines[len(lines)-1])
	}
	if res.Correct == nil || res.Attempted == nil || res.Failed == nil {
		t.Fatalf("%s: result object lacks correct/attempted/failed: %s", workload, lines[len(lines)-1])
	}
	if !*res.Correct || *res.Failed != 0 || *res.Attempted < 1 {
		t.Errorf("%s: correct=%t attempted=%d failed=%d\n%s", workload, *res.Correct, *res.Attempted, *res.Failed, out.String())
	}
	return out.String(), res
}

// checkMetrics asserts that the result names exactly the catalogue's
// metrics, with its units and well-formed names.
func checkMetrics(t *testing.T, workload string, defs []metricDef, got map[string]metricValue) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics in the result, %d in BENCHMARK.json", workload, len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: metric %s is missing", workload, d.Name)
			continue
		}
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is malformed", d.Name)
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, catalogue says %q", workload, d.Name, m.Unit, d.Unit)
		}
	}
}

// TestSmoke runs every workload at toy size so the harness cannot rot
// silently: all five end-to-end metrics on all four workloads, sample
// counts printed, no failed operation.
func TestSmoke(t *testing.T) {
	cat, err := loadCatalog("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(cat.Workloads), len(specs))
	}
	for _, w := range cat.Workloads {
		if _, err := specByName(w.Name); err != nil {
			t.Fatal(err)
		}
		report, res := runToy(t, w.Name, false)
		checkMetrics(t, w.Name, cat.EndToEnd, res.Metrics)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", w.Name, name, m.Value)
			}
		}
		for _, want := range []string{"## " + w.Name + ": frames=", "answer_p50_ms over n=", "ops_failed=0", "nproc="} {
			if !strings.Contains(report, want) {
				t.Errorf("%s: report lacks %q\n%s", w.Name, want, report)
			}
		}
	}
}

// TestSmokeTraced covers the traced invocation and both staged
// replays: every per-layer metric is reported and a span file written.
func TestSmokeTraced(t *testing.T) {
	cat, err := loadCatalog("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"firehose_xc", "batch_query"} {
		report, res := runToy(t, w, true)
		checkMetrics(t, w, cat.PerLayer, res.Metrics)
		if res.Metrics["trace.coverage"].Value <= 0 || res.Metrics["trace.stage_sum_ns_per_point"].Value <= 0 {
			t.Errorf("%s: the staged replay accounted for nothing\n%s", w, report)
		}
		if !strings.Contains(report, "trace-"+w+".json") {
			t.Errorf("%s: report does not name the span file\n%s", w, report)
		}
	}
}

// TestReplayMatchesServer is the drift check behind the staged replay:
// the replay builds the shard operators itself, restating four
// decisions of the program's unexported code (replay.go), so the same
// frames go through mbserver and through the replay and the two must
// agree. On one shard everything is deterministic, and outliers and
// decay ticks must be equal: that pins the retrain and decay periods,
// the reservoir sizes, the seeds and the runner's batch size. On two
// shards the server's coordinator installs a global cutoff on the
// clock, which the single-goroutine replay does not emulate (their
// outlier counts differ by about 15%), so only a gross difference
// fails there; decay ticks, which follow the routing, must be equal.
func TestReplayMatchesServer(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("a streaming session keeps two connections open")
	}
	dir := t.TempDir()
	bin, err := buildServer("..", dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		workload  string
		extra     int     // frames pushed after the warm-up
		tolerance float64 // share by which outliers may differ
	}{
		{"firehose_xs", 10, 0},
		{"firehose_xc", 44, 0.3},
	} {
		sp, err := specByName(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		in, err := generate(sp, 7, dir)
		if err != nil {
			t.Fatal(err)
		}
		var o ops
		sess, _, err := setupStream(bin, in, &o, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		frames := sp.warmFrames + tc.extra
		for i := sp.warmFrames; i < frames; i++ {
			if err := sess.pushFrame(0, in.frames[i%len(in.frames)]); err != nil {
				sess.close()
				t.Fatal(err)
			}
		}
		final, err := sess.finish(0)
		sess.close()
		if err != nil || o.failed > 0 {
			t.Fatalf("%s: %v, %d failed operations %v", tc.workload, err, o.failed, o.notes)
		}
		rep, err := replayStream(in, frames, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.Points != frames*sp.framePoints {
			t.Errorf("%s: the server counted %d points, %d were pushed", tc.workload, final.Points, frames*sp.framePoints)
		}
		if rep.decayTicks != final.DecayTicks || rep.decayTicks == 0 {
			t.Errorf("%s: %d decay ticks in the replay, %d in the server", tc.workload, rep.decayTicks, final.DecayTicks)
		}
		if diff := math.Abs(float64(rep.outliers - final.Outliers)); diff > tc.tolerance*float64(final.Outliers) {
			t.Errorf("%s: %d outliers in the replay, %d in the server: the replay no longer builds the operators the server runs",
				tc.workload, rep.outliers, final.Outliers)
		}
		if rep.metrics["classify.retrain_count"] == 0 {
			t.Errorf("%s: no retrain in %d frames", tc.workload, frames)
		}
	}
}

func TestRefusesMoreConnectionsThanCores(t *testing.T) {
	if runtime.NumCPU() >= 2 {
		t.Skip("needs a one-core machine")
	}
	if err := run(options{workload: "firehose_xs", seconds: 1, root: "..", outDir: t.TempDir()}, &bytes.Buffer{}); err == nil {
		t.Fatal("two connections were accepted on one core")
	}
}

// TestSelfTime pins the self-time rule: a span's duration minus the
// union of its children's intervals, clipped to the span.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 60},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	got := selfTimes(spans)
	for name, want := range map[string]nameTotals{
		"root": {Count: 1, TotalNs: 100, SelfNs: 40}, // covered: [10,60) and [90,100)
		"a":    {Count: 2, TotalNs: 60, SelfNs: 55},
		"b":    {Count: 1, TotalNs: 30, SelfNs: 30},
		"c":    {Count: 1, TotalNs: 5, SelfNs: 5},
	} {
		if *got[name] != want {
			t.Errorf("%s: got %+v, want %+v", name, *got[name], want)
		}
	}
}
