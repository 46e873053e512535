//go:build linux

// Command bench is the repository's end-to-end benchmark: a load
// generator that builds ./cmd/mbserver, runs it as a child process and
// drives it over loopback HTTP as an operator's producers and
// dashboards would, measuring the program from outside. See README.md
// for the metric and workload catalogue; BENCHMARK.json at the
// repository root holds names, units and regression bounds.
//
//	go run -C bench . -workload all            every workload, end-to-end + black-box tables
//	go run -C bench . -workload poll_drift -trace 1
//	go run -C bench . -workload firehose_xs -repeat 6
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	repeat   int
	root     string
	outDir   string
}

// setupRuns is how often a run sets the server up: setup_s is the
// median, and the last set-up carries the measured window. The
// benchmark contract asks for several set-ups a run; over two ten-seed
// sets the median of three had a narrower quartile spread than the
// first set-up alone on six of the eight workload-sets and a wider one
// on one (poll_drift 12-14% against 27-30%; README.md, "Spread").
const setupRuns = 3

// result is one measured run.
type result struct {
	e2e   map[string]float64
	layer map[string]float64 // black-box per-layer metrics
	ops   ops

	answers, frames, points int       // the run's fixed work
	setups                  []float64 // seconds, one per set-up
	serverCPUNsPerPoint     float64
	samples                 []cpuSample
}

func main() {
	var o options
	trace := 0
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; the server only ever sees generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 25, "sizes each run's fixed work to about this many seconds on the calibration box")
	flag.IntVar(&trace, "trace", 0, "1: traced run and staged replay, per-layer metrics in the result line")
	flag.IntVar(&o.repeat, "repeat", 0, "run the workload N times and compare interleaved halves against the bounds")
	flag.StringVar(&o.root, "root", "..", "repository root (the directory holding cmd/mbserver and BENCHMARK.json)")
	flag.StringVar(&o.outDir, "out", "out", "directory for the server binary, stored inputs and span files")
	flag.Parse()
	o.trace = trace != 0
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments", flag.Args())
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run executes the requested workloads and writes the report to w. The
// last line written for each workload is its result object.
func run(o options, w io.Writer) error {
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cat, err := loadCatalog(o.root)
	if err != nil {
		return err
	}
	var chosen []*spec
	if o.workload == "all" {
		for i := range specs {
			chosen = append(chosen, &specs[i])
		}
	} else {
		sp, err := specByName(o.workload)
		if err != nil {
			return err
		}
		chosen = []*spec{sp}
	}
	// Closed loop with at most one connection per core: a generator
	// with more callers than cores measures its own scheduling.
	for _, sp := range chosen {
		if sp.conns() > runtime.NumCPU() {
			return fmt.Errorf("%s keeps %d connections open but this machine has %d cores", sp.name, sp.conns(), runtime.NumCPU())
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}

	buildStart := time.Now()
	bin, err := buildServer(o.root, o.outDir)
	if err != nil {
		return err
	}
	buildS := time.Since(buildStart).Seconds()
	fmt.Fprintf(w, "# macrobase bench: commit=%s %s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g trace=%t\n",
		commit(o.root), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.seed, o.seconds, o.trace)

	for _, sp := range chosen {
		genStart := time.Now()
		in, err := generate(sp, o.seed, o.outDir)
		if err != nil {
			return fmt.Errorf("%s: generating inputs: %w", sp.name, err)
		}
		harness := map[string]float64{"bench.build_s": buildS, "bench.gen_s": time.Since(genStart).Seconds()}
		switch {
		case o.repeat > 0:
			err = repeatWorkload(bin, in, o, cat, w)
		case o.trace:
			err = traceWorkload(bin, in, o, cat, harness, w)
		default:
			err = measureWorkload(bin, in, o, cat, harness, w)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
	}
	return nil
}

// commit names the measured tree: the git commit when the checkout is
// a repository, otherwise "unknown".
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// measure runs one workload once, sized for seconds; tr is nil for an
// untraced run.
func measure(bin string, in *inputs, seconds float64, tr *tracer) (*result, error) {
	res := &result{}
	var err error
	if in.sp.batch() {
		err = runBatch(bin, in, seconds, tr, res)
	} else {
		err = runStream(bin, in, seconds, tr, res)
	}
	return res, err
}

// measureWorkload is the untraced run: the end-to-end metrics and the
// black-box per-layer picture that comes with them for free.
func measureWorkload(bin string, in *inputs, o options, cat *catalog, harness map[string]float64, w io.Writer) error {
	res, err := measure(bin, in, o.seconds, nil)
	if err != nil {
		return err
	}
	for k, v := range harness {
		res.layer[k] = v
	}
	printHeader(w, in.sp, res, &res.ops)
	fmt.Fprintf(w, "end-to-end (answer_p50_ms over n=%d answers, setup_s over set-ups of %.4g s)\n", res.answers, res.setups)
	printTable(w, cat.EndToEnd, res.e2e)
	fmt.Fprintln(w, "per-layer, black box (informational)")
	printTable(w, cat.PerLayer, res.layer)
	return printResult(w, cat.EndToEnd, res.e2e, false, &res.ops)
}

// traceWorkload is the traced invocation: an untraced and a traced run
// of half the work each (their difference is the tracing overhead),
// then the staged replay. Black-box per-layer metrics come from the
// untraced half; end-to-end metrics are never taken from here.
func traceWorkload(bin string, in *inputs, o options, cat *catalog, harness map[string]float64, w io.Writer) error {
	half := o.seconds / 2
	plain, err := measure(bin, in, half, nil)
	if err != nil {
		return err
	}
	tr := newTracer(fmt.Sprintf("%s-seed%d-%d", in.sp.name, o.seed, time.Now().UnixNano()))
	traced, err := measure(bin, in, half, tr)
	if err != nil {
		return err
	}
	var staged map[string]float64
	if in.sp.batch() {
		staged, err = replayBatch(in, tr)
	} else {
		var rep *replayed
		if rep, err = replayStream(in, replayFrames(in, half), tr); err == nil {
			staged = rep.metrics
		}
	}
	if err != nil {
		return fmt.Errorf("staged replay: %w", err)
	}
	path := filepath.Join(o.outDir, "trace-"+in.sp.name+".json")
	if err := tr.write(path, traced.samples); err != nil {
		return err
	}

	layer := plain.layer
	for _, m := range []map[string]float64{harness, staged} {
		for k, v := range m {
			layer[k] = v
		}
	}
	layer["trace.coverage"] = ratio(staged["trace.stage_sum_ns_per_point"], plain.serverCPUNsPerPoint)
	layer["trace.overhead_share"] = 1 - traced.e2e["points_per_s"]/plain.e2e["points_per_s"]

	all := &ops{attempted: plain.ops.attempted + traced.ops.attempted, failed: plain.ops.failed + traced.ops.failed}
	all.notes = append(plain.ops.notes, traced.ops.notes...)
	printHeader(w, in.sp, plain, all)
	fmt.Fprintf(w, "per-layer (black box from the untraced half, staged replay over %d spans in %s)\n", len(tr.spans), path)
	printTable(w, cat.PerLayer, layer)
	return printResult(w, cat.PerLayer, layer, true, all)
}

func printHeader(w io.Writer, sp *spec, res *result, o *ops) {
	fmt.Fprintf(w, "## %s: frames=%d points=%d answers=%d ops_attempted=%d ops_failed=%d\n",
		sp.name, res.frames, res.points, res.answers, o.attempted, o.failed)
	for _, n := range o.notes {
		fmt.Fprintln(w, "  failed:", n)
	}
}

// printTable prints the catalogue's metrics that have a value, by name
// and unit, in catalogue order.
func printTable(w io.Writer, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		if v, ok := values[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
}

// printResult writes the result object the benchmark contract asks for
// as the workload's last line. Per-layer metrics that do not apply to
// the workload read 0; a missing end-to-end metric is an error.
func printResult(w io.Writer, defs []metricDef, values map[string]float64, zeroMissing bool, o *ops) error {
	metrics, err := report(defs, values, zeroMissing)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
