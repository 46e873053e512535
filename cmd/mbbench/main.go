// Command mbbench regenerates the paper's tables and figures on the
// synthetic dataset analogs. Each experiment prints one or more
// aligned-text tables whose rows mirror the corresponding paper
// result; nothing yet checks the rows against the paper's numbers (see
// ROADMAP.md, "The paper's evaluation as assertions, not tables").
//
// Usage:
//
//	mbbench -list
//	mbbench -run fig3,fig6 -scale 0.05
//	mbbench -run all -scale 0.05
//	mbbench -run quick -scale 0.02   # skips the heavy experiments
//	mbbench -run fig6,mcps -json results.json   # machine-readable copy
//
// The hot-path kernels are the root package's Benchmark functions.
// -compare reads their `go test -bench -benchmem` text on stdin,
// records the kernels in the -json report, and exits 1 when one is
// missing or inflated more than 2x against a committed baseline report:
//
//	go test -run '^$' -bench '^Benchmark(StreamingExplain|Poll|PushIngest|Coordinate|Rebalance|Route|FPGrowthMine|MCDFit)$' -benchmem . > kernels.txt
//	mbbench -run fig6 -json results.json -compare BENCH_PR32.json < kernels.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"macrobase/internal/experiments"
)

// jsonReport is the machine-readable result envelope written by -json:
// one entry per experiment with its tables verbatim, plus enough
// environment metadata to compare runs across commits. CI uploads it
// as an artifact so the perf trajectory accumulates.
type jsonReport struct {
	Schema    string  `json:"schema"` // "mbbench/v1"
	Scale     float64 `json:"scale"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	NumCPU    int     `json:"num_cpu"`
	// GoMaxProcs records the scheduler's parallelism the kernels ran
	// at (mbbench's own without -compare). The pipeline kernels scale
	// with it, so -compare refuses to judge ns/op across differing core
	// budgets (it warns instead of failing).
	GoMaxProcs  int              `json:"go_max_procs,omitempty"`
	StartedAt   string           `json:"started_at"` // RFC 3339
	Experiments []jsonExperiment `json:"experiments"`
	// Benchmarks holds the hot-path kernels read by -compare (ns/op,
	// allocs/op per kernel); -compare diffs these against a committed
	// baseline report and fails CI on >2x inflation.
	Benchmarks []benchResult `json:"benchmarks,omitempty"`
}

// benchResult is one kernel's measurement in the -json report, named
// as `go test` names it without the Benchmark prefix and the
// GOMAXPROCS suffix.
type benchResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// hasAllocs is set when the line carried allocs/op (-benchmem or
	// b.ReportAllocs); a gated kernel without it cannot be judged.
	hasAllocs bool
}

type jsonExperiment struct {
	ID      string               `json:"id"`
	Name    string               `json:"name"`
	Seconds float64              `json:"seconds"`
	Tables  []*experiments.Table `json:"tables"`
}

func main() {
	var (
		run      = flag.String("run", "quick", "comma-separated experiment ids, or 'all' / 'quick'")
		scale    = flag.Float64("scale", 0.02, "dataset scale factor relative to the paper's sizes")
		list     = flag.Bool("list", false, "list experiments and exit")
		jsonPath = flag.String("json", "", "also write machine-readable results to this file")
		compare  = flag.String("compare", "", "baseline report to diff the kernels of the go test -bench -benchmem text on stdin against; exit 1 on a missing kernel or >2x ns/op or allocs/op inflation")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			heavy := ""
			if e.Heavy {
				heavy = " (heavy)"
			}
			fmt.Printf("%-12s %s%s\n", e.ID, e.Name, heavy)
		}
		return
	}

	var selected []experiments.Experiment
	switch *run {
	case "all":
		selected = experiments.All()
	case "quick":
		for _, e := range experiments.All() {
			if !e.Heavy {
				selected = append(selected, e)
			}
		}
	default:
		for _, id := range strings.Split(*run, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	report := jsonReport{
		Schema:     "mbbench/v1",
		Scale:      *scale,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		StartedAt:  time.Now().UTC().Format(time.RFC3339),
	}
	var base jsonReport
	if *compare != "" {
		var err error
		if base, err = loadBaseline(*compare); err == nil {
			report.Benchmarks, report.GoMaxProcs, err = parseKernels(os.Stdin)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Printf("macrobase-go reproduction harness: %d experiment(s), scale %.3f\n\n", len(selected), *scale)
	for _, e := range selected {
		fmt.Printf("### %s — %s\n", e.ID, e.Name)
		start := time.Now()
		tables := e.Run(*scale)
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		secs := time.Since(start).Seconds()
		fmt.Printf("(%s completed in %.1fs)\n\n", e.ID, secs)
		report.Experiments = append(report.Experiments, jsonExperiment{
			ID: e.ID, Name: e.Name, Seconds: secs, Tables: tables,
		})
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *compare != "" {
		if err := compareKernels(os.Stdout, base, report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// loadBaseline reads a committed baseline report; one without kernels
// is an error, since it would gate nothing.
func loadBaseline(path string) (jsonReport, error) {
	var base jsonReport
	buf, err := os.ReadFile(path)
	if err != nil {
		return base, fmt.Errorf("reading baseline: %w", err)
	}
	if err := json.Unmarshal(buf, &base); err != nil {
		return base, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if len(base.Benchmarks) == 0 {
		return base, fmt.Errorf("baseline %s records no kernels", path)
	}
	return base, nil
}

// parseKernels reads `go test -bench` text and returns its result
// lines and the GOMAXPROCS they ran at, which is the names' -N suffix
// (go test appends none at GOMAXPROCS 1, so there a name that itself
// ends in -N reads as a suffix). Other lines are skipped; text with no
// result line, or with lines run at different GOMAXPROCS, is an error.
func parseKernels(r io.Reader) ([]benchResult, int, error) {
	var (
		out   []benchResult
		procs int
	)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
			continue
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			continue
		}
		name, p := strings.TrimPrefix(f[0], "Benchmark"), 1
		if i := strings.LastIndexByte(name, '-'); i >= 0 {
			if v, err := strconv.Atoi(name[i+1:]); err == nil {
				name, p = name[:i], v
			}
		}
		if procs != 0 && p != procs {
			return nil, 0, fmt.Errorf("kernel lines ran at GOMAXPROCS %d and %d; give go test one -cpu value", procs, p)
		}
		procs = p
		res := benchResult{Name: name, N: n}
		hasNs := false
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, 0, fmt.Errorf("%s: bad value %q", f[0], f[i])
			}
			switch f[i+1] {
			case "ns/op":
				res.NsPerOp, hasNs = v, true
			case "B/op":
				res.BytesPerOp = int64(v)
			case "allocs/op":
				res.AllocsPerOp, res.hasAllocs = int64(v), true
			}
		}
		if !hasNs {
			return nil, 0, fmt.Errorf("%s: no ns/op", f[0])
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("reading kernels: %w", err)
	}
	if len(out) == 0 {
		return nil, 0, fmt.Errorf("no go test -bench result lines on stdin")
	}
	return out, procs, nil
}

// compareKernels checks the current report's kernels against a
// baseline report, writing one verdict line per kernel to w. It fails
// on >2x inflation of ns/op or allocs/op for any kernel present in
// both, on a baseline kernel measured without allocs/op, and on any
// baseline kernel missing from the current run (a silently dropped or
// renamed kernel would otherwise disable its gate). allocs/op is
// machine-independent and always gated; ns/op is gated only when the
// baseline was recorded on comparable hardware (same GOARCH, CPU
// count and GOMAXPROCS), since wall-clock ratios across different
// machines measure the hardware, not the code — otherwise ns/op is
// reported informationally. A small absolute grace (1µs, 8 allocs)
// keeps near-zero kernels from tripping on scheduler noise.
func compareKernels(w io.Writer, base, cur jsonReport) error {
	byName := make(map[string]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	sameHardware := base.GOARCH == cur.GOARCH && base.NumCPU == cur.NumCPU
	// Core-budget mismatch is a warning, never a failure: the pipeline
	// kernels (PushIngest, Coordinate, Rebalance) run producers and
	// shards on their own goroutines, so their ns/op scales with
	// GOMAXPROCS, and wall-clock ratios against a baseline recorded
	// under a different scheduler width measure the core budget, not
	// the code. allocs/op stays gated.
	if base.GoMaxProcs != cur.GoMaxProcs {
		fmt.Fprintf(w, "warning: baseline GOMAXPROCS=%d != kernels' GOMAXPROCS=%d — ns/op gating disabled (parallel kernels scale with the core budget)\n",
			base.GoMaxProcs, cur.GoMaxProcs)
		sameHardware = false
	}
	if sameHardware {
		fmt.Fprintf(w, "### compare — current vs baseline (fail > 2.00x ns/op or allocs/op)\n")
	} else {
		fmt.Fprintf(w, "### compare — current vs baseline (fail > 2.00x allocs/op; ns/op informational: baseline %s/%d cpu/%d procs != %s/%d cpu/%d procs)\n",
			base.GOARCH, base.NumCPU, base.GoMaxProcs, cur.GOARCH, cur.NumCPU, cur.GoMaxProcs)
	}
	failed := false
	seen := make(map[string]bool, len(cur.Benchmarks))
	for _, c := range cur.Benchmarks {
		seen[c.Name] = true
		old, ok := byName[c.Name]
		if !ok {
			fmt.Fprintf(w, "  %-34s new kernel, no baseline\n", c.Name)
			continue
		}
		if !c.hasAllocs {
			fmt.Fprintf(w, "  %-34s NO allocs/op (run go test with -benchmem)\n", c.Name)
			failed = true
			continue
		}
		nsRatio := c.NsPerOp / old.NsPerOp
		nsBad := sameHardware && nsRatio > 2 && c.NsPerOp-old.NsPerOp > 1000
		allocsBad := c.AllocsPerOp > 2*old.AllocsPerOp+8
		verdict := "ok"
		if nsBad || allocsBad {
			verdict = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "  %-34s ns/op %.2fx (%.0f -> %.0f)  allocs/op %d -> %d  %s\n",
			c.Name, nsRatio, old.NsPerOp, c.NsPerOp, old.AllocsPerOp, c.AllocsPerOp, verdict)
	}
	for _, old := range base.Benchmarks {
		if !seen[old.Name] {
			fmt.Fprintf(w, "  %-34s MISSING from current run (kernel dropped or renamed without a new baseline)\n", old.Name)
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("kernels regressed against the baseline (commit a new baseline only with a justification)")
	}
	return nil
}
