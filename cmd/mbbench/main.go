// Command mbbench regenerates the paper's tables and figures on the
// synthetic dataset analogs. Each experiment prints one or more
// aligned-text tables whose rows mirror the corresponding paper
// result; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// Usage:
//
//	mbbench -list
//	mbbench -run fig3,fig6 -scale 0.05
//	mbbench -run all -scale 0.05
//	mbbench -run quick -scale 0.02   # skips the heavy experiments
//	mbbench -run fig6,mcps -json results.json   # machine-readable copy
//	mbbench -bench -json results.json           # + hot-path micro-benchmarks
//	mbbench -bench -compare BENCH_PR25.json     # fail on >2x ns/op or allocs/op
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
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
	// GoMaxProcs records the scheduler's parallelism at recording time.
	// The PollParallel kernels scale with it, so -compare refuses to
	// judge speedup ratios across differing core budgets (it warns
	// instead of failing).
	GoMaxProcs  int              `json:"go_max_procs,omitempty"`
	StartedAt   string           `json:"started_at"` // RFC 3339
	Experiments []jsonExperiment `json:"experiments"`
	// Benchmarks holds the -bench micro-benchmark results (ns/op,
	// allocs/op per hot-path kernel); -compare diffs these against a
	// committed baseline report and fails CI on >2x inflation.
	Benchmarks []benchResult `json:"benchmarks,omitempty"`
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
		bench    = flag.Bool("bench", false, "run hot-path micro-benchmarks and include them in the report")
		compare  = flag.String("compare", "", "baseline report to diff micro-benchmarks against; exit 1 on >2x ns/op or allocs/op inflation (implies -bench)")
	)
	flag.Parse()
	if *compare != "" {
		*bench = true
	}

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
	if *bench {
		report.Benchmarks = microBenchmarks()
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
		if err := compareAgainstBaseline(*compare, report.Benchmarks); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
