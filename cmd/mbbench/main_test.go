package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompareKernels feeds canned `go test -bench` text through the
// parser and the gate against a two-kernel baseline recorded at
// GOMAXPROCS 2 on a 2-CPU amd64 box.
func TestCompareKernels(t *testing.T) {
	base := jsonReport{
		GOARCH: "amd64", NumCPU: 2, GoMaxProcs: 2,
		Benchmarks: []benchResult{
			{Name: "Route/p3s4", NsPerOp: 20_000, AllocsPerOp: 0},
			{Name: "Rebalance/p3s4", NsPerOp: 60_000, AllocsPerOp: 3},
		},
	}
	const header = "goos: linux\ngoarch: amd64\npkg: macrobase\ncpu: Intel(R) Xeon(R) Processor\n"
	tests := map[string]struct {
		text      string
		baseProcs int // baseline GOMAXPROCS; 0 means base's own
		wantProcs int
		wantErr   string
		wantOut   string
	}{
		"CleanRunPasses": {
			text: header +
				"BenchmarkRoute/p3s4-2   \t   37905\t     30289 ns/op\t     798 B/op\t       0 allocs/op\n" +
				"BenchmarkRebalance/p3s4-2 \t   13063\t     93868 ns/op\t    3943 B/op\t       5 allocs/op\n" +
				"PASS\nok  \tmacrobase\t26.557s\n",
			wantProcs: 2,
			wantOut:   "Route/p3s4                         ns/op 1.51x",
		},
		"MissingBaselineKernelFails": {
			text:      "BenchmarkRoute/p3s4-2 \t 37905\t 30289 ns/op\t 798 B/op\t 0 allocs/op\n",
			wantProcs: 2,
			wantErr:   "regressed",
			wantOut:   "Rebalance/p3s4                     MISSING",
		},
		"GatedLineWithoutAllocsFails": {
			text: "BenchmarkRoute/p3s4-2 \t 37905\t 30289 ns/op\n" +
				"BenchmarkRebalance/p3s4-2 \t 13063\t 93868 ns/op\t 3943 B/op\t 5 allocs/op\n",
			wantProcs: 2,
			wantErr:   "regressed",
			wantOut:   "Route/p3s4                         NO allocs/op",
		},
		"AllocsAtTwicePlusEightPass": {
			text: "BenchmarkRoute/p3s4-2 \t 37905\t 30289 ns/op\t 798 B/op\t 0 allocs/op\n" +
				"BenchmarkRebalance/p3s4-2 \t 13063\t 93868 ns/op\t 3943 B/op\t 14 allocs/op\n",
			wantProcs: 2,
			wantOut:   "allocs/op 3 -> 14  ok",
		},
		"AllocsAtTwicePlusNineFail": {
			text: "BenchmarkRoute/p3s4-2 \t 37905\t 30289 ns/op\t 798 B/op\t 0 allocs/op\n" +
				"BenchmarkRebalance/p3s4-2 \t 13063\t 93868 ns/op\t 3943 B/op\t 15 allocs/op\n",
			wantProcs: 2,
			wantErr:   "regressed",
			wantOut:   "allocs/op 3 -> 15  REGRESSION",
		},
		"NsAtTwoPointOneFailsAtMatchingProcs": {
			text: "BenchmarkRoute/p3s4-2 \t 37905\t 42000 ns/op\t 798 B/op\t 0 allocs/op\n" +
				"BenchmarkRebalance/p3s4-2 \t 13063\t 93868 ns/op\t 3943 B/op\t 5 allocs/op\n",
			wantProcs: 2,
			wantErr:   "regressed",
			wantOut:   "ns/op 2.10x (20000 -> 42000)  allocs/op 0 -> 0  REGRESSION",
		},
		"NsAtTwoPointOneWarnsAtOtherProcs": {
			text: "BenchmarkRoute/p3s4-4 \t 37905\t 42000 ns/op\t 798 B/op\t 0 allocs/op\n" +
				"BenchmarkRebalance/p3s4-4 \t 13063\t 93868 ns/op\t 3943 B/op\t 5 allocs/op\n",
			wantProcs: 4,
			wantOut:   "warning: baseline GOMAXPROCS=2 != kernels' GOMAXPROCS=4",
		},
		"SuffixlessLinesRunAtOneProc": {
			text: "BenchmarkRoute/p3s4 \t 37905\t 42000 ns/op\t 798 B/op\t 0 allocs/op\n" +
				"BenchmarkRebalance/p3s4 \t 13063\t 93868 ns/op\t 3943 B/op\t 5 allocs/op\n",
			baseProcs: 1,
			wantProcs: 1,
			wantErr:   "regressed",
			wantOut:   "ns/op 2.10x (20000 -> 42000)  allocs/op 0 -> 0  REGRESSION",
		},
		"HotShareMetricTolerated": {
			text: "BenchmarkRoute/p3s4-2 \t 37905\t 30289 ns/op\t 798 B/op\t 0 allocs/op\n" +
				"BenchmarkRebalance/p3s4-2 \t 13063\t 93868 ns/op\t 0.2929 hot-share\t 3943 B/op\t 5 allocs/op\n",
			wantProcs: 2,
			wantOut:   "allocs/op 3 -> 5  ok",
		},
		"UnknownKernelIsReportedNotGated": {
			text: "BenchmarkRoute/p3s4-2 \t 37905\t 30289 ns/op\t 798 B/op\t 0 allocs/op\n" +
				"BenchmarkRebalance/p3s4-2 \t 13063\t 93868 ns/op\t 3943 B/op\t 5 allocs/op\n" +
				"BenchmarkRestructure/rebuild-2 \t 10\t 114000000 ns/op\n",
			wantProcs: 2,
			wantOut:   "Restructure/rebuild                new kernel, no baseline",
		},
		"NoKernelLinesIsAnError": {
			text:    header + "PASS\n",
			wantErr: "no go test -bench result lines",
		},
		"MixedProcsIsAnError": {
			text: "BenchmarkRoute/p3s4 \t 37905\t 30289 ns/op\t 798 B/op\t 0 allocs/op\n" +
				"BenchmarkRoute/p3s4-2 \t 37905\t 30289 ns/op\t 798 B/op\t 0 allocs/op\n",
			wantErr: "GOMAXPROCS 1 and 2",
		},
	}
	for name, tc := range tests {
		t.Run(name, func(t *testing.T) {
			b := base
			if tc.baseProcs != 0 {
				b.GoMaxProcs = tc.baseProcs
			}
			cur := jsonReport{GOARCH: b.GOARCH, NumCPU: b.NumCPU}
			var out strings.Builder
			var err error
			cur.Benchmarks, cur.GoMaxProcs, err = parseKernels(strings.NewReader(tc.text))
			if err == nil {
				if cur.GoMaxProcs != tc.wantProcs {
					t.Errorf("GOMAXPROCS = %d, want %d", cur.GoMaxProcs, tc.wantProcs)
				}
				err = compareKernels(&out, b, cur)
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error %v; output:\n%s", err, out.String())
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error = %v, want one containing %q; output:\n%s", err, tc.wantErr, out.String())
			}
			if !strings.Contains(out.String(), tc.wantOut) {
				t.Errorf("output lacks %q:\n%s", tc.wantOut, out.String())
			}
		})
	}
}

// TestLoadBaseline loads the committed baseline and refuses one that
// records no kernels, which would gate nothing.
func TestLoadBaseline(t *testing.T) {
	base, err := loadBaseline("../../BENCH_PR32.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Benchmarks) != 13 || base.GoMaxProcs != 2 || base.NumCPU != 2 || base.GOARCH != "amd64" {
		t.Errorf("BENCH_PR32.json: %d kernels at %s/%d cpu/%d procs, want 13 at amd64/2/2",
			len(base.Benchmarks), base.GOARCH, base.NumCPU, base.GoMaxProcs)
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"schema":"mbbench/v1","experiments":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBaseline(empty); err == nil || !strings.Contains(err.Error(), "records no kernels") {
		t.Errorf("empty baseline: error = %v, want \"records no kernels\"", err)
	}
}
