//go:build linux

package main

import (
	"fmt"
	"io"
)

// repeatWorkload runs one workload -repeat times back to back and
// answers the question a later PR's comparison rests on: do two sets
// of runs of the same code agree within the benchmark's own bounds? It
// prints min/median/max and (max-min)/median per end-to-end metric,
// splits the runs into two interleaved halves (even and odd runs, so
// slow drift of the machine lands in both) and fails when any metric's
// half-medians differ by more than its bound. The fixed work of every
// run must repeat exactly.
func repeatWorkload(bin string, in *inputs, o options, cat *catalog, w io.Writer) error {
	series := make(map[string][]float64)
	var first *result
	for i := 0; i < o.repeat; i++ {
		res, err := measure(bin, in, o.seconds, nil)
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		if res.ops.failed > 0 {
			return fmt.Errorf("run %d: %d of %d operations failed: %v", i+1, res.ops.failed, res.ops.attempted, res.ops.notes)
		}
		if first == nil {
			first = res
		} else if res.frames != first.frames || res.points != first.points || res.answers != first.answers {
			return fmt.Errorf("run %d did different work: frames/points/answers %d/%d/%d, first run %d/%d/%d",
				i+1, res.frames, res.points, res.answers, first.frames, first.points, first.answers)
		}
		for k, v := range res.e2e {
			series[k] = append(series[k], v)
		}
		fmt.Fprintf(w, "run %d/%d done\n", i+1, o.repeat)
	}

	fmt.Fprintf(w, "## %s: %d runs, frames=%d points=%d answers=%d each\n", in.sp.name, o.repeat, first.frames, first.points, first.answers)
	fmt.Fprintf(w, "  %-18s %-14s %12s %12s %12s %8s %8s %6s\n", "metric", "unit", "min", "median", "max", "spread", "halves", "bound")
	var over []string
	for _, d := range cat.EndToEnd {
		xs := series[d.Name]
		var even, odd []float64
		for i, x := range xs {
			if i%2 == 0 {
				even = append(even, x)
			} else {
				odd = append(odd, x)
			}
		}
		med := median(xs)
		spread := (percentile(xs, 1) - percentile(xs, 0)) / med
		a, b := median(even), median(odd)
		halves := 0.0
		if len(odd) > 0 {
			halves = (max(a, b) - min(a, b)) / min(a, b)
		}
		fmt.Fprintf(w, "  %-18s %-14s %12.6g %12.6g %12.6g %7.1f%% %7.1f%% %5.0f%%\n",
			d.Name, d.Unit, percentile(xs, 0), med, percentile(xs, 1), spread*100, halves*100, d.Bound*100)
		if halves > d.Bound {
			over = append(over, d.Name)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("interleaved half-medians differ by more than the bound for %v", over)
	}
	return nil
}
