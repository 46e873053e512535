package mcd

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// crewWorkers are the worker counts the fan-out tests fit on: a crew of
// no helpers, two and four cores, and counts that leave the last helpers a
// stage's short tail or nothing at all.
var crewWorkers = []int{1, 2, 3, 4, 7}

// TestFitBitsIndependentOfWorkers: a fit answers the same bits on any
// number of workers, since a C-step reads only its candidate and the
// stage's points, every start is drawn on the caller in trial order, and
// results are ranked in candidate order. On amd64 those bits are also
// TestFitBitsMatchParent's recorded digests.
func TestFitBitsIndependentOfWorkers(t *testing.T) {
	check := func(name string, cfg Config, data func(seed uint64) [][]float64) {
		for seed := uint64(0); seed < crewSeeds; seed++ {
			pts := data(seed)
			cfg.Seed = seed
			key := fmt.Sprintf("%s/%d", name, seed)
			want, recorded := parentFitBits[key]
			if runtime.GOARCH != "amd64" {
				recorded = false
			}
			for _, w := range crewWorkers {
				est, err := fit(pts, cfg, w)
				if err != nil {
					t.Fatalf("%s, %d workers: %v", key, w, err)
				}
				got := fitDigest(pts, est)
				if !recorded {
					want, recorded = got, true
				}
				if got != want {
					t.Errorf("%s, %d workers: digest %#x, want %#x", key, w, got, want)
				}
			}
		}
	}
	for _, sh := range oracleShapes {
		check(sh.name, sh.cfg, sh.data)
	}
	check("n40k-p7", Config{}, func(s uint64) [][]float64 { return gaussMix(40_000, 7, s) })
}

// TestCrewHelperPanicReachesCaller: a panic on a helper is raised again
// on the goroutine that ran the stage, once every goroutine has left it,
// and the crew still stops. The caller's own item waits until a helper
// has panicked, so the panic is a helper's, not the caller's.
func TestCrewHelperPanicReachesCaller(t *testing.T) {
	pts := gaussMix(200, 3, 1)
	lead := newCStepper(pts, 100)
	c := startCrew(pts, 100, 3)
	helperPanicked := make(chan struct{})
	var once sync.Once
	func() {
		defer func() {
			if p := recover(); p != "helper panic" {
				t.Errorf("run raised %v, want the helper's panic", p)
			}
		}()
		c.run(lead, make([]candidate, 8), func(s *cStepper, _ *candidate) {
			if s == lead {
				select {
				case <-helperPanicked:
				case <-time.After(10 * time.Second):
					t.Error("no helper took an item")
				}
				return
			}
			once.Do(func() { close(helperPanicked) })
			panic("helper panic")
		})
		t.Error("run returned normally")
	}()
	c.stop()
	waitNoHelpers(t)
}

// TestFitPanicOnCrewReachesCaller: a row that panics the full-data
// ranking's sweep, on whichever goroutine steps a candidate, panics Fit's
// caller, and no helper outlives the fit. The row is one the nested trial
// stage never samples, so the panic comes from the fanned-out steps.
func TestFitPanicOnCrewReachesCaller(t *testing.T) {
	const n, p, seed = 10_000, 7, 5
	pts := gaussMix(n, p, seed)
	sampled := make([]bool, n)
	for _, i := range randSubset(nil, n, 5*300, fitRNG(seed), make([]bool, n)) {
		sampled[i] = true
	}
	bad := 1
	for sampled[bad] {
		bad++
	}
	pts[bad] = nil
	for _, w := range crewWorkers[1:] {
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "out of range") {
					t.Errorf("%d workers: Fit raised %v, want the sweep's out-of-range panic", w, p)
				}
			}()
			fit(pts, Config{Seed: seed}, w)
			t.Errorf("%d workers: Fit returned over a nil row", w)
		}()
		waitNoHelpers(t)
	}
}

// waitNoHelpers fails unless no goroutine is in a crew helper's loop. A
// helper that has signalled its exit is still listed until it returns, a
// few instructions later, so the check allows it a moment.
func waitNoHelpers(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(2 * time.Second)
	for {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "mcd.(*crew).help") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a crew helper outlived its fit:\n%s", stacks)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentFitsShareNothing: two fits at once, each with its own
// crew at GOMAXPROCS (run it with -cpu 4 -race), answer what each does
// alone on one worker.
func TestConcurrentFitsShareNothing(t *testing.T) {
	data := [][][]float64{gaussMix(10_000, 7, 3), gaussMix(500, 4, 4)}
	want := make([]uint64, len(data))
	for i, pts := range data {
		est, err := fit(pts, Config{Seed: uint64(i)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fitDigest(pts, est)
	}
	var wg sync.WaitGroup
	for i, pts := range data {
		wg.Add(1)
		go func(i int, pts [][]float64) {
			defer wg.Done()
			est, err := Fit(pts, Config{Seed: uint64(i)})
			if err != nil {
				t.Error(err)
				return
			}
			if got := fitDigest(pts, est); got != want[i] {
				t.Errorf("fit %d beside another at GOMAXPROCS %d: digest %#x, alone %#x", i, runtime.GOMAXPROCS(0), got, want[i])
			}
		}(i, pts)
	}
	wg.Wait()
}

// TestCrewAllocations: past a one-worker fit, whose crew (the crew and
// its wake channel, two allocations) has no helpers, a crew costs a fixed
// number of allocations per helper — its goroutine's closure, a cStepper
// over the full data (eight) and that stepper's Cholesky factor (two) —
// and nothing per stage, trial or candidate. A fit asked for
// more than topKeep workers runs topKeep, so no helper holds a full-data
// stepper that the full-data ranking has no candidate for. AllocsPerRun
// counts every goroutine's allocations, the runtime's own included (a fit
// sometimes reads two more than the same fit before it, so the bound
// carries slack of four); it pins GOMAXPROCS to 1, which leaves the
// helpers interleaved but still running.
func TestCrewAllocations(t *testing.T) {
	const perHelper, slack = 11, 4
	pts := gaussMix(2_000, 7, 1)
	allocs := func(workers int) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := fit(pts, Config{}, workers); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := allocs(1)
	for _, w := range []int{2, 3, 4, 7, topKeep, topKeep + 6} {
		got := allocs(w)
		bound := one + perHelper*float64(min(w, topKeep)-1) + slack
		if got > bound {
			t.Errorf("%d workers: %.0f allocations, want <= %.0f (one worker %.0f, +%d per helper up to %d, +%d)", w, got, bound, one, perHelper, topKeep-1, slack)
		}
		t.Logf("%d workers: %.0f allocations (one worker %.0f)", w, got, one)
	}
}
