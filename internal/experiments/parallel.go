package experiments

import (
	"fmt"
	"sync"

	"macrobase/internal/core"
	"macrobase/internal/explain"
	"macrobase/internal/pipeline"
)

// ParallelResult is the outcome of a shared-nothing parallel run.
type ParallelResult struct {
	// Explanations is the deduplicated union of the per-partition
	// explanations, as in the paper's naive scale-out strategy
	// (Appendix D): each partition explains its own sample, and the
	// union is returned without cross-partition reconciliation.
	Explanations []core.Explanation
	// PerPartition holds each partition's own result.
	PerPartition []*pipeline.Result
}

// RunParallel executes the one-shot MDP independently over P
// round-robin partitions of pts — the paper's shared-nothing strategy
// ("one query per core"). Throughput scales nearly linearly; accuracy
// degrades because each partition trains and summarizes on a slice of
// the data (Figure 11).
func RunParallel(pts []core.Point, cfg pipeline.Config, partitions int) (*ParallelResult, error) {
	if partitions <= 0 {
		return nil, fmt.Errorf("experiments: partitions must be positive")
	}
	parts := make([][]core.Point, partitions)
	per := (len(pts) + partitions - 1) / partitions
	for i := range parts {
		parts[i] = make([]core.Point, 0, per)
	}
	for i := range pts {
		parts[i%partitions] = append(parts[i%partitions], pts[i])
	}

	results := make([]*pipeline.Result, partitions)
	errs := make([]error, partitions)
	var wg sync.WaitGroup
	for p := 0; p < partitions; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pcfg := cfg
			pcfg.Seed = cfg.Seed + uint64(p)*7919
			results[p], errs[p] = pipeline.RunOneShot(parts[p], pcfg)
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Union with per-combination dedup, keeping the occurrence-
	// weighted aggregate so ranked output remains meaningful.
	merged := make(map[string]*core.Explanation)
	var order []string
	for _, r := range results {
		for i := range r.Explanations {
			e := r.Explanations[i]
			k := itemsKey(e.ItemIDs)
			if m, ok := merged[k]; ok {
				m.OutlierCount += e.OutlierCount
				m.InlierCount += e.InlierCount
				m.TotalOutliers += e.TotalOutliers
				m.TotalInliers += e.TotalInliers
				m.Support = m.OutlierCount / m.TotalOutliers
				m.RiskRatio = explain.RiskRatio(m.OutlierCount, m.InlierCount, m.TotalOutliers, m.TotalInliers)
			} else {
				cp := e
				merged[k] = &cp
				order = append(order, k)
			}
		}
	}
	out := make([]core.Explanation, 0, len(merged))
	for _, k := range order {
		out = append(out, *merged[k])
	}
	explain.Rank(out)
	return &ParallelResult{Explanations: out, PerPartition: results}, nil
}

func itemsKey(items []int32) string {
	b := make([]byte, 0, len(items)*4)
	for _, it := range items {
		b = append(b, byte(it), byte(it>>8), byte(it>>16), byte(it>>24))
	}
	return string(b)
}
