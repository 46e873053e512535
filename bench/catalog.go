//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef is one entry of BENCHMARK.json: the catalogue (names,
// units, directions, regression bounds) lives in that file alone, and
// the harness refuses to report a metric the file does not name.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadCatalog(root string) (*catalog, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("reading metric catalogue: %w", err)
	}
	var c catalog
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// metricValue is one reported number in the result line's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs measured values with the catalogue's units. A value
// the catalogue does not name is a harness bug and an error; so is a
// catalogue entry without a value, unless zeroMissing says that an
// unmeasured metric does not apply to the workload and reads 0.
func report(defs []metricDef, values map[string]float64, zeroMissing bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	named := 0
	for _, d := range defs {
		v, ok := values[d.Name]
		if ok {
			named++
		} else if !zeroMissing {
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if named != len(values) {
		var extra []string
		for name := range values {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics %v are not in BENCHMARK.json", extra)
	}
	return out, nil
}
