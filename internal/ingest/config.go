package ingest

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// QueryConfig is the JSON configuration consumed by the command-line
// tools, mirroring the paper's query model: an input, a metric/
// attribute selection, classifier settings, and explanation
// thresholds (paper §3.2).
type QueryConfig struct {
	// Input is the CSV path ("-" reads stdin).
	Input string `json:"input"`
	// Metrics and Attributes name the columns of interest.
	Metrics    []string `json:"metrics"`
	Attributes []string `json:"attributes"`
	// TimeColumn optionally names the event-time column.
	TimeColumn string `json:"timeColumn,omitempty"`

	// Streaming selects exponentially weighted streaming execution;
	// false runs one-shot batch execution (paper §3.2 operating
	// modes).
	Streaming bool `json:"streaming"`

	// Percentile is the outlier score cutoff quantile (default
	// 0.99).
	Percentile float64 `json:"percentile,omitempty"`
	// MinSupport is the minimum outlier support fraction (default
	// 0.001).
	MinSupport float64 `json:"minSupport,omitempty"`
	// MinRiskRatio is the minimum risk ratio (default 3).
	MinRiskRatio float64 `json:"minRiskRatio,omitempty"`
	// DecayRate and DecayEveryPoints configure streaming decay
	// (defaults 0.01 and 100000).
	DecayRate        float64 `json:"decayRate,omitempty"`
	DecayEveryPoints int     `json:"decayEveryPoints,omitempty"`
	// ReservoirSize configures the ADR capacities (default 10000).
	ReservoirSize int `json:"reservoirSize,omitempty"`
	// Confidence, when positive, attaches risk-ratio confidence
	// intervals at the given level.
	Confidence float64 `json:"confidence,omitempty"`
	// CoordinateEvery is the cross-shard threshold coordination period
	// in points (default 25000; only meaningful for sharded streams).
	CoordinateEvery int `json:"coordinateEvery,omitempty"`
	// DisableGlobalThreshold turns cross-shard threshold coordination
	// off, restoring per-shard percentile cutoffs (bit-exact
	// reproducible, but skew-sensitive).
	DisableGlobalThreshold bool `json:"disableGlobalThreshold,omitempty"`
	// RoutingBuckets is the skew-adaptive router's virtual-bucket count
	// (default 256, rounded up to a multiple of the shard count).
	RoutingBuckets int `json:"routingBuckets,omitempty"`
	// RebalanceAbove is the load-imbalance trigger above which the
	// coordinator migrates hot routing buckets to cooler shards
	// (default 1.5; only meaningful for sharded streams).
	RebalanceAbove float64 `json:"rebalanceAbove,omitempty"`
	// DisableRebalance pins every attribute set to its direct-hash
	// shard for the whole run (bit-exact reproducible, but hot
	// attribute combinations stay hot).
	DisableRebalance bool `json:"disableRebalance,omitempty"`
	// Seed fixes all randomized components.
	Seed uint64 `json:"seed,omitempty"`
}

// Validate checks required fields and applies defaults.
func (c *QueryConfig) Validate() error {
	if c.Input == "" {
		return fmt.Errorf("ingest: query config requires an input")
	}
	if len(c.Metrics) == 0 {
		return fmt.Errorf("ingest: query config requires at least one metric")
	}
	if len(c.Attributes) == 0 {
		return fmt.Errorf("ingest: query config requires at least one attribute")
	}
	if c.Percentile == 0 {
		c.Percentile = 0.99
	}
	if c.Percentile <= 0 || c.Percentile >= 1 {
		return fmt.Errorf("ingest: percentile %v out of (0,1)", c.Percentile)
	}
	if c.MinSupport == 0 {
		c.MinSupport = 0.001
	}
	if c.MinRiskRatio == 0 {
		c.MinRiskRatio = 3
	}
	if c.DecayRate == 0 {
		c.DecayRate = 0.01
	}
	if c.DecayRate < 0 || c.DecayRate >= 1 {
		return fmt.Errorf("ingest: decayRate %v out of [0,1)", c.DecayRate)
	}
	if c.DecayEveryPoints == 0 {
		c.DecayEveryPoints = 100_000
	}
	if c.ReservoirSize == 0 {
		c.ReservoirSize = 10_000
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"decayEveryPoints", c.DecayEveryPoints},
		{"reservoirSize", c.ReservoirSize},
		{"coordinateEvery", c.CoordinateEvery},
		{"routingBuckets", c.RoutingBuckets},
	} {
		if f.v < 0 {
			return fmt.Errorf("ingest: %s %d must be >= 0", f.name, f.v)
		}
	}
	return nil
}

// Schema derives the CSV schema from the column selections.
func (c *QueryConfig) Schema() Schema {
	return Schema{Metrics: c.Metrics, Attributes: c.Attributes, TimeColumn: c.TimeColumn}
}

// LoadQueryConfig reads and validates a JSON query config from path.
func LoadQueryConfig(path string) (*QueryConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadQueryConfig(f)
}

// ReadQueryConfig decodes and validates a JSON query config.
func ReadQueryConfig(r io.Reader) (*QueryConfig, error) {
	var c QueryConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("ingest: parsing query config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
