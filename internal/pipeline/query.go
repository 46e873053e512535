package pipeline

import (
	"io"

	"macrobase/internal/encode"
	"macrobase/internal/ingest"
)

// FromQuery maps a wire query config — mbserver's /query and
// /stream/start bodies, mbquery's config file — onto pipeline
// parameters. It is the one such mapping: every front end takes its
// Config from here.
func FromQuery(q *ingest.QueryConfig) Config {
	return Config{
		Dims:                   len(q.Metrics),
		Percentile:             q.Percentile,
		MinSupport:             q.MinSupport,
		MinRiskRatio:           q.MinRiskRatio,
		DecayRate:              q.DecayRate,
		DecayEveryPoints:       q.DecayEveryPoints,
		ReservoirSize:          q.ReservoirSize,
		Confidence:             q.Confidence,
		CoordinateEvery:        q.CoordinateEvery,
		DisableGlobalThreshold: q.DisableGlobalThreshold,
		DisableRebalance:       q.DisableRebalance,
		Seed:                   q.Seed,
	}
}

// RunQuery runs q over the CSV read from in — EWS streaming or one-shot
// as q.Streaming selects — and returns the result with its explanations
// decorated with attribute names. One-shot mode reads the stored data
// into memory first (paper §3.2: batch execution streams over stored
// data), parsing it on every core (ingest.CSVSource.ReadAll).
func RunQuery(q *ingest.QueryConfig, in io.Reader) (*Result, error) {
	enc := encode.NewEncoder(q.Attributes...)
	src, err := ingest.NewCSVSource(in, q.Schema(), enc)
	if err != nil {
		return nil, err
	}
	cfg := FromQuery(q)
	var res *Result
	if q.Streaming {
		res, err = RunStreaming(src, cfg)
	} else {
		pts, rerr := src.ReadAll()
		if rerr != nil {
			return nil, rerr
		}
		res, err = RunOneShot(pts, cfg)
	}
	if err != nil {
		return nil, err
	}
	enc.Decorate(res.Explanations)
	return res, nil
}
