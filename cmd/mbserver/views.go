package main

import (
	"encoding/json"
	"log"
	"net/http"

	"macrobase/internal/core"
	"macrobase/internal/pipeline"
)

// queryResponse is the JSON report returned to programmatic consumers.
type queryResponse struct {
	Points       int               `json:"points"`
	Outliers     int               `json:"outliers"`
	Explanations []explanationJSON `json:"explanations"`
}

// explanationJSON is one explanation on the wire. RiskRatio is +Inf for
// a combination absent from the inliers, and passes through
// pipeline.JSONFloat, the wire's one rule for non-finite floats.
type explanationJSON struct {
	Attributes []core.Attribute   `json:"attributes"`
	Support    float64            `json:"support"`
	RiskRatio  pipeline.JSONFloat `json:"riskRatio"`
	Outliers   float64            `json:"outlierCount"`
	Inliers    float64            `json:"inlierCount"`
	// CI is the risk ratio's confidence interval, present when the
	// query asked for one ("confidence").
	CI *intervalJSON `json:"ci,omitempty"`
}

// intervalJSON is a confidence interval on the wire. Lo and Hi pass
// through pipeline.JSONFloat: Hi is +Inf for a combination absent from
// the inliers, just as its risk ratio is.
type intervalJSON struct {
	Lo    pipeline.JSONFloat `json:"lo"`
	Hi    pipeline.JSONFloat `json:"hi"`
	Level float64            `json:"level"`
}

func explanationsJSON(exps []core.Explanation) []explanationJSON {
	out := make([]explanationJSON, 0, len(exps))
	for _, e := range exps {
		ej := explanationJSON{
			Attributes: e.Attributes,
			Support:    e.Support,
			RiskRatio:  pipeline.JSONFloat(e.RiskRatio),
			Outliers:   e.OutlierCount,
			Inliers:    e.InlierCount,
		}
		if e.CI.Level > 0 {
			ej.CI = &intervalJSON{Lo: pipeline.JSONFloat(e.CI.Lo), Hi: pipeline.JSONFloat(e.CI.Hi), Level: e.CI.Level}
		}
		out = append(out, ej)
	}
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encoding response: %v", err)
	}
}

// streamResponse is the poll/stop report.
type streamResponse struct {
	ID         string `json:"id"`
	Done       bool   `json:"done"`
	Points     int    `json:"points"`
	Outliers   int    `json:"outliers"`
	DecayTicks int    `json:"decayTicks"`
	// Ingest, for push sessions, reports the account's per-partition
	// producer-side counters (core.StreamStats.Ingest): queue depth and
	// cumulative blocked time (backpressure felt by producers) plus
	// accepted batch/point totals and windowed per-second rates. A done
	// session's are the account at the end of the run.
	Ingest       []core.PartitionIngestStats `json:"ingest,omitempty"`
	Explanations []explanationJSON           `json:"explanations"`
	// Shards is the skew breakdown: per-shard load, outlier rate, and
	// threshold state, the hot-shard imbalance metric, and the
	// coordination view (rounds completed, last global cutoff).
	Shards *pipeline.ShardBreakdown `json:"shards,omitempty"`
	// Health reports whether the session is running clean or degraded
	// (a shard worker panicked and was quarantined; the stream keeps
	// running on the survivors and the explanations cover their share
	// of the data only).
	Health healthJSON `json:"health"`
}

// healthJSON is the poll/stop health block.
type healthJSON struct {
	// Status is "ok" or "degraded".
	Status string `json:"status"`
	// DegradedShards lists quarantined shard indexes.
	DegradedShards []int `json:"degradedShards,omitempty"`
	// DroppedPoints totals points routed to dead shards and drained
	// without processing.
	DroppedPoints int64 `json:"droppedPoints,omitempty"`
	// Errors carries each dead shard's failure message.
	Errors []string `json:"errors,omitempty"`
}

// healthOf folds a result's failure records into the health block.
func healthOf(res *pipeline.ShardedResult) healthJSON {
	h := healthJSON{Status: "ok"}
	if !res.Stats.Degraded {
		return h
	}
	h.Status = "degraded"
	for _, f := range res.Stats.ShardFailures {
		h.DegradedShards = append(h.DegradedShards, f.Shard)
		h.DroppedPoints += f.DroppedPoints
		h.Errors = append(h.Errors, f.Err)
	}
	return h
}

func writeStreamResponse(w http.ResponseWriter, id string, st *streamState, res *pipeline.ShardedResult, done bool) {
	// Decorate a copy: poll results are session-owned snapshots but
	// the final result is shared across concurrent poll/stop calls.
	exps := make([]core.Explanation, len(res.Explanations))
	copy(exps, res.Explanations)
	st.enc.Decorate(exps)
	resp := streamResponse{
		ID:         id,
		Done:       done,
		Points:     res.Stats.Points,
		Outliers:   res.Stats.Outliers,
		DecayTicks: res.Stats.DecayTicks,
		Ingest:     res.Stats.Ingest,
		Health:     healthOf(res),
	}
	resp.Explanations = explanationsJSON(exps)
	// The breakdown types marshal their own NaN/±Inf fields safely
	// (pipeline.ShardBreakdown.MarshalJSON), so no scrubbing pass here.
	resp.Shards = res.Shards
	writeJSON(w, resp)
}
