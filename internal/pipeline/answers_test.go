package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"macrobase/internal/gen"
	"macrobase/internal/ingest"
)

// pinnedAnswers are the SHA-256 digests of RunQuery's one-shot Result,
// as JSON (answerDigest), over generated CMT CSVs of 20K rows, for two
// generator seeds at confidence 0 and 0.95. They were recorded before
// CSV metrics left strconv.ParseFloat's path, before MeanCovInto ran an
// AVX2 kernel and before ExplainBatch counted over dense id slices: each
// of those changes keeps every bit of every answer.
var pinnedAnswers = []struct {
	seed       uint64
	confidence float64
	digest     string
}{
	{1, 0, "b7378b42b6be27031a379c2b4d88f173cf41621cf69ef041cf7a1020f3eb7380"},
	{1, 0.95, "5717d474a604601e90b0ba4074a2a76737bd0cd7c6d8d1a4dbd9e6e8546f9e3c"},
	{7, 0, "bd8db041b156d4fac4bd2fc9a65d5e9394d09a8a119d5925a0af61d4baada47c"},
	{7, 0.95, "ff3ac75963827ace06733738e12eba8d9cebea9e88dbcc3809c53c10a1cd484f"},
}

// answerDigest is the hex SHA-256 of res as JSON. A risk ratio or an
// interval bound JSON cannot carry (+Inf for a combination no inlier
// has) is written as its float bits first.
func answerDigest(t *testing.T, res *Result) string {
	t.Helper()
	for i := range res.Explanations {
		e := &res.Explanations[i]
		for _, v := range []*float64{&e.RiskRatio, &e.CI.Lo, &e.CI.Hi} {
			if math.IsInf(*v, 0) || math.IsNaN(*v) {
				*v = float64(math.Float64bits(*v))
			}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestOneShotAnswersPinned runs whole one-shot queries — CSV parse, the
// full-data MCD fit and the batch explainer — and holds each Result to
// the digest recorded for it.
func TestOneShotAnswersPinned(t *testing.T) {
	ds, err := gen.DatasetByName("CMT")
	if err != nil {
		t.Fatal(err)
	}
	csvs := map[uint64][]byte{}
	var schema ingest.Schema
	for _, pin := range pinnedAnswers {
		if csvs[pin.seed] == nil {
			enc, rows, _ := ds.Generate(gen.GenerateConfig{Points: 20_000, Seed: pin.seed})
			schema = ingest.Schema{Metrics: ds.MetricNames, Attributes: enc.Columns()}
			var buf bytes.Buffer
			if err := ingest.WriteCSV(&buf, schema, enc, rows); err != nil {
				t.Fatal(err)
			}
			csvs[pin.seed] = buf.Bytes()
		}
		q := &ingest.QueryConfig{Metrics: schema.Metrics, Attributes: schema.Attributes, Confidence: pin.confidence}
		res, err := RunQuery(q, bytes.NewReader(csvs[pin.seed]))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Explanations) == 0 {
			t.Errorf("seed %d confidence %v: no explanations", pin.seed, pin.confidence)
		}
		if got := answerDigest(t, res); got != pin.digest {
			t.Errorf("seed %d confidence %v: answer digest %s, pinned %s", pin.seed, pin.confidence, got, pin.digest)
		}
	}
}
