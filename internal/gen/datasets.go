package gen

import (
	"fmt"
	"math/rand/v2"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// AttrCol describes one categorical attribute column of a dataset
// analog: its name, distinct-value cardinality, and the Zipf skew of
// its value distribution (real operational attributes — device IDs,
// recipients, stores — are heavily skewed).
type AttrCol struct {
	Name        string
	Cardinality int
	ZipfS       float64 // Zipf exponent; <=1.001 is near-uniform
}

// Dataset describes a Table 2 dataset analog: the published point
// count, metric/attribute arity for the simple (XS) and complex (XC)
// queries, per-column cardinalities, and the number of planted
// systemic anomaly groups.
type Dataset struct {
	Name string
	// Points is the paper's full dataset size; generators scale it.
	Points int
	// MetricNames for the complex query; the simple query uses the
	// first metric only.
	MetricNames []string
	// Attrs for the complex query; the simple query uses the first
	// attribute only.
	Attrs []AttrCol
	// PlantedGroups is how many attribute values are planted as
	// systemically anomalous.
	PlantedGroups int
}

// Catalog returns analogs of the paper's six datasets (Table 2 and
// Appendix D): point counts and query arities match the paper;
// cardinalities approximate the public datasets' published
// characteristics (e.g. Disburse's 138,338 distinct recipients,
// Accidents' nine weather conditions).
func Catalog() []Dataset {
	return []Dataset{
		{
			Name: "Liquor", Points: 3_050_000,
			MetricNames: []string{"sale_dollars", "volume_sold"},
			Attrs: []AttrCol{
				{Name: "store", Cardinality: 1400, ZipfS: 1.2},
				{Name: "item", Cardinality: 9000, ZipfS: 1.3},
				{Name: "category", Cardinality: 110, ZipfS: 1.1},
				{Name: "vendor", Cardinality: 300, ZipfS: 1.2},
			},
			PlantedGroups: 8,
		},
		{
			Name: "Telecom", Points: 10_000_000,
			MetricNames: []string{"internet", "sms_in", "sms_out", "call_in", "call_out"},
			Attrs: []AttrCol{
				{Name: "cell", Cardinality: 5000, ZipfS: 1.1},
				{Name: "country", Cardinality: 200, ZipfS: 1.4},
			},
			PlantedGroups: 6,
		},
		{
			Name: "Campaign", Points: 10_000_000,
			MetricNames: []string{"amount"},
			Attrs: []AttrCol{
				{Name: "contributor", Cardinality: 60_000, ZipfS: 1.2},
				{Name: "occupation", Cardinality: 4000, ZipfS: 1.3},
				{Name: "state", Cardinality: 55, ZipfS: 1.1},
				{Name: "employer", Cardinality: 20_000, ZipfS: 1.25},
				{Name: "committee", Cardinality: 2000, ZipfS: 1.2},
			},
			PlantedGroups: 4,
		},
		{
			Name: "Accidents", Points: 430_000,
			MetricNames: []string{"casualties", "vehicles", "speed_limit"},
			Attrs: []AttrCol{
				{Name: "weather", Cardinality: 9, ZipfS: 1.3},
				{Name: "severity", Cardinality: 3, ZipfS: 1.5},
				{Name: "road_type", Cardinality: 7, ZipfS: 1.2},
			},
			PlantedGroups: 2,
		},
		{
			Name: "Disburse", Points: 3_480_000,
			MetricNames: []string{"amount"},
			Attrs: []AttrCol{
				{Name: "recipient", Cardinality: 138_338, ZipfS: 1.15},
				{Name: "candidate", Cardinality: 3000, ZipfS: 1.2},
				{Name: "state", Cardinality: 55, ZipfS: 1.1},
				{Name: "purpose", Cardinality: 500, ZipfS: 1.3},
				{Name: "committee", Cardinality: 2000, ZipfS: 1.2},
				{Name: "cycle", Cardinality: 4, ZipfS: 1.01},
			},
			PlantedGroups: 10,
		},
		{
			Name: "CMT", Points: 10_000_000,
			MetricNames: []string{"trip_time", "battery_drain", "accel_events", "speed_var", "distance", "gps_samples", "upload_time"},
			Attrs: []AttrCol{
				{Name: "device_type", Cardinality: 5000, ZipfS: 1.3},
				{Name: "os_version", Cardinality: 40, ZipfS: 1.4},
				{Name: "app_version", Cardinality: 50, ZipfS: 1.5},
				{Name: "firmware", Cardinality: 200, ZipfS: 1.3},
				{Name: "carrier", Cardinality: 100, ZipfS: 1.4},
				{Name: "model", Cardinality: 1000, ZipfS: 1.3},
			},
			PlantedGroups: 6,
		},
	}
}

// DatasetByName returns the catalog entry with the given name.
func DatasetByName(name string) (Dataset, error) {
	for _, d := range Catalog() {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("gen: unknown dataset %q", name)
}

// outlierRate is the fraction of generated points drawn anomalously,
// matching the 1% target percentile.
const outlierRate = 0.01

// GenerateConfig controls dataset analog generation.
type GenerateConfig struct {
	// Points overrides the dataset's published size (0 keeps it;
	// experiments typically scale down).
	Points int
	// Simple selects the single-metric, single-attribute XS query
	// shape; false selects the complex XC shape.
	Simple bool
	// Seed fixes the stream.
	Seed uint64
}

// Generate materializes a dataset analog: metrics are lognormal-ish
// base load with planted attribute groups whose points shift by +8
// sigma with 90% probability, so explanations have systemic
// ground-truth causes. It returns the encoder, the points, and the
// encoded planted attribute ids.
func (d Dataset) Generate(cfg GenerateConfig) (*encode.Encoder, []core.Point, []int32) {
	if cfg.Points == 0 {
		cfg.Points = d.Points
	}
	metrics := d.MetricNames
	attrs := d.Attrs
	if cfg.Simple {
		metrics = metrics[:1]
		attrs = attrs[:1]
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xfeedface))

	names := make([]string, len(attrs))
	for i, a := range attrs {
		names[i] = a.Name
	}
	enc := encode.NewEncoder(names...)

	// Pre-encode every attribute value and prepare Zipf samplers.
	values := make([][]int32, len(attrs))
	zipfs := make([]*rand.Zipf, len(attrs))
	for c, a := range attrs {
		values[c] = make([]int32, a.Cardinality)
		for v := 0; v < a.Cardinality; v++ {
			values[c][v] = enc.Encode(c, fmt.Sprintf("%s_%d", a.Name, v))
		}
		s := a.ZipfS
		if s <= 1 {
			s = 1.001
		}
		zipfs[c] = rand.NewZipf(rng, s, 1, uint64(a.Cardinality-1))
	}

	// Plant anomaly groups on the first attribute column: specific
	// frequent-ish values whose points shift systematically.
	nPlanted := d.PlantedGroups
	if nPlanted >= attrs[0].Cardinality {
		nPlanted = attrs[0].Cardinality / 2
	}
	if nPlanted < 1 {
		nPlanted = 1
	}
	planted := make([]int32, nPlanted)
	plantedSet := make(map[int32]bool, nPlanted)
	for i := 0; i < nPlanted; i++ {
		// Spread across moderately ranked values so they are neither
		// dominant nor vanishing under the Zipf draw.
		v := values[0][(i*7+3)%attrs[0].Cardinality]
		planted[i] = v
		plantedSet[v] = true
	}

	pts := make([]core.Point, cfg.Points)
	for i := range pts {
		as := make([]int32, len(attrs))
		for c := range attrs {
			as[c] = values[c][int(zipfs[c].Uint64())]
		}
		// Route ~outlierRate of points through a planted group.
		anomalous := false
		if rng.Float64() < outlierRate {
			as[0] = planted[rng.IntN(nPlanted)]
			anomalous = rng.Float64() < 0.9
		} else if plantedSet[as[0]] {
			// Organic draws of planted values behave anomalously too:
			// the anomaly is systemic to the attribute value.
			anomalous = rng.Float64() < 0.9
		}
		ms := make([]float64, len(metrics))
		for m := range ms {
			base := 10 + rng.NormFloat64()*3
			if anomalous {
				base += 24 // +8 sigma systemic shift
			}
			ms[m] = base
		}
		pts[i] = core.Point{Metrics: ms, Attrs: as, Time: float64(i)}
	}
	return enc, pts, planted
}
