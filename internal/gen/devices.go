// Package gen builds the synthetic workloads behind every experiment
// in the evaluation: the device populations of §6.1 (with label and
// measurement noise), the contamination sweep of Figure 3, the
// time-varying script of Figure 5, analogs of the six Table 2
// datasets, DBSherlock-style server clusters for Table 4, and the
// electricity and video case-study inputs of §6.4.
//
// The paper's real datasets (CMT production data, Iowa liquor sales,
// Milan telecom, FEC campaign/disbursement records, UK accidents) are
// not redistributable; the generators reproduce their published shape
// — point counts, metric/attribute arity, attribute cardinality, and
// planted systemic anomalies — which is what MacroBase's throughput
// and accuracy depend on.
package gen

import (
	"fmt"
	"math/rand/v2"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// The §6.1 device distributions: inlier readings are N(10,10) and
// outlier readings N(70,10).
const (
	deviceInlierMean  = 10
	deviceOutlierMean = 70
	deviceStdDev      = 10
)

// DeviceConfig parameterizes the §6.1 synthetic-device workload: each
// point carries one metric drawn from an inlier N(10,10) or outlier
// N(70,10) distribution depending on its device, plus the device ID as
// its sole attribute.
type DeviceConfig struct {
	// Points is the number of generated points (paper: 1M).
	Points int
	// Devices is the number of distinct device IDs (paper: 6400,
	// 12800, 25600).
	Devices int
	// OutlierDeviceFraction is the fraction of devices whose
	// readings come from the outlier distribution (default 0.01).
	OutlierDeviceFraction float64
	// LabelNoise assigns this fraction of readings to the wrong
	// distribution for their device (paper Figure 4 left).
	LabelNoise float64
	// MeasurementNoise replaces this fraction of readings with
	// Uniform[0, 80) regardless of device (paper Figure 4 right).
	MeasurementNoise float64
	// Seed fixes the generated stream.
	Seed uint64
}

func (c DeviceConfig) withDefaults() DeviceConfig {
	if c.Points == 0 {
		c.Points = 1_000_000
	}
	if c.Devices == 0 {
		c.Devices = 6400
	}
	if c.OutlierDeviceFraction == 0 {
		c.OutlierDeviceFraction = 0.01
	}
	return c
}

// DeviceData is a generated device workload with its ground truth.
type DeviceData struct {
	Encoder *encode.Encoder
	Points  []core.Point
	// OutlierDevices holds the encoded attribute ids of the devices
	// drawn from the outlier distribution — the set an explanation
	// should recover.
	OutlierDevices map[int32]bool
	// AllDevices maps every device's encoded id.
	AllDevices []int32
}

// Devices generates the §6.1 workload.
func Devices(cfg DeviceConfig) *DeviceData {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xa5a5a5a5deadbeef))
	enc := encode.NewEncoder("device_id")

	nOutDev := int(float64(cfg.Devices) * cfg.OutlierDeviceFraction)
	if nOutDev < 1 {
		nOutDev = 1
	}
	d := &DeviceData{
		Encoder:        enc,
		OutlierDevices: make(map[int32]bool, nOutDev),
		AllDevices:     make([]int32, cfg.Devices),
	}
	for i := 0; i < cfg.Devices; i++ {
		d.AllDevices[i] = enc.Encode(0, fmt.Sprintf("dev%06d", i))
		if i < nOutDev {
			d.OutlierDevices[d.AllDevices[i]] = true
		}
	}
	d.Points = make([]core.Point, cfg.Points)
	for i := range d.Points {
		dev := d.AllDevices[rng.IntN(cfg.Devices)]
		outlying := d.OutlierDevices[dev]
		if cfg.LabelNoise > 0 && rng.Float64() < cfg.LabelNoise {
			outlying = !outlying
		}
		var v float64
		switch {
		case cfg.MeasurementNoise > 0 && rng.Float64() < cfg.MeasurementNoise:
			v = rng.Float64() * 80
		case outlying:
			v = deviceOutlierMean + rng.NormFloat64()*deviceStdDev
		default:
			v = deviceInlierMean + rng.NormFloat64()*deviceStdDev
		}
		d.Points[i] = core.Point{
			Metrics: []float64{v},
			Attrs:   []int32{dev},
			Time:    float64(i),
		}
	}
	return d
}

// ExplanationF1 scores a set of device ids recovered by explanation
// against the planted ground truth, returning precision, recall, and
// F1 (the Figure 4 metric).
func (d *DeviceData) ExplanationF1(recovered map[int32]bool) (precision, recall, f1 float64) {
	tp := 0
	for id := range recovered {
		if d.OutlierDevices[id] {
			tp++
		}
	}
	if len(recovered) > 0 {
		precision = float64(tp) / float64(len(recovered))
	}
	if len(d.OutlierDevices) > 0 {
		recall = float64(tp) / float64(len(d.OutlierDevices))
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return precision, recall, f1
}
