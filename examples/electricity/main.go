// Electricity: the time-series case study of paper §6.4.
//
// Three weeks of per-minute household power readings go through a
// short-time Fourier transform, which groups the readings by device and
// windows each device's readings by hour itself; each hour becomes one
// point whose metrics are the lowest Fourier magnitudes and whose
// attributes identify (device, hour of day). The example runs the
// transform itself and hands its windows to an unmodified MDP, which
// finds outlying time periods and devices:
//
//	ingest -> STFT (per plug, 1h windows) -> truncate -> MCD -> %ile -> explain
//
// What it reports: all 152 flagged windows are the refrigerator's
// (plug0), so {device=plug0} ranks first (support 1.0, risk ratio
// +Inf); the planted lunchtime fault follows as {device=plug0,
// hour_of_day=h12} (21 of the 152, risk ratio 22.92), whose sustained
// chaotic draw looks spectrally unlike both the fridge's normal
// compressor cycle and every other device/hour.
//
// Run:
//
//	go run ./examples/electricity
package main

import (
	"fmt"

	"macrobase/internal/encode"
	"macrobase/internal/gen"
	"macrobase/internal/pipeline"
	"macrobase/internal/transform"
)

func main() {
	deviceEnc, pts, fridge := gen.Electricity(gen.ElectricityConfig{Devices: 6, Days: 21, Seed: 9})

	// Window attributes get their own encoder columns: device and
	// hour-of-day, as in the paper's pipeline.
	winEnc := encode.NewEncoder("device", "hour_of_day")
	stft := transform.STFT{GroupAttr: 0 /* device */, MetricDim: 0, WindowSec: 3600, Coeffs: 12,
		AttrsFor: func(device int32, start float64) []int32 {
			hour := int(start/3600) % 24
			return []int32{
				winEnc.Encode(0, deviceEnc.Decode(device).Value),
				winEnc.Encode(1, fmt.Sprintf("h%02d", hour)),
			}
		}}
	windows := stft.Apply(pts)

	res, err := pipeline.RunOneShot(windows, pipeline.Config{
		Dims:            12,
		Percentile:      0.95,
		MinSupport:      0.1,
		MinRiskRatio:    3,
		TrainSampleSize: 2000,
		Seed:            11,
	})
	if err != nil {
		panic(err)
	}

	winEnc.Decorate(res.Explanations)
	fmt.Printf("raw readings=%d hourly windows=%d outlying windows=%d\n\n",
		len(pts), len(windows), res.Stats.Outliers)
	for i, e := range res.Explanations {
		if i >= 8 {
			break
		}
		fmt.Printf("%d. %s\n", i+1, e.String())
	}
	fmt.Printf("\nground truth: %s misbehaves between 12PM and 1PM\n", deviceEnc.Decode(fridge))
}
