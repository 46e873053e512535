// Surveillance: the video case study of paper §6.4 (CAVIAR analog).
//
// Synthetic grayscale frames go through a custom feature transform
// that computes the mean optical-flow magnitude between consecutive
// frames (block matching standing in for OpenCV's optical flow); the
// example runs it itself and hands its output to the standard MDP:
//
//	video ingest -> mean optical flow -> MAD -> %ile -> explain
//
// Each frame carries a one-second time-interval attribute, so the
// explanation localizes the anomalous segment: the three-second
// "fight" burst where motion is an order of magnitude faster.
//
// Run:
//
//	go run ./examples/surveillance
package main

import (
	"fmt"
	"sort"

	"macrobase/internal/gen"
	"macrobase/internal/pipeline"
	"macrobase/internal/transform"
)

func main() {
	enc, frames, burst := gen.Video(gen.VideoConfig{Frames: 900, BurstStart: 600, BurstLen: 30, Seed: 13})

	flows := transform.Flow{Width: 64, Height: 48}.Apply(frames)
	res, err := pipeline.RunOneShot(flows, pipeline.Config{
		Dims:         1,
		Percentile:   0.97,
		MinSupport:   0.1,
		MinRiskRatio: 3,
		Seed:         17,
	})
	if err != nil {
		panic(err)
	}

	enc.Decorate(res.Explanations)
	fmt.Printf("frames=%d flow points=%d outlying=%d\n\n",
		len(frames), len(flows), res.Stats.Outliers)
	fmt.Println("flagged intervals:")
	for i, e := range res.Explanations {
		if i >= 6 {
			break
		}
		fmt.Printf("  %s\n", e.String())
	}

	var truth []string
	for id := range burst {
		truth = append(truth, enc.Decode(id).Value)
	}
	sort.Strings(truth)
	fmt.Printf("\nground truth burst intervals: %v\n", truth)
}
