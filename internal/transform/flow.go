package transform

import (
	"math"

	"macrobase/internal/core"
)

// Flow is the video feature transform of the paper's surveillance case
// study (§6.4): it consumes points whose metrics encode a flattened
// grayscale frame (row-major, Width x Height) and emits one point per
// consecutive frame pair whose single metric is the mean optical-flow
// magnitude between the frames, estimated by block matching. The paper
// used OpenCV's optical flow; block-matching motion estimation is the
// CPU-bound stand-in that preserves the pipeline shape (flow magnitude
// spikes exactly when scene motion spikes).
type Flow struct {
	// Width and Height are the frame dimensions (positive).
	Width, Height int
}

// Apply returns one point per consecutive pair of frames, carrying the
// later frame's attributes and time; the first frame produces no
// output. A point whose metrics are not Width x Height values is not a
// frame and is dropped.
func (f Flow) Apply(frames []core.Point) []core.Point {
	if f.Width <= 0 || f.Height <= 0 {
		panic("transform: frame dimensions must be positive")
	}
	var out []core.Point
	var prev []float64
	for i := range frames {
		p := &frames[i]
		if len(p.Metrics) != f.Width*f.Height {
			continue
		}
		if prev != nil {
			mag := BlockFlow(prev, p.Metrics, f.Width, f.Height)
			out = append(out, core.Point{Metrics: []float64{mag}, Attrs: append([]int32{}, p.Attrs...), Time: p.Time})
		}
		prev = p.Metrics
	}
	return out
}

// BlockFlow estimates the mean motion magnitude between two frames by
// exhaustive block matching: each 8x8 tile of cur is searched in prev
// within +/- 3 pixels for the displacement minimizing the sum of
// absolute differences; the mean displacement magnitude over all tiles
// is returned.
func BlockFlow(prev, cur []float64, width, height int) float64 {
	const block, search = 8, 3 // tile size and search radius, in pixels
	totalMag := 0.0
	blocks := 0
	for by := 0; by+block <= height; by += block {
		for bx := 0; bx+block <= width; bx += block {
			bestSAD := math.Inf(1)
			bestDx, bestDy := 0, 0
			for dy := -search; dy <= search; dy++ {
				for dx := -search; dx <= search; dx++ {
					if bx+dx < 0 || by+dy < 0 || bx+dx+block > width || by+dy+block > height {
						continue
					}
					sad := 0.0
					for y := 0; y < block; y++ {
						curRow := (by+y)*width + bx
						prevRow := (by+dy+y)*width + bx + dx
						for x := 0; x < block; x++ {
							d := cur[curRow+x] - prev[prevRow+x]
							if d < 0 {
								d = -d
							}
							sad += d
						}
					}
					// Prefer the zero displacement on ties so static
					// scenes report zero flow.
					if sad < bestSAD-1e-9 || (sad < bestSAD+1e-9 && dx == 0 && dy == 0) {
						bestSAD = sad
						bestDx, bestDy = dx, dy
					}
				}
			}
			totalMag += math.Hypot(float64(bestDx), float64(bestDy))
			blocks++
		}
	}
	if blocks == 0 {
		return 0
	}
	return totalMag / float64(blocks)
}
