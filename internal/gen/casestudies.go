package gen

import (
	"fmt"
	"math"
	"math/rand/v2"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// ElectricityConfig parameterizes the §6.4 electricity case-study
// analog (ECO dataset: a month of per-device household power
// readings).
type ElectricityConfig struct {
	// Devices is the number of household plugs (default 8).
	Devices int
	// Days of one-reading-per-minute data (default 28).
	Days int
	// Seed fixes the trace.
	Seed uint64
}

func (c ElectricityConfig) withDefaults() ElectricityConfig {
	if c.Devices == 0 {
		c.Devices = 8
	}
	if c.Days == 0 {
		c.Days = 28
	}
	return c
}

// Electricity generates per-minute power readings for each device.
// Every device has a characteristic daily load curve; the refrigerator
// (device 0) additionally cycles its compressor hourly and — the
// planted anomaly — draws sustained abnormal power between 12PM and
// 1PM every day, mirroring the paper's finding. Points carry the
// device id attribute and event time in seconds; the refrigerator's
// encoded id is returned as ground truth.
func Electricity(cfg ElectricityConfig) (enc *encode.Encoder, pts []core.Point, fridge int32) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xe1ec000))
	enc = encode.NewEncoder("device")
	ids := make([]int32, cfg.Devices)
	for i := range ids {
		ids[i] = enc.Encode(0, fmt.Sprintf("plug%d", i))
	}
	fridge = ids[0]
	minutes := cfg.Days * 24 * 60
	pts = make([]core.Point, 0, minutes*cfg.Devices)
	for m := 0; m < minutes; m++ {
		hour := (m / 60) % 24
		minOfHour := m % 60
		tsec := float64(m * 60)
		for d := 0; d < cfg.Devices; d++ {
			var w float64
			if d == 0 {
				// Refrigerator: 50W base, hourly compressor spike to
				// ~150W for the first 10 minutes of each hour.
				w = 50 + rng.NormFloat64()*3
				if minOfHour < 10 {
					w += 100 + rng.NormFloat64()*10
				}
				// Planted systemic anomaly: sustained chaotic draw
				// 12PM-1PM (lunchtime), unlike any other period.
				if hour == 12 {
					w += 60 + 40*math.Sin(float64(m)/3.7) + rng.NormFloat64()*20
				}
			} else {
				// Other appliances: smooth diurnal curve + noise.
				base := 20 + 15*math.Sin(2*math.Pi*float64(hour)/24+float64(d))
				w = base + rng.NormFloat64()*4
				if w < 0 {
					w = 0
				}
			}
			pts = append(pts, core.Point{
				Metrics: []float64{w},
				Attrs:   []int32{ids[d]},
				Time:    tsec,
			})
		}
	}
	return enc, pts, fridge
}

// videoWidth and videoHeight are the synthetic frame size in pixels.
const videoWidth, videoHeight = 64, 48

// VideoConfig parameterizes the §6.4 surveillance case-study analog
// (CAVIAR): synthetic grayscale frames with slow background motion and
// a short burst of rapid motion (the "fight").
type VideoConfig struct {
	// Frames is the clip length (default 600, i.e. one minute at
	// 10fps).
	Frames int
	// BurstStart/BurstLen delimit the rapid-motion frames
	// (defaults 400 and 30 — a three-second fight at 10fps).
	BurstStart, BurstLen int
	// Seed fixes the clip.
	Seed uint64
}

func (c VideoConfig) withDefaults() VideoConfig {
	if c.Frames == 0 {
		c.Frames = 600
	}
	if c.BurstStart == 0 {
		c.BurstStart = 400
	}
	if c.BurstLen == 0 {
		c.BurstLen = 30
	}
	return c
}

// Video generates frame points: each point's metrics hold a flattened
// videoWidth x videoHeight grayscale frame of two moving blobs over a
// static textured background, and its single attribute is a coarse
// time-interval label (one per second at 10fps) used by the pipeline
// to localize interesting segments. During the burst the blobs move an
// order of magnitude faster. Returns the frame points and the set of
// interval attribute ids overlapping the burst.
func Video(cfg VideoConfig) (enc *encode.Encoder, frames []core.Point, burstIntervals map[int32]bool) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x51de0))
	enc = encode.NewEncoder("interval")

	bg := make([]float64, videoWidth*videoHeight)
	for i := range bg {
		bg[i] = 60 + rng.Float64()*40
	}
	type blob struct{ x, y, vx, vy float64 }
	blobs := []blob{
		{x: 10, y: 10, vx: 0.3, vy: 0.2},
		{x: float64(videoWidth) - 12, y: float64(videoHeight) - 12, vx: -0.25, vy: -0.15},
	}
	burstIntervals = make(map[int32]bool)
	frames = make([]core.Point, 0, cfg.Frames)
	for f := 0; f < cfg.Frames; f++ {
		burst := f >= cfg.BurstStart && f < cfg.BurstStart+cfg.BurstLen
		speed := 1.0
		if burst {
			speed = 8
		}
		frame := make([]float64, len(bg))
		copy(frame, bg)
		for b := range blobs {
			bl := &blobs[b]
			bl.x += bl.vx * speed
			bl.y += bl.vy * speed
			if bl.x < 4 || bl.x > float64(videoWidth)-4 {
				bl.vx = -bl.vx
			}
			if bl.y < 4 || bl.y > float64(videoHeight)-4 {
				bl.vy = -bl.vy
			}
			drawBlob(frame, videoWidth, videoHeight, bl.x, bl.y, 4, 220)
		}
		interval := enc.Encode(0, fmt.Sprintf("sec%03d", f/10))
		if burst {
			burstIntervals[interval] = true
		}
		frames = append(frames, core.Point{
			Metrics: frame,
			Attrs:   []int32{interval},
			Time:    float64(f) / 10,
		})
	}
	return enc, frames, burstIntervals
}

// drawBlob paints a filled disk of the given intensity.
func drawBlob(frame []float64, w, h int, cx, cy, r, intensity float64) {
	x0, x1 := int(cx-r), int(cx+r)
	y0, y1 := int(cy-r), int(cy+r)
	for y := y0; y <= y1; y++ {
		if y < 0 || y >= h {
			continue
		}
		for x := x0; x <= x1; x++ {
			if x < 0 || x >= w {
				continue
			}
			dx, dy := float64(x)-cx, float64(y)-cy
			if dx*dx+dy*dy <= r*r {
				frame[y*w+x] = intensity
			}
		}
	}
}

// TripsConfig parameterizes the hybrid-supervision case study (§6.4):
// CMT-like trips carrying unsupervised metrics plus an external
// diagnostic quality score.
type TripsConfig struct {
	// Trips generated (default 100_000).
	Trips int
	// Seed fixes the data.
	Seed uint64
}

// Trips generates CMT-like trip records: metrics are (trip_time,
// battery_drain) for the MCD path plus a quality score consumed by the
// supervised rule; attributes are device type and app version. Two
// ground-truth issues are planted: a device type with anomalous
// battery drain (caught by MCD) and an app version that produces low
// quality scores with otherwise normal metrics (caught only by the
// rule). Returns the encoder, points (metrics: trip_time,
// battery_drain, quality_score), and the two planted attribute ids.
func Trips(cfg TripsConfig) (enc *encode.Encoder, pts []core.Point, badDevice, badVersion int32) {
	if cfg.Trips == 0 {
		cfg.Trips = 100_000
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x7219a))
	enc = encode.NewEncoder("device_type", "app_version")
	devices := make([]int32, 50)
	for i := range devices {
		devices[i] = enc.Encode(0, fmt.Sprintf("device_%02d", i))
	}
	versions := make([]int32, 12)
	for i := range versions {
		versions[i] = enc.Encode(1, fmt.Sprintf("v2.%d", i))
	}
	badDevice = devices[7]
	badVersion = versions[3]
	pts = make([]core.Point, cfg.Trips)
	for i := range pts {
		dev := devices[rng.IntN(len(devices))]
		ver := versions[rng.IntN(len(versions))]
		tripTime := 1200 + rng.NormFloat64()*300
		battery := 5 + rng.NormFloat64()*1.5
		quality := 80 + rng.NormFloat64()*8
		if dev == badDevice && rng.Float64() < 0.8 {
			battery += 25 // battery problem: metric outlier
		}
		if ver == badVersion && rng.Float64() < 0.7 {
			quality = 15 + rng.NormFloat64()*5 // low quality, normal metrics
		}
		pts[i] = core.Point{
			Metrics: []float64{tripTime, battery, quality},
			Attrs:   []int32{dev, ver},
			Time:    float64(i),
		}
	}
	return enc, pts, badDevice, badVersion
}
