package gen

import (
	"fmt"
	"math/rand/v2"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// fig5Devices is the Figure 5 population size (paper: 100); device D0
// is the misbehaving one.
const fig5Devices = 100

// fig5SpikeFactor is how many times the base rate points arrive during
// the noise spike (paper: ~20K/s base, >200K/s spike).
const fig5SpikeFactor = 10

// Fig5Config parameterizes the Figure 5 adaptivity script. Zero values
// reproduce the paper's scenario at a configurable base rate.
type Fig5Config struct {
	// BaseRate is points per second outside the volume spike
	// (paper: ~20K/s; scale down for tests).
	BaseRate int
	// Seed fixes the stream.
	Seed uint64
}

func (c Fig5Config) withDefaults() Fig5Config {
	if c.BaseRate == 0 {
		c.BaseRate = 20_000
	}
	return c
}

// Fig5Stream generates the 400-second time-evolving stream of
// Figure 5:
//
//	[0,50)    all devices N(10,10)
//	[50,100)  D0 jumps to N(70,10)
//	[100,150) D0 back to N(10,10)
//	[150,225) everyone shifts to N(40,10)
//	[225,250) D0 drops to N(-10,10)
//	[250,300) D0 back to N(40,10)
//	[300,400) arrival-rate regime: at [320,324) the rate spikes 10x
//	          with values from N(85,15) (sensor noise), everyone else
//	          remains at N(40,10)
//
// Points carry the device id attribute and event time; D0's encoded id
// is returned for ground-truth checks.
func Fig5Stream(cfg Fig5Config) (enc *encode.Encoder, pts []core.Point, d0 int32) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x0f0f0f0f0f0f0f0f))
	enc = encode.NewEncoder("device_id")
	ids := make([]int32, fig5Devices)
	for i := range ids {
		ids[i] = enc.Encode(0, fmt.Sprintf("D%d", i))
	}
	d0 = ids[0]

	norm := func(mu, sd float64) float64 { return mu + rng.NormFloat64()*sd }
	for sec := 0; sec < 400; sec++ {
		t := float64(sec)
		rate := cfg.BaseRate
		noiseSpike := sec >= 320 && sec < 324
		if noiseSpike {
			rate = cfg.BaseRate * fig5SpikeFactor
		}
		for i := 0; i < rate; i++ {
			dev := ids[rng.IntN(fig5Devices)]
			var v float64
			switch {
			case noiseSpike:
				v = norm(85, 15)
			case sec < 50:
				v = norm(10, 10)
			case sec < 100:
				if dev == d0 {
					v = norm(70, 10)
				} else {
					v = norm(10, 10)
				}
			case sec < 150:
				v = norm(10, 10)
			case sec < 225:
				v = norm(40, 10)
			case sec < 250:
				if dev == d0 {
					v = norm(-10, 10)
				} else {
					v = norm(40, 10)
				}
			default:
				v = norm(40, 10)
			}
			pts = append(pts, core.Point{
				Metrics: []float64{v},
				Attrs:   []int32{dev},
				Time:    t + float64(i)/float64(rate),
			})
		}
	}
	return enc, pts, d0
}
