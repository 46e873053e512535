//go:build linux

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"macrobase/internal/core"
	"macrobase/internal/encode"
	"macrobase/internal/gen"
	"macrobase/internal/ingest"
)

// poolPoints is the number of distinct points behind a workload's frame
// pool, well above the 10K reservoirs and sketches so that cycling the
// pool never looks like a repeating stream to them.
const poolPoints = 400_000

// spec is one workload. Work is fixed, not time: a run pushes
// round(framesPerSec*seconds) frames (a whole number of poll periods)
// and polls once per pollEvery frames, so every run on every commit
// does the same retrains, decay ticks and polls. framesPerSec and
// queriesPerSec were calibrated on a 2-core box so that the measured
// window lasts about -seconds there; they are constants of the
// benchmark, not targets.
type spec struct {
	name         string
	dataset      string // gen.Catalog entry
	simple       bool   // XS query shape (1 metric, 1 attribute)
	shards       int
	partitions   int
	framePoints  int     // points per MBR1 push request
	pollEvery    int     // frames between poll triggers
	framesPerSec float64 // fixed work per requested second
	warmFrames   int     // pushed before timing starts

	// batch_query only.
	batchRows     int
	batchFiles    int // stored inputs, queried in turn
	queriesPerSec float64
}

// Three sizes answer a source of run-to-run spread found while probing
// (README.md, "Sizes").
//
// firehose_xs pushes 16384-point frames where the others push 4096:
// with small frames its closed loop is a sub-millisecond ping-pong in
// which both sides idle between requests, and the measured rate
// follows the hypervisor's wake-up latency rather than the program.
//
// The sharded workloads warm up with 16 frames (65K points): shard 1's
// staggered retrain falls at ~100K points, and a warm-up that ends
// there makes the set-up's poll wait for the retrain on some runs and
// not on others (setup_s read 0.4 s or 0.8 s).
//
// Their poll periods (40 and 29 frames, 164K and 119K points) are kept
// away from the multiples of the 100K-point retrain and decay period: at
// 24 or 48 frames (98K, 197K points) the phase between poll and retrain
// creeps by 1.7% a poll, a run sees half a beat, and the share of polls
// that wait for a retrain, and with it the median, depends on where the
// beat started (quartile spread of firehose_xc's answer_p50_ms over ten
// seeds: 28% at 48 frames, 9-15% at 40).
var specs = []spec{
	{name: "firehose_xs", dataset: "CMT", simple: true, shards: 1, partitions: 1, framePoints: 16384, pollEvery: 25, framesPerSec: 380, warmFrames: 50},
	{name: "firehose_xc", dataset: "CMT", shards: 2, partitions: 2, framePoints: 4096, pollEvery: 40, framesPerSec: 30.4, warmFrames: 16},
	{name: "poll_drift", dataset: "Liquor", shards: 2, partitions: 2, framePoints: 4096, pollEvery: 29, framesPerSec: 44, warmFrames: 16},
	{name: "batch_query", dataset: "CMT", batchRows: 40_000, batchFiles: 4, queriesPerSec: 0.48},
}

func specByName(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (sp *spec) batch() bool { return sp.batchRows > 0 }

// conns is the number of load-generator connections the workload
// keeps open: one pusher plus one poller, or one query caller.
func (sp *spec) conns() int {
	if sp.batch() {
		return 1
	}
	return 2
}

// work sizes a run: polls (or queries) and frames for the requested
// number of seconds.
func (sp *spec) work(seconds float64) (answers, frames int) {
	if sp.batch() {
		return max(2, int(math.Round(sp.queriesPerSec*seconds))), 0
	}
	answers = max(2, int(math.Round(sp.framesPerSec*seconds/float64(sp.pollEvery))))
	return answers, answers * sp.pollEvery
}

// inputs is everything a run feeds the server, generated from the
// seed before the server starts.
type inputs struct {
	sp      *spec
	metrics []string
	attrs   []string
	// points are the generated rows of the frame pool, attributes
	// encoded by enc (the generator's own dictionary; the server never
	// sees it).
	points []core.Point
	enc    *encode.Encoder
	// frames is the MBR1-encoded pool (streaming workloads).
	frames [][]byte
	// csvPaths are the stored inputs (batch_query), one generator seed
	// each: how long a full-data MCD fit takes depends on the rows
	// (about +-10% between seeds), and a run that queries several files
	// in turn averages that out.
	csvPaths []string
	// planted are the first-column values the generator makes
	// systematically anomalous under every seed; the final explanations
	// must name them.
	planted []string
}

func generate(sp *spec, seed uint64, outDir string) (*inputs, error) {
	ds, err := gen.DatasetByName(sp.dataset)
	if err != nil {
		return nil, err
	}
	in := &inputs{sp: sp, metrics: ds.MetricNames}
	if sp.simple {
		in.metrics = in.metrics[:1]
	}
	var planted []int32
	if sp.batch() {
		for f := 0; f < sp.batchFiles; f++ {
			// Each file takes its own generator seed, far from every
			// other run's.
			cfg := gen.GenerateConfig{Points: sp.batchRows, Seed: seed + uint64(f)*0x9e3779b97f4a7c15}
			var rows []core.Point
			in.enc, rows, planted = ds.Generate(cfg)
			in.attrs = in.enc.Columns()
			path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%d.csv", sp.name, seed, f))
			if err := in.writeCSV(path, rows); err != nil {
				return nil, err
			}
			in.csvPaths = append(in.csvPaths, path)
		}
	} else {
		n := poolPoints
		if rem := n % sp.framePoints; rem != 0 {
			n += sp.framePoints - rem
		}
		in.enc, in.points, planted = ds.Generate(gen.GenerateConfig{Points: n, Simple: sp.simple, Seed: seed})
		in.attrs = in.enc.Columns()
		if err := in.encodeFrames(); err != nil {
			return nil, err
		}
	}
	for _, id := range planted {
		in.planted = append(in.planted, in.enc.Decode(id).Value)
	}
	return in, nil
}

// encodeFrames MBR1-encodes the pool, one push request per frame. Rows
// are written without event time, as a producer that leaves ordering to
// arrival would.
func (in *inputs) encodeFrames() error {
	vals := make([]string, len(in.attrs))
	for off := 0; off < len(in.points); off += in.sp.framePoints {
		var buf bytes.Buffer
		w := ingest.NewBinaryRowWriter(&buf)
		for _, pt := range in.points[off : off+in.sp.framePoints] {
			for j, id := range pt.Attrs {
				vals[j] = in.enc.Decode(id).Value
			}
			if err := w.WriteRow(pt.Metrics, vals, 0); err != nil {
				return err
			}
		}
		in.frames = append(in.frames, buf.Bytes())
	}
	return nil
}

func (in *inputs) schema() ingest.Schema {
	return ingest.Schema{Metrics: in.metrics, Attributes: in.attrs}
}

// writeCSV stores rows as one batch_query input.
func (in *inputs) writeCSV(path string, rows []core.Point) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := ingest.WriteCSV(w, in.schema(), in.enc, rows); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// query is the request body an operator would send: column selection
// and shape, every tuning knob left at the server's default. The
// benchmark's seed shapes the inputs only; the program never sees it.
func (in *inputs) query(shape map[string]any) []byte {
	shape["metrics"], shape["attributes"] = in.metrics, in.attrs
	b, err := json.Marshal(shape)
	if err != nil {
		panic(err) // a map of strings, ints and bools always marshals
	}
	return b
}

// startJSON is the POST /stream/start body of a streaming workload.
func (in *inputs) startJSON() []byte {
	return in.query(map[string]any{"input": "push", "shards": in.sp.shards, "partitions": in.sp.partitions})
}

// batchJSON is the POST /query body over stored input file.
func (in *inputs) batchJSON(file int) []byte {
	return in.query(map[string]any{"input": in.csvPaths[file], "streaming": false})
}
