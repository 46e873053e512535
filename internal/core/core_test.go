package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func mkPoints(n int, start float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{Metrics: []float64{float64(i)}, Time: start + float64(i)}
	}
	return pts
}

// readAll drains ps with reads of at most max points, returning each
// read's point views and the error that ended the stream.
func readAll(ps PartitionStream, max int) ([][]Point, error) {
	var out [][]Point
	for {
		b, err := ps.NextBatchInto(context.Background(), &Batch{}, max)
		if err != nil {
			return out, err
		}
		if b.Len() > max {
			return out, fmt.Errorf("read of %d points, want at most %d", b.Len(), max)
		}
		out = append(out, b.Points())
	}
}

// TestSliceSource: the slice is served in order, in reads of at most
// max points, borrowed rather than copied; a cancelled context ends a
// read before it takes anything.
func TestSliceSource(t *testing.T) {
	pts := mkPoints(10, 0)
	s := NewSliceSource(pts)
	if parts := s.Partitions(); len(parts) != 1 || parts[0] != PartitionStream(s) {
		t.Fatalf("Partitions() = %v, want the source itself", parts)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.NextBatchInto(cancelled, &Batch{}, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read: got %v", err)
	}
	reads, err := readAll(s, 3)
	if err != ErrEndOfStream {
		t.Fatalf("stream ended with %v", err)
	}
	got := 0
	for _, r := range reads {
		for i := range r {
			if &r[i] != &pts[got] {
				t.Fatalf("point %d was copied, want the caller's point", got)
			}
			got++
		}
	}
	if len(reads) != 4 || got != 10 {
		t.Fatalf("read %d points in %d reads, want 10 in 4", got, len(reads))
	}
}

func TestFuncSource(t *testing.T) {
	i := 0
	f := NewFuncSource(4, func(dst []Point) int {
		n := 0
		for n < len(dst) && i < 7 {
			dst[n] = Point{Metrics: []float64{float64(i)}}
			n++
			i++
		}
		return n
	})
	reads, err := readAll(f, 3)
	if err != ErrEndOfStream {
		t.Fatalf("stream ended with %v", err)
	}
	var got []float64
	for _, r := range reads {
		for _, p := range r {
			got = append(got, p.Metrics[0])
		}
	}
	if len(got) != 7 {
		t.Fatalf("total = %d, want 7", len(got))
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("point %d = %v, want %d", i, v, i)
		}
	}
}

func TestLabelString(t *testing.T) {
	if Inlier.String() != "inlier" || Outlier.String() != "outlier" {
		t.Error("label strings wrong")
	}
	if LabelUser.String() != "label(2)" {
		t.Errorf("custom label string = %q", LabelUser.String())
	}
}

type thresholdClassifier struct {
	cut    float64
	decays int
}

func (c *thresholdClassifier) ClassifyBatch(dst []LabeledPoint, batch []Point) []LabeledPoint {
	for i := range batch {
		l := Inlier
		if batch[i].Metrics[0] > c.cut {
			l = Outlier
		}
		dst = append(dst, LabeledPoint{Point: batch[i], Score: batch[i].Metrics[0], Label: l})
	}
	return dst
}

func (c *thresholdClassifier) Decay() { c.decays++ }

type collectExplainer struct {
	n      int
	decays int
}

func (e *collectExplainer) Consume(batch []LabeledPoint) { e.n += len(batch) }
func (e *collectExplainer) Explanations() []Explanation  { return nil }
func (e *collectExplainer) Decay()                       { e.decays++ }

// runOneShard runs pl over src on a one-shard StreamRunner.
func runOneShard(t *testing.T, src PartitionedSource, pl ShardPipeline, batch, decayEvery int) StreamStats {
	t.Helper()
	r := StreamRunner{
		Partitioned: src,
		NewShard:    func(int) ShardPipeline { return pl },
		BatchSize:   batch,
		DecayEvery:  decayEvery,
	}
	stats, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// shardPoints sums the points the shard workers took in: what a
// streaming run classified.
func shardPoints(st StreamStats) int {
	n := 0
	for _, rs := range st.PerShard {
		n += rs.Points
	}
	return n
}

// TestRunnerEndToEnd: one shard classifies and explains every point and
// ticks decay every DecayEvery points, carrying the remainder across
// reads.
func TestRunnerEndToEnd(t *testing.T) {
	cls := &thresholdClassifier{cut: 94.5}
	exp := &collectExplainer{}
	stats := runOneShard(t, NewSliceSource(mkPoints(100, 0)), ShardPipeline{Classifier: cls, Explainer: exp}, 7, 30)
	if stats.Points != 100 || shardPoints(stats) != 100 {
		t.Fatalf("stats = %+v", stats.RunStats)
	}
	if stats.Outliers != 5 {
		t.Errorf("outliers = %d, want 5", stats.Outliers)
	}
	if exp.n != 100 {
		t.Errorf("explainer saw %d points", exp.n)
	}
	if stats.DecayTicks != 3 || cls.decays != 3 || exp.decays != 3 {
		t.Errorf("decay ticks = %d/%d/%d, want 3", stats.DecayTicks, cls.decays, exp.decays)
	}
}

func TestRunnerRequiresSource(t *testing.T) {
	r := StreamRunner{NewShard: func(int) ShardPipeline { return ShardPipeline{} }}
	if _, err := r.Run(); err == nil {
		t.Error("expected error without source")
	}
}

func TestExplanationString(t *testing.T) {
	e := Explanation{ItemIDs: []int32{1, 2}, Support: 0.5, RiskRatio: 3}
	if e.String() == "" || e.NumItems() != 2 {
		t.Error("explanation formatting broken")
	}
	e.Attributes = []Attribute{{Column: "device", Value: "B264"}, {Column: "version", Value: "2.26.3"}}
	want := "{device=B264, version=2.26.3} support=0.5000 riskRatio=3.00"
	if got := e.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
