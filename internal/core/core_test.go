package core

import "testing"

func mkPoints(n int, start float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{Metrics: []float64{float64(i)}, Time: start + float64(i)}
	}
	return pts
}

func TestSliceSource(t *testing.T) {
	s := NewSliceSource(mkPoints(10, 0))
	got := 0
	for {
		b, err := s.Next(3)
		if err == ErrEndOfStream {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got += len(b)
	}
	if got != 10 {
		t.Fatalf("read %d points", got)
	}
	s.Reset()
	if s.Remaining() != 10 {
		t.Fatalf("remaining after reset = %d", s.Remaining())
	}
}

func TestFuncLimitConcat(t *testing.T) {
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
	lim := &LimitSource{Src: f, N: 5}
	cat := &ConcatSource{Srcs: []Source{lim, NewSliceSource(mkPoints(3, 0))}}
	total := 0
	for {
		b, err := cat.Next(2)
		if err == ErrEndOfStream {
			break
		}
		total += len(b)
	}
	if total != 8 {
		t.Fatalf("total = %d, want 5+3", total)
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

func TestRunnerEndToEnd(t *testing.T) {
	cls := &thresholdClassifier{cut: 94.5}
	exp := &collectExplainer{}
	r := Runner{
		Source:     NewSliceSource(mkPoints(100, 0)),
		Classifier: cls,
		Explainer:  exp,
		BatchSize:  7,
		Decay:      DecayPolicy{EveryPoints: 30},
	}
	stats, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != 100 || stats.OutPoints != 100 {
		t.Fatalf("stats = %+v", stats)
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
	if r.Stats() != stats {
		t.Error("Stats() mismatch")
	}
}

func TestRunnerTimeDecay(t *testing.T) {
	cls := &thresholdClassifier{cut: 1e9}
	r := Runner{
		Source:     NewSliceSource(mkPoints(100, 50)), // Time = 50..149
		Classifier: cls,
		BatchSize:  10,
		Decay:      DecayPolicy{EverySeconds: 25},
	}
	stats, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// First batch establishes t=59; ticks at 84, 109, 134.
	if stats.DecayTicks != 3 {
		t.Errorf("time decay ticks = %d, want 3", stats.DecayTicks)
	}
}

func TestRunnerTransformAndFlush(t *testing.T) {
	r := Runner{
		Source: NewSliceSource(mkPoints(10, 0)),
		Transforms: []Transformer{
			&pairWindow{},
		},
		Classifier: &thresholdClassifier{cut: -1},
	}
	stats, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// pairWindow halves the stream but flushes any remainder.
	if stats.OutPoints != 5 {
		t.Errorf("out points = %d, want 5", stats.OutPoints)
	}
}

// pairWindow sums pairs of points, buffering odd leftovers.
type pairWindow struct{ pending *Point }

func (w *pairWindow) Transform(dst []Point, batch []Point) []Point {
	for i := range batch {
		if w.pending == nil {
			p := batch[i]
			w.pending = &p
			continue
		}
		dst = append(dst, Point{Metrics: []float64{w.pending.Metrics[0] + batch[i].Metrics[0]}})
		w.pending = nil
	}
	return dst
}

func (w *pairWindow) Flush(dst []Point) []Point {
	if w.pending != nil {
		dst = append(dst, *w.pending)
		w.pending = nil
	}
	return dst
}

func TestRunnerRequiresSource(t *testing.T) {
	var r Runner
	if _, err := r.Run(); err == nil {
		t.Error("expected error without source")
	}
}

func TestTransformFunc(t *testing.T) {
	double := TransformFunc(func(dst []Point, batch []Point) []Point {
		for i := range batch {
			dst = append(dst, Point{Metrics: []float64{batch[i].Metrics[0] * 2}})
		}
		return dst
	})
	out := double.Transform(nil, mkPoints(3, 0))
	if len(out) != 3 || out[2].Metrics[0] != 4 {
		t.Errorf("transform func output %v", out)
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
