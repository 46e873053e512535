// Package core defines MacroBase's data model and typed operator
// interfaces (paper Table 1) together with the push-based batched
// dataflow runtime that executes pipelines of those operators
// (paper Appendix C).
//
// A pipeline has the shape
//
//	Ingestor -> Classifier -> Explainer
//
// where every stage exchanges batches of Points. A custom stage, such
// as a feature transform or a hybrid classifier, is code its caller
// runs before or instead of MDP's own operators, over the stored input
// of a one-shot query. StreamRunner drives every streaming pipeline,
// over stored data and live streams alike: its shard workers push
// batches through the classifier and the explainer and schedule
// periodic decay of the adaptive ones.
package core

import "fmt"

// Point is the unit of data flowing through a pipeline: a vector of
// real-valued metrics used for classification plus a set of encoded
// categorical attributes used for explanation (paper §3.2).
//
// Attributes are interned (column, value) pairs encoded as dense int32
// identifiers by an encode.Encoder; explanation operators work on the
// identifiers and decode them only at presentation time.
type Point struct {
	// Metrics holds the real-valued measurements (e.g. trip time,
	// battery drain) that classifiers score.
	Metrics []float64
	// Attrs holds encoded attribute-value identifiers (e.g. the id
	// for device_id=5052). Order is not significant.
	Attrs []int32
	// Time is the event time in seconds. Windowing feature transforms
	// (transform.STFT) read it; batch sources may leave it zero.
	Time float64
}

// Label is the output of a classifier for one point.
type Label uint8

// The two classes produced by MacroBase's default density-based
// classifiers (paper §3.1). Custom classifiers may define further
// labels starting at LabelUser.
const (
	Inlier  Label = 0
	Outlier Label = 1
	// LabelUser is the first label value available to user-defined
	// classifiers.
	LabelUser Label = 2
)

// String returns "inlier", "outlier", or "label(n)".
func (l Label) String() string {
	switch l {
	case Inlier:
		return "inlier"
	case Outlier:
		return "outlier"
	}
	return fmt.Sprintf("label(%d)", uint8(l))
}

// LabeledPoint is a point annotated with its classifier score and
// class label, the stream type exchanged between the classification
// and explanation stages (paper Table 1).
type LabeledPoint struct {
	Point
	// Score is the raw outlier score assigned by the classifier
	// (e.g. a Mahalanobis distance); larger means more outlying.
	Score float64
	// Label is the class assigned by thresholding the score.
	Label Label
}

// Attribute is a decoded attribute value: the name of the column it
// came from and its string value.
type Attribute struct {
	Column string
	Value  string
}

// String returns "column=value".
func (a Attribute) String() string { return a.Column + "=" + a.Value }

// Interval is a two-sided confidence interval on a risk ratio
// (paper Appendix B).
type Interval struct {
	Lo, Hi float64
	// Level is the nominal coverage, e.g. 0.95.
	Level float64
}

// Explanation is one output of an explanation operator: a combination
// of attribute values that is common among outliers but uncommon among
// inliers, with supporting statistics (paper §5.1).
type Explanation struct {
	// ItemIDs are the encoded attribute values forming the
	// combination, sorted ascending.
	ItemIDs []int32
	// Attributes are the decoded items; populated at presentation
	// time by Presenter.Decorate and left nil inside pipelines.
	Attributes []Attribute

	// Support is the fraction of outlier points matching the
	// combination (a_o / total outliers).
	Support float64
	// RiskRatio quantifies how much more likely a matching point is
	// to be an outlier than a non-matching point (paper §5.1).
	RiskRatio float64

	// OutlierCount (a_o) and InlierCount (a_i) are the (possibly
	// exponentially decayed) occurrence counts of the combination.
	OutlierCount float64
	InlierCount  float64
	// TotalOutliers and TotalInliers are the class sizes used for
	// the ratio.
	TotalOutliers float64
	TotalInliers  float64

	// CI, when non-zero, is the confidence interval on RiskRatio.
	CI Interval
}

// NumItems returns the size of the attribute combination.
func (e *Explanation) NumItems() int { return len(e.ItemIDs) }

// String renders the explanation compactly for logs and reports.
func (e *Explanation) String() string {
	if len(e.Attributes) == 0 {
		return fmt.Sprintf("items=%v support=%.4f riskRatio=%.2f", e.ItemIDs, e.Support, e.RiskRatio)
	}
	s := ""
	for i, a := range e.Attributes {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return fmt.Sprintf("{%s} support=%.4f riskRatio=%.2f", s, e.Support, e.RiskRatio)
}
