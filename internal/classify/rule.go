package classify

import "macrobase/internal/core"

// Rule is a supervised, predicate-based classifier: domain rules such
// as "power drain greater than 100W" (paper §1) label points directly
// without a trained model. Outliers score 1 and inliers 0.
type Rule struct {
	// Name describes the rule for reports.
	Name string
	// Outlier returns true when the point should be labeled an
	// outlier.
	Outlier func(p *core.Point) bool
}

// ClassifyBatch implements core.Classifier.
func (r *Rule) ClassifyBatch(dst []core.LabeledPoint, batch []core.Point) []core.LabeledPoint {
	for i := range batch {
		p := &batch[i]
		label, score := core.Inlier, 0.0
		if r.Outlier(p) {
			label, score = core.Outlier, 1
		}
		dst = append(dst, core.LabeledPoint{Point: *p, Score: score, Label: label})
	}
	return dst
}

// HybridOr combines classifiers with a logical OR: a point is an
// outlier if any member labels it one, and its score is the maximum
// member score. This is the hybrid supervision pipeline of the CMT
// case study (paper §6.4), which ORs an unsupervised MCD classifier
// with a rule over a diagnostic metric.
type HybridOr struct {
	Members []core.Classifier
	bufs    [][]core.LabeledPoint
}

// NewHybridOr returns a HybridOr over members.
func NewHybridOr(members ...core.Classifier) *HybridOr {
	return &HybridOr{Members: members, bufs: make([][]core.LabeledPoint, len(members))}
}

// ClassifyBatch implements core.Classifier.
func (h *HybridOr) ClassifyBatch(dst []core.LabeledPoint, batch []core.Point) []core.LabeledPoint {
	for i, m := range h.Members {
		h.bufs[i] = m.ClassifyBatch(h.bufs[i][:0], batch)
	}
	for j := range batch {
		lp := core.LabeledPoint{Point: batch[j], Label: core.Inlier}
		for i := range h.Members {
			mp := h.bufs[i][j]
			if mp.Label == core.Outlier {
				lp.Label = core.Outlier
			}
			if mp.Score > lp.Score {
				lp.Score = mp.Score
			}
		}
		dst = append(dst, lp)
	}
	return dst
}

var _ core.Classifier = (*Rule)(nil)
var _ core.Classifier = (*HybridOr)(nil)
