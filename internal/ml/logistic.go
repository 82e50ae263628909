package ml

import (
	"fmt"
	"math"
	"slices"

	"github.com/guardrail-db/guardrail/internal/dataset"
)

// Logistic is a one-vs-rest multinomial logistic-regression classifier over
// one-hot-encoded categorical features, trained with deterministic
// full-batch gradient descent. Together with the naive Bayes and decision
// tree models it mirrors the model diversity of the paper's autogluon
// ensemble ("NN, tree-based models, etc.").
//
// A label dictionary can hold many classes that never occur as a training
// label (out-of-domain strings interned by other rows). Gradient descent
// from zero weights with every target 0 follows the same trajectory for
// each of them, so they share one trained weight vector, and Predict
// scores it once, as the lowest such class, which is where the argmax's
// first-wins tie-break would have put it anyway.
type Logistic struct {
	label    int
	features []feature // one per non-label attribute, in attribute order
	dim      int
	weights  [][]float64 // per class: dim+1 (bias last)
	// scored lists, in increasing order, the classes Predict compares: the
	// classes seen in training and the lowest unseen one. Every other
	// unseen class shares that one's weight slice.
	scored []int32
}

// feature is one attribute's one-hot block: codes 0..width-2 map to
// off+code, missing and unseen codes to the block's last slot.
type feature struct {
	attr, off, width int
}

// LogisticOptions tunes training.
type LogisticOptions struct {
	// Epochs of full-batch gradient descent (default 50).
	Epochs int
	// LearningRate (default 0.5).
	LearningRate float64
	// L2 regularization strength (default 1e-4).
	L2 float64
}

func (o *LogisticOptions) defaults() {
	if o.Epochs == 0 {
		o.Epochs = 50
	}
	if o.LearningRate == 0 {
		o.LearningRate = 0.5
	}
	if o.L2 == 0 {
		o.L2 = 1e-4
	}
}

// TrainLogistic fits the classifier on rel predicting labelAttr.
func TrainLogistic(rel *dataset.Relation, labelAttr int, opts LogisticOptions) (*Logistic, error) {
	opts.defaults()
	n := rel.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("ml: empty training relation")
	}
	if labelAttr < 0 || labelAttr >= rel.NumAttrs() {
		return nil, fmt.Errorf("ml: label attribute %d out of range", labelAttr)
	}
	k := rel.Cardinality(labelAttr)
	if k < 2 {
		return nil, fmt.Errorf("ml: label has %d classes", k)
	}
	m := rel.NumAttrs()
	lr := &Logistic{label: labelAttr, weights: make([][]float64, k)}
	dim := 0
	for a := 0; a < m; a++ {
		if a == labelAttr {
			continue
		}
		w := rel.Cardinality(a) + 1 // +1 missing slot
		lr.features = append(lr.features, feature{attr: a, off: dim, width: w})
		dim += w
	}
	lr.dim = dim

	labels := rel.Column(labelAttr)
	seen := make([]bool, k)
	for _, c := range labels {
		if c >= 0 && int(c) < k {
			seen[c] = true
		}
	}
	unseen := slices.Index(seen, false)
	for c := 0; c < k; c++ {
		if seen[c] || c == unseen {
			lr.scored = append(lr.scored, int32(c))
		}
	}

	// Active one-hot feature indices, len(lr.features) per row.
	nf := len(lr.features)
	feats := make([]int, 0, n*nf)
	row := make([]int32, m)
	for i := 0; i < n; i++ {
		row = rel.Row(i, row)
		feats = lr.appendFeatures(feats, row)
	}
	// Each class's descent reads only its own weights, so classes train
	// one after another.
	grad := make([]float64, dim+1)
	invN := 1 / float64(n)
	for _, c := range lr.scored {
		w := make([]float64, dim+1)
		for epoch := 0; epoch < opts.Epochs; epoch++ {
			clear(grad)
			for i := 0; i < n; i++ {
				fi := feats[i*nf : (i+1)*nf]
				z := w[dim]
				for _, f := range fi {
					z += w[f]
				}
				p := sigmoid(z)
				y := 0.0
				if labels[i] == c {
					y = 1
				}
				d := (p - y) * invN
				for _, f := range fi {
					grad[f] += d
				}
				grad[dim] += d
			}
			for j := 0; j <= dim; j++ {
				w[j] -= opts.LearningRate * (grad[j] + opts.L2*w[j])
			}
		}
		lr.weights[c] = w
	}
	for c := range lr.weights {
		if lr.weights[c] == nil {
			lr.weights[c] = lr.weights[unseen]
		}
	}
	return lr, nil
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// appendFeatures appends row's active one-hot feature indices to buf.
func (lr *Logistic) appendFeatures(buf []int, row []int32) []int {
	for _, f := range lr.features {
		v := row[f.attr]
		if v < 0 || int(v) >= f.width-1 {
			buf = append(buf, f.off+f.width-1) // missing / unseen slot
		} else {
			buf = append(buf, f.off+int(v))
		}
	}
	return buf
}

// Label returns the predicted attribute index.
func (lr *Logistic) Label() int { return lr.label }

// Predict returns the class with the highest one-vs-rest score; ties go to
// the lowest class.
func (lr *Logistic) Predict(row []int32) int32 {
	var buf [16]int
	feats := lr.appendFeatures(buf[:0], row)
	best, bestZ := int32(0), math.Inf(-1)
	for _, c := range lr.scored {
		w := lr.weights[c]
		z := w[lr.dim]
		for _, f := range feats {
			z += w[f]
		}
		if z > bestZ {
			best, bestZ = c, z
		}
	}
	return best
}
