// Package ml is the tabular-ML substrate replacing the paper's autogluon
// dependency (§7): a categorical naive Bayes classifier, a depth-limited
// decision tree, and a majority-vote ensemble of both. All models are
// deterministic given their training data, so the evaluation pipeline is
// fully reproducible.
package ml

import (
	"fmt"
	"math"

	"github.com/guardrail-db/guardrail/internal/dataset"
)

// Model predicts a label code from an encoded row.
type Model interface {
	// Predict returns the predicted code for the label attribute. It must
	// depend only on row's codes, neither reading nor writing other state
	// that changes between calls: the SQL executor predicts each distinct
	// row once and shares the prediction among the rows equal to it.
	Predict(row []int32) int32
	// Label returns the index of the predicted attribute.
	Label() int
}

// Train fits the default ensemble on rel predicting labelAttr from every
// other attribute.
func Train(rel *dataset.Relation, labelAttr int) (Model, error) {
	nb, err := TrainNaiveBayes(rel, labelAttr)
	if err != nil {
		return nil, err
	}
	t1, err := TrainTree(rel, labelAttr, 3)
	if err != nil {
		return nil, err
	}
	t2, err := TrainTree(rel, labelAttr, 5)
	if err != nil {
		return nil, err
	}
	return &Ensemble{models: []Model{nb, t1, t2}, label: labelAttr}, nil
}

// Accuracy evaluates a model's 0/1 accuracy over rel.
func Accuracy(m Model, rel *dataset.Relation) float64 {
	n := rel.NumRows()
	if n == 0 {
		return 0
	}
	correct := 0
	row := make([]int32, rel.NumAttrs())
	for i := 0; i < n; i++ {
		row = rel.Row(i, row)
		if m.Predict(row) == rel.Code(i, m.Label()) {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// --- naive Bayes ---

// NaiveBayes is a categorical naive Bayes classifier with Laplace
// smoothing.
type NaiveBayes struct {
	label      int
	numClasses int
	prior      []float64   // log prior per class
	likelihood [][]float64 // [attr][class*card + value] log likelihood
	cards      []int
}

// TrainNaiveBayes fits the classifier.
func TrainNaiveBayes(rel *dataset.Relation, labelAttr int) (*NaiveBayes, error) {
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
	nb := &NaiveBayes{label: labelAttr, numClasses: k, cards: make([]int, m)}
	classCount := make([]float64, k)
	labels := rel.Column(labelAttr)
	for _, c := range labels {
		if c >= 0 {
			classCount[c]++
		}
	}
	nb.prior = make([]float64, k)
	for c := 0; c < k; c++ {
		nb.prior[c] = math.Log((classCount[c] + 1) / (float64(n) + float64(k)))
	}
	nb.likelihood = make([][]float64, m)
	for a := 0; a < m; a++ {
		if a == labelAttr {
			continue
		}
		card := rel.Cardinality(a) + 1 // +1 slot for missing
		nb.cards[a] = card
		counts := make([]float64, k*card)
		col := rel.Column(a)
		for r := 0; r < n; r++ {
			c := labels[r]
			if c < 0 {
				continue
			}
			v := col[r]
			if v < 0 {
				v = int32(card - 1)
			}
			counts[int(c)*card+int(v)]++
		}
		ll := make([]float64, k*card)
		for c := 0; c < k; c++ {
			var tot float64
			for v := 0; v < card; v++ {
				tot += counts[c*card+v]
			}
			for v := 0; v < card; v++ {
				ll[c*card+v] = math.Log((counts[c*card+v] + 1) / (tot + float64(card)))
			}
		}
		nb.likelihood[a] = ll
	}
	return nb, nil
}

// Label returns the predicted attribute index.
func (nb *NaiveBayes) Label() int { return nb.label }

// Predict returns the maximum-posterior class.
func (nb *NaiveBayes) Predict(row []int32) int32 {
	best, bestScore := int32(0), math.Inf(-1)
	for c := 0; c < nb.numClasses; c++ {
		score := nb.prior[c]
		for a, ll := range nb.likelihood {
			if ll == nil {
				continue
			}
			card := nb.cards[a]
			v := row[a]
			if v < 0 || int(v) >= card {
				v = int32(card - 1)
			}
			score += ll[c*card+int(v)]
		}
		if score > bestScore {
			best, bestScore = int32(c), score
		}
	}
	return best
}

// --- ensemble ---

// Ensemble majority-votes over member models. Among classes with the most
// votes, the one a member voted for first wins; with the first member's
// vote always earliest, a tie with it goes to it.
type Ensemble struct {
	models []Model
	label  int
}

// NewEnsemble wraps models predicting the same label.
func NewEnsemble(label int, models ...Model) *Ensemble {
	return &Ensemble{models: models, label: label}
}

// Label returns the predicted attribute index.
func (e *Ensemble) Label() int { return e.label }

// Predict returns the majority vote.
func (e *Ensemble) Predict(row []int32) int32 {
	var buf [8]int32
	votes := buf[:0]
	for _, m := range e.models {
		votes = append(votes, m.Predict(row))
	}
	// A class's first vote counts all of its votes from there on; a
	// repeat counts fewer and cannot beat it under strict >.
	best, bestN := int32(0), 0
	for i, v := range votes {
		n := 0
		for _, w := range votes[i:] {
			if w == v {
				n++
			}
		}
		if n > bestN {
			best, bestN = v, n
		}
	}
	return best
}
