package ml

import (
	"testing"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/errgen"
)

func hospitalSplit(t *testing.T) (train, test *dataset.Relation, label int) {
	t.Helper()
	rel, err := bn.Hospital().Sample(6000, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, test = rel.Split(0.7, 1)
	return train, test, rel.AttrIndex("dysp")
}

func TestNaiveBayesLearnsSignal(t *testing.T) {
	train, test, label := hospitalSplit(t)
	nb, err := TrainNaiveBayes(train, label)
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy(nb, test)
	if acc < 0.7 {
		t.Fatalf("NB accuracy = %g, want >= 0.7", acc)
	}
	if nb.Label() != label {
		t.Fatal("label mismatch")
	}
}

func TestTreeLearnsSignal(t *testing.T) {
	train, test, label := hospitalSplit(t)
	tr, err := TrainTree(train, label, 4)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(tr, test); acc < 0.7 {
		t.Fatalf("tree accuracy = %g", acc)
	}
}

func TestTreePureAndUnseenValues(t *testing.T) {
	rel := dataset.New("t", []string{"x", "y"})
	for i := 0; i < 20; i++ {
		rel.AppendRow([]string{"a", "p"})
		rel.AppendRow([]string{"b", "q"})
	}
	tr, err := TrainTree(rel, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if Accuracy(tr, rel) != 1 {
		t.Fatal("tree failed on separable data")
	}
	// Unseen split value falls back to the node's mode.
	row := []int32{rel.Intern(0, "zzz"), 0}
	_ = tr.Predict(row) // must not panic
}

func TestEnsembleBeatsWorstMember(t *testing.T) {
	train, test, label := hospitalSplit(t)
	ens, err := Train(train, label)
	if err != nil {
		t.Fatal(err)
	}
	accE := Accuracy(ens, test)
	if accE < 0.7 {
		t.Fatalf("ensemble accuracy = %g", accE)
	}
}

func TestTrainErrors(t *testing.T) {
	empty := dataset.New("e", []string{"a", "b"})
	if _, err := TrainNaiveBayes(empty, 1); err == nil {
		t.Fatal("empty relation accepted")
	}
	if _, err := TrainTree(empty, 1, 3); err == nil {
		t.Fatal("empty relation accepted by tree")
	}
	rel := dataset.New("one", []string{"a", "b"})
	rel.AppendRow([]string{"x", "y"})
	if _, err := TrainNaiveBayes(rel, 5); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, err := TrainNaiveBayes(rel, 1); err == nil {
		t.Fatal("single-class label accepted")
	}
}

func TestErrorsCauseMispredictions(t *testing.T) {
	// The §5 premise: corrupting model inputs flips predictions.
	train, test, label := hospitalSplit(t)
	ens, err := Train(train, label)
	if err != nil {
		t.Fatal(err)
	}
	dirty := test.Clone()
	var inputCols []int
	for c := 0; c < test.NumAttrs(); c++ {
		if c != label {
			inputCols = append(inputCols, c)
		}
	}
	if _, err := errgen.Inject(dirty, errgen.Options{Rate: 0.3, MinErrors: 100, Columns: inputCols, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	flips := 0
	rowA := make([]int32, test.NumAttrs())
	rowB := make([]int32, test.NumAttrs())
	for i := 0; i < test.NumRows(); i++ {
		rowA = test.Row(i, rowA)
		rowB = dirty.Row(i, rowB)
		if ens.Predict(rowA) != ens.Predict(rowB) {
			flips++
		}
	}
	if flips == 0 {
		t.Fatal("30% corruption flipped no predictions")
	}
}

func TestPredictDeterministic(t *testing.T) {
	train, test, label := hospitalSplit(t)
	a, _ := Train(train, label)
	b, _ := Train(train, label)
	row := make([]int32, test.NumAttrs())
	for i := 0; i < 100 && i < test.NumRows(); i++ {
		row = test.Row(i, row)
		if a.Predict(row) != b.Predict(row) {
			t.Fatalf("non-deterministic prediction at row %d", i)
		}
	}
}

func TestNaiveBayesMissingValues(t *testing.T) {
	rel := dataset.New("m", []string{"x", "y"})
	rel.AppendRow([]string{"a", "p"})
	rel.AppendRow([]string{"", "q"})
	rel.AppendRow([]string{"a", "p"})
	rel.AppendRow([]string{"b", "q"})
	nb, err := TrainNaiveBayes(rel, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Predicting with a missing input must not panic.
	_ = nb.Predict([]int32{dataset.Missing, 0})
}

// constModel always predicts the same class.
type constModel int32

func (c constModel) Predict([]int32) int32 { return int32(c) }
func (constModel) Label() int              { return 0 }

// TestEnsembleTieBreak: among the classes with the most votes, the one
// voted for first wins, on every call.
func TestEnsembleTieBreak(t *testing.T) {
	for _, tc := range []struct {
		votes []int32
		want  int32
	}{
		{[]int32{7, 2, 2, 5, 5}, 2},
		{[]int32{7, 5, 2, 2, 5}, 5},
		{[]int32{7, 2, 5, 5, 2}, 2},
		{[]int32{7, 2, 7, 2, 5}, 7},
		{[]int32{7, 2, 5}, 7},
		{[]int32{7, 2, 2}, 2},
		{[]int32{3, 1, 1, 2, 2, 2, 3, 3, 1}, 3},
	} {
		models := make([]Model, len(tc.votes))
		for i, v := range tc.votes {
			models[i] = constModel(v)
		}
		ens := NewEnsemble(0, models...)
		for run := 0; run < 200; run++ {
			if got := ens.Predict(nil); got != tc.want {
				t.Fatalf("votes %v, run %d: predicted %d, want %d", tc.votes, run, got, tc.want)
			}
		}
	}
}

// TestPredictAllocationFree: scoring a row allocates nothing.
func TestPredictAllocationFree(t *testing.T) {
	train, test, label := hospitalSplit(t)
	lr, err := TrainLogistic(train, label, LogisticOptions{Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := TrainNaiveBayes(train, label)
	if err != nil {
		t.Fatal(err)
	}
	ens := NewEnsemble(label, nb, lr, nb)
	row := test.Row(0, nil)
	for _, m := range []Model{lr, ens} {
		if n := testing.AllocsPerRun(100, func() { m.Predict(row) }); n != 0 {
			t.Errorf("%T: Predict allocates %g times per row", m, n)
		}
	}
}
