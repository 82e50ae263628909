package main

import (
	"math"
	"sort"
	"time"
)

// tailLevels are the percentiles a tail latency may be reported at, lowest
// first. tailPercentile picks the highest one the sample count supports.
var tailLevels = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least q·n samples at or below it. xs need not be
// sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples ranked above the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - rank(n, q) }

// tailPercentile returns the highest level of tailLevels that still has at
// least minBeyond samples ranked above it, with that quantile's value. ok
// is false when even the median lacks minBeyond samples beyond it.
func tailPercentile(xs []float64) (level, value float64, ok bool) {
	for _, q := range tailLevels {
		if beyond(len(xs), q) < minBeyond {
			break
		}
		level, ok = q, true
	}
	if !ok {
		return 0, math.NaN(), false
	}
	return level, quantile(xs, level), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	logs := 0.0
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// confusion is a binary confusion matrix of predicted against gold flags.
type confusion struct{ TP, FP, FN, TN int }

func confusionOf(pred, gold []bool) confusion {
	var c confusion
	for i := range gold {
		p := i < len(pred) && pred[i]
		switch {
		case p && gold[i]:
			c.TP++
		case p:
			c.FP++
		case gold[i]:
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}

// f1 is the harmonic mean of precision and recall; 0 when nothing is both
// predicted and gold.
func (c confusion) f1() float64 {
	if c.TP == 0 {
		return 0
	}
	return 2 * float64(c.TP) / float64(2*c.TP+c.FP+c.FN)
}
