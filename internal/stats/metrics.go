package stats

import (
	"errors"
	"math"
	"sort"
)

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add accumulates one (predicted, actual) observation.
func (c *Confusion) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && actual:
		c.FN++
	default:
		c.TN++
	}
}

// Precision returns TP/(TP+FP), or NaN when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return math.NaN()
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or NaN when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return math.NaN()
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall, or NaN when
// undefined (the paper's tables report NaN in those cells too).
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if math.IsNaN(p) || math.IsNaN(r) || p+r == 0 {
		return math.NaN()
	}
	return 2 * p * r / (p + r)
}

// MCC returns the Matthews correlation coefficient, or NaN when any margin
// is zero.
func (c Confusion) MCC() float64 {
	tp, fp, tn, fn := float64(c.TP), float64(c.FP), float64(c.TN), float64(c.FN)
	den := math.Sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
	if den == 0 {
		return math.NaN()
	}
	return (tp*tn - fp*fn) / den
}

// Spearman returns Spearman's rank correlation coefficient between x and y
// (average ranks for ties) and its two-sided p-value from the t
// approximation, as used by the paper to relate error counts to
// mis-prediction counts (§5).
func Spearman(x, y []float64) (rho, p float64, err error) {
	if len(x) != len(y) {
		return 0, 0, errors.New("stats: Spearman requires equal-length inputs")
	}
	n := len(x)
	if n < 3 {
		return 0, 0, errors.New("stats: Spearman requires at least 3 observations")
	}
	rx, ry := ranks(x), ranks(y)
	mx, my := mean(rx), mean(ry)
	var num, dx, dy float64
	for i := 0; i < n; i++ {
		a, b := rx[i]-mx, ry[i]-my
		num += a * b
		dx += a * a
		dy += b * b
	}
	if dx == 0 || dy == 0 {
		return 0, 0, errors.New("stats: Spearman undefined for constant input")
	}
	rho = num / math.Sqrt(dx*dy)
	if rho >= 1 || rho <= -1 {
		return rho, 0, nil
	}
	t := rho * math.Sqrt(float64(n-2)/(1-rho*rho))
	p, perr := StudentTSurvival(t, float64(n-2))
	if perr != nil {
		return rho, math.NaN(), nil
	}
	return rho, p, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ranks assigns 1-based average ranks with tie handling.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// MinMaxNormalize rescales xs into [0,1] in place; a constant slice maps to
// all zeros. Used to put the 48 query errors of Fig. 6 on one scale.
func MinMaxNormalize(xs []float64) {
	if len(xs) == 0 {
		return
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		for i := range xs {
			xs[i] = 0
		}
		return
	}
	for i := range xs {
		xs[i] = (xs[i] - lo) / (hi - lo)
	}
}

// L1Distance returns Σ|a_i - b_i|; slices must have equal length.
func L1Distance(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("stats: L1Distance requires equal-length inputs")
	}
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s, nil
}

// L1Norm returns Σ|a_i|.
func L1Norm(a []float64) float64 {
	var s float64
	for _, x := range a {
		s += math.Abs(x)
	}
	return s
}

// MeanStd returns the mean and (population) standard deviation of xs,
// ignoring NaNs. Used for the "0.87 ± 0.25" style aggregates in §8.2.
func MeanStd(xs []float64) (m, sd float64) {
	var s, n float64
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		s += x
		n++
	}
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	m = s / n
	var v float64
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		v += (x - m) * (x - m)
	}
	return m, math.Sqrt(v / n)
}
