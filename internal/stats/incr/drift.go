package incr

import "github.com/guardrail-db/guardrail/internal/stats"

// VarDrift is the drift verdict for one variable: a G-test of
// homogeneity between its baseline and window marginal distributions.
type VarDrift struct {
	Var     int
	Stat    float64
	Dof     int
	P       float64
	Drifted bool
}

// DriftReport collects per-variable drift verdicts for one comparison.
type DriftReport struct {
	Vars []VarDrift
}

// Any reports whether any variable drifted.
func (r DriftReport) Any() bool {
	for _, v := range r.Vars {
		if v.Drifted {
			return true
		}
	}
	return false
}

// DriftedVars returns the indices of drifted variables, ascending.
func (r DriftReport) DriftedVars() []int {
	var out []int
	for _, v := range r.Vars {
		if v.Drifted {
			out = append(out, v.Var)
		}
	}
	return out
}

// Dirty renders the report as the dirty-flag vector pc.LearnWarm
// consumes: dirty[i] is true when variable i's marginal drifted.
func (r DriftReport) Dirty(numVars int) []bool {
	dirty := make([]bool, numVars)
	for _, v := range r.Vars {
		if v.Drifted && v.Var < numVars {
			dirty[v.Var] = true
		}
	}
	return dirty
}

// DetectDrift compares each variable's marginal distribution in window
// against baseline with a G-test of homogeneity on the k×2 contingency
// table (the k marginal slots, missing included, against baseline and
// window counts) and flags variables whose p-value falls at or below
// alpha. Small samples (dof 0, or either side empty) never flag —
// matching the conservative stance the CI tests take on sparse tables.
// The scan is over fixed-order slices, so the report is a pure function
// of the two tables.
//
// The two sides may declare different cardinalities when one table's
// dictionary grew. Both marginals are laid out over the larger one, with
// missing last, so every slot holds the same category on both sides: a
// category new to the window lines up with the baseline's empty slot for
// it, never with the baseline's missing mass.
func DetectDrift(baseline, window *Table, alpha float64) DriftReport {
	nv := min(baseline.NumVars(), window.NumVars())
	rep := DriftReport{Vars: make([]VarDrift, 0, nv)}
	var buf []int64
	var s stats.Strata
	for i := 0; i < nv; i++ {
		slots := max(baseline.Card(i), window.Card(i)) + 1
		if cap(buf) < 2*slots {
			buf = make([]int64, 2*slots)
		}
		b, w := buf[:slots], buf[slots:2*slots]
		baseline.marginal(i, b)
		window.marginal(i, w)
		rep.Vars = append(rep.Vars, driftOne(&s, i, b, w, alpha))
	}
	return rep
}

// slotShape is the shape of driftOne's table: a variable of that many
// marginal slots against the two sides.
type slotShape int

func (s slotShape) NumVars() int { return 2 }

func (s slotShape) Card(i int) int {
	if i == 0 {
		return int(s)
	}
	return 2
}

// driftOne runs the homogeneity test for one variable as a single-stratum
// stats.Strata over (marginal slot, side), reset into s; b and w have
// the same length and slot layout. Slots index the table's rows and
// sides its columns: that orientation sums the G² terms slot by slot,
// baseline before window, and the transposed table would round
// differently. A count past the int32 tables, like a chi-square tail
// that fails to converge, never flags.
func driftOne(s *stats.Strata, i int, b, w []int64, alpha float64) VarDrift {
	d := VarDrift{Var: i, P: 1}
	if err := s.Reset(slotShape(len(b)), 0, 1, nil); err != nil {
		return d
	}
	for side, m := range [2][]int64{b, w} {
		for slot, c := range m {
			if err := s.AddN(0, int32(slot), int32(side), c); err != nil {
				return d
			}
		}
	}
	res, err := s.Result()
	d.Stat, d.Dof = res.Stat, res.Dof
	if err == nil && res.Dof > 0 {
		d.P = res.P
		d.Drifted = res.P <= alpha
	}
	return d
}
