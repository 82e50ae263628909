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
func DetectDrift(baseline, window *Table, alpha float64) DriftReport {
	nv := min(baseline.NumVars(), window.NumVars())
	rep := DriftReport{Vars: make([]VarDrift, 0, nv)}
	for i := 0; i < nv; i++ {
		rep.Vars = append(rep.Vars, driftOne(i, baseline.Marginal(i), window.Marginal(i), alpha))
	}
	return rep
}

// driftOne runs the homogeneity test for one variable as a single-stratum
// stats.Strata over (marginal slot, side). The two marginals may have
// different lengths when one table's dictionary grew; slots are compared
// by position, the shorter marginal zero-padded. Slots index the table's
// rows and sides its columns: that orientation sums the G² terms slot by
// slot, baseline before window, and the transposed table would round
// differently. A count past the int32 tables, like a chi-square tail
// that fails to converge, never flags.
func driftOne(i int, b, w []int64, alpha float64) VarDrift {
	d := VarDrift{Var: i, P: 1}
	s, err := stats.NewStrata(New([]int{max(len(b), len(w)), 2}), 0, 1, nil)
	if err != nil {
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
