// The compiled row-check engine: the executable form the pipeline emits
// and the tight dispatch loop that interprets it. A compiled statement is
// a hoisted common-atom prefix plus one of three dispatch forms over the
// residual guards:
//
//   - dense:  a mixed-radix perfect hash of the determinant codes into a
//     flat decision table (one int32 load per row, no probing)
//   - sparse: the same key into a Go map when the radix product is too
//     large to materialize
//   - linear: first-match scan over flat atom arrays (general fallback)
//
// Codes are offset by +1 when keyed so the Missing sentinel (-1) lands on
// slot 0; any code at or beyond an attribute's radix bound matches no
// branch literal and short-circuits to "no match", which keeps dispatch
// correct even for codes interned after compilation.

package compile

import (
	"math"

	"github.com/guardrail-db/guardrail/internal/dsl"
)

type dispatchKind uint8

const (
	dispatchLinear dispatchKind = iota
	dispatchDense
	dispatchSparse
)

func (k dispatchKind) String() string {
	switch k {
	case dispatchDense:
		return "dense"
	case dispatchSparse:
		return "sparse"
	}
	return "linear"
}

// noMatch marks an empty dense-table slot. Assigned values are dictionary
// codes or Missing (>= -1), so the sentinel can never collide.
const noMatch = int32(math.MinInt32)

// cstmt is one compiled statement.
type cstmt struct {
	orig   int32 // statement index in the source program
	on     int32 // dependent attribute
	kind   dispatchKind
	common []dsl.Pred // hoisted atoms, checked before dispatch

	// dense/sparse dispatch over the determinant attribute set.
	det    []int32  // determinant attributes, ascending
	radix  []int64  // per det attr: exclusive bound on code+1
	mult   []uint64 // mixed-radix multipliers
	dense  []int32  // assigned value per key, noMatch when empty
	sparse map[uint64]int32

	// linear dispatch.
	branches []cbranch
}

type cbranch struct {
	atoms []dsl.Pred
	value int32
}

// Prog is a compiled program. It implements the same row semantics as the
// *dsl.Program it was compiled from (the translation validator and the
// differential oracle hold it to that) with O(1) branch dispatch on
// table-shaped statements. A Prog is immutable after Compile and safe for
// concurrent use.
type Prog struct {
	stmts    []cstmt
	srcStmts int
	minWidth int
}

// SourceStmts reports the statement count of the source program.
func (p *Prog) SourceStmts() int { return p.srcStmts }

// NumStmts reports the compiled statement count (after pruning).
func (p *Prog) NumStmts() int { return len(p.stmts) }

// MinWidth reports the minimum row length the engine requires — one past
// the highest attribute index the compiled program touches.
func (p *Prog) MinWidth() int { return p.minWidth }

// Layout reports how many statements compiled into each dispatch form.
func (p *Prog) Layout() (dense, sparse, linear int) {
	for i := range p.stmts {
		switch p.stmts[i].kind {
		case dispatchDense:
			dense++
		case dispatchSparse:
			sparse++
		default:
			linear++
		}
	}
	return
}

// match returns the value the statement's first matching branch assigns
// to row, if any. The hot path: no allocation, no indirect calls.
func (st *cstmt) match(row []int32) (int32, bool) {
	for _, p := range st.common {
		if row[p.Attr] != p.Value {
			return 0, false
		}
	}
	switch st.kind {
	case dispatchDense:
		var key uint64
		for k, a := range st.det {
			u := int64(row[a]) + 1
			if uint64(u) >= uint64(st.radix[k]) { // negative u wraps huge
				return 0, false
			}
			key += uint64(u) * st.mult[k]
		}
		if v := st.dense[key]; v != noMatch {
			return v, true
		}
		return 0, false
	case dispatchSparse:
		var key uint64
		for k, a := range st.det {
			u := int64(row[a]) + 1
			if uint64(u) >= uint64(st.radix[k]) {
				return 0, false
			}
			key += uint64(u) * st.mult[k]
		}
		v, ok := st.sparse[key]
		return v, ok
	default:
		for i := range st.branches {
			b := &st.branches[i]
			matched := true
			for _, p := range b.atoms {
				if row[p.Attr] != p.Value {
					matched = false
					break
				}
			}
			if matched {
				return b.value, true
			}
		}
		return 0, false
	}
}

// DetectInto appends every violation of the compiled program by row to
// buf and returns the extended slice — the zero-allocation counterpart of
// dsl.Program.Detect when the caller reuses buf across rows. Statements
// pruned as provably redundant contribute no entries; the violations that
// remain carry source-program statement indices, and a row is flagged,
// coerced, raised-on, and rectified exactly as the interpreter would.
func (p *Prog) DetectInto(row []int32, buf []dsl.Violation) []dsl.Violation {
	for i := range p.stmts {
		st := &p.stmts[i]
		if v, ok := st.match(row); ok && row[st.on] != v {
			buf = append(buf, dsl.Violation{Stmt: int(st.orig), Attr: int(st.on), Expected: v, Actual: row[st.on]})
		}
	}
	return buf
}

// Rectify overwrites each violated dependent attribute in place, in
// statement order against the mutating row — same sequential semantics as
// dsl.Program.Rectify — and reports how many assignments it made, which
// can exceed the number of cells that end up changed.
func (p *Prog) Rectify(row []int32) int {
	changed := 0
	for i := range p.stmts {
		st := &p.stmts[i]
		if v, ok := st.match(row); ok && row[st.on] != v {
			row[st.on] = v
			changed++
		}
	}
	return changed
}

// Eval executes the compiled program on row, returning the updated state
// without mutating the input — the compiled ⟦p⟧_t.
func (p *Prog) Eval(row []int32) []int32 {
	out := append([]int32(nil), row...)
	for i := range p.stmts {
		st := &p.stmts[i]
		if v, ok := st.match(out); ok {
			out[st.on] = v
		}
	}
	return out
}
