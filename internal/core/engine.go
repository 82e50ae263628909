package core

import (
	"fmt"

	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/dsl/compile"
)

// Engine runs one constraint program on encoded rows. It is the one place
// that chooses between the translation-validated compiled form and the AST
// interpreter, and the one place the fail-closed rule lives: a program the
// compiler cannot prove runs on the AST. An Engine is immutable and safe
// for concurrent use; per-caller scratch lives in the Guards built on it.
type Engine struct {
	prog     *dsl.Program
	compiled *compile.Prog // nil on the AST backend
	val      *compile.Validation
	fallback error
}

// NewEngine builds an engine that interprets prog's syntax tree — the
// reference backend and the differential-testing oracle.
func NewEngine(prog *dsl.Program) *Engine { return &Engine{prog: prog} }

// CompileEngine lowers prog through compile.Compile. It always returns a
// usable engine: when translation validation fails the engine runs the AST
// and Fallback reports why. opts.Domains nil is always sound (see
// compile.Options).
func CompileEngine(prog *dsl.Program, opts compile.Options) *Engine {
	cp, val, err := compile.Compile(prog, opts) // cp is nil on error
	return &Engine{prog: prog, compiled: cp, val: val, fallback: err}
}

// EngineNamed returns the engine constructor the -engine flag spells name:
// "ast" for NewEngine (opts are ignored) or "compiled" for CompileEngine.
func EngineNamed(name string) (func(*dsl.Program, compile.Options) *Engine, error) {
	switch name {
	case "ast":
		return func(p *dsl.Program, _ compile.Options) *Engine { return NewEngine(p) }, nil
	case "compiled":
		return CompileEngine, nil
	}
	return nil, fmt.Errorf("core: unknown engine %q", name)
}

// Backend names the backend serving rows as the -engine flag spells it:
// "compiled" or "ast".
func (e *Engine) Backend() string {
	if e.compiled != nil {
		return "compiled"
	}
	return "ast"
}

// Program returns the engine's source program.
func (e *Engine) Program() *dsl.Program { return e.prog }

// Validation returns the compile attempt's translation-validation record:
// nil from NewEngine or when compilation stopped before any obligation.
func (e *Engine) Validation() *compile.Validation { return e.val }

// Fallback reports why a CompileEngine engine runs the AST, or nil when it
// did not fall back.
func (e *Engine) Fallback() error { return e.fallback }

// Detect appends row's violations to buf[:0] and returns it; the caller
// owns buf.
func (e *Engine) Detect(row []int32, buf []dsl.Violation) []dsl.Violation {
	if e.compiled != nil {
		return e.compiled.DetectInto(row, buf[:0])
	}
	return append(buf[:0], e.prog.Detect(row)...)
}

// Rectify overwrites each violated dependent attribute in place, in
// statement order, and returns the number of assignments made (see
// dsl.Program.Rectify; Guard.Step counts changed cells).
func (e *Engine) Rectify(row []int32) int {
	if e.compiled != nil {
		return e.compiled.Rectify(row)
	}
	return e.prog.Rectify(row)
}

// Guard builds a cheap guard applying strategy on this engine.
func (e *Engine) Guard(strategy Strategy) *Guard {
	return &Guard{eng: e, strategy: strategy}
}
