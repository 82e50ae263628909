// Package experiments reproduces every table and figure in the paper's
// evaluation (§8) on the 12 synthetic dataset analogs: error detection
// quality (Tables 1, 3, 5), synthesis cost (Tables 4, 7), the auxiliary
// sampler and ε ablations (Table 8, Fig. 7), ML-integrated query accuracy
// and overhead (Table 6, Fig. 6), and the OptSMT baseline blow-up (§8.3).
// Each experiment is deterministic given its Config.
package experiments

import (
	"fmt"
	"strings"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/dsl/compile"
	"github.com/guardrail-db/guardrail/internal/errgen"
	"github.com/guardrail-db/guardrail/internal/ml"
	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
)

// Config scales the experiments. Scale 1.0 reproduces Table 2 row counts;
// the default 0.1 keeps a full run in CI territory while preserving every
// qualitative shape.
type Config struct {
	Scale float64
	Seed  int64
	// Datasets restricts the run to these Table 2 ids; nil means all 12.
	Datasets []int
	// Epsilon for Guardrail synthesis (default 0.05, the top of the
	// paper's recommended range).
	Epsilon float64
	// NaturalNoise is the unlabeled background corruption rate applied to
	// the whole dataset before splitting (default 0.02), modelling the
	// real-world noise the paper's datasets carry.
	NaturalNoise float64
	// MinSupportOverride overrides the synthesizer's branch support floor
	// when positive (used by calibration sweeps).
	MinSupportOverride int
	// AlphaOverride / MaxCondOverride override the structure learner's
	// significance level and conditioning-set cap when positive.
	AlphaOverride   float64
	MaxCondOverride int
	// AuxShiftsOverride overrides the auxiliary sampler's shift count.
	AuxShiftsOverride int
	// Workers bounds each synthesis stage's worker pool; <= 0 uses every
	// core, 1 forces the serial pipeline. Results are identical at any
	// value — only wall-clock changes.
	Workers int
	// Obs receives pipeline counters and stage timings from every
	// synthesis run an experiment performs; nil disables instrumentation.
	Obs *obs.Registry
	// Trace parents every synthesis run's span tree; the zero scope
	// disables tracing.
	Trace trace.Scope
	// Engine builds every guard's engine (see core.EngineNamed); nil is
	// the AST. Results are engine-independent by construction.
	Engine func(*dsl.Program, compile.Options) *core.Engine
}

// newGuard builds a guard for prog on the configured engine.
func (c Config) newGuard(prog *dsl.Program, strategy core.Strategy) *core.Guard {
	if c.Engine == nil {
		return core.NewGuard(prog, strategy)
	}
	eng := c.Engine(prog, compile.Options{Obs: c.Obs, Trace: c.Trace})
	if eng.Fallback() != nil && c.Obs != nil {
		c.Obs.Counter("experiments.guard_compile_failed").Inc()
	}
	return eng.Guard(strategy)
}

func (c Config) alphaOrDefault() float64 {
	if c.AlphaOverride > 0 {
		return c.AlphaOverride
	}
	return 0.005
}

func (c Config) maxCondOrDefault() int {
	if c.MaxCondOverride > 0 {
		return c.MaxCondOverride
	}
	return 3
}

func (c Config) auxShiftsOrDefault() int {
	if c.AuxShiftsOverride > 0 {
		return c.AuxShiftsOverride
	}
	return 16
}

func (c *Config) defaults() {
	if c.Scale == 0 {
		c.Scale = 0.1
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.05
	}
	if c.NaturalNoise == 0 {
		c.NaturalNoise = 0.02
	}
}

func (c Config) specs() []bn.DatasetSpec {
	if len(c.Datasets) == 0 {
		return bn.Registry
	}
	var out []bn.DatasetSpec
	for _, id := range c.Datasets {
		if s, err := bn.SpecByID(id); err == nil {
			out = append(out, s)
		}
	}
	return out
}

// prepared bundles the per-dataset artifacts shared across experiments.
type prepared struct {
	spec     bn.DatasetSpec
	train    *dataset.Relation
	test     *dataset.Relation // test split (carries natural background noise)
	pristine *dataset.Relation // test split before any noise — Fig. 6's ground truth
	dirty    *dataset.Relation // test split with injected (gold-masked) errors
	mask     *errgen.Mask
	label    int // label attribute index
}

// prepare generates, splits and corrupts one dataset following the §8
// protocol. Real-world datasets are inherently noisy — the paper's premise
// — so a small unlabeled background-noise rate is applied to the whole
// relation first (it is part of the data, not of the gold error mask).
// Constraints are then mined on the "error-free" split (free of *injected*
// errors) and evaluated against errors injected into the test split at 1%
// (floored for small datasets).
func prepare(spec bn.DatasetSpec, cfg Config) (*prepared, error) {
	cfg.defaults()
	rel, err := spec.Generate(cfg.Scale, cfg.Seed+int64(spec.ID))
	if err != nil {
		return nil, fmt.Errorf("experiments: generating %s: %w", spec.Name, err)
	}
	noiseless := rel.Clone()
	if _, err := errgen.Inject(rel, errgen.Options{
		Rate: cfg.NaturalNoise, MinErrors: 1, RandomStringProb: 0.05,
		Seed: cfg.Seed + 7777 + int64(spec.ID),
	}); err != nil {
		return nil, fmt.Errorf("experiments: background noise for %s: %w", spec.Name, err)
	}
	// Identical split seeds keep the noisy and pristine splits row-aligned.
	train, test := rel.Split(0.6, cfg.Seed+int64(spec.ID))
	_, pristine := noiseless.Split(0.6, cfg.Seed+int64(spec.ID))
	dirty := test.Clone()
	mask, err := errgen.Inject(dirty, errgen.Options{Rate: 0.01, MinErrors: 30, Seed: cfg.Seed + int64(spec.ID)})
	if err != nil {
		return nil, fmt.Errorf("experiments: injecting errors into %s: %w", spec.Name, err)
	}
	label := rel.AttrIndex(spec.LabelAttr)
	if label < 0 {
		return nil, fmt.Errorf("experiments: %s: label attribute %q missing", spec.Name, spec.LabelAttr)
	}
	return &prepared{spec: spec, train: train, test: test, pristine: pristine, dirty: dirty, mask: mask, label: label}, nil
}

// synthOptions are the Guardrail settings used across the evaluation.
func synthOptions(cfg Config, seed int64) core.Options {
	cfg.defaults()
	ms := 2
	if cfg.MinSupportOverride > 0 {
		ms = cfg.MinSupportOverride
	}
	return core.Options{
		Epsilon:       cfg.Epsilon,
		MinSupport:    ms,
		Alpha:         cfg.alphaOrDefault(),
		MaxCond:       cfg.maxCondOrDefault(),
		MaxDAGs:       256,
		AuxShifts:     cfg.auxShiftsOrDefault(),
		AuxMaxSamples: 120000,
		Seed:          seed,
		Workers:       cfg.Workers,
		Obs:           cfg.Obs,
		Trace:         cfg.Trace,
	}
}

// trainModel fits the ML substrate on the training split. A depth-limited
// decision tree stands in for the paper's autogluon models: like real
// tabular models it leans on a few strong features, so single-cell
// corruption flips a realistic share of predictions (§5's premise);
// the naive-Bayes ensemble averages corruption away and would understate
// the error/mis-prediction coupling of Tables 1 and 5.
func trainModel(p *prepared) (ml.Model, error) {
	return ml.TrainTree(p.train, p.label, 6)
}

// mispredictions counts rows of dirty whose model prediction differs from
// the prediction on the corresponding clean row — the error-induced
// mis-predictions of §5 — and returns the per-row mask.
func mispredictions(model ml.Model, clean, dirty *dataset.Relation) (int, []bool) {
	n := clean.NumRows()
	mask := make([]bool, n)
	count := 0
	rowC := make([]int32, clean.NumAttrs())
	rowD := make([]int32, clean.NumAttrs())
	for i := 0; i < n; i++ {
		rowC = clean.Row(i, rowC)
		rowD = dirty.Row(i, rowD)
		if model.Predict(rowC) != model.Predict(rowD) {
			mask[i] = true
			count++
		}
	}
	return count, mask
}

// renderTable formats rows of cells with a header, aligned by column.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
