package synth

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/dsl/analysis"
	"github.com/guardrail-db/guardrail/internal/sketch"
	"github.com/guardrail-db/guardrail/internal/smt/sat"
)

// formatStmt renders one statement for comparison.
func formatStmt(s dsl.Statement, rel *dataset.Relation) string {
	var b strings.Builder
	dsl.FormatStatement(&b, s, rel)
	return b.String()
}

// oracleEntry is the statement-cache entry sk must get, computed without
// the cache by the whole-program functions its verdicts stand in for,
// applied to the one-statement program.
func oracleEntry(rel *dataset.Relation, sk sketch.Stmt, opts FillOptions) cachedStmt {
	stmt, ok := FillStatement(rel, sk, opts)
	if !ok {
		return cachedStmt{}
	}
	prog := &dsl.Program{Stmts: []dsl.Statement{stmt}}
	e := cachedStmt{stmt: stmt, ok: true, cov: dsl.StatementCoverage(stmt, rel),
		bad: analysis.HasErrors(analysis.Verify(prog, rel))}
	if !e.bad {
		e.inDom = true
		e.canon, _ = analysis.Canon(prog, sat.DomainsOf(rel))
	}
	return e
}

// TestStatementCacheConcurrent is the -race stress test of the sharded
// statement cache: many goroutines fill an overlapping set of statement
// sketches through one cache, as SelectProgram's workers do. Every entry
// — the fill and its verdicts — must match oracleEntry, each distinct key must be computed exactly once
// (misses == distinct keys, singleflight), and the hit count must equal
// the remaining accesses — the same ledger a serial memo table keeps.
func TestStatementCacheConcurrent(t *testing.T) {
	rel, err := bn.PostalChain(8).Sample(500, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sketches []sketch.Stmt
	for on := 1; on < rel.NumAttrs(); on++ {
		sketches = append(sketches, sketch.Stmt{Given: []int{on - 1}, On: on})
		if on >= 2 {
			sketches = append(sketches, sketch.Stmt{Given: []int{on - 2, on - 1}, On: on})
		}
	}
	opts := FillOptions{Epsilon: 0.02, MinSupport: 2}
	want := make([]cachedStmt, len(sketches))
	filled := 0
	for i, sk := range sketches {
		want[i] = oracleEntry(rel, sk, opts)
		if want[i].ok {
			filled++
		}
	}
	if filled == 0 {
		t.Fatal("no sketch filled; the entries compared too little")
	}

	cache := newStmtCache(rel, opts, true, nil)
	const goroutines = 16
	const rounds = 50
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Offset the walk per goroutine so different keys collide
				// in-flight across goroutines.
				for i := range sketches {
					k := (i + g) % len(sketches)
					e := cache.get(context.Background(), sketches[k])
					if !reflect.DeepEqual(e, want[k]) {
						errs <- fmt.Errorf("sketch %d: concurrent entry %s differs from the oracle's %s",
							k, formatStmt(e.stmt, rel), formatStmt(want[k].stmt, rel))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	hits, misses := cache.Stats()
	total := goroutines * rounds * len(sketches)
	if misses != len(sketches) {
		t.Errorf("misses = %d, want one per distinct key (%d): duplicate fills slipped through the singleflight", misses, len(sketches))
	}
	if hits != total-len(sketches) {
		t.Errorf("hits = %d, want %d", hits, total-len(sketches))
	}
}
