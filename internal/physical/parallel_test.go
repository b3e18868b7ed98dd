package physical

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"xqtp/internal/collection"
	"xqtp/internal/execctx"
	"xqtp/internal/join"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// One compiled plan and one runtime, many concurrent Run calls: the serving
// pattern. The member's prepared-join table is hit from every goroutine;
// results must match the single-threaded run (run with -race to validate the
// synchronization).
func TestConcurrentRunsSharePlan(t *testing.T) {
	queries := []string{
		`$d//person[emailaddress]/name`,
		`for $x in $d//person[emailaddress] return $x/name`,
		`$d//site//person//name`,
	}
	rng := rand.New(rand.NewSource(7))
	trees := []*xdm.Tree{randomDoc(rng, 150), randomDoc(rng, 250)}
	for _, alg := range []join.Algorithm{join.NestedLoop, join.Staircase, join.Twig, join.Auto} {
		for _, q := range queries {
			p, err := Compile(pipeline(t, q, true), alg)
			if err != nil {
				t.Fatalf("%s/%v: %v", q, alg, err)
			}
			for _, tr := range trees {
				c := collection.Single("", xmlstore.BuildIndex(tr))
				rt := &Runtime{
					Catalog: c.Catalog(),
					Preps:   c,
					Vars:    p.BindVars(engineVars(tr)),
				}
				want, werr := p.Run(rt)
				const goroutines = 8
				outs := make([]xdm.Sequence, goroutines)
				errs := make([]error, goroutines)
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						outs[g], errs[g] = p.Run(rt)
					}(g)
				}
				wg.Wait()
				for g := 0; g < goroutines; g++ {
					if (werr == nil) != (errs[g] == nil) {
						t.Fatalf("%s/%v: goroutine %d error mismatch %v vs %v", q, alg, g, werr, errs[g])
					}
					if !seqEqual(want, outs[g]) {
						t.Errorf("%s/%v: goroutine %d result differs", q, alg, g)
					}
				}
			}
		}
	}
}

// Eight goroutines run one plan over and over, against two documents in turn
// and through both Run and RunSink, so the plan's pooled run states pass from
// goroutine to goroutine and from document to document, each keeping what
// its last run left in its slots, cells and rank tables. Every run must give
// the one-goroutine answer of a fresh plan.
func TestConcurrentRunsReuseStates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trees := []*xdm.Tree{randomDoc(rng, 120), randomDoc(rng, 40)}
	for _, alg := range []join.Algorithm{join.Staircase, join.Auto} {
		for _, q := range differentialQueries {
			rts := make([]*Runtime, len(trees))
			wants := make([]xdm.Sequence, len(trees))
			werrs := make([]error, len(trees))
			p, err := Compile(pipeline(t, q, true), alg)
			if err != nil {
				t.Fatalf("%s/%v: %v", q, alg, err)
			}
			for i, tr := range trees {
				c := collection.Single("", xmlstore.BuildIndex(tr))
				rts[i] = &Runtime{Catalog: c.Catalog(), Preps: c, Vars: p.BindVars(engineVars(tr))}
				fresh, err := Compile(pipeline(t, q, true), alg)
				if err != nil {
					t.Fatalf("%s/%v: %v", q, alg, err)
				}
				wants[i], werrs[i] = fresh.Run(rts[i])
			}
			const goroutines, runs = 8, 6
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < runs; r++ {
						d := (g + r) % len(trees)
						var got xdm.Sequence
						var err error
						if r%2 == 0 {
							got, err = p.Run(rts[d])
						} else {
							var col execctx.Collector
							err = p.RunSink(rts[d], &col)
							got = col.Seq
						}
						if fmt.Sprint(err) != fmt.Sprint(werrs[d]) || err == nil && !seqEqual(wants[d], got) {
							t.Errorf("%s/%v: goroutine %d run %d on document %d: %v (%v), want %v (%v)", q, alg, g, r, d, got, err, wants[d], werrs[d])
							return
						}
					}
				}(g)
			}
			wg.Wait()
		}
	}
}
