package physical

import (
	"math/rand"
	"sync"
	"testing"

	"xqtp/internal/collection"
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
