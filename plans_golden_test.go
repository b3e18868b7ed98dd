package xqtp

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata from this checkout")

// goldenTexts is every query text the benchmark compiles plus the Fig. 6
// pairs, each once, in first-seen order.
func goldenTexts() []string {
	texts := paperTexts()
	for _, q := range Figure6Queries {
		texts = append(texts, q.Child, q.Descendant)
	}
	seen := make(map[string]bool, len(texts))
	out := texts[:0]
	for _, t := range texts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// TestPlansGolden pins what every compile phase produces — the TPNF′ core,
// the optimized plan and the physical lowering — for every golden text under
// both the default and the standard-engine options. Regenerate with
// `go test -run PlansGolden -update .` only when a change means to alter
// plans.
func TestPlansGolden(t *testing.T) {
	const golden = "testdata/plans_pr24.golden"
	var b strings.Builder
	for _, text := range goldenTexts() {
		for _, o := range []struct {
			name string
			opts CompileOptions
		}{{"default", DefaultOptions}, {"standard", StandardEngineOptions}} {
			q, err := PrepareWithOptions(text, o.opts)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			phys, err := q.ExplainPhysical(Auto, nil)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			fmt.Fprintf(&b, "=== %s [%s]\n-- rewritten\n%s\n-- plan\n%s\n-- physical\n%s\n", text, o.name, q.Rewritten(), q.Plan(), phys)
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("plans diverge from %s at line %d:\n got  %q\n want %q", golden, i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("plans diverge from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// TestConcurrentPrepare compiles the golden texts on 8 goroutines through one
// plan cache, smaller than the text list so that texts are compiled again
// and again while other goroutines run earlier compilations of them, and
// checks every answer against a single-threaded run. A Query's compile
// phases share their unchanged subtrees; under -race this pins that nothing
// writes to them after Prepare.
func TestConcurrentPrepare(t *testing.T) {
	doc := NewXMarkDocument(3, 20)
	texts := goldenTexts()
	answer := func(q *Query) (string, error) {
		items, err := q.Run(doc, Auto)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for _, it := range items {
			b.WriteString(SerializeItem(it))
			b.WriteByte('\n')
		}
		return b.String(), nil
	}
	want := make([]string, len(texts))
	for i, text := range texts {
		var err error
		if want[i], err = answer(MustPrepare(text)); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}
	cache := NewPlanCache(len(texts) / 4)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := range texts {
				i := (r*(g+1) + g) % len(texts)
				q, err := cache.Prepare(texts[i])
				if err == nil {
					var got string
					if got, err = answer(q); err == nil && got != want[i] {
						err = fmt.Errorf("answer differs from the single-threaded run")
					}
					_ = q.Explain()
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %s: %w", g, texts[i], err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
