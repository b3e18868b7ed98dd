package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The tests run from the root of the checkout, as the benchmark itself does.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func keys(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("not an object: %v: %s", err, raw)
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func wantKeys(t *testing.T, what string, raw json.RawMessage, want ...string) {
	t.Helper()
	sort.Strings(want)
	if got := keys(t, raw); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s has keys %v, the contract wants exactly %v", what, got, want)
	}
}

// TestManifestContract holds BENCHMARK.json against the driver's contract,
// field by field: a manifest outside it is refused before a single run.
func TestManifestContract(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	wantKeys(t, "BENCHMARK.json", data, "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer")
	var raw struct {
		Workloads []json.RawMessage `json:"workloads"`
		EndToEnd  []json.RawMessage `json:"end_to_end"`
		PerLayer  []json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, w := range raw.Workloads {
		wantKeys(t, "a workload", w, "name", "why")
	}
	for _, m := range raw.EndToEnd {
		wantKeys(t, "an end-to-end metric", m, "name", "unit", "better", "bound")
	}
	for _, m := range raw.PerLayer {
		wantKeys(t, "a per-layer metric", m, "name", "unit", "better")
	}

	mf, err := readManifest("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(mf.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, arg := range mf.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q is too long, absolute or leaves the repository", arg)
		}
	}
	if n := len(mf.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths", n)
	}
	for _, p := range mf.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is not a plain relative path", p)
		}
		if fi, err := os.Stat(p); err != nil || !fi.IsDir() {
			t.Errorf("path %q is not a directory of the repository", p)
		}
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1..60", mf.RunSeconds)
	}
	// The driver's 4 + 22 x workloads runs and two builds must fit 3420 s;
	// a run is its window plus up to 3 s warm-up (store_cycle: 48 cycles)
	// and three set-ups (serve_corpus: some 2.5 s each).
	runs := 4 + 22*len(mf.Workloads)
	if total := runs*(mf.RunSeconds+12) + 2*60; total > 3420 {
		t.Errorf("%d runs of %d s windows need about %d s, over the 3420 s cap", runs, mf.RunSeconds, total)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the name rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(mf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range mf.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s is in the manifest but the runner does not know it", w.Name)
		}
	}
	if len(mf.Workloads) != len(workloads) {
		t.Errorf("the manifest has %d workloads, the runner %d", len(mf.Workloads), len(workloads))
	}
	metric := func(m manifestMetric) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q breaks the unit rule", m.Name, m.Unit)
		}
		if m.Unit != units[m.Name] {
			t.Errorf("metric %s: the manifest says unit %q, the runner prints %q", m.Name, m.Unit, units[m.Name])
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	if n := len(mf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	hasSetup := false
	for _, m := range mf.EndToEnd {
		metric(m)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	if n := len(mf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range mf.PerLayer {
		metric(m)
	}
}

func sortedNames(ms []manifestMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// TestEmittedMetrics runs every workload for 300 ms on small inputs, untraced
// and traced, and checks that the metrics it emits are the manifest's, name
// for name, that no operation failed, and that the result line has the keys
// the driver reads.
func TestEmittedMetrics(t *testing.T) {
	mf, err := readManifest("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool][]string{false: sortedNames(mf.EndToEnd), true: sortedNames(mf.PerLayer)}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			p := params{seed: 2, seconds: 0.3, trace: trace, sizes: shortSizes, setupRounds: 1}
			res, err := runWorkload(w, p)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.name, trace, res.failed, res.attempted)
			}
			var got []string
			for name, v := range res.metrics {
				got = append(got, name)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: %s is %v", w.name, trace, name, v)
				}
			}
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(want[trace], "\n") {
				t.Errorf("%s trace=%v emits\n%v\nthe manifest lists\n%v", w.name, trace, got, want[trace])
			}
			var line bytes.Buffer
			if err := json.NewEncoder(&line).Encode(resultLine(res)); err != nil {
				t.Fatal(err)
			}
			wantKeys(t, "the result line", line.Bytes(), "correct", "attempted", "failed", "metrics")
		}
	}
}

// TestQuartiles pins the quartile rule to the values Python's
// statistics.quantiles(v, n=4) returns, since the driver uses that.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 1, 4, 3, 2, 9, 8, 7, 5, 6}, 2.75, 5.5, 8.25},
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
