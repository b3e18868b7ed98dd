// Command benchmark measures the whole xqtp stack from outside: four seeded
// workloads, each stressing other layers, with end-to-end metrics from an
// untraced pass and per-layer metrics from a traced one. BENCHMARK.json at
// the root of the repository names the workloads and metrics; README.md in
// this directory explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"xqtp/internal/algebra"
)

// env is what a workload's set-up gets.
type env struct {
	seed    int64
	sizes   sizes
	clients int
	tmp     string // directory for snapshot files, inside the checkout
}

// instance is a workload after set-up.
type instance interface {
	// op runs operation i of the seeded sequence for client c, untraced. It
	// returns the operation's duration and whether the output matched the
	// oracle; the check is not part of the duration.
	op(c, i int) (time.Duration, bool)
	// tracedOp is op with spans around the calls into the layers.
	tracedOp(tr *tracer, c, i int) (time.Duration, bool)
	// startTrace is called once before the traced window.
	startTrace() error
	// probe makes one pass of timed calls into single layers on the
	// workload's inputs; the traced pass repeats it while time remains.
	probe(tr *tracer) error
	// finish adds the layer metrics that are counts and ratios.
	finish(f *finishArgs) error
	close()
}

type finishArgs struct {
	metrics map[string]float64
	spans   *spanStats
	base    windowResult // the trace run's untraced window
}

type workload struct {
	name    string
	clients int // closed-loop callers; capped by GOMAXPROCS
	setup   func(env) (instance, error)
}

// workloads are the four of BENCHMARK.json, which also says why each exists.
var workloads = []workload{
	{"serve_twig", 2, setupServeTwig},
	{"serve_corpus", 2, setupServeCorpus},
	{"compile_adhoc", 1, setupCompileAdhoc},
	{"store_cycle", 1, setupStoreCycle},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// params are the settings of one run.
type params struct {
	seed        int64
	seconds     float64
	trace       bool
	sizes       sizes
	setupRounds int // how many times set-up is repeated for its median
}

// runResult is what one run of one workload yields.
type runResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
	samples   map[string]int // how many operations each window measured
	clients   int
	speed     float64 // the machine's speed during the window, 1 on the reference machine
	raw       timings // the window's timing figures as the clock read them
}

// Set-up is repeated for its median: at least setupRounds times, and on
// until setupSpan has passed or maxSetupRounds is reached, so that a set-up of
// a few milliseconds is not reported from three samples.
const (
	setupRounds    = 3
	maxSetupRounds = 15
	setupSpan      = 3 * time.Second
)

// warmupOps is the least number of operations a warm-up runs, however long
// that takes: store_cycle's two long-lived queries fill their prepared-join
// caches (4096 entries, some 100 per cycle) only after 41 cycles, and the
// heap those entries pin keeps growing until then.
const warmupOps = 48

// warmup is how long operations run untimed before a window: plan and
// prepared-join caches fill, snapshot pages are touched, the heap grows to
// its working size.
func warmup(seconds float64) time.Duration {
	d := time.Duration(seconds / 5 * float64(time.Second))
	if d > 3*time.Second {
		d = 3 * time.Second
	}
	return d
}

func runWorkload(w workload, p params) (*runResult, error) {
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	clients := w.clients
	if clients > procs {
		clients = procs
	}
	tmp, err := filepath.Abs(filepath.Join(".bench_build", "tmp"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	e := env{seed: p.seed, sizes: p.sizes, clients: clients, tmp: tmp}

	// Set-up is timed every round, scaled by the machine's speed around it,
	// and the last round's instance is kept.
	cal := newCalibrator()
	var setups []float64
	var inst instance
	for began := time.Now(); len(setups) < p.setupRounds ||
		(p.setupRounds > 1 && len(setups) < maxSetupRounds && time.Since(began) < setupSpan); {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		before := cal.speedNow()
		t0 := time.Now()
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		took := time.Since(t0).Seconds()
		setups = append(setups, took*(before+cal.speedNow())/2)
	}
	defer inst.close()

	res := &runResult{metrics: map[string]float64{}, samples: map[string]int{}, clients: clients}
	var next atomic.Int64
	total := time.Duration(p.seconds * float64(time.Second))
	runWindow(inst.op, cal, clients, warmup(p.seconds), 1, &next, warmupOps)
	runtime.GC()

	if !p.trace {
		r := runWindow(inst.op, cal, clients, total, 5, &next, 0).result()
		res.attempted, res.failed = r.attempted, r.failed
		res.samples["measured"] = r.attempted
		res.speed, res.raw = r.speed, r.raw
		res.metrics = map[string]float64{
			"setup_s":         median(setups),
			"op_p50_ms":       r.scaled.p50Ms,
			"op_p95_ms":       r.scaled.p95Ms,
			"ops_per_s":       r.scaled.opsPerS,
			"alloc_kb_per_op": r.allocKBPerOp,
			"cpu_ms_per_op":   r.scaled.cpuMsPerOp,
			"heap_live_mb":    heapLiveMB(),
		}
		return res, nil
	}

	// The traced pass: an untraced window for the baseline, the same
	// operation sequence with spans on, then the layer probes.
	seqStart := next.Load()
	base := runWindow(inst.op, cal, clients, total*3/10, 3, &next, 0).result()
	if err := inst.startTrace(); err != nil {
		return nil, err
	}
	tracers := make([]*tracer, clients+1)
	for c := range tracers {
		tracers[c] = newTracer()
	}
	next.Store(seqStart)
	traced := runWindow(func(c, i int) (time.Duration, bool) { return inst.tracedOp(tracers[c], c, i) },
		cal, clients, total*4/10, 4, &next, 0).result()
	probes := tracers[clients]
	for deadline := time.Now().Add(total * 3 / 10); ; {
		if err := inst.probe(probes); err != nil {
			return nil, fmt.Errorf("%s: probe: %w", w.name, err)
		}
		if time.Now().After(deadline) {
			break
		}
	}
	res.attempted = base.attempted + traced.attempted
	res.failed = base.failed + traced.failed
	res.samples["baseline"], res.samples["traced"] = base.attempted, traced.attempted
	res.speed, res.raw = base.speed, base.raw

	spans := aggregate(tracers)
	m := res.metrics
	for _, name := range perLayerNames {
		m[name] = 0 // a layer that does no work on this workload reports 0
	}
	for metric, spanName := range spanMetrics {
		m[metric] = spans.medianSelf(spanName)
	}
	for metric, tag := range classMetrics {
		m[metric] = spans.medianTag("collection.fanout", tag)
	}
	m["fail_ratio"] = ratio(float64(res.failed), float64(res.attempted))
	m["go.gc_cycles"] = base.gcCycles
	m["go.gc_pause_ms_total"] = base.gcPauseMs
	m["go.mallocs_per_op"] = base.mallocsPerOp
	m["trace.sum_over_e2e"] = ratio(median(spans.opSum), base.raw.p50Ms*1e3)
	m["trace.overhead_ratio"] = ratio(traced.scaled.opsPerS, base.scaled.opsPerS)
	if err := inst.finish(&finishArgs{metrics: m, spans: spans, base: base}); err != nil {
		return nil, err
	}
	printShares(w.name, spans)
	return res, nil
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addStagedCounts reports the counts taken at the compile-stage boundaries,
// summed over the workload's distinct query texts; they depend on the texts
// alone.
func addStagedCounts(m map[string]float64, staged []*staged) {
	var nodes, rules, patterns int
	for _, st := range staged {
		nodes += countCore(st.rewritten)
		rules += st.rules
		patterns += algebra.CountOperators(st.opt)["TupleTreePattern"]
	}
	m["rewrite.core_nodes_after"] = float64(nodes)
	m["optimize.rule_applications"] = float64(rules)
	m["optimize.tree_patterns"] = float64(patterns)
}

// printShares writes to standard error which share of the traced
// operations' time each stage took: the check that a workload stresses the
// layers it was chosen for.
func printShares(name string, spans *spanStats) {
	var all float64
	for _, d := range spans.opDur {
		all += d
	}
	if all == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: share of traced operation time by stage\n", name)
	for _, stage := range opStages {
		if self := spans.inOp[stage]; self > 0 {
			fmt.Fprintf(os.Stderr, "  %-26s %5.1f%%\n", stage, 100*self/all)
		}
	}
	// Per query class: the corpus run against the part of it that is neither
	// a member's own evaluation nor its kernel (skip test, merge, hand-over).
	for _, class := range []string{"needle", "fanout_member", "fanout_xmark", "flwor"} {
		if own := spans.medianTag("collection.merge_self", class); own > 0 {
			fmt.Fprintf(os.Stderr, "  %-14s fan-out %8.1f us, of which outside the members' runs %8.1f us\n",
				class, spans.medianTag("collection.fanout", class), own)
		}
	}
}

// host describes the machine and the run, so that no figure is read without
// its conditions.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"window_seconds"`
	Loop       string  `json:"loop"`
	Note       string  `json:"note,omitempty"`
}

func hostShape(p params) host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       p.seed,
		Seconds:    p.seconds,
		Loop:       "closed",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.NProc == 1 {
		h.Note = "one CPU: clients and server share it, and no figure here says anything about parallel speed-up"
	}
	return h
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches the manifest's unit to every metric of a run.
func withUnits(metrics map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(metrics))
	for name, v := range metrics {
		out[name] = metricValue{Value: v, Unit: units[name]}
	}
	return out
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: serve_twig, serve_corpus, compile_adhoc or store_cycle")
		all     = flag.Bool("all", false, "run the four workloads, untraced and traced, and print one report")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs and the operation sequence")
		seconds = flag.Float64("seconds", 15, "length of the measuring window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		repeat  = flag.Int("repeat", 3, "with -all, or given explicitly: run the chosen workloads this many times on one seed and report each end-to-end metric's spread against its bound")
		short   = flag.Bool("short", false, "small inputs, for a smoke run")
	)
	flag.Parse()
	p := params{seed: *seed, seconds: *seconds, trace: *trace != 0, sizes: fullSizes, setupRounds: setupRounds}
	if *short {
		p.sizes = shortSizes
	}
	if p.trace {
		p.setupRounds = 1
	}
	if p.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	chosen := workloads
	if !*all {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		chosen = []workload{w}
	}
	repeatSet := false
	flag.Visit(func(f *flag.Flag) { repeatSet = repeatSet || f.Name == "repeat" })
	if *all || repeatSet {
		if *repeat < 1 {
			fmt.Fprintln(os.Stderr, "benchmark: -repeat must be at least 1")
			return 2
		}
		return report(chosen, p, *repeat)
	}

	res, err := runWorkload(chosen[0], p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printJSON(struct {
		Host    host               `json:"host"`
		Clients int                `json:"clients"`
		Samples map[string]int     `json:"samples"`
		Speed   float64            `json:"machine_speed"`
		Raw     map[string]float64 `json:"unscaled"`
	}{hostShape(p), res.clients, res.samples, res.speed, res.raw.asMap()})
	printJSON(resultLine(res))
	return 0
}

// asMap names the unscaled timing figures after the metrics they belong to.
func (t timings) asMap() map[string]float64 {
	return map[string]float64{
		"op_p50_ms": t.p50Ms, "op_p95_ms": t.p95Ms, "ops_per_s": t.opsPerS, "cpu_ms_per_op": t.cpuMsPerOp,
	}
}

// result is the object the driver reads from the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func resultLine(res *runResult) result {
	return result{res.failed == 0, res.attempted, res.failed, withUnits(res.metrics)}
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // the values are plain numbers and strings
	}
	fmt.Println(string(data))
}
