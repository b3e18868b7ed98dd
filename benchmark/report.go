package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// manifest is BENCHMARK.json, as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// quartiles returns the first, second and third quartile of v as Python's
// statistics.quantiles(v, n=4) computes them (the driver's method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadStat is how one end-to-end metric varied over the repeated runs.
type spreadStat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	IQR    float64   `json:"iqr_over_median"`
	Range  float64   `json:"range_over_median"`
	Bound  float64   `json:"bound"`
	Within bool      `json:"within_bound"`
	Values []float64 `json:"values"`
}

type workloadReport struct {
	Why       string                 `json:"why"`
	Clients   int                    `json:"clients"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Samples   map[string]int         `json:"samples"`
	EndToEnd  map[string]spreadStat  `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// report runs the chosen workloads repeat times untraced on one seed and once
// traced, prints one JSON object, and returns non-zero when an operation
// failed or an end-to-end metric's spread between the runs (set-up's apart)
// exceeds the bound BENCHMARK.json sets for it.
func report(chosen []workload, p params, repeat int) int {
	mf, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the root of the checkout:", err)
		return 1
	}
	bounds := map[string]float64{}
	for _, m := range mf.EndToEnd {
		if m.Bound != nil {
			bounds[m.Name] = *m.Bound
		}
	}
	out := struct {
		Host      host                      `json:"host"`
		Claim     *string                   `json:"claim"`
		Repeat    int                       `json:"repeat"`
		Workloads map[string]workloadReport `json:"workloads"`
	}{Host: hostShape(p), Repeat: repeat, Workloads: map[string]workloadReport{}}
	status := 0
	why := map[string]string{}
	for _, w := range mf.Workloads {
		why[w.Name] = w.Why
	}
	for _, w := range chosen {
		wr := workloadReport{Why: why[w.name], Samples: map[string]int{}, EndToEnd: map[string]spreadStat{}}
		values := map[string][]float64{}
		for r := 0; r < repeat; r++ {
			fmt.Fprintf(os.Stderr, "%s: untraced run %d of %d\n", w.name, r+1, repeat)
			p.trace, p.setupRounds = false, setupRounds
			res, err := runWorkload(w, p)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			for name, v := range res.metrics {
				values[name] = append(values[name], v)
			}
			wr.Clients = res.clients
			wr.Attempted += res.attempted
			wr.Failed += res.failed
			wr.Samples["measured"] += res.samples["measured"]
		}
		for name, v := range values {
			q1, q2, q3 := quartiles(v)
			s := spreadStat{Unit: units[name], Median: q2, Q1: q1, Q3: q3, Bound: bounds[name], Values: v}
			s.IQR = (q3 - q1) / q2
			sorted := append([]float64(nil), v...)
			sort.Float64s(sorted)
			s.Range = (sorted[len(sorted)-1] - sorted[0]) / q2
			s.Within = s.IQR <= s.Bound
			// As for the driver, set-up's spread is reported but does not
			// fail the run: only its median is held to the bound.
			if !s.Within && name != "setup_s" {
				fmt.Fprintf(os.Stderr, "%s: %s spread %.3f exceeds its bound %.3f\n", w.name, name, s.IQR, s.Bound)
				status = 1
			}
			wr.EndToEnd[name] = s
		}
		fmt.Fprintf(os.Stderr, "%s: traced run\n", w.name)
		p.trace, p.setupRounds = true, 1
		res, err := runWorkload(w, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		wr.PerLayer = withUnits(res.metrics)
		wr.Attempted += res.attempted
		wr.Failed += res.failed
		wr.Samples["baseline"], wr.Samples["traced"] = res.samples["baseline"], res.samples["traced"]
		if wr.Failed > 0 {
			status = 1
		}
		out.Workloads[w.name] = wr
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(data))
	return status
}
