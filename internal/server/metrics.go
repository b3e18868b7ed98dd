package server

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// Outcome labels one finished (or refused) request for the counters. The
// set is closed so the metrics page enumerates every label with a stable
// order and zero allocation on the hot path.
type outcome int

const (
	outOK         outcome = iota // streamed to completion
	outLimit                     // stopped by the row/byte budget (limit-reached)
	outTimeout                   // stopped by the request deadline
	outCanceled                  // client went away or the server drained
	outBadRequest                // malformed body, unknown algorithm, compile error
	outNotFound                  // unknown corpus name
	outTooLarge                  // request body over the size cap
	outShed                      // refused by admission control (429)
	outMethod                    // wrong HTTP method
	outError                     // evaluation error after admission
	outcomeCount
)

var outcomeNames = [outcomeCount]string{
	"ok", "limit_reached", "timeout", "canceled", "bad_request",
	"not_found", "body_too_large", "shed", "bad_method", "error",
}

// latencyBuckets are the histogram upper bounds in seconds, exponential from
// 1ms to 30s — wide enough for a shed (microseconds) and a drain-deadline
// stop (tens of seconds) to land in distinct buckets.
var latencyBuckets = [...]float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// metrics is the server's lock-free counter set: fixed-label counters, one
// latency histogram over completed query requests, and delivery totals.
// Everything is atomics, so the hot path never contends and /metrics reads a
// consistent-enough snapshot without stopping traffic.
type metrics struct {
	started  time.Time
	requests [outcomeCount]atomic.Uint64

	// latency histogram: counts per bucket (cumulative rendering happens at
	// scrape time), plus sum and count for the average.
	buckets    [len(latencyBuckets) + 1]atomic.Uint64 // last = +Inf
	latencySum atomic.Int64                           // nanoseconds
	latencyCnt atomic.Uint64

	rows  atomic.Int64 // result rows delivered across all requests
	bytes atomic.Int64 // estimated result bytes delivered (budget metric)

	cacheServed atomic.Uint64 // requests answered from the result cache

	// Write-path counters, bumped per buffer flush, never per item:
	// writes/response from outside is responseWrites over request count.
	responseWrites  atomic.Uint64 // ResponseWriter.Write calls by query responses
	responseFlushes atomic.Uint64 // mid-stream Flusher.Flush calls (size or age trigger)
}

func newMetrics() *metrics { return &metrics{started: time.Now()} }

// record counts one finished query request.
func (m *metrics) record(out outcome, d time.Duration, rows, bytes int64) {
	m.requests[out].Add(1)
	m.observe(d)
	if rows > 0 {
		m.rows.Add(rows)
	}
	if bytes > 0 {
		m.bytes.Add(bytes)
	}
}

// refuse counts a request that never reached evaluation (shed, validation
// failure, wrong method). Refusals are counted but not observed by the
// latency histogram: its quantiles describe served queries, and a flood of
// microsecond 429s would otherwise drag p50 to the floor while the server is
// at its slowest.
func (m *metrics) refuse(out outcome) { m.requests[out].Add(1) }

func (m *metrics) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for ; i < len(latencyBuckets); i++ {
		if s <= latencyBuckets[i] {
			break
		}
	}
	m.buckets[i].Add(1)
	m.latencySum.Add(int64(d))
	m.latencyCnt.Add(1)
}

// quantile estimates the q-quantile (0 < q < 1) from the histogram, linearly
// interpolated inside the winning bucket — the same estimate Prometheus's
// histogram_quantile computes server-side. Returns NaN with no samples.
func (m *metrics) quantile(q float64) float64 {
	total := m.latencyCnt.Load()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var seen float64
	for i := range m.buckets {
		n := float64(m.buckets[i].Load())
		if seen+n >= rank && n > 0 {
			lo := 0.0
			if i > 0 {
				lo = latencyBuckets[i-1]
			}
			hi := lo * 2
			if i < len(latencyBuckets) {
				hi = latencyBuckets[i]
			}
			return lo + (hi-lo)*((rank-seen)/n)
		}
		seen += n
	}
	return latencyBuckets[len(latencyBuckets)-1]
}

// writeProm renders the counters in the Prometheus text exposition format
// (version 0.0.4): HELP/TYPE headers, cumulative histogram buckets, and the
// precomputed quantile gauges for dashboards without a PromQL evaluator.
func (m *metrics) writeProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP xqd_requests_total Query requests by outcome.\n")
	fmt.Fprintf(w, "# TYPE xqd_requests_total counter\n")
	for i := outcome(0); i < outcomeCount; i++ {
		fmt.Fprintf(w, "xqd_requests_total{outcome=%q} %d\n", outcomeNames[i], m.requests[i].Load())
	}

	fmt.Fprintf(w, "# HELP xqd_request_seconds Latency of served query requests.\n")
	fmt.Fprintf(w, "# TYPE xqd_request_seconds histogram\n")
	var cum uint64
	for i, le := range latencyBuckets {
		cum += m.buckets[i].Load()
		fmt.Fprintf(w, "xqd_request_seconds_bucket{le=%q} %d\n", formatFloat(le), cum)
	}
	cum += m.buckets[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "xqd_request_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "xqd_request_seconds_sum %s\n", formatFloat(time.Duration(m.latencySum.Load()).Seconds()))
	fmt.Fprintf(w, "xqd_request_seconds_count %d\n", m.latencyCnt.Load())

	fmt.Fprintf(w, "# HELP xqd_request_seconds_quantile Latency quantiles estimated from the histogram.\n")
	fmt.Fprintf(w, "# TYPE xqd_request_seconds_quantile gauge\n")
	for _, q := range []float64{0.5, 0.95, 0.99} {
		v := m.quantile(q)
		if math.IsNaN(v) {
			v = 0
		}
		fmt.Fprintf(w, "xqd_request_seconds_quantile{q=%q} %s\n", formatFloat(q), formatFloat(v))
	}

	fmt.Fprintf(w, "# HELP xqd_rows_total Result rows delivered to clients.\n")
	fmt.Fprintf(w, "# TYPE xqd_rows_total counter\n")
	fmt.Fprintf(w, "xqd_rows_total %d\n", m.rows.Load())
	fmt.Fprintf(w, "# HELP xqd_result_bytes_total Estimated result bytes delivered (the byte-budget metric).\n")
	fmt.Fprintf(w, "# TYPE xqd_result_bytes_total counter\n")
	fmt.Fprintf(w, "xqd_result_bytes_total %d\n", m.bytes.Load())
	fmt.Fprintf(w, "# HELP xqd_result_cache_served_total Requests answered from the result cache.\n")
	fmt.Fprintf(w, "# TYPE xqd_result_cache_served_total counter\n")
	fmt.Fprintf(w, "xqd_result_cache_served_total %d\n", m.cacheServed.Load())
	fmt.Fprintf(w, "# HELP xqd_response_writes_total Write calls query responses made on their connection.\n")
	fmt.Fprintf(w, "# TYPE xqd_response_writes_total counter\n")
	fmt.Fprintf(w, "xqd_response_writes_total %d\n", m.responseWrites.Load())
	fmt.Fprintf(w, "# HELP xqd_response_flushes_total Mid-stream flushes of a response buffer (size or age trigger).\n")
	fmt.Fprintf(w, "# TYPE xqd_response_flushes_total counter\n")
	fmt.Fprintf(w, "xqd_response_flushes_total %d\n", m.responseFlushes.Load())
	fmt.Fprintf(w, "# HELP xqd_uptime_seconds Seconds since the server started.\n")
	fmt.Fprintf(w, "# TYPE xqd_uptime_seconds gauge\n")
	fmt.Fprintf(w, "xqd_uptime_seconds %s\n", formatFloat(time.Since(m.started).Seconds()))
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation, no exponent for the magnitudes we emit.
func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
