package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer. Spans are recorded in memory by the
// benchmark itself, around the exported function of the layer; nothing
// inside the engine is instrumented.
type span struct {
	name   string // layer.stage, the base of the metric name
	tag    string // query class, where a layer metric is reported per class
	op     int32  // the operation this span belongs to
	parent int32  // index of the enclosing span, -1 at the top
	start  int64  // ns since the tracer's epoch
	end    int64
}

// tracer collects the spans of one goroutine. Every client of a traced pass
// owns one, so recording takes no lock; aggregate joins them afterwards. A nil
// tracer records nothing, so one piece of code serves both passes.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32 // stack of open span indexes
	op    int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// nextOp starts a new operation: the spans begun until the next call share
// its identifier.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

func (t *tracer) begin(name, tag string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{name: name, tag: tag, op: t.op, parent: parent,
		start: int64(time.Since(t.epoch))})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].end = int64(time.Since(t.epoch))
	t.open = t.open[:n]
}

// add records an already measured duration as a top-level span (used for
// derived quantities such as a run's time minus its kernels).
func (t *tracer) add(name, tag string, d time.Duration) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.spans = append(t.spans, span{name: name, tag: tag, op: t.op, parent: -1,
		start: now - int64(d), end: now})
}

// spanStats are the per-name aggregates the layer metrics are read from.
type spanStats struct {
	self  map[string][]float64 // self time in µs, per span name
	byTag map[string][]float64 // total time in µs, per "name/tag"
	total map[string]float64   // summed total time in µs, per span name
	// opSum is, per operation that has an "op" root span, the summed self
	// time of the spans below the root: the part of the operation the
	// stages account for.
	opSum []float64
	opDur []float64          // duration of each "op" root span, µs
	inOp  map[string]float64 // summed self time in µs of the spans below "op" roots, per span name
}

// aggregate computes self times (a span's duration minus the part covered by
// its children) and groups them by name.
func aggregate(tracers []*tracer) *spanStats {
	st := &spanStats{
		self:  map[string][]float64{},
		byTag: map[string][]float64{},
		total: map[string]float64{},
		inOp:  map[string]float64{},
	}
	for _, t := range tracers {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		// root resolves each span to its top-level ancestor; parents always
		// precede their children in t.spans.
		root := make([]int32, len(t.spans))
		below := map[int32]int64{}
		for i, s := range t.spans {
			if s.parent < 0 {
				root[i] = int32(i)
			} else {
				root[i] = root[s.parent]
			}
			dur := s.end - s.start
			self := dur - child[i]
			if s.name == "op" {
				continue
			}
			st.self[s.name] = append(st.self[s.name], float64(self)/1e3)
			st.total[s.name] += float64(dur) / 1e3
			if s.tag != "" {
				k := s.name + "/" + s.tag
				st.byTag[k] = append(st.byTag[k], float64(dur)/1e3)
			}
			if r := root[i]; t.spans[r].name == "op" {
				below[r] += self
				st.inOp[s.name] += float64(self) / 1e3
			}
		}
		for i, s := range t.spans {
			if s.name == "op" && s.parent < 0 {
				st.opSum = append(st.opSum, float64(below[int32(i)])/1e3)
				st.opDur = append(st.opDur, float64(s.end-s.start)/1e3)
			}
		}
	}
	return st
}

// medianSelf returns the median self time of the named span in µs, 0 when
// the span was never recorded (the layer does no work on this workload).
func (st *spanStats) medianSelf(name string) float64 { return median(st.self[name]) }

func (st *spanStats) medianTag(name, tag string) float64 { return median(st.byTag[name+"/"+tag]) }

// median returns the middle value of v (the upper one of an even count),
// 0 for an empty slice. It sorts a copy.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the nearest-rank q-quantile of v, 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
