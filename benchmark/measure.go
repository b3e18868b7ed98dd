package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opFunc runs operation i of the seeded sequence on behalf of client c. It
// returns how long the operation took, which leaves out the time spent
// checking its output, and whether the output matched the oracle.
type opFunc func(c, i int) (time.Duration, bool)

// The machine under the benchmark changes speed: on the two-core sandbox the
// same single-threaded operation took between 54 and 116 µs over a quarter of
// an hour, its CPU time moving with its latency. A calibrator therefore runs
// a fixed piece of work, a burst, every burstEvery between the operations of
// client 0, and every timing figure of a slice is scaled by how fast the
// bursts of that slice ran: it is reported as it would read on a machine on
// which a burst takes referenceBurst. Counts of bytes are not scaled.
const (
	referenceBurst = 220 * time.Microsecond
	burstEvery     = 25 * time.Millisecond
	burstNodes     = 3000
)

type calNode struct {
	next *calNode
	key  int
	pad  [4]int // brings a node to the size of a small tree node
}

// calibrator holds the memory a burst works on; a burst allocates nothing, so
// that it moves neither the allocation figures nor the collector.
type calibrator struct {
	nodes []calNode
	index map[int]*calNode
	keys  []int
	sink  int
}

func newCalibrator() *calibrator {
	return &calibrator{
		nodes: make([]calNode, burstNodes),
		index: make(map[int]*calNode, burstNodes/4),
		keys:  make([]int, 0, burstNodes),
	}
}

// burst links the nodes into a list under pseudo-random keys, indexes a
// quarter of them in a map, sorts the keys and walks the list: pointer
// chasing, hashing and comparing, as the engine does, and returns how long
// that took.
func (c *calibrator) burst() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var head *calNode
	clear(c.index)
	c.keys = c.keys[:0]
	for i := range c.nodes {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := &c.nodes[i]
		n.next, n.key = head, int(x%100000)
		head = n
		if i%4 == 0 {
			c.index[n.key] = n
		}
		c.keys = append(c.keys, n.key)
	}
	sort.Ints(c.keys)
	sum := 0
	for n := head; n != nil; n = n.next {
		sum += n.key
	}
	c.sink += sum + c.keys[7] + len(c.index)
	return time.Since(t0)
}

// speed is the machine's speed over the given bursts relative to the
// reference machine; 1 when there are none.
func speed(bursts []float64) float64 {
	if len(bursts) == 0 {
		return 1
	}
	return float64(referenceBurst) / median(bursts)
}

// speedNow measures the machine's speed with a few bursts on the spot.
func (c *calibrator) speedNow() float64 {
	var bursts []float64
	for i := 0; i < 7; i++ {
		bursts = append(bursts, float64(c.burst()))
	}
	return speed(bursts)
}

// mark is the process counters at one slice boundary of a window.
type mark struct {
	at         time.Duration // since the window's start
	totalAlloc uint64
	mallocs    uint64
	numGC      uint32
	pauseNs    uint64
	cpu        time.Duration // user + system
}

func readMark(start time.Time) mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return mark{
		at:         time.Since(start),
		totalAlloc: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		numGC:      ms.NumGC,
		pauseNs:    ms.PauseTotalNs,
		cpu:        cpu,
	}
}

// sample is one completed operation, or one calibration burst.
type sample struct {
	end time.Duration // completion time since the window's start
	lat time.Duration
	ok  bool
}

// window is one closed-loop measuring window: every client issues its next
// operation only after the previous one returned.
type window struct {
	samples [][]sample // per client
	bursts  []sample   // calibration bursts, run by client 0
	marks   []mark     // slices+1 boundaries
}

// runWindow drives op from clients goroutines for d, cut into slices equal
// parts. next hands out positions of the seeded operation sequence, shared by
// the clients and continued across windows. An operation that completes after
// the window's end is dropped. The window goes on past d until minOps
// operations have completed: the warm-up's way of saying "and every cache has
// seen its working set".
func runWindow(op opFunc, cal *calibrator, clients int, d time.Duration, slices int, next *atomic.Int64, minOps int64) *window {
	w := &window{samples: make([][]sample, clients), marks: make([]mark, 0, slices+1)}
	start := time.Now()
	w.marks = append(w.marks, readMark(start))
	var done atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []sample
			var lastBurst time.Duration
			for {
				if at := time.Since(start); c == 0 && at-lastBurst >= burstEvery {
					b := cal.burst()
					lastBurst = time.Since(start)
					w.bursts = append(w.bursts, sample{end: lastBurst, lat: b})
				}
				i := int(next.Add(1) - 1)
				lat, ok := op(c, i)
				end := time.Since(start)
				if end > d && done.Load() >= minOps {
					break
				}
				done.Add(1)
				local = append(local, sample{end: end, lat: lat, ok: ok})
			}
			w.samples[c] = local
		}(c)
	}
	for k := 1; k <= slices; k++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(k) / time.Duration(slices))))
		w.marks = append(w.marks, readMark(start))
	}
	wg.Wait()
	return w
}

// windowResult holds the figures of a window. Every figure is the median over
// the window's slices, so one disturbed slice does not move it. The timing
// figures come raw, as the clock read them, and scaled to the reference
// machine's speed slice by slice.
type windowResult struct {
	raw, scaled       timings
	speed             float64 // the machine's speed relative to the reference machine
	allocKBPerOp      float64
	mallocsPerOp      float64
	gcCycles          float64 // whole window
	gcPauseMs         float64 // whole window
	attempted, failed int
}

type timings struct {
	p50Ms, p95Ms, p99Ms float64
	opsPerS             float64 // correct operations per second
	cpuMsPerOp          float64
}

// bySlice distributes samples, which are in order of completion, over the n
// slices the marks delimit.
func (w *window) bySlice(samples []sample, n int, visit func(k int, s sample)) {
	k := 0
	for _, s := range samples {
		for k < n-1 && s.end > w.marks[k+1].at {
			k++
		}
		visit(k, s)
	}
}

func (w *window) result() windowResult {
	n := len(w.marks) - 1
	lats, bursts := make([][]float64, n), make([][]float64, n)
	good := make([]int, n)
	var r windowResult
	for _, cs := range w.samples {
		w.bySlice(cs, n, func(k int, s sample) {
			lats[k] = append(lats[k], float64(s.lat)/1e6)
			r.attempted++
			if s.ok {
				good[k]++
			} else {
				r.failed++
			}
		})
	}
	var all []float64
	w.bySlice(w.bursts, n, func(k int, s sample) {
		bursts[k] = append(bursts[k], float64(s.lat))
		all = append(all, float64(s.lat))
	})
	r.speed = speed(all)

	var raw, scaled struct{ p50, p95, p99, ops, cpu []float64 }
	var alloc, mallocs []float64
	for k := 0; k < n; k++ {
		a, b := w.marks[k], w.marks[k+1]
		cnt := float64(len(lats[k]))
		if cnt == 0 {
			continue
		}
		sp := r.speed
		if len(bursts[k]) > 0 {
			sp = speed(bursts[k])
		}
		p50, p95, p99 := quantile(lats[k], 0.50), quantile(lats[k], 0.95), quantile(lats[k], 0.99)
		ops := float64(good[k]) / (b.at - a.at).Seconds()
		cpu := float64(b.cpu-a.cpu) / 1e6 / cnt
		raw.p50, scaled.p50 = append(raw.p50, p50), append(scaled.p50, p50*sp)
		raw.p95, scaled.p95 = append(raw.p95, p95), append(scaled.p95, p95*sp)
		raw.p99, scaled.p99 = append(raw.p99, p99), append(scaled.p99, p99*sp)
		raw.ops, scaled.ops = append(raw.ops, ops), append(scaled.ops, ops/sp)
		raw.cpu, scaled.cpu = append(raw.cpu, cpu), append(scaled.cpu, cpu*sp)
		alloc = append(alloc, float64(b.totalAlloc-a.totalAlloc)/1024/cnt)
		mallocs = append(mallocs, float64(b.mallocs-a.mallocs)/cnt)
	}
	r.raw = timings{median(raw.p50), median(raw.p95), median(raw.p99), median(raw.ops), median(raw.cpu)}
	r.scaled = timings{median(scaled.p50), median(scaled.p95), median(scaled.p99), median(scaled.ops), median(scaled.cpu)}
	r.allocKBPerOp, r.mallocsPerOp = median(alloc), median(mallocs)
	first, last := w.marks[0], w.marks[n]
	r.gcCycles = float64(last.numGC - first.numGC)
	r.gcPauseMs = float64(last.pauseNs-first.pauseNs) / 1e6
	return r
}

// heapLiveMB is the live heap after a forced collection. Two cycles, so that
// sync.Pool victims from the window are gone as well.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
