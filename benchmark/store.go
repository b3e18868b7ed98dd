package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"xqtp"
	"xqtp/internal/collection"
	"xqtp/internal/xmlstore"
)

// batch is one pre-generated set of members of store_cycle with the oracle's
// answers to the two queries of a cycle.
type batch struct {
	sources    []xqtp.CorpusSource
	xmlBytes   int
	wantNeedle expect
	wantFanout expect
}

// storeInst is store_cycle: each operation takes one batch through the whole
// life of a corpus — ingest, snapshot write, close, cold open of the written
// file, a needle query, a fan-out query, close and unlink.
type storeInst struct {
	batches []batch
	needle  *xqtp.Query
	fanout  *xqtp.Query
	workers int
	dir     string

	// Traced pass.
	plans     *xqtp.PlanCache
	staged    []*staged
	bindings  int
	probed    bool
	snapBytes int64 // snapshot size of batch 0
	ingested  int   // bytes through xmlstore.Ingest in the probes
	loaded    int   // bytes through LoadCorpus in traced operations
	written   int64 // bytes through SaveSnapshot in traced operations
	openProbe residentProbe
	skipRatio float64 // Skipped/Members of the two queries, averaged
}

func (s *storeInst) path(c, i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("cycle-%d-%d.snap", c, i))
}

func (s *storeInst) op(c, i int) (time.Duration, bool) {
	t0 := time.Now()
	ok := s.cycle(nil, c, i)
	return time.Since(t0), ok
}

func (s *storeInst) tracedOp(tr *tracer, c, i int) (time.Duration, bool) {
	tr.nextOp()
	t0 := time.Now()
	tr.begin("op", "")
	ok := s.cycle(tr, c, i)
	tr.end()
	return time.Since(t0), ok
}

// cycle runs one corpus lifecycle, with one span around each call into the
// store; tr is nil in the untraced pass.
func (s *storeInst) cycle(tr *tracer, c, i int) bool {
	b := &s.batches[i%len(s.batches)]
	path := s.path(c, i)

	tr.begin("collection.ingest", "")
	loaded, err := xqtp.LoadCorpus(b.sources, s.workers)
	tr.end()
	if err != nil {
		return false
	}
	tr.begin("xmlstore.snapshot_write", "")
	size, err := saveSnapshot(loaded, path)
	_ = loaded.Close()
	tr.end()
	if err != nil {
		return false
	}
	defer os.Remove(path)
	if tr != nil {
		s.loaded += b.xmlBytes
		s.written += size
	}

	tr.begin("xmlstore.open", "")
	corpus, err := xqtp.OpenCorpusFile(path)
	tr.end()
	if err != nil {
		return false
	}
	tr.begin("collection.fanout", "needle")
	got, err := corpus.Run(s.needle, xqtp.Auto)
	tr.end()
	ok := err == nil && itemsSum(got) == b.wantNeedle
	tr.begin("collection.fanout", "fanout_xmark")
	got, err = corpus.RunParallel(s.fanout, xqtp.Auto, s.workers)
	tr.end()
	ok = ok && err == nil && itemsSum(got) == b.wantFanout
	tr.begin("xmlstore.close", "")
	err = corpus.Close()
	tr.end()
	return ok && err == nil
}

func (s *storeInst) startTrace() error { return nil }

// probe times, on batch 0: the scanner alone on every member, a deferred
// member load, how much of a cold mapping the needle query touches, and the
// join and physical layers of the two queries on the first admitted members.
func (s *storeInst) probe(tr *tracer) error {
	b := &s.batches[0]
	if !s.probed {
		s.plans = xqtp.NewPlanCache(0)
		for _, text := range []string{needleQuery, xmarkQuery} {
			st, err := compileStages(tr, text)
			if err != nil {
				return err
			}
			if err := st.checkAgainstPrepare(); err != nil {
				return err
			}
			s.staged = append(s.staged, st)
		}
	}
	tr.nextOp()
	for _, m := range b.sources {
		data := bytes.Clone(m.Data)
		tr.begin("xmlstore.ingest", "")
		_, err := xmlstore.Ingest(data)
		tr.end()
		if err != nil {
			return err
		}
		s.ingested += len(data)
	}

	path := filepath.Join(s.dir, "probe.snap")
	loaded, err := xqtp.LoadCorpus(b.sources, s.workers)
	if err != nil {
		return err
	}
	s.snapBytes, err = saveSnapshot(loaded, path)
	_ = loaded.Close()
	if err != nil {
		return err
	}
	defer os.Remove(path)

	view, err := collection.OpenSnapshotFile(path)
	if err != nil {
		return err
	}
	defer view.Close()
	for i := 0; i < view.Len(); i++ {
		tr.begin("xmlstore.member_load", "")
		err := view.Doc(i).Ensure()
		tr.end()
		if err != nil {
			return err
		}
	}
	for _, st := range s.staged {
		if _, err := compileStages(tr, st.text); err != nil {
			return err
		}
		for n, i := range admitted(view, st) {
			if n == probeMembers {
				break
			}
			d := view.Doc(i)
			bd, err := probeQuery(tr, st, view.Catalog(), d.Index, d.Root())
			if err != nil {
				return err
			}
			if !s.probed {
				s.bindings += bd
			}
		}
	}
	s.probed = true
	return s.coldQueries(path)
}

// coldQueries opens the written snapshot afresh and runs the two queries of a
// cycle on it, for how much of the mapping the needle query leaves resident
// and how many members the skip test spares each query.
func (s *storeInst) coldQueries(path string) error {
	c, err := xqtp.OpenCorpusFile(path)
	if err != nil {
		return err
	}
	defer c.Close()
	s.skipRatio = 0
	for k, st := range s.staged {
		q, err := s.plans.Prepare(st.text)
		if err != nil {
			return err
		}
		_, stats, err := c.RunParallelStats(q, xqtp.Auto, 1)
		if err != nil {
			return err
		}
		s.skipRatio += ratio(float64(stats.Skipped), float64(stats.Members)) / float64(len(s.staged))
		if k == 0 {
			// The needle query runs first, on the cold mapping.
			s.openProbe.resident, _ = c.SnapshotResident()
			s.openProbe.size = s.snapBytes
		}
	}
	return nil
}

func (s *storeInst) finish(f *finishArgs) error {
	m := f.metrics
	b := &s.batches[0]
	m["xmlstore.snapshot_bytes_per_xml_byte"] = float64(s.snapBytes) / float64(b.xmlBytes)
	if t := f.spans.total["xmlstore.ingest"]; t > 0 {
		m["xmlstore.ingest_mb_per_s"] = float64(s.ingested) / t
	}
	if t := f.spans.total["collection.ingest"]; t > 0 {
		m["collection.ingest_mb_per_s"] = float64(s.loaded) / t
	}
	if t := f.spans.total["xmlstore.snapshot_write"]; t > 0 {
		m["xmlstore.snapshot_write_mb_per_s"] = float64(s.written) / t
	}
	if s.openProbe.size > 0 {
		m["xmlstore.resident_ratio"] = float64(s.openProbe.resident) / float64(s.openProbe.size)
	}
	m["collection.skipped_ratio"] = s.skipRatio
	m["join.kernel_bindings"] = float64(s.bindings)
	ps, pf := s.needle.PrepStats(), s.fanout.PrepStats()
	if n := ps.Hits + ps.Misses + pf.Hits + pf.Misses; n > 0 {
		m["exec.prepcache_hit_ratio"] = float64(ps.Hits+pf.Hits) / float64(n)
	}
	m["exec.prepcache_evictions"] = float64(ps.Evictions + pf.Evictions)
	addStagedCounts(m, s.staged)
	return nil
}

func (s *storeInst) close() { _ = os.RemoveAll(s.dir) }

func setupStoreCycle(e env) (instance, error) {
	s := &storeInst{workers: runtime.GOMAXPROCS(0)}
	var err error
	if s.needle, err = xqtp.Prepare(needleQuery); err != nil {
		return nil, err
	}
	if s.fanout, err = xqtp.Prepare(xmarkQuery); err != nil {
		return nil, err
	}
	stdNeedle, err := xqtp.PrepareWithOptions(needleQuery, xqtp.StandardEngineOptions)
	if err != nil {
		return nil, err
	}
	stdFanout, err := xqtp.PrepareWithOptions(xmarkQuery, xqtp.StandardEngineOptions)
	if err != nil {
		return nil, err
	}
	for k := 0; k < e.sizes.cycleBatches; k++ {
		src := mixedSources(e.seed+int64(k)*100003, e.sizes.cycleMembers, fmt.Sprintf("batch%d", k))
		b := batch{sources: src, xmlBytes: sourceBytes(src)}
		fresh, err := xqtp.LoadCorpus(cloneSources(src), s.workers)
		if err != nil {
			return nil, err
		}
		got, err := fresh.Run(stdNeedle, xqtp.NestedLoop)
		if err != nil {
			return nil, err
		}
		b.wantNeedle = itemsSum(got)
		if got, err = fresh.Run(stdFanout, xqtp.NestedLoop); err != nil {
			return nil, err
		}
		b.wantFanout = itemsSum(got)
		_ = fresh.Close()
		s.batches = append(s.batches, b)
	}
	if s.dir, err = os.MkdirTemp(e.tmp, "store_cycle-"); err != nil {
		return nil, err
	}
	return s, nil
}
