package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"xqtp"
	"xqtp/internal/collection"
	"xqtp/internal/server"
)

// request is one kind of HTTP operation of a serve workload, with what the
// oracle says the server must answer.
type request struct {
	class  string // query class, for the per-class layer metrics
	query  string
	limit  int
	weight int
	body   []byte // the POST /query body

	wantRows   int
	wantSum    uint32 // checksum of the NDJSON item lines
	wantStatus string
}

// client is one closed-loop HTTP caller on one keep-alive connection.
type client struct {
	hc  *http.Client
	buf []byte
}

// post issues one POST and reads the whole reply into the client's buffer.
func (c *client) post(url string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf := c.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, nil, err
		}
	}
	c.buf = buf
	return resp.StatusCode, buf, nil
}

// wireItem and wireSummary mirror the server's NDJSON lines.
type wireItem struct {
	URI   string `json:"uri,omitempty"`
	Value string `json:"value"`
}

type wireSummary struct {
	Summary struct {
		Status string `json:"status"`
		Rows   int    `json:"rows"`
	} `json:"summary"`
}

// matches checks a reply against the oracle: the item lines by checksum, the
// summary line by status and row count.
func (r *request) matches(status int, data []byte) bool {
	if status != http.StatusOK || len(data) == 0 || data[len(data)-1] != '\n' {
		return false
	}
	cut := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	if crc32.Checksum(data[:cut], castagnoli) != r.wantSum {
		return false
	}
	var sum wireSummary
	if err := json.Unmarshal(data[cut:], &sum); err != nil {
		return false
	}
	return sum.Summary.Status == r.wantStatus && sum.Summary.Rows == r.wantRows
}

// oracle computes what the server must answer to r: the query compiled with
// rewrites and tree-pattern detection off and evaluated by nested loops over
// a corpus parsed afresh from the same bytes, its items rendered as the
// server's NDJSON lines.
func (r *request) oracle(fresh *xqtp.Corpus) error {
	q, err := xqtp.PrepareWithOptions(r.query, xqtp.StandardEngineOptions)
	if err != nil {
		return err
	}
	seq, err := fresh.Run(q, xqtp.NestedLoop)
	if err != nil {
		return err
	}
	r.wantStatus = "ok"
	if r.limit > 0 && len(seq) > r.limit {
		seq, r.wantStatus = seq[:r.limit], "limit-reached"
	}
	var lines []byte
	for _, it := range seq {
		uri, _ := fresh.URIOf(it)
		line, err := json.Marshal(wireItem{URI: uri, Value: xqtp.SerializeItem(it)})
		if err != nil {
			return err
		}
		lines = append(append(lines, line...), '\n')
	}
	r.wantRows, r.wantSum = len(seq), crc32.Checksum(lines, castagnoli)
	return nil
}

// serveInst is a running serve workload: the real server on a loopback
// listener over one corpus, and the closed-loop clients.
type serveInst struct {
	corpus    *xqtp.Corpus
	srv       *server.Server
	serveDone chan struct{}
	base      string // http://host:port
	transport *http.Transport
	clients   []*client
	reqs      []request
	seq       []int
	dir       string // temporary directory holding the snapshot, "" without one

	sources   []xqtp.CorpusSource // serve_twig's member, whose bytes the corpus aliases
	xmlBytes  int
	snapPath  string
	snapBytes int64
	ingest    time.Duration // LoadCorpus during set-up

	// Traced pass.
	view       *collection.Corpus // the same members through the internal API, for the probes
	plans      *xqtp.PlanCache    // plan cache of the in-process replay
	staged     []*staged          // per request
	before     map[string]float64 // /metrics at the start of the traced window
	latNs      atomic.Int64       // client-side latency of the traced HTTP operations
	respBytes  atomic.Int64
	httpOps    atomic.Int64
	replayPos  int
	serialized int     // bytes rendered by the in-process replay
	skipRatio  float64 // weighted Skipped/Members over the request kinds
	bindings   int
	probed     bool
	openProbe  residentProbe
}

// residentProbe is the outcome of opening the snapshot afresh and running
// the needle query on it.
type residentProbe struct {
	resident, size int64
}

func (s *serveInst) request(i int) *request { return &s.reqs[s.seq[i%len(s.seq)]] }

func (s *serveInst) op(c, i int) (time.Duration, bool) {
	r := s.request(i)
	t0 := time.Now()
	status, data, err := s.clients[c].post(s.base+"/query", r.body)
	lat := time.Since(t0)
	return lat, err == nil && r.matches(status, data)
}

func (s *serveInst) tracedOp(tr *tracer, c, i int) (time.Duration, bool) {
	r := s.request(i)
	tr.nextOp()
	t0 := time.Now()
	tr.begin("server.http", r.class)
	status, data, err := s.clients[c].post(s.base+"/query", r.body)
	tr.end()
	lat := time.Since(t0)
	s.latNs.Add(int64(lat))
	s.respBytes.Add(int64(len(data)))
	s.httpOps.Add(1)
	return lat, err == nil && r.matches(status, data)
}

// startServer registers the corpus with a server configured as xqd configures
// it by default, except that the result cache is off: with it on, every
// repeated query would be answered without touching the engine.
func (s *serveInst) startServer(nClients int) error {
	s.srv = server.New(server.Config{NoResultCache: true})
	s.srv.AddCorpus("main", s.corpus)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.serveDone = make(chan struct{})
	go func() {
		defer close(s.serveDone)
		// Serve returns http.ErrServerClosed once close shuts the server down.
		_ = s.srv.Serve(ln)
	}()
	s.base = "http://" + ln.Addr().String()
	s.transport = &http.Transport{MaxIdleConns: nClients, MaxIdleConnsPerHost: nClients}
	for c := 0; c < nClients; c++ {
		s.clients = append(s.clients, &client{hc: &http.Client{Transport: s.transport}})
	}
	return nil
}

func (s *serveInst) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		// Shutdown reports transport failures only; the listener is gone either way.
		_ = s.srv.Shutdown(ctx)
		cancel()
		<-s.serveDone
		s.transport.CloseIdleConnections()
	}
	if s.view != nil {
		_ = s.view.Close()
	}
	if s.corpus != nil {
		_ = s.corpus.Close()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

// prepareRequests renders the POST bodies, computes the oracle's answers on a
// corpus parsed afresh from copies of the members, and draws the operation
// sequence.
func (s *serveInst) prepareRequests(seed int64, sources []xqtp.CorpusSource) error {
	fresh, err := xqtp.LoadCorpus(cloneSources(sources), runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	defer fresh.Close()
	weights := make([]int, len(s.reqs))
	for k := range s.reqs {
		r := &s.reqs[k]
		body := map[string]any{"query": r.query, "alg": "auto"}
		if r.limit > 0 {
			body["limit"] = r.limit
		}
		if r.body, err = json.Marshal(body); err != nil {
			return err
		}
		if err := r.oracle(fresh); err != nil {
			return fmt.Errorf("oracle for %q: %w", r.query, err)
		}
		weights[k] = r.weight
	}
	s.seq = opSequence(seed, weights, 512)
	return nil
}

// setupServeTwig builds serve_twig: one resident XMark member and a fixed
// mix of twig queries, all of whose plans stay in the plan cache.
func setupServeTwig(e env) (instance, error) {
	s := &serveInst{}
	data := xmarkXML(e.seed, e.sizes.twigPeople)
	s.sources = []xqtp.CorpusSource{{URI: "mem://xmark.xml", Data: data}}
	s.xmlBytes = len(data)
	for _, p := range xqtp.Figure6Queries {
		s.reqs = append(s.reqs,
			request{class: "twig", query: p.Child, weight: 1},
			request{class: "twig", query: p.Descendant, weight: 1})
	}
	s.reqs = append(s.reqs, request{class: "twig", query: xqtp.Fig4Query, weight: 1})
	for _, pq := range xqtp.XMarkQueries {
		switch pq.Name {
		case "XQ2", "XQ4", "XQ13", "XQ17", "XQ19":
			s.reqs = append(s.reqs, request{class: "twig", query: pq.Query, weight: 1})
		}
	}
	if err := s.prepareRequests(e.seed, s.sources); err != nil {
		return nil, err
	}
	t0 := time.Now()
	corpus, err := xqtp.LoadCorpus(s.sources, 1)
	if err != nil {
		return nil, err
	}
	s.ingest = time.Since(t0)
	s.corpus = corpus
	if err := s.startServer(e.clients); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// The query classes of serve_corpus; the names are those of the per-class
// layer metrics.
const (
	needleQuery = `$input//needle/pin`
	memberQuery = `$input//t01[t02]`
	xmarkQuery  = `$input//person[emailaddress]/name`
	// flworQuery compiles to three tree patterns, so that it prepares three
	// joins per admitted member: with 1500 XMark members that is 4500
	// entries against a prepared-join cache of 4096.
	flworQuery      = `for $p in $input/site/people/person where $p/emailaddress return ($p/name, $p/profile/interest)`
	collectionQuery = `fn:collection()//person[emailaddress]/name`
)

// setupServeCorpus builds serve_corpus: a memory-mapped snapshot of many
// small members behind the server, and a weighted mix of fan-out queries.
func setupServeCorpus(e env) (instance, error) {
	s := &serveInst{}
	s.sources = mixedSources(e.seed, e.sizes.corpusMembers, "corpus")
	s.xmlBytes = sourceBytes(s.sources)
	s.reqs = []request{
		{class: "needle", query: needleQuery, weight: 3},
		{class: "fanout_member", query: memberQuery, weight: 3},
		{class: "fanout_xmark", query: xmarkQuery, weight: 1},
		{class: "fanout_xmark", query: xmarkQuery, limit: 50, weight: 1},
		{class: "flwor", query: flworQuery, weight: 1},
		{class: "collection_fn", query: collectionQuery, weight: 1},
	}
	if err := s.prepareRequests(e.seed, s.sources); err != nil {
		return nil, err
	}
	var err error
	if s.dir, err = os.MkdirTemp(e.tmp, "serve_corpus-"); err != nil {
		return nil, err
	}
	s.snapPath = filepath.Join(s.dir, "corpus.snap")
	t0 := time.Now()
	loaded, err := xqtp.LoadCorpus(s.sources, runtime.GOMAXPROCS(0))
	if err != nil {
		s.close()
		return nil, err
	}
	s.ingest = time.Since(t0)
	s.snapBytes, err = saveSnapshot(loaded, s.snapPath)
	_ = loaded.Close()
	s.sources = nil // the snapshot holds the members from here on
	if err != nil {
		s.close()
		return nil, err
	}
	if s.corpus, err = xqtp.OpenCorpusFile(s.snapPath); err != nil {
		s.close()
		return nil, err
	}
	if err := s.startServer(e.clients); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// saveSnapshot writes the corpus snapshot to path and returns its size.
func saveSnapshot(c *xqtp.Corpus, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := c.SaveSnapshot(f); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// scrape reads the server's /metrics page into a map from sample name (with
// its label set, as printed) to value.
func (s *serveInst) scrape() (map[string]float64, error) {
	resp, err := s.clients[0].hc.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if sp := strings.LastIndexByte(line, ' '); sp > 0 {
			if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
				out[line[:sp]] = v
			}
		}
	}
	return out, nil
}

func (s *serveInst) startTrace() error {
	var err error
	s.before, err = s.scrape()
	return err
}

// openView opens the members a second time through the internal collection
// API, which hands out each member's index and root for the probes.
func (s *serveInst) openView() error {
	var err error
	if s.snapPath != "" {
		s.view, err = collection.OpenSnapshotFile(s.snapPath)
		return err
	}
	src := make([]collection.Source, len(s.sources))
	for i, m := range s.sources {
		src[i] = collection.Source{URI: m.URI, Data: bytes.Clone(m.Data)}
	}
	s.view, err = collection.Ingest(src, 1)
	return err
}

// replay runs request r in process, the way the server's handler does after
// decoding it: plan-cache lookup, corpus run with one worker, rendering of
// every item. The three spans sit under one "op" span.
func (s *serveInst) replay(tr *tracer, r *request) (xqtp.RunInfo, error) {
	tr.nextOp()
	tr.begin("op", "")
	defer tr.end()
	tr.begin("plancache.lookup", "")
	q, err := s.plans.Prepare(r.query)
	tr.end()
	if err != nil {
		return xqtp.RunInfo{}, err
	}
	tr.begin("collection.fanout", r.class)
	seq, info, err := s.corpus.RunWith(context.Background(), q, xqtp.Auto,
		xqtp.RunOptions{Workers: 1, MaxRows: int64(r.limit)})
	tr.end()
	if err != nil && !errors.Is(err, xqtp.ErrBudgetExceeded) {
		return info, err
	}
	tr.begin("xmlstore.serialize", "")
	for _, it := range seq {
		s.corpus.URIOf(it)
		s.serialized += len(xqtp.SerializeItem(it))
	}
	tr.end()
	if len(seq) != r.wantRows {
		return info, fmt.Errorf("in-process replay of %q returned %d rows, the oracle %d", r.query, len(seq), r.wantRows)
	}
	return info, nil
}

// probe is one pass of the layer probes of a serve workload.
func (s *serveInst) probe(tr *tracer) error {
	if !s.probed {
		if err := s.firstProbe(tr); err != nil {
			return err
		}
		s.probed = true
	}
	// The in-process replay of the next stretch of the operation sequence.
	for n := 0; n < 64; n++ {
		if _, err := s.replay(tr, s.request(s.replayPos)); err != nil {
			return err
		}
		s.replayPos++
	}
	for k := range s.reqs {
		if err := s.probeRequest(tr, k, false); err != nil {
			return err
		}
	}
	if s.snapPath != "" {
		if err := s.probeSnapshot(tr); err != nil {
			return err
		}
	}
	return nil
}

// firstProbe prepares the traced pass and takes the counts that depend on
// the inputs alone.
func (s *serveInst) firstProbe(tr *tracer) error {
	if err := s.openView(); err != nil {
		return err
	}
	s.plans = xqtp.NewPlanCache(0)
	var skipped, weight float64
	for k := range s.reqs {
		r := &s.reqs[k]
		st, err := compileStages(tr, r.query)
		if err != nil {
			return err
		}
		if err := st.checkAgainstPrepare(); err != nil {
			return err
		}
		s.staged = append(s.staged, st)
		// Fills the replay's plan cache, so that the lookups timed later hit.
		info, err := s.replay(nil, r)
		if err != nil {
			return err
		}
		if info.Members > 0 {
			skipped += float64(r.weight) * float64(info.Skipped) / float64(info.Members)
		}
		weight += float64(r.weight)
		if err := s.probeRequest(tr, k, true); err != nil {
			return err
		}
	}
	s.skipRatio = skipped / weight
	return s.printReplayAllocs()
}

// printReplayAllocs writes to standard error how many bytes one in-process
// replay of the mix allocates in the corpus run and in rendering its items:
// the split of alloc_kb_per_op the end-to-end figure cannot give. The server
// is idle meanwhile, so the process-wide counter belongs to the replay.
func (s *serveInst) printReplayAllocs() error {
	var run, render, weight float64
	rendered := 0
	allocated := func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.TotalAlloc)
	}
	for k := range s.reqs {
		r := &s.reqs[k]
		q, err := s.plans.Prepare(r.query)
		if err != nil {
			return err
		}
		a := allocated()
		seq, _, err := s.corpus.RunWith(context.Background(), q, xqtp.Auto,
			xqtp.RunOptions{Workers: 1, MaxRows: int64(r.limit)})
		if err != nil && !errors.Is(err, xqtp.ErrBudgetExceeded) {
			return err
		}
		b := allocated()
		for _, it := range seq {
			rendered += len(xqtp.SerializeItem(it))
		}
		c := allocated()
		run += float64(r.weight) * (b - a)
		render += float64(r.weight) * (c - b)
		weight += float64(r.weight)
	}
	fmt.Fprintf(os.Stderr, "in-process replay allocates per operation of the mix: corpus run %.1f KB, rendering %.1f KB (of %.1f KB of XML)\n",
		run/weight/1024, render/weight/1024, float64(rendered)/float64(len(s.reqs))/1024)
	return nil
}

// probeRequest times the compile stages of request k's query, its join and
// physical layers on the first admitted members, and the fan-out's own share:
// one in-process corpus run minus the runs of every admitted member alone.
func (s *serveInst) probeRequest(tr *tracer, k int, count bool) error {
	r, st := &s.reqs[k], s.staged[k]
	tr.nextOp()
	if _, err := compileStages(tr, r.query); err != nil {
		return err
	}
	if st.phys.UsesDocAccess() {
		return nil // evaluated once over the whole corpus, not per member
	}
	members := admitted(s.view, st)
	for n, i := range members {
		if n == probeMembers {
			break
		}
		d := s.view.Doc(i)
		if err := d.Ensure(); err != nil {
			return err
		}
		b, err := probeQuery(tr, st, s.view.Catalog(), d.Index, d.Root())
		if err != nil {
			return err
		}
		if count {
			s.bindings += b
		}
	}
	if r.limit > 0 || len(members) < 2 {
		return nil
	}
	q, err := s.plans.Prepare(r.query)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, _, err := s.corpus.RunWith(context.Background(), q, xqtp.Auto, xqtp.RunOptions{Workers: 1}); err != nil {
		return err
	}
	fanout := time.Since(t0)
	var alone time.Duration
	for _, i := range members {
		d := s.corpus.DocumentAt(i)
		t0 := time.Now()
		if _, err := q.Run(d, xqtp.Auto); err != nil {
			return err
		}
		alone += time.Since(t0)
	}
	if fanout > alone {
		tr.add("collection.merge_self", r.class, fanout-alone)
	}
	return nil
}

// probeSnapshot opens the snapshot afresh, loads its first members one by
// one, and measures how much of the mapping a needle query leaves resident.
func (s *serveInst) probeSnapshot(tr *tracer) error {
	tr.nextOp()
	tr.begin("xmlstore.open", "")
	c, err := collection.OpenSnapshotFile(s.snapPath)
	tr.end()
	if err != nil {
		return err
	}
	for i := 0; i < c.Len() && i < 64; i++ {
		tr.begin("xmlstore.member_load", "")
		err := c.Doc(i).Ensure()
		tr.end()
		if err != nil {
			c.Close()
			return err
		}
	}
	if err := c.Close(); err != nil {
		return err
	}
	// A cold mapping after one needle query: how much of the file it touched.
	cold, err := xqtp.OpenCorpusFile(s.snapPath)
	if err != nil {
		return err
	}
	defer cold.Close()
	q, err := s.plans.Prepare(needleQuery)
	if err != nil {
		return err
	}
	if _, err := cold.Run(q, xqtp.Auto); err != nil {
		return err
	}
	s.openProbe.resident, _ = cold.SnapshotResident()
	s.openProbe.size = s.snapBytes
	return nil
}

func (s *serveInst) finish(f *finishArgs) error {
	after, err := s.scrape()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - s.before[name] }
	m := f.metrics
	ops := float64(s.httpOps.Load())
	if lat := float64(s.latNs.Load()) / 1e9; lat > 0 {
		m["server.handler_time_ratio"] = delta("xqd_request_seconds_sum") / lat
	}
	var requests float64
	for name := range after {
		if strings.HasPrefix(name, "xqd_requests_total{") {
			requests += delta(name)
		}
	}
	if requests > 0 {
		m["server.shed_ratio"] = delta(`xqd_requests_total{outcome="shed"}`) / requests
	}
	if ops > 0 {
		m["server.response_bytes_per_op"] = float64(s.respBytes.Load()) / ops
	}
	m["server.op_p99_ms"] = f.base.raw.p99Ms
	m["server.overhead_us"] = f.base.raw.p50Ms*1e3 - median(f.spans.opDur)
	if n := delta("xqd_plan_cache_hits_total") + delta("xqd_plan_cache_misses_total"); n > 0 {
		m["plancache.hit_ratio"] = delta("xqd_plan_cache_hits_total") / n
	}
	if n := delta("xqd_prep_cache_hits_total") + delta("xqd_prep_cache_misses_total"); n > 0 {
		m["exec.prepcache_hit_ratio"] = delta("xqd_prep_cache_hits_total") / n
	}
	m["exec.prepcache_evictions"] = delta("xqd_prep_cache_evictions_total")
	m["collection.skipped_ratio"] = s.skipRatio
	m["collection.ingest_mb_per_s"] = float64(s.xmlBytes) / 1e6 / s.ingest.Seconds()
	m["join.kernel_bindings"] = float64(s.bindings)
	if t := f.spans.total["xmlstore.serialize"]; t > 0 {
		m["xmlstore.serialize_mb_per_s"] = float64(s.serialized) / t
	}
	if s.snapPath != "" {
		m["xmlstore.snapshot_bytes_per_xml_byte"] = float64(s.snapBytes) / float64(s.xmlBytes)
		if s.openProbe.size > 0 {
			m["xmlstore.resident_ratio"] = float64(s.openProbe.resident) / float64(s.openProbe.size)
		}
	}
	addStagedCounts(m, s.staged)
	return nil
}
