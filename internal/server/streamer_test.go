package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"xqtp"
	"xqtp/internal/execctx"
	"xqtp/internal/gen"
	"xqtp/internal/xmlstore"
)

// The streamer takes result nodes as ranks: DeliverNodes builds none for it.
var _ execctx.RankSink = (*streamer)(nil)

// nastyStrings covers every escape class of xmlstore.AppendJSONString, the
// escaper of the URIs and atomic values: the JSON
// specials, the HTML-unsafe three, the control characters with and without a
// short form, U+2028/9, multi-byte runes, and invalid UTF-8 in each position.
var nastyStrings = []string{
	"", "plain", `say "hi"`, `back\slash`, `<a href="x">T&C</a>`,
	"tab\there", "line\nfeed", "cr\rhere", "bell\x07", "\b\f", "\x00\x1f\x7f",
	"sep\u2028para\u2029end", "\u2027\u202a", "naïve café — ☕ 日本語 🎉",
	"\xff", "a\xc3", "\xe2\x80", "ok\xf0\x9f\x8e", "\xed\xa0\x80", "\xc0\xaf",
	strings.Repeat(`<&>"\`, 50),
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range nastyStrings {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := xmlstore.AppendJSONString([]byte("x"), s); !bytes.Equal(got[1:], want) {
			t.Errorf("string %q: got %s, want %s", s, got[1:], want)
		}
	}
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range nastyStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Skip()
		}
		if got := xmlstore.AppendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%q: got %s, want %s", s, got, want)
		}
	})
}

// nastyDocs exercise the escapes end to end: what the XML serializer emits
// for these (entities, numeric attribute escapes, raw non-ASCII) is what the
// JSON encoder then has to escape.
var nastyDocs = []string{
	`<r><p id="a&quot;b" note="t&#x9;n&#xA;x">say "hi" \ back</p><p>T&amp;C &lt;b&gt; done</p></r>`,
	"<r><p lang='日本'>naïve café — ☕ 🎉</p><p>sep\u2028para\u2029end</p><p/></r>",
	`<r><p>plain</p><q><p k="'">it's</p></q></r>`,
	`<r><p>a&#13;b&#9;c</p><p k="x&#13;y">z</p></r>`,
	// A UTF-8 sequence cut by a CDATA section and by a comment: the XML
	// holds U+2028 whole, which the JSON string escapes.
	"<r><p>a\xe2\x80<![CDATA[\xa8]]>b</p><p>\xe2<!-- c -->\x80\xa9</p></r>",
	// Non-ASCII element and attribute names: the one member whose names the
	// JSON renderer escapes instead of copying. JSON escapes U+2028 in a
	// name; the others go as they are.
	"<r><p naïve=\"ü\"><café thé=\"x\">crème<x\u2028/></café></p></r>",
}

// referenceBody renders seq the way a per-item streamer would: json.Marshal
// of a wireItem per line for ndjson, a strings.Builder <item> line for xml,
// with carriage returns (and, in attributes, tabs and newlines) escaped so an
// XML parser reads them back.
func referenceBody(t *testing.T, c *xqtp.Corpus, seq xqtp.Sequence, format string) string {
	t.Helper()
	xmlEscape := func(b *strings.Builder, s string, attr bool) {
		for _, r := range s {
			switch {
			case r == '&':
				b.WriteString("&amp;")
			case r == '<':
				b.WriteString("&lt;")
			case r == '>':
				b.WriteString("&gt;")
			case r == '"':
				b.WriteString("&quot;")
			case r == '\'':
				b.WriteString("&apos;")
			case r == '\r':
				b.WriteString("&#xD;")
			case r == '\t' && attr:
				b.WriteString("&#x9;")
			case r == '\n' && attr:
				b.WriteString("&#xA;")
			default:
				b.WriteRune(r)
			}
		}
	}
	var b strings.Builder
	for _, it := range seq {
		uri, _ := c.URIOf(it)
		if format == "ndjson" {
			line, err := json.Marshal(wireItem{URI: uri, Value: xqtp.SerializeItem(it)})
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			b.WriteByte('\n')
			continue
		}
		b.WriteString(`<item`)
		if uri != "" {
			b.WriteString(` uri="`)
			xmlEscape(&b, uri, true)
			b.WriteString(`"`)
		}
		b.WriteString(`>`)
		if _, isNode := it.(*xqtp.Node); isNode {
			b.WriteString(xqtp.SerializeItem(it))
		} else {
			xmlEscape(&b, xqtp.ItemString(it), false)
		}
		b.WriteString("</item>\n")
	}
	return b.String()
}

// itemLines cuts a response body down to its item lines: everything before
// the summary line, minus the <results> opener for xml.
func itemLines(t *testing.T, body, format string) string {
	t.Helper()
	if format == "xml" {
		body = strings.TrimPrefix(body, "<results>\n")
		i := strings.LastIndex(body, "<summary ")
		if i < 0 || !strings.HasSuffix(body, "/>\n</results>\n") {
			t.Fatalf("xml body has no summary: %q", body)
		}
		return body[:i]
	}
	if !strings.HasSuffix(body, "\n") {
		t.Fatalf("body does not end in a newline: %q", body)
	}
	return body[:strings.LastIndexByte(body[:len(body)-1], '\n')+1]
}

// The buffered, hand-encoded response is byte-for-byte the per-item one: for
// node and atomic items in both formats, for a limit-K prefix, and for the
// result cache's replay of each.
func TestResponseBodyByteIdentity(t *testing.T) {
	mem := testCorpus(t, nastyDocs...)
	for _, tc := range []struct {
		name   string
		corpus *xqtp.Corpus
	}{{"memory", mem}, {"snapshot", reopenedCorpus(t, mem)}} {
		t.Run(tc.name, func(t *testing.T) { responseBodyByteIdentity(t, tc.corpus) })
	}
}

func responseBodyByteIdentity(t *testing.T, corpus *xqtp.Corpus) {
	s := New(Config{})
	s.AddCorpus("main", corpus)
	for _, query := range []string{
		`$input//p`, `$input//p/@*`, `for $p in $input//p return string($p)`, `count($input//p)`,
	} {
		q, err := xqtp.Prepare(query)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := corpus.Run(q, xqtp.Auto)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) == 0 {
			t.Fatalf("%s: empty result, nothing compared", query)
		}
		for _, format := range []string{"ndjson", "xml"} {
			for _, limit := range []int{0, 1, len(seq)} {
				name := fmt.Sprintf("%s/%s/limit=%d", query, format, limit)
				want, wantStatus := seq, statusOK
				if limit > 0 && limit < len(seq) {
					want, wantStatus = seq[:limit], statusLimit
				}
				wantBody := referenceBody(t, corpus, want, format)
				reqBody, _ := json.Marshal(queryRequest{Query: query, Format: format, Limit: int64(limit)})
				for _, cache := range []string{"miss", "hit"} {
					rec := postQuery(t, s, string(reqBody))
					if got := rec.Header().Get("X-Result-Cache"); got != cache {
						t.Fatalf("%s: X-Result-Cache = %q, want %q", name, got, cache)
					}
					body := rec.Body.String()
					if got := itemLines(t, body, format); got != wantBody {
						t.Fatalf("%s (%s): item lines differ\n got %q\nwant %q", name, cache, got, wantBody)
					}
					if format == "ndjson" {
						if _, sum := parseNDJSON(t, body); sum.Status != wantStatus || sum.Rows != int64(len(want)) {
							t.Fatalf("%s (%s): summary %+v, want %s with %d rows", name, cache, sum, wantStatus, len(want))
						}
					} else if !strings.Contains(body, fmt.Sprintf(`<summary status="%s" rows="%d"`, wantStatus, len(want))) {
						t.Fatalf("%s (%s): wrong xml summary in %q", name, cache, body)
					}
				}
			}
		}
	}
}

// manyPeople is a document whose $input//person answer is about n*90 bytes.
func manyPeople(n int) string {
	var b strings.Builder
	b.WriteString("<site><people>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<person id="p%d"><name>person number %d</name><email>p%d@example.org</email></person>`, i, i, i)
	}
	b.WriteString("</people></site>")
	return b.String()
}

// countingWriter is a ResponseWriter that records how it was written to.
type countingWriter struct {
	header          http.Header
	writes, flushes int
	bytes, maxWrite int
	flushedAt       []int // bytes written before each Flush
	body            []byte
}

func (c *countingWriter) Header() http.Header { return c.header }
func (c *countingWriter) WriteHeader(int)     {}
func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += len(p)
	c.maxWrite = max(c.maxWrite, len(p))
	c.body = append(c.body, p...)
	return len(p), nil
}
func (c *countingWriter) Flush() {
	c.flushes++
	c.flushedAt = append(c.flushedAt, c.bytes)
}

// A ~128 KB response reaches the ResponseWriter in about one Write per
// flushBytes (the per-item path made one per item, ~1500 here), and the
// counters on /metrics say so.
func TestResponseWriteCount(t *testing.T) {
	s := New(Config{NoResultCache: true})
	s.AddCorpus("main", testCorpus(t, manyPeople(1400)))
	cw := &countingWriter{header: make(http.Header)}
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"query": "$input//person"}`))
	s.Handler().ServeHTTP(cw, req)
	if cw.bytes < 120<<10 {
		t.Fatalf("response is only %d bytes; the test wants ~128 KB", cw.bytes)
	}
	if limit := (cw.bytes+flushBytes-1)/flushBytes + 2; cw.writes > limit {
		t.Fatalf("%d Write calls for %d bytes, want at most %d", cw.writes, cw.bytes, limit)
	}
	if cw.flushes != cw.writes-1 {
		t.Fatalf("%d flushes for %d writes: every write but the summary's flushes", cw.flushes, cw.writes)
	}
	if w, f := s.metrics.responseWrites.Load(), s.metrics.responseFlushes.Load(); int(w) != cw.writes || int(f) != cw.flushes {
		t.Fatalf("metrics count %d writes, %d flushes; the writer saw %d, %d", w, f, cw.writes, cw.flushes)
	}
}

// pushAll streams seq, reps times over, and the summary into a fresh
// countingWriter without pause, and reports whether it finished within
// flushAge: only then does the age trigger certainly not fire.
func pushAll(t *testing.T, corpus *xqtp.Corpus, seq xqtp.Sequence, reps int) (*countingWriter, bool) {
	t.Helper()
	cw := &countingWriter{header: make(http.Header)}
	st := newStreamer(cw, newMetrics(), "ndjson", corpus, 0)
	defer st.close()
	start := time.Now()
	for range reps {
		for _, it := range seq {
			if err := st.Push(it); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.writeSummary(wireSummary{Status: statusOK, Rows: int64(reps * len(seq))})
	return cw, time.Since(start) < flushAge
}

// fastPush retries pushAll until one attempt finishes within flushAge, and
// reports whether one did: a slow scheduler (a -race run on a busy host) may
// fire the age trigger, which the write count must not pass off as the size
// trigger's doing. The body is checked on every attempt.
func fastPush(t *testing.T, corpus *xqtp.Corpus, seq xqtp.Sequence, reps int) (*countingWriter, bool) {
	t.Helper()
	want := strings.Repeat(referenceBody(t, corpus, seq, "ndjson"), reps)
	var cw *countingWriter
	fast := false
	for range 5 {
		cw, fast = pushAll(t, corpus, seq, reps)
		if got := itemLines(t, string(cw.body), "ndjson"); got != want {
			t.Fatalf("item lines differ from the reference (%d against %d bytes)", len(got), len(want))
		}
		if fast {
			break
		}
	}
	return cw, fast
}

// An answer above the old 32 KiB chunk size and below flushBytes reaches the
// ResponseWriter in one Write, with the summary and no Flush: the size
// trigger is a memory bound, not a chunk size.
func TestStreamerOneWriteUnderBound(t *testing.T) {
	corpus := testCorpus(t, manyPeople(2000))
	q, _ := xqtp.Prepare(`$input//person/name`)
	seq, err := corpus.Run(q, xqtp.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(referenceBody(t, corpus, seq, "ndjson")); n <= 32<<10 || n >= flushBytes {
		t.Fatalf("answer is %d bytes; the test wants one between 32 KiB and %d", n, flushBytes)
	}
	cw, fast := fastPush(t, corpus, seq, 1)
	if !fast {
		t.Skipf("no attempt pushed %d items within flushAge (%v)", len(seq), flushAge)
	}
	if cw.writes != 1 || cw.flushes != 0 {
		t.Fatalf("%d bytes in %d writes and %d flushes, want 1 write and no flush", cw.bytes, cw.writes, cw.flushes)
	}
}

// An answer of about three bounds leaves in at most one Write per flushBytes
// plus the summary's, each flushed but the last, and no Write is larger than
// the bound plus one item line.
func TestStreamerLargeAnswerBoundedWrites(t *testing.T) {
	corpus := testCorpus(t, manyPeople(2000))
	q, _ := xqtp.Prepare(`$input//person`)
	seq, err := corpus.Run(q, xqtp.Auto)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceBody(t, corpus, seq, "ndjson")
	reps := (3*flushBytes + len(ref) - 1) / len(ref)
	longest := 0
	for _, line := range strings.SplitAfter(ref, "\n") {
		longest = max(longest, len(line))
	}
	cw, fast := fastPush(t, corpus, seq, reps)
	if cw.maxWrite > flushBytes+longest {
		t.Fatalf("a write of %d bytes; the bound is %d plus one %d-byte line", cw.maxWrite, flushBytes, longest)
	}
	if cw.flushes != cw.writes-1 {
		t.Fatalf("%d flushes for %d writes: every write but the summary's flushes", cw.flushes, cw.writes)
	}
	if limit := (cw.bytes+flushBytes-1)/flushBytes + 1; fast && cw.writes > limit {
		t.Fatalf("%d writes for %d bytes, want at most %d", cw.writes, cw.bytes, limit)
	}
}

// serveTwigTexts are the 14 query texts of the serve_twig benchmark mix.
func serveTwigTexts() []string {
	var texts []string
	for _, p := range xqtp.Figure6Queries {
		texts = append(texts, p.Child, p.Descendant)
	}
	texts = append(texts, xqtp.Fig4Query)
	for _, pq := range xqtp.XMarkQueries {
		switch pq.Name {
		case "XQ2", "XQ4", "XQ13", "XQ17", "XQ19":
			texts = append(texts, pq.Query)
		}
	}
	return texts
}

// Every answer of the serve_twig mix on its 2 000-person member, served
// through the handler with the result cache off, reaches the writer in one
// Write with no mid-stream Flush, and /metrics counts what the writer saw.
func TestServeTwigTextsOneWrite(t *testing.T) {
	data := xmlstore.AppendXML(nil, gen.XMarkRoot(gen.XMarkConfig{Seed: 1, People: 2000}))
	corpus, err := xqtp.LoadCorpus([]xqtp.CorpusSource{{URI: "mem://xmark.xml", Data: data}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Close()
	s := New(Config{NoResultCache: true})
	s.AddCorpus("main", corpus)
	for _, text := range serveTwigTexts() {
		body, _ := json.Marshal(queryRequest{Query: text})
		var cw *countingWriter
		fast := false
		for range 20 {
			w0, f0 := s.metrics.responseWrites.Load(), s.metrics.responseFlushes.Load()
			cw = &countingWriter{header: make(http.Header)}
			start := time.Now()
			s.Handler().ServeHTTP(cw, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
			fast = time.Since(start) < flushAge
			if w, f := s.metrics.responseWrites.Load()-w0, s.metrics.responseFlushes.Load()-f0; int(w) != cw.writes || int(f) != cw.flushes {
				t.Fatalf("%s: metrics count %d writes, %d flushes; the writer saw %d, %d", text, w, f, cw.writes, cw.flushes)
			}
			if fast {
				break
			}
		}
		t.Logf("%7d bytes: %d writes, %d flushes: %s", cw.bytes, cw.writes, cw.flushes, text)
		switch {
		case cw.bytes >= flushBytes || cw.bytes < 1<<10:
			t.Fatalf("%s: %d bytes, want an answer under the bound", text, cw.bytes)
		case !fast:
			// A -race run on a busy host: the age trigger may have fired.
			t.Logf("%s: no request finished within flushAge; writes not checked", text)
		case cw.writes != 1 || cw.flushes != 0:
			t.Errorf("%s: %d bytes in %d writes and %d flushes, want 1 write and no flush", text, cw.bytes, cw.writes, cw.flushes)
		}
	}
}

// The age trigger: an item older than flushAge leaves with the next Push
// that reads the clock, well before the buffer fills.
func TestStreamerFlushesAgedBuffer(t *testing.T) {
	corpus := testCorpus(t, fiveNames)
	q, _ := xqtp.Prepare(`$input//person/name`)
	seq, err := corpus.Run(q, xqtp.Auto)
	if err != nil || len(seq) == 0 {
		t.Fatal(err)
	}
	cw := &countingWriter{header: make(http.Header)}
	st := newStreamer(cw, newMetrics(), "ndjson", corpus, 0)
	defer st.close()
	st.Push(seq[0])
	time.Sleep(flushAge + 5*time.Millisecond)
	for i := 0; cw.flushes == 0 && i < 200; i++ {
		st.Push(seq[i%len(seq)])
	}
	if cw.flushes != 1 || cw.bytes == 0 || cw.bytes > 2*clockStride {
		t.Fatalf("aged buffer: %d flushes, %d bytes written; want one flush within %d bytes", cw.flushes, cw.bytes, 2*clockStride)
	}
}

type discardWriter struct{ header http.Header }

func (d discardWriter) Header() http.Header         { return d.header }
func (d discardWriter) WriteHeader(int)             {}
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// interleave returns the $input//person answer of a two-member corpus with
// the members' items alternating, as the multi-worker merge may order them.
func interleave(t *testing.T, corpus *xqtp.Corpus) xqtp.Sequence {
	t.Helper()
	q, _ := xqtp.Prepare(`$input//person`)
	seq, err := corpus.Run(q, xqtp.Auto)
	if err != nil || len(seq)%2 != 0 {
		t.Fatalf("run: %d items, %v", len(seq), err)
	}
	half := len(seq) / 2
	mixed := make(xqtp.Sequence, 0, len(seq))
	for i := range half {
		mixed = append(mixed, seq[i], seq[half+i])
	}
	return mixed
}

// Steady state, a Push of a node item allocates nothing: the XML is rendered
// already JSON-escaped by appending into the pooled, warmed buffers, and the
// line prefix of a member is re-rendered into pooled memory when the items
// alternate between two members.
func TestPushAllocatesNothing(t *testing.T) {
	corpus := testCorpus(t, manyPeople(50), manyPeople(50))
	seq := interleave(t, corpus)
	for _, format := range []string{"ndjson", "xml"} {
		st := newStreamer(discardWriter{make(http.Header)}, newMetrics(), format, corpus, 0)
		push := func() {
			for _, it := range seq {
				if err := st.Push(it); err != nil {
					t.Fatal(err)
				}
				n := it.(*xqtp.Node)
				if err := st.PushRank(n.Doc, int32(n.Pre)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 20; i++ {
			push() // warm: past the first size-triggered flush
		}
		if avg := testing.AllocsPerRun(50, push); avg != 0 {
			t.Fatalf("%s: %v allocations per %d pushes, want 0", format, avg, 2*len(seq))
		}
		st.close()
	}
}

// When the items of two members interleave, every line carries its own
// member's URI: the cached line prefix follows the tree of each item.
func TestStreamerInterleavedMembers(t *testing.T) {
	corpus := testCorpus(t, manyPeople(3), manyPeople(3))
	seq := interleave(t, corpus)
	for _, format := range []string{"ndjson", "xml"} {
		rec := httptest.NewRecorder()
		st := newStreamer(rec, newMetrics(), format, corpus, 0)
		for _, it := range seq {
			if err := st.Push(it); err != nil {
				t.Fatal(err)
			}
		}
		st.writeSummary(wireSummary{Status: statusOK, Rows: int64(len(seq))})
		st.close()
		if got, want := itemLines(t, rec.Body.String(), format), referenceBody(t, corpus, seq, format); got != want {
			t.Fatalf("%s: item lines differ\n got %q\nwant %q", format, got, want)
		}
	}
}

// smallBufListener shrinks the send buffer of every accepted connection, so
// a reader that stops reading stalls the server's writes after a few KB.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4 << 10)
	}
	return c, err
}

// A client that posts a query and never reads the answer holds its worker
// slot only until the request's deadline: the write deadline fails the
// stalled Write, the run aborts, and the slot goes to the next request.
func TestSlowReaderReleasesSlotAtDeadline(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: -1, NoResultCache: true})
	s.AddCorpus("main", testCorpus(t, manyPeople(20000)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(smallBufListener{ln}) }()
	defer func() {
		s.Shutdown(context.Background())
		<-serveDone
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	reqBody := `{"query": "$input//person", "timeout": "200ms"}`
	fmt.Fprintf(conn, "POST /query HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(reqBody), reqBody)

	waitFor(t, func() bool { return s.InFlight() == 1 })
	start := time.Now()
	waitFor(t, func() bool { return s.InFlight() == 0 })
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("slot held %v by a reader that never read; the deadline was 200ms", d)
	}
	if got := s.metrics.requests[outOK].Load(); got != 0 {
		t.Fatalf("the stalled request finished ok: the response fit the socket buffers, nothing was tested")
	}
	rec := postQuery(t, s, `{"query": "$input//person", "limit": 1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("next request: status %d, want 200 (slot not released?)", rec.Code)
	}
}

// serveCount sends body to s's /query through a countingWriter and returns
// the writer and the X-Result-Cache header it saw.
func serveCount(s *Server, body string) (*countingWriter, string) {
	cw := &countingWriter{header: make(http.Header)}
	s.Handler().ServeHTTP(cw, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	return cw, cw.header.Get("X-Result-Cache")
}

// unreplayed blanks what a replayed summary changes: the cached flag, and
// NDJSON's elapsed time.
func unreplayed(body []byte) string {
	s := regexp.MustCompile(`"elapsed_ms":[^,]*,`).ReplaceAllString(string(body), "")
	return strings.NewReplacer(`"cached":true`, `"cached":false`, `cached="true"`, `cached="false"`).Replace(s)
}

// A result-cache hit replays the miss's bytes apart from the summary's cached
// flag and elapsed time, with no Flush. It leaves in one Write per part: the
// buffered XML opener, the cached body and the summary. (Copying the body
// into the buffer to send all three in one Write was measured slower by
// BenchmarkCacheHit: the copy costs more than the writes it saves.)
func TestCacheHitReplaysMissBytes(t *testing.T) {
	s := New(Config{})
	s.AddCorpus("main", testCorpus(t, manyPeople(1000)))
	for _, format := range []string{"ndjson", "xml"} {
		body := fmt.Sprintf(`{"query": "$input//person", "format": %q}`, format)
		miss, mk := serveCount(s, body)
		hit, hk := serveCount(s, body)
		if mk != "miss" || hk != "hit" {
			t.Fatalf("%s: X-Result-Cache %q then %q, want miss then hit", format, mk, hk)
		}
		if hit.bytes < 100<<10 || hit.bytes >= flushBytes {
			t.Fatalf("%s: answer is %d bytes; the test wants one between 100 KiB and %d", format, hit.bytes, flushBytes)
		}
		parts := 2 // body, summary
		if format == "xml" {
			parts++ // the opener
		}
		if hit.writes != parts || hit.flushes != 0 {
			t.Errorf("%s: hit left in %d writes and %d flushes, want %d writes and no flush", format, hit.writes, hit.flushes, parts)
		}
		if got, want := unreplayed(hit.body), unreplayed(miss.body); got != want {
			t.Errorf("%s: hit body differs from the miss beyond the summary's cached flag and elapsed time:\n%s\nmiss:\n%s",
				format, got[max(0, len(got)-300):], want[max(0, len(want)-300):])
		}
	}
}

// BenchmarkCacheHit measures one result-cache hit as a client sees it: a
// 125 KB (XML) or 185 KB (NDJSON) answer replayed with its summary through
// net/http over a loopback connection, read to the end. The writes a hit
// makes cost here, in the server's chunking and the client's reads.
//
//	go test -bench CacheHit -benchmem -run XXX ./internal/server
func BenchmarkCacheHit(b *testing.B) {
	c, err := xqtp.LoadCorpus([]xqtp.CorpusSource{{URI: "mem://people.xml", Data: []byte(manyPeople(1000))}}, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	s := New(Config{})
	s.AddCorpus("main", c)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	post := func(body string) string {
		resp, err := client.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		return resp.Header.Get("X-Result-Cache")
	}
	for _, format := range []string{"ndjson", "xml"} {
		body := fmt.Sprintf(`{"query": "$input//person", "format": %q}`, format)
		if k := post(body); k != "miss" {
			b.Fatalf("%s: warm-up was a %q", format, k)
		}
		b.Run(format, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if k := post(body); k != "hit" {
					b.Fatalf("%s: a %q, want a hit", format, k)
				}
			}
		})
	}
}
