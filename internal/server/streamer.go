package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
	"unicode/utf8"

	"xqtp"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// The flush rule: a response buffer reaches the ResponseWriter when it holds
// flushBytes, when a Push finds its oldest item line older than flushAge, or
// when the summary is written. The clock is read on the first Push into an
// empty buffer and then once per clockStride appended bytes, not per item.
//
// flushBytes is the per-request memory bound, not a chunk size: an answer that
// completes within flushAge and under it leaves in one Write with the summary.
// 256 KiB is above every answer of the serve_twig mix (31–230 KB, 128 KB on
// average). Each mid-stream Write plus Flush costs net/http about three sends
// on the connection (the chunk header with the first 4 KiB through its
// connection buffer, the rest of the chunk, the chunk's CRLF), and the client
// wakes for each: at 32 KiB those answers left in ~4.7 chunks each.
const (
	flushBytes  = 256 << 10
	flushAge    = 10 * time.Millisecond
	clockStride = 2 << 10
	// A fresh buffer holds smallBuf, so a pool miss for a short answer does
	// not allocate the bound. An answer that outgrows it moves at once to
	// fullBuf, the bound plus room for the line that crosses it, rather than
	// through append's dozen 1.25× steps: after a GC has emptied the pool,
	// those would allocate several times the bound per miss.
	smallBuf = 16 << 10
	fullBuf  = flushBytes + flushBytes/8
	// A buffer that one huge item grew past maxPooledBuf is dropped, not
	// pooled.
	maxPooledBuf = 2 * flushBytes
)

// respBuf is the pooled per-request memory: out holds rendered response bytes
// not yet handed to the ResponseWriter, prefix the start of a node's item line
// up to its value, which holds the URI of the member the node is in.
type respBuf struct{ out, prefix []byte }

var respBufs = sync.Pool{New: func() any {
	return &respBuf{out: make([]byte, 0, smallBuf)}
}}

// streamer is the execctx.RankSink behind a query response. Each push appends
// the item line to one pooled buffer, written (and, mid-stream, flushed to the
// wire) by the rule above: a response costs one Write per flushBytes (one in
// all for most answers), and a steady-state push allocates nothing.
// "Streaming" therefore means bounded staleness: while items keep arriving
// none waits longer than flushAge plus the time to produce clockStride more
// bytes; with no timer, a run that goes quiet holds its buffered tail until
// its next item or its end.
//
// execctx.Deliver charges the row/byte budget per item *before* pushing, so
// the budgets meter exactly what enters the buffer: a limit of K means the
// client receives K items and a limit-reached summary, never K+1. A failed
// Write (client gone, write deadline passed) is sticky: the next Push returns
// it and the run aborts.
//
// The item lines are also mirrored, at flush granularity and up to the result
// cache's per-entry cap, into a capture buffer, so a completed deterministic
// response can be stored and replayed byte-for-byte.
type streamer struct {
	w      http.ResponseWriter
	fl     http.Flusher
	m      *metrics
	format string // "ndjson" or "xml"
	corpus *xqtp.Corpus
	wrote  bool // header set (and, for xml, the <results> opener buffered)
	// Nodes arrive in runs of one member: the line prefix holding the member
	// URI is rendered once per run of one tree, not per item.
	prefixTree *xdm.Tree

	*respBuf
	mark    int       // out[mark:] are item lines not yet mirrored into capture
	oldest  time.Time // when the oldest item line in out was appended
	clockAt int       // len(out) at which Push next reads the clock; 0: at the next Push
	err     error     // first failed Write

	capture    []byte
	captureCap int64 // 0: no capturing
	overflowed bool
}

// newStreamer takes a response buffer from the pool; close returns it.
func newStreamer(w http.ResponseWriter, m *metrics, format string, corpus *xqtp.Corpus, captureCap int64) *streamer {
	fl, _ := w.(http.Flusher)
	return &streamer{w: w, fl: fl, m: m, format: format, corpus: corpus, captureCap: captureCap,
		respBuf: respBufs.Get().(*respBuf)}
}

func (st *streamer) close() {
	if b := st.respBuf; cap(b.out) <= maxPooledBuf && cap(b.prefix) <= maxPooledBuf {
		b.out, b.prefix = b.out[:0], b.prefix[:0]
		respBufs.Put(b)
	}
	st.respBuf = nil
}

// begin sets the response header and, for XML, buffers the stream opener.
// Lazy: the status commits only when there is something to stream, so
// pre-stream failures can still use proper HTTP status codes.
func (st *streamer) begin() {
	if st.wrote {
		return
	}
	st.wrote = true
	if st.format == "xml" {
		st.w.Header().Set("Content-Type", "application/xml; charset=utf-8")
		// The opener is not captured: a cache replay goes through begin()
		// again, which regenerates it.
		st.out = append(st.out, "<results>\n"...)
		st.mark = len(st.out)
	} else {
		st.w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	}
	st.w.WriteHeader(http.StatusOK)
}

// Push implements execctx.Sink. A node goes to PushRank; atomics, which
// belong to no member, are rendered here.
func (st *streamer) Push(it xqtp.Item) error {
	if n, ok := it.(*xqtp.Node); ok {
		return st.PushRank(n.Doc, int32(n.Pre))
	}
	if st.err != nil {
		return st.err
	}
	st.begin()
	out := st.out
	if st.format != "xml" {
		// {"value":…} as json.Marshal renders a wireItem with no URI (the
		// benchmark oracle checksums exactly that).
		out = append(xmlstore.AppendJSONString(append(out, `{"value":`...), xqtp.ItemString(it)), "}\n"...)
	} else {
		out = append(appendXMLEscaped(append(out, "<item>"...), xqtp.ItemString(it), false), "</item>\n"...)
	}
	return st.appended(out)
}

// PushRank implements execctx.RankSink: the node at rank r of t goes straight
// from the tree's columns into its item line, in one pass that writes its XML,
// for NDJSON already escaped as the body of a JSON string.
func (st *streamer) PushRank(t *xdm.Tree, r int32) error {
	if st.err != nil {
		return st.err
	}
	st.begin()
	if t != st.prefixTree {
		st.renderPrefix(t)
	}
	out := xmlstore.AppendRank(append(st.out, st.prefix...), t, r, st.format != "xml")
	if st.format == "xml" {
		out = append(out, "</item>\n"...)
	} else {
		out = append(out, "\"}\n"...)
	}
	return st.appended(out)
}

// renderPrefix renders the start of the item lines of t's nodes, with the URI
// omitted when t is not a member, as json.Marshal renders a wireItem.
func (st *streamer) renderPrefix(t *xdm.Tree) {
	st.prefixTree = t
	uri, _ := st.corpus.URIOf(t.RootNode())
	p := st.prefix[:0]
	if st.format == "xml" {
		p = append(p, "<item"...)
		if uri != "" {
			p = append(appendXMLEscaped(append(p, ` uri="`...), uri, true), '"')
		}
		p = append(p, '>')
	} else {
		p = append(p, '{')
		if uri != "" {
			p = append(xmlstore.AppendJSONString(append(p, `"uri":`...), uri), ',')
		}
		p = append(p, `"value":"`...)
	}
	st.prefix = p
}

// appended stores out, one item line longer, and applies the flush triggers.
func (st *streamer) appended(out []byte) error {
	// Nearly full and below fullBuf: move there before the next line makes
	// append grow the buffer in its own small steps.
	if cap(out)-len(out) < clockStride && cap(out) < fullBuf {
		out = append(make([]byte, 0, fullBuf), out...)
	}
	st.out = out
	switch n := len(out); {
	case n >= flushBytes:
		return st.flush(true)
	case n >= st.clockAt:
		now := time.Now()
		if st.clockAt == 0 {
			st.oldest = now
		} else if now.Sub(st.oldest) >= flushAge {
			return st.flush(true)
		}
		st.clockAt = n + clockStride
	}
	return nil
}

// mirror copies the item lines buffered since the last mirror into the
// capture buffer while they still fit the cache's per-entry cap.
func (st *streamer) mirror() {
	p := st.out[st.mark:]
	st.mark = len(st.out)
	switch {
	case st.overflowed || st.captureCap == 0:
	case int64(len(st.capture)+len(p)) > st.captureCap:
		st.overflowed, st.capture = true, nil
	default:
		st.capture = append(st.capture, p...)
	}
}

// flush hands the buffer to the ResponseWriter. A mid-stream flush (size or
// age trigger) also pushes the bytes through net/http's own buffers onto the
// wire; the final one, from writeSummary, does not: returning from the
// handler flushes, and lets net/http send a small body with Content-Length.
func (st *streamer) flush(midStream bool) error {
	st.mirror()
	st.write(st.out)
	if midStream && st.err == nil && st.fl != nil {
		st.m.responseFlushes.Add(1)
		st.fl.Flush()
	}
	st.out, st.mark, st.clockAt = st.out[:0], 0, 0
	return st.err
}

// write is the one place bytes reach the ResponseWriter.
func (st *streamer) write(p []byte) {
	if st.err == nil && len(p) > 0 {
		st.m.responseWrites.Add(1)
		_, st.err = st.w.Write(p)
	}
}

// writeRaw replays a cached body (already rendered item lines) without
// copying it through the buffer.
func (st *streamer) writeRaw(body []byte) {
	st.begin()
	st.flush(false)
	st.write(body)
}

// writeSummary terminates the stream: the summary line (NDJSON) or the
// <summary/> element plus the closing tag (XML), written together with the
// item lines still buffered. It opens the stream first when nothing was
// pushed, so even an empty or timed-out-before-output response has the
// uniform shape.
func (st *streamer) writeSummary(sum wireSummary) {
	st.begin()
	st.mirror()
	out := st.out
	if st.format == "xml" {
		out = appendXMLEscaped(append(out, `<summary status="`...), sum.Status, true)
		out = fmt.Appendf(out, `" rows="%d" bytes="%d" members="%d" skipped="%d" cached="%t"`,
			sum.Rows, sum.Bytes, sum.Members, sum.Skipped, sum.Cached)
		if sum.Error != "" {
			out = append(appendXMLEscaped(append(out, ` error="`...), sum.Error, true), '"')
		}
		out = append(out, "/>\n</results>\n"...)
	} else if data, err := json.Marshal(sum); err == nil {
		out = append(append(append(out, `{"summary":`...), data...), "}\n"...)
	}
	st.out, st.mark = out, len(out)
	st.flush(false)
}

// captured reports whether the full body fit the capture cap (a zero-item
// body counts: caching an empty result is exactly as valid).
func (st *streamer) captured() bool {
	return st.captureCap > 0 && !st.overflowed
}

// appendXMLEscaped appends s with the five XML special characters and
// carriage returns escaped, which XML parsers would otherwise read back as
// newlines; in an attribute (attr) also tabs and newlines, which they would
// fold to spaces.
func appendXMLEscaped(dst []byte, s string, attr bool) []byte {
	for _, r := range s {
		switch {
		case r == '&':
			dst = append(dst, "&amp;"...)
		case r == '<':
			dst = append(dst, "&lt;"...)
		case r == '>':
			dst = append(dst, "&gt;"...)
		case r == '"':
			dst = append(dst, "&quot;"...)
		case r == '\'':
			dst = append(dst, "&apos;"...)
		case r == '\r':
			dst = append(dst, "&#xD;"...)
		case r == '\t' && attr:
			dst = append(dst, "&#x9;"...)
		case r == '\n' && attr:
			dst = append(dst, "&#xA;"...)
		default:
			dst = utf8.AppendRune(dst, r)
		}
	}
	return dst
}
