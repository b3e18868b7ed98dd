package xmlstore

import (
	"bytes"
	"strings"
	"testing"
)

// appendEscapedRef is the byte-at-a-time loop appendEscaped replaced, kept as
// the reference its output must stay byte-identical to.
func appendEscapedRef(dst []byte, s string, attr bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		case '\r':
			dst = append(dst, "&#xD;"...)
		case '"':
			if attr {
				dst = append(dst, "&quot;"...)
			} else {
				dst = append(dst, c)
			}
		case '\n':
			if attr {
				dst = append(dst, "&#xA;"...)
			} else {
				dst = append(dst, c)
			}
		case '\t':
			if attr {
				dst = append(dst, "&#x9;"...)
			} else {
				dst = append(dst, c)
			}
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// FuzzAppendEscaped checks the table-driven escaper against the reference
// loop in text and attribute mode, appending to a non-empty prefix.
func FuzzAppendEscaped(f *testing.F) {
	for _, seed := range []string{
		"", "plain text with nothing to escape",
		"&", "<", ">", "\r", `"`, "\n", "\t",
		`a&b<c>d"e`, "line one\nline two\r\n\tindented", "&&&&", `trailing "`, `"leading`,
		"héllo wörld — ünïcode ✓ 日本語", "\xff\xfe invalid utf-8 \x80", "\x00\x01\x1f",
		strings.Repeat("clean run ", 50) + "<" + strings.Repeat("another ", 50),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, attr := range []bool{false, true} {
			want := appendEscapedRef([]byte("prefix:"), s, attr)
			got := appendEscaped([]byte("prefix:"), s, attr)
			if !bytes.Equal(got, want) {
				t.Fatalf("appendEscaped(%q, attr=%v) = %q, reference %q", s, attr, got, want)
			}
		}
	})
}

func BenchmarkAppendEscaped(b *testing.B) {
	text := strings.Repeat("Quisque a lectus & donec <consectetuer> ligula vulputate sem tristique cursus. ", 40)
	buf := make([]byte, 0, 2*len(text))
	for _, bc := range []struct {
		name string
		fn   func([]byte, string, bool) []byte
	}{{"table", appendEscaped}, {"reference", appendEscapedRef}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				buf = bc.fn(buf[:0], text, false)
			}
		})
	}
}
