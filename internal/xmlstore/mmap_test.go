package xmlstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func writeTempSnapshot(t *testing.T, docs, uris []string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corpus.xqts")
	if err := os.WriteFile(path, fuzzSeedSnapshot(docs, uris), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMapFileRoundTrip(t *testing.T) {
	path := writeTempSnapshot(t,
		[]string{`<a id="1"><b>one</b></a>`, `<c><d x="y">two</d></c>`},
		[]string{"one.xml", "two.xml"})
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != len(want) {
		t.Fatalf("mapped %d bytes, want %d", m.Len(), len(want))
	}
	got, err := m.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("mapped bytes differ from file contents")
	}
	if m.Path() != path {
		t.Fatalf("Path() = %q, want %q", m.Path(), path)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMapFileCloseSemantics(t *testing.T) {
	path := writeTempSnapshot(t, []string{`<a/>`}, []string{"a.xml"})
	m, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := m.Close(); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("second Close = %v, want ErrSnapshotClosed", err)
	}
	if _, err := m.Bytes(); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("Bytes after Close = %v, want ErrSnapshotClosed", err)
	}
	if m.Len() != 0 {
		t.Fatalf("Len after Close = %d, want 0", m.Len())
	}
	if m.Mapped() {
		t.Fatal("Mapped true after Close")
	}
	// Resident after Close must be inert, not fault.
	if _, ok := m.Resident(); ok {
		t.Fatal("Resident reported ok after Close")
	}
}

func TestMapFileMissing(t *testing.T) {
	if _, err := MapFile(filepath.Join(t.TempDir(), "no-such-file")); err == nil {
		t.Fatal("MapFile on a missing file should fail")
	}
}

func TestMapFileEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatalf("empty file mapped to %d bytes", m.Len())
	}
	if m.Mapped() {
		t.Fatal("empty file should not report a live mapping")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMapFileResident(t *testing.T) {
	path := writeTempSnapshot(t,
		[]string{`<a id="1"><b>one</b><b>two</b><b>three</b></a>`},
		[]string{"a.xml"})
	m, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res, ok := m.Resident()
	if runtime.GOOS != "linux" || !m.Mapped() {
		if ok {
			t.Fatalf("Resident reported ok on %s (mapped=%v)", runtime.GOOS, m.Mapped())
		}
		return
	}
	if !ok {
		t.Fatal("Resident not reported on linux")
	}
	page := int64(os.Getpagesize())
	if res < 0 || res > int64(m.Len())+page {
		t.Fatalf("Resident = %d, outside [0, %d]", res, int64(m.Len())+page)
	}
	// Touch every byte: the whole mapping must now be resident.
	data, err := m.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	sum := byte(0)
	for _, b := range data {
		sum += b
	}
	_ = sum
	res, ok = m.Resident()
	if !ok || res < int64(m.Len())-page {
		t.Fatalf("after touching all pages Resident = %d (ok=%v), want ~%d", res, ok, m.Len())
	}
}
