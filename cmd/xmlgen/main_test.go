package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// TestDefaultOutputBytes pins xmlgen's default output for every kind in both
// formats by its sha256: the generators' draw order, the serializer and the
// snapshot writer (symbol order included) may not drift unnoticed.
func TestDefaultOutputBytes(t *testing.T) {
	want := map[[2]string]string{
		{"member", "xml"}:      "e9c8067e8cf4fb493b4399f0f462b768707debfdd96e08dde7420ffc0d0b54a9",
		{"member", "snapshot"}: "ec6af99eb8a290089072fafbb3d48d70e58790cda1bba23ce5a4807ea800ef08",
		{"xmark", "xml"}:       "3cdb3e16898d957f1a5de45979d4752dc21f9b0437c726ea6226d0871aafcc8b",
		{"xmark", "snapshot"}:  "7716e764a1942f3434b453e2af75aa33a389bf8250170348bceece63fe71e6eb",
		{"deep", "xml"}:        "a059fa5a2930067270e4c9730846478e131314aa0c2715624cd904506f528d40",
		{"deep", "snapshot"}:   "5bd94ebaff017e462b68c9bca2108b87dabc296c6d8dae86445148e30e500e38",
	}
	for _, kind := range []string{"member", "xmark", "deep"} {
		for _, format := range []string{"xml", "snapshot"} {
			var out bytes.Buffer
			if code := run([]string{"-kind", kind, "-format", format}, &out, io.Discard); code != 0 {
				t.Fatalf("xmlgen -kind %s -format %s exited %d", kind, format, code)
			}
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want[[2]string{kind, format}] {
				t.Errorf("xmlgen -kind %s -format %s: sha256 %s, want %s", kind, format, got, want[[2]string{kind, format}])
			}
		}
	}
}

func TestUnknownKindAndFormat(t *testing.T) {
	for _, args := range [][]string{{"-kind", "nope"}, {"-kind", "xmark", "-people", "2", "-format", "nope"}, {"-bogus"}} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("xmlgen %v exited %d, want 2", args, code)
		}
	}
}
