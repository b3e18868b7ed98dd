package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xqtp/internal/experiments"
)

func cell(query, alg string, allocs, bytes int64) experiments.Table1Cell {
	return experiments.Table1Cell{Query: query, Algorithm: alg, DocumentBytes: 200_000,
		NsPerOp: 1000, AllocsPerOp: allocs, BytesPerOp: bytes}
}

func TestGateTable1(t *testing.T) {
	old := []experiments.Table1Cell{
		cell("QE1", "SC", 3, 496),
		cell("QE1", "NL", 14, 4984),
		cell("QE1", "auto", 3, 496),
	}
	cases := []struct {
		name    string
		new     []experiments.Table1Cell
		algs    string
		wantErr string // empty: no error
	}{
		{"unchanged", old, "SC", ""},
		{"allocs rise in gated alg", []experiments.Table1Cell{cell("QE1", "SC", 4, 496)}, "SC", "rose in 1 table1 cells"},
		{"bytes rise in gated alg", []experiments.Table1Cell{cell("QE1", "SC", 3, 512)}, "SC", "rose in 1 table1 cells"},
		{"fall is fine", []experiments.Table1Cell{cell("QE1", "SC", 2, 400)}, "SC", ""},
		{"rise outside gate-algs", []experiments.Table1Cell{cell("QE1", "SC", 3, 496), cell("QE1", "NL", 20, 9000)}, "SC", ""},
		{"empty gate-algs gates every alg", []experiments.Table1Cell{cell("QE1", "NL", 20, 4984)}, "", "rose in 1 table1 cells"},
		{"gate-algs match labels case-insensitively", []experiments.Table1Cell{cell("QE1", "auto", 5, 496)}, "AUTO", "rose in 1 table1 cells"},
		{"no comparable cells", []experiments.Table1Cell{cell("QE1", "TJ", 3, 496)}, "SC,TJ", "no comparable"},
		{"new cell is skipped", []experiments.Table1Cell{cell("QE1", "SC", 3, 496), cell("QE9", "SC", 99, 9999)}, "SC", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			algs := map[string]bool{}
			for _, a := range strings.Split(tc.algs, ",") {
				if a != "" {
					algs[a] = true
				}
			}
			err := gateTable1(old, tc.new, algs)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gateTable1: unexpected error %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("gateTable1: error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, body, wantErr string
	}{
		{"table1", `{"seed": 1, "cells": [{"query": "QE1", "algorithm": "SC", "document_bytes": 200000, "allocs_per_op": 3, "bytes_per_op": 496}]}`, ""},
		{"retired serve report", `{"xmark_people": 2000, "results": [{"algorithm": "SC", "procs": 1, "qps": 900}], "serve_cells": [{"algorithm": "sc", "clients": 1}]}`, "no table1 cells"},
		{"empty cells", `{"seed": 1, "cells": []}`, "no table1 cells"},
		{"malformed", `{"cells": [`, "unexpected end"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_")+".json")
			if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := load(path)
			if tc.wantErr == "" {
				if err != nil || len(r.Cells) != 1 || r.Cells[0].AllocsPerOp != 3 {
					t.Fatalf("load = %+v, %v; want one cell with 3 allocs", r, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("load error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
	if _, err := load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("load of a missing file succeeded")
	}
}
