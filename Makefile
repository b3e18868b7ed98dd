GO ?= go

# Packages with concurrency-sensitive paths (shared catalog, the members'
# lock-free prepared-join tables, the LRU, shared compiled physical plans run
# from many goroutines, a tree's first load and its CAS-published node
# identity table) plus the unsafe-aliasing ingest scanner and the parallel
# corpus layer get a dedicated -race run.
RACE_PKGS = ./internal/collection ./internal/exec ./internal/join ./internal/lru ./internal/physical ./internal/server ./internal/xdm ./internal/xmlstore

.PHONY: all build vet test race check bench serve run-server bench-compare bench-smoke bench-check fuzz-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) vet -tags race ./...
	$(GO) build -tags nommap ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...
	@# No library file may pull package testing, or the linked reference tree
	@# model the tests compare against, into the shipped binaries.
	! $(GO) list -deps ./cmd/xq ./cmd/xqd | grep -qxE 'testing|xqtp/internal/xdm/xdmref'
	@# Every alternative of a `make race` -run pattern must name a test in that
	@# line's packages: a deleted or renamed test fails here instead of
	@# dropping silently out of its race loop.
	@sed -n "s/^\t[^@]*test -race .*-run '\([^']*\)' \(.*\)/\1 \2/p" Makefile | \
	while read -r run pkgs; do \
		names=$$($(GO) test -list . $$pkgs | grep -E '^(Test|Fuzz|Example)') || exit 1; \
		for alt in $$(echo "$$run" | tr '|' ' '); do \
			echo "$$names" | grep -qE -- "$$alt" || \
				{ echo "make race: -run alternative $$alt matches no test in $$pkgs"; exit 1; }; \
		done; \
	done
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck -checks SA ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS) .
	$(GO) test -race -count=50 -run 'Shutdown|SlowReader|Streamer' ./internal/server
	$(GO) test -race -count=20 -run 'Prepared|Collectable|ForeignTree|ConcurrentRuns|ReuseStates|SteadyState|ConcurrentPrepare|BorrowedTuples|FirstTouch' ./internal/collection ./internal/physical ./internal/xdm .
	$(GO) test -race -count=20 -run 'RunAllMergeOrder|RunAllSkip|RunAllError|OneWorkerFanOut|FanOutMember|FanOutFirstFailure' ./internal/collection .

check: build vet test race

# The paper's §5 at paper scale: the §5.1 validation, Fig. 4, Table 1,
# Fig. 6 and the §5.3 table, single-threaded (treebench -quick: smoke scale).
bench:
	$(GO) run ./cmd/treebench -exp all

# Concurrent serving benchmark; -cpu exercises the QPS scaling.
serve:
	$(GO) test -bench Serve -benchmem -cpu 1,4 .

# Run the HTTP query server over a corpus:
#   make run-server CORPUS=corpus.snap            (snapshot, mmap)
#   make run-server CORPUS=xmldir/ ADDR=:9090     (directory of *.xml)
ADDR ?= :8080
run-server:
	@test -n "$(CORPUS)" || \
		{ echo "usage: make run-server CORPUS=path/to/corpus.snap [ADDR=:8080]"; exit 2; }
	$(GO) run ./cmd/xqd -addr $(ADDR) -corpus main=$(CORPUS)

# Quick benchmark smoke: re-measure Table 1 at reduced scale and diff it
# against the committed quick-scale baseline. The gate compares what
# repeats: allocs/op and B/op of the SC/TJ/auto cells may not rise (both are
# exact counts on one Go version — the baseline's header names it). ns/op is
# printed but never gated: same-binary reruns on shared machines differ by
# tens of percent per cell. The layers the paper does not have (HTTP serving,
# ingest, corpora, snapshots) are measured by `make bench-check` and
# benchmark/run.sh.
bench-smoke:
	@mkdir -p .bench_build
	$(GO) run ./cmd/treebench -exp table1 -quick -algs nl,twig,sc,auto -json .bench_build/bench_table1_quick.json
	$(GO) run ./cmd/benchdiff -gate-allocs -gate-algs SC,TJ,AUTO BENCH_table1_quick.json .bench_build/bench_table1_quick.json

# The benchmark is a module of its own, outside `go test ./...`: vet and test
# it against this checkout's API, then run each workload briefly on small
# inputs. A run exits non-zero when an operation failed its oracle; timing
# spread is not judged here.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	@for w in serve_twig serve_corpus compile_adhoc store_cycle; do \
		echo "benchmark/run.sh --workload $$w --short --seconds 2"; \
		out=$$(bash benchmark/run.sh --workload $$w --short --seconds 2) || { echo "$$out"; exit 1; }; \
		echo "$$out" | tail -n 1 | grep -q '"failed": *0[,}]' || \
			{ echo "$$w: operations failed:"; echo "$$out" | tail -n 1; exit 1; }; \
	done

# Short differential fuzz of the ingest scanner against the encoding/xml
# oracle, of the snapshot reader against corrupted/truncated bytes, of the
# serializer's escaper against its byte-at-a-time reference, of its JSON mode
# against encoding/json of the XML, and of the server's JSON string encoder
# against encoding/json (the committed seed corpus always runs as part of
# `make test`; this also explores new inputs for a bounded time).
# FuzzSnapshot bounds minimization at 100 calls: its seeds run to 95 KB, and
# under the default 60 s limit minimizing the first new input derived from
# one stalled every worker for the rest of the 30 s window.
fuzz-smoke:
	$(GO) test ./internal/xmlstore -run FuzzScanVsStd -fuzz FuzzScanVsStd -fuzztime 30s
	$(GO) test ./internal/xmlstore -run FuzzSnapshot -fuzz FuzzSnapshot -fuzztime 30s -fuzzminimizetime 100x
	$(GO) test ./internal/xmlstore -run FuzzAppendEscaped -fuzz FuzzAppendEscaped -fuzztime 30s
	$(GO) test ./internal/xmlstore -run FuzzAppendRankJSON -fuzz FuzzAppendRankJSON -fuzztime 30s
	$(GO) test ./internal/server -run FuzzAppendJSONString -fuzz FuzzAppendJSONString -fuzztime 30s

# Compare two treebench Table 1 reports (treebench -exp table1 -json):
#   make bench-compare OLD=BENCH_table1.json NEW=new.json
bench-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || \
		{ echo "usage: make bench-compare OLD=old.json NEW=new.json"; exit 2; }
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

clean:
	$(GO) clean ./...
