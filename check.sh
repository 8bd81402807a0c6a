#!/bin/sh
# check.sh — the full verification gate for the COMPACT repo.
#
# Runs, in order:
#   1. gofmt       — no unformatted files
#   2. go vet      — stdlib static checks
#   3. build+test  — tier-1: every package compiles and its tests pass
#   4. selfcheck   — boot compactd on a loopback port and smoke-test the
#                    health/benchmark/synthesize endpoints + cache contract
#   5. -race       — internal packages under the race detector (includes
#                    the concurrent Synthesize, defect placement and
#                    compactd server tests)
#   6. fuzz smoke  — a few seconds on each native fuzz target (the three
#                    parser front ends, the design wire decoder, the
#                    layered (FLOW-3D) design wire decoder, the partition
#                    plan decoder, the persistent store's on-disk entry
#                    codec, the spice dense-vs-CG solver cross-check and
#                    the warm-vs-cold branch & bound LP cross-check)
#   7. compactlint — the project's own analyzers, including the compactflow
#                    dataflow suite (allocbound, ctxflow, gospawn) and the
#                    staleignore check on //lint:ignore directives; any
#                    finding fails the gate, and so does blowing the 60s
#                    wall-clock budget the suite promises CI
#
# Usage: ./check.sh [-short] [-bench]
#   -short skips the -race pass (the slowest step) for quick local loops.
#   -bench additionally runs the labeling/ILP hot-path benchmarks
#          (results/BENCH_portfolio.json via cmd/benchjson), the
#          word-parallel-verify / revised-simplex / parallel-B&B kernels
#          (results/BENCH_ilp.json, soft-compared against the committed
#          baseline via benchjson -compare — warn-only) and the
#          partitioned-synthesis benchmark (results/BENCH_partition.json
#          via cmd/partitionbench), the FLOW-3D S-vs-K sweep
#          (results/BENCH_3d.json via cmd/flow3dbench; soft-compared
#          against the committed baseline, warn-only), the
#          variation-robustness yield curves
#          (results/BENCH_margin.json via cmd/marginbench — yield and
#          worst-case margin vs sigma vs crossbar size, plus the
#          margin-aware placement delta; soft-compared against the
#          committed baseline, warn-only) and the service-level load
#          harness (results/BENCH_service.json via cmd/compactload —
#          p50/p99, cache hit ratio including the disk tier, achieved
#          RPS; soft-compared against the committed baseline, warn-only).
set -eu

cd "$(dirname "$0")"

short=0
bench=0
for arg in "$@"; do
    case "$arg" in
    -short) short=1 ;;
    -bench) bench=1 ;;
    *)
        echo "usage: ./check.sh [-short] [-bench]" >&2
        exit 2
        ;;
    esac
done

echo "== gofmt =="
unformatted=$(gofmt -l . | grep -v '^internal/lint/testdata/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== build + test =="
go build ./...
go test ./...

echo "== compactd selfcheck =="
go run ./cmd/compactd -selfcheck

if [ "$short" -eq 0 ]; then
    echo "== race detector (internal) =="
    go test -race ./internal/...

    echo "== fuzz smoke =="
    go test -fuzz=FuzzParse -fuzztime=5s -run='^$' ./internal/blif/
    go test -fuzz=FuzzParse -fuzztime=5s -run='^$' ./internal/pla/
    go test -fuzz=FuzzParse -fuzztime=5s -run='^$' ./internal/verilog/
    go test -fuzz=FuzzDesignJSON -fuzztime=5s -run='^$' ./internal/xbar/
    go test -fuzz=FuzzDesign3DJSON -fuzztime=5s -run='^$' ./internal/xbar3d/
    go test -fuzz=FuzzEval64VsScalar -fuzztime=5s -run='^$' ./internal/xbar/
    go test -fuzz=FuzzWarmVsColdLP -fuzztime=5s -run='^$' ./internal/ilp/
    go test -fuzz=FuzzOCTVsLemma1 -fuzztime=5s -run='^$' ./internal/oct/
    go test -fuzz=FuzzPlanJSON -fuzztime=5s -run='^$' ./internal/partition/
    go test -fuzz=FuzzStoreEntry -fuzztime=5s -run='^$' ./internal/store/
    go test -fuzz=FuzzDenseVsCG -fuzztime=5s -run='^$' ./internal/spice/
fi

echo "== compactlint =="
go run ./cmd/compactlint -budget 60s ./...

if [ "$bench" -eq 1 ]; then
    echo "== benchmarks (labeling/ILP hot paths) =="
    mkdir -p results
    go test -run='^$' -bench=. -benchmem -benchtime=1x \
        ./internal/labeling ./internal/ilp |
        tee /dev/stderr |
        go run ./cmd/benchjson >results/BENCH_portfolio.json
    echo "wrote results/BENCH_portfolio.json"

    echo "== benchmarks (word-parallel verify + revised simplex + parallel B&B) =="
    go test -run='^$' -bench='VerifyExhaustive|LPVertexCover|BBVertexCover' \
        -benchmem -benchtime=1x ./internal/xbar ./internal/ilp |
        tee /dev/stderr |
        go run ./cmd/benchjson -compare results/BENCH_ilp.json \
            >results/BENCH_ilp.json.new
    mv results/BENCH_ilp.json.new results/BENCH_ilp.json
    echo "wrote results/BENCH_ilp.json"

    echo "== benchmarks (partitioned multi-crossbar synthesis) =="
    go run ./cmd/partitionbench -timelimit 10s -out results/BENCH_partition.json

    echo "== benchmarks (FLOW-3D: semiperimeter vs wire-layer count K) =="
    go run ./cmd/flow3dbench -timelimit 10s \
        -compare results/BENCH_3d.json \
        -out results/BENCH_3d.json.new
    mv results/BENCH_3d.json.new results/BENCH_3d.json
    echo "wrote results/BENCH_3d.json"

    echo "== benchmarks (variation robustness: yield curves + margin-aware placement) =="
    go run ./cmd/marginbench -timelimit 10s \
        -compare results/BENCH_margin.json \
        -out results/BENCH_margin.json.new
    mv results/BENCH_margin.json.new results/BENCH_margin.json
    echo "wrote results/BENCH_margin.json"

    echo "== service load (compactd: sync + async, both cache tiers) =="
    loadstore=$(mktemp -d)
    go run ./cmd/compactload -duration 5s -rps 100 -store-dir "$loadstore" \
        -compare results/BENCH_service.json \
        -out results/BENCH_service.json.new
    rm -rf "$loadstore"
    mv results/BENCH_service.json.new results/BENCH_service.json
    echo "wrote results/BENCH_service.json"
fi

echo "OK"
