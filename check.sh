#!/bin/sh
# check.sh — the full verification gate for the COMPACT repo.
#
# Runs, in order:
#   1. gofmt       — no unformatted files
#   2. go vet      — stdlib static checks, natively, for arm64 (the
#                    build without the amd64 assembly kernels) and for
#                    386 (the 32-bit build)
#   3. build+test  — tier-1: every package compiles and its tests pass,
#                    then vet and test the nested perfbench module, which
#                    `go test ./...` does not reach
#   4. selfcheck   — boot compactd on a loopback port and smoke-test the
#                    health/benchmark/synthesize endpoints + cache contract
#   5. -race       — internal packages under the race detector (includes
#                    the concurrent Synthesize, defect placement and
#                    compactd server tests)
#   6. fuzz smoke  — a few seconds on each native fuzz target (the three
#                    parser front ends, the BDD build against network
#                    simulation with its canonicity check, the design
#                    wire decoder on its 2D and layered (FLOW-3D)
#                    bodies, the partition
#                    plan decoder, the persistent store's on-disk entry
#                    codec, the sneak-path kernel's word-parallel and
#                    permuted-order symbolic cross-checks against the
#                    scalar Eval, the placement engine's brute-force
#                    exactness oracle, the placement matcher against the
#                    recursive Kuhn search it replays, the crossbar
#                    mapper's postcondition
#                    and evaluation check on fuzzed layer intervals, the
#                    sparse device plane against a dense reference, the
#                    exact-OCT cross-check against Lemma 1's ILP and
#                    brute force, the check that one recoloring per
#                    greedy OCT vertex re-admits none of them, the spice
#                    nodal solve against the dense-elimination oracle,
#                    its AVX2 kernels against the Go ones, bit for bit,
#                    the warm-vs-cold branch & bound LP cross-check,
#                    the sparse reinversion's eta file against the dense
#                    one and the odd-cycle cut separator against brute
#                    force)
#   7. compactlint — the project's own analyzers, including the compactflow
#                    dataflow suite (allocbound, ctxflow, gospawn) and the
#                    staleignore check on //lint:ignore directives; any
#                    finding fails the gate, and so does blowing the 60s
#                    wall-clock budget the suite promises CI
#
# Usage: ./check.sh [-short]
#   -short skips the -race pass (the slowest step) for quick local loops.
set -eu

cd "$(dirname "$0")"

short=0
for arg in "$@"; do
    case "$arg" in
    -short) short=1 ;;
    *)
        echo "usage: ./check.sh [-short]" >&2
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
GOARCH=arm64 go vet ./...
GOARCH=386 go vet ./...

echo "== build + test =="
go build ./...
go test ./...
go -C perfbench vet ./...
go -C perfbench test ./...

echo "== compactd selfcheck =="
go run ./cmd/compactd -selfcheck

if [ "$short" -eq 0 ]; then
    echo "== race detector (internal) =="
    go test -race ./internal/...

    echo "== fuzz smoke =="
    go test -fuzz=FuzzParse -fuzztime=5s -run='^$' ./internal/blif/
    go test -fuzz=FuzzParse -fuzztime=5s -run='^$' ./internal/pla/
    go test -fuzz=FuzzParse -fuzztime=5s -run='^$' ./internal/verilog/
    go test -fuzz=FuzzBuildVsEval64 -fuzztime=5s -run='^$' ./internal/bdd/
    go test -fuzz=FuzzDesignJSON -fuzztime=5s -run='^$' ./internal/xbar/
    go test -fuzz=FuzzEval64VsScalar -fuzztime=5s -run='^$' ./internal/xbar/
    go test -fuzz=FuzzClosureVsEval -fuzztime=5s -run='^$' ./internal/xbar/
    go test -fuzz=FuzzPlaceVsBruteForce -fuzztime=5s -run='^$' ./internal/xbar/
    go test -fuzz=FuzzKuhnVsRef -fuzztime=5s -run='^$' ./internal/xbar/
    go test -fuzz=FuzzMapStack -fuzztime=5s -run='^$' ./internal/xbar/
    go test -fuzz=FuzzPlaneVsDense -fuzztime=5s -run='^$' ./internal/xbar/
    go test -fuzz=FuzzWarmVsColdLP -fuzztime=5s -run='^$' ./internal/ilp/
    go test -fuzz=FuzzRefactorizeVsDense -fuzztime=5s -run='^$' ./internal/ilp/
    go test -fuzz=FuzzOCTVsLemma1 -fuzztime=5s -run='^$' ./internal/oct/
    go test -fuzz=FuzzHeuristicVsRecolor -fuzztime=5s -run='^$' ./internal/oct/
    go test -fuzz=FuzzOddCycleSeparation -fuzztime=5s -run='^$' ./internal/oct/
    go test -fuzz=FuzzPlanJSON -fuzztime=5s -run='^$' ./internal/partition/
    go test -fuzz=FuzzStoreEntry -fuzztime=5s -run='^$' ./internal/store/
    go test -fuzz=FuzzNodalVsDense -fuzztime=5s -run='^$' ./internal/spice/
    go test -fuzz=FuzzKernelsVsGo -fuzztime=5s -run='^$' ./internal/spice/
fi

echo "== compactlint =="
go run ./cmd/compactlint -budget 60s ./...

echo "OK"
