#!/bin/sh
# ci.sh — the canonical check for this repository.
#
# Runs static analysis, a full build, the test suite under the race
# detector, and a short budget of both fuzz targets. Everything here must
# pass before a change lands.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
# Every Go file, the nested benchmark/ module included, must be gofmt-clean.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "ci.sh: gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go vet =="
go vet ./...

echo "== opcode exhaustiveness: names, dispatch, transfer, value types =="
# Every opcode needs an opNames mnemonic equal to its constant's name, a
# VM dispatch case, a case in the analysis's transfer switch (step), and
# a case in its value-type table (opValueKind, so typed-shape inference
# never silently weakens). Each rule also has a test that feeds its
# checker a source with one case missing and expects that opcode back.
go test -count=1 -run 'CoversEveryOp|CoverageReportsMissingOp' ./internal/bytecode ./internal/vm ./internal/analysis

echo "== go build =="
go build ./...

echo "== unsafe: confined to the value representation =="
# objects.Value packs pointers and payloads by hand (DESIGN.md, "Value
# layout"). Only internal/objects/value.go may import unsafe, so every
# pointer conversion sits in one file; test files may import it to
# measure sizes.
unsafe_users=$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' \
  -exec grep -lE '^[[:space:]]*(import[[:space:]]+)?([A-Za-z_][A-Za-z0-9_]*[[:space:]]+)?"unsafe"' {} + |
  grep -v '^\./internal/objects/value\.go$' || true)
if [ -n "$unsafe_users" ]; then
  echo "ci.sh: only internal/objects/value.go may import unsafe; also imported by:" >&2
  echo "$unsafe_users" >&2
  exit 1
fi

echo "== deps: the library links no network stack and no encoding/json =="
# The records live beside the code cache on one host (DESIGN.md §13), so
# the ricjs package needs no HTTP client or TLS; linking them costs every
# binary that imports it several MB of text and resident memory. Records
# have their own binary codec, so the library needs no reflection-based
# JSON either: only internal/bench and cmd/perfgate emit JSON.
bad_deps=$(go list -deps . | grep -xE 'net/http|crypto/tls|encoding/json' || true)
if [ -n "$bad_deps" ]; then
  echo "ci.sh: the ricjs package must not depend on:" >&2
  echo "$bad_deps" >&2
  exit 1
fi

echo "== go test -race =="
# -race also enables checkptr, so this step checks every unsafe.Pointer
# conversion in objects.Value (alignment, and that each pointer stays
# inside the allocation it came from) on every path the tests execute.
go test -race ./...

echo "== pool stress: concurrent record serving under -race =="
# The session-pool and code-cache stress tests are the concurrency
# gate: 48 sessions over 6 shared keys must produce exactly one
# extraction per key and byte-identical output, with zero races. The
# pool tests run at GOMAXPROCS 1 and 4, so the record cache's sync.Map
# is stressed both interleaved on one P and in parallel. The pattern also
# takes TestSessionPoolStoreFaultsUnderRace, so the ladder's store-fault
# rungs run concurrently under -race, and the TestSessionPoolEvict* tests,
# so records are evicted, reloaded and published by four goroutines at
# once while hot keys are read lock-free. The realm tests ride along:
# engines copied from the one builtin template must match a direct
# construction and share no mutable state. The code cache's eviction
# test (TestEvictUnderConcurrentLoad) runs beside its concurrent-load
# tests.
go test -race -count=1 -cpu 1,4 -run 'TestSessionPool|TestSharedRecordImmutableUnderConcurrentReuse|TestSharedRecordValidateConcurrent|TestRealmIsolation|TestRealmCloneMatchesConstruction' . ./internal/vm
go test -race -count=1 -run 'TestConcurrentLoad|TestEvict' ./internal/codecache

echo "== progen differential sweep: fixed seed range =="
# Seeds 200-260 are dense in keyed-element, delete-to-dictionary, and
# prototype-call statement kinds: plain, Conventional and RIC Reuse must
# agree on every one of them.
go test -count=1 -run 'TestProgenDifferential' ./internal/progen

echo "== golden traces: drift check =="
# The committed per-workload event summaries under testdata/traces/ must
# match what the engine emits today. Regenerate deliberately with
#   go test -run TestGoldenTraces -update .
# Every workload must carry BOTH phases: a missing initial or reuse
# golden is a gap the drift test alone cannot see (it only diffs files
# the current test list produces).
for g in testdata/traces/*.initial.golden; do
  base="${g%.initial.golden}"
  if [ ! -f "$base.reuse.golden" ]; then
    echo "ci.sh: $base has an initial golden but no reuse golden" >&2
    exit 1
  fi
done
for g in testdata/traces/*.reuse.golden; do
  base="${g%.reuse.golden}"
  if [ ! -f "$base.initial.golden" ]; then
    echo "ci.sh: $base has a reuse golden but no initial golden" >&2
    exit 1
  fi
done
go test -count=1 -run 'TestGoldenTraces|TestTraceDeterminism' .

echo "== golden analysis results: drift check =="
# The committed static-analysis results under
# internal/analysis/testdata/results/ (shape graph, site verdicts,
# predicted shape ids, slot types for every profile and Website1) must
# match what Analyze produces today, and two analyses of the progen
# corpus must agree. Regenerate deliberately with
#   go test ./internal/analysis -run TestGoldenResults -update
go test -count=1 -run 'TestGoldenResults|TestAnalyzeDeterministic' ./internal/analysis
# Frame states and locals chunks come from an arena each runFn call
# recycles. With every recycled stack and chunk poisoned to ⊤ on reset,
# the same goldens and the determinism check must still pass, so nothing
# outlives the call that built it; and analyses running on 4 goroutines
# at once must render exactly as sequential ones, with zero races.
go test -race -count=1 -run 'TestFrameArenaPoisoned|TestAnalyzeConcurrent' ./internal/analysis

echo "== analysis benchmarks: smoke =="
# One iteration of each offline-statics benchmark, so the benchmarks
# EXPERIMENTS.md quotes keep building and running.
go test -run '^$' -bench 'BenchmarkAnalyze|BenchmarkAttachTypedShapes' -benchtime 1x ./internal/analysis ./internal/ric

echo "== coverage floors =="
# Statement-coverage floors for the observability-critical packages, set
# just below the levels measured when the trace layer landed. Raising
# coverage moves the floor; silently shedding tests fails the build.
check_cover() {
  pkg="$1"; floor="$2"
  pct=$(go test -cover "$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
  if [ -z "$pct" ]; then
    echo "ci.sh: no coverage figure for $pkg" >&2
    exit 1
  fi
  if [ "$(awk -v p="$pct" -v f="$floor" 'BEGIN { print (p < f) }')" = 1 ]; then
    echo "ci.sh: coverage of $pkg fell to $pct% (floor $floor%)" >&2
    exit 1
  fi
  echo "$pkg ${pct}% (floor ${floor}%)"
}
check_cover ./internal/ic 98.0
check_cover ./internal/vm 85.0
check_cover ./internal/ric 87.5
check_cover ./internal/trace 93.0
check_cover ./internal/analysis 72.0
check_cover ./internal/objects 78.0

echo "== riclint: offline record verification =="
# Truthful fixtures must pass all four layers (integrity, site existence,
# static cross-check, typed-shape soundness)...
go run ./cmd/riclint -js lib.js=testdata/point.js testdata/point.ric testdata/array.ric testdata/point-typed.ric
# The workload-zoo regime fixtures ride the same sweep: a keyed-IC record
# (element + array-length + keyed-named handlers) and a dictionary-mode
# record (fast shapes recorded before delete-demotion). Regenerate with
#   RIC_REGEN_FIXTURES=1 go test ./internal/ric/ -run TestRegenerateZooFixtures
go run ./cmd/riclint -js keyed.js=testdata/keyed.js testdata/keyed.ric
go run ./cmd/riclint -js dict.js=testdata/dict.js testdata/dict.ric
# ...and every fault-injected fixture must be rejected without executing:
# remapped ids and skewed offsets by the analysis cross-check, forged
# slot-type claims by the typed recomputation, corrupt bytes at decode.
for bad in point-remap point-offsets point-badversion point-bitflip point-truncated point-forgedclaim point-badtype; do
  if go run ./cmd/riclint -js lib.js=testdata/point.js "testdata/$bad.ric" >/dev/null 2>&1; then
    echo "ci.sh: riclint accepted lying fixture $bad.ric" >&2
    exit 1
  fi
done
# The forged keyed record moves an element handler onto a non-array
# shape; only the static cross-check can catch it, so the source map is
# required for the rejection to be meaningful.
if go run ./cmd/riclint -js keyed.js=testdata/keyed.js testdata/keyed-forged.ric >/dev/null 2>&1; then
  echo "ci.sh: riclint accepted lying fixture keyed-forged.ric" >&2
  exit 1
fi

echo "== ricjs CLI: plain, -record and -reuse runs agree =="
# ricjs is the one interactive inspection tool. For each fixture a plain
# run, a -record run and a -reuse -stats -icstate run must print the same
# non-empty program output (statistics and IC state go to stderr), and
# reusing point.js's record must avert IC misses.
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go build -o "$smoke/ricjs" ./cmd/ricjs
for js in point keyed dict values; do
  "$smoke/ricjs" "testdata/$js.js" >"$smoke/$js.plain"
  "$smoke/ricjs" -record "$smoke/$js.ric" "testdata/$js.js" >"$smoke/$js.record" 2>/dev/null
  "$smoke/ricjs" -reuse "$smoke/$js.ric" -stats -icstate "testdata/$js.js" >"$smoke/$js.reuse" 2>"$smoke/$js.stderr"
  if [ ! -s "$smoke/$js.plain" ] || ! cmp -s "$smoke/$js.plain" "$smoke/$js.record" ||
    ! cmp -s "$smoke/$js.plain" "$smoke/$js.reuse"; then
    echo "ci.sh: ricjs stdout for $js.js is empty or differs across plain, -record and -reuse runs" >&2
    exit 1
  fi
done
averted=$(sed -n 's/.* \([0-9][0-9]*\) misses averted.*/\1/p' "$smoke/point.stderr")
if [ -z "$averted" ] || [ "$averted" -eq 0 ]; then
  echo "ci.sh: ricjs -reuse on point.js averted no IC misses" >&2
  exit 1
fi
echo "ricjs: 4 fixtures agree; point.js averted $averted misses"

echo "== perf gate: deterministic counters vs BENCH_baseline.json =="
# Instruction counts and record sizes are bit-for-bit reproducible, so
# they are gated exactly (tolerance 2%), with zero flake; wall-clock
# timings are deliberately not gated here (benchmark/ owns wall time).
# After a legitimate improvement, refresh and commit the baseline:
#   go run ./cmd/ricbench -format json | go run ./cmd/perfgate -write
go run ./cmd/ricbench -format json | go run ./cmd/perfgate

echo "== benchmark module: vet + smoke test =="
# benchmark/ is a nested module, so the root go vet and go test never
# build it. Its smoke test runs every BENCHMARK.json workload briefly
# against the node-generated reference outputs and fails on any failed
# or mismatched session, so an engine API change or a pool regression
# that breaks the benchmark fails here.
(cd benchmark && go vet ./... && go test -count=1 ./...)

echo "== fuzz: FuzzDecodeRecord (10s) =="
go test -run '^$' -fuzz '^FuzzDecodeRecord$' -fuzztime 10s ./internal/ric/

echo "== fuzz: FuzzReuseRun (10s) =="
go test -run '^$' -fuzz '^FuzzReuseRun$' -fuzztime 10s .

echo "ci.sh: all checks passed"
