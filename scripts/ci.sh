#!/usr/bin/env bash
# Full local CI gate. Run from anywhere; operates on the repo root.
#
#   build    release build of the whole workspace
#   fmt      rustfmt in check mode
#   clippy   all targets, warnings are errors
#   lint     xrdma-lint determinism/shard-safety pass (DESIGN.md §7):
#            regenerates results/lint.json and fails on any diagnostic
#            not in the committed baseline (crates/lint/lint.baseline),
#            on unused allow annotations, and on malformed annotations;
#            coverage spans the sim crates plus tests/, examples/ and
#            crates/bench
#   test     full suite across the feature matrix:
#              - default (telemetry compiled out)
#              - telemetry (event bus + exporters live)
#              - telemetry + debug_invariants (flight recorder wired to
#                the runtime invariant checkers)
#              - faults + telemetry + debug_invariants (fault injector
#                live: chaos suite + fault-plan property tests)
#              - threaded-engine leg: the sharding battery (all features)
#                run explicitly — the real middleware stack on threaded
#                ShardWorld lanes at shards {1,2,4,8}, byte-identical
#                digests/telemetry/span JSONL, loss-chaos recovery
#   simperf  smoke run of the event-kernel throughput race (wheel vs
#            legacy calendar) — results land in a temp dir so the
#            committed full-scale results/simperf.json stays untouched
#   rederive full-size runs of msgrate (CQ batching), latbreak (per-stage
#            latency breakdown, telemetry feature), chaos_recovery (fault
#            injector, faults feature) and qpscale (connection
#            multiplexing) into a temp dir; each JSON must be
#            byte-identical to its committed results/ copy, so CI
#            re-derives those numbers instead of only checking that
#            nobody edited the file
#   golden   the test legs must not have rewritten any committed golden
#            file (catches an XRDMA_UPDATE_GOLDEN leak or a determinism
#            break that slipped past the byte-compare tests)
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# rederive BIN [cargo args...]: full-size run of a bench bin into a temp
# dir, then byte-compare its JSON against the committed copy.
rederive() {
    local bin=$1 dir
    shift
    dir="$(mktemp -d)"
    run env XRDMA_RESULTS_DIR="$dir" cargo run -q --release -p xrdma-bench "$@" --bin "$bin"
    run cmp "$dir/$bin.json" "results/$bin.json"
}

run cargo build --release --workspace
run cargo build --release --workspace --features xrdma-bench/telemetry,xrdma-tests/telemetry
run cargo build --release --workspace --features xrdma-bench/faults,xrdma-tests/faults
run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo run -q --release -p xrdma-lint -- --format json --out results/lint.json
run cargo test -q --workspace
run cargo test -q --workspace --features xrdma-tests/telemetry
run cargo test -q --workspace --features xrdma-tests/telemetry,xrdma-tests/debug_invariants
run cargo test -q --workspace --features xrdma-tests/faults,xrdma-tests/telemetry,xrdma-tests/debug_invariants
run cargo test -q -p xrdma-tests --test sharding \
    --features xrdma-tests/faults,xrdma-tests/telemetry,xrdma-tests/debug_invariants
run env XRDMA_SIMPERF_SMOKE=1 XRDMA_RESULTS_DIR="$(mktemp -d)" \
    cargo run -q --release -p xrdma-bench --features xrdma-bench/faults --bin simperf
rederive msgrate
rederive latbreak --features xrdma-bench/telemetry
rederive chaos_recovery --features xrdma-bench/faults
rederive qpscale
run git diff --exit-code -- tests/golden results/simperf.json results/msgrate.json results/qpscale.json results/lint.json results/latbreak.json results/chaos_recovery.json

echo "==> ci.sh: all gates passed"
