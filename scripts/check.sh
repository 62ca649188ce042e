#!/usr/bin/env bash
# The full pre-push gate: formatting, clippy, the workspace lint pass,
# benchmark smoke + regression diff, and the test suite (once plain,
# once with the strict-invariants runtime hooks).
#
# Each stage is a function so CI can run them as separate jobs with the
# exact same commands developers run locally:
#
#   scripts/check.sh            # run every stage, in order
#   scripts/check.sh lint       # formatting + clippy + acdc-xtask lint
#   scripts/check.sh analyze    # write-scope / lock-order / thread-readiness
#   scripts/check.sh test       # root + core/netsim/workloads tests + packet proptests
#   scripts/check.sh strict     # tests under --features strict-invariants
#   scripts/check.sh chaos      # fault-injection suite (plain features)
#   scripts/check.sh workers    # parallel-datapath suite (plain + strict)
#   scripts/check.sh soak       # bounded soak smoke (plain + strict)
#   scripts/check.sh bench      # bench smoke + bench-diff vs BENCH_pr3.json
#   scripts/check.sh throughput # simulator pkts/sec gate vs BENCH_pr10.json
#
# Multiple stage names may be given and run in the order listed.
set -euo pipefail
cd "$(dirname "$0")/.."

stage_lint() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy (-D warnings)"
    cargo clippy --workspace --all-targets -- -D warnings

    echo "==> acdc-xtask lint"
    cargo run -q -p acdc-xtask -- lint

    echo "==> no expect/unwrap on wire-input parse paths (vswitch, core, tcp)"
    if grep -rnE '(try_meta|::parse)\([^)]*\)[[:space:]]*\.[[:space:]]*(unwrap|expect)\(' \
        crates/vswitch/src crates/core/src crates/tcp/src; then
        echo "error: wire-input parses must be fallible (drop + count), not unwrap/expect" >&2
        return 1
    fi
}

stage_analyze() {
    echo "==> acdc-xtask analyze (W-series: write-scope, lock-order, thread-readiness)"
    if ! cargo run -q -p acdc-xtask -- analyze; then
        # Re-run in JSON mode so the findings survive as a machine-readable
        # artifact (CI uploads target/acdc-analyze/ on failure).
        mkdir -p target/acdc-analyze
        cargo run -q -p acdc-xtask -- analyze --json \
            >target/acdc-analyze/findings.json || true
        echo "==> findings written to target/acdc-analyze/findings.json" >&2
        return 1
    fi
}

# The root package's suites plus the crates whose own tests nothing else
# runs (host glue, engine/wheel/token bucket, apps). Debug builds, so
# `debug_assert!` oracles such as the host's full-fold check are live.
TEST_PKGS=(-p acdc -p acdc-core -p acdc-netsim -p acdc-workloads)

stage_test() {
    echo "==> cargo test"
    cargo test -q "${TEST_PKGS[@]}"

    echo "==> packet pipeline proptests (meta/checksum coherence)"
    cargo test -q -p acdc-packet --test meta_coherence --test props
}

stage_bench() {
    echo "==> datapath benchmark smoke (scripts/bench.sh --smoke)"
    scripts/bench.sh --smoke --json /tmp/acdc-bench-smoke.json >/dev/null

    # Compare against the committed baseline. Smoke runs are short and
    # cross-machine numbers are noisy, so the gate here is looser than
    # bench-diff's 10% default (override with BENCH_DIFF_THRESHOLD).
    # Full-length runs on the baseline machine should use the default.
    echo "==> acdc-xtask bench-diff (vs committed BENCH_pr3.json)"
    local diff_args=(bench-diff BENCH_pr3.json /tmp/acdc-bench-smoke.json
        --threshold "${BENCH_DIFF_THRESHOLD:-25}")
    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
        diff_args+=(--summary "$GITHUB_STEP_SUMMARY")
    fi
    cargo run -q -p acdc-xtask -- "${diff_args[@]}"
}

stage_throughput() {
    # Simulated-packets/sec on the 100k-flow tier (timing wheel + segment
    # pool fast path, DESIGN.md §16). --throughput-only skips the ns/pkt
    # medians (those gate separately, vs BENCH_pr3.json in stage_bench):
    # the gate here is the simulator event loop, and the committed
    # throughput-only baseline opts exactly that one metric into
    # bench-diff's gate.
    echo "==> simulator throughput smoke (datapath_bench --smoke --throughput-only)"
    cargo build --release -q -p acdc-bench
    ./target/release/datapath_bench --smoke --throughput-only \
        --json /tmp/acdc-throughput-smoke.json >/dev/null

    # sim_pkts_per_sec is gated with higher_is_better=true: the diff
    # fails when the new run is *slower* than the committed baseline by
    # more than the threshold. Same noise story as stage_bench, so the
    # same loosened default (override with BENCH_DIFF_THRESHOLD).
    echo "==> acdc-xtask bench-diff (vs committed BENCH_pr10.json)"
    local diff_args=(bench-diff BENCH_pr10.json /tmp/acdc-throughput-smoke.json
        --threshold "${BENCH_DIFF_THRESHOLD:-25}")
    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
        diff_args+=(--summary "$GITHUB_STEP_SUMMARY")
    fi
    cargo run -q -p acdc-xtask -- "${diff_args[@]}"
}

stage_chaos() {
    echo "==> chaos suite (acdc-faults unit/integration + scenario tests)"
    cargo test -q -p acdc-faults
    cargo test -q --test chaos --test rto_backoff --test overload
}

stage_strict() {
    echo "==> cargo test --features strict-invariants"
    cargo test -q --features strict-invariants "${TEST_PKGS[@]}"

    echo "==> chaos suite under strict-invariants"
    cargo test -q --features strict-invariants --test chaos --test rto_backoff --test overload
}

stage_workers() {
    echo "==> worker engine suite (steering/merge determinism + batch paths)"
    cargo test -q -p acdc-workers

    echo "==> worker-vs-single-threaded equivalence under chaos"
    cargo test -q --test workers_equivalence

    echo "==> worker engine suite under strict-invariants"
    cargo test -q -p acdc-workers --features strict-invariants
    cargo test -q --features strict-invariants --test workers_equivalence
}

stage_soak() {
    # The bounded smoke tier: 2 s of virtual time with churn, a storm,
    # a reset and a checkpoint/restore cycle, watchdog-checked, at
    # worker counts 0/2/4, plus the checkpoint wire-format proptests.
    # The 1-hour acceptance soak stays behind --ignored (README § Soak).
    echo "==> soak smoke (churn + storms + checkpoint/restore, watchdogged)"
    cargo test -q -p acdc-soak
    cargo test -q -p acdc-vswitch --test checkpoint_props

    echo "==> soak smoke under strict-invariants"
    cargo test -q -p acdc-soak --features strict-invariants
}

ALL_STAGES=(lint analyze test bench throughput chaos workers soak strict)

run_stage() {
    case "$1" in
        lint | analyze | test | bench | throughput | chaos | workers | soak | strict) "stage_$1" ;;
        *)
            echo "error: unknown stage '$1' (expected: ${ALL_STAGES[*]})" >&2
            exit 2
            ;;
    esac
}

if [[ $# -eq 0 ]]; then
    for stage in "${ALL_STAGES[@]}"; do
        run_stage "$stage"
    done
    echo "All checks passed."
else
    for stage in "$@"; do
        run_stage "$stage"
    done
    echo "Stage(s) passed: $*"
fi
