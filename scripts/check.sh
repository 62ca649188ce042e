#!/usr/bin/env bash
# The full pre-push gate: formatting, clippy, the workspace lint pass,
# the whole workspace's tests, and the benchmark harness gated on its
# deterministic rows.
#
# Each stage is a function so CI can run them as separate jobs with the
# exact same commands developers run locally:
#
#   scripts/check.sh            # run every stage, in order
#   scripts/check.sh lint       # formatting + clippy + acdc-xtask lint
#   scripts/check.sh test       # cargo test --workspace
#   scripts/check.sh harness    # acdc-harness self-tests + a short run, compared
#                               # against BENCH_harness.json on the exact rows
#
# Multiple stage names may be given and run in the order listed.
set -euo pipefail
cd "$(dirname "$0")/.."

stage_lint() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy (-D warnings -D unreachable_pub)"
    cargo clippy --workspace --all-targets -- -D warnings -D unreachable_pub

    echo "==> acdc-xtask lint"
    cargo run -q -p acdc-xtask -- lint
}

# Every test of every workspace member, in debug, so the `debug_assert!`
# oracles (the host's full-fold check, the protocol-state invariants of
# LINTS.md) are live: chaos, overload, workers-equivalence, the soak
# smoke, the checkpoint and table proptests and the xtask fixtures are
# all in here. (The hour-long acceptance soak stays behind --ignored;
# nightly.yml runs it.)
stage_test() {
    echo "==> cargo test --workspace"
    cargo test -q --workspace
}

HARNESS_MANIFEST=crates/bench/harness/Cargo.toml
HARNESS_BIN=crates/bench/harness/target/release/acdc-harness
HARNESS_BASELINE=BENCH_harness.json

# The lines of `acdc-harness compare` that fail the stage: a fingerprint
# or an exact row (sim.*, netsim.events_per_pkt, proc.allocs_per_pkt, ...)
# that differs from the baseline, a run that failed its own output checks,
# a failed-operation share that rose, a run absent from the fresh result.
# The wall-clock rows (`BREACH (bound N%)`, `unresolved`, `moved`) are
# printed and never gate: a 4 s run on a shared runner breaches them on
# noise alone, which is also why compare's exit status is not consulted.
HARNESS_GATED='MISMATCH|CHECK FAILED|may not rise|missing from'

# harness_gate A.json B.json: print compare's table of B against A;
# succeed iff it compared something and no line is gated.
harness_gate() {
    local table
    table="$("$HARNESS_BIN" compare "$1" "$2" || true)"
    printf '%s\n' "$table"
    grep -q '^[1-9][0-9]* metric pairs compared' <<<"$table" &&
        ! grep -qE "$HARNESS_GATED" <<<"$table"
}

stage_harness() {
    echo "==> build acdc-harness (offline, into its own target/)"
    cargo build --release --offline --quiet --manifest-path "$HARNESS_MANIFEST"

    # The gate is a filter over compare's verdict strings, so first prove
    # the filter still bites: should compare ever reword them, this fails
    # instead of the gate quietly passing everything.
    echo "==> gate self-check (baseline vs itself, vs one altered fingerprint, vs one altered sim.pkts)"
    local tmp
    tmp="$(mktemp -d /tmp/acdc-harness.XXXXXX)"
    sed '0,/"fingerprint": "[0-9a-f]*"/s//"fingerprint": "0000000000000000"/' \
        "$HARNESS_BASELINE" >"$tmp/fingerprint.json"
    sed '0,/"sim\.pkts": {"value": [0-9.]*/s//"sim.pkts": {"value": 1/' \
        "$HARNESS_BASELINE" >"$tmp/sim_pkts.json"
    if ! harness_gate "$HARNESS_BASELINE" "$HARNESS_BASELINE" >/dev/null; then
        echo "error: $HARNESS_BASELINE does not pass the gate against itself" >&2
        return 1
    fi
    local altered
    for altered in fingerprint sim_pkts; do
        if harness_gate "$HARNESS_BASELINE" "$tmp/$altered.json" >/dev/null; then
            echo "error: the gate passed a baseline copy with an altered $altered" >&2
            return 1
        fi
    done
    rm -rf "$tmp"

    echo "==> acdc-harness self-tests"
    cargo test --offline --quiet --manifest-path "$HARNESS_MANIFEST"

    echo "==> acdc-harness run --seconds 4 (six workloads, timed then traced)"
    # The traced children write their spans beside the result while it
    # is still being gathered, so its directory has to exist up front.
    local fresh=target/acdc-harness/fresh.json
    mkdir -p "${fresh%/*}"
    "$HARNESS_BIN" run --seconds 4 --out "$fresh"

    echo "==> acdc-harness compare $HARNESS_BASELINE $fresh (gated: $HARNESS_GATED)"
    local table verdict=0
    table="$(harness_gate "$HARNESS_BASELINE" "$fresh")" || verdict=1
    printf '%s\n' "$table"
    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
        printf '### acdc-harness vs %s\n\nFails on `%s` only; timings are informational.\n\n```\n%s\n```\n' \
            "$HARNESS_BASELINE" "$HARNESS_GATED" "$table" >>"$GITHUB_STEP_SUMMARY"
    fi
    if [[ $verdict -ne 0 ]]; then
        echo "error: a deterministic row moved against $HARNESS_BASELINE (lines matching: $HARNESS_GATED)" >&2
        return 1
    fi
}

ALL_STAGES=(lint test harness)

run_stage() {
    case "$1" in
        lint | test | harness) "stage_$1" ;;
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
