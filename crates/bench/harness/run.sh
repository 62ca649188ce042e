#!/usr/bin/env bash
# Build the harness offline into its own target/ and run the whole set:
# six workloads, timed then traced, each in a fresh process, into one
# result file. Arguments are passed on to `acdc-harness run`
# (--seed N, --seconds S, --out FILE).
#
#   crates/bench/harness/run.sh
#   crates/bench/harness/run.sh --out /tmp/a.json
#   target/release/acdc-harness compare a.json b.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../.." && pwd)"

# From the repo root, so the offline `[patch]` table in .cargo/config.toml
# applies and BENCHMARK.json is where `compare` looks for it.
cd "$root"
cargo build --release --offline --manifest-path "$here/Cargo.toml"

bin="${CARGO_TARGET_DIR:-$here/target}/release/acdc-harness"
# A later --out among the arguments wins over this default.
exec "$bin" run --out "$here/results/$(date -u +%Y%m%dT%H%M%SZ).json" "$@"
