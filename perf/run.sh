#!/usr/bin/env bash
# Builds the benchmark from source (a no-op when nothing changed) and runs one
# workload: perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Both binaries: SocketMp finds cgselect-shard-worker beside perf.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
export PERF_OUT_DIR="$here/out"
exec "$target/release/perf" "$@"
