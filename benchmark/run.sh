#!/usr/bin/env bash
# The repository's end-to-end benchmark.
#
#   benchmark/run.sh [--seed N] [--out FILE] [--repeat K] [--seconds S]
#       build, then run every workload untraced (end-to-end metrics) and
#       traced (per-layer metrics), check outputs, print every metric by
#       name with its unit and write FILE (default benchmark/out/results.json).
#       --repeat K runs K sets of the untraced part, each on another seed,
#       and exits non-zero if they disagree by more than the bounds.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, one JSON result object as the last line of stdout
#       (the form BENCHMARK.json's command takes).
#   benchmark/run.sh --check
#       validate BENCHMARK.json without running anything.
#
# Builds go to $CARGO_TARGET_DIR when set, else to target/ (the CLI) and
# benchmark/target/ (this crate). Everything but the results goes to stderr.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
cd "$root"

# A backtrace per simulated-process panic must not be part of a timing.
export RUST_BACKTRACE=0

if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) export CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
    esac
    cli_target=$CARGO_TARGET_DIR
    bench_target=$CARGO_TARGET_DIR
else
    cli_target=$root/target
    bench_target=$here/target
fi

build_started=$(date +%s.%N)
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
mode=run
for arg in "$@"; do
    case "$arg" in
        --check) mode=check ;;
        --workload) mode=single ;;
    esac
done
if [[ $mode == check ]]; then
    exec "$bench_target/release/tracedbg-benchmark" check "$root/BENCHMARK.json"
fi
cargo build --release --offline --manifest-path "$root/Cargo.toml" --bin tracedbg >&2
build_s=$(awk -v a="$build_started" -v b="$(date +%s.%N)" 'BEGIN { printf "%.3f", b - a }')

common=(--bin "$cli_target/release/tracedbg" --out-dir "$here/out")
if [[ $mode == single ]]; then
    exec "$bench_target/release/tracedbg-benchmark" "$@" "${common[@]}"
fi
exec "$bench_target/release/tracedbg-benchmark" suite "$@" "${common[@]}" --build-s "$build_s"
