#!/usr/bin/env bash
# Regenerate the golden corpora from the current engine:
#   tests/golden/*.trc           — canonical text traces
#   tests/golden/store/<name>    — on-disk store format (pins the v1 byte layout)
#   tests/golden/localize/*.json — localization reports on the planted corpus
#   tests/golden/profile/*.json  — profiling reports on the planted corpus
#   tests/golden/analysis/*.txt  — `analyze` / `lint` stdout for every golden trace
#   tests/golden/explore/*.json  — `explore --json --jobs 1` reports (six search shapes)
#   tests/golden/cli/*.txt       — stdout, stderr and exit code of one invocation per
#                                  verb × input form, plus the error surface
# Review the resulting diff before committing — a blessed drift is a
# semantic change to the runtime or a break of store-format compatibility.
set -euo pipefail
cd "$(dirname "$0")/.."

BLESS=1 cargo test --offline --test golden "$@"
BLESS=1 cargo test --offline --test golden_store "$@"
BLESS=1 cargo test --offline --test golden_localize "$@"
BLESS=1 cargo test --offline --test golden_profile "$@"
echo "golden corpora re-blessed; review: git diff tests/golden/"
