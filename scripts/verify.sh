#!/usr/bin/env bash
# Full offline verification: what CI runs, what a PR must keep green.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --offline --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --offline --release

echo "==> cli surface: every error is one line on stderr and exit 1; flag values and names mean one thing"
bin=$PWD/target/release/tracedbg
rm -rf target/verify_cli && mkdir -p target/verify_cli
"$bin" explore planted-wildcard --procs 4 --runs 48 --seed 7 --out target/verify_cli >/dev/null || true
cli_art=$(ls target/verify_cli/planted-wildcard-panic-*.sched.json | head -n 1)
head -c 100 "$cli_art" > target/verify_cli/truncated.sched.json
"$bin" localize --schedule "$cli_art" --out target/verify_cli/report.json >/dev/null
sed 's/"version":2/"version":99/' target/verify_cli/report.json > target/verify_cli/v99.json
head -c 200000 /dev/zero | tr '\0' '[' > target/verify_cli/deep.json
"$bin" profile ring --procs 32 --out target/verify_cli/ring32.json >/dev/null
# expect_error <what the one stderr line must contain> <args...>
expect_error() {
  local want=$1 status=0; shift
  "$bin" "$@" >target/verify_cli/stdout 2>target/verify_cli/stderr || status=$?
  if [ "$status" -ne 1 ] || [ -s target/verify_cli/stdout ] \
      || [ "$(wc -l < target/verify_cli/stderr)" -ne 1 ] \
      || ! grep -q "^error: .*$want" target/verify_cli/stderr \
      || grep -q panicked target/verify_cli/stderr; then
    echo "tracedbg $*: want exit 1, empty stdout and one 'error: ...$want' line; got exit $status:" >&2
    cat target/verify_cli/stdout target/verify_cli/stderr >&2
    exit 1
  fi
}
expect_error 'unknown command' frobnicate
expect_error 'unknown workload "no-such-workload"' run no-such-workload
expect_error 'unknown builtin script "nope"' run sdl:nope
expect_error 'cannot open tests/golden/nope.trc' view tests/golden/nope.trc
expect_error 'tests/golden/store/nope/manifest.tds' query tests/golden/store/nope
expect_error 'bad --window 5:1: lo > hi' query tests/golden/store/lu --window 5:1 --count
expect_error 'usage: tracedbg replay' replay
expect_error 'bad schedule artifact' replay --schedule target/verify_cli/truncated.sched.json
expect_error 'version 99 unsupported' replay --schedule "$cli_art" --to-suspect target/verify_cli/v99.json
# Hostile JSON is refused, not a stack overflow (exit 134) or a panic (101).
expect_error 'nesting deeper than 128' replay --schedule target/verify_cli/deep.json
expect_error 'nesting deeper than 128' replay --schedule "$cli_art" --to-suspect target/verify_cli/deep.json
expect_error '32 markers given, 4 processes' replay --schedule "$cli_art" --to-critical-path target/verify_cli/ring32.json
# Replay's three modes are one group: a second mode is refused, not dropped.
expect_error 'replay takes --to-suspect or --to-critical-path, not both' \
  replay --schedule "$cli_art" --to-suspect target/verify_cli/report.json \
  --to-critical-path target/verify_cli/ring32.json
# A flag value that does not parse is an error, not the default ...
expect_error '--procs: bad value "abc"' run ring --procs abc
expect_error '--runs: bad value "lots"' explore ring --runs lots
# ... and a name `tracedbg workloads` lists is that workload whatever the
# working directory holds: `./ring` is the (empty) stray file.
touch target/verify_cli/ring
# (Captured, not piped into `grep -q`: see the analyze stage.)
by_name=$(cd target/verify_cli && "$bin" stats ring --procs 4)
by_path=$(cd target/verify_cli && "$bin" stats ./ring)
printf '%s' "$by_name" | grep -q '^outcome: Completed' \
  || { echo "a stray file named ring hijacked 'stats ring'" >&2; exit 1; }
printf '%s' "$by_path" | grep -q '0 events, 0 ranks' \
  || { echo "'stats ./ring' did not read the file ./ring" >&2; exit 1; }
expect_error 'view takes trace.trc | trace.tbin | store-dir, not the workload "ring"' view ring
# A flag the verb's synopsis does not declare is refused, never ignored;
# a count or a window a verb cannot honour is refused, never clamped ...
expect_error 'run takes no flag --porcs (usage: tracedbg run ' run ring --porcs 4
expect_error 'run takes no flag --metrics' run stencil --metrics F
# A recorded trace has no decision log: `stats --metrics` of one writes
# nothing and says so.
expect_error 'stats --metrics needs a workload: a recorded trace has no decision log' \
  stats tests/golden/ring.trc --metrics target/verify_cli/trace-metrics.json
[ ! -e target/verify_cli/trace-metrics.json ] \
  || { echo "stats <trace> --metrics wrote a metrics file" >&2; exit 1; }
expect_error 'racy-wildcard runs at most 16 ranks, not 64' explore racy-wildcard --procs 64
expect_error 'bad --window 5:1: lo > hi' view tests/golden/ring.trc --window 5:1
# ... and so is what else the synopsis rules out: a surplus positional,
# two flags of one [--a | --b] group, a value outside a declared set.
expect_error 'view takes no further argument "tests/golden/nope.trc"' \
  view tests/golden/ring.trc tests/golden/nope.trc
expect_error 'bench takes no further argument "x"' bench x
expect_error 'analyze takes --json or --dot, not both' analyze sdl:pairs --json --dot
expect_error 'query takes --rank or --tag, not both' query tests/golden/store/lu --rank 1 --tag 2
expect_error 'graph --format takes dot|vcg, not "xyz"' \
  graph tests/golden/strassen.trc --kind call --format xyz
expect_error 'explore --strategy takes random|systematic|both, not "dfs"' \
  explore ring --strategy dfs
expect_error 'profile takes no flag --jobs' profile ring --jobs 2
# ... a boolean flag never takes the next word as its value ...
"$bin" lint --json tests/golden/ring.trc >/dev/null
# ... and `--help` or a refused flag runs no verb: `bench` in an empty
# directory leaves it empty.
empty=target/verify_cli/empty && mkdir -p "$empty"
help=$(cd "$empty" && "$bin" bench --help)
status=0; (cd "$empty" && "$bin" bench --frobnicate >/dev/null 2>&1) || status=$?
{ [ "${help#usage: tracedbg bench }" != "$help" ] && [ "$status" -eq 1 ] \
    && [ -z "$(ls -A "$empty")" ]; } \
  || { echo "bench --help / --frobnicate: want usage + exit 0, exit 1, no file; got exit $status" >&2; exit 1; }

echo "==> cargo test -q"
cargo test --offline -q

echo "==> flake: bench-lib and store test binaries, the engine, race, step, launch and metering width gates, 20 consecutive green runs"
# Tests that share scratch state, and timing gates with thin margins (a
# stencil record at 1024 ranks <= 3x one at 64; race detection on 2x the
# wildcard receives <= 2.5x; a debugger step at 1024 ranks <= 3x one at
# 64; a session launch at 4096 ranks <= 6x one at 1024; a metered
# 1024-rank run <= 1.15x an unmetered one), only fail some of the time;
# one pass of `cargo test` cannot tell.
# Fail on the first red run.
for i in $(seq 1 20); do
  cargo test --offline -q -p tracedbg-bench --lib >/dev/null 2>&1 \
    || { echo "flake stage: tracedbg-bench --lib failed on run $i" >&2; exit 1; }
  cargo test --offline -q -p tracedbg-store >/dev/null 2>&1 \
    || { echo "flake stage: tracedbg-store failed on run $i" >&2; exit 1; }
  cargo test --offline --release -q --test width_scaling a_record_costs_the_same \
      -- --test-threads 1 >/dev/null 2>&1 \
    || { echo "flake stage: width_scaling engine gate failed on run $i" >&2; exit 1; }
  cargo test --offline --release -q --test width_scaling race_detection_is_linear \
      -- --test-threads 1 >/dev/null 2>&1 \
    || { echo "flake stage: width_scaling race gate failed on run $i" >&2; exit 1; }
  cargo test --offline --release -q --test width_scaling a_step_costs_the_same \
      -- --test-threads 1 >/dev/null 2>&1 \
    || { echo "flake stage: width_scaling step gate failed on run $i" >&2; exit 1; }
  cargo test --offline --release -q --test width_scaling \
      -- a_session_launch_grows a_metered_run_costs --test-threads 1 >/dev/null 2>&1 \
    || { echo "flake stage: width_scaling launch or metering gate failed on run $i" >&2; exit 1; }
done

echo "==> benchmark crate: builds and passes against the current public API, untouched"
# benchmark/ is a separate workspace with its own lockfile: a removed
# public item or a changed dependency graph must fail here, not in the
# benchmark pipeline.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline -q --manifest-path benchmark/Cargo.toml
git diff --exit-code -- benchmark BENCHMARK.json tests/golden/store

echo "==> lint smoke: seed workloads must be clean"
./target/release/tracedbg run ring --trace target/verify_ring.trc >/dev/null
./target/release/tracedbg lint target/verify_ring.trc
./target/release/tracedbg lint script:examples/scripts/pingpong.script --procs 4

echo "==> store smoke: ingest/query round-trip, run --store, corruption battery, wide-query memory ceiling"
rm -rf target/verify_store target/verify_store_run
./target/release/tracedbg ingest target/verify_ring.trc --out target/verify_store >/dev/null
# The store must render exactly the trace it was built from.
diff <(./target/release/tracedbg view target/verify_ring.trc) \
     <(./target/release/tracedbg view target/verify_store) >/dev/null \
  || { echo "store view diverged from the source trace" >&2; exit 1; }
# One query per index family; each touches only its own index section.
for sel in "--rank 0" "--tag 20" "--kind SN" "--window 0:100000"; do
  ./target/release/tracedbg query target/verify_store $sel --count \
    | grep -q 'match(es)' \
    || { echo "store query $sel failed" >&2; exit 1; }
done
# `run --store`: the store written from a run's trace renders the same
# trace as the one recorded to .trc (the engine is deterministic).
./target/release/tracedbg run ring --store target/verify_store_run >/dev/null
diff <(./target/release/tracedbg view target/verify_ring.trc) \
     <(./target/release/tracedbg view target/verify_store_run) >/dev/null \
  || { echo "run --store diverged from the recorded trace" >&2; exit 1; }
# Corruption robustness: typed-error battery incl. the byte-flip fuzz loop.
cargo test --offline -q -p tracedbg-store --test corruption >/dev/null
# At the benchmark's size (80,016 events: one full 65,536-frame segment
# and a tail) the three planes of one run — the .tbin, the store `run
# --store` wrote, the store `ingest` builds from the .tbin — must render
# byte-identically under every analysis verb.
big=target/verify_store_big
rm -rf "$big" && mkdir -p "$big"
./target/release/tracedbg run random:16000 --procs 8 --seed 3 --store "$big/run" >/dev/null
./target/release/tracedbg run random:16000 --procs 8 --seed 3 --trace "$big/x.tbin" >/dev/null
./target/release/tracedbg ingest "$big/x.tbin" --out "$big/ingested" >/dev/null
./target/release/tracedbg ingest "$big/x.tbin" --out "$big/again" >/dev/null
render() { # <verb> <plane> <args...>: the verb's stdout, provenance normalized
  local verb=$1 plane=$2; shift 2
  ./target/release/tracedbg "$verb" "$plane" "$@" \
    | sed 's/"source":"[a-z]*"/"source":"x"/; s/"workload":"[^"]*"/"workload":"x"/; s/"digest":[0-9]*/"digest":0/'
}
for verb in stats lint "view --width 120" "profile --json"; do
  # shellcheck disable=SC2086  # $verb carries its flags
  set -- $verb
  want=$(render "$1" "$big/x.tbin" "${@:2}")
  [ -n "$want" ] || { echo "$verb of the 80k-event .tbin printed nothing" >&2; exit 1; }
  for plane in run ingested; do
    [ "$(render "$1" "$big/$plane" "${@:2}")" = "$want" ] \
      || { echo "$verb diverged between x.tbin and the $plane store at 80k events" >&2; exit 1; }
  done
done
# One trace, one store image: `run --store` and `ingest` both write the
# finished trace in canonical order, so the two stores are the same
# bytes, file by file (a file only one of them wrote fails the `cmp`);
# every selection's count agrees, and so does `ingest` with itself.
for f in "$big"/ingested/*.tds "$big"/run/*.tds; do
  cmp -s "$big/run/$(basename "$f")" "$big/ingested/$(basename "$f")" \
    || { echo "run --store and ingest differ in $(basename "$f")" >&2; exit 1; }
done
for sel in "--rank 3" "--tag 2" "--kind RD" "--window 0:1000000" "--window 140000000:150000000"; do
  # shellcheck disable=SC2086
  a=$(./target/release/tracedbg query "$big/run" $sel --count | tail -n 1)
  # shellcheck disable=SC2086
  b=$(./target/release/tracedbg query "$big/ingested" $sel --count | tail -n 1)
  [ -n "$a" ] && [ "$a" = "$b" ] \
    || { echo "query $sel: run --store says '$a', ingest says '$b'" >&2; exit 1; }
done
for f in "$big"/ingested/*.tds; do
  cmp -s "$f" "$big/again/$(basename "$f")" \
    || { echo "two ingests of one .tbin differ in $(basename "$f")" >&2; exit 1; }
done
# A selection holds its own frames, never a segment: over 862,208 events
# in 14 segments (73 MB), a rank query answers under a 24 MiB
# address-space ceiling (a reader that loads whole segments needs more
# than 48 MiB there).
wide=target/verify_store_wide
rm -rf "$wide"
./target/release/tracedbg run stencil --procs 16384 --store "$wide" >/dev/null
wide_count=$( (ulimit -v 24576 && ./target/release/tracedbg query "$wide" --rank 7 --count) | tail -n 1)
case "$wide_count" in
  *"match(es)"*) ;;
  *) echo "query --rank 7 over the 862k-event store failed under a 24 MiB ceiling: '$wide_count'" >&2; exit 1 ;;
esac
rm -rf "$wide"
# Advisory, like the perf gate: the indexed plane should not lose to the
# flat file it indexes (best of five walls each, ms).
wall_ms() {
  local best=999999 t0 t1 i
  for i in 1 2 3 4 5; do
    t0=$(date +%s%N); "$@" >/dev/null; t1=$(date +%s%N)
    [ $(( (t1 - t0) / 1000 )) -lt "$best" ] && best=$(( (t1 - t0) / 1000 ))
  done
  awk -v us="$best" 'BEGIN { printf "%.1f", us / 1000 }'
}
store_ms=$(wall_ms ./target/release/tracedbg stats "$big/run")
tbin_ms=$(wall_ms ./target/release/tracedbg stats "$big/x.tbin")
echo "    stats at 80k events: store dir ${store_ms} ms, .tbin ${tbin_ms} ms"
if awk -v s="$store_ms" -v t="$tbin_ms" 'BEGIN { exit !(s > t) }'; then
  echo "WARNING: stats over the store is slower than over the .tbin (advisory)" >&2
fi

echo "==> analyze smoke: static analysis renders, JSON schema keys, static = dynamic on the SDL fixtures, one-definition gates, DPOR findings identity"
./target/release/tracedbg analyze sdl:ring --procs 4 >/dev/null
# Capture instead of piping into `grep -q`: an early-exiting reader would
# hit the writer with a broken pipe mid-print.
dot=$(./target/release/tracedbg analyze sdl:ring --procs 4 --dot)
printf '%s' "$dot" | grep -q 'digraph' \
  || { echo "analyze --dot did not emit a digraph" >&2; exit 1; }
for wl in sdl:ring sdl:racy-wildcard; do
  out=$(./target/release/tracedbg analyze "$wl" --procs 4 --json)
  for key in '"workload"' '"nprocs"' '"complete"' '"sites"' '"may_match"' \
      '"independent_rank_pairs"' '"deadlocked_ranks"'; do
    printf '%s' "$out" | grep -q "$key" \
      || { echo "analyze $wl --json is missing $key" >&2; exit 1; }
  done
done
# Static = dynamic: what `lint` / `analyze` say of a script is what `run`
# does. One fixture per answer the static copies of the SDL semantics used
# to get wrong (tests/golden/scripts/*.script, each says what it pins).
sdl_fixture() { # <verb> <name>: stdout+stderr in $out, exit status in $status
  status=0
  out=$(./target/release/tracedbg "$1" "script:tests/golden/scripts/$2.script" --procs 4 2>&1) || status=$?
}
for f in left-neighbour status-src wide-loop shadowed-rank; do
  sdl_fixture analyze "$f"
  [ "$status" -eq 0 ] || { echo "analyze $f.script: exit $status" >&2; exit 1; }
done
# (a) `%` truncates: rank 0's left neighbour is -1, statically and at run time.
sdl_fixture lint left-neighbour
{ [ "$status" -eq 1 ] && printf '%s' "$out" | grep -q 'SDL102.*receive from rank -1'; } \
  || { echo "lint left-neighbour.script did not report rank -1 (exit $status)" >&2; exit 1; }
sdl_fixture analyze left-neighbour
printf '%s' "$out" | grep -q 'rank 0 .*recv <- {-1}' \
  || { echo "analyze left-neighbour.script does not show {-1}" >&2; exit 1; }
sdl_fixture run left-neighbour
printf '%s' "$out" | grep -q 'recv from bad rank -1' \
  || { echo "run left-neighbour.script did not die of bad rank -1" >&2; exit 1; }
# (b) a receive rebinds `v_src`: clean, and it runs to completion.
sdl_fixture lint status-src
{ [ "$status" -eq 0 ] && [ "$out" = "clean: no diagnostics" ]; } \
  || { echo "lint status-src.script is not clean: $out" >&2; exit 1; }
sdl_fixture run status-src
printf '%s' "$out" | grep -q '^outcome: Completed' \
  || { echo "run status-src.script did not complete" >&2; exit 1; }
# (c) a trip count past 64 bits: no panic, and the self-send after the
# loop is still seen (never `run`: it would not end).
sdl_fixture lint wide-loop
{ [ "$status" -eq 0 ] && printf '%s' "$out" | grep -q 'SDL105.*rank 0 sends a message to itself'; } \
  || { echo "lint wide-loop.script lost the send after the loop (exit $status)" >&2; exit 1; }
# (d) builtins win over bindings: rank 1 sends to itself, rank 0 deadlocks.
sdl_fixture lint shadowed-rank
{ [ "$status" -eq 1 ] && printf '%s' "$out" | grep -q 'SDL105.*rank 1 sends a message to itself' \
    && printf '%s' "$out" | grep -q 'SDL107.*rank(s) 0 '; } \
  || { echo "lint shadowed-rank.script honoured the shadowing let (exit $status)" >&2; exit 1; }
sdl_fixture run shadowed-rank
{ printf '%s' "$out" | grep -q '^outcome: Deadlocked' \
    && printf '%s' "$out" | grep -q 'LOST: P1 -> P1'; } \
  || { echo "run shadowed-rank.script did not self-send and deadlock" >&2; exit 1; }
# No lint / analyze of any script in the tree panics (exit 101).
for spec in sdl:ring sdl:pairs sdl:racy-wildcard sdl:racy-deadlock \
    script:examples/scripts/pingpong.script; do
  for verb in lint analyze; do
    status=0
    ./target/release/tracedbg "$verb" "$spec" --procs 4 >/dev/null 2>&1 || status=$?
    [ "$status" -le 1 ] || { echo "$verb $spec: exit $status" >&2; exit 1; }
  done
done
# One definition of the SDL semantics at each level, by count over
# non-test sources: the evaluator in workloads::script, the abstract walk
# in analysis::graph, no interpreter or private analysis left in the rules.
count() { # <pattern> <path...>: matching lines
  local pat=$1; shift
  { grep -rhE -- "$pat" "$@" || true; } | wc -l
}
gate() { # <what> <count> <op> <bound>
  [ "$2" "$3" "$4" ] || { echo "semantics gate: $1 is $2, want $3 $4" >&2; exit 1; }
}
src=(crates/*/src)
# (the pretty-printer's `=> format!` arm is not an evaluator)
gate "evaluating Expr::Mod arms" "$(count 'Expr::Mod\(a, b\) => [^f]' "${src[@]}")" -eq 1
gate "fn merge_env" "$(count 'fn merge_env' "${src[@]}")" -eq 1
gate "fn eval_cond" "$(count 'fn eval_cond' "${src[@]}")" -le 1
for cap in STEP_CAP LOOP_CAP DEPTH_CAP; do
  gate "$cap definitions" "$(count "const $cap:" "${src[@]}")" -eq 1
done
gate "StmtKind::Loop arms in lint + analysis" "$(count 'StmtKind::Loop' crates/lint/src crates/analysis/src)" -le 2
gate "private walks in script_rules.rs" "$(count 'summarize\(|tracedbg_analysis::analyze\(' crates/lint/src/script_rules.rs)" -eq 0
gate "rem_euclid in lint + analysis" "$(count 'rem_euclid' crates/lint/src crates/analysis/src)" -eq 0
gate "script_rules.rs lines" "$(wc -l < crates/lint/src/script_rules.rs)" -le 650
# One record of a run's nondeterminism (the decision log), one way a
# trace record leaves its rank's buffer and one call that checkpoints a run
# part-way (`run_to_snapshot`): the second copies stay deleted, and so do
# the explorer's prefix pruning, which could not fire, the span ring, the
# numeric spans a finding's flight lines went through and the cost model
# no caller set.
for gone in MatchRecorder FlushHandle advance_to next_for set_replay_delta \
    set_snapshot_at take_pending_snapshot checkpoints_enabled hash_decisions \
    prefix_pruned FlightRecorder SpanKind CostModel FLIGHT_CAP; do
  gate "$gone under crates/*/src" "$(count "\\b$gone\\b" "${src[@]}")" -eq 0
done
# The engine tees no record: a session hands an attached sink its records
# when the sink is detached.
for gone in attach_trace_sink tee; do
  gate "$gone under crates/mpsim/src" "$(count "\\b$gone\\b" crates/mpsim/src)" -eq 0
done
# An event pays for the monitor call and nothing beside it: no per-kind
# table behind `Recorder::observe`, and the rank interpreter's frames are
# plain node indices into the program's one shared table (no `Prog`
# handle is cloned while it runs, no subtree is built at run time).
gate "struct Accounting under crates/*/src" "$(count 'struct Accounting' "${src[@]}")" -eq 0
interp=$(sed -n '/^    fn enter(/,/^    fn snapshot(/p' crates/mpsim/src/task.rs)
[ -n "$interp" ] || { echo "semantics gate: TaskInterp::{enter, next} not found" >&2; exit 1; }
gate "handle clones of a node being read in TaskInterp::{enter, next}" \
  "$(printf '%s' "$interp" | grep -c '\.0\.clone()' || true)" -eq 0
for gone in 'fn gen\(' 'enum Frame<'; do
  gate "$gone in crates/mpsim/src/task.rs" "$(count "$gone" crates/mpsim/src/task.rs)" -eq 0
done
# One rank interpreter: a script is lowered to a `Prog` tree when it is
# parsed, so the second interpreter and the scope stack only it could read
# stay deleted, and `TaskInterp` is the one `TaskProgram`.
for gone in SFrame ScriptTask site_here site_in_scope PushScope fn_stack; do
  gate "$gone under crates/*/src" "$(count "\\b$gone\\b" "${src[@]}")" -eq 0
done
gate "impls of TaskProgram" "$(count 'impl\b.*\bTaskProgram for\b' "${src[@]}")" -eq 1
# A checkpoint shares what did not change: its ranks sit behind `Arc`s in
# blocks (`RankTable<RankCell>`), not in per-rank vectors it would copy,
# and the run's history is a `ChunkLog`, not a `Vec` (test modules aside).
gate "per-rank vectors of ranks in checkpoint.rs" \
  "$(count 'Vec<(Recorder|TaskHarness|Mailbox)>' crates/mpsim/src/checkpoint.rs)" -eq 0
nontest() { # <files...>: each file up to its first top-level #[cfg(test)]
  local f
  for f in "$@"; do sed '/^#\[cfg(test)\]/,$d' "$f"; done
}
gate "decision_log/collected held in a Vec" \
  "$(nontest $(find crates/*/src -name '*.rs') | { grep -cE '(decision_log|collected): Vec<' || true; })" -eq 0
# A decision point costs what changed: a `Turn` point stores the ready
# set's delta (`ReadyDelta`), never a copy of the set, and the explorer
# rebuilds the sets walking the log forward (`ReadySets`).
gate "Turn points holding a RankSet under crates/*/src" \
  "$(count 'Turns\((RankSet|self\.ready)' "${src[@]}")" -eq 0
# A value is the engine's own or shared with checkpoints through one
# generic cell: a block of ranks and a rank are that cell over a `Vec` and
# over a `RankState`, not two enums.
gate "own-or-shared enums in checkpoint.rs" \
  "$(count 'Shared\(Arc<' crates/mpsim/src/checkpoint.rs)" -eq 1
# One backlog of stops: the undo targets and the checkpoints replays
# restore are one list with one thinning, not an undo stack and a cache.
for gone in UndoStack CheckpointCache; do
  gate "$gone under crates/*/src" "$(count "\\b$gone\\b" "${src[@]}")" -eq 0
done
gate "fn compact in crates/debugger/src" "$(count 'fn compact\b' crates/debugger/src)" -le 1
# A record is handled once after the run: one permutation puts a trace
# in canonical order (`TraceStore`'s `canonical_permutation`, no record
# sort beside it), matching joins sorted channel keys instead of hashing,
# and `write_trace_file` encodes from the store instead of a copy of it.
gate "HashMap in crates/tracegraph/src/matching.rs" \
  "$(count 'HashMap' crates/tracegraph/src/matching.rs)" -eq 0
gate "record sorts by t_start under crates/*/src" \
  "$(count 'sort_by_key\(\|r\| \(r\.t_start' "${src[@]}")" -eq 0
write_trace=$(sed -n '/^pub fn write_trace_file(/,/^}/p' crates/core/src/bin/tracedbg/input.rs)
[ -n "$write_trace" ] || { echo "semantics gate: write_trace_file not found" >&2; exit 1; }
gate "to_vec in write_trace_file" "$(printf '%s' "$write_trace" | grep -c 'to_vec' || true)" -eq 0
# One report envelope: sealing, checking and loading a report live in
# `tracedbg_obs::sealed`; no report hashes itself, checks its digest on a
# clone of itself, or decodes a metrics report.
gate "fnv1a64( in non-test code outside crates/obs/src" \
  "$(nontest $(find crates/*/src -name '*.rs' -not -path 'crates/obs/src/*') | { grep -c 'fnv1a64(' || true; })" -eq 0
gate "impl Deserialize for MetricsReport" "$(count 'impl Deserialize for MetricsReport' "${src[@]}")" -eq 0
gate "report.rs files cloning self" \
  "$(nontest $(find crates/*/src -name report.rs) | { grep -c 'self\.clone()' || true; })" -eq 0
# Engine metrics grow with the channels a run used: no ranks × ranks
# table is built in the telemetry plane or the engine.
gate "vec![vec![ in non-test crates/obs/src + crates/mpsim/src" \
  "$(nontest $(find crates/obs/src crates/mpsim/src -name '*.rs') | { grep -cF 'vec![vec![' || true; })" -eq 0
# Metrics are a view of the run's record: the engine keeps no counters,
# and a run's metrics are derived after it (`mpsim::metrics::of_run`).
for gone in '\bEngineObs\b' '\bblock_turn\b' '\bself\.obs\b'; do
  gate "$gone in crates/mpsim/src" "$(count "$gone" crates/mpsim/src)" -eq 0
done
# A trace record is `Copy`: its probe label is an interned `Label`, a
# `TaskOp::Probe` carries one interned where its program was built, and
# nothing is left that moves a label's allocation from record to record.
gate "label: Option<String> in crates/trace/src/event.rs" \
  "$(count 'label: Option<String>' crates/trace/src/event.rs)" -eq 0
gate "fn steal in crates/trace/src/history.rs" "$(count 'fn steal\b' crates/trace/src/history.rs)" -eq 0
# A trace exists once: a kept record goes straight into the run's one log
# (no per-rank buffer, flush or take), and that log is one `Vec` until a
# checkpoint seals it (no chunk cap).
gate "TraceBuffer under crates/*/src" "$(count '\bTraceBuffer\b' "${src[@]}")" -eq 0
for gone in flush_rank take_records; do
  gate "fn $gone under crates/*/src" "$(count "fn $gone\\b" "${src[@]}")" -eq 0
done
gate "const CHUNK in crates/trace/src/chunk_log.rs" \
  "$(count 'const CHUNK\b' crates/trace/src/chunk_log.rs)" -eq 0
# A store is written once, after the run, from the finished trace: the
# writer keeps no per-event key table and spills no segment of its own,
# and the CLI tees nothing into a store while the debuggee runs.
gate "struct EventKey in crates/store/src/writer.rs" \
  "$(count 'struct EventKey\b' crates/store/src/writer.rs)" -eq 0
gate "fn flush_segment in crates/store/src/writer.rs" \
  "$(count 'fn flush_segment\b' crates/store/src/writer.rs)" -eq 0
gate "SharedWriter in crates/core/src/bin" "$(count 'SharedWriter' crates/core/src/bin)" -eq 0
# One generator of fault plans in test code: the determinism oracle's,
# which the property tests of other crates include by `#[path]`.
gate "files outside tests/oracle/faults.rs defining fn arb_faults" \
  "$({ grep -rlE --include='*.rs' 'fn arb_faults\b' crates tests || true; } | { grep -vcx 'tests/oracle/faults.rs' || true; })" -eq 0
# Exploration holds one window of work, not its frontier: the systematic
# queue hands out alternatives lazily (the eager `push_extensions` lives
# on only as a test reference), and the one task buffer explorer.rs
# builds is cut at the pool's window; the random walk hands run_windowed
# an iterator, never a materialized task list.
explorer=$(nontest crates/explore/src/explorer.rs)
gate "fn push_extensions in non-test explorer.rs" \
  "$(printf '%s' "$explorer" | grep -c 'fn push_extensions' || true)" -eq 0
gate "Vec<RunTask> in non-test explorer.rs" \
  "$(printf '%s' "$explorer" | grep -c 'Vec<RunTask>' || true)" -eq 0
gate "task buffers in explorer.rs" \
  "$(printf '%s' "$explorer" | grep -c 'Vec::with_capacity(window)' || true)" -eq 2
gate "window-bound task loops in explorer.rs" \
  "$(printf '%s' "$explorer" | grep -c 'while tasks.len() < window' || true)" -eq 1
taskop=$(sed -n '/^pub enum TaskOp {/,/^}/p' crates/mpsim/src/task.rs)
[ -n "$taskop" ] || { echo "semantics gate: enum TaskOp not found" >&2; exit 1; }
gate "label: String in TaskOp" "$(printf '%s' "$taskop" | grep -c 'label: String' || true)" -eq 0
# Sleep-set DPOR must report exactly the findings of the full search on
# the racy script workloads (same classes, same counts), at any --jobs.
for wl in sdl:racy-wildcard sdl:racy-deadlock; do
  full=$(./target/release/tracedbg explore "$wl" --procs 3 --runs 300 --seed 7 \
      --strategy systematic --jobs 1 --json --out target/verify_dpor_full || true)
  dpor=$(./target/release/tracedbg explore "$wl" --procs 3 --runs 300 --seed 7 \
      --strategy systematic --jobs 4 --dpor --json --out target/verify_dpor_on || true)
  full_classes=$(printf '%s' "$full" | grep -o '"class":"[^"]*"' | sort)
  dpor_classes=$(printf '%s' "$dpor" | grep -o '"class":"[^"]*"' | sort)
  if [ -z "$full_classes" ] || [ "$full_classes" != "$dpor_classes" ]; then
    echo "explore $wl: --dpor findings diverged from the full search" >&2
    exit 1
  fi
done

echo "==> explore smoke: the seeded races must be found and must reproduce"
rm -rf target/verify_explore
# `explore` exits non-zero when it finds violations — here that is the
# expected outcome, so success (no findings) is the failure case.
if ./target/release/tracedbg explore racy-wildcard --procs 3 --runs 48 --seed 7 \
    --out target/verify_explore >/dev/null; then
  echo "explore failed to find the seeded wildcard race" >&2; exit 1
fi
if ./target/release/tracedbg explore racy-deadlock --procs 3 --runs 48 --seed 7 \
    --strategy systematic --out target/verify_explore >/dev/null; then
  echo "explore failed to find the seeded orphan deadlock" >&2; exit 1
fi
for class in racy-wildcard-panic racy-deadlock-deadlock; do
  art=$(ls target/verify_explore/${class}-*.sched.json | head -n 1)
  ./target/release/tracedbg replay --schedule "$art" >/dev/null \
    || { echo "schedule $art did not reproduce its failure" >&2; exit 1; }
done

echo "==> parallel determinism smoke: --jobs 4 and --jobs 0 report exactly the --jobs 1 findings"
for wl in racy-wildcard racy-deadlock; do
  seq=$(./target/release/tracedbg explore "$wl" --procs 3 --runs 48 --seed 7 \
      --jobs 1 --json --out target/verify_explore_j1 || true)
  # Reports differ only in the resolved jobs field (0 = one executor per
  # core); findings must be byte-identical.
  seq_norm=$(printf '%s' "$seq" | sed 's/"jobs":[0-9]*/"jobs":0/')
  for jobs in 4 0; do
    par=$(./target/release/tracedbg explore "$wl" --procs 3 --runs 48 --seed 7 \
        --jobs "$jobs" --json --out "target/verify_explore_j$jobs" || true)
    par_norm=$(printf '%s' "$par" | sed 's/"jobs":[0-9]*/"jobs":0/')
    if [ -z "$seq" ] || [ "$seq_norm" != "$par_norm" ]; then
      echo "explore $wl: --jobs $jobs diverged from --jobs 1" >&2
      exit 1
    fi
  done
done

# The 48-run searches above never fill a window. A 16-rank 1000-run
# search runs 1000 windows of one task at --jobs 1 (no worker thread) and
# cuts windows of 256 at --jobs 2 and 4; its reports must be cmp-equal
# but for the jobs field.
wdir=target/verify_explore_windows
rm -rf "$wdir" && mkdir -p "$wdir"
for jobs in 1 2 4; do
  { ./target/release/tracedbg explore planted-wildcard --procs 16 --runs 1000 --seed 7 \
      --jobs "$jobs" --json --out "$wdir/art$jobs" || true; } \
    | sed 's/"jobs":[0-9]*/"jobs":0/' >"$wdir/report$jobs.json"
done
grep -q '"runs_executed":1000' "$wdir/report1.json" \
  || { echo "explore planted-wildcard: no 1000-run report" >&2; exit 1; }
for jobs in 2 4; do
  cmp "$wdir/report1.json" "$wdir/report$jobs.json" \
    || { echo "explore planted-wildcard --runs 1000: --jobs $jobs diverged from --jobs 1" >&2; exit 1; }
done
# The script hunt's shape: 2000 runs of the 8-rank racy script with
# sleep sets, each systematic run forking its parent's checkpoint, the
# checkpoints crossing to worker threads at --jobs 2 and 4. Reports
# cmp-equal but for the jobs field, and equal --metrics event sections.
for jobs in 1 2 4; do
  { ./target/release/tracedbg explore sdl:racy-wildcard --procs 8 --runs 2000 --dpor --seed 7 \
      --jobs "$jobs" --json --metrics "$wdir/sdl_metrics$jobs.json" --out "$wdir/sdl_art$jobs" \
      || true; } | sed 's/"jobs":[0-9]*/"jobs":0/' >"$wdir/sdl_report$jobs.json"
  jq -S .event "$wdir/sdl_metrics$jobs.json" >"$wdir/sdl_event$jobs.json"
done
grep -q '"runs_executed":2000' "$wdir/sdl_report1.json" \
  || { echo "explore sdl:racy-wildcard: no 2000-run report" >&2; exit 1; }
for jobs in 2 4; do
  cmp "$wdir/sdl_report1.json" "$wdir/sdl_report$jobs.json" \
    || { echo "explore sdl:racy-wildcard --runs 2000: --jobs $jobs diverged from --jobs 1" >&2; exit 1; }
  cmp "$wdir/sdl_event1.json" "$wdir/sdl_event$jobs.json" \
    || { echo "explore sdl:racy-wildcard --runs 2000: --jobs $jobs event metrics diverged" >&2; exit 1; }
done

echo "==> localize smoke: explore -> localize -> replay-to-suspect, .trc and store-dir feeds"
rm -rf target/verify_localize && mkdir -p target/verify_localize
# The planted corpus workload: exploration must find the planted panic.
if ./target/release/tracedbg explore planted-wildcard --procs 4 --runs 48 --seed 7 \
    --out target/verify_localize >/dev/null; then
  echo "explore failed to find the planted wildcard bug" >&2; exit 1
fi
art=$(ls target/verify_localize/planted-wildcard-panic-*.sched.json | head -n 1)
# The report must be byte-identical across --jobs (it has no jobs field).
for jobs in 1 4 0; do
  ./target/release/tracedbg localize --schedule "$art" --jobs "$jobs" --json \
    > "target/verify_localize/report_j${jobs}.json" \
    || { echo "localize --jobs $jobs failed on $art" >&2; exit 1; }
  cmp -s target/verify_localize/report_j1.json "target/verify_localize/report_j${jobs}.json" \
    || { echo "localize report at --jobs $jobs diverged from --jobs 1" >&2; exit 1; }
done
grep -q '"verdict":"localized"' target/verify_localize/report_j1.json \
  || { echo "localize did not localize the planted bug" >&2; exit 1; }
# Graph-diff feeds: the recorded failing trace — as a .trc file and as an
# ingested store directory — must both yield the replay-fed report bytes.
./target/release/tracedbg replay --schedule "$art" \
  --trace target/verify_localize/fail.trc >/dev/null \
  || { echo "failing artifact did not reproduce for the trace feed" >&2; exit 1; }
./target/release/tracedbg ingest target/verify_localize/fail.trc \
  --out target/verify_localize/fail-store >/dev/null
for feed in fail.trc fail-store; do
  ./target/release/tracedbg localize --schedule "$art" \
    --trace "target/verify_localize/$feed" --json \
    > "target/verify_localize/report_${feed}.json" \
    || { echo "localize --trace $feed failed" >&2; exit 1; }
  cmp -s target/verify_localize/report_j1.json \
    "target/verify_localize/report_${feed}.json" \
    || { echo "localize --trace $feed diverged from the replay-fed report" >&2; exit 1; }
done
# Round trip: the report's divergence markers are a replayable stopline.
./target/release/tracedbg replay --schedule "$art" \
    --to-suspect target/verify_localize/report_j1.json \
  | grep -q 'stopped at the divergence frontier' \
  || { echo "replay --to-suspect did not reach the frontier" >&2; exit 1; }

echo "==> profile smoke: wait/blame report, rerun identity, Perfetto export, frontier replay"
rm -rf target/verify_profile && mkdir -p target/verify_profile
# Profile the planted-bug artifact the localize stage produced: the
# planted rank must carry blame, and two runs must give one report.
for pass in 1 2; do
  ./target/release/tracedbg profile --schedule "$art" --json \
    > "target/verify_profile/report_${pass}.json" \
    || { echo "profile pass $pass failed on $art" >&2; exit 1; }
done
cmp -s target/verify_profile/report_1.json target/verify_profile/report_2.json \
  || { echo "profile report diverged between two runs" >&2; exit 1; }
# Schema and invariant checks on the sealed report.
jq -e '.version and .makespan >= .critical_path_len
       and .busy_total + .wait_total >= .makespan
       and (.ranks | length) == .procs
       and (.blame | length) == .procs
       and (.frontier_markers | length) == .procs
       and .digest > 0' target/verify_profile/report_1.json >/dev/null \
  || { echo "profile report failed the schema/invariant check" >&2; exit 1; }
# The planted rank must rank in the top-2 of the blame vector.
jq -e '[.ranks[] | {rank, blamed}] | sort_by(-.blamed) | .[0:2] | map(.rank) | index(2) != null' \
    target/verify_profile/report_1.json >/dev/null \
  || { echo "planted rank 2 is not in the top-2 of the blame ranking" >&2; exit 1; }
# A .trc trace and its ingested store directory must profile identically.
./target/release/tracedbg profile target/verify_localize/fail.trc --json \
  | sed 's/"source":"[a-z]*"/"source":"x"/; s/"workload":"[^"]*"/"workload":"x"/' \
  > target/verify_profile/from_trc.json
./target/release/tracedbg profile target/verify_localize/fail-store --json \
  | sed 's/"source":"[a-z]*"/"source":"x"/; s/"workload":"[^"]*"/"workload":"x"/' \
  > target/verify_profile/from_store.json
# The digest covers source/workload provenance, which legitimately
# differs between planes; compare with both normalized and digest dropped.
for f in from_trc from_store; do
  jq 'del(.digest)' "target/verify_profile/${f}.json" > "target/verify_profile/${f}.norm.json"
done
cmp -s target/verify_profile/from_trc.norm.json target/verify_profile/from_store.norm.json \
  || { echo "profile diverged between .trc and store-dir inputs" >&2; exit 1; }
# Perfetto export: a valid trace-event JSON with all four slice planes.
./target/release/tracedbg profile --schedule "$art" \
  --perfetto target/verify_profile/trace.perfetto.json >/dev/null
jq -e '.traceEvents | length > 0
       and ([.[] | .ph] | unique | contains(["M","X","s","f"]))
       and ([.[] | select(.cat == "critical")] | length > 0)
       and ([.[] | select(.cat == "wait")] | length > 0)' \
    target/verify_profile/trace.perfetto.json >/dev/null \
  || { echo "Perfetto export is not a well-formed trace-event JSON" >&2; exit 1; }
# Round trip: the report's frontier markers are a replayable stopline.
./target/release/tracedbg profile --schedule "$art" \
  --out target/verify_profile/report.json >/dev/null
./target/release/tracedbg replay --schedule "$art" \
    --to-critical-path target/verify_profile/report.json \
  | grep -q 'stopped at the critical-path frontier' \
  || { echo "replay --to-critical-path did not reach the frontier" >&2; exit 1; }
# stats over recorded planes: .trc and store-dir must render byte-identically.
diff <(./target/release/tracedbg stats target/verify_localize/fail.trc) \
     <(./target/release/tracedbg stats target/verify_localize/fail-store) >/dev/null \
  || { echo "stats diverged between .trc and store-dir inputs" >&2; exit 1; }

echo "==> metrics smoke: schema keys, cross-jobs digest identity, disabled-path guard"
rm -rf target/verify_metrics && mkdir -p target/verify_metrics
./target/release/tracedbg stats ring --procs 4 \
  --metrics target/verify_metrics/stats.json >/dev/null
for key in '"version"' '"schema_version":5' '"source"' '"workload"' '"procs"' \
    '"seed"' '"jobs"' '"event"' '"event_digest"' '"timing"' '"engine"' '"channels"' \
    '"wall_ms"'; do
  grep -q "$key" target/verify_metrics/stats.json \
    || { echo "stats metrics report is missing $key" >&2; exit 1; }
done
# Event-derived counters must be byte-identical across worker counts.
for jobs in 1 4; do
  ./target/release/tracedbg explore racy-wildcard --procs 3 --runs 48 --seed 7 \
    --jobs "$jobs" --metrics "target/verify_metrics/m${jobs}.json" \
    --out "target/verify_metrics/art${jobs}" >/dev/null || true
done
d1=$(grep -o '"event_digest":"[^"]*"' target/verify_metrics/m1.json)
d4=$(grep -o '"event_digest":"[^"]*"' target/verify_metrics/m4.json)
if [ -z "$d1" ] || [ "$d1" != "$d4" ]; then
  echo "metrics event_digest diverged across --jobs: '$d1' vs '$d4'" >&2
  exit 1
fi
# Disabled path: explore without --metrics must not write a report file.
./target/release/tracedbg explore racy-wildcard --procs 3 --runs 48 --seed 7 \
  --out target/verify_metrics/plain >/dev/null || true
if [ -e target/verify_metrics/plain/metrics.json ]; then
  echo "explore wrote metrics.json without --metrics" >&2
  exit 1
fi

echo "==> checkpoint smoke: undo via checkpoints prints the from-scratch transcript, status lines included"
ckpt_undo_script() {
  ./target/release/tracedbg debug ring --procs 4 --checkpoint-every "$1" \
    -e run -e "stopline markers 10 10 10 10" -e replay \
    -e "stopline markers 6 6 6 6" -e replay \
    -e undo -e undo -e markers
}
# Every rank is stepped out of the trap the replay stopped it in, so the
# checkpoints the undos restore hold ranks that are at their marker but no
# longer trapped (benchmark/README.md finding 4).
ckpt_step_script() {
  ./target/release/tracedbg debug random:400 --procs 8 --seed 3 --checkpoint-every "$1" \
    -e run -e "stopline t 20000" -e replay \
    -e "step 0" -e "step 1" -e "step 2" -e "step 3" \
    -e "step 4" -e "step 5" -e "step 6" -e "step 7" \
    -e undo -e undo -e undo -e markers
}
for script in ckpt_undo_script ckpt_step_script; do
  slow=$($script 0)
  for every in 1 3; do
    fast=$($script "$every")
    if [ -z "$fast" ] || [ "$fast" != "$slow" ]; then
      echo "$script: --checkpoint-every $every transcript diverged from from-scratch replay:" >&2
      diff <(printf '%s\n' "$slow") <(printf '%s\n' "$fast") >&2 || true
      exit 1
    fi
  done
done
# Restore determinism on failure artifacts: snapshot mid-schedule, restore,
# and require the continued run byte-identical to the straight one.
for class in racy-wildcard-panic racy-deadlock-deadlock; do
  art=$(ls target/verify_explore/${class}-*.sched.json | head -n 1)
  ./target/release/tracedbg replay --schedule "$art" --from-checkpoint >/dev/null \
    || { echo "checkpointed replay of $art was not byte-identical" >&2; exit 1; }
done

echo "==> wide-rank smoke: 1024 ranks run, memory ceilings, undo via checkpoints, artifact restore"
rm -rf target/verify_wide && mkdir -p target/verify_wide
# Two recordings of a 1024-rank ring must be byte-identical — determinism
# does not degrade with width on the task engine.
./target/release/tracedbg run ring --procs 1024 --trace target/verify_wide/a.trc >/dev/null
./target/release/tracedbg run ring --procs 1024 --trace target/verify_wide/b.trc >/dev/null
cmp -s target/verify_wide/a.trc target/verify_wide/b.trc \
  || { echo "1024-rank ring trace is not deterministic" >&2; exit 1; }
# Same for the stencil, the shape whose ready set churns on every turn.
./target/release/tracedbg run stencil --procs 1024 --trace target/verify_wide/sa.trc >/dev/null
./target/release/tracedbg run stencil --procs 1024 --trace target/verify_wide/sb.trc >/dev/null
cmp -s target/verify_wide/sa.trc target/verify_wide/sb.trc \
  || { echo "1024-rank stencil trace is not deterministic" >&2; exit 1; }
# The butterfly runs end to end from the CLI inside a 128 MiB address
# space, and so does `lint` of the 1024-rank stencil trace: the memory of
# a run and of its history analysis follows events, not events x ranks.
( ulimit -v 131072; ./target/release/tracedbg run butterfly --procs 1024 >/dev/null ) \
  || { echo "1024-rank butterfly does not fit in 128 MiB" >&2; exit 1; }
( ulimit -v 131072; ./target/release/tracedbg lint target/verify_wide/sa.trc >/dev/null ) \
  || { echo "lint of a 1024-rank stencil trace does not fit in 128 MiB" >&2; exit 1; }
# A metered run's channel counters cover the channels it used, and a
# decision point stores what changed in the ready set, not the set: `run`
# (one plain engine run) of a 4096-rank stencil fits in 80 MiB
# (floor ≈ 52 MiB; with a ready set copied into every `Turn` point it
# needed more than 112), `stats --metrics` of it in 128 MiB (with ranks ×
# ranks counters both aborted at 256), and `run` of a 16384-rank stencil
# in 256 MiB (floor ≈ 190 MiB; with the copied sets it peaked at 1.2 GB).
( ulimit -v 81920; ./target/release/tracedbg run stencil --procs 4096 >/dev/null ) \
  || { echo "4096-rank stencil run does not fit in 80 MiB" >&2; exit 1; }
( ulimit -v 131072; ./target/release/tracedbg stats stencil --procs 4096 \
    --metrics target/verify_wide/stats4096.json >/dev/null ) \
  || { echo "4096-rank stencil stats --metrics does not fit in 128 MiB" >&2; exit 1; }
( ulimit -v 262144; ./target/release/tracedbg run stencil --procs 16384 >/dev/null ) \
  || { echo "16384-rank stencil run does not fit in 256 MiB" >&2; exit 1; }
# A hunt costs its runs, not its frontier: 4000 runs of the 16-rank
# planted search find the bug (exit 1) inside a 64 MiB address space —
# frontier entries share their parent run's decisions and one window of
# run results is alive at a time (with a schedule prefix per entry and a
# whole drain of results held, the same command aborted at 128 MiB).
rm -rf target/verify_ceiling
hunt_status=0
( ulimit -v 65536; ./target/release/tracedbg explore planted-wildcard --procs 16 \
    --runs 4000 --seed 7 --jobs 1 --out target/verify_ceiling/planted >/dev/null ) \
  || hunt_status=$?
[ "$hunt_status" -eq 1 ] \
  || { echo "16-rank 4000-run explore under 64 MiB: exit $hunt_status, want 1" >&2; exit 1; }
# Its artifact localizes against 2000 references inside 96 MiB (measured
# floor 68 MiB: ~1870 of them are distinct traces, and those are kept) ...
hunt_art=$(ls target/verify_ceiling/planted/planted-wildcard-panic-*.sched.json | head -n 1)
( ulimit -v 98304; ./target/release/tracedbg localize --schedule "$hunt_art" \
    --runs 2000 --jobs 1 --json >/dev/null ) \
  || { echo "localize --runs 2000 of the planted artifact does not fit in 96 MiB" >&2; exit 1; }
# ... and where most references repeat a trace already seen (234 distinct
# of 2000 on the racy script) the harvest keeps one per trace: 32 MiB
# (measured floor 16 MiB; holding all 2000 needed more than 32).
./target/release/tracedbg explore sdl:racy-wildcard --procs 8 --runs 600 --dpor \
    --seed 7 --jobs 1 --out target/verify_ceiling/script >/dev/null || true
script_art=$(ls target/verify_ceiling/script/sdl-racy-wildcard-panic-*.sched.json | head -n 1)
( ulimit -v 32768; ./target/release/tracedbg localize --schedule "$script_art" \
    --runs 2000 --jobs 1 --json >/dev/null ) \
  || { echo "localize --runs 2000 of the racy-script artifact does not fit in 32 MiB" >&2; exit 1; }
# ... and a record costs the same to run and to analyze at 1024 ranks as
# at 64, and race detection is linear in the wildcard receives (release
# only; one thread, because the rows are timings).
cargo test --offline --release -q --test width_scaling -- --test-threads 1
# Checkpointed undo at width matches from-scratch replay, transcript for
# transcript — the 4-rank checkpoint audit above, at 1024 ranks.
wide_undo() {
  ./target/release/tracedbg debug ring --procs 1024 --checkpoint-every "$1" \
    -e run -e "stopline t 100000000" -e replay -e undo -e markers
}
wide_fast=$(wide_undo 1)
wide_slow=$(wide_undo 0)
if [ -z "$wide_fast" ] || [ "$wide_fast" != "$wide_slow" ]; then
  echo "1024-rank checkpointed undo diverged from from-scratch replay" >&2
  exit 1
fi
# Snapshot/restore byte-identity on a 1024-rank failure artifact: inject
# faults until the ring fails, then replay the artifact --from-checkpoint.
if ./target/release/tracedbg explore ring --procs 1024 --runs 12 --seed 3 \
    --faults --strategy random --out target/verify_wide >/dev/null; then
  echo "explore --faults found nothing on the 1024-rank ring" >&2; exit 1
fi
wide_art=$(ls target/verify_wide/ring-*.sched.json | head -n 1)
./target/release/tracedbg replay --schedule "$wide_art" --from-checkpoint >/dev/null \
  || { echo "1024-rank checkpointed replay was not byte-identical" >&2; exit 1; }

echo "==> perf gate: engine + checkpoint suites vs committed baselines"
# Flag any median >25% over the committed BENCH_*.json trajectory. On a
# loaded or single-core box the microsecond-scale rows can swing past the
# threshold from scheduler noise alone, so regressions warn by default;
# set VERIFY_BENCH_STRICT=1 (quiet dedicated hardware) to make them fatal.
rm -rf target/verify_bench_gate
for suite in engine checkpoint; do
  ./target/release/tracedbg bench --filter "$suite" --out target/verify_bench_gate >/dev/null
  if ! ./scripts/bench_diff.sh "BENCH_${suite}.json" \
      "target/verify_bench_gate/BENCH_${suite}.json"; then
    if [ "${VERIFY_BENCH_STRICT:-0}" = "1" ]; then
      echo "BENCH_${suite} regressed beyond the 25% gate" >&2; exit 1
    fi
    echo "WARNING: BENCH_${suite} exceeded the 25% gate (advisory on shared hardware)" >&2
  fi
done

# One ratio of two rows measured back to back, so it holds on any machine:
# an interpreted run of the 8-rank wildcard race may cost at most 1.8x the
# native run that makes the same 29 decisions (2.76x before the
# interpreter stopped copying its script).
./target/release/tracedbg bench --filter explore/run_ --out target/verify_bench_gate >/dev/null
median() {
  tr '{' '\n' <target/verify_bench_gate/BENCH_explore.json \
    | sed -n 's/.*"name":"'"$1"'".*"median_ns":\([0-9]*\).*/\1/p'
}
sdl_ns=$(median run_sdl_racy_wildcard_8)
native_ns=$(median run_native_racy_wildcard_8)
awk -v s="$sdl_ns" -v n="$native_ns" 'BEGIN {
  if (n <= 0) { print "perf gate: no run_native_racy_wildcard_8 row" > "/dev/stderr"; exit 1 }
  printf "sdl/native run ratio: %.2f (%d ns / %d ns)\n", s / n, s, n
  exit !(s / n <= 1.8)
}' || { echo "an interpreted run costs more than 1.8x the native one" >&2; exit 1; }

echo "==> Table 1: exact call counts, Strassen ratio ~1.0, a monitor event costs tens of ns"
# The call-count assertion (2*fib_call_count(n)+3) is inside the binary and
# fatal. The two timings are advisory on shared hardware, like the perf gate.
# The binary rewrites the artifact EXPERIMENTS.md quotes; put back the one
# that was there.
cp artifacts/table1_overhead.txt target/verify_table1_overhead.txt
table1=$(./target/release/repro_table1)
mv target/verify_table1_overhead.txt artifacts/table1_overhead.txt
printf '%s\n' "$table1" | awk '
  $1 == "strassen" { n++; r = $(NF - 1) + 0; if (r < 0.85 || r > 1.15) { print "strassen " $3 " ratio " r " outside 0.85-1.15"; bad = 1 } }
  $1 == "fibonacci" { n++; e = $NF + 0; if (e > 60) { print $2 " costs " e " ns per monitor event, want <= 60"; bad = 1 } }
  END { if (n != 4) { print "repro_table1 printed " n " rows, want 4"; bad = 1 }; exit bad }
' || {
  if [ "${VERIFY_BENCH_STRICT:-0}" = "1" ]; then
    echo "Table 1 left its bounds" >&2; exit 1
  fi
  echo "WARNING: Table 1 left its bounds (advisory on shared hardware)" >&2
}

echo "==> bench smoke: --quick must exit 0 and emit schema-valid BENCH_*.json"
rm -rf target/verify_bench
./target/release/tracedbg bench --quick --out target/verify_bench >/dev/null
for suite in parse causality replay engine checkpoint explore explore_dpor store localize profile; do
  f=target/verify_bench/BENCH_${suite}.json
  [ -s "$f" ] || { echo "bench smoke did not write $f" >&2; exit 1; }
  # Every row carries the six-field schema the serializer unit test pins.
  for key in '"name"' '"iters"' '"median_ns"' '"p10_ns"' '"p90_ns"' '"jobs"'; do
    grep -q "$key" "$f" || { echo "$f is missing $key" >&2; exit 1; }
  done
done
# bench_diff sanity: a file diffed against itself reports no regressions,
# and a suite present in only one snapshot reports ADDED/REMOVED, exit 0.
./scripts/bench_diff.sh target/verify_bench/BENCH_parse.json \
  target/verify_bench/BENCH_parse.json >/dev/null \
  || { echo "bench_diff.sh flagged a self-diff" >&2; exit 1; }
./scripts/bench_diff.sh /dev/null target/verify_bench/BENCH_parse.json \
  | grep -q '^ADDED' \
  || { echo "bench_diff.sh mishandled a suite with no baseline" >&2; exit 1; }
./scripts/bench_diff.sh target/verify_bench/BENCH_parse.json /dev/null \
  | grep -q '^REMOVED' \
  || { echo "bench_diff.sh mishandled a removed suite" >&2; exit 1; }

echo "verify: OK"
