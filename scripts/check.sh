#!/usr/bin/env bash
# Offline CI gate: formatting, lints, docs, tier-1 build + tests,
# workspace tests (which hold every correctness check), perf_smoke's
# three speedup ratios, the bench-regression gate, which re-times the
# single-thread engines recorded in the committed BENCH_*.json files
# (re-record them with `perf_smoke --record` from the repo root), and the
# paper experiments, held byte for byte to repro_output.txt.
# Correctness lives in `cargo test`, timing in the one binary perf_smoke.
#
# Everything here runs with no network access; the workspace has no
# external dependencies (see DESIGN.md "Dependencies").
#
# Usage:
#   scripts/check.sh                       full gate (every stage below)
#   scripts/check.sh --quick               inner loop: fmt + clippy +
#                                          strict + tier-1 only
#   scripts/check.sh --stage NAME[,NAME..] run only the named stages
#                                          (repeatable; order stays the
#                                          canonical order below)
#   scripts/check.sh --skip NAME[,NAME..]  run everything except the
#                                          named stages (repeatable)
#   scripts/check.sh --timings-json PATH   write per-stage wall times as
#                                          JSON to PATH (also on failure,
#                                          with the failing stage marked)
#
# Unknown flags and unknown stage names exit 2 before any stage runs.
# --quick composes with --stage/--skip as an intersection.
#
# Stages (each prints its own wall time):
#   fmt        cargo fmt --check
#   clippy     cargo clippy --workspace --all-targets -- -D warnings
#   strict     library + binary clippy with unwrap()/expect() denied
#              outside tests (bench bins exit with rendered diagnostics
#              via OrExit instead of panicking)
#   doc        rustdoc over the workspace with warnings denied (broken
#              or redundant intra-doc links, public docs linking private
#              items)
#   build      tier-1: cargo build --release
#   test       tier-1: cargo test -q
#   wstest     cargo test --workspace -q --no-fail-fast: every crate's
#              unit and integration tests, which hold every correctness
#              check; every test binary runs even after one fails, and
#              the stage fails if any test did.
#              The thread matrix (1, 2 and 4 workers) is explicit there,
#              set by config field. Among them: the durable serving
#              layer's fault schedules (crates/core/tests/durable.rs), the
#              fault-quarantine suite (crates/core/tests/quarantine.rs),
#              the Monte Carlo engine-vs-oracle suite
#              (crates/sta/tests/batched_parity.rs) and the learned CD
#              surrogate with its model-file round trip
#              (crates/bench/tests/surrogate.rs)
#   smoke      perf_smoke's three absolute speedup ratios (ambient thread
#              count): cache+pool extraction median within 1.25x of
#              serial (outcomes bit-identical), warm serve >= 10x faster
#              than the cold pipeline on T6 and the T9 farm (the warm
#              batch's repeated Monte Carlo is a read of the session's
#              memo, whose hits it prints; the engine's own speed is the
#              bench stage's T6 batched MC@2000 floor), and the
#              surrogate >= 3x faster than the serial no-cache baseline
#              on the shuffled farm; every timed run == its first
#   bench      perf_smoke --bench-regression: fresh single-thread medians
#              (each the quietest of 3 rounds) of the uniform-farm cache,
#              shuffled-farm surrogate, T6 batched MC@2000 and the T6 and
#              T9 warm sessions (8 query batches per timed run) <=
#              recorded / 0.6 (BENCH_extract.json, BENCH_sta.json,
#              BENCH_serve.json); sampling-accuracy rows within 1.5x;
#              tail-IS@500 q01 error <= plain@2000; antithetic@500 mean
#              error <= plain@2000 x 1.25; batched == naive @250; every
#              timed run == its first; every warm batch == the cold answers
#   paper      the eleven repro experiments that print no wall-clock figure
#              (t1 t2 f3 t4 f5 t6 t7 f8 t10 a1 a2, release): their stdout, the
#              `[.. finished in ..]` lines removed, must equal the same
#              blocks of the committed repro_output.txt byte for byte. A
#              change that moves one of these numbers re-records those
#              blocks (`repro all > repro_output.txt`) and says why
#   perfbench  release build + unit tests of the repository benchmark
#              (perfbench/, its own Cargo workspace): the only consumer
#              of the crates' public API outside this workspace, so an
#              API change that breaks the benchmark fails here. Both run
#              with --locked, so a dependency change that would rewrite
#              perfbench/Cargo.lock fails too
set -euo pipefail
cd "$(dirname "$0")/.."

# Canonical stage order; --stage never reorders, only filters.
STAGES=(fmt clippy strict doc build test wstest smoke bench paper perfbench)
QUICK_STAGES=(fmt clippy strict build test)

QUICK=0
ONLY=()
SKIP=()
TIMINGS_JSON=""

known_stage() {
  local s
  for s in "${STAGES[@]}"; do
    [[ "$s" == "$1" ]] && return 0
  done
  return 1
}

# Splits a comma-separated stage list, validating every name.
add_stages() {
  local dest="$1" list="$2" name
  IFS=',' read -ra names <<<"$list"
  if [[ "${#names[@]}" -eq 0 ]]; then
    echo "check.sh: empty stage list for --$dest" >&2
    exit 2
  fi
  for name in "${names[@]}"; do
    if ! known_stage "$name"; then
      echo "check.sh: unknown stage '$name' (known: ${STAGES[*]})" >&2
      exit 2
    fi
    if [[ "$dest" == "stage" ]]; then
      ONLY+=("$name")
    else
      SKIP+=("$name")
    fi
  done
}

while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK=1 ;;
    --stage | --skip)
      if [[ $# -lt 2 ]]; then
        echo "check.sh: $1 needs a stage name" >&2
        exit 2
      fi
      add_stages "${1#--}" "$2"
      shift
      ;;
    --stage=*) add_stages stage "${1#--stage=}" ;;
    --skip=*) add_stages skip "${1#--skip=}" ;;
    --timings-json)
      if [[ $# -lt 2 ]]; then
        echo "check.sh: --timings-json needs a path" >&2
        exit 2
      fi
      TIMINGS_JSON="$2"
      shift
      ;;
    --timings-json=*) TIMINGS_JSON="${1#--timings-json=}" ;;
    *)
      echo "check.sh: unknown argument '$1' (expected --quick, --stage," \
        "--skip or --timings-json)" >&2
      exit 2
      ;;
  esac
  shift
done

selected() {
  local name="$1" s
  if [[ "${#ONLY[@]}" -gt 0 ]]; then
    local found=0
    for s in "${ONLY[@]}"; do
      [[ "$s" == "$name" ]] && found=1
    done
    [[ "$found" -eq 1 ]] || return 1
  fi
  if [[ "$QUICK" -eq 1 ]]; then
    local quick=0
    for s in "${QUICK_STAGES[@]}"; do
      [[ "$s" == "$name" ]] && quick=1
    done
    [[ "$quick" -eq 1 ]] || return 1
  fi
  if [[ "${#SKIP[@]}" -gt 0 ]]; then
    for s in "${SKIP[@]}"; do
      [[ "$s" == "$name" ]] && return 1
    done
  fi
  return 0
}

now_s() {
  # Sub-second wall clock where bash provides it (5.0+), whole seconds
  # otherwise — the JSON consumer treats both as plain numbers.
  echo "${EPOCHREALTIME:-$SECONDS}"
}

elapsed() {
  awk -v a="$1" -v b="$2" 'BEGIN { printf "%.3f", b - a }'
}

TIMED_NAMES=()
TIMED_SECS=()
TIMED_STATUS=()
RUNNING_STAGE=""
RUNNING_T0=0

# Per-stage wall times as a small stable JSON document, written on every
# exit path when --timings-json was given: completed stages as recorded,
# plus the in-flight stage marked "failed" when a gate aborted the run.
write_timings() {
  [[ -n "$TIMINGS_JSON" ]] || return 0
  local names=("${TIMED_NAMES[@]}") secs=("${TIMED_SECS[@]}") status=("${TIMED_STATUS[@]}")
  if [[ -n "$RUNNING_STAGE" ]]; then
    names+=("$RUNNING_STAGE")
    secs+=("$(elapsed "$RUNNING_T0" "$(now_s)")")
    status+=("failed")
  fi
  {
    echo "{"
    echo "  \"schema\": \"postopc-check-timings-v1\","
    echo "  \"stages\": ["
    local i last=$((${#names[@]} - 1))
    for i in "${!names[@]}"; do
      local comma=","
      [[ "$i" -eq "$last" ]] && comma=""
      echo "    {\"name\": \"${names[$i]}\", \"wall_s\": ${secs[$i]}, \"status\": \"${status[$i]}\"}$comma"
    done
    echo "  ]"
    echo "}"
  } >"$TIMINGS_JSON"
  echo "check.sh: wrote stage timings to $TIMINGS_JSON"
}
trap write_timings EXIT

RAN=0
# Runs one named stage if selected, timing it. Any command failure aborts
# the script (set -e), so a stage that prints its wall time has passed.
stage() {
  local name="$1"
  shift
  selected "$name" || return 0
  echo "== stage $name: $*"
  RUNNING_STAGE="$name"
  RUNNING_T0="$(now_s)"
  "$@"
  local dt
  dt="$(elapsed "$RUNNING_T0" "$(now_s)")"
  RUNNING_STAGE=""
  TIMED_NAMES+=("$name")
  TIMED_SECS+=("$dt")
  TIMED_STATUS+=("passed")
  RAN=$((RAN + 1))
  echo "== stage $name passed in $dt s"
}

stage fmt cargo fmt --check
stage clippy cargo clippy --workspace --all-targets -- -D warnings
# Library and binary code (#[cfg(test)] excluded) must route every
# fallible path through typed errors: unwrap()/expect() are deny-by-default
# and each surviving call carries a scoped #[allow] naming its invariant.
# The bench *library* carries a crate-level allow (documented panic-on-
# setup contract); its CI-gating *bins* fail via OrExit, never a panic.
strict_stage() {
  cargo clippy --workspace --lib --bins -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used
}
stage strict strict_stage
doc_stage() {
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
}
stage doc doc_stage
stage build cargo build --release
stage test cargo test -q
stage wstest cargo test --workspace -q --no-fail-fast
stage smoke cargo run --release -p postopc-bench --bin perf_smoke
stage bench cargo run --release -p postopc-bench --bin perf_smoke -- --bench-regression

# The paper's numbers: t9 prints wall-clock medians, so it stays out.
# Each experiment's block is the text before its `[<id> finished in ..]`
# line.
PAPER_EXPERIMENTS=(t1 t2 f3 t4 f5 t6 t7 f8 t10 a1 a2)
paper_blocks() {
  awk -v ids=" ${PAPER_EXPERIMENTS[*]} " '
    /^\[[a-z0-9]+ finished in / {
      id = substr($1, 2)
      if (index(ids, " " id " ")) printf "%s", block
      block = ""
      next
    }
    { block = block $0 "\n" }
  ' "$1"
}
paper_stage() {
  local fresh=target/paper_repro.txt
  cargo run --release -q -p postopc-bench --bin repro -- "${PAPER_EXPERIMENTS[@]}" >"$fresh"
  diff <(paper_blocks repro_output.txt) <(paper_blocks "$fresh")
}
stage paper paper_stage

# Repository benchmark: perfbench/ builds against the crates' public API
# from outside the workspace (it has its own Cargo workspace and lock
# file), so nothing else here would notice an API change that breaks it.
# --locked: a change to any crate's dependency list would otherwise
# silently rewrite perfbench/Cargo.lock, which only a benchmark change
# may touch; here it fails instead.
perfbench_stage() {
  cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
  cargo test --release --offline --locked -q --manifest-path perfbench/Cargo.toml
}
stage perfbench perfbench_stage

if [[ "$RAN" -eq 0 ]]; then
  echo "check.sh: no stage selected (filters left nothing to run)" >&2
  exit 2
fi
echo "check.sh: all selected gates passed ($RAN stage(s))"
