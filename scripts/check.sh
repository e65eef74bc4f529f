#!/usr/bin/env bash
# Offline CI gate: formatting, lints, tier-1 build + tests, workspace
# tests, perf smoke parity (across a thread matrix) and the
# bench-regression gate against the committed BENCH_*.json artifacts.
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
#   wstest     cargo test --workspace -q
#   smoke      perf_smoke parity gates (ambient thread count): pooled
#              extraction vs serial, compiled STA and Monte Carlo vs the
#              naive references
#   threads    perf_smoke parity gates under POSTOPC_THREADS=1,2,4
#   faults     fault_smoke: seeded injection, quarantine determinism gates
#   mc_batch   mc_batch_smoke: Monte Carlo engine vs run_reference parity,
#              every lookup served by the prewarmed shift table,
#              variance-reduction convergence gate
#   tail       tail_smoke under POSTOPC_THREADS=1,2,4: tail-IS + control
#              variate engine-vs-oracle and thread bit-parity, weight
#              normalization, CV exactness on a linear model, and the
#              deep-tail claim (tail-IS@500 q01 error <= plain@2000 on
#              the T6 study)
#   serve      serve_smoke: cold-vs-warm artifact bit parity, typed bad-
#              artifact errors, incremental-vs-full ECO bit parity, and
#              the warm-query speedup floor
#   chaos      chaos_smoke under POSTOPC_THREADS=1,2,4: seeded I/O fault
#              schedules against the durable serving layer — every serve
#              answers bit-identically to fault-free or fails typed,
#              torn/crashed artifacts never get served, budgets are
#              deterministic, lock contention is refused typed
#   surrogate  surrogate_train + surrogate_smoke: learned-CD-surrogate
#              parity vs SOCS, serial-vs-pool bit identity, 100% fallback
#              on an out-of-distribution layout, the speedup floor, and
#              the POCSURR1 model-file round trip
#   bench      perf_smoke --bench-regression vs committed BENCH_*.json
#              (STA floors now include the schema-v3 sampling-accuracy
#              rows)
#   bench_serve
#              serve_smoke --bench-regression: the warm-query speedup
#              floors vs the committed BENCH_serve.json
set -euo pipefail
cd "$(dirname "$0")/.."

# Canonical stage order; --stage never reorders, only filters.
STAGES=(fmt clippy strict doc build test wstest smoke threads faults
  mc_batch tail serve chaos surrogate bench bench_serve)
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
stage wstest cargo test --workspace -q
stage smoke cargo run --release -p postopc-bench --bin perf_smoke

# Thread matrix: the parity gates re-run with the worker pool pinned to
# 1, 2 and 4 threads, so par_map_costed / par_map_init determinism is
# exercised off the single-thread fallback path too.
thread_matrix() {
  local t
  for t in 1 2 4; do
    echo "-- POSTOPC_THREADS=$t"
    POSTOPC_THREADS="$t" cargo run --release -p postopc-bench --bin perf_smoke
  done
}
stage threads thread_matrix

# Fault-injection smoke: a seeded injector over the repro design must
# complete under quarantine, report exact counts, stay bit-identical
# across the thread matrix, and trip the budget past the cap.
stage faults cargo run --release -p postopc-bench --bin fault_smoke

# Batched Monte Carlo smoke: bit-parity with the naive run_reference
# oracle over sampling schemes and lane remainders, every (gate, lane)
# lookup served by the prewarmed shift table, and the variance-reduction
# convergence gate (antithetic @500 vs plain @2000 on the mean worst
# slack).
stage mc_batch cargo run --release -p postopc-bench --bin mc_batch_smoke

# Tail-targeted Monte Carlo smoke, across the same thread matrix as the
# parity gates: importance sampling + control variate must stay
# bit-identical to the naive oracle for POSTOPC_THREADS in {1,2,4}, weights
# must self-normalize, the control variate must be exact on a pure
# linear model, and tail-IS@500 must estimate the 1%-quantile at least
# as well as plain@2000 on the T6 convergence study.
tail_matrix() {
  local t
  for t in 1 2 4; do
    echo "-- POSTOPC_THREADS=$t"
    POSTOPC_THREADS="$t" cargo run --release -p postopc-bench --bin tail_smoke
  done
}
stage tail tail_matrix

# Warm-service smoke: persisted-artifact round trips (cold == warm, bit
# for bit; corrupt/truncated/stale artifacts come back as typed errors),
# incremental ECO re-analysis parity against a from-scratch run, and the
# 10x warm-query speedup floor on the T6/T9 workloads.
stage serve cargo run --release -p postopc-bench --bin serve_smoke

# Chaos stage: seeded I/O fault schedules against the durable serving
# layer, replayed across the thread matrix. Serves must answer
# bit-identically to fault-free or fail with typed errors — never panic,
# never publish a torn artifact, never serve a stale one warm.
chaos_matrix() {
  local t
  for t in 1 2 4; do
    echo "-- POSTOPC_THREADS=$t"
    POSTOPC_THREADS="$t" cargo run --release -p postopc-bench --bin chaos_smoke
  done
}
stage chaos chaos_matrix

# Learned-CD-surrogate smoke: offline training via surrogate_train (the
# POCSURR1 file write), then surrogate_smoke's gates — in-distribution
# parity vs SOCS, serial-vs-pool bit identity, 100% fallback on an out-
# of-distribution layout, the wall-time speedup floor, and the trained
# model loading back in as a warm seed.
surrogate_stage() {
  cargo run --release -p postopc-bench --bin surrogate_train -- \
    --out target/surrogate_ci.bin
  cargo run --release -p postopc-bench --bin surrogate_smoke -- \
    --model target/surrogate_ci.bin
}
stage surrogate surrogate_stage

stage bench cargo run --release -p postopc-bench --bin perf_smoke -- --bench-regression
stage bench_serve cargo run --release -p postopc-bench --bin serve_smoke -- --bench-regression

if [[ "$RAN" -eq 0 ]]; then
  echo "check.sh: no stage selected (filters left nothing to run)" >&2
  exit 2
fi
echo "check.sh: all selected gates passed ($RAN stage(s))"
