//! # postopc-perfbench — the repository benchmark
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flow-cold|serve-warm|eco-stream> --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the workload's design from `--seed`, runs it as one closed-loop
//! caller in this process (each op waits for the previous answer) with
//! every config's `threads` set to the machine's core count, checks every
//! answer, and prints one JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. The line before it
//! records the environment: threads used, `nproc`, CPU model, `rustc -V`,
//! git commit (when run from a git checkout), seed and workload.
//!
//! ## Workloads
//!
//! * `flow-cold` — one op is one cold `run_flow` on the composite paper
//!   testcase (572 gates, 70 % utilisation, model OPC, clock = drawn
//!   critical delay × 1.1, top-3 paths tagged). The seed picks, among
//!   seeded testcases, the first whose tagged windows sum to the same
//!   raster area (±2 %) as seed 11's, so every seed images the same work.
//!   The paper's flow: model OPC and imaging of ~34 novel windows
//!   dominate and contexts barely repeat, so imaging and OPC changes show
//!   here first.
//! * `serve-warm` — one op is one warm `serve_with` (lock, load +
//!   validate, restore, then corners, plain MC 2000, tail-IS MC 500 and a
//!   guardband with MC 2000) against the artifact a cold serve of the same
//!   design published in set-up. No imaging: STA/MC and artifact-read
//!   changes show here, and imaging changes must not.
//! * `eco-stream` — an ECO session on 1500 random gates with rule OPC. One
//!   op is ten `apply_eco` calls, each followed by five what-if queries
//!   (+1–3 nm on one seeded gate), then a republish of the artifact
//!   (`artifact` + `save_with`). Each ECO tags the session's top-5-path
//!   gates plus a 200-gate window of a seeded permutation that advances 2
//!   gates per ECO, so contexts are ~99 % warm-store hits with one rule-OPC
//!   image per novel window. The stream is a fixed script of
//!   1.5 ops per second of `--seconds`, because the context store grows
//!   with every ECO: a time-bounded run would hand a faster build a longer,
//!   costlier stream.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! * `setup_s` (s) — median of three set-ups, each everything before the
//!   first timed op: design generation and compile plus one untimed
//!   warm-up op (a flow; the cold serve that publishes the artifact; the
//!   cold session plus its first ECO).
//! * `alloc_mb_per_op` (MB) — median heap volume an op allocates, counted
//!   by the benchmark's global allocator. Peak RSS is printed on the
//!   samples line but not gated: it depends on which raster windows the
//!   two extraction workers happen to hold at once (see `heap`).
//! * `op_cpu_ms.p50` (ms) — median CPU time of an op, summed over all
//!   threads (`CLOCK_PROCESS_CPUTIME_ID`).
//!
//! The wall-clock latency of every op is printed on the samples line
//! (`op_ms`, with its sample count) but not gated. On a shared two-vCPU
//! host whole runs slow down by up to 2× while a neighbour is busy: in two
//! of three sets of ten seeds the spread of `serve-warm`'s median op wall
//! time (interquartile range over median) reached 0.21 and 0.23, against
//! at most 0.09 for its CPU time. Only medians are reported: a `flow-cold` run
//! holds a handful of ops, too few for a higher percentile to have ten
//! samples beyond it, and every workload prints the same metric names.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! The traced run alternates untraced ops with traced ones (`eco-stream`:
//! first half untraced, second half traced). A traced op makes the same
//! public calls the wrapper makes, each inside a span (name, start, end,
//! parent, op id) kept in memory and written to
//! `<target dir>/perfbench-out/trace-<workload>-<seed>.json` at exit.
//! `trace.overhead_ms` / `trace.overhead_pct` are the traced minus the
//! untraced median op wall time. `extract_gates` hides the OPC, imaging and
//! slicing calls, so after the timed ops the run replays extraction
//! windows through `opc::rules::correct`, `opc::model::correct`,
//! `AerialImage::simulate` and `cdex::extract_gate` (`flow-cold`: every
//! tagged gate; `eco-stream`: the gates entering the window, up to 40);
//! the replay is outside every op's latency. Per layer the run reports
//! median time per call, `calls_per_op` and `share_pct` (self time as a
//! share of the traced ops' time; for `opc`, `litho` and `cdex`, of the
//! replayed windows' time). A metric is `0` where its layer does no work.
//!
//! Which end-to-end metric each layer should move, and on which workloads
//! (elsewhere the prediction is "no change"), is the `moves` / `on` column
//! of `metrics::PER_LAYER`:
//!
//! | layer | moves | on |
//! |---|---|---|
//! | `layout` | `setup_s` | all |
//! | `litho`, `opc` (rules), `cdex`, `extract` | `op_cpu_ms.p50` | `flow-cold`, `eco-stream` |
//! | `opc` (model), `tags`, `compare` | `op_cpu_ms.p50` | `flow-cold` |
//! | `sta` model / compile / evaluate | `op_cpu_ms.p50` | `flow-cold`, `serve-warm` |
//! | `sta` MC, corners; `guardband` | `op_cpu_ms.p50` | `serve-warm` |
//! | `sta` incremental (`evaluate_eco`) | `op_cpu_ms.p50` | `eco-stream` |
//! | `session`, `artifact`, `durable` | `op_cpu_ms.p50` | `serve-warm` (restore, load), `eco-stream` (snapshot, save) |
//!
//! ## Answer checks (a mismatch or error fails the op)
//!
//! * `flow-cold`: tags, annotation, extraction stats and comparison of
//!   every op equal the first warm-up's bit for bit; every extracted
//!   length is finite, positive and within 0.55–1.45× drawn; at seed 11
//!   every gate's mean `l_delay_nm` is within 1 nm of
//!   `reference/flow-cold-seed11.tsv` (rewrite it with
//!   `--write-reference` when a change is meant to move lengths).
//! * `serve-warm`: every op is warm with no cold reason and answers
//!   exactly as the set-up cold serve did.
//! * `eco-stream`: one what-if in ten equals a fresh
//!   `CompiledSta::evaluate` of its edit; at run end the session equals a
//!   fresh `extract_gates` + `evaluate` of its final tags, and a restore of
//!   the last published artifact answers identically.
//! * Traced answers equal untraced ones (`eco-stream`: the session
//!   replays every traced ECO and what-if untimed, answer for answer).
//!
//! `attempted` counts every checked op: the warm-up ops, the timed ops and
//! the run-end checks.

mod common;
mod eco_stream;
mod flow_cold;
mod heap;
#[cfg(test)]
mod manifest;
mod metrics;
mod serve_warm;
mod trace;

use common::{Ctx, Outcome};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Duration;
use trace::Tracer;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const USAGE: &str = "usage: postopc-perfbench --workload <flow-cold|serve-warm|eco-stream> \
--seed N --seconds S --trace 0|1 [--write-reference]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut write_reference = false;
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            write_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        write_reference,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark aborted: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    // Outputs go next to the binary, inside the build directory.
    let exe = std::env::current_exe().map_err(common::err)?;
    let out_dir = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("cannot locate the build directory")?
        .join("perfbench-out");
    std::fs::create_dir_all(&out_dir).map_err(common::err)?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        threads: nproc,
        out_dir,
    };
    let mut tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "flow-cold" => flow_cold::run(&ctx, &mut tracer, args.write_reference)?,
        "serve-warm" => serve_warm::run(&ctx, &mut tracer)?,
        _ => eco_stream::run(&ctx, &mut tracer)?,
    };
    let env = environment(args, nproc);
    println!("{{\"env\": {env}}}");
    println!("{}", sample_summary(&outcome, peak_rss_mb()?));
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let path = ctx
            .out_dir
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        tracer.write_json(&path, &env).map_err(common::err)?;
        let values = metrics::per_layer(&tracer, &outcome);
        metrics::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, lookup(&values, m.name)))
            .collect()
    } else {
        let values = metrics::end_to_end(&outcome);
        metrics::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, lookup(&values, m.name)))
            .collect()
    };
    println!("{}", result_json(&outcome, &metrics));
    Ok(())
}

fn lookup(values: &BTreeMap<&'static str, f64>, name: &str) -> f64 {
    let v = *values
        .get(name)
        .unwrap_or_else(|| panic!("metric {name} was not derived"));
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Sample counts and raw samples behind the metrics, plus the process's
/// peak RSS for reference (not a metric: see `heap`).
fn sample_summary(o: &Outcome, peak_rss_mb: f64) -> String {
    format!(
        "{{\"samples\": {{\"setups\": {}, \"ops\": {}, \"traced_ops\": {}, \"setup_s\": {:?}, \"op_ms\": {:?}, \"op_cpu_ms\": {:?}, \"op_alloc_mb\": {:?}, \"traced_op_ms\": {:?}, \"peak_rss_mb\": {peak_rss_mb}}}}}",
        o.setup_s.len(),
        o.op_ms.len(),
        o.traced_op_ms.len(),
        o.setup_s,
        o.op_ms,
        o.op_cpu_ms,
        o.op_alloc_mb,
        o.traced_op_ms
    )
}

fn result_json(o: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.tally.failed == 0,
        o.tally.attempted,
        o.tally.failed,
        body.join(", ")
    )
}

/// Peak resident set of this process, MB (`VmHWM` in `/proc/self/status`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(common::err)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// First line of a command's stdout, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn environment(args: &Args, nproc: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only ask git inside a git checkout of its own, never a parent's.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"threads\": {}, \"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        postopc_parallel::effective_threads(Some(nproc)),
        json_str(&cpu),
        json_str(&command_line("rustc", &["-V"])),
        json_str(&commit),
    )
}
