//! The one measurement discipline of `perf_smoke`, the timing binary:
//! one timing statistic ([`measure`]), one record format (the
//! `BENCH_*.json` files, schema [`SCHEMA`]), one floor table ([`FLOORS`])
//! and one mode runner ([`run`]).
//!
//! A recorded floor bounds the single-thread median time of the engine it
//! protects: a fresh median may be at most the recorded median ÷
//! [`FLOOR_FRACTION`]. It bounds a time, not a ratio over a baseline, so
//! speeding up an unrelated layer never moves it. Record and check both
//! keep each timed row from the quietest of [`ROUNDS`] measurement rounds.
//! Multi-thread sides are never recorded: on a shared box a busy second
//! core turns a pool into a serial loop, and a floor on it would flake.
//!
//! `perf_smoke --record` is the only writer of the records, and it writes
//! exactly the rows the floors read. The workspace builds offline with no
//! JSON dependency, so the writer and its line-oriented reader are
//! hand-rolled for exactly this schema.

use postopc_sta::quantile::{quantiles_of_sorted, sorted_ascending};
use std::fmt;
use std::path::Path;
use std::time::Instant;

/// Timed runs per measurement, after one untimed warm-up.
pub const RUNS: usize = 5;

/// The spread of the timed runs of one measurement, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median run.
    pub median_s: f64,
    /// Fastest run.
    pub min_s: f64,
    /// Interquartile range (type-7 quartiles of
    /// [`postopc_sta::quantile`]).
    pub iqr_s: f64,
}

impl Timing {
    /// The statistic of `samples`, in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    fn of(samples: &[f64]) -> Timing {
        let q = quantiles_of_sorted(&sorted_ascending(samples), &[0.0, 0.25, 0.5, 0.75]);
        Timing {
            median_s: q[2],
            min_s: q[0],
            iqr_s: q[3] - q[1],
        }
    }
}

impl fmt::Display for Timing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (min {}, IQR {}, median of {RUNS})",
            format_seconds(self.median_s),
            format_seconds(self.min_s),
            format_seconds(self.iqr_s)
        )
    }
}

/// Runs `f` once untimed, then [`RUNS`] timed runs, and returns the
/// untimed run's result with the [`Timing`] of the timed ones. The
/// warm-up fills caches and thread-local workspaces. Timed results pass
/// through [`std::hint::black_box`], so the optimizer cannot elide the
/// work. After each timed run's clock stops, `check` sees the warm-up's
/// result and the run's, so a gate can hold every repeat to an exact
/// answer; the run's result is then dropped, outside the timed region.
pub fn measure<R>(mut f: impl FnMut() -> R, mut check: impl FnMut(&R, &R)) -> (R, Timing) {
    let value = f();
    let mut secs = [0.0; RUNS];
    for s in &mut secs {
        let t0 = Instant::now();
        let result = std::hint::black_box(f());
        *s = t0.elapsed().as_secs_f64();
        check(&value, &result);
    }
    (value, Timing::of(&secs))
}

/// Formats a duration in seconds with an auto-selected unit.
fn format_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

/// Sampling-accuracy errors of one `(sampling, samples)` point against a
/// high-sample plain reference, averaged over fixed seeds
/// (`postopc_sta::statistical::convergence_study`). The study is
/// deterministic and thread-invariant, so a fresh run normally
/// reproduces its record exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Mean absolute 1%-quantile worst-slack error, ps.
    pub q01_abs_err_ps: f64,
    /// Mean absolute 0.1%-quantile worst-slack error, ps: the deep-tail
    /// statistic tail-IS targets.
    pub q001_abs_err_ps: f64,
    /// Mean absolute mean-worst-slack error, ps.
    pub mean_abs_err_ps: f64,
}

/// What a [`Row`] records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// The timed runs of an engine.
    Timed(Timing),
    /// The estimation errors of a sampling scheme.
    Accuracy(Accuracy),
}

/// One row of a record.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name (e.g. `T6 composite 70%`).
    pub design: String,
    /// Engine configuration, or the sampling scheme of an accuracy row.
    pub engine: String,
    /// Work per timed run: gates extracted, Monte Carlo samples, or
    /// session queries answered.
    pub work: usize,
    /// Worker threads the measured runs used.
    pub threads: usize,
    /// The measurement.
    pub value: Value,
}

impl Row {
    /// A timed row.
    #[must_use]
    pub fn timed(design: &str, engine: &str, work: usize, threads: usize, timing: Timing) -> Row {
        Row {
            design: design.to_string(),
            engine: engine.to_string(),
            work,
            threads,
            value: Value::Timed(timing),
        }
    }

    /// The accuracy errors, if this is an accuracy row.
    #[must_use]
    pub fn accuracy(&self) -> Option<Accuracy> {
        match self.value {
            Value::Accuracy(a) => Some(a),
            Value::Timed(_) => None,
        }
    }
}

/// Schema identifier stamped into every record.
pub const SCHEMA: &str = "postopc-bench-record-v1";

/// The machine's hardware thread count, stamped into every record.
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Escapes a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a JSON number; a non-finite value, which JSON cannot hold,
/// renders as `null` and parses back as NaN, so every bound on it fails.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders a record of `rows`, one row per line, stamped with
/// `available_parallelism`.
fn render(available_parallelism: usize, rows: &[Row]) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"available_parallelism\": \
         {available_parallelism},\n  \"rows\": [\n"
    );
    for (i, row) in rows.iter().enumerate() {
        let value = match row.value {
            Value::Timed(t) => format!(
                "\"median_s\": {}, \"min_s\": {}, \"iqr_s\": {}",
                number(t.median_s),
                number(t.min_s),
                number(t.iqr_s)
            ),
            Value::Accuracy(a) => format!(
                "\"q01_abs_err_ps\": {}, \"q001_abs_err_ps\": {}, \"mean_abs_err_ps\": {}",
                number(a.q01_abs_err_ps),
                number(a.q001_abs_err_ps),
                number(a.mean_abs_err_ps)
            ),
        };
        out.push_str(&format!(
            "    {{\"design\": \"{}\", \"engine\": \"{}\", \"work\": {}, \"threads\": {}, \
             {value}}}{}\n",
            escape(&row.design),
            escape(&row.engine),
            row.work,
            row.threads,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts a string field's value from a rendered row line, undoing the
/// escapes [`escape`] applies.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(match chars.next()? {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
                }
                other => other,
            }),
            c => out.push(c),
        }
    }
    None
}

/// The raw token of a non-string field of a rendered row line.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim())
}

/// A numeric field; `null` reads as NaN (see [`number`]).
fn num_field(line: &str, key: &str) -> Option<f64> {
    match raw_field(line, key)? {
        "null" => Some(f64::NAN),
        token => token.parse().ok(),
    }
}

fn parse_row(line: &str) -> Option<Row> {
    let timed = (
        num_field(line, "median_s"),
        num_field(line, "min_s"),
        num_field(line, "iqr_s"),
    );
    let value = match timed {
        (Some(median_s), Some(min_s), Some(iqr_s)) => Value::Timed(Timing {
            median_s,
            min_s,
            iqr_s,
        }),
        _ => Value::Accuracy(Accuracy {
            q01_abs_err_ps: num_field(line, "q01_abs_err_ps")?,
            q001_abs_err_ps: num_field(line, "q001_abs_err_ps")?,
            mean_abs_err_ps: num_field(line, "mean_abs_err_ps")?,
        }),
    };
    Some(Row {
        design: str_field(line, "design")?,
        engine: str_field(line, "engine")?,
        work: raw_field(line, "work")?.parse().ok()?,
        threads: raw_field(line, "threads")?.parse().ok()?,
        value,
    })
}

/// A parsed record file.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    /// The recording machine's hardware thread count.
    available_parallelism: usize,
    rows: Vec<Row>,
}

/// Reads a record [`render`] produced back. This is the inverse of the
/// writer, bound to its one-row-per-line layout, not a general JSON
/// parser. A line missing any field of a row is not a row. Fails with why
/// the document is not a [`SCHEMA`] record.
fn parse(doc: &str) -> Result<Record, String> {
    let header = (
        doc.contains(&format!("\"schema\": \"{SCHEMA}\"")),
        raw_field(doc, "available_parallelism").and_then(|t| t.parse().ok()),
    );
    let (true, Some(available_parallelism)) = header else {
        return Err(format!("not a {SCHEMA} record"));
    };
    Ok(Record {
        available_parallelism,
        rows: doc.lines().filter_map(parse_row).collect(),
    })
}

/// Reads and parses the record at `path`, or says why the file cannot
/// be read or is not a record.
fn read(path: &Path) -> Result<Record, String> {
    let doc = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

/// A fresh median may be at most the recorded median ÷ this fraction.
/// The margin absorbs machine-to-machine and run-to-run noise while still
/// catching a lost cache or a de-batched hot loop, which cost integer
/// factors, not 40 %.
pub const FLOOR_FRACTION: f64 = 0.6;

/// A fresh sampling-accuracy error may exceed its recorded value by at
/// most this factor. The study is deterministic, so the headroom only
/// lets intentional estimator retunes land without a re-record, while a
/// real regression (a broken weight path, a lost tilt) blows the quantile
/// errors by integer factors.
pub const ACCURACY_TOLERANCE: f64 = 1.5;

/// `--record` and `--bench-regression` measure their rows this many
/// times and keep each timed row from its quietest round, the one with
/// the lowest median. A shared machine swings between load states up to
/// ~1.7× apart, each lasting from a fraction of a second to several
/// seconds, and within one state the median hardly moves. One round
/// measures whichever state it lands in: a record taken busy lets a
/// doubled engine through on a quiet machine, and a quiet record fails an
/// unchanged engine on a busy one. The quietest of several rounds
/// estimates the same quiet time on both sides.
pub const ROUNDS: usize = 3;

/// The binary that measures, writes and checks the records; it prefixes
/// every report line.
const NAME: &str = "perf_smoke";

/// The statistic a [`Floor`] bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// The median time: fresh ≤ recorded ÷ [`FLOOR_FRACTION`].
    Median,
    /// The q01 and q001 errors: fresh ≤ recorded × [`ACCURACY_TOLERANCE`].
    Accuracy,
}

/// One recorded floor: the row it reads and the bound it applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Floor {
    /// The record file, relative to the working directory (the
    /// repository root in `scripts/check.sh`).
    pub file: &'static str,
    /// The row's workload.
    pub design: &'static str,
    /// The row's engine or sampling scheme.
    pub engine: &'static str,
    /// The row's work per run.
    pub work: usize,
    /// The bounded statistic.
    pub bound: Bound,
}

impl Floor {
    /// Whether `row` is the row this floor reads.
    fn reads(&self, row: &Row) -> bool {
        row.design == self.design && row.engine == self.engine && row.work == self.work
    }

    fn label(&self) -> String {
        format!("{} / {} @ {}", self.design, self.engine, self.work)
    }
}

const EXTRACT: &str = "BENCH_extract.json";
const STA: &str = "BENCH_sta.json";
const SERVE: &str = "BENCH_serve.json";
/// The T6 evaluation workload's row name.
pub const T6: &str = "T6 composite 70%";

const fn floor(
    file: &'static str,
    design: &'static str,
    engine: &'static str,
    work: usize,
    bound: Bound,
) -> Floor {
    Floor {
        file,
        design,
        engine,
        work,
        bound,
    }
}

/// Every recorded floor. Timed rows run on one thread, so a busy second
/// core cannot move them.
pub const FLOORS: &[Floor] = &[
    floor(
        EXTRACT,
        "uniform inv farm 240",
        "context cache",
        240,
        Bound::Median,
    ),
    floor(
        EXTRACT,
        "shuffled farm 20x24",
        "cache + surrogate",
        480,
        Bound::Median,
    ),
    floor(STA, T6, "batched", 2000, Bound::Median),
    floor(STA, T6, "plain", 500, Bound::Accuracy),
    floor(STA, T6, "plain", 2000, Bound::Accuracy),
    floor(STA, T6, "antithetic", 500, Bound::Accuracy),
    floor(STA, T6, "antithetic", 2000, Bound::Accuracy),
    floor(STA, T6, "tail-is", 500, Bound::Accuracy),
    floor(STA, T6, "tail-is", 2000, Bound::Accuracy),
    floor(SERVE, T6, "warm session", 24, Bound::Median),
    floor(SERVE, "T9 farm 12x16", "warm session", 24, Bound::Median),
];

/// One floor's verdict: `Ok(report)` when the fresh row holds against the
/// record, `Err(report)` otherwise. A record that could not be read, a row
/// missing from either side, or a row of the wrong kind fails: a floor
/// that cannot find its baseline protects nothing.
fn judge(
    floor: &Floor,
    record: &Result<Vec<Row>, String>,
    fresh: &[Row],
) -> Result<String, String> {
    let label = floor.label();
    let record = record.as_ref().map_err(|e| format!("{label}: {e}"))?;
    let recorded = record.iter().find(|r| floor.reads(r)).ok_or_else(|| {
        format!(
            "{label}: no recorded row in {} (re-record with {NAME} --record)",
            floor.file
        )
    })?;
    let fresh = fresh
        .iter()
        .find(|r| floor.reads(r))
        .ok_or_else(|| format!("{label}: the measurement produced no row"))?;
    match (floor.bound, recorded.value, fresh.value) {
        (Bound::Median, Value::Timed(rec), Value::Timed(new)) => {
            let bound = rec.median_s / FLOOR_FRACTION;
            let report = format!(
                "{label}: fresh {new} vs recorded {} (bound {})",
                format_seconds(rec.median_s),
                format_seconds(bound)
            );
            if new.median_s <= bound {
                Ok(report)
            } else {
                Err(report)
            }
        }
        (Bound::Accuracy, Value::Accuracy(rec), Value::Accuracy(new)) => {
            let q01 = rec.q01_abs_err_ps * ACCURACY_TOLERANCE;
            let q001 = rec.q001_abs_err_ps * ACCURACY_TOLERANCE;
            let report = format!(
                "{label}: fresh q01 {:.3} ps / q001 {:.3} ps vs recorded {:.3} / {:.3} ps \
                 (x{ACCURACY_TOLERANCE})",
                new.q01_abs_err_ps, new.q001_abs_err_ps, rec.q01_abs_err_ps, rec.q001_abs_err_ps
            );
            if new.q01_abs_err_ps <= q01 && new.q001_abs_err_ps <= q001 {
                Ok(report)
            } else {
                Err(report)
            }
        }
        _ => Err(format!(
            "{label}: recorded or fresh row is not a {:?} row",
            floor.bound
        )),
    }
}

/// Runs `rows` [`ROUNDS`] times and keeps each row from its quietest
/// round: a timed row from the round with the lowest median (a NaN
/// median is the loudest), an accuracy row, which is deterministic, from
/// the first. Returns the rows and `true` if a check of any round failed.
fn quietest(rows: impl Fn() -> (Vec<Row>, bool)) -> (Vec<Row>, bool) {
    let median = |row: &Row| match row.value {
        Value::Timed(t) => t.median_s,
        Value::Accuracy(_) => f64::NEG_INFINITY,
    };
    let (mut kept, mut failed) = rows();
    for _ in 1..ROUNDS {
        let (round, bad) = rows();
        failed |= bad;
        for row in round {
            let same = |k: &&mut Row| {
                (&k.design, &k.engine, k.work) == (&row.design, &row.engine, row.work)
            };
            match kept.iter_mut().find(same) {
                Some(k) if median(&row).total_cmp(&median(k)).is_lt() => *k = row,
                Some(_) => {}
                None => kept.push(row),
            }
        }
    }
    (kept, failed)
}

/// The record files, in table order, each with the rows of `measured`
/// that its floors read. Fails with the first floor no measured row
/// answers.
fn records_of(measured: &[Row]) -> Result<Vec<(&'static str, Vec<Row>)>, String> {
    let mut files: Vec<(&'static str, Vec<Row>)> = Vec::new();
    for floor in FLOORS {
        let row = measured
            .iter()
            .find(|r| floor.reads(r))
            .ok_or_else(|| format!("{}: the measurement produced no row", floor.label()))?;
        match files.iter_mut().find(|(file, _)| *file == floor.file) {
            Some((_, rows)) => rows.push(row.clone()),
            None => files.push((floor.file, vec![row.clone()])),
        }
    }
    Ok(files)
}

/// `--record`: writes exactly the rows the floors read. Returns `true` on
/// failure.
fn record(measured: &[Row]) -> bool {
    let files = match records_of(measured) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("{NAME}: FAIL - {e}");
            return true;
        }
    };
    let mut failed = false;
    for (file, rows) in files {
        match std::fs::write(file, render(available_parallelism(), &rows)) {
            Ok(()) => println!("{NAME}: recorded {} rows to {file}", rows.len()),
            Err(e) => {
                eprintln!("{NAME}: FAIL - cannot write {file}: {e}");
                failed = true;
            }
        }
    }
    failed
}

/// `--bench-regression`: judges every floor against its record. Returns
/// `true` on failure.
fn regression(fresh: &[Row]) -> bool {
    let mut records = std::collections::BTreeMap::new();
    let mut failed = false;
    for floor in FLOORS {
        let record = records.entry(floor.file).or_insert_with(|| {
            read(Path::new(floor.file)).map(|record| {
                println!(
                    "{NAME}: {} was recorded with available_parallelism {} (here {})",
                    floor.file,
                    record.available_parallelism,
                    available_parallelism()
                );
                record.rows
            })
        });
        match judge(floor, record, fresh) {
            Ok(report) => println!("{NAME}: bench {report} - OK"),
            Err(report) => {
                eprintln!("{NAME}: FAIL - bench {report}");
                failed = true;
            }
        }
    }
    if !failed {
        println!("{NAME}: PASS - every recorded floor holds");
    }
    failed
}

/// `perf_smoke`'s `main`: parses the arguments, runs one mode and exits 1
/// if it failed.
///
/// - No argument: `ratios`, the binary's default checks.
/// - `--record`: each row from the quietest of [`ROUNDS`] runs of
///   `rows`, then writes the rows the floors read to their files, unless
///   a check of the measurement failed.
/// - `--bench-regression`: each row from the quietest of [`ROUNDS`] runs
///   of `rows`, then judges every floor.
///
/// `ratios` returns `true` on failure; `rows` returns the measured rows
/// and `true` if a check made during the measurement failed.
pub fn run(ratios: impl FnOnce() -> bool, rows: impl Fn() -> (Vec<Row>, bool)) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let failed = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => ratios(),
        ["--record"] => {
            let (rows, failed) = quietest(rows);
            if failed {
                eprintln!("{NAME}: FAIL - a measurement check failed; nothing recorded");
            }
            failed || record(&rows)
        }
        ["--bench-regression"] => {
            let (rows, failed) = quietest(rows);
            regression(&rows) | failed
        }
        _ => {
            eprintln!(
                "{NAME}: unknown arguments {args:?} (expected --record or --bench-regression)"
            );
            true
        }
    };
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(median_s: f64) -> Timing {
        Timing {
            median_s,
            min_s: median_s * 0.9,
            iqr_s: median_s * 0.1,
        }
    }

    fn accuracy(q01: f64, q001: f64) -> Accuracy {
        Accuracy {
            q01_abs_err_ps: q01,
            q001_abs_err_ps: q001,
            mean_abs_err_ps: 0.75,
        }
    }

    /// The row `floor` reads, holding `value`.
    fn row_for(floor: &Floor, value: Value) -> Row {
        Row {
            design: floor.design.to_string(),
            engine: floor.engine.to_string(),
            work: floor.work,
            threads: 1,
            value,
        }
    }

    /// The row of `floor` with a dummy value of its kind.
    fn dummy_row(floor: &Floor) -> Row {
        row_for(
            floor,
            match floor.bound {
                Bound::Median => Value::Timed(timing(0.01)),
                Bound::Accuracy => Value::Accuracy(accuracy(1.0, 2.0)),
            },
        )
    }

    #[test]
    fn statistic_of_odd_and_even_sample_sets() {
        let odd = Timing::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(odd.median_s, 3.0);
        assert_eq!(odd.min_s, 1.0);
        // Type-7 quartiles of 1..=5 sit on samples 2 and 4.
        assert_eq!(odd.iqr_s, 2.0);
        let even = Timing::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.median_s, 2.5);
        assert_eq!(even.min_s, 1.0);
        // Quartiles at positions 0.75 and 2.25: 1.75 and 3.25.
        assert_eq!(even.iqr_s, 1.5);
        let single = Timing::of(&[7.0]);
        assert_eq!(
            (single.median_s, single.min_s, single.iqr_s),
            (7.0, 7.0, 0.0)
        );
    }

    #[test]
    fn measure_warms_up_once_and_checks_every_timed_run() {
        let mut calls = 0usize;
        let mut checked = Vec::new();
        let (first, t) = measure(
            || {
                calls += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
                calls
            },
            |warm, run| checked.push((*warm, *run)),
        );
        assert_eq!(calls, 1 + RUNS);
        assert_eq!(first, 1);
        let expected: Vec<(usize, usize)> = (2..=1 + RUNS).map(|run| (1, run)).collect();
        assert_eq!(checked, expected);
        assert!(t.min_s >= 1e-3);
        assert!(t.min_s <= t.median_s && t.iqr_s >= 0.0);
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(format_seconds(2.5), "2.50 s");
        assert_eq!(format_seconds(0.002), "2.00 ms");
        assert_eq!(format_seconds(2e-5), "20.0 us");
    }

    #[test]
    fn median_floor_passes_at_and_under_the_bound_and_fails_over_it() {
        let floor = &FLOORS[0];
        assert_eq!(floor.bound, Bound::Median);
        let record = Ok(vec![row_for(floor, Value::Timed(timing(0.06)))]);
        let bound = 0.06 / FLOOR_FRACTION;
        let verdict = |median: f64| {
            judge(
                floor,
                &record,
                &[row_for(floor, Value::Timed(timing(median)))],
            )
        };
        assert!(verdict(bound).is_ok());
        assert!(verdict(bound * (1.0 - 1e-9)).is_ok());
        assert!(verdict(bound * (1.0 + 1e-9)).is_err());
        assert!(verdict(f64::NAN).is_err());
    }

    #[test]
    fn accuracy_floor_bounds_both_quantiles() {
        let floor = FLOORS
            .iter()
            .find(|f| f.bound == Bound::Accuracy)
            .expect("an accuracy floor");
        let record = Ok(vec![row_for(floor, Value::Accuracy(accuracy(2.0, 4.0)))]);
        let verdict = |q01: f64, q001: f64| {
            judge(
                floor,
                &record,
                &[row_for(floor, Value::Accuracy(accuracy(q01, q001)))],
            )
        };
        assert!(verdict(3.0, 6.0).is_ok());
        assert!(verdict(2.0 * 1.5 * (1.0 - 1e-9), 1.0).is_ok());
        assert!(verdict(3.0 * (1.0 + 1e-9), 1.0).is_err());
        assert!(verdict(1.0, 6.0 * (1.0 + 1e-9)).is_err());
    }

    #[test]
    fn missing_rows_unreadable_records_and_kind_mismatches_fail() {
        let floor = &FLOORS[0];
        let fresh = [dummy_row(floor)];
        // No recorded row for the floor (another floor's row only).
        let other = Ok(vec![dummy_row(&FLOORS[1])]);
        assert!(judge(floor, &other, &fresh)
            .unwrap_err()
            .contains("no recorded row"));
        // No fresh row.
        assert!(judge(floor, &Ok(fresh.to_vec()), &[]).is_err());
        // A file that does not exist, and one that is not a record.
        let missing = read(Path::new("no/such/BENCH_extract.json")).map(|r| r.rows);
        assert!(missing.as_ref().unwrap_err().contains("cannot read"));
        assert!(judge(floor, &missing, &fresh).is_err());
        let garbage = parse("not json at all").map(|r| r.rows);
        assert!(garbage.is_err());
        assert!(judge(floor, &garbage, &fresh).is_err());
        // A record without its header is not a record.
        let headless = render(2, &fresh).replace("\"available_parallelism\": 2,", "");
        assert!(parse(&headless).is_err());
        // A timed floor over an accuracy row.
        let wrong = Ok(vec![row_for(floor, Value::Accuracy(accuracy(1.0, 1.0)))]);
        assert!(judge(floor, &wrong, &fresh).is_err());
    }

    #[test]
    fn render_parse_round_trips_timed_and_accuracy_rows() {
        let rows = vec![
            Row::timed(
                "uniform inv farm 240",
                "context cache",
                240,
                1,
                timing(0.0725),
            ),
            Row {
                design: T6.to_string(),
                engine: "tail-is".to_string(),
                work: 500,
                threads: 2,
                value: Value::Accuracy(accuracy(1.2976957595630665, 1.6557588643115764)),
            },
            Row::timed(
                "evil \"name\"\\with\nnewline\tand\u{1}",
                "e\r",
                3,
                1,
                timing(1.5),
            ),
        ];
        let doc = render(2, &rows);
        assert!(doc.contains("\"schema\": \"postopc-bench-record-v1\""));
        assert!(doc.contains("\"available_parallelism\": 2"));
        assert!(doc.contains("evil \\\"name\\\"\\\\with\\nnewline\\tand\\u0001"));
        // One row per line, comma-separated, no trailing comma.
        assert_eq!(doc.matches("},\n").count(), 2);
        assert!(!doc.contains("},\n  ]"));
        assert_eq!(
            parse(&doc),
            Ok(Record {
                available_parallelism: 2,
                rows
            })
        );
        // A line with a design but no value is not a row.
        let partial = render(3, &[]).replace("[\n", "[\n{\"design\": \"x\", \"engine\": \"y\"}\n");
        assert_eq!(
            parse(&partial),
            Ok(Record {
                available_parallelism: 3,
                rows: vec![]
            })
        );
    }

    #[test]
    fn seeded_mutations_of_a_record_parse_or_fail_typed() {
        use postopc_rng::{RngExt, SeedableRng, StdRng};
        // Every floor's row plus one whose strings need every escape.
        let mut rows: Vec<Row> = FLOORS.iter().map(dummy_row).collect();
        rows.push(Row::timed(
            "evil \"n\"\\\n\t\u{1}é",
            "e\r",
            3,
            2,
            timing(1.5),
        ));
        let doc = render(2, &rows);
        let record = Record {
            available_parallelism: 2,
            rows,
        };
        assert_eq!(parse(&doc), Ok(record));
        // Tokens that reach the reader's number, escape and field paths.
        let tokens = [
            "\"",
            "\\",
            "\\u",
            "\\ud800",
            "\\u00e9",
            "null",
            "NaN",
            "-1",
            "1e999",
            ",",
            "}",
            "\n",
            "\"work\": ",
            "\"median_s\": ",
            "\"design\": \"",
            "é",
        ];
        let mut rng = StdRng::seed_from_u64(29);
        let (mut records, mut errors) = (0, 0);
        for _ in 0..4000 {
            let mut b = doc.as_bytes().to_vec();
            let at = rng.random_range(0..b.len());
            match rng.random_range(0..4u32) {
                0 => b[at] = rng.random_range(0..256u32) as u8,
                1 => b.truncate(at),
                2 => {
                    let len = rng.random_range(1..=(b.len() - at).min(80));
                    let slice = b[at..at + len].to_vec();
                    let to = rng.random_range(0..=b.len());
                    b.splice(to..to, slice);
                }
                _ => {
                    let token = tokens[rng.random_range(0..tokens.len())];
                    b.splice(at..at, token.bytes());
                }
            }
            match parse(&String::from_utf8_lossy(&b)) {
                // A record re-renders to a document that reads back to
                // the same rendering.
                Ok(record) => {
                    let again = render(record.available_parallelism, &record.rows);
                    let reread = parse(&again).expect("a rendered record parses");
                    assert_eq!(render(reread.available_parallelism, &reread.rows), again);
                    records += 1;
                }
                Err(e) => {
                    assert!(e.contains(SCHEMA), "{e}");
                    errors += 1;
                }
            }
        }
        assert!(
            records > 0 && errors > 0,
            "{records} records, {errors} errors"
        );
    }

    #[test]
    fn non_finite_values_render_as_null_and_fail_their_bound() {
        let floor = &FLOORS[0];
        let broken = row_for(
            floor,
            Value::Timed(Timing {
                median_s: f64::INFINITY,
                min_s: f64::NAN,
                iqr_s: f64::NEG_INFINITY,
            }),
        );
        let doc = render(1, std::slice::from_ref(&broken));
        assert!(doc.contains("\"median_s\": null, \"min_s\": null, \"iqr_s\": null"));
        let parsed = parse(&doc).expect("a record").rows;
        let Value::Timed(t) = parsed[0].value else {
            panic!("a timed row");
        };
        assert!(t.median_s.is_nan() && t.min_s.is_nan() && t.iqr_s.is_nan());
        // A non-finite record bounds nothing: every fresh value fails.
        assert!(judge(floor, &Ok(parsed), &[dummy_row(floor)]).is_err());
    }

    #[test]
    fn every_record_holds_exactly_the_rows_its_floors_read() {
        // Render what `--record` writes from dummy rows (a superset, as a
        // measurement may produce extra rows), parse it back, and find
        // every floor's row in its own file.
        let mut measured: Vec<Row> = FLOORS.iter().map(dummy_row).collect();
        measured.push(Row::timed("unrelated", "engine", 1, 1, timing(1.0)));
        let files = records_of(&measured).expect("every floor measured");
        for floor in FLOORS {
            let (_, rows) = files
                .iter()
                .find(|(file, _)| *file == floor.file)
                .expect("the floor's file is recorded");
            let record = parse(&render(2, rows)).map(|r| r.rows);
            assert!(judge(floor, &record, &measured).is_ok(), "{floor:?}");
        }
        let written: usize = files.iter().map(|(_, rows)| rows.len()).sum();
        assert_eq!(written, FLOORS.len());
        assert_eq!(
            files.iter().map(|(file, _)| *file).collect::<Vec<_>>(),
            [EXTRACT, STA, SERVE]
        );
        // A measurement missing a floor's row records nothing.
        assert!(records_of(&[dummy_row(&FLOORS[0])]).is_err());
    }

    #[test]
    fn quietest_keeps_each_timed_row_from_its_lowest_median_round() {
        assert_eq!(ROUNDS, 3);
        let floors: Vec<&Floor> = FLOORS.iter().collect();
        // Round by round: the timed medians, the accuracy q01 and whether
        // a check failed. The first round's timed rows are NaN.
        let plan = [
            (f64::NAN, 1.0, false),
            (0.03, 2.0, false),
            (0.01, 3.0, true),
        ];
        let round = std::cell::Cell::new(0);
        let (rows, failed) = quietest(|| {
            let (median_s, q01, bad) = plan[round.replace(round.get() + 1)];
            let rows = floors
                .iter()
                .map(|f| match f.bound {
                    Bound::Median => row_for(f, Value::Timed(timing(median_s))),
                    Bound::Accuracy => row_for(f, Value::Accuracy(accuracy(q01, 1.0))),
                })
                .collect();
            (rows, bad)
        });
        assert_eq!(round.get(), ROUNDS);
        assert!(failed, "a failed check in any round fails the measurement");
        assert_eq!(rows.len(), floors.len());
        for row in &rows {
            match row.value {
                Value::Timed(t) => assert_eq!(t.median_s, 0.01),
                Value::Accuracy(a) => assert_eq!(a.q01_abs_err_ps, 1.0),
            }
        }
    }

    #[test]
    fn record_write_and_read_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("postopc_runner_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_sta.json");
        let rows = vec![dummy_row(&FLOORS[2]), dummy_row(&FLOORS[3])];
        std::fs::write(&path, render(available_parallelism(), &rows)).expect("write");
        assert_eq!(read(&path).map(|r| r.rows), Ok(rows));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
