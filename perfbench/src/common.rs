//! Pieces shared by the workloads: run context, op tally, statistics,
//! the seeded paper testcase and the extraction-window replay.

use crate::trace::Tracer;
use postopc::{ExtractionStats, FlowConfig, OpcMode, Selection, TagSet};
use postopc_cdex::extract_gate;
use postopc_geom::{Polygon, Vector};
use postopc_layout::{
    generate, Design, GateId, Layer, PlacementOptions, TechRules, TransistorSite,
};
use postopc_litho::AerialImage;
use postopc_opc::{model, rules};
use postopc_sta::TimingModel;
use std::fmt::Display;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Critical paths tagged by the paper flow in `flow-cold` / `serve-warm`.
pub const TESTCASE_PATHS: usize = 3;
/// The seed whose testcase sets the imaging work every testcase matches.
const WORK_SEED: u64 = 11;
/// How far a testcase's summed window raster may stray from the
/// work seed's.
const WORK_TOLERANCE: f64 = 0.02;
/// Candidates tried per seed before falling back to the closest one.
const TESTCASE_CANDIDATES: u64 = 512;

/// What every workload gets from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    /// Worker threads handed to every config's `threads` field.
    pub threads: usize,
    /// Where artifacts and the trace are written (inside the build dir).
    pub out_dir: PathBuf,
}

/// Ops attempted and failed. An op fails when it errors or its answer
/// check does not hold.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// What a workload hands back to the reporter.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Wall time of each set-up, s.
    pub setup_s: Vec<f64>,
    /// Latency of each untraced op, ms.
    pub op_ms: Vec<f64>,
    /// CPU time each untraced op used, all threads, ms.
    pub op_cpu_ms: Vec<f64>,
    /// Heap bytes each untraced op allocated, MB.
    pub op_alloc_mb: Vec<f64>,
    /// Latency of each traced op, ms (traced run only).
    pub traced_op_ms: Vec<f64>,
    /// How many ops' worth of extraction windows the replay covered.
    pub replay_ops: f64,
}

/// Runs one untraced op, recording its latency, CPU time and allocation
/// volume.
pub fn timed<T>(out: &mut Outcome, op: impl FnOnce() -> T) -> T {
    let allocated = crate::heap::allocated_mb();
    let cpu = process_cpu_ms();
    let start = Instant::now();
    let result = op();
    out.op_ms.push(start.elapsed().as_secs_f64() * 1e3);
    out.op_cpu_ms.push(process_cpu_ms() - cpu);
    out.op_alloc_mb
        .push(crate::heap::allocated_mb() - allocated);
    result
}

/// CPU time this process has used so far, summed over all its threads
/// (those that have exited included), ms.
fn process_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is the kernel's constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

pub fn err<E: Display>(e: E) -> String {
    e.to_string()
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `Design::compile_with`, inside a `layout.compile` span.
pub fn compile(
    t: &mut Tracer,
    netlist: postopc_layout::Netlist,
    options: &PlacementOptions,
) -> Result<Design, String> {
    t.span("layout.compile", || {
        Design::compile_with(netlist, TechRules::n90(), options)
    })
    .map_err(err)
}

/// Drawn critical delay × 1.1: the clock every workload times against.
pub fn drawn_clock(design: &Design) -> Result<f64, String> {
    let process = FlowConfig::standard(1.0).process;
    let model = TimingModel::new(design, process, 1.0e6).map_err(err)?;
    let report = model.analyze(None).map_err(err)?;
    Ok(report.critical_delay_ps() * 1.1)
}

/// The paper flow's config (model OPC, top-3 paths) at `clock_ps`.
pub fn paper_config(clock_ps: f64, threads: usize) -> FlowConfig {
    let mut cfg = FlowConfig::standard(clock_ps);
    cfg.selection = Selection::Critical {
        paths: TESTCASE_PATHS,
    };
    cfg.extraction.threads = Some(threads);
    cfg
}

/// The composite paper testcase for `seed` (572 gates, 70 % row
/// utilisation as in `bench::evaluation_design`), with its clock.
///
/// Candidate `i` is `paper_testcase(s_i)` placed with seed `s_i`, where
/// `s_0 = seed` and `s_i = split_seed(seed, i)`. The first candidate that
/// hands the cold flow the same imaging work as the [`WORK_SEED`]
/// testcase — its tagged windows' summed raster within
/// [`WORK_TOLERANCE`] — is used (typically within 40 candidates, ~20 ms
/// each). Unmatched, the tagged-gate count swings from 21 to 38 across
/// seeds and cold-flow time with it (3.2–6.2 s), which would drown a
/// code change in seed noise.
pub fn testcase(seed: u64, t: &mut Tracer) -> Result<(Design, f64), String> {
    let target = {
        let (design, clock) = testcase_candidate(WORK_SEED, t)?;
        work(&design, clock)?
    };
    let mut closest: Option<(f64, u64)> = None;
    for i in 0..TESTCASE_CANDIDATES {
        let s = if i == 0 {
            seed
        } else {
            postopc_rng::split_seed(seed, i)
        };
        let (design, clock) = testcase_candidate(s, t)?;
        let w = work(&design, clock)?;
        let gap = (w / target - 1.0).abs();
        if gap <= WORK_TOLERANCE {
            return Ok((design, clock));
        }
        if closest.is_none_or(|(g, _)| gap < g) {
            closest = Some((gap, s));
        }
    }
    let (_, s) = closest.ok_or("no testcase candidate")?;
    testcase_candidate(s, t)
}

fn testcase_candidate(s: u64, t: &mut Tracer) -> Result<(Design, f64), String> {
    let netlist = generate::paper_testcase(s).map_err(err)?;
    let design = compile(
        t,
        netlist,
        &PlacementOptions {
            utilization: 0.7,
            seed: s,
        },
    )?;
    let clock = drawn_clock(&design)?;
    Ok((design, clock))
}

/// The imaging work a testcase hands the cold flow: the padded raster
/// pixels of its tagged gates' windows, summed (a window's size is fixed
/// by its cell).
fn work(design: &Design, clock: f64) -> Result<f64, String> {
    let cfg = paper_config(clock, 1);
    let model = TimingModel::new(design, cfg.process.clone(), clock).map_err(err)?;
    let drawn = model.analyze(None).map_err(err)?;
    let tags = TagSet::from_critical_paths(design, &drawn, TESTCASE_PATHS);
    let ex = &cfg.extraction;
    let pad = 2.0 * ex.sim.kernel_stack().ambit_nm().ceil();
    let mut pixels = 0.0;
    for gate in tags.iter() {
        let g = design.netlist().gate(gate);
        let window = design
            .library()
            .cell(g.kind, g.drive)
            .shapes_on(Layer::Poly)
            .map(Polygon::bbox)
            .reduce(|a, b| a.union_bbox(&b))
            .ok_or_else(|| format!("gate {} has no poly", gate.0))?
            .expand(ex.window_margin_nm)
            .map_err(err)?;
        pixels += ((window.width() as f64 + pad) / ex.sim.pixel_nm + 1.0)
            * ((window.height() as f64 + pad) / ex.sim.pixel_nm + 1.0);
    }
    Ok(pixels)
}

/// Records the counts of one `extract.gates` call.
pub fn record_extraction(t: &mut Tracer, stats: &ExtractionStats, tagged: usize) {
    t.count("extract.windows", stats.windows as f64);
    t.count("extract.cache_hits", stats.cache_hits as f64);
    t.count("extract.store_hits", stats.store_hits as f64);
    t.count("extract.opc_simulations", stats.opc_simulations as f64);
    t.count("extract.tagged", tagged as f64);
}

/// Replays one gate's extraction window through the calls `extract_gates`
/// makes for a novel context — OPC (`opc.rules`, `opc.model`), the final
/// image (`litho.simulate`) and per-channel slicing
/// (`cdex.extract_gate`) — each in its own span under a `replay.window`
/// root. The window is built from `Design`'s public accessors exactly as
/// the extraction engine builds it (window-local frame, sorted context).
pub fn replay_window(
    t: &mut Tracer,
    design: &Design,
    config: &FlowConfig,
    gate: GateId,
) -> Result<(), String> {
    let ex = &config.extraction;
    let g = design.netlist().gate(gate);
    let cell = design.library().cell(g.kind, g.drive);
    let inst = design
        .placement()
        .instance(gate)
        .ok_or_else(|| format!("gate {} is not placed", gate.0))?;
    let chip_targets: Vec<Polygon> = cell
        .shapes_on(Layer::Poly)
        .map(|p| inst.transform.apply_polygon(p))
        .collect();
    let window = chip_targets
        .iter()
        .map(Polygon::bbox)
        .reduce(|a, b| a.union_bbox(&b))
        .ok_or_else(|| format!("gate {} has no poly", gate.0))?
        .expand(ex.window_margin_nm)
        .map_err(err)?;
    let search = window.expand(ex.context_ambit_nm).map_err(err)?;
    let shift = Vector {
        dx: -window.left(),
        dy: -window.bottom(),
    };
    let targets: Vec<Polygon> = chip_targets.iter().map(|p| p.translate(shift)).collect();
    let mut context: Vec<Polygon> = design
        .shapes_in_window(Layer::Poly, search)
        .into_iter()
        .filter(|p| !chip_targets.contains(p))
        .map(|p| p.translate(shift))
        .collect();
    context.sort_by(|a, b| {
        let ka = a.vertices().iter().map(|p| (p.x, p.y));
        let kb = b.vertices().iter().map(|p| (p.x, p.y));
        ka.cmp(kb)
    });
    let window = window.translate(shift);
    let sites: Vec<TransistorSite> = design
        .transistor_sites()
        .iter()
        .filter(|s| s.gate == gate)
        .map(|s| TransistorSite {
            channel: s.channel.translate(shift),
            ..*s
        })
        .collect();

    let root = t.begin("replay.window");
    let result = (|| -> Result<(), String> {
        let (mask_targets, mask_context) = match ex.opc_mode {
            OpcMode::None => (targets.clone(), context.clone()),
            OpcMode::Rule => {
                let tc = t.span("opc.rules", || {
                    rules::correct(&ex.rule_opc, &targets, &context)
                });
                let cc = t.span("opc.rules", || {
                    rules::correct(&ex.rule_opc, &context, &targets)
                });
                (tc.map_err(err)?.corrected, cc.map_err(err)?.corrected)
            }
            OpcMode::Model => {
                let cc = t
                    .span("opc.rules", || {
                        rules::correct(&ex.rule_opc, &context, &targets)
                    })
                    .map_err(err)?;
                let m = t
                    .span("opc.model", || {
                        model::correct(&ex.model_opc, &targets, &cc.corrected, window)
                    })
                    .map_err(err)?;
                t.count("opc.model_sims", m.report.simulations as f64);
                (m.corrected, cc.corrected)
            }
        };
        let mask: Vec<Polygon> = mask_targets.into_iter().chain(mask_context).collect();
        let image = t
            .span("litho.simulate", || {
                AerialImage::simulate(&ex.sim, &mask, window)
            })
            .map_err(err)?;
        t.count("litho.pixels", image.grid().len() as f64);
        for site in &sites {
            // A channel that does not print falls back to drawn in the
            // engine too; only the time of the attempt matters here.
            let _ = t.span("cdex.extract_gate", || {
                extract_gate(&ex.measure, &ex.process, &image, &ex.resist, site)
            });
        }
        Ok(())
    })();
    t.end(root);
    result
}
