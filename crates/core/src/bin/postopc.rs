//! `postopc` — command-line driver for the post-OPC timing flow.
//!
//! ```bash
//! postopc flow --design rca:8 --paths 10 --margin 0.1 --opc model
//! postopc paths --design farm:12x16 --k 8
//! postopc drc --design rand:200
//! postopc dump --design chain:20 > layout.txt
//! ```
//!
//! Designs are generated by spec: `rca:<bits>`, `mult:<bits>`,
//! `chain:<stages>`, `rand:<gates>`, `farm:<paths>x<depth>`,
//! `regfarm:<paths>x<depth>`, `testcase[:<seed>]`.

use postopc::guardband::GuardbandConfig;
use postopc::{
    margin_clock, run_flow, serve_with, FlowConfig, OpcMode, Selection, ServeOptions, SessionQuery,
    SurrogateConfig, SurrogateModel,
};
use postopc_device::ProcessParams;
use postopc_layout::{drc, generate, io, Design, Layer, TechRules};
use postopc_sta::{k_worst_paths, Corner, MonteCarloConfig, Sampling, TimingModel};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  postopc flow  --design <spec> [--paths N] [--margin F] [--opc none|rule|model]
                [--quarantine F] [--surrogate] [--surrogate-model FILE]
  postopc serve --design <spec> [--paths N] [--margin F] [--opc none|rule|model]
                [--artifact FILE] [--samples N] [--budget N] [--surrogate]
                [--surrogate-model FILE]
                [--sampling plain|antithetic|tail] [--tilt F]
                [--control-variate]
  postopc paths --design <spec> [--k N] [--margin F]
  postopc drc   --design <spec>
  postopc dump  --design <spec> [--layer poly|metal1|...]
design specs: rca:<bits> mult:<bits> chain:<stages> rand:<gates>
              farm:<paths>x<depth> regfarm:<paths>x<depth> testcase[:<seed>]
              (at most 20000 gates)
--quarantine F: keep going past per-gate faults (gates keep drawn CDs)
                until more than fraction F of tagged gates fault
--artifact FILE: persist the compiled warm state; a second serve against
                 the same design and config starts warm from it
--budget N: deterministic query deadline — a sample-count budget shared
            by the whole batch; exhausted queries come back partial (at
            reduced, still-deterministic scope) or skipped, never hung
--surrogate: enable the learned CD surrogate (confidence-gated fast path
             that predicts post-OPC CDs without litho simulation; each
             extraction trains its own model and drops it)
--surrogate-model FILE: start each extraction's model from a trained
                        model file (written by the surrogate_train
                        bench); implies --surrogate
--sampling NAME: Monte Carlo sampling scheme (default plain); `tail` is
                 tail-targeted importance sampling for deep-tail
                 quantiles, tuned by --tilt F (z-units, default 1.2)
--control-variate: attach the linearized first-order worst slack as a
                   control variate (composes with every --sampling)";

fn run(args: &[String]) -> Result<(), String> {
    let command = args.first().ok_or("missing command")?.as_str();
    let design_spec = flag(args, "--design").ok_or("missing --design <spec>")?;
    let design = build_design(&design_spec)?;
    match command {
        "flow" => cmd_flow(args, &design),
        "serve" => cmd_serve(args, &design),
        "paths" => cmd_paths(args, &design),
        "drc" => cmd_drc(&design),
        "dump" => cmd_dump(args, &design),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for {name}: {v:?}")),
    }
}

/// The most gates a design spec may ask for: about 13× the largest
/// design the repository runs (1,500 gates), so a design builds in well
/// under a gigabyte (10,000-gate ones peak at 50–210 MB through `drc`).
/// Generating a netlist costs memory before any check inside the
/// generators (`mult:<bits>` allocates its bits² partial products up
/// front), so a larger spec is a usage error before anything is built.
const MAX_GATES: usize = 20_000;

fn build_design(spec: &str) -> Result<Design, String> {
    let (kind, param) = match spec.split_once(':') {
        Some((k, p)) => (k, Some(p)),
        None => (spec, None),
    };
    // Each spec's gate count, `None` past `usize`, is checked first.
    let size = |gates: Option<usize>| match gates {
        Some(n) if n <= MAX_GATES => Ok(()),
        _ => Err(format!(
            "design spec {spec:?} asks for more than {MAX_GATES} gates"
        )),
    };
    let netlist = match (kind, param) {
        ("rca", Some(p)) => {
            let bits = parse(p)?;
            size(bits.checked_mul(9))?;
            generate::ripple_carry_adder(bits)
        }
        ("mult", Some(p)) => {
            // A NAND and an inverter per partial product, then a 9-NAND
            // full adder per partial product past the first row.
            let bits = parse(p)?;
            size(
                bits.checked_mul(bits)
                    .and_then(|pp| pp.checked_mul(11))
                    .map(|g| g - 9 * bits),
            )?;
            generate::array_multiplier(bits)
        }
        ("chain", Some(p)) => {
            let stages = parse(p)?;
            size(Some(stages))?;
            generate::inverter_chain(stages)
        }
        ("rand", Some(p)) => {
            let gates = parse(p)?;
            size(Some(gates))?;
            generate::random_logic(&generate::RandomLogicSpec {
                gates,
                ..Default::default()
            })
        }
        ("farm", Some(p)) => {
            let (paths, depth) = parse_pair(p)?;
            size(paths.checked_mul(depth))?;
            generate::speed_path_farm(paths, depth, 7)
        }
        ("regfarm", Some(p)) => {
            // Each chain adds a launch and a capture register.
            let (paths, depth) = parse_pair(p)?;
            size(depth.checked_add(2).and_then(|d| d.checked_mul(paths)))?;
            generate::registered_farm(paths, depth, 7)
        }
        // A fixed 572-gate design; the parameter is its seed.
        ("testcase", p) => generate::paper_testcase(match p {
            Some(seed) => parse(seed)? as u64,
            None => 11,
        }),
        _ => return Err(format!("unknown design spec {spec:?}")),
    }
    .map_err(|e| format!("netlist generation failed: {e}"))?;
    Design::compile(netlist, TechRules::n90()).map_err(|e| format!("compile failed: {e}"))
}

fn parse(p: &str) -> Result<usize, String> {
    p.parse().map_err(|_| format!("bad number {p:?}"))
}

fn parse_pair(p: &str) -> Result<(usize, usize), String> {
    let (a, b) = p
        .split_once('x')
        .ok_or_else(|| format!("expected NxM, got {p:?}"))?;
    Ok((parse(a)?, parse(b)?))
}

/// Applies the surrogate CLI surface to a flow config: `--surrogate`
/// switches the learned fast path on, and `--surrogate-model FILE`
/// additionally seeds it from a trained model.
fn apply_surrogate_flags(args: &[String], config: &mut FlowConfig) -> Result<(), String> {
    let flag_on = args.iter().any(|a| a == "--surrogate");
    let model_path = flag(args, "--surrogate-model");
    if !(flag_on || model_path.is_some()) {
        return Ok(());
    }
    let mut surrogate = SurrogateConfig::standard();
    if let Some(path) = model_path {
        let bytes = std::fs::read(&path)
            .map_err(|e| format!("cannot read surrogate model {path:?}: {e}"))?;
        let model = SurrogateModel::from_file_bytes(&bytes)
            .map_err(|e| format!("bad surrogate model {path:?}: {e}"))?;
        surrogate.pretrained = Some(model);
    }
    config.extraction.surrogate = surrogate;
    Ok(())
}

fn clock_for(design: &Design, margin: f64) -> Result<f64, String> {
    margin_clock(design, margin).map_err(|e| format!("timing failed: {e}"))
}

fn cmd_flow(args: &[String], design: &Design) -> Result<(), String> {
    let paths: usize = parse_flag(args, "--paths", 10)?;
    let margin: f64 = parse_flag(args, "--margin", 0.1)?;
    let opc = flag(args, "--opc").unwrap_or_else(|| "rule".into());
    let clock = clock_for(design, margin)?;
    let mut config = FlowConfig::standard(clock);
    config.selection = Selection::Critical { paths };
    config.report_paths = paths;
    config.extraction.opc_mode = match opc.as_str() {
        "none" => OpcMode::None,
        "rule" => OpcMode::Rule,
        "model" => OpcMode::Model,
        other => return Err(format!("unknown opc mode {other:?}")),
    };
    if let Some(fraction) = flag(args, "--quarantine") {
        let max_fraction: f64 = fraction
            .parse()
            .map_err(|_| format!("bad value for --quarantine: {fraction:?}"))?;
        config.extraction.fault_policy = postopc::FaultPolicy::Quarantine { max_fraction };
    }
    apply_surrogate_flags(args, &mut config)?;
    println!(
        "{}: {} gates, clock {clock:.1} ps ({:.0}% margin), {opc} OPC{}",
        design.netlist().name(),
        design.netlist().gate_count(),
        margin * 100.0,
        if config.extraction.surrogate.enabled {
            ", surrogate on"
        } else {
            ""
        }
    );
    let report = run_flow(design, &config).map_err(|e| format!("flow failed: {e}"))?;
    println!(
        "extracted {} / {} tagged gates in {:.1} s",
        report.extraction.gates_extracted,
        report.tags.len(),
        report.extraction_time.as_secs_f64()
    );
    print!(
        "{}",
        postopc::report::render_extraction_stats(&report.extraction)
    );
    if !report.quarantined().is_empty() {
        print!(
            "{}",
            postopc::report::render_quarantine(report.quarantined())
        );
    }
    print!(
        "{}",
        postopc::report::render_path_comparison(design, &report.comparison)
    );
    Ok(())
}

fn cmd_serve(args: &[String], design: &Design) -> Result<(), String> {
    let paths: usize = parse_flag(args, "--paths", 10)?;
    let margin: f64 = parse_flag(args, "--margin", 0.1)?;
    let samples: usize = parse_flag(args, "--samples", 200)?;
    let opc = flag(args, "--opc").unwrap_or_else(|| "rule".into());
    let artifact = flag(args, "--artifact").map(std::path::PathBuf::from);
    let clock = clock_for(design, margin)?;
    let mut config = FlowConfig::standard(clock);
    config.selection = Selection::Critical { paths };
    config.report_paths = paths;
    config.extraction.opc_mode = match opc.as_str() {
        "none" => OpcMode::None,
        "rule" => OpcMode::Rule,
        "model" => OpcMode::Model,
        other => return Err(format!("unknown opc mode {other:?}")),
    };
    apply_surrogate_flags(args, &mut config)?;
    let tilt: f64 = parse_flag(args, "--tilt", 1.2)?;
    let sampling = match flag(args, "--sampling").as_deref() {
        None | Some("plain") => Sampling::Plain,
        Some("antithetic") => Sampling::Antithetic,
        Some("tail") => Sampling::TailIs { tilt },
        Some(other) => return Err(format!("unknown sampling scheme {other:?}")),
    };
    let monte_carlo = MonteCarloConfig {
        samples,
        sigma_nm: 1.5,
        seed: 7,
        sampling,
        control_variate: args.iter().any(|a| a == "--control-variate"),
        ..MonteCarloConfig::default()
    };
    let queries = vec![
        SessionQuery::Corners(Corner::classic_set(6.0)),
        SessionQuery::MonteCarlo(monte_carlo.clone()),
        SessionQuery::Guardband(GuardbandConfig {
            monte_carlo,
            ..GuardbandConfig::default()
        }),
    ];
    println!(
        "{}: {} gates, clock {clock:.1} ps, {opc} OPC{}, artifact {}",
        design.netlist().name(),
        design.netlist().gate_count(),
        if config.extraction.surrogate.enabled {
            ", surrogate on"
        } else {
            ""
        },
        artifact
            .as_deref()
            .map_or("none".into(), |p| p.display().to_string()),
    );
    let budget = match flag(args, "--budget") {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("bad value for --budget: {v:?}"))?,
        ),
    };
    let options = ServeOptions {
        budget,
        ..ServeOptions::default()
    };
    let report = serve_with(design, &config, artifact.as_deref(), &queries, &options)
        .map_err(|e| format!("serve failed: {e}"))?;
    print!("{}", postopc::report::render_serve_report(&report));
    Ok(())
}

fn cmd_paths(args: &[String], design: &Design) -> Result<(), String> {
    let k: usize = parse_flag(args, "--k", 5)?;
    let margin: f64 = parse_flag(args, "--margin", 0.1)?;
    let clock = clock_for(design, margin)?;
    let model = TimingModel::new(design, ProcessParams::n90(), clock)
        .map_err(|e| format!("timing model failed: {e}"))?;
    let report = model
        .analyze(None)
        .map_err(|e| format!("timing failed: {e}"))?;
    for path in k_worst_paths(&report, design, k) {
        print!(
            "{}",
            postopc::report::render_path_detail(design, &report, &path)
        );
    }
    Ok(())
}

fn cmd_drc(design: &Design) -> Result<(), String> {
    let violations = drc::run_drc(design, &drc::DrcRules::n90());
    if violations.is_empty() {
        println!("DRC clean ({} gates)", design.netlist().gate_count());
        return Ok(());
    }
    for v in &violations {
        println!(
            "{:?} on {} at {}: {} nm (limit {} nm)",
            v.kind, v.layer, v.location, v.measured, v.limit
        );
    }
    Err(format!("{} DRC violations", violations.len()))
}

fn cmd_dump(args: &[String], design: &Design) -> Result<(), String> {
    let layer_filter = flag(args, "--layer");
    let mut shapes = Vec::new();
    for layer in Layer::ALL {
        if let Some(ref want) = layer_filter {
            if layer.to_string() != *want {
                continue;
            }
        }
        for p in design.shapes_on(layer) {
            shapes.push((layer, p));
        }
    }
    let stdout = std::io::stdout();
    io::write_shapes(stdout.lock(), shapes).map_err(|e| format!("write failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_documented_spec_still_builds() {
        for spec in [
            "rca:8",
            "mult:4",
            "chain:20",
            "chain:24",
            "rand:200",
            "farm:6x8",
            "farm:12x16",
            "farm:20x24",
            "regfarm:12x16",
            "testcase",
            "testcase:11",
        ] {
            if let Err(e) = build_design(spec) {
                panic!("{spec}: {e}");
            }
        }
        assert!(USAGE.contains(&format!("(at most {MAX_GATES} gates)")));
    }
}
