//! Offline trainer for the learned CD surrogate.
//!
//! Trains a model with `SurrogateModel::train` (a full SOCS extraction
//! over a training design with the surrogate tier recording every unique
//! context and serving none) and persists it as a `POCSURR1` file that
//! `postopc --surrogate-model FILE` can seed from
//! (`crates/bench/tests/surrogate.rs` checks the round trip).
//!
//! ```bash
//! cargo run --release -p postopc-bench --bin surrogate_train -- \
//!     --design farm:20x24 --out target/surrogate_model.bin
//! ```

use postopc::{ExtractionConfig, OpcMode, SurrogateModel, TagSet};
use postopc_layout::{generate, Design, PlacementOptions, TechRules};
use std::process::ExitCode;

const USAGE: &str = "usage:
  surrogate_train [--design <spec>] [--out FILE]
design specs: farm:<paths>x<depth>  chain:<stages>  rca:<bits>
              (all placed dense, 100% utilization, seed 11)
defaults: --design farm:20x24, --out target/surrogate_model.bin";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("surrogate_train: error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Compiles a training design from its spec, dense (100% utilization) so
/// the contexts match the benchmark workloads bit for bit.
fn build_design(spec: &str) -> Result<Design, String> {
    let (kind, param) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad design spec {spec:?}"))?;
    let parse =
        |p: &str| -> Result<usize, String> { p.parse().map_err(|_| format!("bad number {p:?}")) };
    let netlist = match kind {
        "farm" => {
            let (paths, depth) = param
                .split_once('x')
                .ok_or_else(|| format!("expected NxM, got {param:?}"))?;
            generate::speed_path_farm(parse(paths)?, parse(depth)?, 11)
        }
        "chain" => generate::inverter_chain(parse(param)?),
        "rca" => generate::ripple_carry_adder(parse(param)?),
        _ => return Err(format!("unknown design spec {spec:?}")),
    }
    .map_err(|e| format!("netlist generation failed: {e}"))?;
    Design::compile_with(
        netlist,
        TechRules::n90(),
        &PlacementOptions {
            utilization: 1.0,
            seed: 11,
        },
    )
    .map_err(|e| format!("compile failed: {e}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let spec = flag(args, "--design").unwrap_or_else(|| "farm:20x24".into());
    let out = flag(args, "--out").unwrap_or_else(|| "target/surrogate_model.bin".into());
    let design = build_design(&spec)?;
    let tags = TagSet::all(&design);

    let mut config = ExtractionConfig::standard();
    config.opc_mode = OpcMode::Rule;
    let t0 = std::time::Instant::now();
    let model = SurrogateModel::train(&design, &config, &tags)
        .map_err(|e| format!("training failed: {e}"))?;

    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {parent:?}: {e}"))?;
        }
    }
    std::fs::write(&out, model.to_file_bytes())
        .map_err(|e| format!("cannot write {out:?}: {e}"))?;
    println!(
        "surrogate_train: {spec}: {} gates trained in {:.1} s",
        design.netlist().gate_count(),
        t0.elapsed().as_secs_f64(),
    );
    println!(
        "surrogate_train: wrote {out} ({} samples, fingerprint {:#018x})",
        model.len(),
        model.fingerprint(),
    );
    Ok(())
}
