//! Regenerates the evaluation tables and figures of the DAC 2005
//! reproduction. Prints only; the `BENCH_*.json` records are written by
//! `perf_smoke --record`, which also checks them.
//!
//! ```bash
//! cargo run --release -p postopc-bench --bin repro -- all
//! cargo run --release -p postopc-bench --bin repro -- t1 f3 t4
//! ```

use postopc_bench::experiments;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "t1", "t2", "f3", "t4", "f5", "t6", "t7", "f8", "t9", "t10", "a1", "a2",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let known = [
        "t1", "t2", "f3", "t4", "f5", "t6", "t7", "f8", "t9", "t10", "a1", "a2",
    ];
    for id in &wanted {
        if !known.contains(id) {
            eprintln!("unknown experiment {id}; known: {known:?}");
            std::process::exit(2);
        }
    }
    // f3/t4 share one expensive extraction; compute lazily together.
    let mut f3_t4: Option<(String, String)> = None;
    for id in wanted {
        let t0 = Instant::now();
        let text = match id {
            "t1" => experiments::t1(),
            "t2" => experiments::t2(),
            "f3" => {
                let pair = f3_t4.get_or_insert_with(experiments::f3_t4);
                pair.0.clone()
            }
            "t4" => {
                let pair = f3_t4.get_or_insert_with(experiments::f3_t4);
                pair.1.clone()
            }
            "f5" => experiments::f5(),
            "t6" => experiments::t6(),
            "t7" => experiments::t7(),
            "f8" => experiments::f8(),
            "t9" => experiments::t9(),
            "t10" => experiments::t10(),
            "a1" => experiments::a1(),
            "a2" => experiments::a2(),
            _ => unreachable!("validated above"),
        };
        println!("{text}");
        println!("[{} finished in {:.1} s]\n", id, t0.elapsed().as_secs_f64());
    }
}
