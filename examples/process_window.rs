//! Process-window exploration: printed gate CD across a focus × dose
//! matrix.
//!
//! ```bash
//! cargo run --release --example process_window
//! ```

use postopc_geom::{Polygon, Rect};
use postopc_litho::{
    cutline, AerialImage, LithoError, ProcessConditions, ResistModel, SimulationSpec,
};

const FOCUS_NM: [f64; 5] = [-150.0, -75.0, 0.0, 75.0, 150.0];
const DOSE: [f64; 3] = [0.94, 1.0, 1.06];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let line = Polygon::from(Rect::new(-45, -600, 45, 600)?);
    let dense: Vec<Polygon> = vec![
        line.clone(),
        Polygon::from(Rect::new(-325, -600, -235, 600)?),
        Polygon::from(Rect::new(235, -600, 325, 600)?),
    ];
    let window = Rect::new(-300, -300, 300, 300)?;
    let resist = ResistModel::standard();

    for (name, mask) in [("isolated", vec![line]), ("dense", dense)] {
        let printed_cd = |conditions: ProcessConditions| -> Result<f64, LithoError> {
            let spec = SimulationSpec::nominal().with_conditions(conditions);
            let image = AerialImage::simulate(&spec, &mask, window)?;
            cutline::measure_cd(&image, &resist, (0.0, 0.0), (1.0, 0.0), 150.0)
        };
        println!("printed CD (nm) of the {name} 90 nm line:");
        print!("{:>8}", "dose\\foc");
        for focus_nm in FOCUS_NM {
            print!("{focus_nm:>9.0}");
        }
        println!();
        // A cell that fails to print shows as "-"; dying at the window
        // edge is what the matrix is for.
        let mut in_spec = 0;
        for dose in DOSE {
            print!("{dose:>8.2}");
            for focus_nm in FOCUS_NM {
                match printed_cd(ProcessConditions { focus_nm, dose }) {
                    Ok(cd) => {
                        if (cd - 90.0).abs() <= 9.0 {
                            in_spec += 1;
                        }
                        print!("{cd:>9.2}");
                    }
                    Err(_) => print!("{:>9}", "-"),
                }
            }
            println!();
        }
        let cells = FOCUS_NM.len() * DOSE.len();
        println!(
            "within +/-10% of 90 nm over {:.0}% of the matrix\n",
            100.0 * (in_spec as f64 / cells as f64)
        );
    }
    Ok(())
}
