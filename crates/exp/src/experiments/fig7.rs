//! Fig. 7: naive vs defect-aware mapping of a 2-output function on a
//! defective 6×10 crossbar. The naive mapping is invalid (and computes the
//! wrong outputs when executed); the defect-aware mapping is valid and
//! functionally correct.

use crate::experiment::{Artifact, ExpError, Experiment, Params, Reporter};
use crate::shard::json::Json;
use xbar_core::{
    map_hybrid, map_naive, program_two_level, CrossbarMatrix, FunctionMatrix, RowAssignment,
};
use xbar_device::{Crossbar, Defect};
use xbar_logic::{cube, Cover};

/// The Fig. 7/8 example family: O1 = x1x2 + x̄2x3, O2 = x̄1x̄3 + x2x3.
#[must_use]
pub fn fig7_cover() -> Cover {
    Cover::from_cubes(
        3,
        2,
        [
            cube("11- 10"),
            cube("-01 10"),
            cube("0-0 01"),
            cube("-11 01"),
        ],
    )
    .expect("valid cubes")
}

fn row_label(fm: &FunctionMatrix, index: usize) -> String {
    if index < fm.num_minterms() {
        format!("m{}", index + 1)
    } else {
        format!("O{}", index - fm.num_minterms() + 1)
    }
}

/// Fig. 7 as a registry [`Experiment`].
#[derive(Debug, Clone, Copy)]
pub struct Fig7Experiment;

impl Experiment for Fig7Experiment {
    fn name(&self) -> &'static str {
        "fig7"
    }

    fn description(&self) -> &'static str {
        "Fig. 7: naive vs defect-aware (HBA) mapping on a defective crossbar, \
         executed and functionally verified"
    }

    fn run(&self, _params: &Params, reporter: &mut Reporter) -> Result<Artifact, ExpError> {
        let cover = fig7_cover();
        let fm = FunctionMatrix::from_cover(&cover);

        // Defects placed where the identity mapping needs active switches
        // (the red diagonals of Fig. 7a).
        let mut xbar = Crossbar::new(6, 10);
        xbar.set_defect(0, 0, Defect::StuckOpen); // m1 needs x1 here
        xbar.set_defect(3, 7, Defect::StuckOpen); // m4 needs its O2 membership
        let cm = CrossbarMatrix::from_crossbar(&xbar);

        reporter.line("function matrix rows (x1 x2 x3 | x̄1 x̄2 x̄3 | O1 O2 | Ō1 Ō2):");
        for r in 0..fm.num_rows() {
            reporter.line(format!("  {:<3} {}", row_label(&fm, r), fm.row(r)));
        }
        reporter.line("crossbar matrix (1 = functional):");
        for r in 0..cm.num_rows() {
            reporter.line(format!("  H{}  {}", r + 1, cm.row(r)));
        }
        reporter.blank();

        let naive = map_naive(&fm, &cm);
        reporter.line(format!(
            "(a) naive mapping (identity, defects disregarded): {}",
            if naive.is_success() {
                "VALID"
            } else {
                "INVALID"
            }
        ));
        // Execute the naive placement anyway to show the functional corruption.
        let identity = RowAssignment {
            fm_to_cm: (0..fm.num_rows()).collect(),
        };
        let mut broken = program_two_level(&cover, &identity, xbar.clone())
            .map_err(|e| ExpError::Failed(format!("layout does not fit: {e:?}")))?;
        let naive_wrong = (0..8u64)
            .filter(|&a| broken.evaluate(a) != cover.evaluate(a))
            .count();
        reporter.line(format!(
            "    executed anyway: {naive_wrong}/8 input vectors produce wrong outputs"
        ));

        let hybrid = map_hybrid(&fm, &cm);
        let assignment = hybrid.assignment.ok_or_else(|| {
            ExpError::Failed("defect-aware mapping failed (unexpected for this defect map)".into())
        })?;
        reporter.line("(b) defect-aware mapping (HBA): VALID");
        for (i, &row) in assignment.fm_to_cm.iter().enumerate() {
            reporter.line(format!("    {} -> H{}", row_label(&fm, i), row + 1));
        }
        let mut machine = program_two_level(&cover, &assignment, xbar)
            .map_err(|e| ExpError::Failed(format!("layout does not fit: {e:?}")))?;
        let hybrid_wrong = (0..8u64)
            .filter(|&a| machine.evaluate(a) != cover.evaluate(a))
            .count();
        reporter.line(format!(
            "    executed: {hybrid_wrong}/8 input vectors wrong (must be 0)"
        ));
        if hybrid_wrong != 0 {
            return Err(ExpError::Failed(format!(
                "defect-aware mapping computed {hybrid_wrong}/8 inputs wrong"
            )));
        }

        let data = Json::obj([
            ("naive_valid", Json::Bool(naive.is_success())),
            ("naive_wrong_inputs", Json::usize(naive_wrong)),
            ("hybrid_valid", Json::Bool(true)),
            (
                "hybrid_assignment",
                Json::arr(assignment.fm_to_cm.iter().map(|&r| Json::usize(r))),
            ),
            ("hybrid_wrong_inputs", Json::usize(hybrid_wrong)),
        ]);
        Ok(Artifact::new(data))
    }
}
