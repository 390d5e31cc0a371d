//! Fig. 3: two-level mapping of f = x1+x2+x3+x4+x5·x6·x7·x8 (paper
//! indexing; x0..x7 here): area cost 126 with the figure's extra inversion
//! row, inclusion ratio 31/126 ≈ 25%.

use super::fig2_fig4::worked_example_cover;
use crate::experiment::{write_csv_if_requested, Artifact, ExpError, Experiment, Params, Reporter};
use crate::shard::json::Json;
use crate::table::Table;
use xbar_core::{map_naive, program_two_level, CrossbarMatrix, FunctionMatrix, TwoLevelLayout};
use xbar_device::Crossbar;

/// Fig. 3 as a registry [`Experiment`].
#[derive(Debug, Clone, Copy)]
pub struct Fig3Experiment;

impl Experiment for Fig3Experiment {
    fn name(&self) -> &'static str {
        "fig3"
    }

    fn description(&self) -> &'static str {
        "Fig. 3: two-level worked example — area cost, inclusion ratio, and an \
         exhaustive functional check on the simulated crossbar"
    }

    fn run(&self, params: &Params, reporter: &mut Reporter) -> Result<Artifact, ExpError> {
        let cover = worked_example_cover();

        let paper_layout = TwoLevelLayout::of_cover(&cover).with_inversion_row();
        let table_layout = TwoLevelLayout::of_cover(&cover);
        let switches = table_layout.active_switches(&cover) + 2 * cover.num_inputs();
        let inclusion_ratio = switches as f64 / paper_layout.area() as f64;

        let mut table = Table::new(
            "Fig. 3 — two-level design of f = x1+x2+x3+x4+x5x6x7x8",
            &["quantity", "paper", "ours"],
        );
        table.row(["horizontal lines", "7", &paper_layout.rows().to_string()]);
        table.row(["vertical lines", "18", &paper_layout.cols().to_string()]);
        table.row(["area cost", "126", &paper_layout.area().to_string()]);
        table.row([
            "area cost (Table I/II convention, P+K rows)".to_string(),
            "-".to_string(),
            table_layout.area().to_string(),
        ]);
        table.row([
            "memristors used (incl. input-latch diagonal)".to_string(),
            "31".to_string(),
            switches.to_string(),
        ]);
        table.row([
            "inclusion ratio".to_string(),
            "25%".to_string(),
            format!("{:.1}%", inclusion_ratio * 100.0),
        ]);
        reporter.table(&table);
        write_csv_if_requested(params, reporter, &table)?;

        // Execute the mapping on the simulated crossbar; verify exhaustively.
        let fm = FunctionMatrix::from_cover(&cover);
        let cm = CrossbarMatrix::perfect(fm.num_rows(), fm.num_cols());
        let assignment = map_naive(&fm, &cm)
            .assignment
            .ok_or_else(|| ExpError::Failed("clean crossbar must map".to_owned()))?;
        let mut machine = program_two_level(&cover, &assignment, Crossbar::new(6, 18))
            .map_err(|e| ExpError::Failed(format!("layout does not fit: {e:?}")))?;
        let mismatches = (0..256u64)
            .filter(|&a| machine.evaluate(a) != cover.evaluate(a))
            .count();
        reporter.line(format!(
            "functional check on the simulated crossbar: {mismatches} mismatches over 256 inputs"
        ));
        if mismatches != 0 {
            return Err(ExpError::Failed(format!(
                "{mismatches}/256 inputs computed the wrong outputs"
            )));
        }

        let data = Json::obj([
            ("rows", Json::usize(paper_layout.rows())),
            ("cols", Json::usize(paper_layout.cols())),
            ("area_with_inversion_row", Json::usize(paper_layout.area())),
            ("area_table_convention", Json::usize(table_layout.area())),
            ("memristors_used", Json::usize(switches)),
            ("inclusion_ratio", Json::f64(inclusion_ratio)),
            ("exhaustive_mismatches", Json::usize(mismatches)),
        ]);
        Ok(Artifact::new(data))
    }
}
