//! Fig. 5: multi-level mapping of the worked example function: a 3×19
//! crossbar (the paper's text says "area cost is 59"; 3 × 19 = 57 — see
//! DESIGN.md).

use super::fig2_fig4::worked_example_cover;
use crate::experiment::{write_csv_if_requested, Artifact, ExpError, Experiment, Params, Reporter};
use crate::shard::json::Json;
use crate::table::Table;
use xbar_core::{MultiLevelDesign, MultiLevelMapping};
use xbar_device::Crossbar;
use xbar_netlist::MapOptions;

/// Fig. 5 as a registry [`Experiment`].
#[derive(Debug, Clone, Copy)]
pub struct Fig5Experiment;

impl Experiment for Fig5Experiment {
    fn name(&self) -> &'static str {
        "fig5"
    }

    fn description(&self) -> &'static str {
        "Fig. 5: multi-level worked example — NAND network synthesis, area, and an \
         exhaustive functional check"
    }

    fn run(&self, params: &Params, reporter: &mut Reporter) -> Result<Artifact, ExpError> {
        let cover = worked_example_cover();
        let design = MultiLevelDesign::synthesize(&cover, &MapOptions::default());

        let mut table = Table::new(
            "Fig. 5 — multi-level design of f = x1+x2+x3+x4+x5x6x7x8",
            &["quantity", "paper", "ours"],
        );
        table.row(["horizontal lines", "3", &design.cost.rows.to_string()]);
        table.row(["vertical lines", "19", &design.cost.cols.to_string()]);
        table.row([
            "area cost".to_string(),
            "59 (text; 3×19 = 57)".to_string(),
            design.area().to_string(),
        ]);
        table.row(["NAND gates", "2", &design.network.gate_count().to_string()]);
        table.row([
            "multi-level connections".to_string(),
            "1".to_string(),
            design.cost.connections.to_string(),
        ]);
        table.row([
            "vs two-level area".to_string(),
            "126".to_string(),
            "126 (with inversion row)".to_string(),
        ]);
        reporter.table(&table);
        reporter.line(format!("network:\n{:?}", design.network));
        write_csv_if_requested(params, reporter, &table)?;

        // Execute on the simulated crossbar, exhaustively.
        let mapping = MultiLevelMapping::identity(&design);
        let xbar = Crossbar::new(design.cost.rows, design.cost.cols);
        let mut machine = design
            .build_machine(xbar, &mapping)
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
            ("rows", Json::usize(design.cost.rows)),
            ("cols", Json::usize(design.cost.cols)),
            ("area", Json::usize(design.area())),
            ("nand_gates", Json::usize(design.network.gate_count())),
            ("connections", Json::usize(design.cost.connections)),
            ("exhaustive_mismatches", Json::usize(mismatches)),
        ]);
        Ok(Artifact::new(data))
    }
}
