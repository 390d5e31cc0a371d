//! Figs. 2(b) and 4(b): the two-level and multi-level computation state
//! machines, demonstrated as executable phase traces on the worked example
//! function f = x0+x1+x2+x3 + x4·x5·x6·x7.

use crate::experiment::{Artifact, ExpError, Experiment, Params, Reporter};
use crate::shard::json::Json;
use xbar_core::{
    map_naive, program_two_level, CrossbarMatrix, FunctionMatrix, MultiLevelDesign,
    MultiLevelMapping,
};
use xbar_device::Crossbar;
use xbar_logic::{cube, Cover};
use xbar_netlist::MapOptions;

/// The worked example function shared by Figs. 2–5.
#[must_use]
pub fn worked_example_cover() -> Cover {
    Cover::from_cubes(
        8,
        1,
        [
            cube("1------- 1"),
            cube("-1------ 1"),
            cube("--1----- 1"),
            cube("---1---- 1"),
            cube("----1111 1"),
        ],
    )
    .expect("valid cubes")
}

/// Figs. 2(b)/4(b) as a registry [`Experiment`].
#[derive(Debug, Clone, Copy)]
pub struct Fig2Fig4Experiment;

impl Experiment for Fig2Fig4Experiment {
    fn name(&self) -> &'static str {
        "fig2_fig4"
    }

    fn description(&self) -> &'static str {
        "Figs. 2(b)/4(b): two-level and multi-level computation state machines \
         as executable phase traces"
    }

    fn run(&self, _params: &Params, reporter: &mut Reporter) -> Result<Artifact, ExpError> {
        let cover = worked_example_cover();
        let input = 0b1111_0000u64; // x4..x7 = 1: only the AND minterm fires.

        reporter.line("== Fig. 2(b): two-level state machine ==");
        let fm = FunctionMatrix::from_cover(&cover);
        let cm = CrossbarMatrix::perfect(fm.num_rows(), fm.num_cols());
        let assignment = map_naive(&fm, &cm)
            .assignment
            .ok_or_else(|| ExpError::Failed("clean crossbar must map".to_owned()))?;
        let mut machine = program_two_level(&cover, &assignment, Crossbar::new(6, 18))
            .map_err(|e| ExpError::Failed(format!("two-level layout does not fit: {e:?}")))?;
        let trace = machine.trace(input);
        for (phase, text) in &trace.phases {
            reporter.line(format!("  {phase:>4}: {text}"));
        }
        reporter.line(format!(
            "  outputs f = {:?}, f̄ = {:?}",
            trace.outputs, trace.outputs_bar
        ));
        if trace.outputs != cover.evaluate(input) {
            return Err(ExpError::Failed(
                "two-level trace disagrees with the cover".to_owned(),
            ));
        }
        let two_level_phases = trace.phases.len();

        reporter.blank();
        reporter
            .line("== Fig. 4(b): multi-level state machine (CFM→EVM→CR per gate, nL < n loop) ==");
        let design = MultiLevelDesign::synthesize(&cover, &MapOptions::default());
        let mapping = MultiLevelMapping::identity(&design);
        let xbar = Crossbar::new(design.cost.rows, design.cost.cols);
        let mut ml = design
            .build_machine(xbar, &mapping)
            .map_err(|e| ExpError::Failed(format!("multi-level layout does not fit: {e:?}")))?;
        let ml_trace = ml.trace(input);
        for (phase, gate, text) in &ml_trace.phases {
            match gate {
                Some(g) => reporter.line(format!("  {phase:>4} (gate {g}): {text}")),
                None => reporter.line(format!("  {phase:>4}: {text}")),
            }
        }
        reporter.line(format!("  gate values = {:?}", ml_trace.gate_values));
        reporter.line(format!(
            "  outputs f = {:?}, f̄ = {:?}",
            ml_trace.outputs, ml_trace.outputs_bar
        ));
        if ml_trace.outputs != cover.evaluate(input) {
            return Err(ExpError::Failed(
                "multi-level trace disagrees with the cover".to_owned(),
            ));
        }
        reporter.blank();
        reporter.line(format!(
            "two-level: {two_level_phases} phases once; multi-level: CFM/EVM/CR × {} gates + INR/SO",
            design.network.gate_count()
        ));

        let bools = |v: &[bool]| Json::arr(v.iter().map(|&b| Json::Bool(b)));
        let data = Json::obj([
            ("input_vector", Json::u64(input)),
            ("two_level_phases", Json::usize(two_level_phases)),
            ("two_level_outputs", bools(&trace.outputs)),
            ("multi_level_phases", Json::usize(ml_trace.phases.len())),
            ("multi_level_outputs", bools(&ml_trace.outputs)),
            ("gate_values", bools(&ml_trace.gate_values)),
            ("nand_gates", Json::usize(design.network.gate_count())),
            ("traces_match_cover", Json::Bool(true)),
        ]);
        Ok(Artifact::new(data))
    }
}
