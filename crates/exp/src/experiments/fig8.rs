//! Fig. 8: function matrix, crossbar matrix, matching matrix and a
//! zero-cost Munkres assignment, printed end to end.

use super::fig7::fig7_cover;
use crate::experiment::{
    Artifact, ExpError, Experiment, ParamSpec, Params, Reporter, RNG_STREAM_PARAM,
};
use crate::shard::json::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xbar_assign::{munkres, CostMatrix};
use xbar_core::{row_compatible, FunctionMatrix};

/// Fig. 8 as a registry [`Experiment`].
#[derive(Debug, Clone, Copy)]
pub struct Fig8Experiment;

const FIG8_PARAMS: &[ParamSpec] = &[RNG_STREAM_PARAM];

impl Experiment for Fig8Experiment {
    fn name(&self) -> &'static str {
        "fig8"
    }

    fn description(&self) -> &'static str {
        "Fig. 8: matching matrix construction and a zero-cost Munkres assignment \
         on a sampled defect map"
    }

    fn extra_params(&self) -> &'static [ParamSpec] {
        FIG8_PARAMS
    }

    fn run(&self, params: &Params, reporter: &mut Reporter) -> Result<Artifact, ExpError> {
        let campaign = &params.campaign;
        let cover = fig7_cover();
        let fm = FunctionMatrix::from_cover(&cover);
        let mut rng = StdRng::seed_from_u64(campaign.seed);
        let cm =
            campaign
                .sampler()
                .sample(fm.num_rows(), fm.num_cols(), campaign.defect_rate, &mut rng);

        let label = |f: usize| {
            if f < fm.num_minterms() {
                format!("m{}", f + 1)
            } else {
                format!("O{}", f - fm.num_minterms() + 1)
            }
        };

        reporter.line("(a) function matrix FM (rows m1..m4, O1, O2):");
        for r in 0..fm.num_rows() {
            reporter.line(format!("    {}", fm.row(r)));
        }
        reporter.line("(b) crossbar matrix CM (defect map, 1 = functional):");
        for r in 0..cm.num_rows() {
            reporter.line(format!("    {}", cm.row(r)));
        }

        reporter.line("(c) matching matrix (0 = row matching possible):");
        let n = fm.num_rows();
        let matrix = CostMatrix::from_fn(n, cm.num_rows(), |f, c| {
            i64::from(!row_compatible(fm.row(f), cm.row(c)))
        });
        let mut header = String::from("        ");
        for c in 0..cm.num_rows() {
            header.push_str(&format!("H{} ", c + 1));
        }
        reporter.line(header);
        for f in 0..n {
            let mut line = format!("    {:<4}", label(f));
            for c in 0..cm.num_rows() {
                line.push_str(&format!(" {} ", matrix.get(f, c)));
            }
            reporter.line(line);
        }

        reporter.line("(d) Munkres assignment:");
        let solution = munkres(&matrix)
            .map_err(|e| ExpError::Failed(format!("munkres on a square matrix: {e:?}")))?;
        for (f, &c) in solution.assignment.iter().enumerate() {
            reporter.line(format!(
                "    {} -> H{} (cost {})",
                label(f),
                c + 1,
                matrix.get(f, c)
            ));
        }
        reporter.line(format!(
            "    total cost = {} → {}",
            solution.cost,
            if solution.cost == 0 {
                "Cost = 0 : Valid Mapping"
            } else {
                "no zero-cost assignment: mapping impossible on this defect map"
            }
        ));

        let data = Json::obj([
            ("fm_rows", Json::usize(fm.num_rows())),
            ("cm_rows", Json::usize(cm.num_rows())),
            (
                "assignment",
                Json::arr(solution.assignment.iter().map(|&c| Json::usize(c))),
            ),
            ("total_cost", Json::Num(solution.cost.to_string())),
            ("valid_mapping", Json::Bool(solution.cost == 0)),
        ]);
        Ok(Artifact::new(data))
    }
}
