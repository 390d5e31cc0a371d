//! Ext-B: defect-tolerant *multi-level* mapping (the paper's second
//! future-work item, §VI: "we plan to integrate multi-level logic design
//! with our defect tolerant logic mapping methods").
//!
//! Gate rows are placed with the HBA-style greedy+backtracking loop;
//! connection-net → column permutations add a second degree of freedom the
//! two-level mapper does not have.

use super::fig2_fig4::worked_example_cover;
use crate::experiment::{
    spec, write_csv_if_requested, Artifact, ExpError, Experiment, ParamKind, ParamSpec, Params,
    Reporter, RNG_STREAM_PARAM,
};
use crate::mc::monte_carlo;
use crate::shard::json::Json;
use crate::table::{pct, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xbar_core::{map_multilevel, DefectSampler, MultiLevelDesign, SampleStream};
use xbar_logic::RandomSopSpec;
use xbar_netlist::MapOptions;

/// Ext-B as a registry [`Experiment`].
#[derive(Debug, Clone, Copy)]
pub struct ExtMultilevelDefectsExperiment;

const EXT_B_PARAMS: &[ParamSpec] = &[
    spec(
        "permutations",
        ParamKind::USize,
        "8",
        "connection-column permutations tried per mapping attempt",
    ),
    RNG_STREAM_PARAM,
];

const RATES: [f64; 3] = [0.05, 0.10, 0.15];
const SPARES: [usize; 4] = [0, 1, 2, 4];

/// Counts mapping successes for one design/rate/spare cell.
fn successes(
    design: &MultiLevelDesign,
    spare_rows: usize,
    defect_rate: f64,
    samples: usize,
    seed: u64,
    permutations: usize,
    stream: SampleStream,
) -> usize {
    let rows = design.cost.rows + spare_rows;
    let cols = design.cost.cols;
    let results = monte_carlo(samples, seed, |_, s| {
        let mut rng = StdRng::seed_from_u64(s);
        let cm = DefectSampler::new(stream).sample(rows, cols, defect_rate, &mut rng);
        map_multilevel(design, &cm, permutations, s ^ 0xFACE).is_some()
    });
    results.iter().filter(|&&ok| ok).count()
}

impl Experiment for ExtMultilevelDefectsExperiment {
    fn name(&self) -> &'static str {
        "ext_multilevel_defects"
    }

    fn description(&self) -> &'static str {
        "Ext-B: defect-tolerant multi-level mapping — success rate vs defect rate, \
         spare rows, and connection permutations"
    }

    fn extra_params(&self) -> &'static [ParamSpec] {
        EXT_B_PARAMS
    }

    fn run(&self, params: &Params, reporter: &mut Reporter) -> Result<Artifact, ExpError> {
        let permutations = params.usize("permutations");
        let mut table = Table::new(
            "Ext-B — multi-level mapping success rate % vs defect rate",
            &[
                "design",
                "rows x cols",
                "defects",
                "spare 0",
                "spare 1",
                "spare 2",
                "spare 4",
            ],
        );

        let designs: Vec<(String, MultiLevelDesign)> = vec![
            (
                "fig5 (2 gates)".into(),
                MultiLevelDesign::synthesize(&worked_example_cover(), &MapOptions::default()),
            ),
            (
                "random n=10 P=8".into(),
                MultiLevelDesign::synthesize(
                    &RandomSopSpec::figure6(10, 8).generate_seeded(params.seed),
                    &MapOptions {
                        factoring: true,
                        max_fanin: Some(10),
                    },
                ),
            ),
            (
                "t481 analog (26 gates)".into(),
                MultiLevelDesign::from_network(xbar_netlist::t481_analog()),
            ),
        ];

        let mut cells = Vec::new();
        for (name, design) in &designs {
            for &rate in &RATES {
                let mut row = vec![
                    name.clone(),
                    format!("{}x{}", design.cost.rows, design.cost.cols),
                    format!("{:.0}%", rate * 100.0),
                ];
                for &spare in &SPARES {
                    let succ = successes(
                        design,
                        spare,
                        rate,
                        params.samples,
                        params.seed,
                        permutations,
                        params.sample_stream(),
                    );
                    row.push(pct(succ as f64 / params.samples.max(1) as f64));
                    cells.push((name.clone(), rate, spare, succ));
                }
                table.row(row);
            }
        }
        reporter.table(&table);
        reporter.line("observations:");
        reporter.line("  - multi-level rows carry more active switches (fan-in + destination),");
        reporter.line("    so at equal defect rates mapping is harder than two-level;");
        reporter
            .line("  - connection-column permutations + a spare row or two recover most of it.");
        write_csv_if_requested(params, reporter, &table)?;

        let data = Json::obj([
            ("permutations", Json::usize(permutations)),
            ("samples_per_cell", Json::usize(params.samples)),
            (
                "cells",
                Json::arr(cells.iter().map(|(design, rate, spare, succ)| {
                    Json::obj([
                        ("design", Json::str(design.clone())),
                        ("defect_rate", Json::f64(*rate)),
                        ("spare_rows", Json::usize(*spare)),
                        ("successes", Json::usize(*succ)),
                    ])
                })),
            ),
        ]);
        Ok(Artifact::new(data))
    }
}
