//! Ext-A: yield analysis with redundant rows and stuck-at-closed defects
//! (the paper's first future-work item, §VI).
//!
//! Two sweeps on the selected function matrix:
//! 1. stuck-open only: success rate vs defect rate × spare rows — spares
//!    recover yield at the cost of area overhead;
//! 2. mixed defects: spare rows do NOT recover stuck-closed losses (each
//!    extra row adds column-kill probability), quantifying why the paper
//!    calls for dedicated redundancy for stuck-at-closed defects.
//!
//! The mixed sweep draws device-level i.i.d. cells, so the experiment
//! takes no spatial `--defect-model`: its artifact never names a model
//! it did not sample.

use crate::experiment::{
    spec, write_csv_if_requested, Artifact, ExpError, Experiment, ParamKind, ParamSpec, Params,
    Reporter, RNG_STREAM_PARAM,
};
use crate::shard::json::Json;
use crate::table::{pct, Table};
use xbar_core::{estimate_yield, Campaign, FunctionMatrix, MapperKind, YieldConfig};
use xbar_logic::bench_reg::find;

/// Ext-A as a registry [`Experiment`].
#[derive(Debug, Clone, Copy)]
pub struct ExtYieldRedundancyExperiment;

const EXT_A_PARAMS: &[ParamSpec] = &[
    spec(
        "circuit",
        ParamKind::Str,
        "rd53",
        "registry circuit whose function matrix is swept",
    ),
    RNG_STREAM_PARAM,
];

/// One sweep cell: `(spare_rows, successes, samples)`.
type SpareCell = (usize, u64, u64);
/// One sweep row: a defect rate and its per-spare-count cells.
type SweepRow = (f64, Vec<SpareCell>);

const SPARES: [usize; 5] = [0, 2, 4, 8, 17];
const OPEN_RATES: [f64; 4] = [0.05, 0.10, 0.15, 0.20];
const CLOSED_RATES: [f64; 4] = [0.005, 0.01, 0.02, 0.03];

impl Experiment for ExtYieldRedundancyExperiment {
    fn name(&self) -> &'static str {
        "ext_yield_redundancy"
    }

    fn description(&self) -> &'static str {
        "Ext-A: mapping yield vs spare rows and defect rate, stuck-open and mixed \
         stuck-closed regimes"
    }

    fn extra_params(&self) -> &'static [ParamSpec] {
        EXT_A_PARAMS
    }

    fn run(&self, params: &Params, reporter: &mut Reporter) -> Result<Artifact, ExpError> {
        let circuit = params.str("circuit");
        let info = find(circuit)
            .map_err(|_| ExpError::Usage(format!("--circuit: {circuit:?} is not registered")))?;
        let cover = info.cover(params.campaign.seed);
        let fm = FunctionMatrix::from_cover(&cover);
        reporter.line(format!(
            "circuit: {circuit} (P = {}, optimum rows = {}, cols = {})",
            cover.len(),
            fm.num_rows(),
            fm.num_cols()
        ));

        let sweep = |rates: &[f64],
                     stuck_closed_fraction: f64,
                     mapper: MapperKind,
                     seed: u64|
         -> Vec<SweepRow> {
            rates
                .iter()
                .map(|&rate| {
                    let cells = SPARES
                        .iter()
                        .map(|&spare| {
                            let result = estimate_yield(
                                &fm,
                                &YieldConfig {
                                    campaign: Campaign {
                                        seed,
                                        defect_rate: rate,
                                        ..params.campaign
                                    },
                                    mapper,
                                    spare_rows: spare,
                                    stuck_closed_fraction,
                                },
                            );
                            (spare, result.successes as u64, result.samples as u64)
                        })
                        .collect();
                    (rate, cells)
                })
                .collect()
        };

        let open = sweep(&OPEN_RATES, 0.0, MapperKind::Hybrid, params.campaign.seed);
        let closed = sweep(
            &CLOSED_RATES,
            0.3,
            MapperKind::Exact,
            params.campaign.seed ^ 0xC105ED,
        );

        let spare_headers: Vec<String> = SPARES.iter().map(|s| format!("spare {s}")).collect();
        let mut headers: Vec<&str> = vec!["defect rate"];
        headers.extend(spare_headers.iter().map(String::as_str));
        let render = |title: &str, sweep: &[SweepRow]| {
            let mut table = Table::new(title, &headers);
            for (rate, cells) in sweep {
                let mut row = vec![format!("{:.1}%", rate * 100.0)];
                for (_, successes, samples) in cells {
                    row.push(pct(*successes as f64 / (*samples).max(1) as f64));
                }
                table.row(row);
            }
            table
        };
        let open_table = render("Ext-A.1 — success rate % (stuck-open only), HBA", &open);
        reporter.table(&open_table);
        let closed_table = render(
            "Ext-A.2 — success rate % (30% of defects stuck-closed), EA",
            &closed,
        );
        reporter.table(&closed_table);

        let overhead_17 = (fm.num_rows() + 17) as f64 / fm.num_rows() as f64;
        reporter.line(format!(
            "area overhead at 17 spares: {overhead_17:.2}x (the 1.5x sizing of refs [13,14])"
        ));
        reporter.line("finding: spare rows recover stuck-open yield but NOT stuck-closed yield —");
        reporter.line("         each added row increases the chance a needed column is killed,");
        reporter
            .line("         confirming the paper's call for dedicated stuck-closed redundancy.");
        write_csv_if_requested(params, reporter, &open_table)?;

        let sweep_json = |sweep: &[SweepRow]| {
            Json::arr(sweep.iter().map(|(rate, cells)| {
                Json::obj([
                    ("defect_rate", Json::f64(*rate)),
                    (
                        "spares",
                        Json::arr(cells.iter().map(|(spare, successes, samples)| {
                            Json::obj([
                                ("spare_rows", Json::usize(*spare)),
                                ("successes", Json::u64(*successes)),
                                ("samples", Json::u64(*samples)),
                            ])
                        })),
                    ),
                ])
            }))
        };
        let data = Json::obj([
            ("circuit", Json::str(circuit)),
            ("rows", Json::usize(fm.num_rows())),
            ("cols", Json::usize(fm.num_cols())),
            ("stuck_open_sweep", sweep_json(&open)),
            ("stuck_closed_sweep", sweep_json(&closed)),
        ]);
        Ok(Artifact::new(data))
    }
}
