//! Ext-G: mapping yield versus defect rate under every spatial defect
//! model.
//!
//! The paper's yield numbers assume independent stuck-open defects; real
//! crossbar defect maps cluster (shared forming conditions) and whole
//! lines fail (broken nanowires, §VI). This study sweeps the same HBA
//! yield estimator across all four registered [`DefectModelKind`]s at a
//! fixed *target* defect rate per row, quantifying how much of the
//! i.i.d. yield estimate survives spatial correlation.

use crate::experiment::{
    spec, write_csv_if_requested, Artifact, ExpError, Experiment, ParamKind, ParamSpec, Params,
    Reporter, CLUSTER_SIZE_PARAM, LINE_RATE_PARAM, RNG_STREAM_PARAM,
};
use crate::shard::json::Json;
use crate::table::{pct, Table};
use xbar_core::{
    estimate_yield, Campaign, DefectModelKind, DefectModelSpec, FunctionMatrix, MapperKind,
    YieldConfig,
};
use xbar_logic::bench_reg::find;

/// Ext-G as a registry [`Experiment`].
#[derive(Debug, Clone, Copy)]
pub struct ExtModelYieldExperiment;

const EXT_G_PARAMS: &[ParamSpec] = &[
    spec(
        "circuit",
        ParamKind::Str,
        "rd53",
        "registry circuit whose function matrix is swept",
    ),
    RNG_STREAM_PARAM,
    CLUSTER_SIZE_PARAM,
    LINE_RATE_PARAM,
];

const RATES: [f64; 4] = [0.05, 0.10, 0.15, 0.20];

/// One sweep cell: `(defect_rate, successes, samples)`.
type RateCell = (f64, u64, u64);

impl Experiment for ExtModelYieldExperiment {
    fn name(&self) -> &'static str {
        "ext_model_yield"
    }

    fn description(&self) -> &'static str {
        "Ext-G: HBA mapping yield vs defect rate under each spatial defect model \
         (iid, clustered, lines, composite)"
    }

    fn extra_params(&self) -> &'static [ParamSpec] {
        EXT_G_PARAMS
    }

    fn run(&self, params: &Params, reporter: &mut Reporter) -> Result<Artifact, ExpError> {
        let circuit = params.str("circuit");
        let info = find(circuit)
            .map_err(|_| ExpError::Usage(format!("--circuit: {circuit:?} is not registered")))?;
        let cover = info.cover(params.campaign.seed);
        let fm = FunctionMatrix::from_cover(&cover);
        let cluster_size = params.f64(CLUSTER_SIZE_PARAM.name);
        let line_rate = params.f64(LINE_RATE_PARAM.name);
        reporter.line(format!(
            "circuit: {circuit} ({} x {}), cluster size {cluster_size}, line rate {line_rate}",
            fm.num_rows(),
            fm.num_cols()
        ));

        // kind -> per-rate cells, in DefectModelKind::ALL order.
        let sweep: Vec<(DefectModelKind, Vec<RateCell>)> = DefectModelKind::ALL
            .iter()
            .map(|&kind| {
                let model = DefectModelSpec::new(kind, cluster_size, line_rate)
                    .expect("parse-time range checks admit only valid model params");
                let cells = RATES
                    .iter()
                    .map(|&rate| {
                        let result = estimate_yield(
                            &fm,
                            &YieldConfig {
                                campaign: Campaign {
                                    defect_rate: rate,
                                    model,
                                    ..params.campaign
                                },
                                mapper: MapperKind::Hybrid,
                                spare_rows: 0,
                                stuck_closed_fraction: 0.0,
                            },
                        );
                        (rate, result.successes as u64, result.samples as u64)
                    })
                    .collect();
                (kind, cells)
            })
            .collect();

        let mut headers: Vec<&str> = vec!["defect rate"];
        headers.extend(DefectModelKind::ALL.iter().map(|k| k.as_str()));
        let mut table = Table::new(
            "Ext-G — HBA success rate % by spatial defect model",
            &headers,
        );
        for (i, &rate) in RATES.iter().enumerate() {
            let mut row = vec![format!("{:.1}%", rate * 100.0)];
            for (_, cells) in &sweep {
                let (_, successes, samples) = cells[i];
                row.push(pct(successes as f64 / samples.max(1) as f64));
            }
            table.row(row);
        }
        reporter.table(&table);
        reporter.line("finding: at equal per-cell defect rates spatial correlation is strictly");
        reporter.line("         harsher than i.i.d. — an optimum-size crossbar must match every");
        reporter.line("         row, and a row holding a defect run rarely matches anything;");
        reporter.line("         line faults ignore the cell rate, and composite is the floor.");
        write_csv_if_requested(params, reporter, &table)?;

        let data = Json::obj([
            ("circuit", Json::str(circuit)),
            ("rows", Json::usize(fm.num_rows())),
            ("cols", Json::usize(fm.num_cols())),
            (
                "models",
                Json::arr(sweep.iter().map(|(kind, cells)| {
                    Json::obj([
                        ("model", Json::str(kind.as_str())),
                        (
                            "sweep",
                            Json::arr(cells.iter().map(|(rate, successes, samples)| {
                                Json::obj([
                                    ("defect_rate", Json::f64(*rate)),
                                    ("successes", Json::u64(*successes)),
                                    ("samples", Json::u64(*samples)),
                                ])
                            })),
                        ),
                    ])
                })),
            ),
        ]);
        Ok(Artifact::new(data))
    }
}
