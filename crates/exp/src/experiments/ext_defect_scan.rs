//! Ext-F: defect-map extraction: march-style testing recovers the
//! crossbar matrix that the paper's mapping algorithms assume as given
//! (the testing problem of the paper's references \[11\] and \[12\]).
//!
//! The full loop: manufacture a defective fabric → march-scan it → build
//! the CM from the *measured* map → run HBA → execute the mapping on the
//! fabric and verify functionally.

use crate::experiment::{
    spec, write_csv_if_requested, Artifact, ExpError, Experiment, ParamKind, ParamSpec, Params,
    Reporter,
};
use crate::shard::json::Json;
use crate::table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xbar_core::{
    program_two_level, verify_against_cover, CrossbarMatrix, FunctionMatrix, MatchEngine,
    VerifyMode,
};
use xbar_device::{scan_cell_by_cell, scan_march, Crossbar, DefectProfile};
use xbar_logic::bench_reg::find;

/// Ext-F as a registry [`Experiment`].
#[derive(Debug, Clone, Copy)]
pub struct ExtDefectScanExperiment;

const EXT_F_PARAMS: &[ParamSpec] = &[
    spec(
        "circuit",
        ParamKind::Str,
        "rd53",
        "registry circuit mapped in the closed loop",
    ),
    spec(
        "stuck-closed-fraction",
        ParamKind::F64,
        "0.2",
        "fraction of defects that are stuck-closed in the scan-cost fabric",
    ),
];

impl Experiment for ExtDefectScanExperiment {
    fn name(&self) -> &'static str {
        "ext_defect_scan"
    }

    fn description(&self) -> &'static str {
        "Ext-F: march-test defect-map extraction and the closed scan->map->execute->verify loop"
    }

    fn extra_params(&self) -> &'static [ParamSpec] {
        EXT_F_PARAMS
    }

    fn run(&self, params: &Params, reporter: &mut Reporter) -> Result<Artifact, ExpError> {
        let campaign = &params.campaign;
        let circuit = params.str("circuit");
        let info = find(circuit)
            .map_err(|_| ExpError::Usage(format!("--circuit: {circuit:?} is not registered")))?;
        let closed_fraction = params.f64("stuck-closed-fraction");
        if !(0.0..=1.0).contains(&closed_fraction) {
            return Err(ExpError::Usage(
                "--stuck-closed-fraction must be in [0, 1]".to_owned(),
            ));
        }
        let cover = info.mapping_cover(campaign.seed);
        let fm = FunctionMatrix::from_cover(&cover);
        let rows = fm.num_rows();
        let cols = fm.num_cols();

        // 1. Test-cost comparison of the two scan procedures.
        let mut cost = Table::new(
            "Ext-F — test cost per procedure",
            &["procedure", "write ops", "read ops", "map recovered"],
        );
        let mut rng = StdRng::seed_from_u64(campaign.seed);
        let profile = DefectProfile {
            rate: campaign.defect_rate,
            stuck_closed_fraction: closed_fraction,
        };
        let mut xbar = Crossbar::with_random_defects(rows, cols, profile, &mut rng);
        let cell = scan_cell_by_cell(&mut xbar);
        let cell_exact = cell.matches_ground_truth(&xbar);
        cost.row([
            "cell-by-cell".to_owned(),
            cell.write_ops.to_string(),
            cell.read_ops.to_string(),
            if cell_exact { "exact" } else { "WRONG" }.to_owned(),
        ]);
        let march = scan_march(&mut xbar);
        let march_exact = march.matches_ground_truth(&xbar);
        cost.row([
            "march (row-parallel writes)".to_owned(),
            march.write_ops.to_string(),
            march.read_ops.to_string(),
            if march_exact { "exact" } else { "WRONG" }.to_owned(),
        ]);
        reporter.table(&cost);
        let (functional, open, closed) = march.counts();
        reporter.line(format!(
            "measured map: {functional} functional, {open} stuck-open, {closed} stuck-closed"
        ));
        if !cell_exact || !march_exact {
            return Err(ExpError::Failed(
                "a scan procedure failed to recover the ground-truth defect map".to_owned(),
            ));
        }
        write_csv_if_requested(params, reporter, &cost)?;

        // 2. Closed loop over many fabrics: scan → map from the measured CM →
        //    execute → verify.
        let mut attempted = 0usize;
        let mut mapped = 0usize;
        let mut verified = 0usize;
        // One engine for the whole closed loop; the FM never changes.
        let mut engine = MatchEngine::new();
        engine.prepare_fm(&fm);
        for _ in 0..campaign.samples {
            let mut xbar = Crossbar::with_random_defects(
                rows,
                cols,
                DefectProfile::stuck_open_only(campaign.defect_rate),
                &mut rng,
            );
            let report = scan_march(&mut xbar);
            if !report.matches_ground_truth(&xbar) {
                return Err(ExpError::Failed("march scan must be exact".to_owned()));
            }
            // Build the CM from the *measured* report, not the ground truth.
            let mut cm = CrossbarMatrix::perfect(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    if report.diagnosis(r, c).as_defect() != xbar_device::Defect::None {
                        cm.set_defective(r, c);
                    }
                }
            }
            attempted += 1;
            if let Some(assignment) = engine.map_hybrid(&fm, &cm).assignment {
                mapped += 1;
                let mut machine = program_two_level(&cover, &assignment, xbar)
                    .map_err(|e| ExpError::Failed(format!("layout does not fit: {e:?}")))?;
                if verify_against_cover(&mut machine, &cover, VerifyMode::Exhaustive, 0).is_none() {
                    verified += 1;
                }
            }
        }
        reporter.line(format!(
            "closed loop over {attempted} fabrics at {:.0}% stuck-open: {mapped} mapped, \
             {verified} functionally verified",
            campaign.defect_rate * 100.0
        ));
        if mapped != verified {
            return Err(ExpError::Failed(format!(
                "{} mappings from measured maps failed functional verification",
                mapped - verified
            )));
        }

        let data = Json::obj([
            ("circuit", Json::str(circuit)),
            (
                "scan_costs",
                Json::obj([
                    (
                        "cell_by_cell",
                        Json::obj([
                            ("write_ops", Json::usize(cell.write_ops)),
                            ("read_ops", Json::usize(cell.read_ops)),
                            ("exact", Json::Bool(cell_exact)),
                        ]),
                    ),
                    (
                        "march",
                        Json::obj([
                            ("write_ops", Json::usize(march.write_ops)),
                            ("read_ops", Json::usize(march.read_ops)),
                            ("exact", Json::Bool(march_exact)),
                        ]),
                    ),
                ]),
            ),
            (
                "measured_map",
                Json::obj([
                    ("functional", Json::usize(functional)),
                    ("stuck_open", Json::usize(open)),
                    ("stuck_closed", Json::usize(closed)),
                ]),
            ),
            (
                "closed_loop",
                Json::obj([
                    ("attempted", Json::usize(attempted)),
                    ("mapped", Json::usize(mapped)),
                    ("verified", Json::usize(verified)),
                ]),
            ),
        ]);
        Ok(Artifact::new(data))
    }
}
