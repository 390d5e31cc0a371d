//! Ext-D: analog validation of the digital NAND abstraction: nodal
//! analysis of the resistive read path (sneak paths included) versus the
//! logic-level simulator, plus the read-margin degradation curve that
//! bounds practical row widths.

use crate::experiment::{Artifact, ExpError, Experiment, Params, Reporter};
use crate::shard::json::Json;
use crate::table::Table;
use xbar_device::analog::{row_nand_read, ReadConfig};
use xbar_device::{Crossbar, ProgramState};

/// Ext-D as a registry [`Experiment`].
#[derive(Debug, Clone, Copy)]
pub struct ExtAnalogValidationExperiment;

fn programmed_row(
    values: &[bool],
    rows: usize,
    cols: usize,
    target_row: usize,
) -> (Crossbar, Vec<usize>) {
    let mut xbar = Crossbar::new(rows, cols);
    let mut sense = Vec::new();
    for (c, &v) in values.iter().enumerate() {
        xbar.set_program(target_row, c, ProgramState::Active);
        xbar.store_value(target_row, c, v);
        sense.push(c);
    }
    (xbar, sense)
}

impl Experiment for ExtAnalogValidationExperiment {
    fn name(&self) -> &'static str {
        "ext_analog_validation"
    }

    fn description(&self) -> &'static str {
        "Ext-D: analog nodal analysis of the NAND read path vs the digital \
         abstraction, with read-margin curves"
    }

    fn run(&self, _params: &Params, reporter: &mut Reporter) -> Result<Artifact, ExpError> {
        let config = ReadConfig::default();
        reporter.line(format!(
            "read scheme: v_read = {} V through R_load = {:.0} Ω, threshold at {}·v_read",
            config.v_read, config.r_load, config.threshold_fraction
        ));

        // 1. Digital-vs-analog agreement over all 4-input patterns on an
        //    8x12 array (sneak paths live).
        let mut agree = 0usize;
        let mut total = 0usize;
        for pattern in 0..16u32 {
            let values: Vec<bool> = (0..4).map(|b| pattern >> b & 1 == 1).collect();
            let (xbar, sense) = programmed_row(&values, 8, 12, 3);
            let read = row_nand_read(&xbar, 3, &sense, &config)
                .map_err(|e| ExpError::Failed(format!("nodal solve failed: {e:?}")))?;
            let digital = !values.iter().all(|&v| v);
            total += 1;
            if read.nand_value == digital {
                agree += 1;
            }
        }
        reporter.line(format!(
            "digital vs analog NAND decisions on 8x12 array: {agree}/{total} agree"
        ));
        if agree != total {
            return Err(ExpError::Failed(format!(
                "analog NAND disagrees with the digital abstraction on {}/{total} patterns",
                total - agree
            )));
        }

        // 2. Read margin vs number of participating (all-R_OFF) inputs.
        let mut margin_table = Table::new(
            "Ext-D — worst-case read margin vs NAND fan-in (all inputs logic 1)",
            &["fan-in", "row voltage V", "margin V", "decision"],
        );
        let mut fanin_points = Vec::new();
        for fanin in [2usize, 4, 8, 16, 32, 64] {
            let values = vec![true; fanin];
            let (xbar, sense) = programmed_row(&values, 4, fanin + 4, 1);
            let read = row_nand_read(&xbar, 1, &sense, &config)
                .map_err(|e| ExpError::Failed(format!("nodal solve failed: {e:?}")))?;
            margin_table.row([
                fanin.to_string(),
                format!("{:.4}", read.row_voltage),
                format!("{:.4}", read.margin),
                if read.nand_value {
                    "NAND=1 (WRONG)"
                } else {
                    "NAND=0 (correct)"
                }
                .to_string(),
            ]);
            fanin_points.push((fanin, read.row_voltage, read.margin, read.nand_value));
        }
        reporter.table(&margin_table);

        // 3. Margin vs array size with a fixed 3-input NAND (sneak paths grow).
        let mut sneak_table = Table::new(
            "Ext-D — read margin vs array size (3-input NAND, everything else R_OFF)",
            &["array", "row voltage V", "margin V"],
        );
        let mut sneak_points = Vec::new();
        for size in [4usize, 8, 16, 32] {
            let values = vec![true; 3];
            let (xbar, sense) = programmed_row(&values, size, size, size / 2);
            let read = row_nand_read(&xbar, size / 2, &sense, &config)
                .map_err(|e| ExpError::Failed(format!("nodal solve failed: {e:?}")))?;
            sneak_table.row([
                format!("{size}x{size}"),
                format!("{:.4}", read.row_voltage),
                format!("{:.4}", read.margin),
            ]);
            sneak_points.push((size, read.row_voltage, read.margin));
        }
        reporter.table(&sneak_table);
        reporter
            .line("reading: margins shrink with fan-in (parallel R_OFF divider) and array size");
        reporter
            .line("(sneak paths), but the decisions stay correct at the sizes the paper maps —");
        reporter.line("the digital abstraction used by the mapping experiments is sound.");

        let data = Json::obj([
            (
                "nand_agreement",
                Json::obj([("agree", Json::usize(agree)), ("total", Json::usize(total))]),
            ),
            (
                "margin_vs_fanin",
                Json::arr(fanin_points.iter().map(|(fanin, v, m, wrong)| {
                    Json::obj([
                        ("fanin", Json::usize(*fanin)),
                        ("row_voltage", Json::f64(*v)),
                        ("margin", Json::f64(*m)),
                        ("decision_correct", Json::Bool(!*wrong)),
                    ])
                })),
            ),
            (
                "margin_vs_array_size",
                Json::arr(sneak_points.iter().map(|(size, v, m)| {
                    Json::obj([
                        ("array_size", Json::usize(*size)),
                        ("row_voltage", Json::f64(*v)),
                        ("margin", Json::f64(*m)),
                    ])
                })),
            ),
        ]);
        Ok(Artifact::new(data))
    }
}
