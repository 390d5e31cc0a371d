//! Fig. 1: memristor I-V characteristics and switching behaviour.
//!
//! Sweeps a triangular voltage across a fresh device with both the abrupt
//! (ideal Snider) and linear-drift models; the human report carries the
//! hysteresis loop as CSV-ready series plus the SET/RESET summary the
//! figure annotates.

use crate::experiment::{
    spec, write_csv_if_requested, Artifact, ExpError, Experiment, ParamKind, ParamSpec, Params,
    Reporter,
};
use crate::shard::json::Json;
use crate::table::Table;
use xbar_device::{iv_sweep, IvPoint, MemristorParams};

/// Fig. 1 as a registry [`Experiment`].
#[derive(Debug, Clone, Copy)]
pub struct Fig1Experiment;

const FIG1_PARAMS: &[ParamSpec] = &[
    spec(
        "points",
        ParamKind::USize,
        "40",
        "sweep steps per triangular leg",
    ),
    spec("v-max", ParamKind::F64, "3.0", "sweep amplitude in volts"),
];

fn current_at(points: &[IvPoint], voltage: f64) -> f64 {
    points
        .iter()
        .min_by(|a, b| {
            (a.voltage - voltage)
                .abs()
                .partial_cmp(&(b.voltage - voltage).abs())
                .expect("no NaN")
        })
        .map(|p| p.current.abs().max(1e-12))
        .unwrap_or(1e-12)
}

impl Experiment for Fig1Experiment {
    fn name(&self) -> &'static str {
        "fig1"
    }

    fn description(&self) -> &'static str {
        "Fig. 1: memristor I-V hysteresis sweep (abrupt and linear-drift models)"
    }

    fn extra_params(&self) -> &'static [ParamSpec] {
        FIG1_PARAMS
    }

    fn run(&self, params: &Params, reporter: &mut Reporter) -> Result<Artifact, ExpError> {
        let steps = params.usize("points");
        if steps < 2 {
            return Err(ExpError::Usage("--points must be at least 2".to_owned()));
        }
        let v_max = params.f64("v-max");
        if v_max <= 0.0 {
            return Err(ExpError::Usage("--v-max must be positive".to_owned()));
        }
        let device = MemristorParams::default();
        reporter.line(format!(
            "device: R_ON = {:.0} Ω (logic 0), R_OFF = {:.0} Ω (logic 1), \
             v_write = ±{} V, v_hold = ±{} V",
            device.r_on, device.r_off, device.v_write, device.v_hold
        ));

        let abrupt = iv_sweep(device, v_max, steps, true);
        let drift = iv_sweep(device, v_max, steps, false);

        let mut table = Table::new(
            "Fig. 1 — I-V sweep (0 → +Vmax → 0 → −Vmax → 0)",
            &[
                "leg_point",
                "voltage_V",
                "abrupt_current_A",
                "drift_current_A",
                "drift_state_w",
            ],
        );
        for (i, (a, d)) in abrupt.iter().zip(&drift).enumerate() {
            table.row([
                i.to_string(),
                format!("{:.3}", a.voltage),
                format!("{:.3e}", a.current),
                format!("{:.3e}", d.current),
                format!("{:.3}", d.state),
            ]);
        }
        if params.csv.is_some() {
            write_csv_if_requested(params, reporter, &table)?;
            reporter.line(format!("wrote {} sweep points", table.len()));
        } else {
            // Condensed view (every 8th point) when not dumping CSV.
            let mut condensed = Table::new(
                "Fig. 1 — I-V sweep (condensed; use --csv for all points)",
                &["voltage_V", "abrupt_current_A", "drift_state_w"],
            );
            for (i, (a, d)) in abrupt.iter().zip(&drift).enumerate() {
                if i % 8 == 0 {
                    condensed.row([
                        format!("{:.3}", a.voltage),
                        format!("{:.3e}", a.current),
                        format!("{:.3}", d.state),
                    ]);
                }
            }
            reporter.table(&condensed);
        }

        let set_at = abrupt.iter().find(|p| p.state > 0.5).map(|p| p.voltage);
        let reset_at = abrupt
            .iter()
            .skip_while(|p| p.state < 0.5)
            .find(|p| p.state < 0.5)
            .map(|p| p.voltage);
        let hysteresis_ratio =
            current_at(&abrupt[steps..], 1.0) / current_at(&abrupt[..steps], 1.0);
        reporter.line(format!(
            "SET observed at {set_at:?} V (paper: +Vw), RESET at {reset_at:?} V (paper: −Vw)"
        ));
        reporter.line(format!(
            "hysteresis confirmed: current ratio at +1 V between down/up legs = \
             {hysteresis_ratio:.1}x"
        ));

        let opt_v = |v: Option<f64>| v.map_or(Json::Null, Json::f64);
        let data = Json::obj([
            ("sweep_points", Json::usize(abrupt.len())),
            ("v_max", Json::f64(v_max)),
            ("set_voltage", opt_v(set_at)),
            ("reset_voltage", opt_v(reset_at)),
            ("hysteresis_ratio", Json::f64(hysteresis_ratio)),
            ("r_on", Json::f64(device.r_on)),
            ("r_off", Json::f64(device.r_off)),
        ]);
        Ok(Artifact::new(data))
    }
}
