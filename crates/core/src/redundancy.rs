//! Redundancy and yield analysis — the paper's first future-work item
//! (§VI): "exploring redundant crossbar areas might improve the defect
//! tolerance performance especially regarding stuck-at closed type
//! defects".
//!
//! A redundant crossbar has `P + K + spare` horizontal lines. Stuck-open
//! defects are absorbed by row re-assignment (as in Table II); stuck-closed
//! defects destroy a whole row (tolerable with spares) and a whole column
//! (fatal for any column the function matrix needs, since columns carry
//! fixed roles — the paper's optimum-size assumption keeps column roles
//! pinned to the CMOS driver).

use crate::campaign::Campaign;
use crate::engine::MatchEngine;
use crate::mapping::{map_exact, map_hybrid, MappingOutcome};
use crate::matrices::{CrossbarMatrix, FunctionMatrix};
use crate::stats::SuccessCount;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xbar_device::{Crossbar, DefectProfile};

/// Which mapper drives the yield estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapperKind {
    /// The paper's hybrid algorithm.
    Hybrid,
    /// The exact (Munkres over all rows) algorithm.
    Exact,
}

impl MapperKind {
    /// Runs the selected mapper.
    #[must_use]
    pub fn run(self, fm: &FunctionMatrix, cm: &CrossbarMatrix) -> MappingOutcome {
        match self {
            MapperKind::Hybrid => map_hybrid(fm, cm),
            MapperKind::Exact => map_exact(fm, cm),
        }
    }

    /// Success of the selected mapper through a reusable [`MatchEngine`] —
    /// the allocation-free query Monte Carlo loops should use.
    #[must_use]
    pub fn succeeds_with(
        self,
        engine: &mut MatchEngine,
        fm: &FunctionMatrix,
        cm: &CrossbarMatrix,
    ) -> bool {
        match self {
            MapperKind::Hybrid => engine.hybrid_success(fm, cm).0,
            MapperKind::Exact => engine.exact_success(fm, cm).0,
        }
    }
}

/// Configuration of a yield experiment: a [`Campaign`] plus the crossbar
/// and mapper under test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldConfig {
    /// Samples, seed, defect rate, and the stream and spatial model of
    /// the stuck-open-only regime. Mixed stuck-open/stuck-closed sampling
    /// goes through device-level [`Crossbar`] construction, which draws
    /// i.i.d. cells whatever the stream and model.
    pub campaign: Campaign,
    /// Mapper under test.
    pub mapper: MapperKind,
    /// Spare horizontal lines beyond the optimum `P + K`.
    pub spare_rows: usize,
    /// Fraction of defects that are stuck-closed (0.0 = Table II regime).
    pub stuck_closed_fraction: f64,
}

/// Result of a yield experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldResult {
    /// Fraction of samples with a valid mapping.
    pub success_rate: f64,
    /// Samples mapped successfully.
    pub successes: usize,
    /// Total samples.
    pub samples: usize,
    /// Area of the (redundant) crossbar used.
    pub area: usize,
    /// Area overhead vs the optimum crossbar (1.0 = none).
    pub area_overhead: f64,
}

/// Estimates mapping yield for `fm` under the given defect regime and row
/// redundancy.
///
/// # Panics
///
/// Panics when `samples` is 0.
#[must_use]
pub fn estimate_yield(fm: &FunctionMatrix, config: &YieldConfig) -> YieldResult {
    let campaign = &config.campaign;
    assert!(campaign.samples > 0, "need at least one sample");
    let optimum_rows = fm.num_rows();
    let rows = optimum_rows + config.spare_rows;
    let cols = fm.num_cols();
    let mut rng = StdRng::seed_from_u64(campaign.seed);
    // The same mergeable accumulator the sharded Monte Carlo coordinator
    // merges: integer counts, so single-process and sharded aggregation
    // share one code path and stay bit-identical.
    let mut counts = SuccessCount::new();
    let mut engine = MatchEngine::new();
    // The FM is the campaign constant: extract its one-column structure
    // once so every sample's adjacency build starts from the cache.
    engine.prepare_fm(fm);
    let mut cm_buf = CrossbarMatrix::perfect(rows, cols);
    let sampler = campaign.sampler();
    for _ in 0..campaign.samples {
        let success = if config.stuck_closed_fraction > 0.0 {
            // Stuck-closed defects need full device semantics (row/column
            // poisoning), which `from_crossbar` encodes.
            let profile = DefectProfile {
                rate: campaign.defect_rate,
                stuck_closed_fraction: config.stuck_closed_fraction,
            };
            let xbar = Crossbar::with_random_defects(rows, cols, profile, &mut rng);
            let cm = CrossbarMatrix::from_crossbar(&xbar);
            config.mapper.succeeds_with(&mut engine, fm, &cm)
        } else {
            // Stuck-open-only sampling reuses one matrix and the engine's
            // scratch: zero allocations per sample.
            sampler.resample(&mut cm_buf, campaign.defect_rate, &mut rng);
            config.mapper.succeeds_with(&mut engine, fm, &cm_buf)
        };
        counts.push(success);
    }
    let area = rows * cols;
    YieldResult {
        success_rate: counts.rate(),
        successes: counts.successes as usize,
        samples: campaign.samples,
        area,
        area_overhead: area as f64 / (optimum_rows * cols) as f64,
    }
}

/// Sweeps spare-row counts and returns `(spare, YieldResult)` per point —
/// the redundancy/yield trade-off curve.
#[must_use]
pub fn redundancy_sweep(
    fm: &FunctionMatrix,
    base: &YieldConfig,
    spares: &[usize],
) -> Vec<(usize, YieldResult)> {
    spares
        .iter()
        .map(|&spare| {
            let config = YieldConfig {
                spare_rows: spare,
                ..*base
            };
            (spare, estimate_yield(fm, &config))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_logic::{cube, Cover};

    fn sample_fm() -> FunctionMatrix {
        let cover = Cover::from_cubes(
            4,
            2,
            [
                cube("11-- 10"),
                cube("--11 10"),
                cube("1--0 01"),
                cube("-01- 01"),
                cube("0-0- 10"),
            ],
        )
        .expect("dims");
        FunctionMatrix::from_cover(&cover)
    }

    fn base_config() -> YieldConfig {
        config(0.15, 0.0)
    }

    /// The base campaign at another defect rate and stuck-closed fraction.
    fn config(defect_rate: f64, stuck_closed_fraction: f64) -> YieldConfig {
        YieldConfig {
            campaign: Campaign {
                samples: 150,
                seed: 17,
                defect_rate,
                ..Campaign::default()
            },
            mapper: MapperKind::Exact,
            spare_rows: 0,
            stuck_closed_fraction,
        }
    }

    #[test]
    fn yield_improves_with_spare_rows() {
        let fm = sample_fm();
        let sweep = redundancy_sweep(&fm, &base_config(), &[0, 2, 4]);
        assert!(sweep[2].1.success_rate >= sweep[0].1.success_rate);
        assert!(
            sweep[2].1.success_rate > sweep[0].1.success_rate + 0.01,
            "4 spares should measurably help: {:?}",
            sweep
                .iter()
                .map(|(s, r)| (*s, r.success_rate))
                .collect::<Vec<_>>()
        );
        assert!(sweep[2].1.area_overhead > 1.0);
    }

    #[test]
    fn yield_degrades_with_defect_rate() {
        let fm = sample_fm();
        let low = estimate_yield(&fm, &config(0.05, 0.0));
        let high = estimate_yield(&fm, &config(0.35, 0.0));
        assert!(low.success_rate > high.success_rate);
    }

    #[test]
    fn stuck_closed_defects_are_much_harsher() {
        let fm = sample_fm();
        let open_only = estimate_yield(&fm, &config(0.08, 0.0));
        let with_closed = estimate_yield(&fm, &config(0.08, 0.5));
        assert!(
            with_closed.success_rate < open_only.success_rate,
            "stuck-closed must hurt: {} vs {}",
            with_closed.success_rate,
            open_only.success_rate
        );
    }

    /// Spare *rows* do not recover stuck-closed yield: every extra row adds
    /// crosspoints to each column, and a single stuck-closed device kills
    /// its whole column (columns have fixed roles). This is precisely why
    /// the paper's §VI calls for dedicated (column) redundancy for
    /// stuck-at-closed defects; Ext-A records the measured curve.
    #[test]
    fn spare_rows_do_not_recover_stuck_closed_yield() {
        let fm = sample_fm();
        let mut cfg = config(0.06, 0.4);
        cfg.campaign.samples = 200;
        let none = estimate_yield(&fm, &cfg);
        let spared = estimate_yield(
            &fm,
            &YieldConfig {
                spare_rows: 4,
                ..cfg
            },
        );
        assert!(
            spared.success_rate <= none.success_rate,
            "column kills grow with row count: {} vs {}",
            spared.success_rate,
            none.success_rate
        );
    }

    #[test]
    fn hybrid_yield_not_above_exact() {
        let fm = sample_fm();
        let cfg = base_config();
        let exact = estimate_yield(&fm, &cfg);
        let hybrid = estimate_yield(
            &fm,
            &YieldConfig {
                mapper: MapperKind::Hybrid,
                ..cfg
            },
        );
        assert!(hybrid.success_rate <= exact.success_rate + 1e-9);
    }
}
