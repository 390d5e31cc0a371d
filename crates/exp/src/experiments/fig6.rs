//! Fig. 6: Monte Carlo area-cost comparison of two-level vs multi-level
//! designs on random single-output functions.
//!
//! The paper draws 200 random Boolean functions per input size (8, 9, 10,
//! 15), sorts them by product count, and reports the fraction whose
//! multi-level implementation is smaller ("success rate": 65%, 60%, 54%,
//! 33%). Cost ranges in the published plots imply product counts of
//! roughly 2..n−1, which is the workload generated here.

use crate::experiment::{
    spec, write_csv_if_requested, Artifact, ExpError, Experiment, ParamKind, ParamSpec, Params,
    Reporter,
};
use crate::mc::monte_carlo;
use crate::shard::json::Json;
use crate::table::{pct, Table};
use rand::prelude::*;
use rand::rngs::StdRng;
use xbar_core::{Campaign, TwoLevelLayout};
use xbar_logic::RandomSopSpec;
use xbar_netlist::{map_cover, MapOptions, MultiLevelCost};

/// One random-function sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig6Point {
    /// Product count of the sampled SOP.
    pub products: usize,
    /// Two-level area `(P+1)(2n+2)`.
    pub two_level: usize,
    /// Multi-level area from the factored NAND flow.
    pub multi_level: usize,
}

impl Fig6Point {
    /// Whether multi-level beats two-level on this sample.
    #[must_use]
    pub fn multi_level_wins(&self) -> bool {
        self.multi_level < self.two_level
    }
}

/// All samples for one input size, sorted by product count (the paper's
/// x-axis ordering).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Series {
    /// Input size `n`.
    pub input_size: usize,
    /// Samples sorted ascending by product count.
    pub points: Vec<Fig6Point>,
    /// Fraction of samples where multi-level wins.
    pub success_rate: f64,
    /// The paper's published success rate, when this input size appears in
    /// Fig. 6 (8 → 65%, 9 → 60%, 10 → 54%, 15 → 33%).
    pub published_success_rate: Option<f64>,
}

/// Published Fig. 6 success rates by input size.
#[must_use]
pub fn published_success_rate(input_size: usize) -> Option<f64> {
    match input_size {
        8 => Some(0.65),
        9 => Some(0.60),
        10 => Some(0.54),
        15 => Some(0.33),
        _ => None,
    }
}

/// Runs one Fig. 6 series.
#[must_use]
pub fn run_series(input_size: usize, campaign: &Campaign) -> Fig6Series {
    let n = input_size;
    let mc_seed = campaign.seed ^ n as u64;
    let mut points: Vec<Fig6Point> = monte_carlo(campaign.samples, mc_seed, |_, seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        // Product count uniform on [2, n-1] (see module docs).
        let products = rng.random_range(2..=(n - 1).max(2));
        let spec = RandomSopSpec::figure6(n, products);
        let cover = spec.generate(&mut rng);
        let two_level = TwoLevelLayout::of_cover(&cover).area();
        let net = map_cover(
            &cover,
            &MapOptions {
                factoring: true,
                max_fanin: Some(n),
            },
        );
        let multi_level = MultiLevelCost::of(&net).area();
        Fig6Point {
            products: cover.len(),
            two_level,
            multi_level,
        }
    });
    points.sort_by_key(|p| (p.products, p.multi_level));
    let success_rate =
        points.iter().filter(|p| p.multi_level_wins()).count() as f64 / points.len().max(1) as f64;
    Fig6Series {
        input_size,
        points,
        success_rate,
        published_success_rate: published_success_rate(input_size),
    }
}

/// Runs the figure's four input sizes (or custom ones).
#[must_use]
pub fn run_fig6(campaign: &Campaign, input_sizes: &[usize]) -> Vec<Fig6Series> {
    input_sizes
        .iter()
        .map(|&n| run_series(n, campaign))
        .collect()
}

/// Fig. 6 as a registry [`Experiment`]: two-level vs multi-level Monte
/// Carlo on random Boolean functions.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Experiment;

const FIG6_PARAMS: &[ParamSpec] = &[spec(
    "input-sizes",
    ParamKind::StrList,
    "8,9,10,15",
    "input sizes to sweep (the figure's four by default)",
)];

impl Experiment for Fig6Experiment {
    fn name(&self) -> &'static str {
        "fig6"
    }

    fn description(&self) -> &'static str {
        "Fig. 6: Monte Carlo area comparison of two-level vs multi-level designs \
         on random Boolean functions"
    }

    fn extra_params(&self) -> &'static [ParamSpec] {
        FIG6_PARAMS
    }

    fn run(&self, params: &Params, reporter: &mut Reporter) -> Result<Artifact, ExpError> {
        let input_sizes: Vec<usize> = params
            .list("input-sizes")
            .iter()
            .map(|s| {
                s.parse::<usize>().ok().filter(|&n| n >= 3).ok_or_else(|| {
                    ExpError::Usage(format!("--input-sizes: {s:?} is not an input size >= 3"))
                })
            })
            .collect::<Result<_, _>>()?;
        let series = run_fig6(&params.campaign, &input_sizes);

        let mut summary = Table::new(
            "Fig. 6 — success rate (% of samples with multi-level < two-level)",
            &[
                "input size",
                "samples",
                "success % (paper)",
                "success % (ours)",
            ],
        );
        for s in &series {
            summary.row([
                s.input_size.to_string(),
                s.points.len().to_string(),
                s.published_success_rate.map_or("-".to_owned(), pct),
                pct(s.success_rate),
            ]);
        }
        reporter.table(&summary);

        let mut points = Table::new(
            "Fig. 6 — per-sample series (sorted by product count)",
            &[
                "input_size",
                "sample",
                "products",
                "two_level_area",
                "multi_level_area",
                "ml_wins",
            ],
        );
        for s in &series {
            for (i, p) in s.points.iter().enumerate() {
                points.row([
                    s.input_size.to_string(),
                    i.to_string(),
                    p.products.to_string(),
                    p.two_level.to_string(),
                    p.multi_level.to_string(),
                    u8::from(p.multi_level_wins()).to_string(),
                ]);
            }
        }
        if params.csv.is_some() {
            write_csv_if_requested(params, reporter, &points)?;
        } else {
            reporter.line("(run with --csv PATH to dump the full per-sample series)");
        }

        let data = Json::obj([(
            "series",
            Json::arr(series.iter().map(|s| {
                let wins = s.points.iter().filter(|p| p.multi_level_wins()).count();
                Json::obj([
                    ("input_size", Json::usize(s.input_size)),
                    ("samples", Json::usize(s.points.len())),
                    ("multi_level_wins", Json::usize(wins)),
                    ("success_rate", Json::f64(s.success_rate)),
                    (
                        "published_success_rate",
                        s.published_success_rate.map_or(Json::Null, Json::f64),
                    ),
                ])
            })),
        )]);
        Ok(Artifact::new(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_campaign() -> Campaign {
        Campaign {
            samples: 60,
            seed: 11,
            ..Campaign::default()
        }
    }

    #[test]
    fn two_level_cost_is_flat_per_product_count() {
        let series = run_series(8, &quick_campaign());
        for p in &series.points {
            assert_eq!(p.two_level, (p.products + 1) * 18);
        }
        // Sorted by products.
        for w in series.points.windows(2) {
            assert!(w[0].products <= w[1].products);
        }
    }

    #[test]
    fn success_rate_declines_with_input_size() {
        // The paper's headline trend: 65% at n=8 down to 33% at n=15.
        let campaign = Campaign {
            samples: 120,
            ..quick_campaign()
        };
        let small = run_series(8, &campaign);
        let large = run_series(15, &campaign);
        assert!(
            small.success_rate > large.success_rate,
            "n=8 {:.2} should beat n=15 {:.2}",
            small.success_rate,
            large.success_rate
        );
    }

    #[test]
    fn success_rates_are_in_the_papers_ballpark() {
        let campaign = Campaign {
            samples: 150,
            ..quick_campaign()
        };
        for n in [8, 15] {
            let series = run_series(n, &campaign);
            let published = series.published_success_rate.expect("published");
            assert!(
                (series.success_rate - published).abs() < 0.30,
                "n={n}: measured {:.2} too far from published {:.2}",
                series.success_rate,
                published
            );
        }
    }

    #[test]
    fn more_products_help_multi_level_at_small_input_sizes() {
        // Paper: "when the product size increases, it is easier to find a
        // superior multi-level design". In our flow this holds clearly at
        // n = 8..10 (measured 63%→75% at n=8); at n = 15 it *reverses*
        // (connection columns grow with the product count faster than
        // factoring can recover) — recorded as a deviation in
        // EXPERIMENTS.md. Assert the paper-matching regime.
        let campaign = Campaign {
            samples: 300,
            ..quick_campaign()
        };
        let series = run_series(8, &campaign);
        let half = series.points.len() / 2;
        let low: f64 = series.points[..half]
            .iter()
            .filter(|p| p.multi_level_wins())
            .count() as f64
            / half as f64;
        let high: f64 = series.points[half..]
            .iter()
            .filter(|p| p.multi_level_wins())
            .count() as f64
            / (series.points.len() - half) as f64;
        assert!(
            high + 0.03 >= low,
            "high-product half {high:.2} should win at least as often as {low:.2}"
        );
    }
}
