//! Process-sharded Monte Carlo: split a sample range across worker
//! processes (or hosts) without changing a single statistic.
//!
//! Per-sample seeds depend only on `(experiment_seed, sample_index)`
//! ([`crate::sample_seed`]), so a contiguous slice of the sample range can
//! be reproduced by any process that knows the experiment configuration
//! and its [`ShardSpec`]. Each worker folds its slice into the mergeable
//! accumulators of [`xbar_core::stats`] and writes a self-describing
//! partial-result file ([`partial::ShardPartial`], written and read
//! through the workspace's JSON type in [`json`]). The campaign runner ([`crate::launch::scheduler`]) —
//! bounded event-driven scheduling, watchdog timeouts for hung workers,
//! per-shard deterministic backoff retry, and checkpoint/resume over a
//! per-campaign run directory — dispatches the workers; `xbar mc
//! coordinate` ([`cli`]) is that runner on the local fleet `local*N`. The
//! [`coordinator`] module holds what every run shares: the run
//! directory, the backoff schedule, and the merge into output
//! **byte-identical** to a monolithic run for every integer-derived
//! statistic, whatever failures occurred along the way.
//!
//! Reproducibility contract (also documented in the README):
//!
//! * sample `i` is simulated from `sample_seed(mc_seed, i)` regardless of
//!   which process runs it;
//! * success counters are integers, so any shard layout merges to the
//!   exact monolithic counts and the stats artifact compares equal byte
//!   for byte across layouts;
//! * runtime moments (Welford) merge deterministically for a fixed layout
//!   but are wall-clock measurements, so they stay out of byte-compared
//!   artifacts.

pub mod cli;
pub mod coordinator;
pub mod json;
pub mod partial;

use crate::cli::ExpArgs;
use crate::experiment::{Flags, ParamSpec, Params, UsageError, CAMPAIGN_PARAMS};
use crate::experiments::table2::{
    resolve_circuit_subset, run_circuit_range, table2_circuit_names, CircuitAccum, TABLE2_PARAMS,
};
use json::Json;
use std::ops::Range;
use xbar_core::{DefectModelKind, DefectModelSpec, SampleStream};
use xbar_logic::bench_reg::find;

/// One contiguous slice of a Monte Carlo sample range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard index in `0..num_shards`.
    pub index: usize,
    /// Total shard count of the partition this spec belongs to.
    pub num_shards: usize,
    /// First global sample index (inclusive).
    pub start: usize,
    /// Past-the-end global sample index.
    pub end: usize,
}

impl ShardSpec {
    /// Splits `0..samples` into `num_shards` contiguous shards; the first
    /// `samples % num_shards` shards carry one extra sample (the same
    /// chunking rule [`crate::monte_carlo`] uses for threads).
    ///
    /// # Panics
    ///
    /// Panics when `num_shards == 0`.
    #[must_use]
    pub fn partition(samples: usize, num_shards: usize) -> Vec<ShardSpec> {
        assert!(num_shards > 0, "need at least one shard");
        let base = samples / num_shards;
        let extra = samples % num_shards;
        (0..num_shards)
            .map(|index| {
                let start = index * base + index.min(extra);
                let end = start + base + usize::from(index < extra);
                ShardSpec {
                    index,
                    num_shards,
                    start,
                    end,
                }
            })
            .collect()
    }

    /// The global sample range this shard owns.
    #[must_use]
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Samples in this shard.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the shard owns no samples (more shards than samples).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The experiment configuration every shard of a campaign must agree on.
#[derive(Debug, Clone, PartialEq)]
pub struct McConfig {
    /// Total Monte Carlo samples across all shards.
    pub samples: usize,
    /// Experiment seed (Table II derives its MC stream seed from this).
    pub seed: u64,
    /// Per-crosspoint stuck-open defect probability.
    pub defect_rate: f64,
    /// Defect sampling stream version. Every shard of a campaign must
    /// sample under the same stream or the merged statistics would mix
    /// two different defect distributions; the coordinator rejects
    /// partials whose echoed stream disagrees with the campaign spec.
    pub stream: SampleStream,
    /// Spatial defect model. Campaign identity exactly like `stream`: every
    /// shard must sample under the same model (and model parameters) or the
    /// merged statistics would mix defect distributions; the coordinator
    /// rejects partials whose echoed model disagrees with the campaign spec.
    pub model: DefectModelSpec,
    /// Registry circuits to simulate, in output order.
    pub circuits: Vec<String>,
}

impl McConfig {
    /// Configuration with the default Table II circuit set (V1 stream).
    #[must_use]
    pub fn with_default_circuits(samples: usize, seed: u64, defect_rate: f64) -> Self {
        Self {
            samples,
            seed,
            defect_rate,
            stream: SampleStream::V1,
            model: DefectModelSpec::default(),
            circuits: table2_circuit_names(),
        }
    }

    /// Checks every circuit name against the benchmark registry.
    ///
    /// # Errors
    ///
    /// Names the first unknown circuit.
    pub fn validate(&self) -> Result<(), String> {
        for name in &self.circuits {
            if find(name).is_err() {
                return Err(format!("unknown circuit {name:?} (not in the registry)"));
            }
        }
        if self.circuits.is_empty() {
            return Err("no circuits selected".to_owned());
        }
        Ok(())
    }

    /// The campaign-identity fields every campaign document carries, in
    /// document order: `seed`, `defect_rate`, `samples`, `rng_stream` and
    /// the spatial model. Partials and merged stats (`manifest` `None`)
    /// echo the stream only when it is not V1 and the model only when it
    /// is not i.i.d., so default campaigns keep the bytes they had before
    /// either existed. A `campaign.json` manifest (`Some((shards,
    /// hosts))`) adds `shards` after `samples`, always names its stream,
    /// and follows it with the host attribution when there is one.
    pub(crate) fn identity_fields(
        &self,
        manifest: Option<(usize, &[String])>,
    ) -> Vec<(&'static str, Json)> {
        let mut fields = vec![
            ("seed", Json::u64(self.seed)),
            ("defect_rate", Json::f64(self.defect_rate)),
            ("samples", Json::usize(self.samples)),
        ];
        if let Some((shards, _)) = manifest {
            fields.push(("shards", Json::usize(shards)));
        }
        if manifest.is_some() || self.stream != SampleStream::V1 {
            fields.push(("rng_stream", Json::str(self.stream.as_str())));
        }
        if let Some((_, hosts)) = manifest.filter(|(_, hosts)| !hosts.is_empty()) {
            fields.push(("hosts", Json::arr(hosts.iter().map(Json::str))));
        }
        if !self.model.is_default() {
            fields.push(("defect_model", Json::str(self.model.kind().as_str())));
            if self.model.uses_cluster() {
                fields.push(("cluster_size", Json::f64(self.model.cluster_size())));
            }
            if self.model.uses_lines() {
                fields.push(("line_rate", Json::f64(self.model.line_rate())));
            }
        }
        fields
    }

    /// Reads back what [`McConfig::identity_fields`] wrote, with the
    /// circuit list the caller read from its own layout. An absent
    /// `rng_stream` means V1 and an absent `defect_model` means i.i.d.,
    /// exactly as written. `what` names the document in error messages.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub(crate) fn from_identity(
        doc: &Json,
        what: &str,
        circuits: Vec<String>,
    ) -> Result<Self, String> {
        let u64_field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{what} missing u64 `{key}`"))
        };
        let str_opt = |key: &str| match doc.get(key).map(Json::as_str) {
            None => Ok(None),
            Some(Some(text)) => Ok(Some(text)),
            Some(None) => Err(format!("{what} `{key}` is not a string")),
        };
        let f64_opt = |key: &str, default: f64| match doc.get(key).map(Json::as_f64) {
            None => Ok(default),
            Some(Some(value)) => Ok(value),
            Some(None) => Err(format!("{what} `{key}` is not a number")),
        };
        let model = DefectModelSpec::new(
            str_opt("defect_model")?.map_or(Ok(DefectModelKind::Iid), DefectModelKind::parse)?,
            f64_opt("cluster_size", DefectModelSpec::DEFAULT_CLUSTER_SIZE)?,
            f64_opt("line_rate", DefectModelSpec::DEFAULT_LINE_RATE)?,
        )?;
        Ok(Self {
            samples: usize::try_from(u64_field("samples")?)
                .map_err(|_| format!("{what} samples exceeds usize"))?,
            seed: u64_field("seed")?,
            defect_rate: doc
                .get("defect_rate")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{what} missing f64 `defect_rate`"))?,
            stream: str_opt("rng_stream")?.map_or(Ok(SampleStream::V1), SampleStream::parse)?,
            model,
            circuits,
        })
    }

    /// The campaign `xbar run table2` runs for `params` (parsed against
    /// `TABLE2_PARAMS`): its circuit selector resolved against the Table
    /// II set, so every front-end accepts exactly the campaigns `run`
    /// accepts.
    ///
    /// # Errors
    ///
    /// Names the first circuit that is not Table II-eligible or is
    /// repeated.
    pub fn from_params(params: &Params) -> Result<Self, UsageError> {
        let circuits = resolve_circuit_subset(params.list("circuits"))?;
        Ok(Self {
            samples: params.samples,
            seed: params.seed,
            defect_rate: params.defect_rate,
            stream: params.sample_stream(),
            model: params.defect_model(),
            circuits,
        })
    }

    /// The `xbar run table2` flags that describe this campaign: parsed
    /// back through [`McConfig::from_params`] they give this config
    /// exactly (floats are written as shortest round-trip text). Model
    /// flags appear only for a non-default model, so a default campaign
    /// keeps the argv it had before spatial models existed.
    #[must_use]
    pub fn to_argv(&self) -> Vec<String> {
        let mut args = vec![
            "--samples".to_owned(),
            self.samples.to_string(),
            "--seed".to_owned(),
            self.seed.to_string(),
            "--defect-rate".to_owned(),
            format!("{:?}", self.defect_rate),
            "--rng-stream".to_owned(),
            self.stream.as_str().to_owned(),
        ];
        if !self.model.is_default() {
            args.push("--defect-model".to_owned());
            args.push(self.model.kind().as_str().to_owned());
            if self.model.uses_cluster() {
                args.push("--cluster-size".to_owned());
                args.push(format!("{:?}", self.model.cluster_size()));
            }
            if self.model.uses_lines() {
                args.push("--line-rate".to_owned());
                args.push(format!("{:?}", self.model.line_rate()));
            }
        }
        args.push("--circuits".to_owned());
        args.push(self.circuits.join(","));
        args
    }

    /// How this campaign differs from `expected`: one `field found !=
    /// expected` entry per differing identity field, empty when both
    /// describe the same campaign. Partials, checkpoints and run
    /// directories are all checked through this one comparison.
    #[must_use]
    pub(crate) fn mismatch(&self, expected: &McConfig) -> Vec<String> {
        let mut diffs = Vec::new();
        if self.samples != expected.samples {
            diffs.push(format!("samples {} != {}", self.samples, expected.samples));
        }
        if self.seed != expected.seed {
            diffs.push(format!("seed {} != {}", self.seed, expected.seed));
        }
        if self.defect_rate.to_bits() != expected.defect_rate.to_bits() {
            diffs.push(format!(
                "defect_rate {} != {}",
                self.defect_rate, expected.defect_rate
            ));
        }
        if self.stream != expected.stream {
            diffs.push(format!("rng stream {} != {}", self.stream, expected.stream));
        }
        if self.model != expected.model {
            diffs.push(format!(
                "defect_model {} != {} (sampled under another spatial defect model)",
                self.model, expected.model
            ));
        }
        if self.circuits != expected.circuits {
            diffs.push(format!(
                "circuits {:?} != {:?}",
                self.circuits, expected.circuits
            ));
        }
        diffs
    }

    /// The equivalent single-process experiment arguments.
    #[must_use]
    pub fn exp_args(&self) -> ExpArgs {
        ExpArgs {
            samples: self.samples,
            seed: self.seed,
            defect_rate: self.defect_rate,
            stream: self.stream,
            model: self.model,
            csv: None,
        }
    }
}

/// The help sections every `mc` front-end opens with: its campaign,
/// parsed exactly as `xbar run table2` parses one.
pub(crate) const CAMPAIGN_SECTIONS: [(&str, &[ParamSpec]); 2] = [
    (
        "campaign flags (as `xbar run table2` takes them)",
        CAMPAIGN_PARAMS,
    ),
    ("", TABLE2_PARAMS),
];

/// The campaign an `mc` front-end's flags describe (parsed against
/// [`CAMPAIGN_SECTIONS`] among its tables): the `table2` [`Params`], with
/// `xbar run table2`'s central checks, and the [`McConfig`] they resolve
/// to.
///
/// # Errors
///
/// Reports a campaign `xbar run table2` would reject.
pub(crate) fn campaign(flags: &Flags) -> Result<(Params, McConfig), UsageError> {
    let params = Params::from_flags(flags, TABLE2_PARAMS)?;
    let config = McConfig::from_params(&params)?;
    Ok((params, config))
}

/// Runs one shard of the Table II workload in-process: folds the shard's
/// sample slice for every configured circuit.
///
/// # Panics
///
/// Panics when a circuit name is not registered (call
/// [`McConfig::validate`] first at process boundaries).
#[must_use]
pub fn run_shard(config: &McConfig, spec: &ShardSpec) -> partial::ShardPartial {
    let args = config.exp_args();
    let circuits = config
        .circuits
        .iter()
        .map(|name| {
            let info = find(name).expect("validated circuit name");
            (name.clone(), run_circuit_range(info, &args, spec.range()))
        })
        .collect::<Vec<(String, CircuitAccum)>>();
    partial::ShardPartial {
        config: config.clone(),
        spec: *spec,
        circuits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_tiles_the_range_exactly() {
        for (samples, shards) in [(0, 1), (0, 3), (1, 1), (10, 3), (10, 7), (10, 10), (3, 7)] {
            let parts = ShardSpec::partition(samples, shards);
            assert_eq!(parts.len(), shards);
            assert_eq!(parts[0].start, 0);
            for pair in parts.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "{samples}/{shards}");
            }
            assert_eq!(parts.last().unwrap().end, samples);
            let lens: Vec<usize> = parts.iter().map(ShardSpec::len).collect();
            let max = lens.iter().max().unwrap();
            let min = lens.iter().min().unwrap();
            assert!(max - min <= 1, "balanced: {lens:?}");
        }
    }

    #[test]
    fn partition_matches_monte_carlo_thread_chunking_shape() {
        // 101 samples, 4 shards: first 101 % 4 = 1 shard gets the extra.
        let parts = ShardSpec::partition(101, 4);
        assert_eq!(
            parts.iter().map(ShardSpec::len).collect::<Vec<_>>(),
            [26, 25, 25, 25]
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardSpec::partition(10, 0);
    }

    #[test]
    fn more_shards_than_samples_yields_empty_tails() {
        let parts = ShardSpec::partition(2, 5);
        assert_eq!(parts.iter().filter(|s| !s.is_empty()).count(), 2);
        assert_eq!(parts.iter().map(ShardSpec::len).sum::<usize>(), 2);
    }

    fn campaign(words: &[&str]) -> Result<McConfig, UsageError> {
        let params = Params::parse(TABLE2_PARAMS, words.iter().map(|s| (*s).to_owned()))?;
        McConfig::from_params(&params)
    }

    #[test]
    fn campaign_params_resolve_to_the_config_and_default_to_table2() {
        let config = campaign(&[
            "--samples",
            "50",
            "--seed",
            "9",
            "--defect-rate",
            "0.25",
            "--circuits",
            "rd53,bw",
        ])
        .expect("parses");
        assert_eq!(config.samples, 50);
        assert_eq!(config.seed, 9);
        assert_eq!(config.defect_rate.to_bits(), 0.25f64.to_bits());
        assert_eq!(config.circuits, ["rd53", "bw"]);

        let defaulted = campaign(&[]).expect("parses");
        assert_eq!(defaulted.circuits, table2_circuit_names());
        assert_eq!(campaign(&["--circuits", "all"]), Ok(defaulted));
        for (words, needle) in [
            (&["--circuits", "rd53,rd53"][..], "listed twice"),
            (&["--circuits", "b12"][..], "not a Table II circuit"),
        ] {
            let err = campaign(words).expect_err("must fail");
            assert!(err.0.contains(needle), "{words:?}: {err}");
        }
    }

    #[test]
    fn mismatch_names_every_differing_field() {
        let config = McConfig::with_default_circuits(10, 1, 0.1);
        assert!(config.mismatch(&config).is_empty());
        let other = McConfig {
            samples: 11,
            seed: 2,
            defect_rate: 0.2,
            stream: SampleStream::V2,
            model: DefectModelSpec::new(DefectModelKind::Lines, 1.0, 0.5).expect("valid"),
            circuits: vec!["rd53".to_owned()],
        };
        let diffs = other.mismatch(&config).join(", ");
        for needle in [
            "samples 11 != 10",
            "seed 2 != 1",
            "defect_rate 0.2 != 0.1",
            "rng stream v2 != v1",
            "defect_model lines",
            "defect model",
            "circuits [\"rd53\"]",
        ] {
            assert!(diffs.contains(needle), "missing {needle}: {diffs}");
        }
    }

    #[test]
    fn config_validation_names_the_bad_circuit() {
        let mut config = McConfig::with_default_circuits(10, 1, 0.1);
        assert!(config.validate().is_ok());
        config.circuits.push("no-such-circuit".to_owned());
        let err = config.validate().expect_err("must fail");
        assert!(err.contains("no-such-circuit"), "{err}");
    }
}
