//! The sampling identity of a Monte Carlo campaign.
//!
//! Every rate the experiments report comes from one campaign: a sample
//! count, a seed and a defect rate (the paper's Table II uses 200 samples
//! at 10% defects), plus the versioned [`SampleStream`] and the spatial
//! [`DefectModelSpec`] the defect maps are drawn under. [`Campaign`] holds
//! exactly those five values. Yield configurations, sharded-campaign
//! configurations and experiment parameters each carry one `Campaign`
//! instead of their own copy of the fields, so a new identity field is
//! added in one place.

use crate::matrices::{DefectModelSpec, DefectSampler, SampleStream};

/// The sampling identity of one Monte Carlo campaign. Two campaigns that
/// compare equal draw the same defect map for every sample index.
///
/// The fields are public and unchecked; [`Campaign::validate`] holds the
/// range checks every boundary that builds one from untrusted text runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Campaign {
    /// Monte Carlo sample count (paper default: 200).
    pub samples: usize,
    /// Experiment seed (default: 2018).
    pub seed: u64,
    /// Per-crosspoint defect probability (paper default: 0.10).
    pub defect_rate: f64,
    /// Defect sampling stream (default: the frozen [`SampleStream::V1`]).
    pub stream: SampleStream,
    /// Spatial defect model (default: i.i.d. cells).
    pub model: DefectModelSpec,
}

impl Default for Campaign {
    /// The paper's Table II campaign: 200 samples, seed 2018, 10% i.i.d.
    /// stuck-open defects drawn from the V1 stream.
    fn default() -> Self {
        Self {
            samples: 200,
            seed: 2018,
            defect_rate: 0.10,
            stream: SampleStream::V1,
            model: DefectModelSpec::default(),
        }
    }
}

impl Campaign {
    /// The range checks of a campaign: at least one sample, and a defect
    /// rate that is a finite probability.
    ///
    /// # Errors
    ///
    /// Names the first field out of range.
    pub fn validate(&self) -> Result<(), String> {
        if self.samples == 0 {
            return Err("samples must be at least 1".to_owned());
        }
        if !(self.defect_rate.is_finite() && (0.0..=1.0).contains(&self.defect_rate)) {
            return Err(format!(
                "defect_rate must be finite in [0, 1], got {}",
                self.defect_rate
            ));
        }
        Ok(())
    }

    /// The defect sampler this campaign draws every map with.
    #[must_use]
    pub fn sampler(&self) -> DefectSampler {
        DefectSampler::with_model(self.stream, self.model)
    }

    /// How this campaign differs from `expected`: one `field found !=
    /// expected` entry per differing field, empty when both draw the same
    /// defect maps. The defect rate compares bit for bit.
    #[must_use]
    pub fn mismatch(&self, expected: &Campaign) -> Vec<String> {
        let Campaign {
            samples,
            seed,
            defect_rate,
            stream,
            model,
        } = *self;
        let mut diffs = Vec::new();
        if samples != expected.samples {
            diffs.push(format!("samples {samples} != {}", expected.samples));
        }
        if seed != expected.seed {
            diffs.push(format!("seed {seed} != {}", expected.seed));
        }
        if defect_rate.to_bits() != expected.defect_rate.to_bits() {
            diffs.push(format!(
                "defect_rate {defect_rate} != {}",
                expected.defect_rate
            ));
        }
        if stream != expected.stream {
            diffs.push(format!("rng stream {stream} != {}", expected.stream));
        }
        if model != expected.model {
            diffs.push(format!(
                "defect_model {model} != {} (sampled under another spatial defect model)",
                expected.model
            ));
        }
        diffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::DefectModelKind;

    #[test]
    fn validate_rejects_zero_samples_and_non_probability_rates() {
        assert!(Campaign::default().validate().is_ok());
        let zero = Campaign {
            samples: 0,
            ..Campaign::default()
        };
        assert!(zero.validate().unwrap_err().contains("samples"));
        for rate in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let bad = Campaign {
                defect_rate: rate,
                ..Campaign::default()
            };
            assert!(
                bad.validate().unwrap_err().contains("defect_rate"),
                "{rate}"
            );
        }
        for rate in [0.0, 1.0] {
            let edge = Campaign {
                defect_rate: rate,
                ..Campaign::default()
            };
            assert!(edge.validate().is_ok(), "{rate}");
        }
    }

    #[test]
    fn mismatch_names_every_differing_field() {
        let base = Campaign::default();
        assert!(base.mismatch(&base).is_empty());
        let other = Campaign {
            samples: 11,
            seed: 2,
            defect_rate: 0.2,
            stream: SampleStream::V2,
            model: DefectModelSpec::new(DefectModelKind::Lines, 1.0, 0.5).expect("valid"),
        };
        let diffs = other.mismatch(&base);
        assert_eq!(diffs.len(), 5, "{diffs:?}");
        let text = diffs.join(", ");
        for needle in [
            "samples 11 != 200",
            "seed 2 != 2018",
            "defect_rate 0.2 != 0.1",
            "rng stream v2 != v1",
            "defect_model lines",
        ] {
            assert!(text.contains(needle), "missing {needle}: {text}");
        }
    }

    #[test]
    fn sampler_carries_the_stream_and_model() {
        let model = DefectModelSpec::new(DefectModelKind::Clustered, 3.0, 0.02).expect("valid");
        let campaign = Campaign {
            stream: SampleStream::V2,
            model,
            ..Campaign::default()
        };
        assert_eq!(campaign.sampler().stream(), SampleStream::V2);
        assert_eq!(campaign.sampler().model(), model);
    }
}
