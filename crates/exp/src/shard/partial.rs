//! Self-describing partial-result files: what an `xbar mc shard` worker
//! writes and the campaign runner merges.
//!
//! The document embeds the full experiment configuration and the shard's
//! slice, so a partial is verifiable on its own — the coordinator rejects
//! any partial whose configuration does not match the campaign before
//! merging. All accumulator fields round-trip **bit-exactly**: integers
//! are written as decimal `u64`s and floating-point state with Rust's
//! shortest-round-trip representation (the parser keeps number tokens as
//! raw text precisely so this holds; see [`super::json`]).

use super::json::Json;
use super::{McConfig, ShardSpec};
use crate::experiments::table2::CircuitAccum;
use xbar_core::stats::{Moments, SuccessCount};

/// Schema tag written into (and required from) every partial file.
pub const PARTIAL_SCHEMA: &str = "xbar-mc-partial/1";

/// The result of one shard: configuration echo, slice, and one accumulator
/// per circuit (in configuration order).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPartial {
    /// The campaign configuration this shard ran under.
    pub config: McConfig,
    /// The slice this shard owns.
    pub spec: ShardSpec,
    /// `(circuit name, accumulator)` in `config.circuits` order.
    pub circuits: Vec<(String, CircuitAccum)>,
}

fn moments_json(m: &Moments) -> Json {
    Json::obj([
        ("count", Json::u64(m.count)),
        ("mean", Json::f64(m.mean)),
        ("m2", Json::f64(m.m2)),
    ])
}

/// Reads the moments object at `circuit[key]`.
fn parse_moments(circuit: &Json, key: &str, context: &str) -> Result<Moments, String> {
    let moments = circuit
        .get(key)
        .ok_or_else(|| format!("{context}: missing `{key}`"))?;
    let field = |name: &str| {
        moments
            .get(name)
            .ok_or_else(|| format!("{context}: missing `{name}`"))
    };
    let not_a = |name: &str, kind: &str| format!("{context}: `{name}` is not a {kind}");
    Ok(Moments {
        count: field("count")?
            .as_u64()
            .ok_or_else(|| not_a("count", "u64"))?,
        mean: field("mean")?
            .as_f64()
            .ok_or_else(|| not_a("mean", "number"))?,
        m2: field("m2")?.as_f64().ok_or_else(|| not_a("m2", "number"))?,
    })
}

impl ShardPartial {
    /// Checks this partial's embedded configuration echo against a
    /// campaign — the shared gate the coordinator applies before a
    /// partial may contribute to a merge.
    ///
    /// # Errors
    ///
    /// Names every disagreeing identity field (`McConfig::mismatch`).
    pub fn validate_config_echo(&self, config: &McConfig) -> Result<(), String> {
        let diffs = self.config.mismatch(config);
        if !diffs.is_empty() {
            return Err(format!(
                "{} (a shard of another campaign cannot merge into this one)",
                diffs.join(", ")
            ));
        }
        if self.circuits.len() != config.circuits.len() {
            return Err(format!(
                "{} circuit entries, campaign has {}",
                self.circuits.len(),
                config.circuits.len()
            ));
        }
        Ok(())
    }

    /// Full per-file validation: the configuration echo, the exact slice
    /// the coordinator expected this file to hold, and per-circuit folded
    /// sample counts. Applied both to a worker's fresh output and to
    /// checkpoint files found by `--resume` — a stale, foreign, or torn
    /// partial can never be merged.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch.
    pub fn validate_for(&self, config: &McConfig, spec: &ShardSpec) -> Result<(), String> {
        if self.spec != *spec {
            return Err(format!(
                "partial describes shard {:?}, expected {:?}",
                self.spec, spec
            ));
        }
        self.validate_config_echo(config)?;
        let expected: u64 = spec.len() as u64;
        for ((name, accum), campaign_name) in self.circuits.iter().zip(&config.circuits) {
            if name != campaign_name {
                return Err(format!(
                    "circuit entry {name:?} out of order (expected {campaign_name:?})"
                ));
            }
            if accum.samples() != expected {
                return Err(format!(
                    "circuit {name:?} folded {} samples, range holds {expected}",
                    accum.samples()
                ));
            }
        }
        Ok(())
    }

    /// Renders the partial as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("schema", Json::str(PARTIAL_SCHEMA)),
            ("experiment", Json::str("table2")),
        ];
        fields.extend(self.config.identity_fields(None));
        let spec = &self.spec;
        fields.push((
            "shard",
            Json::obj([
                ("index", Json::usize(spec.index)),
                ("num_shards", Json::usize(spec.num_shards)),
                ("start", Json::usize(spec.start)),
                ("end", Json::usize(spec.end)),
            ]),
        ));
        let circuits = self.circuits.iter().map(|(name, accum)| {
            Json::obj([
                ("name", Json::str(name)),
                ("samples", Json::u64(accum.samples())),
                ("hba_successes", Json::u64(accum.hba.successes)),
                ("ea_successes", Json::u64(accum.ea.successes)),
                ("hba_time", moments_json(&accum.hba_time)),
                ("ea_time", moments_json(&accum.ea_time)),
            ])
        });
        fields.push(("circuits", Json::arr(circuits)));
        // Written last: a truncated document cannot carry it, and the
        // parser requires it, so torn streams are always detected.
        fields.push(("complete", Json::Bool(true)));
        Json::obj(fields).render_document()
    }

    /// Parses and validates a partial-result document.
    ///
    /// # Errors
    ///
    /// Reports malformed JSON, a wrong schema tag, a missing `complete`
    /// marker (torn write), or missing/mistyped fields.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("malformed partial: {e}"))?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("partial missing `schema`")?;
        if schema != PARTIAL_SCHEMA {
            return Err(format!(
                "schema mismatch: got {schema:?}, expected {PARTIAL_SCHEMA:?}"
            ));
        }
        if doc.get("complete").and_then(Json::as_bool) != Some(true) {
            return Err("partial not marked complete (torn write?)".to_owned());
        }
        let shard = doc.get("shard").ok_or("partial missing `shard`")?;
        let shard_field = |key: &str| {
            shard
                .get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("shard missing usize `{key}`"))
        };
        let spec = ShardSpec {
            index: shard_field("index")?,
            num_shards: shard_field("num_shards")?,
            start: shard_field("start")?,
            end: shard_field("end")?,
        };
        if spec.start > spec.end {
            return Err(format!(
                "shard range inverted: start {} > end {}",
                spec.start, spec.end
            ));
        }
        if spec.index >= spec.num_shards {
            return Err(format!(
                "shard index {} out of range for num_shards {}",
                spec.index, spec.num_shards
            ));
        }
        let circuit_values = doc
            .get("circuits")
            .and_then(Json::as_arr)
            .ok_or("partial missing `circuits` array")?;
        let mut circuits = Vec::with_capacity(circuit_values.len());
        for value in circuit_values {
            let name = value
                .get("name")
                .and_then(Json::as_str)
                .ok_or("circuit missing `name`")?
                .to_owned();
            let context = format!("circuit {name:?}");
            let count = |key: &str| {
                value
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{context}: missing u64 `{key}`"))
            };
            let samples = count("samples")?;
            let accum = CircuitAccum {
                hba: SuccessCount {
                    samples,
                    successes: count("hba_successes")?,
                },
                ea: SuccessCount {
                    samples,
                    successes: count("ea_successes")?,
                },
                hba_time: parse_moments(value, "hba_time", &context)?,
                ea_time: parse_moments(value, "ea_time", &context)?,
            };
            circuits.push((name, accum));
        }
        let names = circuits.iter().map(|(name, _)| name.clone()).collect();
        Ok(ShardPartial {
            config: McConfig::from_identity(&doc, "partial", names)?,
            spec,
            circuits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_core::{DefectModelKind, DefectModelSpec, SampleStream};

    fn sample_partial() -> ShardPartial {
        let mut accum = CircuitAccum::new();
        accum.push(true, 1.25e-5, true, 3.5e-4);
        accum.push(false, 2.5e-5, true, 1.0 / 3.0);
        accum.push(false, 0.125, false, 7.7e-7);
        let mut other = CircuitAccum::new();
        other.push(true, 0.5, true, 0.25);
        ShardPartial {
            config: McConfig {
                circuits: vec!["rd53".to_owned(), "misex1".to_owned()],
                // A seed above 2^53 must survive the file.
                ..McConfig::with_default_circuits(100, u64::MAX - 41, 0.1)
            },
            spec: ShardSpec {
                index: 1,
                num_shards: 3,
                start: 34,
                end: 67,
            },
            circuits: vec![("rd53".to_owned(), accum), ("misex1".to_owned(), other)],
        }
    }

    #[test]
    fn roundtrips_every_field_bitwise() {
        let partial = sample_partial();
        let json = partial.to_json();
        let back = ShardPartial::from_json(&json).expect("parses");
        assert_eq!(back, partial);
        // f64 state must be bit-identical, not just PartialEq-equal.
        let (_, a) = &partial.circuits[0];
        let (_, b) = &back.circuits[0];
        assert_eq!(a.hba_time.mean.to_bits(), b.hba_time.mean.to_bits());
        assert_eq!(a.hba_time.m2.to_bits(), b.hba_time.m2.to_bits());
        assert_eq!(a.ea_time.mean.to_bits(), b.ea_time.mean.to_bits());
        assert_eq!(a.ea_time.m2.to_bits(), b.ea_time.m2.to_bits());
        // Writing again produces the identical document.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn v1_partials_never_mention_the_stream_and_v2_partials_roundtrip() {
        // V1 files must keep their pre-versioning bytes (the sharded
        // byte-identity guarantee reaches into the partial format), while
        // V2 files must declare their stream and round-trip it.
        let v1 = sample_partial();
        assert!(!v1.to_json().contains("rng_stream"));

        let mut v2 = sample_partial();
        v2.config.campaign.stream = SampleStream::V2;
        let json = v2.to_json();
        assert!(json.contains("\"rng_stream\": \"v2\""), "{json}");
        let back = ShardPartial::from_json(&json).expect("parses");
        assert_eq!(back, v2);
        assert_eq!(back.config.stream, SampleStream::V2);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn default_model_partials_never_mention_the_model_and_others_roundtrip() {
        // The byte-freeze rule extends to spatial models: default (i.i.d.)
        // partials carry no model keys at all, each non-default kind
        // declares itself plus exactly the parameters it consumes.
        let iid = sample_partial();
        let json = iid.to_json();
        for key in ["defect_model", "cluster_size", "line_rate"] {
            assert!(!json.contains(key), "{key} leaked into a default partial");
        }

        let mut clustered = sample_partial();
        clustered.config.campaign.model =
            DefectModelSpec::new(DefectModelKind::Clustered, 6.5, 0.5).expect("valid");
        let json = clustered.to_json();
        assert!(json.contains("\"defect_model\": \"clustered\""), "{json}");
        assert!(json.contains("\"cluster_size\": 6.5"), "{json}");
        assert!(!json.contains("line_rate"), "clustered ignores line_rate");
        let back = ShardPartial::from_json(&json).expect("parses");
        assert_eq!(back, clustered);
        assert_eq!(back.to_json(), json);

        let mut composite = sample_partial();
        composite.config.campaign.model =
            DefectModelSpec::new(DefectModelKind::Composite, 2.0, 0.125).expect("valid");
        let json = composite.to_json();
        assert!(json.contains("\"cluster_size\": 2.0"), "{json}");
        assert!(json.contains("\"line_rate\": 0.125"), "{json}");
        let back = ShardPartial::from_json(&json).expect("parses");
        assert_eq!(back, composite);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn unknown_defect_model_is_rejected() {
        let mut lines = sample_partial();
        lines.config.campaign.model =
            DefectModelSpec::new(DefectModelKind::Lines, 1.0, 0.25).expect("valid");
        let json = lines.to_json().replace("\"lines\"", "\"blobs\"");
        let err = ShardPartial::from_json(&json).expect_err("must fail");
        assert!(err.contains("blobs"), "{err}");
    }

    #[test]
    fn model_mismatch_is_rejected_by_the_config_echo() {
        let partial = sample_partial();
        let mut other = partial.config.clone();
        other.campaign.model =
            DefectModelSpec::new(DefectModelKind::Lines, 1.0, 0.02).expect("valid");
        let err = partial.validate_config_echo(&other).expect_err("must fail");
        assert!(err.contains("defect model"), "{err}");
    }

    #[test]
    fn unknown_rng_stream_is_rejected() {
        let mut v2 = sample_partial();
        v2.config.campaign.stream = SampleStream::V2;
        let json = v2.to_json().replace("\"v2\"", "\"v9\"");
        let err = ShardPartial::from_json(&json).expect_err("must fail");
        assert!(err.contains("v9"), "{err}");
    }

    #[test]
    fn zero_sample_shard_roundtrips_nan_free() {
        let partial = ShardPartial {
            config: McConfig {
                circuits: vec!["rd53".to_owned()],
                ..McConfig::with_default_circuits(2, 7, 0.1)
            },
            spec: ShardSpec {
                index: 4,
                num_shards: 5,
                start: 2,
                end: 2,
            },
            circuits: vec![("rd53".to_owned(), CircuitAccum::new())],
        };
        let back = ShardPartial::from_json(&partial.to_json()).expect("parses");
        assert_eq!(back, partial);
        let (_, accum) = &back.circuits[0];
        assert_eq!(accum.hba.rate(), 0.0);
        assert_eq!(accum.hba_time.mean(), 0.0);
        assert_eq!(accum.hba_time.variance(), 0.0);
    }

    #[test]
    fn all_failure_shard_roundtrips() {
        let mut accum = CircuitAccum::new();
        for _ in 0..5 {
            accum.push(false, 1e-6, false, 2e-6);
        }
        let mut partial = sample_partial();
        partial.circuits = vec![("rd53".to_owned(), accum)];
        partial.config.circuits = vec!["rd53".to_owned()];
        let back = ShardPartial::from_json(&partial.to_json()).expect("parses");
        assert_eq!(back, partial);
        assert_eq!(back.circuits[0].1.hba.successes, 0);
        assert_eq!(back.circuits[0].1.hba.rate(), 0.0);
    }

    #[test]
    fn validate_for_accepts_the_matching_slice_and_rejects_everything_else() {
        // A real shard: 33 samples folded into each circuit accumulator.
        let config = McConfig {
            circuits: vec!["rd53".to_owned()],
            ..McConfig::with_default_circuits(100, 9, 0.1)
        };
        let spec = ShardSpec {
            index: 1,
            num_shards: 3,
            start: 34,
            end: 67,
        };
        let mut accum = CircuitAccum::new();
        for _ in 0..33 {
            accum.push(true, 1e-6, false, 2e-6);
        }
        let partial = ShardPartial {
            config: config.clone(),
            spec,
            circuits: vec![("rd53".to_owned(), accum)],
        };
        partial.validate_for(&config, &spec).expect("valid");

        let other_spec = ShardSpec { index: 0, ..spec };
        let err = partial
            .validate_for(&config, &other_spec)
            .expect_err("spec");
        assert!(err.contains("expected"), "{err}");

        let mut other_config = config.clone();
        other_config.campaign.seed = 10;
        let err = partial
            .validate_for(&other_config, &spec)
            .expect_err("seed");
        assert!(err.contains("seed"), "{err}");

        let mut other_config = config.clone();
        other_config.campaign.stream = SampleStream::V2;
        let err = partial
            .validate_for(&other_config, &spec)
            .expect_err("stream");
        assert!(err.contains("rng stream"), "{err}");

        let mut short = partial.clone();
        short.circuits[0].1 = CircuitAccum::new();
        let err = short.validate_for(&config, &spec).expect_err("samples");
        assert!(err.contains("folded"), "{err}");
    }

    #[test]
    fn truncated_file_is_rejected() {
        let json = sample_partial().to_json();
        for cut in [10, json.len() / 2, json.len() - 3] {
            let truncated = &json[..cut];
            assert!(
                ShardPartial::from_json(truncated).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn inconsistent_shard_ranges_are_rejected() {
        let inverted = sample_partial()
            .to_json()
            .replace("\"start\": 34, \"end\": 67", "\"start\": 67, \"end\": 34");
        let err = ShardPartial::from_json(&inverted).expect_err("must fail");
        assert!(err.contains("inverted"), "{err}");

        let bad_index = sample_partial().to_json().replace(
            "\"index\": 1, \"num_shards\": 3",
            "\"index\": 3, \"num_shards\": 3",
        );
        let err = ShardPartial::from_json(&bad_index).expect_err("must fail");
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let json = sample_partial()
            .to_json()
            .replace(PARTIAL_SCHEMA, "other/9");
        let err = ShardPartial::from_json(&json).expect_err("must fail");
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn incomplete_marker_is_rejected() {
        let json = sample_partial()
            .to_json()
            .replace("\"complete\": true", "\"complete\": false");
        let err = ShardPartial::from_json(&json).expect_err("must fail");
        assert!(err.contains("complete"), "{err}");
    }
}
