//! Exact-byte pins of the three campaign documents (shard partial,
//! `campaign.json`, merged stats) for a default campaign and for a
//! V2 campaign under the composite model with host attribution. Any
//! change to how these documents are written must keep these bytes.

use xbar_core::{Campaign, DefectModelKind, DefectModelSpec, SampleStream};
use xbar_exp::experiments::table2::CircuitAccum;
use xbar_exp::shard::coordinator::{render_campaign_manifest, render_stats_json, MergedResult};
use xbar_exp::shard::partial::ShardPartial;
use xbar_exp::shard::{McConfig, ShardSpec};

fn accums() -> Vec<(String, CircuitAccum)> {
    let mut rd53 = CircuitAccum::new();
    rd53.push(true, 1.25e-5, true, 3.5e-4);
    rd53.push(false, 2.5e-5, true, 1.0 / 3.0);
    rd53.push(true, 0.125, false, 7.7e-7);
    let mut misex1 = CircuitAccum::new();
    misex1.push(false, 0.5, true, 0.25);
    misex1.push(false, 0.75, true, 2.0);
    misex1.push(true, 1e-6, true, 123_456.789);
    vec![("rd53".to_owned(), rd53), ("misex1".to_owned(), misex1)]
}

fn default_config() -> McConfig {
    McConfig {
        campaign: Campaign {
            samples: 9,
            ..Campaign::default()
        },
        circuits: vec!["rd53".to_owned(), "misex1".to_owned()],
    }
}

fn modeled_config() -> McConfig {
    McConfig {
        campaign: Campaign {
            samples: 9,
            seed: u64::MAX - 41,
            defect_rate: 0.05,
            stream: SampleStream::V2,
            model: DefectModelSpec::new(DefectModelKind::Composite, 2.5, 0.125).expect("valid"),
        },
        circuits: vec!["rd53".to_owned(), "misex1".to_owned()],
    }
}

fn partial(config: McConfig) -> ShardPartial {
    ShardPartial {
        config,
        spec: ShardSpec {
            index: 1,
            num_shards: 3,
            start: 3,
            end: 6,
        },
        circuits: accums(),
    }
}

fn merged(config: McConfig) -> MergedResult {
    MergedResult {
        config,
        circuits: accums(),
    }
}

#[test]
fn default_campaign_documents_keep_their_bytes() {
    let config = default_config();
    assert_eq!(
        partial(config.clone()).to_json(),
        r#"{
  "schema": "xbar-mc-partial/1",
  "experiment": "table2",
  "seed": 2018,
  "defect_rate": 0.1,
  "samples": 9,
  "shard": {"index": 1, "num_shards": 3, "start": 3, "end": 6},
  "circuits": [
    {"name": "rd53", "samples": 3, "hba_successes": 2, "ea_successes": 2, "hba_time": {"count": 3, "mean": 0.04167916666666666, "m2": 0.010413541979166668}, "ea_time": {"count": 3, "mean": 0.11122803444444443, "m2": 0.07399620667258044}},
    {"name": "misex1", "samples": 3, "hba_successes": 1, "ea_successes": 3, "hba_time": {"count": 3, "mean": 0.416667, "m2": 0.29166583333400004}, "ea_time": {"count": 3, "mean": 41153.013, "m2": 10160867317.318516}}
  ],
  "complete": true
}
"#
    );
    assert_eq!(
        render_campaign_manifest(&config, 3, &[]),
        r#"{
  "schema": "xbar-mc-campaign/1",
  "seed": 2018,
  "defect_rate": 0.1,
  "samples": 9,
  "shards": 3,
  "rng_stream": "v1",
  "circuits": ["rd53", "misex1"]
}
"#
    );
    assert_eq!(
        render_stats_json(&merged(config)),
        r#"{
  "schema": "xbar-mc-merged/1",
  "experiment": "table2",
  "seed": 2018,
  "defect_rate": 0.1,
  "samples": 9,
  "circuits": [
    {"name": "rd53", "samples": 3, "hba_successes": 2, "hba_success_rate": 0.6666666666666666, "ea_successes": 2, "ea_success_rate": 0.6666666666666666},
    {"name": "misex1", "samples": 3, "hba_successes": 1, "hba_success_rate": 0.3333333333333333, "ea_successes": 3, "ea_success_rate": 1.0}
  ]
}
"#
    );
}

#[test]
fn modeled_campaign_documents_with_hosts_keep_their_bytes() {
    let config = modeled_config();
    let hosts = ["alpha*2".to_owned(), "beta".to_owned()];
    assert_eq!(
        partial(config.clone()).to_json(),
        r#"{
  "schema": "xbar-mc-partial/1",
  "experiment": "table2",
  "seed": 18446744073709551574,
  "defect_rate": 0.05,
  "samples": 9,
  "rng_stream": "v2",
  "defect_model": "composite",
  "cluster_size": 2.5,
  "line_rate": 0.125,
  "shard": {"index": 1, "num_shards": 3, "start": 3, "end": 6},
  "circuits": [
    {"name": "rd53", "samples": 3, "hba_successes": 2, "ea_successes": 2, "hba_time": {"count": 3, "mean": 0.04167916666666666, "m2": 0.010413541979166668}, "ea_time": {"count": 3, "mean": 0.11122803444444443, "m2": 0.07399620667258044}},
    {"name": "misex1", "samples": 3, "hba_successes": 1, "ea_successes": 3, "hba_time": {"count": 3, "mean": 0.416667, "m2": 0.29166583333400004}, "ea_time": {"count": 3, "mean": 41153.013, "m2": 10160867317.318516}}
  ],
  "complete": true
}
"#
    );
    assert_eq!(
        render_campaign_manifest(&config, 3, &hosts),
        r#"{
  "schema": "xbar-mc-campaign/1",
  "seed": 18446744073709551574,
  "defect_rate": 0.05,
  "samples": 9,
  "shards": 3,
  "rng_stream": "v2",
  "hosts": ["alpha*2", "beta"],
  "defect_model": "composite",
  "cluster_size": 2.5,
  "line_rate": 0.125,
  "circuits": ["rd53", "misex1"]
}
"#
    );
    assert_eq!(
        render_stats_json(&merged(config)),
        r#"{
  "schema": "xbar-mc-merged/1",
  "experiment": "table2",
  "seed": 18446744073709551574,
  "defect_rate": 0.05,
  "samples": 9,
  "rng_stream": "v2",
  "defect_model": "composite",
  "cluster_size": 2.5,
  "line_rate": 0.125,
  "circuits": [
    {"name": "rd53", "samples": 3, "hba_successes": 2, "hba_success_rate": 0.6666666666666666, "ea_successes": 2, "ea_success_rate": 0.6666666666666666},
    {"name": "misex1", "samples": 3, "hba_successes": 1, "hba_success_rate": 0.3333333333333333, "ea_successes": 3, "ea_success_rate": 1.0}
  ]
}
"#
    );
}
