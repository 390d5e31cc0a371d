//! Round-trip property over every kind of JSON document the program
//! writes: `xbar-artifact/1`, an `xbar-svc/1` protocol line, a shard
//! partial, a `campaign.json` manifest and merged stats. Each one, parsed
//! with `Json::parse` and re-rendered in its own layout, must give back
//! exactly the bytes it was written as — which holds only because `Json`
//! keeps numbers as raw text and object fields in insertion order. A
//! second property round-trips a campaign through the argv it is
//! dispatched to a worker with.

use proptest::prelude::*;
use xbar_core::{Campaign, DefectModelKind, DefectModelSpec, SampleStream};
use xbar_exp::experiment::{find_experiment, Params, Reporter};
use xbar_exp::experiments::table2::{table2_circuit_names, CircuitAccum};
use xbar_exp::service::protocol::response;
use xbar_exp::service::Request;
use xbar_exp::shard::coordinator::{render_campaign_manifest, render_stats_json, MergedResult};
use xbar_exp::shard::json::Json;
use xbar_exp::shard::partial::ShardPartial;
use xbar_exp::shard::{McConfig, ShardSpec};

/// Small circuits: an artifact case runs the real experiment.
const QUICK_CIRCUITS: [&str; 4] = ["rd53", "squar5", "misex1", "bw"];

/// The circuits whose bit is set in `mask` (never empty).
fn subset(names: &[String], mask: u32) -> Vec<String> {
    let picked: Vec<String> = names
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, name)| name.clone())
        .collect();
    if picked.is_empty() {
        vec![names[0].clone()]
    } else {
        picked
    }
}

fn model(kind: usize, cluster: f64, lines: f64) -> DefectModelSpec {
    let kind = [
        DefectModelKind::Iid,
        DefectModelKind::Clustered,
        DefectModelKind::Lines,
        DefectModelKind::Composite,
    ][kind];
    DefectModelSpec::new(kind, cluster, lines).expect("valid model")
}

fn assert_roundtrips(text: &str, render: impl Fn(&Json) -> String) {
    let doc = Json::parse(text).expect("written documents parse");
    assert_eq!(render(&doc), text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn written_documents_reparse_to_their_own_bytes(
        seed in 0u64..u64::MAX,
        v2 in prop::bool::ANY,
        kind in 0usize..4,
        cluster in 1.0f64..8.0,
        lines in 0.0f64..1.0,
        table2_mask in 0u32..1 << 16,
        quick_mask in 0u32..16,
        host_slots in prop::collection::vec(1usize..4, 0..4),
        shards in 1usize..6,
        successes in prop::collection::vec(0u64..5, 16),
    ) {
        let stream = if v2 { SampleStream::V2 } else { SampleStream::V1 };
        let config = McConfig {
            campaign: Campaign {
                samples: 4,
                seed,
                stream,
                model: model(kind, cluster, lines),
                ..Campaign::default()
            },
            circuits: subset(&table2_circuit_names(), table2_mask),
        };
        let accums: Vec<(String, CircuitAccum)> = config
            .circuits
            .iter()
            .zip(&successes)
            .map(|(name, &ok)| {
                let mut accum = CircuitAccum::new();
                for i in 0..4u64 {
                    accum.push(i < ok, 1e-6 * (i + 1) as f64, i + 1 < ok, seed as f64 / 3.0);
                }
                (name.clone(), accum)
            })
            .collect();
        let partial = ShardPartial {
            config: config.clone(),
            spec: ShardSpec::partition(4, shards)[0],
            circuits: accums.clone(),
        };
        assert_roundtrips(&partial.to_json(), Json::render_document);
        let merged = MergedResult { config: config.clone(), circuits: accums };
        assert_roundtrips(&render_stats_json(&merged), Json::render_document);
        let hosts: Vec<String> = host_slots
            .iter()
            .enumerate()
            .map(|(i, slots)| format!("host{i}*{slots}"))
            .collect();
        assert_roundtrips(
            &render_campaign_manifest(&config, shards, &hosts),
            Json::render_document,
        );

        // A real artifact over a small circuit subset, and the
        // protocol lines that carry it.
        let quick: Vec<String> = QUICK_CIRCUITS.iter().map(|c| (*c).to_owned()).collect();
        let config = McConfig { circuits: subset(&quick, quick_mask), ..config };
        let exp = find_experiment("table2").expect("registered");
        let mut small = config.clone();
        small.campaign.samples = 2;
        let argv = small.to_argv();
        let params = Params::parse(exp.extra_params(), argv.clone()).expect("params");
        let artifact = exp
            .run(&params, &mut Reporter::quiet())
            .expect("runs")
            .render(exp, &params);
        assert_roundtrips(&artifact, |doc| format!("{}\n", doc.render()));
        let submit = Request::Submit {
            experiment: "table2".to_owned(),
            args: argv,
            wait: v2,
        };
        assert_roundtrips(&submit.render(), Json::render_compact);
        let result = response(
            "result",
            vec![
                ("job", Json::u64(seed)),
                ("hosts", Json::arr(hosts.iter().map(Json::str))),
                ("artifact", Json::str(artifact)),
            ],
        );
        assert_roundtrips(&result, Json::render_compact);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every campaign the runner dispatches, written as its worker argv
    /// (`McConfig::to_argv`), parses back through the worker's own
    /// `table2` parse to exactly that campaign: the worker's stricter
    /// checks accept everything the runner sends.
    #[test]
    fn campaign_argv_parses_back_to_the_same_campaign(
        samples in 1usize..1_000_000,
        seed in 0u64..u64::MAX,
        v2 in prop::bool::ANY,
        kind in 0usize..4,
        defect_rate in 0.0f64..1.0,
        cluster in 1.0f64..8.0,
        lines in 0.0f64..1.0,
        mask in 0u32..1 << 16,
        reversed in prop::bool::ANY,
    ) {
        let mut circuits = subset(&table2_circuit_names(), mask);
        if reversed {
            circuits.reverse();
        }
        let config = McConfig {
            campaign: Campaign {
                samples,
                seed,
                defect_rate,
                stream: if v2 { SampleStream::V2 } else { SampleStream::V1 },
                model: model(kind, cluster, lines),
            },
            circuits,
        };
        let exp = find_experiment("table2").expect("registered");
        let params = Params::parse(exp.extra_params(), config.to_argv())
            .expect("the worker accepts every dispatched campaign");
        prop_assert_eq!(McConfig::from_params(&params).expect("resolves"), config);
    }
}
