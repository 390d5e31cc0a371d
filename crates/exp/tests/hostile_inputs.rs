//! Hostile-input property: every parser of untrusted text answers a
//! `Result`, never a panic. Each case takes a valid seed document (a PLA
//! file, a protocol line, an artifact, a `--hosts` spec, a shard partial)
//! and applies a few random byte edits — overwrite, insert, delete,
//! truncate, duplicate, or splice in a structural token — then feeds the
//! result to the parser. The proptest runner fails the test if any parse
//! panics. The `campaign.json` reader is private; a unit test in
//! `shard/coordinator.rs` gives it the same treatment.

use proptest::prelude::*;
use xbar_core::Campaign;
use xbar_exp::experiments::table2::CircuitAccum;
use xbar_exp::launch::parse_hosts;
use xbar_exp::service::Request;
use xbar_exp::shard::json::Json;
use xbar_exp::shard::partial::ShardPartial;
use xbar_exp::shard::{McConfig, ShardSpec};
use xbar_logic::Pla;

/// Tokens that reach deeper parser states than a random byte does.
const TOKENS: [&str; 16] = [
    "\"",
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "-",
    "*",
    "\n",
    "\\u",
    "null",
    "1e999",
    "-0",
    "18446744073709551616",
    ".i 9",
];

/// Applies the edits `ops` to `seed`. Each op packs its edit kind, byte
/// and position into one `u64`, so a case is a plain list of numbers.
/// Half the written bytes are digits or JSON punctuation, so edited
/// documents often stay well-formed and reach the checks past the syntax.
fn mutate(seed: &str, ops: &[u64]) -> String {
    const STRUCTURAL: &[u8] = b"0123456789-.e\"{}[],:";
    let mut bytes = seed.as_bytes().to_vec();
    for &op in ops {
        let raw = (op >> 8) as u8;
        let byte = if raw & 1 == 0 {
            STRUCTURAL[usize::from(raw >> 1) % STRUCTURAL.len()]
        } else {
            raw
        };
        let at = ((op >> 16) as usize) % (bytes.len() + 1);
        match op % 6 {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            4 => {
                let end = (at + usize::from(byte)).min(bytes.len());
                let chunk = bytes[at..end].to_vec();
                bytes.splice(at..at, chunk);
            }
            _ => {
                let token = TOKENS[usize::from(byte) % TOKENS.len()].bytes();
                bytes.splice(at..at, token);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

const PLA: &str = "# hostile-input seed\n.i 3\n.o 2\n.ilb a b c\n.ob f g\n.p 4\n\
                   11- 10\n-01 1-\n0-0 01\n-11 01\n.e\n";

const HOSTS: &str = "alpha*2, beta,gamma*16,local*3";

fn request_line() -> String {
    Request::Submit {
        experiment: "table2".to_owned(),
        args: vec!["--samples".to_owned(), "45".to_owned()],
        wait: true,
    }
    .render()
}

fn artifact() -> String {
    let doc = Json::obj([
        ("schema", Json::str("xbar-artifact/1")),
        ("seed", Json::u64(u64::MAX - 41)),
        ("rate", Json::f64(0.125)),
        (
            "rows",
            Json::arr([Json::obj([
                ("name", Json::str("rd53")),
                ("ok", Json::Bool(true)),
            ])]),
        ),
    ]);
    doc.render_document()
}

fn partial() -> String {
    let mut accum = CircuitAccum::new();
    for i in 0..3u32 {
        accum.push(i > 0, 1e-6 * f64::from(i), true, 2e-6);
    }
    ShardPartial {
        config: McConfig {
            campaign: Campaign {
                samples: 7,
                ..Campaign::default()
            },
            circuits: vec!["rd53".to_owned()],
        },
        spec: ShardSpec::partition(7, 2)[0],
        circuits: vec![("rd53".to_owned(), accum)],
    }
    .to_json()
}

#[test]
fn every_seed_document_parses() {
    assert!(Pla::parse(PLA).is_ok());
    assert!(Request::parse(&request_line()).is_ok());
    assert!(Json::parse(&artifact()).is_ok());
    assert!(parse_hosts(HOSTS).is_ok());
    assert!(ShardPartial::from_json(&partial()).is_ok());
}

/// A well-formed partial whose campaign is out of range (no samples, or a
/// defect rate that is not a probability) gets a typed error.
#[test]
fn out_of_range_campaigns_are_rejected_on_read() {
    for (samples, defect_rate) in [(0, 0.1), (7, 1.5)] {
        let mut partial = ShardPartial::from_json(&partial()).expect("seed parses");
        partial.config.campaign.samples = samples;
        partial.config.campaign.defect_rate = defect_rate;
        partial.spec = ShardSpec::partition(samples, 1)[0];
        let err = ShardPartial::from_json(&partial.to_json()).expect_err("must fail");
        assert!(err.starts_with("partial "), "{err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn pla_parse_never_panics(ops in prop::collection::vec(0u64..u64::MAX, 1..6)) {
        let _ = Pla::parse(&mutate(PLA, &ops));
    }

    #[test]
    fn request_parse_never_panics(ops in prop::collection::vec(0u64..u64::MAX, 1..6)) {
        let _ = Request::parse(&mutate(&request_line(), &ops));
    }

    #[test]
    fn json_parse_never_panics(ops in prop::collection::vec(0u64..u64::MAX, 1..6)) {
        let _ = Json::parse(&mutate(&artifact(), &ops));
    }

    #[test]
    fn parse_hosts_never_panics(ops in prop::collection::vec(0u64..u64::MAX, 1..6)) {
        let _ = parse_hosts(&mutate(HOSTS, &ops));
    }

    #[test]
    fn shard_partial_from_json_never_panics(
        ops in prop::collection::vec(0u64..u64::MAX, 1..6),
    ) {
        let _ = ShardPartial::from_json(&mutate(&partial(), &ops));
    }
}
