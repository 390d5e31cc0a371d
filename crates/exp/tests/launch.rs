//! Process-level and property tests of the multi-host launcher: remote
//! dispatch over `Transport` implementations with injected faults
//! (torn streams, host death, stalls), host-health quarantine, hedged
//! straggler re-dispatch, and the flat merge of the winners — all pinned
//! to one invariant: the merged stats artifact is byte-identical to the
//! monolithic in-process run, whatever the fleet did.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Duration;

use proptest::prelude::*;
use xbar_core::Campaign;
use xbar_exp::experiments::table2::CircuitAccum;
use xbar_exp::launch::{
    parse_hosts, run_launch_with_report, Exec, FaultPlan, Faulty, LaunchConfig, LaunchReport,
    LocalProc,
};
use xbar_exp::sample_seed;
use xbar_exp::shard::coordinator::{
    merge_partials, render_stats_json, run_monolithic, MergedResult, Worker,
};
use xbar_exp::shard::partial::ShardPartial;
use xbar_exp::shard::{McConfig, ShardSpec};

fn campaign() -> McConfig {
    McConfig {
        campaign: Campaign {
            samples: 30,
            ..Campaign::default()
        },
        circuits: vec!["rd53".to_owned()],
    }
}

/// A unique scratch directory per test (no tempfile crate in the
/// workspace); the launcher cleans its run directory up on success.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xbar-launch-test-{}-{tag}", std::process::id()))
}

/// A launch over the loopback fleet with test-friendly settings: the
/// `xbar` worker binary, a scratch work dir, tiny retry backoff, and
/// a probation long enough that a quarantined host never returns within
/// the test.
fn launch(tag: &str, hosts: &str) -> LaunchConfig {
    LaunchConfig {
        config: campaign(),
        shards: 3,
        max_attempts: 3,
        worker: Worker::xbar(PathBuf::from(env!("CARGO_BIN_EXE_xbar"))),
        work_dir: scratch(tag),
        extra_worker_args: Vec::new(),
        keep_partials: false,
        shard_timeout: None,
        hedge_after: None,
        resume: false,
        retry_base: Duration::from_millis(5),
        hosts: parse_hosts(hosts).expect("host spec"),
        quarantine_after: 3,
        probation: Duration::from_secs(3600),
    }
}

fn monolithic() -> String {
    render_stats_json(&run_monolithic(&campaign()))
}

fn faults(specs: &[&str]) -> Faulty<LocalProc> {
    Faulty::new(
        LocalProc,
        specs
            .iter()
            .map(|s| FaultPlan::parse(s).expect("fault spec"))
            .collect(),
    )
}

fn host<'r>(report: &'r LaunchReport, name: &str) -> &'r xbar_exp::launch::HostCount {
    report
        .hosts
        .iter()
        .find(|h| h.name == name)
        .unwrap_or_else(|| panic!("host {name} missing from report: {:?}", report.hosts))
}

#[test]
fn loopback_fleet_is_byte_identical_to_monolithic_with_host_attribution() {
    let cfg = launch("loopback", "alpha*2,beta*2");
    let (merged, report) = run_launch_with_report(&cfg, &LocalProc).expect("launch");
    assert_eq!(
        render_stats_json(&merged),
        monolithic(),
        "a 2-host loopback launch must reproduce the monolithic artifact"
    );
    assert_eq!(report.base.spawned, 3, "one flight per shard, no retries");
    assert_eq!(report.base.retries, 0);
    assert_eq!(report.hedges, 0);
    assert_eq!(report.discards, 0);
    let dispatched: usize = report.hosts.iter().map(|h| h.dispatched).sum();
    let completed: usize = report.hosts.iter().map(|h| h.completed).sum();
    assert_eq!(dispatched, 3, "every dispatch is attributed to a host");
    assert_eq!(completed, 3);
    assert_eq!(
        report.hosts[0].name, "alpha",
        "counters stay in fleet order"
    );
    assert_eq!(report.hosts[1].name, "beta");
}

#[test]
fn exec_template_transport_matches_monolithic() {
    // `{worker:sh}` through a real shell is the ssh-shaped path minus the
    // network: quoting, exec-replacement, and stdout streaming all real.
    let cfg = launch("exec", "alpha,beta");
    let transport = Exec::new(vec![
        "/bin/sh".to_owned(),
        "-c".to_owned(),
        "{worker:sh}".to_owned(),
    ])
    .expect("template");
    let (merged, _) = run_launch_with_report(&cfg, &transport).expect("launch");
    assert_eq!(render_stats_json(&merged), monolithic());
}

#[test]
fn torn_stream_is_rejected_and_retried_to_identical_bytes() {
    let cfg = launch("torn", "alpha,beta");
    let transport = faults(&["alpha=truncate@0"]);
    let (merged, report) = run_launch_with_report(&cfg, &transport).expect("launch");
    assert_eq!(
        render_stats_json(&merged),
        monolithic(),
        "a truncated partial must never reach the merge"
    );
    assert!(
        report.base.retries >= 1,
        "the torn transfer costs a retry: {:?}",
        report.base
    );
}

#[test]
fn host_death_mid_campaign_fails_over_to_the_survivor() {
    let cfg = launch("death", "alpha*3,beta");
    let transport = faults(&["beta=die@0"]);
    let (merged, report) = run_launch_with_report(&cfg, &transport).expect("launch");
    assert_eq!(
        render_stats_json(&merged),
        monolithic(),
        "losing a host must not change the merged bytes"
    );
    let beta = host(&report, "beta");
    assert!(beta.failed >= 1, "the dead host is blamed: {beta:?}");
    assert_eq!(beta.completed, 0, "a dead host completes nothing");
    assert_eq!(
        host(&report, "alpha").completed,
        3,
        "the survivor carries the campaign"
    );
}

#[test]
fn quarantined_host_receives_no_further_shards() {
    let mut cfg = launch("quarantine", "good,bad");
    cfg.quarantine_after = 2;
    cfg.max_attempts = 5;
    let transport = faults(&["bad=die@0"]);
    let (merged, report) = run_launch_with_report(&cfg, &transport).expect("launch");
    assert_eq!(render_stats_json(&merged), monolithic());
    let bad = host(&report, "bad");
    assert_eq!(
        bad.dispatched, 2,
        "exactly `quarantine_after` strikes, then nothing: {bad:?}"
    );
    assert_eq!(bad.failed, 2);
    assert_eq!(bad.quarantines, 1, "one quarantine event");
    assert_eq!(bad.completed, 0);
    assert_eq!(
        host(&report, "good").completed,
        3,
        "every shard lands on the healthy host"
    );
}

#[test]
fn hedged_straggler_wins_on_the_other_host_and_the_loser_is_discarded() {
    let mut cfg = launch("hedge", "alpha,beta");
    // The stalled flight's worker really runs and competes for the CPU,
    // so beta may need more than a few tens of milliseconds per shard.
    // The hedge must wait until beta has drained the queue: a hedge that
    // wins earlier frees alpha, which then legitimately completes the
    // last queued shard.
    cfg.hedge_after = Some(Duration::from_secs(1));
    let transport = faults(&["alpha=stall@0"]);
    let (merged, report) = run_launch_with_report(&cfg, &transport).expect("launch");
    assert_eq!(
        render_stats_json(&merged),
        monolithic(),
        "the hedge winner's partial must merge to identical bytes"
    );
    assert!(report.hedges >= 1, "the stall forces a hedge: {report:?}");
    assert!(
        report.discards >= 1,
        "the stalled loser is cancelled and discarded: {report:?}"
    );
    assert_eq!(
        host(&report, "alpha").completed,
        0,
        "the stalled host never finishes its flight"
    );
}

#[test]
fn host_spec_grammar_parses_slots_and_rejects_degenerate_fleets() {
    let fleet = parse_hosts("alpha*2,beta").expect("valid spec");
    assert_eq!(fleet.len(), 2);
    assert_eq!((fleet[0].name.as_str(), fleet[0].slots), ("alpha", 2));
    assert_eq!((fleet[1].name.as_str(), fleet[1].slots), ("beta", 1));
    assert_eq!(fleet[0].render(), "alpha*2");
    for bad in ["", "alpha*0", "alpha*many", "*2", "alpha,alpha"] {
        assert!(parse_hosts(bad).is_err(), "{bad:?} must be rejected");
    }
}

// ---------------------------------------------------------------------
// Properties: the flat merge and torn-transfer detection.
// ---------------------------------------------------------------------

/// Deterministic synthetic observation for global sample `i` (a pure
/// function of the per-sample seed) so the merge properties can afford
/// many cases without running the mapper.
fn observe(experiment_seed: u64, i: usize) -> (bool, f64, bool, f64) {
    let s = sample_seed(experiment_seed, i);
    let hba_ok = s % 3 != 0;
    let ea_ok = s % 5 != 0;
    let hba_secs = ((s >> 11) as f64 + 1.0) / 9.007_199_254_740_992e15;
    let ea_secs = ((s >> 23) as f64 + 1.0) / 9.007_199_254_740_992e15;
    (hba_ok, hba_secs, ea_ok, ea_secs)
}

fn fold(experiment_seed: u64, range: std::ops::Range<usize>) -> CircuitAccum {
    let mut accum = CircuitAccum::new();
    for i in range {
        let (hba_ok, hba_secs, ea_ok, ea_secs) = observe(experiment_seed, i);
        accum.push(hba_ok, hba_secs, ea_ok, ea_secs);
    }
    accum
}

fn synthetic_partials(samples: usize, shards: usize, seed: u64) -> (McConfig, Vec<ShardPartial>) {
    let mut config = campaign();
    config.campaign.samples = samples;
    config.campaign.seed = seed;
    let partials = ShardSpec::partition(samples, shards)
        .into_iter()
        .map(|spec| ShardPartial {
            config: config.clone(),
            spec,
            circuits: vec![("rd53".to_owned(), fold(seed, spec.range()))],
        })
        .collect();
    (config, partials)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The runner merges its winners in whatever order they landed, so
    /// the flat merge must give the same stats bytes for any permutation
    /// of its input — and a partial duplicated anywhere in the input (a
    /// hedge loser's copy) must be rejected, since two partials for one
    /// slice cannot tile the campaign range.
    #[test]
    fn flat_merge_is_order_free_and_rejects_any_duplicate(
        samples in 12usize..120,
        shards in 1usize..12,
        seed in 0u64..u64::MAX,
        keys in prop::collection::vec(0u64..u64::MAX, 12),
        dup_choice in 0usize..1_000,
        pos_choice in 0usize..1_000,
    ) {
        let (config, partials) = synthetic_partials(samples, shards, seed);
        let in_order: MergedResult = merge_partials(&config, &partials).expect("merges");
        let mut shuffled: Vec<(u64, ShardPartial)> = partials
            .iter()
            .enumerate()
            .map(|(i, p)| (keys[i % keys.len()], p.clone()))
            .collect();
        shuffled.sort_by_key(|(key, _)| *key);
        let mut shuffled: Vec<ShardPartial> = shuffled.into_iter().map(|(_, p)| p).collect();
        let merged = merge_partials(&config, &shuffled).expect("a permutation merges");
        prop_assert_eq!(render_stats_json(&merged), render_stats_json(&in_order));

        let duplicate = shuffled[dup_choice % shuffled.len()].clone();
        shuffled.insert(pos_choice % (shuffled.len() + 1), duplicate);
        let err = merge_partials(&config, &shuffled).expect_err("a duplicate must not merge");
        prop_assert!(err.contains("not tiled"), "{}", err);
    }

    /// Every strict prefix of a partial document (the torn-transfer
    /// shape the `truncate` fault injects) fails to parse — no prefix
    /// can masquerade as a complete partial and poison a merge.
    #[test]
    fn any_strict_prefix_of_a_partial_is_rejected(
        cut_choice in 0usize..1_000_000,
        seed in 0u64..u64::MAX,
    ) {
        let (_, partials) = synthetic_partials(17, 3, seed);
        let text = partials[1].to_json();
        let body = text.trim_end();
        let cut = cut_choice % body.len();
        prop_assert!(
            ShardPartial::from_json(&body[..cut]).is_err(),
            "a {cut}-byte prefix of a {}-byte partial must not parse",
            body.len()
        );
    }
}

// ---------------------------------------------------------------------
// The CLI surface: `xbar mc launch` against `xbar run table2 --json`.
// ---------------------------------------------------------------------

fn xbar(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xbar"))
        .args(args)
        .output()
        .expect("spawn xbar")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

const CAMPAIGN_FLAGS: [&str; 8] = [
    "--samples",
    "30",
    "--seed",
    "2018",
    "--defect-rate",
    "0.1",
    "--circuits",
    "rd53",
];

#[test]
fn cli_launch_artifact_is_byte_identical_to_xbar_run_even_under_faults() {
    let dir = scratch("cli");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mono = xbar(&[&["run", "table2", "--json"], &CAMPAIGN_FLAGS[..]].concat());
    assert!(mono.status.success(), "monolithic run: {}", stderr(&mono));
    let canonical = stdout(&mono);

    // A clean 2-host loopback launch, its --out inside its --work-dir:
    // the runner removes only its own run directory, so the work dir
    // survives the merge and the stats land there.
    let artifact = dir.join("clean-artifact.json");
    let clean_stats = dir.join("clean-stats.json");
    let clean = xbar(
        &[
            &[
                "mc",
                "launch",
                "--hosts",
                "alpha*2,beta",
                "--shards",
                "3",
                "--work-dir",
                dir.to_str().expect("utf8"),
                "--out",
                clean_stats.to_str().expect("utf8"),
                "--artifact",
                artifact.to_str().expect("utf8"),
            ],
            &CAMPAIGN_FLAGS[..],
        ]
        .concat(),
    );
    assert!(clean.status.success(), "clean launch: {}", stderr(&clean));
    assert_eq!(
        std::fs::read_to_string(&clean_stats).expect("stats"),
        monolithic(),
        "the launched stats must match the in-process bytes"
    );
    assert_eq!(
        std::fs::read_to_string(&artifact).expect("artifact"),
        canonical,
        "the launched canonical artifact must match `xbar run table2 --json`"
    );
    assert!(
        stdout(&clean).contains("launcher: host alpha:"),
        "the report attributes work to hosts: {}",
        stdout(&clean)
    );

    // The same campaign with a host dying on its first dispatch and a
    // torn stream on the survivor — detection, quarantine, retries, and
    // still the identical bytes.
    let faulty_artifact = dir.join("faulty-artifact.json");
    let faulty = xbar(
        &[
            &[
                "mc",
                "launch",
                "--hosts",
                "alpha*2,beta",
                "--shards",
                "3",
                "--max-attempts",
                "5",
                "--quarantine-after",
                "2",
                "--inject-host-fault",
                "beta=die@0",
                "--inject-host-fault",
                "alpha=truncate@0",
                "--work-dir",
                dir.join("faulty").to_str().expect("utf8"),
                "--out",
                dir.join("faulty-stats.json").to_str().expect("utf8"),
                "--artifact",
                faulty_artifact.to_str().expect("utf8"),
            ],
            &CAMPAIGN_FLAGS[..],
        ]
        .concat(),
    );
    assert!(
        faulty.status.success(),
        "faulty launch: {}",
        stderr(&faulty)
    );
    assert_eq!(
        std::fs::read_to_string(&faulty_artifact).expect("artifact"),
        canonical,
        "host death plus a torn transfer must not change the artifact"
    );

    // A hedged straggler: one host stalls forever, the duplicate on the
    // other host wins, and the bytes still match.
    let hedge_artifact = dir.join("hedge-artifact.json");
    let hedged = xbar(
        &[
            &[
                "mc",
                "launch",
                "--hosts",
                "alpha,beta*2",
                "--shards",
                "3",
                "--hedge-after",
                "0.1",
                "--inject-host-fault",
                "alpha=stall@0",
                "--work-dir",
                dir.join("hedge").to_str().expect("utf8"),
                "--out",
                dir.join("hedge-stats.json").to_str().expect("utf8"),
                "--artifact",
                hedge_artifact.to_str().expect("utf8"),
            ],
            &CAMPAIGN_FLAGS[..],
        ]
        .concat(),
    );
    assert!(
        hedged.status.success(),
        "hedged launch: {}",
        stderr(&hedged)
    );
    assert_eq!(
        std::fs::read_to_string(&hedge_artifact).expect("artifact"),
        canonical,
        "the hedge winner must produce the identical artifact"
    );
    assert!(
        stderr(&hedged).contains("hedged onto"),
        "the straggler must actually be hedged: {}",
        stderr(&hedged)
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn cli_launch_rejects_bad_fleets_with_usage_not_panic() {
    for args in [
        &["mc", "launch"][..],
        &["mc", "launch", "--hosts", ""][..],
        &["mc", "launch", "--hosts", "a*0"][..],
        &[
            "mc",
            "launch",
            "--hosts",
            "a",
            "--inject-host-fault",
            "a=melt",
        ][..],
        &["mc", "launch", "--hosts", "a", "--hedge-after", "soon"][..],
        &["mc", "launch", "--hosts", "a", "--circuits", "rd53,rd53"][..],
    ] {
        let out = xbar(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "xbar {args:?} must exit 2: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains("mc launch:"),
            "xbar {args:?} must explain itself: {}",
            stderr(&out)
        );
    }
}
