//! Process-level tests of the sharded Monte Carlo subsystem: the
//! campaign runner on the one-host local fleet (what `xbar mc coordinate`
//! runs) spawning real `xbar mc shard` worker processes, killing stalled
//! workers at the watchdog deadline, bounding in-flight concurrency,
//! resuming from checkpoints after a `kill -9`, and always producing a
//! merged stats artifact byte-identical to the monolithic in-process run.
//! Crashes, stalls and torn streams are injected by the runner's
//! [`Faulty`] transport on host `local`.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use xbar_core::{Campaign, DefectModelKind, DefectModelSpec, SampleStream};
use xbar_exp::launch::pool::DEFAULT_PROBATION;
use xbar_exp::launch::{
    run_launch_with_report, FaultPlan, Faulty, HostSpec, LaunchConfig, LocalProc,
};
use xbar_exp::shard::coordinator::{
    campaign_run_dir, render_stats_json, run_monolithic, MergedResult, RunReport, Worker,
};
use xbar_exp::shard::partial::ShardPartial;
use xbar_exp::shard::McConfig;

fn worker_binary() -> Worker {
    Worker::xbar(PathBuf::from(env!("CARGO_BIN_EXE_xbar")))
}

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
/// workspace); the runner removes only its run directory beneath it.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xbar-shard-test-{}-{tag}", std::process::id()))
}

/// The runner configuration `xbar mc coordinate` builds: the one-host
/// local fleet with one slot per core.
fn coordinator(tag: &str, shards: usize) -> LaunchConfig {
    let slots = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let mut cfg = LaunchConfig::new(
        campaign(),
        shards,
        vec![HostSpec::local(slots)],
        worker_binary(),
    );
    cfg.work_dir = scratch(tag);
    // Tiny backoff: retry-path tests stay fast without changing the
    // deterministic shape of the schedule.
    cfg.retry_base = Duration::from_millis(5);
    cfg
}

fn run_local_with_report(cfg: &LaunchConfig) -> Result<(MergedResult, RunReport), String> {
    run_launch_with_report(cfg, &LocalProc).map(|(merged, report)| (merged, report.base))
}

fn run_local(cfg: &LaunchConfig) -> Result<MergedResult, String> {
    run_local_with_report(cfg).map(|(merged, _)| merged)
}

/// Runs `cfg` with `local=<fault>` plans injected into the transport.
fn run_faulty(cfg: &LaunchConfig, faults: &[&str]) -> Result<(MergedResult, RunReport), String> {
    let plans = faults
        .iter()
        .map(|fault| FaultPlan::parse(&format!("local={fault}")).expect("fault spec"))
        .collect();
    run_launch_with_report(cfg, &Faulty::new(LocalProc, plans))
        .map(|(merged, report)| (merged, report.base))
}

#[test]
fn sharded_runs_are_byte_identical_to_monolithic_across_shard_counts() {
    let mono = render_stats_json(&run_monolithic(&campaign()));
    for shards in [1usize, 2, 3, 7] {
        let cfg = coordinator(&format!("counts-{shards}"), shards);
        let merged = run_local(&cfg).expect("coordinator run");
        assert_eq!(
            render_stats_json(&merged),
            mono,
            "{shards} worker processes must reproduce the monolithic artifact"
        );
        let _ = std::fs::remove_dir_all(&cfg.work_dir);
    }
}

#[test]
fn v2_campaigns_shard_byte_identically_too() {
    // The geometric-skip stream must survive the full process round-trip:
    // the coordinator forwards `--rng-stream v2` to every worker, partials
    // echo it, and the merged artifact is byte-identical to the
    // monolithic V2 run (which differs from the V1 artifact by design).
    let mut config = campaign();
    config.campaign.stream = SampleStream::V2;
    let mono = render_stats_json(&run_monolithic(&config));
    assert!(
        mono.contains("\"rng_stream\": \"v2\""),
        "V2 stats must declare their stream: {mono}"
    );
    let v1_mono = render_stats_json(&run_monolithic(&campaign()));
    assert_ne!(mono, v1_mono, "V2 draws different defect maps than V1");
    let mut cfg = coordinator("v2-stream", 3);
    cfg.config = config;
    let merged = run_local(&cfg).expect("coordinator run");
    assert_eq!(render_stats_json(&merged), mono);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
}

#[test]
fn clustered_campaigns_shard_byte_identically_through_real_workers() {
    // The spatial defect model must survive the full process round-trip
    // exactly like the RNG stream: the coordinator forwards
    // `--defect-model clustered --cluster-size 3` to every worker,
    // partials echo the model, and the 3-shard merge is byte-identical to
    // the monolithic clustered run.
    let model = DefectModelSpec::new(DefectModelKind::Clustered, 3.0, 0.02).expect("valid spec");
    let mut config = campaign();
    config.campaign.model = model;
    let mono = render_stats_json(&run_monolithic(&config));
    assert!(
        mono.contains("\"defect_model\": \"clustered\""),
        "clustered stats must declare their model: {mono}"
    );
    assert!(
        mono.contains("\"cluster_size\": 3.0"),
        "clustered stats must pin the cluster size: {mono}"
    );
    assert_ne!(
        mono,
        render_stats_json(&run_monolithic(&campaign())),
        "clustering draws different defect maps than the i.i.d. model"
    );
    let mut cfg = coordinator("clustered-model", 3);
    cfg.config = config;
    let merged = run_local(&cfg).expect("coordinator run");
    assert_eq!(
        render_stats_json(&merged),
        mono,
        "3 worker processes must reproduce the monolithic clustered artifact"
    );
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
}

#[test]
fn empty_shards_need_no_workers_and_merge_cleanly() {
    // 7 shards over 4 samples: 3 shards are empty and must be synthesized
    // without spawning processes, with the artifact still byte-identical.
    let mut config = campaign();
    config.campaign.samples = 4;
    let mono = render_stats_json(&run_monolithic(&config));
    let mut cfg = coordinator("empty-shards", 7);
    cfg.config = config;
    let (merged, report) = run_local_with_report(&cfg).expect("coordinator run");
    assert_eq!(render_stats_json(&merged), mono);
    assert_eq!(report.spawned, 4, "only non-empty shards spawn workers");
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
}

#[test]
fn coordinator_retries_a_crashing_shard_and_still_matches() {
    let mono = render_stats_json(&run_monolithic(&campaign()));
    let cfg = coordinator("fail-once", 3);
    let (merged, report) = run_faulty(&cfg, &["crash@0"]).expect("retry must recover");
    assert_eq!(render_stats_json(&merged), mono);
    assert!(report.retries >= 1, "{report:?}");
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
}

#[test]
fn coordinator_retries_a_torn_partial_and_still_matches() {
    let mono = render_stats_json(&run_monolithic(&campaign()));
    let cfg = coordinator("torn", 2);
    let (merged, _) = run_faulty(&cfg, &["truncate@0"]).expect("retry must recover");
    assert_eq!(render_stats_json(&merged), mono);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
}

#[test]
fn hung_worker_is_killed_at_the_deadline_and_retried() {
    // The first flight stalls forever (its worker runs, but never
    // reports back); the watchdog must kill it at the deadline and the
    // retry must finish the shard, with the merged artifact still
    // byte-identical.
    let mono = render_stats_json(&run_monolithic(&campaign()));
    let mut cfg = coordinator("hang", 2);
    cfg.shard_timeout = Some(Duration::from_secs(3));
    let start = Instant::now();
    let (merged, report) = run_faulty(&cfg, &["stall@0"]).expect("watchdog must recover");
    assert_eq!(render_stats_json(&merged), mono);
    assert_eq!(report.timeouts, 1, "{report:?}");
    assert!(report.retries >= 1, "{report:?}");
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "the watchdog must turn the hang into a bounded retry"
    );
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
}

#[test]
fn slow_but_finishing_worker_is_not_killed() {
    // Workers sleep 150 ms but the deadline is far away: the watchdog
    // must not fire, and no retries happen.
    let mono = render_stats_json(&run_monolithic(&campaign()));
    let mut cfg = coordinator("slow-ok", 2);
    cfg.shard_timeout = Some(Duration::from_secs(60));
    cfg.extra_worker_args = vec!["--inject-slow-ms".to_owned(), "150".to_owned()];
    let (merged, report) = run_local_with_report(&cfg).expect("slow run");
    assert_eq!(render_stats_json(&merged), mono);
    assert_eq!(report.timeouts, 0, "{report:?}");
    assert_eq!(report.retries, 0, "{report:?}");
    assert_eq!(report.spawned, 2, "{report:?}");
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
}

#[test]
fn inflight_workers_never_exceed_max_inflight() {
    // 5 shards, 2 slots, each worker slowed so lifetimes overlap. The
    // workers themselves record how many live-markers exist while they
    // run (`--inject-concurrency-dir`), so the bound is asserted from
    // inside the fleet, not from the coordinator's bookkeeping alone.
    let mut config = campaign();
    config.campaign.samples = 10;
    let mono = render_stats_json(&run_monolithic(&config));
    let mut cfg = coordinator("inflight", 5);
    cfg.config = config;
    cfg.hosts = vec![HostSpec::local(2)];
    let obs_dir = cfg.work_dir.join("concurrency");
    cfg.extra_worker_args = vec![
        "--inject-slow-ms".to_owned(),
        "150".to_owned(),
        "--inject-concurrency-dir".to_owned(),
        obs_dir.to_string_lossy().into_owned(),
    ];
    let (merged, report) = run_local_with_report(&cfg).expect("bounded run");
    assert_eq!(render_stats_json(&merged), mono);
    assert_eq!(
        report.max_inflight_observed, 2,
        "5 queued shards must saturate (but never exceed) the 2 slots: {report:?}"
    );
    let observed = std::fs::read_to_string(obs_dir.join("observed.txt")).expect("observations");
    let counts: Vec<usize> = observed
        .lines()
        .map(|line| line.parse().expect("count line"))
        .collect();
    assert_eq!(counts.len(), 5, "every worker samples once: {observed:?}");
    assert!(
        counts.iter().all(|&live| (1..=2).contains(&live)),
        "no worker may ever see more than --max-inflight live peers: {counts:?}"
    );
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
}

#[test]
fn resume_reuses_valid_partials_and_schedules_only_the_rest() {
    // First run keeps its partials; then one is corrupted and one
    // deleted. `--resume` must reuse the intact checkpoint, re-run
    // exactly the two damaged shards, and reproduce the identical bytes.
    let mono = render_stats_json(&run_monolithic(&campaign()));
    let mut cfg = coordinator("resume", 3);
    cfg.keep_partials = true;
    let (first, r1) = run_local_with_report(&cfg).expect("first run");
    assert_eq!(render_stats_json(&first), mono);
    assert_eq!(r1.spawned, 3);
    assert_eq!(r1.reused, 0);

    let run_dir = campaign_run_dir(&cfg.work_dir, &cfg.config, cfg.shards);
    std::fs::write(run_dir.join("partial-1.json"), "{\n  \"schema\": \"tor").expect("corrupt");
    std::fs::remove_file(run_dir.join("partial-2.json")).expect("delete");

    cfg.resume = true;
    cfg.keep_partials = false;
    let (second, r2) = run_local_with_report(&cfg).expect("resumed run");
    assert_eq!(
        render_stats_json(&second),
        mono,
        "a resumed campaign must merge to the identical artifact"
    );
    assert_eq!(r2.reused, 1, "{r2:?}");
    assert_eq!(r2.spawned, 2, "{r2:?}");
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
}

#[test]
fn resume_after_coordinator_kill_finishes_the_campaign_with_identical_bytes() {
    // The real crash story: a coordinator process (xbar spawning itself
    // as `xbar mc shard`) is SIGKILLed mid-campaign, then a second
    // coordinator with --resume picks up the surviving checkpoints and
    // completes — byte-identical artifact, fewer spawns.
    let dir = scratch("kill-resume");
    let _ = std::fs::remove_dir_all(&dir);
    let work = dir.join("work");
    std::fs::create_dir_all(&work).expect("scratch dir");
    let out = dir.join("merged.json");
    let mono = render_stats_json(&run_monolithic(&campaign()));

    // Serialized workers (--max-inflight 1), each slowed 400 ms, so
    // partials appear one by one and the kill lands mid-campaign.
    let campaign_flags = [
        "--samples",
        "30",
        "--circuits",
        "rd53",
        "--shards",
        "4",
        "--work-dir",
    ];
    let mut coordinator = Command::new(env!("CARGO_BIN_EXE_xbar"))
        .arg("mc")
        .arg("coordinate")
        .args(campaign_flags)
        .arg(&work)
        .args(["--max-inflight", "1", "--keep-partials"])
        .args(["--worker-arg", "--inject-slow-ms", "--worker-arg", "400"])
        .args(["--out".as_ref(), out.as_os_str()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn coordinator");

    // Wait for the first complete checkpoint, then SIGKILL the
    // coordinator (kill() is SIGKILL on unix).
    let run_dir = campaign_run_dir(&work, &campaign(), 4);
    let first_partial = run_dir.join("partial-0.json");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            Instant::now() < deadline,
            "no checkpoint appeared before the deadline"
        );
        if coordinator.try_wait().expect("try_wait").is_some() {
            panic!("coordinator finished before it could be killed; slow the workers down");
        }
        if let Ok(text) = std::fs::read_to_string(&first_partial) {
            if ShardPartial::from_json(&text).is_ok() {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    coordinator.kill().expect("kill -9 the coordinator");
    let _ = coordinator.wait();
    // Let the orphaned in-flight worker finish writing its partial so the
    // resume below starts from a quiet directory.
    std::thread::sleep(Duration::from_millis(800));

    let out2 = dir.join("merged-resumed.json");
    let resumed = Command::new(env!("CARGO_BIN_EXE_xbar"))
        .arg("mc")
        .arg("coordinate")
        .args(campaign_flags)
        .arg(&work)
        .arg("--resume")
        .args(["--out".as_ref(), out2.as_os_str()])
        .output()
        .expect("spawn resumed coordinator");
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(
        resumed.status.success(),
        "resume failed: {stdout}\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let report_line = stdout
        .lines()
        .find(|line| line.starts_with("coordinator:"))
        .expect("report line");
    assert!(
        report_count(report_line, "partial") >= 1,
        "the killed run's checkpoints must be reused: {report_line:?}"
    );
    assert!(
        report_count(report_line, "worker") < 4,
        "resume must spawn fewer workers than a fresh campaign: {report_line:?}"
    );
    let merged = std::fs::read_to_string(&out2).expect("resumed artifact");
    assert_eq!(
        merged, mono,
        "kill -9 + --resume must still produce the monolithic bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_second_coordinator_on_a_live_campaign_fails_fast() {
    // Two coordinators race for the same campaign: the first to create
    // `coordinator.lock` wins and runs to completion; the second must
    // fail fast with a clear "campaign already running" error instead of
    // double-spawning workers or corrupting the run directory.
    let dir = scratch("second-coordinator");
    let _ = std::fs::remove_dir_all(&dir);
    let work = dir.join("work");
    std::fs::create_dir_all(&work).expect("scratch dir");
    let out = dir.join("merged.json");

    // Serialized workers, each slowed 400 ms, so the winner holds the
    // lock long enough for the contender to collide with it.
    let campaign_flags = [
        "--samples",
        "30",
        "--circuits",
        "rd53",
        "--shards",
        "4",
        "--work-dir",
    ];
    let mut winner = Command::new(env!("CARGO_BIN_EXE_xbar"))
        .arg("mc")
        .arg("coordinate")
        .args(campaign_flags)
        .arg(&work)
        .args(["--max-inflight", "1"])
        .args(["--worker-arg", "--inject-slow-ms", "--worker-arg", "400"])
        .args(["--out".as_ref(), out.as_os_str()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn first coordinator");

    // Wait until the winner actually holds the run-dir lock.
    let run_dir = campaign_run_dir(&work, &campaign(), 4);
    let lock = run_dir.join("coordinator.lock");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !lock.exists() {
        assert!(
            Instant::now() < deadline,
            "no coordinator.lock appeared before the deadline"
        );
        if winner.try_wait().expect("try_wait").is_some() {
            panic!(
                "first coordinator finished before the contender could run; slow the workers down"
            );
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let out2 = dir.join("merged-second.json");
    let loser = Command::new(env!("CARGO_BIN_EXE_xbar"))
        .arg("mc")
        .arg("coordinate")
        .args(campaign_flags)
        .arg(&work)
        .args(["--out".as_ref(), out2.as_os_str()])
        .output()
        .expect("run second coordinator");
    let stderr = String::from_utf8_lossy(&loser.stderr);
    assert!(
        !loser.status.success(),
        "the contender must lose the lock race: {stderr}"
    );
    assert!(
        stderr.contains("campaign already running"),
        "the loser must say why it stopped: {stderr}"
    );
    assert!(!out2.exists(), "the loser must not write an artifact");

    // The winner is unaffected by the collision: it finishes cleanly and
    // produces the monolithic bytes.
    let status = winner.wait().expect("first coordinator");
    assert!(
        status.success(),
        "the lock holder must still finish cleanly"
    );
    let merged = std::fs::read_to_string(&out).expect("winner artifact");
    assert_eq!(
        merged,
        render_stats_json(&run_monolithic(&campaign())),
        "the winner's artifact must be untouched by the losing contender"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_run_dir_claimed_by_a_different_campaign_is_rejected() {
    // Same (seed, samples, shards, stream) — so the same derived run
    // directory — but a different defect rate: the manifest check must
    // refuse to clobber the first campaign's partials.
    let mut cfg = coordinator("campaign-clash", 2);
    cfg.keep_partials = true;
    let _ = run_local(&cfg).expect("first campaign");

    let mut other = coordinator("campaign-clash", 2);
    other.config.campaign.defect_rate = 0.25;
    let err = run_local(&other).expect_err("must refuse");
    assert!(err.contains("different campaign"), "{err}");
    assert!(err.contains("defect_rate"), "{err}");
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
}

#[test]
fn permanently_failing_shard_surfaces_an_error_not_a_hang() {
    // Every dispatch the campaign could make crashes.
    let cfg = coordinator("fail-always", 2);
    let crashes: Vec<String> = (0..cfg.shards * cfg.max_attempts)
        .map(|at| format!("crash@{at}"))
        .collect();
    let crashes: Vec<&str> = crashes.iter().map(String::as_str).collect();
    let err = run_faulty(&cfg, &crashes).expect_err("must give up");
    assert!(err.contains("failed permanently"), "{err}");
    assert!(err.contains("attempt"), "{err}");
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
}

#[test]
fn missing_worker_binary_is_a_clear_error() {
    let mut cfg = coordinator("no-worker", 2);
    cfg.worker = Worker::xbar(PathBuf::from("/nonexistent/xbar"));
    let err = run_local(&cfg).expect_err("must fail");
    assert!(err.contains("failed permanently"), "{err}");
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
}

#[test]
fn unknown_circuit_fails_before_spawning_anything() {
    let mut cfg = coordinator("bad-circuit", 2);
    cfg.config.circuits = vec!["not-a-circuit".to_owned()];
    let err = run_local(&cfg).expect_err("must fail");
    assert!(err.contains("not-a-circuit"), "{err}");
}

/// The count before the `key` noun in a `coordinator: spawned 2
/// worker(s), reused 2 partial(s), 3 retrie(s), 1 timeout(s), ...`
/// report line.
fn report_count(line: &str, key: &str) -> usize {
    let tokens: Vec<&str> = line.split([' ', ',']).filter(|t| !t.is_empty()).collect();
    tokens
        .windows(2)
        .find(|pair| pair[1].starts_with(key))
        .and_then(|pair| pair[0].parse().ok())
        .unwrap_or_else(|| panic!("no `{key}` count in {line:?}"))
}

#[test]
fn one_host_fleet_never_quarantines_its_only_host() {
    // `local` fails three times in a row: a crash, a stall the watchdog
    // kills, and a torn stream (serialized by --max-inflight 1). A
    // multi-host fleet would quarantine a host after three consecutive
    // failures and sit out DEFAULT_PROBATION; the one-host fleet has
    // nowhere to fail over to, so it must retry straight through.
    let dir = scratch("one-host-faults");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = dir.join("merged.json");
    let start = Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_xbar"))
        .args([
            "mc",
            "coordinate",
            "--samples",
            "30",
            "--circuits",
            "rd53",
            "--shards",
            "3",
            "--max-inflight",
            "1",
            "--max-attempts",
            "4",
            "--shard-timeout",
            "3",
            "--inject-host-fault",
            "local=crash@0",
            "--inject-host-fault",
            "local=stall@1",
            "--inject-host-fault",
            "local=truncate@2",
        ])
        .arg("--work-dir")
        .arg(dir.join("work"))
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawn xbar");
    let elapsed = start.elapsed();
    let stdout = String::from_utf8_lossy(&run.stdout);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{stdout}\n{stderr}");
    // The runner serves `mc coordinate` too: its lines say `mc:`, never
    // `mc launch:`.
    assert!(stderr.contains("mc: shard"), "{stderr}");
    assert!(!stderr.contains("mc launch:"), "{stderr}");
    assert!(
        elapsed < DEFAULT_PROBATION / 2,
        "three straight failures must not sit out a probation: {elapsed:?}"
    );
    assert_eq!(
        std::fs::read_to_string(&out).expect("artifact"),
        render_stats_json(&run_monolithic(&campaign())),
        "the faulty campaign must still merge to the monolithic bytes"
    );
    let line = stdout
        .lines()
        .find(|line| line.starts_with("coordinator:"))
        .expect("report line");
    assert_eq!(report_count(line, "timeout"), 1, "one hang: {line}");
    assert_eq!(report_count(line, "retrie"), 3, "three failures: {line}");
    assert_eq!(
        report_count(line, "worker"),
        6,
        "three failed + three good: {line}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
