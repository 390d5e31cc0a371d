//! CLI entry points for the sharded Monte Carlo subsystem: `xbar mc
//! shard` (the worker) and `xbar mc coordinate` (the campaign runner on
//! the one-host local fleet). Parsing is `Result`-based: usage problems
//! print help to stderr and return exit code 2.

use super::coordinator::{run_monolithic, RunReport};
use super::{partial::ShardPartial, run_shard, CampaignFlags, ShardSpec, CAMPAIGN_FLAGS_USAGE};
use crate::launch::cli::{RunnerFlags, RUNNER_FLAGS_USAGE};
use crate::launch::{run_launch_with_report, HostSpec, LocalProc};
use std::path::PathBuf;
use std::time::Duration;

struct ShardArgs {
    campaign: CampaignFlags,
    shard_index: usize,
    num_shards: usize,
    out: PathBuf,
    inject_fail_once: Option<PathBuf>,
    inject_fail_always: bool,
    inject_truncate_once: Option<PathBuf>,
    inject_hang_once: Option<PathBuf>,
    inject_slow_ms: u64,
    inject_concurrency_dir: Option<PathBuf>,
}

impl Default for ShardArgs {
    fn default() -> Self {
        Self {
            campaign: CampaignFlags::default(),
            shard_index: 0,
            num_shards: 1,
            out: PathBuf::from("partial-0.json"),
            inject_fail_once: None,
            inject_fail_always: false,
            inject_truncate_once: None,
            inject_hang_once: None,
            inject_slow_ms: 0,
            inject_concurrency_dir: None,
        }
    }
}

fn shard_usage() -> String {
    format!(
        "xbar mc shard: run one shard of a sharded Monte Carlo campaign\n\nflags:\n\
         {CAMPAIGN_FLAGS_USAGE}\n  \
         --shard-index I    this shard's index (default 0)\n  \
         --num-shards N     shards in the campaign (default 1)\n  \
         --out PATH         partial-result output path (default partial-0.json);\n                     \
         `-` streams the partial to stdout (remote launch)\n\n\
         test-only failure injection:\n  \
         --inject-fail-once MARKER      exit 3 unless MARKER exists (created on the way out)\n  \
         --inject-fail-always           always exit 4\n  \
         --inject-truncate-once MARKER  write a torn partial once, then behave\n  \
         --inject-hang-once MARKER      hang forever unless MARKER exists (watchdog bait)\n  \
         --inject-slow-ms N             sleep N ms before running the shard\n  \
         --inject-concurrency-dir DIR   record live-worker counts into DIR/observed.txt"
    )
}

fn parse_shard_args(args: Vec<String>) -> Result<Option<ShardArgs>, String> {
    let mut out = ShardArgs::default();
    let mut it = args.into_iter();
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str, text: String| -> Result<usize, String> {
        text.parse()
            .map_err(|_| format!("{flag}: expected a number, got {text:?}"))
    };
    while let Some(flag) = it.next() {
        if out.campaign.consume(&flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--shard-index" => out.shard_index = num(&flag, value(&flag, &mut it)?)?,
            "--num-shards" => out.num_shards = num(&flag, value(&flag, &mut it)?)?,
            "--out" => out.out = PathBuf::from(value(&flag, &mut it)?),
            "--inject-fail-once" => {
                out.inject_fail_once = Some(PathBuf::from(value(&flag, &mut it)?));
            }
            "--inject-fail-always" => out.inject_fail_always = true,
            "--inject-truncate-once" => {
                out.inject_truncate_once = Some(PathBuf::from(value(&flag, &mut it)?));
            }
            "--inject-hang-once" => {
                out.inject_hang_once = Some(PathBuf::from(value(&flag, &mut it)?));
            }
            "--inject-slow-ms" => {
                let text = value(&flag, &mut it)?;
                out.inject_slow_ms = text
                    .parse()
                    .map_err(|_| format!("{flag}: expected a number, got {text:?}"))?;
            }
            "--inject-concurrency-dir" => {
                out.inject_concurrency_dir = Some(PathBuf::from(value(&flag, &mut it)?));
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other:?}; try --help")),
        }
    }
    Ok(Some(out))
}

/// Returns true exactly once per marker path: the marker's exclusive
/// create picks one winner even among workers starting concurrently.
fn first_time(marker: &PathBuf) -> bool {
    match std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(marker)
    {
        Ok(_) => true,
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => false,
        Err(e) => panic!("cannot create marker {}: {e}", marker.display()),
    }
}

/// `xbar mc shard`: runs one contiguous slice of a
/// campaign and writes a self-describing partial file. Returns the
/// process exit code.
#[must_use]
pub fn shard_main(argv: Vec<String>) -> i32 {
    let args = match parse_shard_args(argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", shard_usage());
            return 0;
        }
        Err(e) => {
            eprintln!("mc shard: {e}\n\n{}", shard_usage());
            return 2;
        }
    };
    if args.inject_fail_always {
        eprintln!("mc shard: injected permanent failure");
        return 4;
    }
    if let Some(marker) = &args.inject_fail_once {
        if first_time(marker) {
            eprintln!("mc shard: injected one-shot failure");
            return 3;
        }
    }
    if let Some(marker) = &args.inject_hang_once {
        if first_time(marker) {
            // A worker that never exits: the coordinator's watchdog must
            // kill it at --shard-timeout (there is nothing else to stop it).
            eprintln!("mc shard: injected hang (waiting to be killed)");
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }

    let config = args.campaign.clone().into_config();
    if let Err(e) = config.validate() {
        eprintln!("mc shard: {e}");
        return 2;
    }
    if args.shard_index >= args.num_shards {
        eprintln!(
            "mc shard: --shard-index {} out of range for --num-shards {}",
            args.shard_index, args.num_shards
        );
        return 2;
    }
    let spec = ShardSpec::partition(config.samples, args.num_shards)[args.shard_index];

    // Concurrency probe: hold a live-marker for the worker's lifetime and
    // record how many live markers exist, so a process-level test can
    // assert the coordinator's --max-inflight bound from *inside* the
    // worker fleet. O_APPEND keeps the short count lines atomic.
    let live_marker = args.inject_concurrency_dir.as_ref().map(|dir| {
        let _ = std::fs::create_dir_all(dir);
        let marker = dir.join(format!("live-{}", std::process::id()));
        let _ = std::fs::write(&marker, b"live\n");
        marker
    });
    if args.inject_slow_ms > 0 {
        std::thread::sleep(Duration::from_millis(args.inject_slow_ms));
    }
    if let Some(dir) = &args.inject_concurrency_dir {
        let live = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.file_name().to_string_lossy().starts_with("live-"))
                    .count()
            })
            .unwrap_or(0);
        use std::io::Write as _;
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("observed.txt"))
        {
            // One write per line: `writeln!` may split off the newline.
            let _ = file.write_all(format!("{live}\n").as_bytes());
        }
    }

    let code = run_shard_to_file(&args, &config, spec);
    if let Some(marker) = live_marker {
        let _ = std::fs::remove_file(marker);
    }
    code
}

/// The worker's payload after all injection preambles: optionally write a
/// torn partial, otherwise fold the slice and write the real one. With
/// `--out -` the partial streams to stdout instead — the remote-launch
/// transport contract — so stdout carries *only* partial bytes (the
/// progress note is suppressed; the torn injection prints its truncated
/// prefix to stdout, exercising the receiver's torn-transfer detection).
fn run_shard_to_file(args: &ShardArgs, config: &super::McConfig, spec: ShardSpec) -> i32 {
    let stream_stdout = args.out.as_os_str() == "-";
    if let Some(marker) = &args.inject_truncate_once {
        if first_time(marker) {
            // A torn write: valid JSON prefix, no `complete` marker.
            let torn = "{\n  \"schema\": \"xbar-mc-partial/1\", \"trunc";
            if stream_stdout {
                print!("{torn}");
            } else if let Err(e) = std::fs::write(&args.out, torn) {
                eprintln!("mc shard: cannot write torn partial: {e}");
                return 1;
            }
            eprintln!("mc shard: injected torn partial");
            return 0;
        }
    }

    let partial: ShardPartial = run_shard(config, &spec);
    if stream_stdout {
        use std::io::Write as _;
        let mut stdout = std::io::stdout().lock();
        if let Err(e) = stdout
            .write_all(partial.to_json().as_bytes())
            .and_then(|()| stdout.flush())
        {
            eprintln!("mc shard: cannot stream partial to stdout: {e}");
            return 1;
        }
        eprintln!(
            "mc shard: shard {}/{} samples [{}, {}) -> stdout",
            spec.index, spec.num_shards, spec.start, spec.end
        );
        return 0;
    }
    // Atomic: the coordinator treats any file at this path as a checkpoint
    // candidate, so it must never observe a half-written partial (the
    // injected torn write above stays a plain write on purpose).
    if let Err(e) = crate::atomic::write_atomic(&args.out, partial.to_json().as_bytes()) {
        eprintln!("mc shard: cannot write {}: {e}", args.out.display());
        return 1;
    }
    println!(
        "mc shard: shard {}/{} samples [{}, {}) -> {}",
        spec.index,
        spec.num_shards,
        spec.start,
        spec.end,
        args.out.display()
    );
    0
}

struct CoordinateArgs {
    campaign: CampaignFlags,
    runner: RunnerFlags,
    in_process: bool,
    max_inflight: Option<usize>,
}

fn coordinate_usage() -> String {
    format!(
        "xbar mc coordinate: fault-tolerant sharded Monte Carlo over local worker processes\n\n\
         The campaign runner of `xbar mc launch` on the one-host fleet\n\
         `local*N`: same checkpoints, lock, retries and merge.\n\nflags:\n\
         {CAMPAIGN_FLAGS_USAGE}\n\
         {RUNNER_FLAGS_USAGE}\n  \
         --max-inflight N   live workers at once (default: available parallelism)\n  \
         --in-process       run monolithically (no processes) through the same\n                     \
         accumulators; output is byte-identical to a sharded run"
    )
}

fn parse_coordinate_args(args: Vec<String>) -> Result<Option<CoordinateArgs>, String> {
    let mut out = CoordinateArgs {
        campaign: CampaignFlags::default(),
        runner: RunnerFlags::default(),
        in_process: false,
        max_inflight: None,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if out.campaign.consume(&flag, &mut it)? || out.runner.consume(&flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--max-inflight" => {
                let text = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                let inflight: usize = text
                    .parse()
                    .map_err(|_| format!("{flag}: expected a number, got {text:?}"))?;
                if inflight == 0 {
                    return Err(format!("{flag} must be at least 1"));
                }
                out.max_inflight = Some(inflight);
            }
            "--in-process" => out.in_process = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other:?}; try --help")),
        }
    }
    Ok(Some(out))
}

/// One line of scheduling facts after a successful sharded run —
/// deliberately on stdout (not in the byte-compared artifact) so scripts
/// and CI can check how the campaign executed (e.g. that `--resume`
/// actually reused checkpoints).
fn print_report(report: &RunReport) {
    println!(
        "coordinator: spawned {} worker(s), reused {} partial(s), {} retrie(s), \
         {} timeout(s), peak {} in flight",
        report.spawned,
        report.reused,
        report.retries,
        report.timeouts,
        report.max_inflight_observed
    );
}

/// `xbar mc coordinate`: runs a campaign through the campaign runner on
/// the one-host fleet `local*N` (or monolithically with `--in-process`),
/// and writes the deterministic merged stats artifact. Returns the
/// process exit code.
#[must_use]
pub fn coordinate_main(argv: Vec<String>) -> i32 {
    let args = match parse_coordinate_args(argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", coordinate_usage());
            return 0;
        }
        Err(e) => {
            eprintln!("mc coordinate: {e}\n\n{}", coordinate_usage());
            return 2;
        }
    };
    let config = args.campaign.clone().into_config();
    if let Err(e) = config.validate() {
        eprintln!("mc coordinate: {e}");
        return 2;
    }

    let merged = if args.in_process {
        println!(
            "running {} samples monolithically (same accumulators as sharded mode)",
            config.samples
        );
        run_monolithic(&config)
    } else {
        // A one-host fleet: the slot count is the inflight bound, and
        // LaunchConfig::new never quarantines the only host there is.
        let slots = args.max_inflight.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
        });
        let fleet = vec![HostSpec::local(slots)];
        let cfg = match args.runner.launch_config(config.clone(), fleet) {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("mc coordinate: {e}");
                return 2;
            }
        };
        println!(
            "running {} samples across {} worker process(es) (seed {}, {:.0}% defects)",
            config.samples,
            cfg.shards,
            config.seed,
            config.defect_rate * 100.0
        );
        match run_launch_with_report(&cfg, &LocalProc) {
            Ok((merged, report)) => {
                print_report(&report.base);
                merged
            }
            Err(e) => {
                eprintln!("mc coordinate: {e}");
                return 1;
            }
        }
    };

    if let Err(e) = args.runner.write_merged(&merged) {
        eprintln!("mc coordinate: {e}");
        return 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_args_reject_malformed_flags_without_panicking() {
        for words in [
            &["--shard-index"][..],
            &["--shard-index", "x"][..],
            &["--samples", "nope"][..],
            &["--what"][..],
        ] {
            let argv = words.iter().map(|s| (*s).to_owned()).collect();
            assert!(parse_shard_args(argv).is_err(), "{words:?} must fail");
        }
    }

    #[test]
    fn coordinate_args_parse_and_help_short_circuits() {
        let argv = ["--shards", "5", "--in-process", "--seed", "7"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let args = parse_coordinate_args(argv)
            .expect("parses")
            .expect("not help");
        assert_eq!(args.runner.shards, 5);
        assert!(args.in_process);
        assert_eq!(args.campaign.seed, 7);
        assert_eq!(args.runner.shard_timeout, None, "watchdog defaults off");
        assert_eq!(args.max_inflight, None, "inflight defaults to auto");
        assert!(!args.runner.resume);

        let help = parse_coordinate_args(vec!["--help".to_owned()]).expect("ok");
        assert!(help.is_none(), "--help short-circuits");
    }

    #[test]
    fn coordinate_args_parse_the_fault_tolerance_flags() {
        let argv = [
            "--shard-timeout",
            "2.5",
            "--max-inflight",
            "4",
            "--resume",
            "--worker-arg",
            "--inject-fail-once",
            "--worker-arg",
            "/tmp/marker",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let args = parse_coordinate_args(argv)
            .expect("parses")
            .expect("not help");
        assert_eq!(args.runner.shard_timeout, Some(Duration::from_millis(2500)));
        assert_eq!(args.max_inflight, Some(4));
        assert!(args.runner.resume);
        assert_eq!(
            args.runner.worker_args,
            ["--inject-fail-once", "/tmp/marker"]
        );
    }

    #[test]
    fn coordinate_args_reject_degenerate_fault_tolerance_values() {
        for words in [
            &["--shard-timeout", "0"][..],
            &["--shard-timeout", "-1"][..],
            &["--shard-timeout", "NaN"][..],
            &["--shard-timeout", "soon"][..],
            &["--max-inflight", "0"][..],
            &["--max-inflight", "lots"][..],
            &["--worker-arg"][..],
        ] {
            let argv = words.iter().map(|s| (*s).to_owned()).collect();
            assert!(parse_coordinate_args(argv).is_err(), "{words:?} must fail");
        }
    }

    #[test]
    fn shard_args_parse_the_new_injection_hooks() {
        let argv = [
            "--inject-hang-once",
            "/tmp/hang",
            "--inject-slow-ms",
            "250",
            "--inject-concurrency-dir",
            "/tmp/conc",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let args = parse_shard_args(argv).expect("parses").expect("not help");
        assert_eq!(args.inject_hang_once, Some(PathBuf::from("/tmp/hang")));
        assert_eq!(args.inject_slow_ms, 250);
        assert_eq!(
            args.inject_concurrency_dir,
            Some(PathBuf::from("/tmp/conc"))
        );
        let bad = vec!["--inject-slow-ms".to_owned(), "soon".to_owned()];
        assert!(parse_shard_args(bad).is_err());
    }

    #[test]
    fn campaign_model_flags_parse_on_both_entry_points() {
        let argv: Vec<String> = ["--defect-model", "clustered", "--cluster-size", "6"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let shard = parse_shard_args(argv.clone())
            .expect("parses")
            .expect("not help");
        let config = shard.campaign.into_config();
        assert_eq!(config.model.kind(), xbar_core::DefectModelKind::Clustered);
        assert_eq!(config.model.cluster_size(), 6.0);
        let coord = parse_coordinate_args(argv)
            .expect("parses")
            .expect("not help");
        assert_eq!(
            coord.campaign.model_kind,
            xbar_core::DefectModelKind::Clustered
        );

        for words in [
            &["--defect-model", "blobs"][..],
            &["--cluster-size", "0.5"][..],
            &["--cluster-size", "NaN"][..],
            &["--line-rate", "1.5"][..],
            &["--line-rate", "-0.1"][..],
        ] {
            let argv = words.iter().map(|s| (*s).to_owned()).collect();
            assert!(parse_shard_args(argv).is_err(), "{words:?} must fail");
        }
    }

    #[test]
    fn out_of_range_shard_index_is_exit_2() {
        let code = shard_main(
            ["--shard-index", "4", "--num-shards", "2"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
        );
        assert_eq!(code, 2);
    }
}
