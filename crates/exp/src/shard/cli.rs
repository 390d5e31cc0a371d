//! CLI entry points for the sharded Monte Carlo subsystem: `xbar mc
//! shard` (the worker) and `xbar mc coordinate` (the campaign runner on
//! the one-host local fleet). Parsing is `Result`-based: usage problems
//! print help to stderr and return exit code 2.

use super::coordinator::{run_monolithic, RunReport};
use super::{partial::ShardPartial, run_shard, CampaignFlags, ShardSpec, CAMPAIGN_FLAGS_USAGE};
use crate::launch::cli::{RunnerFlags, RUNNER_FLAGS_USAGE};
use crate::launch::{run_launch_with_report, with_faults, HostSpec, LocalProc};
use std::path::PathBuf;
use std::time::Duration;

struct ShardArgs {
    campaign: CampaignFlags,
    shard_index: usize,
    num_shards: usize,
    out: PathBuf,
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
         test-only probes (faults are the runner's --inject-host-fault):\n  \
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

/// The worker's payload: fold the slice and write the partial. With
/// `--out -` the partial streams to stdout instead — the remote-launch
/// transport contract — so stdout carries *only* partial bytes (the
/// progress note goes to stderr).
fn run_shard_to_file(args: &ShardArgs, config: &super::McConfig, spec: ShardSpec) -> i32 {
    let partial: ShardPartial = run_shard(config, &spec);
    if args.out.as_os_str() == "-" {
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
    // Atomic: a reader treating any file at this path as a checkpoint
    // candidate must never observe a half-written partial.
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
        let transport = with_faults(Box::new(LocalProc), &args.runner.faults);
        match run_launch_with_report(&cfg, transport.as_ref()) {
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
            "--inject-slow-ms",
            "--worker-arg",
            "250",
            "--inject-host-fault",
            "local=crash@0",
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
        assert_eq!(args.runner.worker_args, ["--inject-slow-ms", "250"]);
        assert_eq!(args.runner.faults.len(), 1);
        assert_eq!(args.runner.faults[0].host, "local");
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
            &["--inject-host-fault", "local=melt"][..],
        ] {
            let argv = words.iter().map(|s| (*s).to_owned()).collect();
            assert!(parse_coordinate_args(argv).is_err(), "{words:?} must fail");
        }
    }

    #[test]
    fn shard_args_parse_the_new_injection_hooks() {
        let argv = [
            "--inject-slow-ms",
            "250",
            "--inject-concurrency-dir",
            "/tmp/conc",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let args = parse_shard_args(argv).expect("parses").expect("not help");
        assert_eq!(args.inject_slow_ms, 250);
        assert_eq!(
            args.inject_concurrency_dir,
            Some(PathBuf::from("/tmp/conc"))
        );
        let bad = vec!["--inject-slow-ms".to_owned(), "soon".to_owned()];
        assert!(parse_shard_args(bad).is_err());
        // Crash, hang and torn-stream faults are the runner's
        // `--inject-host-fault`; the worker's old hooks are usage errors.
        for removed in [
            &["--inject-fail-once", "/tmp/marker"][..],
            &["--inject-fail-always"][..],
            &["--inject-truncate-once", "/tmp/marker"][..],
            &["--inject-hang-once", "/tmp/marker"][..],
        ] {
            let argv = removed.iter().map(|s| (*s).to_owned()).collect();
            assert_eq!(shard_main(argv), 2, "{removed:?} must be a usage error");
        }
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
