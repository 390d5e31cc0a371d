//! CLI entry points for the sharded Monte Carlo subsystem: `xbar mc
//! shard` (the worker) and `xbar mc coordinate` (the campaign runner on
//! the one-host local fleet). Each declares its flags once as a
//! `FrontEnd` — the campaign exactly as `xbar run table2` parses it
//! (`CAMPAIGN_SECTIONS`) plus its own tables — and parsing and `--help`
//! derive from that declaration. Usage problems print help to stderr and
//! return exit code 2.

use super::coordinator::{run_monolithic, RunReport};
use super::{campaign, partial::ShardPartial, run_shard, McConfig, ShardSpec, CAMPAIGN_SECTIONS};
use crate::experiment::{spec, usage_err, Flags, FrontEnd, ParamKind, ParamSpec, UsageError};
use crate::launch::cli::{launch_config, runner_faults, write_merged, RUNNER_PARAMS};
use crate::launch::{run_launch_with_report, with_faults, FaultPlan, HostSpec, LocalProc};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The slice flags of `mc shard`.
const SHARD_PARAMS: &[ParamSpec] = &[
    spec("shard-index", ParamKind::USize, "0", "this shard's index"),
    spec(
        "num-shards",
        ParamKind::USize,
        "1",
        "shards in the campaign",
    ),
    spec(
        "out",
        ParamKind::Str,
        "partial-0.json",
        "partial-result output path; `-` streams the partial to stdout (remote launch)",
    ),
];

/// The worker probes the process-level tests use.
const PROBE_PARAMS: &[ParamSpec] = &[
    spec(
        "inject-slow-ms",
        ParamKind::U64,
        "0",
        "sleep N ms before running the shard",
    ),
    spec(
        "inject-concurrency-dir",
        ParamKind::Str,
        "",
        "record live-worker counts into <dir>/observed.txt",
    ),
];

const SHARD: FrontEnd = FrontEnd {
    command: "mc shard",
    about: "xbar mc shard: run one shard of a sharded Monte Carlo campaign",
    sections: &[
        CAMPAIGN_SECTIONS[0],
        CAMPAIGN_SECTIONS[1],
        ("shard flags", SHARD_PARAMS),
        (
            "test-only probes (faults are the runner's --inject-host-fault)",
            PROBE_PARAMS,
        ),
    ],
};

/// `mc shard`'s checks on its input: the campaign and the slice.
fn shard_args(flags: Flags) -> Result<(Flags, McConfig, ShardSpec), UsageError> {
    let (_, config) = campaign(&flags)?;
    let (index, num_shards) = (flags.usize("shard-index"), flags.usize("num-shards"));
    if index >= num_shards {
        return Err(usage_err(format!(
            "--shard-index {index} out of range for --num-shards {num_shards}"
        )));
    }
    let spec = ShardSpec::partition(config.samples, num_shards)[index];
    Ok((flags, config, spec))
}

/// `xbar mc shard`: runs one contiguous slice of a
/// campaign and writes a self-describing partial file. Returns the
/// process exit code.
#[must_use]
pub fn shard_main(argv: Vec<String>) -> i32 {
    let (flags, config, spec) = match SHARD.parse(argv, shard_args) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let probe_dir = flags.opt_str("inject-concurrency-dir").map(PathBuf::from);

    // Concurrency probe: hold a live-marker for the worker's lifetime and
    // record how many live markers exist, so a process-level test can
    // assert the coordinator's --max-inflight bound from *inside* the
    // worker fleet. O_APPEND keeps the short count lines atomic.
    let live_marker = probe_dir.as_ref().map(|dir| {
        let _ = std::fs::create_dir_all(dir);
        let marker = dir.join(format!("live-{}", std::process::id()));
        let _ = std::fs::write(&marker, b"live\n");
        marker
    });
    let slow_ms = flags.u64("inject-slow-ms");
    if slow_ms > 0 {
        std::thread::sleep(Duration::from_millis(slow_ms));
    }
    if let Some(dir) = &probe_dir {
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

    let code = run_shard_to_file(Path::new(flags.str("out")), &config, spec);
    if let Some(marker) = live_marker {
        let _ = std::fs::remove_file(marker);
    }
    code
}

/// The worker's payload: fold the slice and write the partial. With
/// `--out -` the partial streams to stdout instead — the remote-launch
/// transport contract — so stdout carries *only* partial bytes (the
/// progress note goes to stderr).
fn run_shard_to_file(out: &Path, config: &McConfig, spec: ShardSpec) -> i32 {
    let partial: ShardPartial = run_shard(config, &spec);
    if out.as_os_str() == "-" {
        use std::io::Write as _;
        let mut stdout = std::io::stdout().lock();
        if let Err(e) = stdout
            .write_all(partial.to_json().as_bytes())
            .and_then(|()| stdout.flush())
        {
            return SHARD.fail(&format!("cannot stream partial to stdout: {e}"));
        }
        eprintln!(
            "mc shard: shard {}/{} samples [{}, {}) -> stdout",
            spec.index, spec.num_shards, spec.start, spec.end
        );
        return 0;
    }
    // Atomic: a reader treating any file at this path as a checkpoint
    // candidate must never observe a half-written partial.
    if let Err(e) = crate::atomic::write_atomic(out, partial.to_json().as_bytes()) {
        return SHARD.fail(&format!("cannot write {}: {e}", out.display()));
    }
    println!(
        "mc shard: shard {}/{} samples [{}, {}) -> {}",
        spec.index,
        spec.num_shards,
        spec.start,
        spec.end,
        out.display()
    );
    0
}

/// The flags only `mc coordinate` takes.
const COORDINATE_PARAMS: &[ParamSpec] = &[
    spec(
        "max-inflight",
        ParamKind::USize,
        "",
        "live workers at once (default: available parallelism)",
    ),
    spec(
        "in-process",
        ParamKind::Flag,
        "false",
        "run monolithically (no processes) through the same accumulators; \
         output is byte-identical to a sharded run",
    ),
];

const COORDINATE: FrontEnd = FrontEnd {
    command: "mc coordinate",
    about: "xbar mc coordinate: fault-tolerant sharded Monte Carlo over local worker processes\n\n\
            The campaign runner of `xbar mc launch` on the one-host fleet\n\
            `local*N`: same checkpoints, lock, retries and merge.",
    sections: &[
        CAMPAIGN_SECTIONS[0],
        CAMPAIGN_SECTIONS[1],
        ("runner flags", RUNNER_PARAMS),
        ("coordinator flags", COORDINATE_PARAMS),
    ],
};

/// `mc coordinate`'s checks on its input: the campaign and the runner
/// flags, whether or not the run is in-process.
fn coordinate_args(flags: Flags) -> Result<(Flags, McConfig, Vec<FaultPlan>), UsageError> {
    let (_, config) = campaign(&flags)?;
    let faults = runner_faults(&flags)?;
    flags.opt_count("max-inflight")?;
    Ok((flags, config, faults))
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
    let (flags, config, faults) = match COORDINATE.parse(argv, coordinate_args) {
        Ok(args) => args,
        Err(code) => return code,
    };

    let merged = if flags.flag("in-process") {
        println!(
            "running {} samples monolithically (same accumulators as sharded mode)",
            config.samples
        );
        run_monolithic(&config)
    } else {
        // A one-host fleet: the slot count is the inflight bound, and
        // LaunchConfig::new never quarantines the only host there is.
        let slots = flags.opt_usize("max-inflight").unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
        });
        let fleet = vec![HostSpec::local(slots)];
        let cfg = match launch_config(&flags, &faults, config.clone(), fleet) {
            Ok(cfg) => cfg,
            Err(e) => return COORDINATE.reject(&e),
        };
        println!(
            "running {} samples across {} worker process(es) (seed {}, {:.0}% defects)",
            config.samples,
            cfg.shards,
            config.seed,
            config.defect_rate * 100.0
        );
        let transport = with_faults(Box::new(LocalProc), &faults);
        match run_launch_with_report(&cfg, transport.as_ref()) {
            Ok((merged, report)) => {
                print_report(&report.base);
                merged
            }
            Err(e) => return COORDINATE.fail(&e),
        }
    };

    if let Err(e) = write_merged(&flags, &merged) {
        return COORDINATE.fail(&e);
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| (*s).to_owned()).collect()
    }

    fn parse_shard_args(
        words: &[&str],
    ) -> Result<Option<(Flags, McConfig, ShardSpec)>, UsageError> {
        SHARD.try_parse(argv(words))?.map(shard_args).transpose()
    }

    fn parse_coordinate_args(
        words: &[&str],
    ) -> Result<Option<(Flags, McConfig, Vec<FaultPlan>)>, UsageError> {
        COORDINATE
            .try_parse(argv(words))?
            .map(coordinate_args)
            .transpose()
    }

    #[test]
    fn shard_args_reject_malformed_flags_without_panicking() {
        for words in [
            &["--shard-index"][..],
            &["--shard-index", "x"][..],
            &["--samples", "nope"][..],
            &["--what"][..],
        ] {
            assert!(parse_shard_args(words).is_err(), "{words:?} must fail");
        }
    }

    #[test]
    fn coordinate_args_parse_and_help_short_circuits() {
        let (flags, config, _) =
            parse_coordinate_args(&["--shards", "5", "--in-process", "--seed", "7"])
                .expect("parses")
                .expect("not help");
        assert_eq!(flags.usize("shards"), 5);
        assert!(flags.flag("in-process"));
        assert_eq!(config.seed, 7);
        assert_eq!(
            flags.opt_secs("shard-timeout"),
            None,
            "watchdog defaults off"
        );
        assert_eq!(
            flags.opt_usize("max-inflight"),
            None,
            "inflight defaults to auto"
        );
        assert!(!flags.flag("resume"));

        let help = parse_coordinate_args(&["--help"]).expect("ok");
        assert!(help.is_none(), "--help short-circuits");
    }

    #[test]
    fn coordinate_args_parse_the_fault_tolerance_flags() {
        let (flags, _, faults) = parse_coordinate_args(&[
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
        ])
        .expect("parses")
        .expect("not help");
        assert_eq!(
            flags.opt_secs("shard-timeout"),
            Some(Duration::from_millis(2500))
        );
        assert_eq!(flags.opt_usize("max-inflight"), Some(4));
        assert!(flags.flag("resume"));
        assert_eq!(flags.list("worker-arg"), ["--inject-slow-ms", "250"]);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].host, "local");
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
            assert!(parse_coordinate_args(words).is_err(), "{words:?} must fail");
        }
    }

    #[test]
    fn shard_args_parse_the_new_injection_hooks() {
        let (flags, _, _) = parse_shard_args(&[
            "--inject-slow-ms",
            "250",
            "--inject-concurrency-dir",
            "/tmp/conc",
        ])
        .expect("parses")
        .expect("not help");
        assert_eq!(flags.u64("inject-slow-ms"), 250);
        assert_eq!(flags.opt_str("inject-concurrency-dir"), Some("/tmp/conc"));
        assert!(parse_shard_args(&["--inject-slow-ms", "soon"]).is_err());
        // Crash, hang and torn-stream faults are the runner's
        // `--inject-host-fault`; the worker's old hooks are usage errors.
        for removed in [
            &["--inject-fail-once", "/tmp/marker"][..],
            &["--inject-fail-always"][..],
            &["--inject-truncate-once", "/tmp/marker"][..],
            &["--inject-hang-once", "/tmp/marker"][..],
        ] {
            assert_eq!(
                shard_main(argv(removed)),
                2,
                "{removed:?} must be a usage error"
            );
        }
    }

    #[test]
    fn campaign_model_flags_parse_on_both_entry_points() {
        let words = ["--defect-model", "clustered", "--cluster-size", "6"];
        let (_, config, _) = parse_shard_args(&words).expect("parses").expect("not help");
        assert_eq!(config.model.kind(), xbar_core::DefectModelKind::Clustered);
        assert_eq!(config.model.cluster_size(), 6.0);
        let (_, coord, _) = parse_coordinate_args(&words)
            .expect("parses")
            .expect("not help");
        assert_eq!(coord.model, config.model);

        for words in [
            &["--defect-model", "blobs"][..],
            &["--cluster-size", "0.5"][..],
            &["--cluster-size", "NaN"][..],
            &["--line-rate", "1.5"][..],
            &["--line-rate", "-0.1"][..],
        ] {
            assert!(parse_shard_args(words).is_err(), "{words:?} must fail");
        }
    }

    #[test]
    fn campaigns_run_rejects_are_usage_errors_on_every_mc_front_end() {
        for words in [
            &["--defect-rate", "1.5"][..],
            &["--defect-rate", "-0.5"][..],
            &["--samples", "0"][..],
            &["--circuits", "rd53,rd53"][..],
            &["--circuits", "b12"][..],
        ] {
            assert!(parse_shard_args(words).is_err(), "shard {words:?}");
            assert!(
                parse_coordinate_args(words).is_err(),
                "coordinate {words:?}"
            );
        }
        let (_, all, _) = parse_coordinate_args(&["--circuits", "all"])
            .expect("parses")
            .expect("not help");
        let (_, default, _) = parse_coordinate_args(&[])
            .expect("parses")
            .expect("not help");
        assert_eq!(all, default);
    }

    #[test]
    fn out_of_range_shard_index_is_exit_2() {
        let code = shard_main(argv(&["--shard-index", "4", "--num-shards", "2"]));
        assert_eq!(code, 2);
    }
}
