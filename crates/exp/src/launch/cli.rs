//! `xbar mc launch`: the multi-host CLI over the campaign runner, plus
//! the runner flags it shares with `xbar mc coordinate`.
//!
//! Parsing follows the `mc coordinate` conventions (usage problems print
//! help to stderr and return exit code 2) and reuses the shared
//! [`CampaignFlags`] and [`RunnerFlags`], so a launch describes its
//! campaign and its runner with exactly the coordinator's vocabulary plus
//! the fleet flags.

use super::pool::{parse_hosts, HostSpec, DEFAULT_PROBATION, DEFAULT_QUARANTINE_AFTER};
use super::scheduler::{run_launch_with_report, LaunchConfig, LaunchReport};
use super::transport::{with_faults, Exec, FaultPlan, LocalProc, Transport};
use crate::experiment::{find_experiment, Params};
use crate::experiments::table2::table2_artifact_from_accums;
use crate::shard::coordinator::{
    default_worker, render_stats_json, render_timing_table, MergedResult, Worker,
};
use crate::shard::{CampaignFlags, McConfig, CAMPAIGN_FLAGS_USAGE};
use std::path::PathBuf;
use std::time::Duration;

/// Parses a seconds value (fractional ok) into a [`Duration`].
pub(crate) fn parse_secs(flag: &str, text: &str) -> Result<Duration, String> {
    let secs: f64 = text
        .parse()
        .map_err(|_| format!("{flag}: expected seconds, got {text:?}"))?;
    Duration::try_from_secs_f64(secs)
        .map_err(|_| format!("{flag}: {secs} is not a representable duration"))
}

/// The runner flags `mc coordinate` and `mc launch` share, parsed in one
/// place so the two front-ends cannot drift apart. Each field is the
/// value of the flag it is named after (see [`RUNNER_FLAGS_USAGE`]).
#[derive(Debug)]
pub(crate) struct RunnerFlags {
    pub(crate) shards: usize,
    pub(crate) max_attempts: usize,
    pub(crate) shard_timeout: Option<Duration>,
    pub(crate) resume: bool,
    pub(crate) keep_partials: bool,
    pub(crate) out: PathBuf,
    pub(crate) work_dir: Option<PathBuf>,
    /// An xbar-compatible worker binary, run as `PATH mc shard ...`.
    pub(crate) worker: Option<PathBuf>,
    pub(crate) worker_args: Vec<String>,
    /// Faults injected into the transport (`--inject-host-fault`).
    pub(crate) faults: Vec<FaultPlan>,
}

impl Default for RunnerFlags {
    fn default() -> Self {
        Self {
            shards: 3,
            max_attempts: 3,
            shard_timeout: None,
            resume: false,
            keep_partials: false,
            out: PathBuf::from("MC_merged.json"),
            work_dir: None,
            worker: None,
            worker_args: Vec::new(),
            faults: Vec::new(),
        }
    }
}

/// The usage lines for the flags [`RunnerFlags::consume`] accepts.
pub(crate) const RUNNER_FLAGS_USAGE: &str =
    "  --shards N         sample-range shards, one worker run each (default 3)\n  \
--max-attempts N   attempts per shard before giving up (default 3)\n  \
--shard-timeout S  kill a worker still running after S seconds and retry\n                     \
(fractional ok; default: no watchdog, wait forever)\n  \
--resume           reuse valid partials already in the run directory and\n                     \
schedule only missing or corrupt shards\n  \
--out PATH         merged stats artifact (default MC_merged.json)\n  \
--work-dir PATH    parent of the per-campaign run directory (default\n                     \
<temp>/xbar-mc; partials live in <work-dir>/run-seed<seed>-\n                     \
n<samples>-k<shards>-<stream>[-<model>]; the work dir itself\n                     \
is never removed, so --out may point inside it)\n  \
--worker PATH      an xbar-compatible worker binary, run as\n                     \
`PATH mc shard ...` (default: the xbar binary next to this one)\n  \
--worker-arg ARG   extra argument appended to every worker invocation\n                     \
(repeatable; used by the worker-probe tests)\n  \
--keep-partials    keep partial files after the merge\n  \
--inject-host-fault SPEC  test-only: inject a transport fault\n                     \
`host=drop|crash|stall|truncate|die[@ordinal]` at that host's\n                     \
0-based dispatch ordinal (repeatable; `mc coordinate`'s host\n                     \
is `local`)";

impl RunnerFlags {
    /// Tries to consume one runner flag (plus its value from `it`);
    /// `Ok(false)` when `flag` is not a runner flag.
    ///
    /// # Errors
    ///
    /// Reports a missing or malformed value.
    pub(crate) fn consume(
        &mut self,
        flag: &str,
        it: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |text: String| -> Result<usize, String> {
            text.parse()
                .map_err(|_| format!("{flag}: expected a number, got {text:?}"))
        };
        match flag {
            "--shards" => self.shards = num(value()?)?,
            "--max-attempts" => self.max_attempts = num(value()?)?,
            "--shard-timeout" => {
                let timeout = parse_secs(flag, &value()?)?;
                if timeout.is_zero() {
                    return Err(format!("{flag} must be positive"));
                }
                self.shard_timeout = Some(timeout);
            }
            "--resume" => self.resume = true,
            "--keep-partials" => self.keep_partials = true,
            "--out" => self.out = PathBuf::from(value()?),
            "--work-dir" => self.work_dir = Some(PathBuf::from(value()?)),
            "--worker" => self.worker = Some(PathBuf::from(value()?)),
            "--worker-arg" => self.worker_args.push(value()?),
            "--inject-host-fault" => self.faults.push(FaultPlan::parse(&value()?)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The runner configuration for `config` over `hosts`, with these
    /// flags applied on top of [`LaunchConfig::new`]'s defaults.
    ///
    /// # Errors
    ///
    /// Fails when a fault plan names a host outside the fleet, or when no
    /// `--worker` was given and no default worker binary can be located.
    pub(crate) fn launch_config(
        &self,
        config: McConfig,
        hosts: Vec<HostSpec>,
    ) -> Result<LaunchConfig, String> {
        if let Some(plan) = self
            .faults
            .iter()
            .find(|plan| !hosts.iter().any(|h| h.name == plan.host))
        {
            return Err(format!(
                "--inject-host-fault names host {:?}, which is not in the fleet",
                plan.host
            ));
        }
        let worker = match &self.worker {
            Some(path) => Worker::xbar(path.clone()),
            None => default_worker()?,
        };
        let mut cfg = LaunchConfig::new(config, self.shards, hosts, worker);
        cfg.max_attempts = self.max_attempts;
        if let Some(work_dir) = &self.work_dir {
            cfg.work_dir.clone_from(work_dir);
        }
        cfg.extra_worker_args.clone_from(&self.worker_args);
        cfg.keep_partials = self.keep_partials;
        cfg.shard_timeout = self.shard_timeout;
        cfg.resume = self.resume;
        Ok(cfg)
    }

    /// Prints the timing table and writes the merged stats artifact to
    /// `--out`.
    ///
    /// # Errors
    ///
    /// Reports an unwritable `--out`.
    pub(crate) fn write_merged(&self, merged: &MergedResult) -> Result<(), String> {
        print!("{}", render_timing_table(merged));
        crate::atomic::write_atomic(&self.out, render_stats_json(merged).as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", self.out.display()))?;
        println!("wrote {}", self.out.display());
        Ok(())
    }
}

struct LaunchArgs {
    campaign: CampaignFlags,
    runner: RunnerFlags,
    hosts: String,
    hedge_after: Option<Duration>,
    quarantine_after: usize,
    probation: Duration,
    artifact: Option<PathBuf>,
    exec_args: Vec<String>,
}

fn launch_usage() -> String {
    format!(
        "xbar mc launch: fault-tolerant multi-host Monte Carlo dispatch\n\n\
         Shards the campaign over a fleet, streams partials back over a\n\
         transport, and merges through a per-host tree. The merged output is\n\
         byte-identical to a monolithic run under every tolerated fault.\n\nflags:\n\
         {CAMPAIGN_FLAGS_USAGE}\n\
         {RUNNER_FLAGS_USAGE}\n  \
         --hosts SPEC       the fleet (required): comma-separated `name[*slots]`\n                     \
         entries, e.g. `alpha*4,beta*2,gamma` (slots default 1)\n  \
         --hedge-after S    re-dispatch a straggling flight onto another host\n                     \
         after S seconds; first valid partial wins (default: off)\n  \
         --quarantine-after N  quarantine a host after N consecutive failures\n                     \
         (default {DEFAULT_QUARANTINE_AFTER})\n  \
         --probation S      quarantine sit-out before a host may be retried\n                     \
         (default 30)\n  \
         --artifact PATH    also write the canonical experiment artifact\n                     \
         (byte-identical to `xbar run table2 --json`)\n  \
         --exec-arg TOKEN   remote command template token (repeatable). When\n                     \
         present, dispatch runs the rendered template instead of a local\n                     \
         subprocess: `{{host}}` expands to the host name, `{{worker}}` splices\n                     \
         the worker argv, `{{worker:sh}}` substitutes one shell-quoted\n                     \
         command string. E.g. `--exec-arg ssh --exec-arg {{host}}\n                     \
         --exec-arg {{worker:sh}}` dispatches over ssh."
    )
}

fn parse_launch_args(args: Vec<String>) -> Result<Option<LaunchArgs>, String> {
    let mut out = LaunchArgs {
        campaign: CampaignFlags::default(),
        runner: RunnerFlags::default(),
        hosts: String::new(),
        hedge_after: None,
        quarantine_after: DEFAULT_QUARANTINE_AFTER,
        probation: DEFAULT_PROBATION,
        artifact: None,
        exec_args: Vec::new(),
    };
    let mut it = args.into_iter();
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        if out.campaign.consume(&flag, &mut it)? || out.runner.consume(&flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--hosts" => out.hosts = value(&flag, &mut it)?,
            "--hedge-after" => {
                let after = parse_secs(&flag, &value(&flag, &mut it)?)?;
                if after.is_zero() {
                    return Err(format!("{flag} must be positive"));
                }
                out.hedge_after = Some(after);
            }
            "--quarantine-after" => {
                let text = value(&flag, &mut it)?;
                let n: usize = text
                    .parse()
                    .map_err(|_| format!("{flag}: expected a number, got {text:?}"))?;
                if n == 0 {
                    return Err(format!("{flag} must be at least 1"));
                }
                out.quarantine_after = n;
            }
            "--probation" => out.probation = parse_secs(&flag, &value(&flag, &mut it)?)?,
            "--artifact" => out.artifact = Some(PathBuf::from(value(&flag, &mut it)?)),
            "--exec-arg" => out.exec_args.push(value(&flag, &mut it)?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other:?}; try --help")),
        }
    }
    if out.hosts.is_empty() {
        return Err("--hosts is required (e.g. --hosts alpha*2,beta)".to_owned());
    }
    Ok(Some(out))
}

/// The scheduling summary after a successful launch — on stdout, outside
/// the byte-compared artifacts, in the coordinator report's spirit so
/// scripts can assert how the campaign actually executed.
fn print_report(report: &LaunchReport) {
    println!(
        "launcher: dispatched {} flight(s), reused {} partial(s), {} retrie(s), \
         {} timeout(s), {} hedge(s), {} discard(s)",
        report.base.spawned,
        report.base.reused,
        report.base.retries,
        report.base.timeouts,
        report.hedges,
        report.discards
    );
    for host in &report.hosts {
        println!(
            "launcher: host {}: {} dispatched, {} ok, {} failed, {} quarantine(s)",
            host.name, host.dispatched, host.completed, host.failed, host.quarantines
        );
    }
}

/// The `xbar run table2`-equivalent argv for this campaign, so the
/// canonical artifact is rebuilt against the exact [`Params`] a
/// monolithic run of the same flags would parse.
fn table2_argv(flags: &CampaignFlags) -> Vec<String> {
    let mut argv = vec![
        "--samples".to_owned(),
        flags.samples.to_string(),
        "--seed".to_owned(),
        flags.seed.to_string(),
        "--defect-rate".to_owned(),
        // Shortest-round-trip text: parses back to the exact bits.
        format!("{:?}", flags.defect_rate),
        "--rng-stream".to_owned(),
        flags.stream.as_str().to_owned(),
    ];
    if flags.model_kind != xbar_core::DefectModelKind::Iid {
        argv.push("--defect-model".to_owned());
        argv.push(flags.model_kind.as_str().to_owned());
        argv.push("--cluster-size".to_owned());
        argv.push(format!("{:?}", flags.cluster_size));
        argv.push("--line-rate".to_owned());
        argv.push(format!("{:?}", flags.line_rate));
    }
    if let Some(circuits) = &flags.circuits {
        argv.push("--circuits".to_owned());
        argv.push(circuits.join(","));
    }
    argv
}

/// Rebuilds and writes the canonical `xbar-artifact/1` document for the
/// campaign, byte-identical to `xbar run table2 --json` with the same
/// flags (the merge is integer-exact, the rebuild path is shared with the
/// serving daemon).
fn write_canonical_artifact(
    path: &std::path::Path,
    flags: &CampaignFlags,
    merged: &MergedResult,
) -> Result<(), String> {
    let exp = find_experiment("table2").ok_or("table2 vanished from the registry")?;
    let params = Params::parse(exp.extra_params(), table2_argv(flags))
        .map_err(|e| format!("rebuilding table2 parameters: {e}"))?;
    let artifact = table2_artifact_from_accums(&merged.circuits, merged.config.seed, exp, &params)?;
    crate::atomic::write_atomic(path, artifact.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `xbar mc launch`: shards a campaign over a fleet of hosts, merges the
/// streamed partials through the two-level tree, and writes the merged
/// stats artifact (plus, with `--artifact`, the canonical experiment
/// document). Returns the process exit code.
#[must_use]
pub fn launch_main(argv: Vec<String>) -> i32 {
    let args = match parse_launch_args(argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", launch_usage());
            return 0;
        }
        Err(e) => {
            eprintln!("mc launch: {e}\n\n{}", launch_usage());
            return 2;
        }
    };
    let hosts = match parse_hosts(&args.hosts) {
        Ok(hosts) => hosts,
        Err(e) => {
            eprintln!("mc launch: --hosts: {e}");
            return 2;
        }
    };
    let config: McConfig = args.campaign.clone().into_config();
    if let Err(e) = config.validate() {
        eprintln!("mc launch: {e}");
        return 2;
    }
    let mut cfg = match args.runner.launch_config(config.clone(), hosts) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("mc launch: {e}");
            return 2;
        }
    };
    cfg.hedge_after = args.hedge_after;
    cfg.quarantine_after = args.quarantine_after;
    cfg.probation = args.probation;
    let transport: Box<dyn Transport> = if args.exec_args.is_empty() {
        Box::new(LocalProc)
    } else {
        match Exec::new(args.exec_args.clone()) {
            Ok(exec) => Box::new(exec),
            Err(e) => {
                eprintln!("mc launch: --exec-arg: {e}");
                return 2;
            }
        }
    };
    let transport = with_faults(transport, &args.runner.faults);

    println!(
        "launching {} samples as {} shard(s) over {} host(s) (seed {}, {:.0}% defects)",
        config.samples,
        cfg.shards,
        cfg.hosts.len(),
        config.seed,
        config.defect_rate * 100.0
    );
    let (merged, report) = match run_launch_with_report(&cfg, transport.as_ref()) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("mc launch: {e}");
            return 1;
        }
    };
    print_report(&report);
    if let Err(e) = args.runner.write_merged(&merged) {
        eprintln!("mc launch: {e}");
        return 1;
    }
    if let Some(path) = &args.artifact {
        if let Err(e) = write_canonical_artifact(path, &args.campaign, &merged) {
            eprintln!("mc launch: {e}");
            return 1;
        }
        println!("wrote {}", path.display());
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn launch_args_parse_the_fleet_and_policy_flags() {
        let args = parse_launch_args(argv(&[
            "--hosts",
            "alpha*2,beta",
            "--shards",
            "5",
            "--hedge-after",
            "0.5",
            "--quarantine-after",
            "2",
            "--probation",
            "1.5",
            "--exec-arg",
            "ssh",
            "--exec-arg",
            "{host}",
            "--exec-arg",
            "{worker:sh}",
            "--inject-host-fault",
            "beta=die@1",
        ]))
        .expect("parses")
        .expect("not help");
        assert_eq!(args.hosts, "alpha*2,beta");
        assert_eq!(args.runner.shards, 5);
        assert_eq!(args.hedge_after, Some(Duration::from_millis(500)));
        assert_eq!(args.quarantine_after, 2);
        assert_eq!(args.probation, Duration::from_millis(1500));
        assert_eq!(args.exec_args, ["ssh", "{host}", "{worker:sh}"]);
        assert_eq!(args.runner.faults.len(), 1);

        assert!(parse_launch_args(argv(&["--help"])).expect("ok").is_none());
    }

    #[test]
    fn launch_args_require_hosts_and_reject_degenerate_values() {
        for words in [
            &[][..],
            &["--shards", "3"][..],
            &["--hosts", "a", "--quarantine-after", "0"][..],
            &["--hosts", "a", "--hedge-after", "0"][..],
            &["--hosts", "a", "--shard-timeout", "soon"][..],
            &["--hosts", "a", "--inject-host-fault", "a=explode"][..],
            &["--hosts", "a", "--what"][..],
        ] {
            assert!(parse_launch_args(argv(words)).is_err(), "{words:?}");
        }
    }

    #[test]
    fn table2_argv_round_trips_campaign_flags_into_params() {
        let flags = CampaignFlags {
            samples: 30,
            seed: 7,
            circuits: Some(vec!["rd53".to_owned()]),
            ..Default::default()
        };
        let exp = find_experiment("table2").expect("registered");
        let params = Params::parse(exp.extra_params(), table2_argv(&flags)).expect("parses");
        assert_eq!(params.samples, 30);
        assert_eq!(params.seed, 7);
        assert_eq!(params.list("circuits"), ["rd53"]);
        // The synthesized params resolve to exactly the launch's config.
        let config = flags.clone().into_config();
        assert_eq!(params.sample_stream(), config.stream);
        assert_eq!(params.defect_model(), config.model);
        assert!((params.defect_rate - config.defect_rate).abs() < f64::EPSILON);
    }
}
