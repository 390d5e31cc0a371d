//! `xbar mc launch`: the multi-host CLI over the campaign runner, plus
//! the runner flags it shares with `xbar mc coordinate`.
//!
//! Both front-ends declare their flags once as a `FrontEnd`: the
//! campaign exactly as `xbar run table2` parses it
//! (`CAMPAIGN_SECTIONS`), the shared `RUNNER_PARAMS`, and a table of
//! their own — for a launch, the fleet flags. Parsing and `--help` both
//! derive from that declaration; usage problems print help to stderr and
//! return exit code 2.

use super::pool::{parse_hosts, HostSpec};
use super::scheduler::{run_launch_with_report, LaunchConfig, LaunchReport};
use super::transport::{with_faults, Exec, FaultPlan, LocalProc, Transport};
use crate::experiment::{
    find_experiment, spec, usage_err, Flags, FrontEnd, ParamKind, ParamSpec, Params, UsageError,
};
use crate::experiments::table2::table2_artifact_from_accums;
use crate::shard::coordinator::{
    default_worker, render_stats_json, render_timing_table, MergedResult, Worker,
};
use crate::shard::{campaign, McConfig, CAMPAIGN_SECTIONS};
use std::path::{Path, PathBuf};

/// The runner flags `mc coordinate` and `mc launch` share, declared once
/// so the two front-ends cannot drift apart.
pub(crate) const RUNNER_PARAMS: &[ParamSpec] = &[
    spec(
        "shards",
        ParamKind::USize,
        "3",
        "sample-range shards, one worker run each",
    ),
    spec(
        "max-attempts",
        ParamKind::USize,
        "3",
        "attempts per shard before giving up",
    ),
    spec(
        "shard-timeout",
        ParamKind::Secs,
        "",
        "kill a worker still running after S seconds and retry (fractional ok; \
         default: no watchdog, wait forever)",
    ),
    spec(
        "resume",
        ParamKind::Flag,
        "false",
        "reuse valid partials already in the run directory and schedule only \
         missing or corrupt shards",
    ),
    spec(
        "out",
        ParamKind::Str,
        "MC_merged.json",
        "merged stats artifact",
    ),
    spec(
        "work-dir",
        ParamKind::Str,
        "",
        "parent of the per-campaign run directory (default <temp>/xbar-mc; partials \
         live in <work-dir>/run-seed<seed>-n<samples>-k<shards>-<stream>[-<model>]; \
         the work dir itself is never removed, so --out may point inside it)",
    ),
    spec(
        "worker",
        ParamKind::Str,
        "",
        "an xbar-compatible worker binary, run as `PATH mc shard ...` \
         (default: the xbar binary next to this one)",
    ),
    spec(
        "worker-arg",
        ParamKind::Repeated,
        "",
        "extra argument appended to every worker invocation (used by the \
         worker-probe tests)",
    ),
    spec(
        "keep-partials",
        ParamKind::Flag,
        "false",
        "keep partial files after the merge",
    ),
    spec(
        "inject-host-fault",
        ParamKind::Repeated,
        "",
        "test-only: inject a transport fault `host=drop|crash|stall|truncate|die[@ordinal]` \
         at that host's 0-based dispatch ordinal (`mc coordinate`'s host is `local`)",
    ),
];

/// The transport faults a repeatable fault flag injects.
///
/// # Errors
///
/// Reports a malformed fault plan.
pub(crate) fn fault_plans(flags: &Flags, name: &str) -> Result<Vec<FaultPlan>, UsageError> {
    flags
        .list(name)
        .iter()
        .map(|plan| FaultPlan::parse(plan).map_err(|e| usage_err(format!("--{name}: {e}"))))
        .collect()
}

/// The transport faults the runner flags inject (`--inject-host-fault`),
/// after the checks on runner flags that hold whether or not a runner
/// starts.
///
/// # Errors
///
/// Reports a non-positive `--shard-timeout` or a malformed fault plan.
pub(crate) fn runner_faults(flags: &Flags) -> Result<Vec<FaultPlan>, UsageError> {
    flags.opt_positive_secs("shard-timeout")?;
    fault_plans(flags, "inject-host-fault")
}

/// The runner configuration the runner flags describe for `config` over
/// `hosts`, on top of [`LaunchConfig::new`]'s defaults.
///
/// # Errors
///
/// Fails when a fault plan names a host outside the fleet, or when no
/// `--worker` was given and no default worker binary can be located.
pub(crate) fn launch_config(
    flags: &Flags,
    faults: &[FaultPlan],
    config: McConfig,
    hosts: Vec<HostSpec>,
) -> Result<LaunchConfig, UsageError> {
    if let Some(plan) = faults
        .iter()
        .find(|plan| !hosts.iter().any(|h| h.name == plan.host))
    {
        return Err(usage_err(format!(
            "--inject-host-fault names host {:?}, which is not in the fleet",
            plan.host
        )));
    }
    let worker = match flags.opt_str("worker") {
        Some(path) => Worker::xbar(PathBuf::from(path)),
        None => default_worker().map_err(UsageError)?,
    };
    let mut cfg = LaunchConfig::new(config, flags.usize("shards"), hosts, worker);
    cfg.max_attempts = flags.usize("max-attempts");
    if let Some(work_dir) = flags.opt_str("work-dir") {
        cfg.work_dir = PathBuf::from(work_dir);
    }
    cfg.extra_worker_args = flags.list("worker-arg").to_vec();
    cfg.keep_partials = flags.flag("keep-partials");
    cfg.shard_timeout = flags.opt_secs("shard-timeout");
    cfg.resume = flags.flag("resume");
    Ok(cfg)
}

/// Prints the timing table and writes the merged stats artifact to
/// `--out`.
///
/// # Errors
///
/// Reports an unwritable `--out`.
pub(crate) fn write_merged(flags: &Flags, merged: &MergedResult) -> Result<(), String> {
    let out = Path::new(flags.str("out"));
    print!("{}", render_timing_table(merged));
    crate::atomic::write_atomic(out, render_stats_json(merged).as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}

/// The fleet flags only `mc launch` takes.
const LAUNCH_PARAMS: &[ParamSpec] = &[
    spec(
        "hosts",
        ParamKind::Str,
        "",
        "the fleet (required): comma-separated `name[*slots]` entries, e.g. \
         `alpha*4,beta*2,gamma` (slots default 1)",
    ),
    spec(
        "hedge-after",
        ParamKind::Secs,
        "",
        "re-dispatch a straggling flight onto another host after S seconds; \
         first valid partial wins (default: off)",
    ),
    spec(
        "quarantine-after",
        ParamKind::USize,
        "3",
        "quarantine a host after N consecutive failures",
    ),
    spec(
        "probation",
        ParamKind::Secs,
        "30",
        "quarantine sit-out before a host may be retried",
    ),
    spec(
        "artifact",
        ParamKind::Str,
        "",
        "also write the canonical experiment artifact (byte-identical to \
         `xbar run table2 --json`)",
    ),
    spec(
        "exec-arg",
        ParamKind::Repeated,
        "",
        "remote command template token; when present, dispatch runs the rendered \
         template instead of a local subprocess: `{host}` expands to the host name, \
         `{worker}` splices the worker argv, `{worker:sh}` substitutes one \
         shell-quoted command string (`--exec-arg ssh --exec-arg {host} \
         --exec-arg {worker:sh}` dispatches over ssh)",
    ),
];

const LAUNCH: FrontEnd = FrontEnd {
    command: "mc launch",
    about: "xbar mc launch: fault-tolerant multi-host Monte Carlo dispatch\n\n\
            Shards the campaign over a fleet, streams partials back over a\n\
            transport, and merges them flat. The merged output is byte-identical\n\
            to a monolithic run under every tolerated fault.",
    sections: &[
        CAMPAIGN_SECTIONS[0],
        CAMPAIGN_SECTIONS[1],
        ("runner flags", RUNNER_PARAMS),
        ("fleet flags", LAUNCH_PARAMS),
    ],
};

/// A checked `mc launch` invocation: its flags and what they resolve to.
struct Launch {
    flags: Flags,
    params: Params,
    config: McConfig,
    hosts: Vec<HostSpec>,
    faults: Vec<FaultPlan>,
    exec: Option<Exec>,
}

/// `mc launch`'s checks on its input: the campaign, the runner flags, the
/// fleet and the dispatch template.
fn launch_args(flags: Flags) -> Result<Launch, UsageError> {
    let (params, config) = campaign(&flags)?;
    let faults = runner_faults(&flags)?;
    let hosts = flags
        .opt_str("hosts")
        .ok_or_else(|| usage_err("--hosts is required (e.g. --hosts alpha*2,beta)"))?;
    let hosts = parse_hosts(hosts).map_err(|e| usage_err(format!("--hosts: {e}")))?;
    flags.opt_positive_secs("hedge-after")?;
    flags.opt_count("quarantine-after")?;
    let exec = match flags.list("exec-arg") {
        [] => None,
        template => {
            Some(Exec::new(template.to_vec()).map_err(|e| usage_err(format!("--exec-arg: {e}")))?)
        }
    };
    Ok(Launch {
        flags,
        params,
        config,
        hosts,
        faults,
        exec,
    })
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

/// Rebuilds and writes the canonical `xbar-artifact/1` document for the
/// campaign from the [`Params`] the launch parsed — the ones `xbar run
/// table2 --json` parses from the same campaign flags — so the bytes are
/// identical (the merge is integer-exact; the rebuild path is shared with
/// the serving daemon).
fn write_canonical_artifact(
    path: &Path,
    params: &Params,
    merged: &MergedResult,
) -> Result<(), String> {
    let exp = find_experiment("table2").ok_or("table2 vanished from the registry")?;
    let artifact = table2_artifact_from_accums(&merged.circuits, merged.config.seed, exp, params)?;
    crate::atomic::write_atomic(path, artifact.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `xbar mc launch`: shards a campaign over a fleet of hosts, merges the
/// streamed partials flat
/// ([`merge_partials`](crate::shard::coordinator::merge_partials)), and
/// writes the merged stats artifact (plus, with `--artifact`, the
/// canonical experiment document). Returns the process exit code.
#[must_use]
pub fn launch_main(argv: Vec<String>) -> i32 {
    let launch = match LAUNCH.parse(argv, launch_args) {
        Ok(launch) => launch,
        Err(code) => return code,
    };
    let flags = &launch.flags;
    let mut cfg = match launch_config(flags, &launch.faults, launch.config, launch.hosts) {
        Ok(cfg) => cfg,
        Err(e) => return LAUNCH.reject(&e),
    };
    cfg.hedge_after = flags.opt_secs("hedge-after");
    cfg.quarantine_after = flags.usize("quarantine-after");
    cfg.probation = flags.secs("probation");
    let transport: Box<dyn Transport> = match launch.exec {
        Some(exec) => Box::new(exec),
        None => Box::new(LocalProc),
    };
    let transport = with_faults(transport, &launch.faults);

    println!(
        "launching {} samples as {} shard(s) over {} host(s) (seed {}, {:.0}% defects)",
        cfg.config.samples,
        cfg.shards,
        cfg.hosts.len(),
        cfg.config.seed,
        cfg.config.defect_rate * 100.0
    );
    let (merged, report) = match run_launch_with_report(&cfg, transport.as_ref()) {
        Ok(done) => done,
        Err(e) => return LAUNCH.fail(&e),
    };
    print_report(&report);
    if let Err(e) = write_merged(flags, &merged) {
        return LAUNCH.fail(&e);
    }
    if let Some(path) = flags.opt_str("artifact") {
        if let Err(e) = write_canonical_artifact(Path::new(path), &launch.params, &merged) {
            return LAUNCH.fail(&e);
        }
        println!("wrote {path}");
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::pool::{DEFAULT_PROBATION, DEFAULT_QUARANTINE_AFTER};
    use std::time::Duration;

    fn parse_launch_args(words: &[&str]) -> Result<Option<Launch>, UsageError> {
        let argv = words.iter().map(|s| (*s).to_owned()).collect();
        LAUNCH.try_parse(argv)?.map(launch_args).transpose()
    }

    #[test]
    fn launch_args_parse_the_fleet_and_policy_flags() {
        let args = parse_launch_args(&[
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
        ])
        .expect("parses")
        .expect("not help");
        assert_eq!(args.flags.str("hosts"), "alpha*2,beta");
        assert_eq!(args.hosts.len(), 2);
        assert_eq!(args.flags.usize("shards"), 5);
        assert_eq!(
            args.flags.opt_secs("hedge-after"),
            Some(Duration::from_millis(500))
        );
        assert_eq!(args.flags.usize("quarantine-after"), 2);
        assert_eq!(args.flags.secs("probation"), Duration::from_millis(1500));
        assert_eq!(
            args.flags.list("exec-arg"),
            ["ssh", "{host}", "{worker:sh}"]
        );
        assert!(args.exec.is_some());
        assert_eq!(args.faults.len(), 1);

        assert!(parse_launch_args(&["--help"]).expect("ok").is_none());
    }

    #[test]
    fn launch_flag_defaults_are_the_pool_defaults() {
        let flags = Flags::parse(&[RUNNER_PARAMS, LAUNCH_PARAMS], []).expect("defaults parse");
        assert_eq!(flags.usize("quarantine-after"), DEFAULT_QUARANTINE_AFTER);
        assert_eq!(flags.secs("probation"), DEFAULT_PROBATION);
        assert_eq!(flags.opt_secs("hedge-after"), None);
        assert_eq!(flags.opt_str("hosts"), None);
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
            assert!(parse_launch_args(words).is_err(), "{words:?}");
        }
    }

    #[test]
    fn launch_campaign_is_the_table2_params() {
        let args = parse_launch_args(&[
            "--hosts",
            "a",
            "--samples",
            "30",
            "--seed",
            "7",
            "--circuits",
            "rd53",
        ])
        .expect("parses")
        .expect("not help");
        let exp = find_experiment("table2").expect("registered");
        let run = Params::parse(exp.extra_params(), args.config.to_argv()).expect("parses");
        // The launch's params are exactly the ones `xbar run table2`
        // parses from the same campaign flags, so the rebuilt artifact
        // echoes the same `params` block.
        assert_eq!(args.params, run);
        assert_eq!(args.params.campaign.samples, 30);
        assert_eq!(args.params.campaign.seed, 7);
        assert_eq!(args.params.list("circuits"), ["rd53"]);
        assert_eq!(args.config.circuits, ["rd53"]);
    }
}
