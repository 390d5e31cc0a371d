//! The campaign runner: the one event loop every sharded Monte Carlo
//! run goes through — `xbar mc coordinate` (the one-host local fleet
//! `local*N`), `xbar mc launch` (any fleet and transport), and the
//! serving daemon's `table2` jobs. At most the fleet's slot total of
//! flights are live; each shard retries independently with the
//! deterministic [`backoff_delay`], a flight past
//! [`LaunchConfig::shard_timeout`] is cancelled and retried, and every
//! validated partial is checkpointed in the campaign's run directory for
//! [`LaunchConfig::resume`]. On top of that:
//!
//! * a flight's result is *untrusted bytes*: every returned stream is
//!   parsed and re-validated with [`ShardPartial::validate_for`], so a
//!   torn transfer is detected exactly like a torn local write;
//! * failures are charged to the host that produced them; the
//!   [`HostPool`] quarantines hosts that fail repeatedly so a dead node
//!   cannot eat a shard's whole retry budget;
//! * stragglers past [`LaunchConfig::hedge_after`] are re-dispatched on
//!   a *different* host — first valid partial wins, the loser is
//!   cancelled and discarded (the exact-tiling merge validation would
//!   reject its duplicate anyway).
//!
//! The winners are merged flat with [`merge_partials`]: the statistics
//! are integer counts, so no grouping of the partials could change a
//! byte. Per-host attribution comes from the pool's counters
//! ([`HostPool::counts`]), not from the merge.

use super::pool::{
    HostCount, HostHealth, HostPool, HostSpec, DEFAULT_PROBATION, DEFAULT_QUARANTINE_AFTER,
    NEVER_QUARANTINE,
};
use super::transport::{Transport, WorkerJob};
use crate::experiments::table2::CircuitAccum;
use crate::shard::coordinator::{
    backoff_delay, campaign_run_dir, default_work_dir, merge_partials, partial_path,
    preflight_run_dir, MergedResult, RunReport, Worker, DEFAULT_RETRY_BASE,
};
use crate::shard::partial::ShardPartial;
use crate::shard::{McConfig, ShardSpec};
use std::collections::VecDeque;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How often the scheduler polls flights when nothing has changed.
const POLL_INTERVAL: Duration = Duration::from_millis(4);

/// Runner configuration: the campaign, its retry/watchdog/resume knobs,
/// and the fleet with its health/hedging policy.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// The campaign every shard must agree on.
    pub config: McConfig,
    /// Number of sample-range shards.
    pub shards: usize,
    /// Attempts per shard (first run + retries) before giving up.
    pub max_attempts: usize,
    /// The worker every dispatch runs (binary + entry-point prefix).
    pub worker: Worker,
    /// Parent directory for run directories (checkpoints and resume live
    /// in [`campaign_run_dir`] beneath it). The runner creates it when
    /// missing but never removes it: only the run directory is its own.
    pub work_dir: PathBuf,
    /// Extra arguments appended to every worker invocation.
    pub extra_worker_args: Vec<String>,
    /// Keep partial files (and the run directory) after the merge.
    pub keep_partials: bool,
    /// Per-attempt wall-clock deadline; `None` disables the watchdog.
    pub shard_timeout: Option<Duration>,
    /// Re-dispatch a flight still running after this long onto a
    /// different host (first valid partial wins); `None` disables
    /// hedging.
    pub hedge_after: Option<Duration>,
    /// Reuse valid checkpoints already in the run directory.
    pub resume: bool,
    /// Base delay of the exponential retry backoff.
    pub retry_base: Duration,
    /// The fleet.
    pub hosts: Vec<HostSpec>,
    /// Consecutive failures that quarantine a host.
    pub quarantine_after: usize,
    /// How long a quarantined host sits out before probation.
    pub probation: Duration,
}

impl LaunchConfig {
    /// A runner over `hosts` with the defaults: three attempts per shard,
    /// no watchdog, no hedging, no resume, partials under
    /// [`default_work_dir`]. A multi-host fleet quarantines a host after
    /// [`DEFAULT_QUARANTINE_AFTER`] consecutive failures for
    /// [`DEFAULT_PROBATION`]; a one-host fleet never quarantines
    /// ([`NEVER_QUARANTINE`]) — it has nowhere to fail over to, so a
    /// sit-out would only stall the campaign.
    #[must_use]
    pub fn new(config: McConfig, shards: usize, hosts: Vec<HostSpec>, worker: Worker) -> Self {
        let quarantine_after = if hosts.len() == 1 {
            NEVER_QUARANTINE
        } else {
            DEFAULT_QUARANTINE_AFTER
        };
        Self {
            config,
            shards,
            max_attempts: 3,
            worker,
            work_dir: default_work_dir(),
            extra_worker_args: Vec::new(),
            keep_partials: false,
            shard_timeout: None,
            hedge_after: None,
            resume: false,
            retry_base: DEFAULT_RETRY_BASE,
            hosts,
            quarantine_after,
            probation: DEFAULT_PROBATION,
        }
    }
}

/// Runner counters: the base [`RunReport`] plus the fleet dimensions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaunchReport {
    /// The base counters (`spawned` counts dispatched flights).
    pub base: RunReport,
    /// Hedged duplicate dispatches for straggler shards.
    pub hedges: usize,
    /// Flights discarded without blame: hedge losers and late results
    /// for already-completed shards.
    pub discards: usize,
    /// Per-host dispatch counters, in fleet order.
    pub hosts: Vec<HostCount>,
}

/// The shard-describing worker flags every dispatch shares: the campaign
/// ([`McConfig::to_argv`]) plus the shard slice. Excludes `--out`: the
/// runner always streams the partial over stdout (`--out -`).
fn worker_shard_args(config: &McConfig, spec: &ShardSpec) -> Vec<String> {
    let mut args = config.to_argv();
    args.extend([
        "--shard-index".to_owned(),
        spec.index.to_string(),
        "--num-shards".to_owned(),
        spec.num_shards.to_string(),
    ]);
    args
}

/// A shard waiting (or backing off) for a dispatch slot.
#[derive(Debug, Clone, Copy)]
struct QueueItem {
    spec: ShardSpec,
    attempt: usize,
    ready_at: Instant,
}

/// One live flight.
struct FlightSlot {
    spec: ShardSpec,
    attempt: usize,
    host: usize,
    started: Instant,
    deadline: Option<Instant>,
    hedged: bool,
    flight: Box<dyn super::transport::Flight>,
}

struct Launcher<'a> {
    cfg: &'a LaunchConfig,
    transport: &'a dyn Transport,
    run_dir: PathBuf,
    pool: HostPool,
    queue: VecDeque<QueueItem>,
    flights: Vec<FlightSlot>,
    /// The validated winning partial per shard.
    partials: Vec<Option<ShardPartial>>,
    report: LaunchReport,
    permanent: Vec<usize>,
    last_error: String,
}

impl Launcher<'_> {
    fn job_for(&self, spec: &ShardSpec) -> WorkerJob {
        let mut args = self.cfg.worker.prefix_args.clone();
        args.extend(worker_shard_args(&self.cfg.config, spec));
        args.push("--out".to_owned());
        args.push("-".to_owned());
        args.extend(self.cfg.extra_worker_args.iter().cloned());
        WorkerJob {
            binary: self.cfg.worker.binary.clone(),
            args,
        }
    }

    /// Records a failed attempt for a shard with no surviving sibling
    /// flight: backoff retry while attempts remain, else permanent.
    fn note_shard_failure(&mut self, spec: ShardSpec, attempt: usize, error: &str) {
        self.last_error = format!("shard {} (attempt {attempt}): {error}", spec.index);
        eprintln!("mc: {}", self.last_error);
        if attempt < self.cfg.max_attempts {
            self.report.base.retries += 1;
            let delay = backoff_delay(
                self.cfg.config.seed,
                spec.index,
                attempt,
                self.cfg.retry_base,
            );
            self.queue.push_back(QueueItem {
                spec,
                attempt: attempt + 1,
                ready_at: Instant::now() + delay,
            });
        } else {
            self.permanent.push(spec.index);
        }
    }

    /// True when another live flight is still working on the shard.
    fn has_sibling(&self, shard: usize) -> bool {
        self.flights.iter().any(|f| f.spec.index == shard)
    }

    /// Dispatches one attempt of `spec` to the host at `host`. Returns
    /// true when a flight started.
    fn dispatch(&mut self, host: usize, spec: ShardSpec, attempt: usize, hedged: bool) -> bool {
        let job = self.job_for(&spec);
        self.pool.note_dispatch(host);
        let name = self.pool.name(host).to_owned();
        match self.transport.dispatch(&name, &job) {
            Ok(flight) => {
                self.report.base.spawned += 1;
                let now = Instant::now();
                self.flights.push(FlightSlot {
                    spec,
                    attempt,
                    host,
                    started: now,
                    deadline: self.cfg.shard_timeout.map(|t| now + t),
                    hedged,
                    flight,
                });
                true
            }
            Err(e) => {
                self.pool.note_failure(host);
                let error = format!("dispatch to {name} failed: {e}");
                if hedged || self.has_sibling(spec.index) {
                    // The primary flight is still working on the shard;
                    // the failed hedge costs the host, not the shard.
                    eprintln!("mc: shard {} hedge: {error}", spec.index);
                } else {
                    self.note_shard_failure(spec, attempt, &error);
                }
                false
            }
        }
    }

    /// Fills free host slots with due queue items.
    fn fill(&mut self) -> bool {
        let mut progressed = false;
        loop {
            let now = Instant::now();
            let Some(pos) = self.queue.iter().position(|item| item.ready_at <= now) else {
                break;
            };
            let Some(host) = self.pool.pick() else {
                break;
            };
            let item = self.queue.remove(pos).expect("position is in range");
            progressed = true;
            self.dispatch(host, item.spec, item.attempt, false);
        }
        self.report.base.max_inflight_observed = self
            .report
            .base
            .max_inflight_observed
            .max(self.flights.len());
        progressed
    }

    /// Cancels and discards every other flight still working on `shard`
    /// (the hedge losers once a winner landed).
    fn cancel_siblings(&mut self, shard: usize) {
        let mut index = 0;
        while index < self.flights.len() {
            if self.flights[index].spec.index == shard {
                let mut slot = self.flights.swap_remove(index);
                slot.flight.cancel();
                self.pool.note_discard(slot.host);
                self.report.discards += 1;
            } else {
                index += 1;
            }
        }
    }

    /// Handles one resolved flight.
    fn finish_flight(&mut self, mut slot: FlightSlot, result: Result<Vec<u8>, String>) {
        let host_name = self.pool.name(slot.host).to_owned();
        if self.partials[slot.spec.index].is_some() {
            // The shard is already done (a sibling won): whatever this
            // flight brought back is discarded unseen — the winner's
            // partial is checkpointed and merged, nothing else.
            self.pool.note_discard(slot.host);
            self.report.discards += 1;
            return;
        }
        let outcome = result.and_then(|bytes| {
            let text = String::from_utf8(bytes)
                .map_err(|e| format!("stream from {host_name} is not UTF-8: {e}"))?;
            let partial = ShardPartial::from_json(&text)
                .map_err(|e| format!("stream from {host_name}: {e}"))?;
            partial.validate_for(&self.cfg.config, &slot.spec)?;
            Ok((text, partial))
        });
        match outcome {
            Ok((text, partial)) => {
                // Checkpoint the winning partial in the run directory, so
                // `--resume` (and the service restart flow) can reuse it.
                let path = partial_path(&self.run_dir, slot.spec.index);
                if let Err(e) = crate::atomic::write_atomic(&path, text.as_bytes()) {
                    eprintln!("mc: cannot checkpoint {}: {e} (continuing)", path.display());
                }
                self.pool.note_success(slot.host);
                self.partials[slot.spec.index] = Some(partial);
                self.cancel_siblings(slot.spec.index);
            }
            Err(e) => {
                self.pool.note_failure(slot.host);
                if self.has_sibling(slot.spec.index) {
                    // A sibling is still flying: charge the host, let the
                    // sibling decide the shard's fate.
                    eprintln!(
                        "mc: shard {} ({}): {e}",
                        slot.spec.index,
                        if slot.hedged { "hedge" } else { "primary" }
                    );
                } else {
                    self.note_shard_failure(slot.spec, slot.attempt, &e);
                }
            }
        }
        // `slot.flight` is dropped here; a resolved ProcFlight has
        // already been reaped.
        slot.flight.cancel();
    }

    /// Polls every flight: resolves exits, kills flights past the
    /// watchdog deadline.
    fn reap(&mut self) -> bool {
        let mut progressed = false;
        let mut index = 0;
        while index < self.flights.len() {
            if let Some(result) = self.flights[index].flight.poll() {
                let slot = self.flights.swap_remove(index);
                progressed = true;
                self.finish_flight(slot, result);
                continue;
            }
            let overdue = self.flights[index]
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline);
            if overdue {
                let mut slot = self.flights.swap_remove(index);
                progressed = true;
                slot.flight.cancel();
                self.report.base.timeouts += 1;
                let timeout = self
                    .cfg
                    .shard_timeout
                    .expect("a deadline implies a configured timeout");
                self.pool.note_failure(slot.host);
                if self.partials[slot.spec.index].is_some() || self.has_sibling(slot.spec.index) {
                    // The shard is covered elsewhere; the hung flight
                    // costs only the host that stalled it.
                    eprintln!(
                        "mc: shard {} straggler on {} hit the {timeout:?} watchdog \
                         deadline; flight killed",
                        slot.spec.index,
                        self.pool.name(slot.host)
                    );
                } else {
                    self.note_shard_failure(
                        slot.spec,
                        slot.attempt,
                        &format!("hit the {timeout:?} watchdog deadline; flight killed"),
                    );
                }
            } else {
                index += 1;
            }
        }
        progressed
    }

    /// Re-dispatches stragglers: a flight past `hedge_after` whose shard
    /// has no sibling yet gets a duplicate on a *different* host.
    fn hedge(&mut self) -> bool {
        let Some(after) = self.cfg.hedge_after else {
            return false;
        };
        let now = Instant::now();
        let candidates: Vec<(ShardSpec, usize, usize)> = self
            .flights
            .iter()
            .filter(|f| {
                now.duration_since(f.started) >= after
                    && self.partials[f.spec.index].is_none()
                    && self
                        .flights
                        .iter()
                        .filter(|g| g.spec.index == f.spec.index)
                        .count()
                        == 1
            })
            .map(|f| (f.spec, f.attempt, f.host))
            .collect();
        let mut progressed = false;
        for (spec, attempt, straggler_host) in candidates {
            let Some(other) = self.pool.pick_filtered(&|i| i != straggler_host) else {
                continue;
            };
            if self.dispatch(other, spec, attempt, true) {
                self.report.hedges += 1;
                progressed = true;
                eprintln!(
                    "mc: shard {} straggling on {} — hedged onto {}",
                    spec.index,
                    self.pool.name(straggler_host),
                    self.pool.name(other)
                );
            }
        }
        progressed
    }

    /// When nothing moved, how long to sleep: the short poll tick while
    /// flights are live, else until the earliest backoff expiry — pushed
    /// out to the earliest probation expiry when the whole fleet is
    /// quarantined (the all-quarantined case must wait, not spin).
    fn idle_wait(&self) -> Duration {
        if !self.flights.is_empty() {
            return POLL_INTERVAL;
        }
        let now = Instant::now();
        let Some(ready) = self.queue.iter().map(|item| item.ready_at).min() else {
            return POLL_INTERVAL;
        };
        let all_quarantined =
            (0..self.pool.len()).all(|i| self.pool.health(i) == HostHealth::Quarantined);
        let wake = if all_quarantined {
            match self.pool.next_available_at() {
                Some(probation_end) => ready.max(probation_end),
                None => now + POLL_INTERVAL,
            }
        } else {
            ready
        };
        wake.saturating_duration_since(now).max(POLL_INTERVAL)
    }

    /// Kills and discards every live flight (fail-fast path; checkpoints
    /// on disk stay for `--resume`).
    fn abort_flights(&mut self) {
        for slot in &mut self.flights {
            slot.flight.cancel();
            self.pool.note_discard(slot.host);
        }
        self.flights.clear();
    }
}

/// Runs the campaign over the fleet and returns the merged result plus
/// the launch report. The merged artifact is byte-identical to a
/// monolithic run whatever faults occurred — every returned stream is
/// re-validated, duplicates cannot survive the exact-tiling merge, and
/// the statistics are integer-exact under any host assignment.
///
/// # Errors
///
/// Reports configuration problems, unwritable work directories, run
/// directories owned by a different campaign, and permanently failing
/// shards (with the last per-shard error, including dispatch-level
/// errors from the transport).
pub fn run_launch_with_report(
    cfg: &LaunchConfig,
    transport: &dyn Transport,
) -> Result<(MergedResult, LaunchReport), String> {
    if cfg.shards == 0 {
        return Err("need at least one shard".to_owned());
    }
    if cfg.max_attempts == 0 {
        return Err("need at least one attempt per shard".to_owned());
    }
    if cfg.hosts.is_empty() {
        return Err("need at least one host".to_owned());
    }
    if cfg.quarantine_after == 0 {
        return Err("need a quarantine threshold of at least one failure".to_owned());
    }
    cfg.config.validate()?;
    fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("cannot create work dir {}: {e}", cfg.work_dir.display()))?;
    let run_dir = campaign_run_dir(&cfg.work_dir, &cfg.config, cfg.shards);
    let host_strings: Vec<String> = cfg.hosts.iter().map(HostSpec::render).collect();
    // Held until this function returns: a concurrent runner on the same
    // campaign fails fast instead of racing on the run directory.
    let _lock = preflight_run_dir(&cfg.config, cfg.shards, &host_strings, &run_dir)?;

    let specs = ShardSpec::partition(cfg.config.samples, cfg.shards);
    let mut launcher = Launcher {
        cfg,
        transport,
        run_dir: run_dir.clone(),
        pool: HostPool::new(&cfg.hosts, cfg.quarantine_after, cfg.probation),
        queue: VecDeque::with_capacity(specs.len()),
        flights: Vec::new(),
        partials: vec![None; specs.len()],
        report: LaunchReport::default(),
        permanent: Vec::new(),
        last_error: String::new(),
    };

    let start = Instant::now();
    for spec in specs {
        if spec.is_empty() {
            // Empty shards (more shards than samples) need no dispatch.
            launcher.partials[spec.index] = Some(ShardPartial {
                config: cfg.config.clone(),
                spec,
                circuits: cfg
                    .config
                    .circuits
                    .iter()
                    .map(|name| (name.clone(), CircuitAccum::new()))
                    .collect(),
            });
        } else {
            if cfg.resume {
                let path = partial_path(&run_dir, spec.index);
                if let Ok(text) = fs::read_to_string(&path) {
                    if let Ok(partial) = ShardPartial::from_json(&text) {
                        if partial.validate_for(&cfg.config, &spec).is_ok() {
                            launcher.partials[spec.index] = Some(partial);
                            launcher.report.base.reused += 1;
                            continue;
                        }
                    }
                }
            }
            launcher.queue.push_back(QueueItem {
                spec,
                attempt: 1,
                ready_at: start,
            });
        }
    }

    // The event loop: dispatch due work onto healthy hosts, poll flights,
    // hedge stragglers, sleep only when nothing moved. Terminates because
    // every shard either completes or exhausts its attempts (quarantine
    // only *delays* dispatch until probation, never blocks it forever).
    while launcher.permanent.is_empty()
        && (!launcher.queue.is_empty() || !launcher.flights.is_empty())
    {
        let filled = launcher.fill();
        let reaped = launcher.reap();
        let hedged = launcher.hedge();
        if !filled && !reaped && !hedged {
            std::thread::sleep(launcher.idle_wait());
        }
    }

    if !launcher.permanent.is_empty() {
        launcher.abort_flights();
        launcher.permanent.sort_unstable();
        launcher.permanent.dedup();
        let indices: Vec<String> = launcher.permanent.iter().map(ToString::to_string).collect();
        return Err(format!(
            "shard(s) {} failed permanently after {} attempt(s); last error: {}",
            indices.join(", "),
            cfg.max_attempts,
            launcher.last_error
        ));
    }

    launcher.report.hosts = launcher.pool.counts();
    let report = launcher.report;
    let merged = merge_partials(&cfg.config, &take_collected(launcher.partials)?)?;
    if !cfg.keep_partials {
        // Only the run directory belongs to the runner; the caller's
        // work dir stays (it may hold the caller's `--out`).
        for index in 0..cfg.shards {
            let _ = fs::remove_file(partial_path(&run_dir, index));
        }
        let _ = fs::remove_file(run_dir.join("campaign.json"));
        let _ = fs::remove_file(run_dir.join("coordinator.lock"));
        let _ = fs::remove_dir(&run_dir);
    }
    Ok((merged, report))
}

/// Turns the runner's `Option`-slotted winners into the merge input,
/// surfacing a scheduling bug as an error (exit 1 with a message at the
/// CLI) instead of an unwrap panic.
fn take_collected(partials: Vec<Option<ShardPartial>>) -> Result<Vec<ShardPartial>, String> {
    partials
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.ok_or_else(|| {
                format!(
                    "internal runner invariant violated: shard {index} has no partial \
                     although scheduling reported the campaign complete — please report this bug"
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_partial_after_scheduling_is_an_invariant_error_not_a_panic() {
        let err = take_collected(vec![None]).expect_err("must be an error");
        assert!(err.contains("invariant"), "{err}");
        assert!(err.contains("shard 0"), "{err}");
    }
}
