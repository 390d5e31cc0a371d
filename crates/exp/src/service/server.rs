//! The `xbar serve` daemon: accept loop, worker pool, and job execution.
//!
//! Architecture: one accept thread blocks in `accept()` and spawns a
//! thread per connection (requests are line-oriented and short-lived; a
//! waiting `submit` blocks its thread on the queue's condvar, not on a
//! timer), and a fixed pool of `--max-inflight` worker threads pulls jobs
//! from the shared [`JobQueue`] — the pool size *is* the concurrency
//! bound. Shutdown drains the queue and wakes the blocked `accept()` with
//! one loopback connect.
//!
//! Execution reuses the existing machinery end to end. `table2` (the
//! flagship Monte Carlo workload) runs through the campaign runner
//! ([`run_launch_with_report`]) over the job fleet (`--launcher`,
//! default `local*{available parallelism}`) with a per-job run directory
//! under `<work-dir>/jobs/<cache-key>/` — the same `coordinator.lock`,
//! watchdog, retry, and resume semantics as `xbar mc coordinate` — and
//! the artifact is rebuilt from the merged accumulators via
//! [`table2_artifact_from_accums`], byte-identical to a monolithic
//! `xbar run` because the merge is integer-exact. Every other
//! experiment (and everything when `--in-process-jobs` is set) runs
//! in-process through [`Experiment::run`], which is the `xbar run` code
//! path itself. Either way the rendered artifact lands in the
//! [`ArtifactCache`] before the job is reported done, and the cache is
//! the only place it is kept: `result` replies read it from there. A
//! cache hit is answered from the bytes the lookup returned and creates
//! no job.
//!
//! Failure semantics: a daemon killed mid-job (SIGKILL, SIGTERM, power)
//! leaves shard checkpoints and a reclaimable `coordinator.lock` in the
//! job's run directory; restarting the daemon on the same `--work-dir`
//! and resubmitting resumes from those checkpoints. A client that
//! disconnects mid-wait detaches from the job, which keeps running and
//! caches its artifact — resubmitting coalesces onto it while it runs and
//! hits the cache once it is done. A request line over 256 KiB gets one
//! `error` reply and the connection closes. Its flags are one `FrontEnd`
//! table, like every `xbar` front-end's.

use crate::experiment::{
    find_experiment, spec, usage_err, Experiment, Flags, FrontEnd, ParamKind, ParamSpec, Params,
    Reporter, UsageError,
};
use crate::experiments::table2::table2_artifact_from_accums;
use crate::launch::cli::fault_plans;
use crate::launch::{
    parse_hosts, run_launch_with_report, with_faults, FaultPlan, HostCount, HostSpec, LaunchConfig,
    LocalProc,
};
use crate::service::cache::{cache_key, ArtifactCache};
use crate::service::protocol::{error_line, response, Request};
use crate::service::queue::{CacheDisposition, JobQueue, JobSnapshot, JobSpec, JobState};
use crate::shard::coordinator::{campaign_run_dir, default_worker, RunReport, Worker};
use crate::shard::json::Json;
use crate::shard::McConfig;
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a waiting `submit` reports `progress` while its job runs.
const PROGRESS_INTERVAL: Duration = Duration::from_millis(500);
/// How long the accept thread backs off after a failed `accept()` (e.g.
/// out of file descriptors), so a persistent error cannot spin it.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);
/// The longest request line the daemon reads, newline included. A submit
/// line is a few hundred bytes; the bound stops a peer that never sends a
/// newline from growing the daemon's memory until it disconnects.
const MAX_REQUEST_LINE: usize = 256 * 1024;

/// `xbar serve` configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address (`--listen`, default `127.0.0.1:7878`; port 0 binds
    /// an ephemeral port, reported on stdout and via
    /// [`ServiceHandle::addr`]).
    pub listen: String,
    /// Service state root (`--work-dir`): the artifact cache lives in
    /// `cache/`, per-job run dirs in `jobs/`. Reusing a work
    /// dir across restarts keeps the cache and resumes interrupted jobs.
    pub work_dir: PathBuf,
    /// Worker slots — jobs executing simultaneously (`--max-inflight`,
    /// default: available parallelism).
    pub max_inflight: usize,
    /// Shards per sharded job (`--job-shards`, default 4).
    pub job_shards: usize,
    /// Per-shard watchdog deadline (`--shard-timeout`, seconds).
    pub shard_timeout: Option<Duration>,
    /// Run every job in-process through the registry instead of spawning
    /// shard workers (`--in-process-jobs`) — no worker binary needed.
    pub in_process_jobs: bool,
    /// Extra arguments forwarded to every shard worker (`--worker-arg`,
    /// repeatable; the worker probes the tests use live here).
    pub worker_args: Vec<String>,
    /// The fleet every sharded job runs on (`--launcher SPEC`, same
    /// `name[*slots]` grammar as `xbar mc launch --hosts`; default
    /// `local*{available parallelism}`). Its slot total bounds the live
    /// shard workers within one job. Artifacts are byte-identical on any
    /// fleet.
    pub launcher_hosts: Vec<HostSpec>,
    /// Fault plans injected into the launcher transport
    /// (`--launcher-fault host=kind[@ordinal]`, repeatable; exists for
    /// the failure-injection smoke tests).
    pub launcher_faults: Vec<FaultPlan>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let parallelism =
            std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        Self {
            listen: "127.0.0.1:7878".to_owned(),
            work_dir: std::env::temp_dir().join("xbar-svc"),
            max_inflight: parallelism,
            job_shards: 4,
            shard_timeout: None,
            in_process_jobs: false,
            worker_args: Vec::new(),
            launcher_hosts: vec![HostSpec::local(parallelism)],
            launcher_faults: Vec::new(),
        }
    }
}

/// Shared daemon state.
#[derive(Debug)]
struct ServiceState {
    options: ServeOptions,
    /// The bound listen address (shutdown connects to it to wake the
    /// accept thread).
    addr: SocketAddr,
    queue: JobQueue,
    cache: ArtifactCache,
    jobs_dir: PathBuf,
    started: Instant,
}

impl ServiceState {
    /// Stops taking work: drains the queue (queued jobs are cancelled,
    /// running ones finish), then wakes the accept thread, blocked in
    /// `accept()`, with one loopback connect so it sees the drain and
    /// exits. An unspecified listen address (`0.0.0.0`, `::`) is reached
    /// through its family's loopback.
    fn shut_down(&self) {
        self.queue.drain("service shutting down");
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        let _ = TcpStream::connect(wake);
    }
}

/// A running service: bound address plus the handles needed to wait for
/// or force its shutdown. Dropping the handle does **not** stop the
/// daemon (threads are detached from the handle's lifetime until joined).
#[derive(Debug)]
pub struct ServiceHandle {
    state: Arc<ServiceState>,
    workers: Vec<JoinHandle<()>>,
    acceptor: JoinHandle<()>,
}

impl ServiceHandle {
    /// The bound listen address (resolves `--listen 127.0.0.1:0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Blocks until a `shutdown` request arrives, then drains: running
    /// jobs finish (their artifacts land in the cache), queued jobs are
    /// cancelled, worker threads and the accept loop exit.
    pub fn wait(self) {
        self.join_after_shutdown();
    }

    /// Requests shutdown (as if a `shutdown` message arrived) and drains.
    pub fn shutdown_and_wait(self) {
        self.state.shut_down();
        self.join_after_shutdown();
    }

    /// Joins the workers (they exit once the queue drains and their jobs
    /// finish) and the accept thread (it exits on the shutdown wake-up).
    fn join_after_shutdown(self) {
        for worker in self.workers {
            let _ = worker.join();
        }
        let _ = self.acceptor.join();
        // Connection threads are detached; give clients waiting on a job
        // that settled during the drain a beat to read its final line.
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// Binds the listener and starts the daemon threads.
///
/// # Errors
///
/// Reports an unusable listen address or work directory.
pub fn start(options: ServeOptions) -> Result<ServiceHandle, String> {
    if options.max_inflight == 0 {
        return Err("need at least one worker slot".to_owned());
    }
    if options.job_shards == 0 {
        return Err("need at least one shard per job".to_owned());
    }
    fs::create_dir_all(&options.work_dir)
        .map_err(|e| format!("cannot create work dir {}: {e}", options.work_dir.display()))?;
    let cache = ArtifactCache::open(&options.work_dir.join("cache"))?;
    let jobs_dir = options.work_dir.join("jobs");
    fs::create_dir_all(&jobs_dir)
        .map_err(|e| format!("cannot create jobs dir {}: {e}", jobs_dir.display()))?;
    let listener = TcpListener::bind(&options.listen)
        .map_err(|e| format!("cannot bind {}: {e}", options.listen))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;

    let state = Arc::new(ServiceState {
        options,
        addr,
        queue: JobQueue::new(),
        cache,
        jobs_dir,
        started: Instant::now(),
    });

    let workers = (0..state.options.max_inflight)
        .map(|_| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || worker_loop(&state))
        })
        .collect();
    let acceptor = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || accept_loop(&state, &listener))
    };
    Ok(ServiceHandle {
        state,
        workers,
        acceptor,
    })
}

fn accept_loop(state: &Arc<ServiceState>, listener: &TcpListener) {
    for stream in listener.incoming() {
        // The connection that wakes a draining daemon is not served.
        if state.queue.is_draining() {
            return;
        }
        match stream {
            Ok(stream) => {
                let state = Arc::clone(state);
                std::thread::spawn(move || handle_connection(&state, stream));
            }
            Err(e) => {
                eprintln!("xbar serve: accept error: {e}");
                state.queue.wait_draining(ACCEPT_RETRY);
            }
        }
    }
}

fn worker_loop(state: &Arc<ServiceState>) {
    while let Some(spec) = state.queue.next_job() {
        execute_job(state, &spec);
    }
}

fn handle_connection(state: &Arc<ServiceState>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    loop {
        // One byte past the bound tells an over-long line from one that
        // just fits.
        let mut bytes = Vec::new();
        match (&mut reader)
            .take(MAX_REQUEST_LINE as u64 + 1)
            .read_until(b'\n', &mut bytes)
        {
            Ok(0) | Err(_) => return, // client gone
            Ok(_) => {}
        }
        if bytes.len() > MAX_REQUEST_LINE {
            let _ = send(
                &mut writer,
                &error_line(&format!(
                    "request line longer than {MAX_REQUEST_LINE} bytes; closing the connection"
                )),
            );
            // Half-close, then discard (boundedly) what the peer already
            // sent: closing with unread input would reset the connection
            // and could destroy the reply before the peer reads it.
            let _ = writer.shutdown(Shutdown::Write);
            let _ = std::io::copy(
                &mut (&mut reader).take(16 * MAX_REQUEST_LINE as u64),
                &mut std::io::sink(),
            );
            return;
        }
        let Ok(line) = String::from_utf8(bytes) else {
            return; // not text: treat as a broken client
        };
        let line = line.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            continue;
        }
        let reply_ok = match Request::parse(line) {
            Err(e) => send(&mut writer, &error_line(&e)),
            Ok(request) => {
                let stop_after = matches!(request, Request::Shutdown);
                let ok = handle_request(state, &mut writer, request);
                if stop_after {
                    return;
                }
                ok
            }
        };
        if !reply_ok {
            return; // client disconnected; detach from any job
        }
    }
}

/// Writes one response line; false when the client is gone.
fn send(writer: &mut TcpStream, line: &str) -> bool {
    writeln!(writer, "{line}").is_ok() && writer.flush().is_ok()
}

fn handle_request(state: &Arc<ServiceState>, writer: &mut TcpStream, request: Request) -> bool {
    match request {
        Request::Submit {
            experiment,
            args,
            wait,
        } => handle_submit(state, writer, &experiment, args, wait),
        Request::Status { job } => {
            let line = match state.queue.snapshot(job) {
                None => no_such_job(job),
                Some(snap) => response("status", status_fields(&snap)),
            };
            send(writer, &line)
        }
        Request::ResultOf { job } => {
            send(writer, &result_line(state, job, state.queue.snapshot(job)))
        }
        Request::Cancel { job } => {
            let line = match state.queue.cancel(job) {
                Ok(()) => response("ok", vec![("job", Json::u64(job))]),
                Err(e) => error_line(&e),
            };
            send(writer, &line)
        }
        Request::Stats => send(writer, &stats_line(state)),
        Request::Shutdown => {
            state.shut_down();
            send(writer, &response("ok", Vec::new()))
        }
    }
}

fn handle_submit(
    state: &Arc<ServiceState>,
    writer: &mut TcpStream,
    experiment: &str,
    args: Vec<String>,
    wait: bool,
) -> bool {
    let Some(exp) = find_experiment(experiment) else {
        return send(
            writer,
            &error_line(&format!(
                "unknown experiment {experiment:?} (see `xbar list`)"
            )),
        );
    };
    // Output routing is the client's business: the daemon produces one
    // canonical artifact per request, cached and served as bytes.
    if let Some(flag) = args
        .iter()
        .find(|a| ["--json", "--out", "--csv"].contains(&a.as_str()))
    {
        return send(
            writer,
            &error_line(&format!(
                "{flag} is not accepted by the service: output routing is client-side \
                 (use `xbar submit --wait` / `--out`)"
            )),
        );
    }
    let params = match Params::parse(exp.extra_params(), args) {
        Ok(params) => params,
        Err(e) => return send(writer, &error_line(&format!("bad parameters: {e}"))),
    };
    let key = cache_key(exp, &params);

    // A hit is answered from the bytes just read; it runs nothing and so
    // gets no job.
    if let Some(artifact) = state.cache.lookup(&key) {
        state.queue.count_cache_hit();
        let hit = || ("cache", Json::str(CacheDisposition::Hit.as_str()));
        let submitted = response("submitted", vec![hit(), ("state", Json::str("done"))]);
        let result = response("result", vec![hit(), ("artifact", Json::str(artifact))]);
        return send(writer, &submitted) && (!wait || send(writer, &result));
    }

    let Some((id, disposition)) = state.queue.submit(exp, params, key) else {
        return send(writer, &error_line("service is shutting down"));
    };
    let job_state = state
        .queue
        .snapshot(id)
        .map_or(JobState::Queued, |s| s.state);
    let submitted = response(
        "submitted",
        vec![
            ("job", Json::u64(id)),
            ("cache", Json::str(disposition.as_str())),
            ("state", Json::str(job_state.as_str())),
        ],
    );
    send(writer, &submitted) && (!wait || stream_until_settled(state, writer, id))
}

/// Follows a job until it settles: a `progress` event every
/// [`PROGRESS_INTERVAL`] while it is live (blocking on the queue in
/// between, so the final line goes out the moment the job settles), then
/// the `result`/`error` line. Progress counts the shard partials already
/// checkpointed in the job's run directory — the same numbers
/// [`RunReport`] summarizes at the end.
fn stream_until_settled(state: &Arc<ServiceState>, writer: &mut TcpStream, id: u64) -> bool {
    let mut snap = state.queue.snapshot(id);
    while let Some(live) = snap.as_ref().filter(|s| !s.state.is_terminal()) {
        let (done, total) = shard_progress(live);
        let progress = response(
            "progress",
            vec![
                ("job", Json::u64(id)),
                ("state", Json::str(live.state.as_str())),
                ("shards_done", Json::usize(done)),
                ("shards", Json::usize(total)),
                ("elapsed_ms", Json::u64(live.elapsed_ms)),
            ],
        );
        if !send(writer, &progress) {
            return false; // client gone; the job keeps running
        }
        snap = state.queue.wait_settled(id, PROGRESS_INTERVAL);
    }
    send(writer, &result_line(state, id, snap))
}

/// Counts checkpointed shard partials for a running sharded job.
fn shard_progress(snap: &JobSnapshot) -> (usize, usize) {
    let Some(run_dir) = &snap.run_dir else {
        return (0, snap.shards);
    };
    let done = fs::read_dir(run_dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.starts_with("partial-") && name.ends_with(".json")
            })
            .count()
    });
    (done, snap.shards)
}

fn no_such_job(id: u64) -> String {
    error_line(&format!("no such job {id}"))
}

/// Every job record is an executed job: a hit creates none and a
/// coalesced submit joins an existing one.
fn job_cache_field() -> (&'static str, Json) {
    ("cache", Json::str(CacheDisposition::Miss.as_str()))
}

/// The `result` reply for job `id`: the artifact, read from the cache
/// (plus the runner counters and host attribution when it ran sharded),
/// or an `error` line when the job is unknown, not done, or its cache
/// entry is gone.
fn result_line(state: &ServiceState, id: u64, snap: Option<JobSnapshot>) -> String {
    let Some(snap) = snap else {
        return no_such_job(id);
    };
    match snap.state {
        JobState::Done => match state.cache.lookup(&snap.key) {
            Some(artifact) => {
                let mut fields = vec![("job", Json::u64(id)), job_cache_field()];
                fields.extend(runner_fields(&snap));
                fields.push(("artifact", Json::str(artifact)));
                response("result", fields)
            }
            None => error_line(&format!(
                "job {id} is done but its artifact {} is no longer in the cache",
                snap.key.name
            )),
        },
        JobState::Failed | JobState::Cancelled => error_line(&format!(
            "job {id} {}: {}",
            snap.state.as_str(),
            snap.error.as_deref().unwrap_or("no details")
        )),
        JobState::Queued | JobState::Running => error_line(&format!(
            "job {id} is still {} (use status, or submit with wait)",
            snap.state.as_str()
        )),
    }
}

fn status_fields(snap: &JobSnapshot) -> Vec<(&'static str, Json)> {
    let (done, total) = shard_progress(snap);
    let mut fields = vec![
        ("job", Json::u64(snap.id)),
        ("experiment", Json::str(snap.experiment)),
        ("state", Json::str(snap.state.as_str())),
        job_cache_field(),
        ("shards_done", Json::usize(done)),
        ("shards", Json::usize(total)),
        ("elapsed_ms", Json::u64(snap.elapsed_ms)),
    ];
    fields.extend(runner_fields(snap));
    if let Some(error) = &snap.error {
        fields.push(("error", Json::str(error.clone())));
    }
    fields
}

/// The runner's counters and per-host dispatch attribution (from its
/// [`HostCount`]s) for a job that ran sharded, as `result` and `status`
/// response fields.
fn runner_fields(snap: &JobSnapshot) -> Vec<(&'static str, Json)> {
    let mut fields = Vec::new();
    if let Some(report) = &snap.report {
        fields.extend([
            ("spawned", Json::usize(report.spawned)),
            ("reused", Json::usize(report.reused)),
            ("retries", Json::usize(report.retries)),
            ("timeouts", Json::usize(report.timeouts)),
        ]);
    }
    if !snap.hosts.is_empty() {
        let hosts = snap.hosts.iter().map(|h| {
            Json::obj([
                ("host", Json::str(&h.name)),
                ("dispatched", Json::usize(h.dispatched)),
                ("completed", Json::usize(h.completed)),
                ("failed", Json::usize(h.failed)),
                ("quarantines", Json::usize(h.quarantines)),
            ])
        });
        fields.push(("hosts", Json::arr(hosts)));
    }
    fields
}

fn stats_line(state: &Arc<ServiceState>) -> String {
    let stats = state.queue.stats();
    let uptime = u64::try_from(state.started.elapsed().as_millis()).unwrap_or(u64::MAX);
    response(
        "stats",
        vec![
            ("submitted", Json::u64(stats.submitted)),
            ("completed", Json::u64(stats.completed)),
            ("failed", Json::u64(stats.failed)),
            ("cancelled", Json::u64(stats.cancelled)),
            ("cache_hits", Json::u64(stats.cache_hits)),
            ("coalesced", Json::u64(stats.coalesced)),
            ("running", Json::usize(stats.running)),
            ("queued", Json::usize(stats.queued)),
            (
                "max_running_observed",
                Json::usize(stats.max_running_observed),
            ),
            ("shard_spawned", Json::u64(stats.shard_spawned)),
            ("shard_reused", Json::u64(stats.shard_reused)),
            ("shard_retries", Json::u64(stats.shard_retries)),
            ("shard_timeouts", Json::u64(stats.shard_timeouts)),
            ("worker_slots", Json::usize(state.options.max_inflight)),
            ("cache_entries", Json::usize(state.cache.len())),
            ("uptime_ms", Json::u64(uptime)),
        ],
    )
}

fn execute_job(state: &Arc<ServiceState>, spec: &JobSpec) {
    match run_job(state, spec) {
        Ok((report, hosts)) => state.queue.finish(spec.id, report, hosts),
        Err(e) => state.queue.fail(spec.id, e),
    }
}

/// Runs a job and stores its artifact in the cache.
fn run_job(
    state: &Arc<ServiceState>,
    spec: &JobSpec,
) -> Result<(Option<RunReport>, Vec<HostCount>), String> {
    // `table2` runs sharded through the campaign runner over the job
    // fleet (checkpoints, retry, resume) unless the daemon was told to
    // stay in-process. Every other experiment runs through the registry
    // directly — the exact `xbar run` code path, so the artifact is
    // byte-identical by construction. A missing worker binary degrades to
    // in-process too, so a daemon started from an unusual location still
    // serves.
    let sharded = !state.options.in_process_jobs && spec.exp.name() == "table2";
    let (artifact, report, hosts) = if sharded {
        match default_worker() {
            Ok(worker) => run_sharded_table2(state, spec, worker)?,
            Err(e) => {
                eprintln!(
                    "xbar serve: no shard worker ({e}); running job {} in-process",
                    spec.id
                );
                (run_in_process(spec.exp, &spec.params)?, None, Vec::new())
            }
        }
    } else {
        (run_in_process(spec.exp, &spec.params)?, None, Vec::new())
    };

    // Cache before reporting done: once a client can observe "done", a
    // repeated submit must hit, and `result` reads the artifact from here.
    state.cache.store(&spec.key, &artifact)?;
    Ok((report, hosts))
}

fn run_in_process(exp: &dyn Experiment, params: &Params) -> Result<String, String> {
    let artifact = exp
        .run(params, &mut Reporter::quiet())
        .map_err(|e| match e {
            crate::experiment::ExpError::Usage(m) => format!("bad parameters: {m}"),
            crate::experiment::ExpError::Failed(m) => m,
        })?;
    Ok(artifact.render(exp, params))
}

/// Runs a `table2` job through the campaign runner over the job fleet
/// and rebuilds the canonical artifact from the merged accumulators. The
/// job's run directory persists (`keep_partials`) until the artifact is
/// safely cached, so a daemon killed mid-job resumes instead of
/// restarting from sample zero.
fn run_sharded_table2(
    state: &Arc<ServiceState>,
    spec: &JobSpec,
    worker: Worker,
) -> Result<(String, Option<RunReport>, Vec<HostCount>), String> {
    let config = McConfig::from_params(&spec.params).map_err(|e| e.to_string())?;
    let job_dir = state.jobs_dir.join(&spec.key.name);
    let mut cfg = LaunchConfig::new(
        config,
        state.options.job_shards,
        state.options.launcher_hosts.clone(),
        worker,
    );
    cfg.work_dir = job_dir.clone();
    cfg.extra_worker_args = state.options.worker_args.clone();
    cfg.keep_partials = true;
    cfg.shard_timeout = state.options.shard_timeout;
    cfg.resume = true;
    state.queue.set_run_dir(
        spec.id,
        campaign_run_dir(&cfg.work_dir, &cfg.config, cfg.shards),
        cfg.shards,
    );
    let transport = with_faults(Box::new(LocalProc), &state.options.launcher_faults);
    let (merged, report) = run_launch_with_report(&cfg, transport.as_ref())?;
    let artifact =
        table2_artifact_from_accums(&merged.circuits, cfg.config.seed, spec.exp, &spec.params)?;

    // The checkpoints have served their purpose once the artifact exists;
    // the caller caches it before reporting done, and the cache — not the
    // run dir — is the durable record.
    let _ = fs::remove_dir_all(&job_dir);
    Ok((artifact, Some(report.base), report.hosts))
}

const SERVE_PARAMS: &[ParamSpec] = &[
    spec(
        "listen",
        ParamKind::Str,
        "127.0.0.1:7878",
        "listen address (port 0 picks a free port, reported on stdout)",
    ),
    spec(
        "work-dir",
        ParamKind::Str,
        "",
        "service state root: artifact cache + per-job run dirs (default \
         <temp>/xbar-svc; reuse it across restarts to keep the cache and resume \
         interrupted jobs)",
    ),
    spec(
        "max-inflight",
        ParamKind::USize,
        "",
        "jobs executing at once (default: available parallelism)",
    ),
    spec(
        "job-shards",
        ParamKind::USize,
        "4",
        "shards per sharded job",
    ),
    spec(
        "shard-timeout",
        ParamKind::Secs,
        "",
        "per-shard watchdog seconds, fractional ok (default: no watchdog)",
    ),
    spec(
        "in-process-jobs",
        ParamKind::Flag,
        "false",
        "run jobs in-process instead of spawning shard workers",
    ),
    spec(
        "worker-arg",
        ParamKind::Repeated,
        "",
        "extra argument for every shard worker (used by the worker-probe tests)",
    ),
    spec(
        "launcher",
        ParamKind::Str,
        "",
        "the fleet sharded jobs run on (same `name[*slots],...` grammar as \
         `xbar mc launch --hosts`; default local*<available parallelism>); its slot \
         total bounds the live shard workers within one job, e.g. `--launcher \
         local*1` serializes them",
    ),
    spec(
        "launcher-fault",
        ParamKind::Repeated,
        "",
        "inject a transport fault `host=kind[@ordinal]`, kind \
         drop|crash|stall|truncate|die (used by the failure-injection smokes)",
    ),
];

const SERVE: FrontEnd = FrontEnd {
    command: "serve",
    about: "xbar serve: yield-oracle daemon over the sharded Monte Carlo engine\n\n\
            Speaks newline-delimited JSON (schema xbar-svc/1) on a TCP socket; use\n\
            `xbar submit` as the client. Artifacts are cached content-addressed in\n\
            the work dir, so repeated submissions are answered byte-identical\n\
            without re-running anything.",
    sections: &[("flags", SERVE_PARAMS)],
};

/// The daemon configuration `xbar serve`'s flags describe, on top of
/// [`ServeOptions::default`].
fn serve_options(flags: Flags) -> Result<ServeOptions, UsageError> {
    let defaults = ServeOptions::default();
    Ok(ServeOptions {
        listen: flags.str("listen").to_owned(),
        work_dir: flags
            .opt_str("work-dir")
            .map_or(defaults.work_dir, PathBuf::from),
        max_inflight: flags
            .opt_count("max-inflight")?
            .unwrap_or(defaults.max_inflight),
        job_shards: flags
            .opt_count("job-shards")?
            .unwrap_or(defaults.job_shards),
        shard_timeout: flags.opt_positive_secs("shard-timeout")?,
        in_process_jobs: flags.flag("in-process-jobs"),
        worker_args: flags.list("worker-arg").to_vec(),
        launcher_hosts: match flags.opt_str("launcher") {
            Some(hosts) => parse_hosts(hosts).map_err(|e| usage_err(format!("--launcher: {e}")))?,
            None => defaults.launcher_hosts,
        },
        launcher_faults: fault_plans(&flags, "launcher-fault")?,
    })
}

/// `xbar serve`: parses flags, starts the daemon, and blocks until a
/// `shutdown` request drains it. Returns the process exit code. The
/// first stdout line reports the bound address (`listening on HOST:PORT`)
/// so scripts driving `--listen 127.0.0.1:0` can discover the port.
#[must_use]
pub fn serve_main(argv: Vec<String>) -> i32 {
    let options = match SERVE.parse(argv, serve_options) {
        Ok(options) => options,
        Err(code) => return code,
    };
    let work_dir = options.work_dir.clone();
    let slots = options.max_inflight;
    let handle = match start(options) {
        Ok(handle) => handle,
        Err(e) => return SERVE.fail(&e),
    };
    // Ignore stdout write errors: a supervisor that read the address off
    // the first line and closed the pipe must not take the daemon down
    // with an EPIPE panic mid-serve.
    let mut stdout = std::io::stdout();
    let _ = writeln!(stdout, "xbar serve: listening on {}", handle.addr());
    let _ = writeln!(
        stdout,
        "xbar serve: {slots} worker slot(s), state in {}",
        work_dir.display()
    );
    let _ = stdout.flush();
    handle.wait();
    let _ = writeln!(std::io::stdout(), "xbar serve: drained, exiting");
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::protocol::PROTOCOL;
    use crate::shard::json::Json;

    fn parse_serve_args(argv: Vec<String>) -> Result<Option<ServeOptions>, UsageError> {
        SERVE.try_parse(argv)?.map(serve_options).transpose()
    }

    #[test]
    fn serve_args_parse_and_reject_degenerate_values() {
        let argv: Vec<String> = [
            "--listen",
            "127.0.0.1:0",
            "--work-dir",
            "/tmp/svc",
            "--max-inflight",
            "2",
            "--job-shards",
            "3",
            "--shard-timeout",
            "2.5",
            "--in-process-jobs",
            "--worker-arg",
            "--inject-slow-ms",
            "--worker-arg",
            "50",
            "--launcher",
            "alpha*2,beta",
            "--launcher-fault",
            "beta=die@1",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let options = parse_serve_args(argv).expect("parses").expect("not help");
        let defaults = parse_serve_args(Vec::new())
            .expect("parses")
            .expect("not help");
        let built_in = ServeOptions::default();
        assert_eq!(defaults.listen, built_in.listen);
        assert_eq!(defaults.work_dir, built_in.work_dir);
        assert_eq!(defaults.max_inflight, built_in.max_inflight);
        assert_eq!(defaults.job_shards, built_in.job_shards);
        assert_eq!(defaults.launcher_hosts.len(), 1);
        assert_eq!(options.listen, "127.0.0.1:0");
        assert_eq!(options.work_dir, PathBuf::from("/tmp/svc"));
        assert_eq!(options.max_inflight, 2);
        assert_eq!(options.job_shards, 3);
        assert_eq!(options.shard_timeout, Some(Duration::from_millis(2500)));
        assert!(options.in_process_jobs);
        assert_eq!(options.worker_args, ["--inject-slow-ms", "50"]);
        let hosts = options.launcher_hosts;
        assert_eq!(hosts.len(), 2);
        assert_eq!(hosts[0].name, "alpha");
        assert_eq!(hosts[0].slots, 2);
        assert_eq!(options.launcher_faults.len(), 1);
        assert_eq!(options.launcher_faults[0].host, "beta");

        assert!(parse_serve_args(vec!["--help".to_owned()])
            .expect("ok")
            .is_none());
        for words in [
            &["--max-inflight", "0"][..],
            &["--job-shards", "0"][..],
            &["--job-max-inflight", "1"][..],
            &["--shard-timeout", "0"][..],
            &["--shard-timeout", "soon"][..],
            &["--listen"][..],
            &["--launcher", ""][..],
            &["--launcher", "a*0"][..],
            &["--launcher-fault", "beta"][..],
            &["--launcher-fault", "beta=melt"][..],
            &["--frobnicate"][..],
        ] {
            let argv = words.iter().map(|s| (*s).to_owned()).collect();
            assert!(parse_serve_args(argv).is_err(), "{words:?} must fail");
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xbar-serve-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn request_lines(addr: SocketAddr, request: &str, expect: usize) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{request}").expect("send");
        stream.flush().expect("flush");
        let reader = BufReader::new(stream);
        let mut lines = Vec::new();
        for line in reader.lines() {
            lines.push(line.expect("read"));
            if lines.len() == expect {
                break;
            }
        }
        lines
    }

    /// End-to-end over a real socket, in-process jobs: submit runs the
    /// experiment, a repeat submit is a cache hit with identical bytes,
    /// and stats/errors/shutdown behave.
    #[test]
    fn service_round_trip_cache_hit_and_shutdown() {
        let work_dir = scratch("roundtrip");
        let handle = start(ServeOptions {
            listen: "127.0.0.1:0".to_owned(),
            work_dir: work_dir.clone(),
            max_inflight: 1,
            in_process_jobs: true,
            ..ServeOptions::default()
        })
        .expect("starts");
        let addr = handle.addr();

        let submit = Request::Submit {
            experiment: "table2".to_owned(),
            args: ["--quick", "--circuits", "rd53"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            wait: true,
        }
        .render();
        let assert_type = |line: &str, want: &str| {
            let doc = Json::parse(line).expect("parses");
            assert_eq!(doc.get("svc").and_then(Json::as_str), Some(PROTOCOL));
            assert_eq!(doc.get("type").and_then(Json::as_str), Some(want), "{line}");
        };

        // Cold: submitted (miss) ... progress* ... result.
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{submit}").expect("send");
        let mut lines = BufReader::new(stream.try_clone().expect("clone")).lines();
        let submitted = lines.next().expect("line").expect("read");
        assert_type(&submitted, "submitted");
        assert!(submitted.contains("\"cache\": \"miss\""), "{submitted}");
        let cold = loop {
            let line = lines.next().expect("line").expect("read");
            let doc = Json::parse(&line).expect("parses");
            match doc.get("type").and_then(Json::as_str) {
                Some("progress") => {}
                Some("result") => break line,
                other => panic!("unexpected {other:?}: {line}"),
            }
        };
        drop(lines);
        let artifact_of = |result_line: &str| -> String {
            Json::parse(result_line)
                .expect("parses")
                .get("artifact")
                .and_then(Json::as_str)
                .expect("artifact field")
                .to_owned()
        };
        let cold_artifact = artifact_of(&cold);
        assert!(
            cold_artifact.contains("\"schema\": \"xbar-artifact/1\""),
            "served artifact is the canonical envelope"
        );

        // Warm: answered from the cache, byte-identical, no new job run.
        let warm = request_lines(addr, &submit, 2);
        assert_type(&warm[0], "submitted");
        assert!(warm[0].contains("\"cache\": \"hit\""), "{}", warm[0]);
        assert_type(&warm[1], "result");
        assert_eq!(artifact_of(&warm[1]), cold_artifact, "cache serves bytes");

        // Stats reflect exactly one execution and one hit, and the line is
        // compact enough to grep.
        let stats = request_lines(addr, &Request::Stats.render(), 1);
        assert_type(&stats[0], "stats");
        assert!(stats[0].contains("\"cache_hits\": 1"), "{}", stats[0]);
        assert!(stats[0].contains("\"completed\": 1"), "{}", stats[0]);
        assert!(stats[0].contains("\"worker_slots\": 1"), "{}", stats[0]);

        // Unknown experiment and rejected output flags are clean errors.
        let bad = Request::Submit {
            experiment: "nope".to_owned(),
            args: Vec::new(),
            wait: false,
        };
        let err = request_lines(addr, &bad.render(), 1);
        assert_type(&err[0], "error");
        assert!(err[0].contains("unknown experiment"), "{}", err[0]);
        let routed = Request::Submit {
            experiment: "table2".to_owned(),
            args: vec!["--json".to_owned()],
            wait: false,
        };
        let err = request_lines(addr, &routed.render(), 1);
        assert!(err[0].contains("output routing"), "{}", err[0]);

        let ok = request_lines(addr, &Request::Shutdown.render(), 1);
        assert_type(&ok[0], "ok");
        handle.wait();
        let _ = fs::remove_dir_all(&work_dir);
    }

    /// A cold daemon on a work dir whose cache already holds the artifact
    /// answers without running anything — the cache is durable state, not
    /// a per-process memo.
    #[test]
    fn cache_survives_a_daemon_restart() {
        let work_dir = scratch("restart");
        let exp = find_experiment("table2").expect("registered");
        let args = vec![
            "--quick".to_owned(),
            "--circuits".to_owned(),
            "squar5".to_owned(),
        ];
        let params = Params::parse(exp.extra_params(), args.iter().cloned()).expect("parses");
        let key = cache_key(exp, &params);
        let cache = ArtifactCache::open(&work_dir.join("cache")).expect("open");
        cache
            .store(&key, "prior incarnation's artifact\n")
            .expect("store");

        let handle = start(ServeOptions {
            listen: "127.0.0.1:0".to_owned(),
            work_dir: work_dir.clone(),
            max_inflight: 1,
            in_process_jobs: true,
            ..ServeOptions::default()
        })
        .expect("starts");
        let lines = request_lines(
            handle.addr(),
            &Request::Submit {
                experiment: "table2".to_owned(),
                args,
                wait: true,
            }
            .render(),
            2,
        );
        assert!(lines[0].contains("\"cache\": \"hit\""), "{}", lines[0]);
        assert!(
            lines[1].contains("prior incarnation's artifact"),
            "{}",
            lines[1]
        );
        handle.shutdown_and_wait();
        let _ = fs::remove_dir_all(&work_dir);
    }
}
