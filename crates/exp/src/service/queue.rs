//! The daemon's FIFO job queue with coalescing.
//!
//! One [`JobQueue`] is shared (behind a mutex + condvar) by the accept
//! loop's connection threads (producers) and the bounded pool of worker
//! threads (consumers) — the worker-thread count *is* the slot bound, so
//! concurrency can never exceed `--max-inflight` by construction; the
//! queue just records the running count so the bound is observable in
//! `stats`.
//!
//! Jobs run in arrival order. The one refinement is **coalescing**: a
//! submit whose cache key matches a job already queued or running joins
//! that job instead of enqueueing a duplicate — the
//! deterministic-artifact contract makes the two requests
//! indistinguishable, so running both would be pure waste. (There is no
//! batch reordering: every sharded job spawns fresh worker processes, so
//! no prepared cover or function matrix survives from one job to the
//! next for a reordering to reuse.)
//!
//! Only executed jobs get a record, and a record holds no artifact: a
//! finished job's bytes live in the artifact cache under the record's
//! [`CacheKey`]. A cache hit is only counted. The table keeps every live
//! job and the [`MAX_SETTLED`] most recently settled ones; older ids
//! answer "no such job". Every state change a waiter cares about
//! notifies the condvar, so [`JobQueue::wait_settled`] blocks on events
//! rather than polling.

use crate::experiment::{Experiment, Params};
use crate::launch::HostCount;
use crate::service::cache::CacheKey;
use crate::shard::coordinator::RunReport;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How many settled (done, failed or cancelled) jobs the table
/// remembers; the oldest is forgotten first. Queued and running jobs are
/// never forgotten.
pub const MAX_SETTLED: usize = 1024;

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker slot.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the artifact is in the cache.
    Done,
    /// Execution failed; see the error message.
    Failed,
    /// Cancelled while queued (explicitly or by shutdown).
    Cancelled,
}

impl JobState {
    /// Wire name of the state.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// True for states a job can never leave.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// How a submit was answered — recorded per job and echoed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Answered from the artifact cache without any work.
    Hit,
    /// A fresh job was enqueued.
    Miss,
    /// Joined an identical job already queued or running.
    Coalesced,
}

impl CacheDisposition {
    /// Wire name of the disposition.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Coalesced => "coalesced",
        }
    }
}

/// What a worker thread needs to execute a job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job id.
    pub id: u64,
    /// The registry experiment to run.
    pub exp: &'static dyn Experiment,
    /// Its parsed parameters.
    pub params: Params,
    /// The cache entry the artifact is stored under.
    pub key: CacheKey,
}

/// An observable copy of a job's current state.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Job id.
    pub id: u64,
    /// Registry experiment name.
    pub experiment: &'static str,
    /// Lifecycle state.
    pub state: JobState,
    /// Failure message, for [`JobState::Failed`] / [`JobState::Cancelled`].
    pub error: Option<String>,
    /// The cache entry holding the artifact once [`JobState::Done`].
    pub key: CacheKey,
    /// Run directory, once execution has planned one (lets progress
    /// reporting count shard checkpoints as they land).
    pub run_dir: Option<PathBuf>,
    /// Shard count of the sharded run (0 for in-process execution).
    pub shards: usize,
    /// Runner scheduling counters, once finished.
    pub report: Option<RunReport>,
    /// Per-host dispatch attribution, when the job ran sharded (empty for
    /// in-process runs).
    pub hosts: Vec<HostCount>,
    /// Milliseconds since the job started running (or was submitted, if
    /// still queued); frozen at completion.
    pub elapsed_ms: u64,
}

/// Daemon-wide counters, served verbatim as the `stats` response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Submits accepted (including cache hits and coalesced joins).
    pub submitted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Submits answered from the artifact cache.
    pub cache_hits: u64,
    /// Submits coalesced onto an identical in-flight job.
    pub coalesced: u64,
    /// Jobs currently executing.
    pub running: usize,
    /// Jobs currently waiting for a slot.
    pub queued: usize,
    /// Peak simultaneous running jobs observed.
    pub max_running_observed: usize,
    /// Shard workers spawned across all sharded jobs.
    pub shard_spawned: u64,
    /// Checkpointed shard partials reused across all sharded jobs.
    pub shard_reused: u64,
    /// Shard retry dispatches across all sharded jobs.
    pub shard_retries: u64,
    /// Shard watchdog timeouts across all sharded jobs.
    pub shard_timeouts: u64,
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    error: Option<String>,
    run_dir: Option<PathBuf>,
    shards: usize,
    report: Option<RunReport>,
    hosts: Vec<HostCount>,
    submitted_at: Instant,
    started_at: Option<Instant>,
    finished_ms: Option<u64>,
}

impl JobEntry {
    fn elapsed_ms(&self) -> u64 {
        if let Some(frozen) = self.finished_ms {
            return frozen;
        }
        let since = self.started_at.unwrap_or(self.submitted_at);
        u64::try_from(since.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn snapshot(&self) -> JobSnapshot {
        JobSnapshot {
            id: self.spec.id,
            experiment: self.spec.exp.name(),
            state: self.state,
            error: self.error.clone(),
            key: self.spec.key.clone(),
            run_dir: self.run_dir.clone(),
            shards: self.shards,
            report: self.report,
            hosts: self.hosts.clone(),
            elapsed_ms: self.elapsed_ms(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    jobs: BTreeMap<u64, JobEntry>,
    /// Queued job ids in arrival order.
    fifo: VecDeque<u64>,
    /// Settled job ids, oldest first; at most [`MAX_SETTLED`].
    settled: VecDeque<u64>,
    next_id: u64,
    draining: bool,
    stats: QueueStats,
}

impl Inner {
    /// Moves job `id` to a terminal `state`, then forgets the oldest
    /// settled job past [`MAX_SETTLED`].
    fn settle(&mut self, id: u64, state: JobState, error: Option<String>) {
        match state {
            JobState::Done => self.stats.completed += 1,
            JobState::Failed => self.stats.failed += 1,
            JobState::Cancelled => self.stats.cancelled += 1,
            JobState::Queued | JobState::Running => unreachable!("settle is for terminal states"),
        }
        if let Some(entry) = self.jobs.get_mut(&id) {
            entry.finished_ms = Some(entry.elapsed_ms());
            entry.state = state;
            entry.error = error;
        }
        self.settled.push_back(id);
        while self.settled.len() > MAX_SETTLED {
            if let Some(old) = self.settled.pop_front() {
                self.jobs.remove(&old);
            }
        }
    }
}

/// The shared job queue. All methods are safe to call from any thread.
#[derive(Debug, Default)]
pub struct JobQueue {
    inner: Mutex<Inner>,
    /// Signalled on submit (work available), drain, and every move to a
    /// settled state.
    cond: Condvar,
}

impl JobQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("queue lock")
    }

    /// Enqueues a job (or coalesces onto an identical live one); `key`
    /// identifies the artifact the job will produce. `None` once the
    /// queue is draining: a shutting-down daemon takes no new work.
    pub fn submit(
        &self,
        exp: &'static dyn Experiment,
        params: Params,
        key: CacheKey,
    ) -> Option<(u64, CacheDisposition)> {
        let mut inner = self.lock();
        if inner.draining {
            return None;
        }
        inner.stats.submitted += 1;
        // Coalesce: an identical request already queued or running will
        // produce this exact artifact; join it. (The whole key must match
        // — the hash alone could collide.)
        if let Some(live) = inner
            .jobs
            .values()
            .find(|j| j.spec.key == key && matches!(j.state, JobState::Queued | JobState::Running))
        {
            let id = live.spec.id;
            inner.stats.coalesced += 1;
            return Some((id, CacheDisposition::Coalesced));
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.jobs.insert(
            id,
            JobEntry {
                spec: JobSpec {
                    id,
                    exp,
                    params,
                    key,
                },
                state: JobState::Queued,
                error: None,
                run_dir: None,
                shards: 0,
                report: None,
                hosts: Vec::new(),
                submitted_at: Instant::now(),
                started_at: None,
                finished_ms: None,
            },
        );
        inner.fifo.push_back(id);
        inner.stats.queued = inner.fifo.len();
        self.cond.notify_all();
        Some((id, CacheDisposition::Miss))
    }

    /// Counts a submit answered from the artifact cache. A hit runs
    /// nothing, so it gets no job record.
    pub fn count_cache_hit(&self) {
        let mut inner = self.lock();
        inner.stats.submitted += 1;
        inner.stats.cache_hits += 1;
    }

    /// Blocks until a job is available (returning the oldest queued
    /// job's spec, now marked running) or the queue is draining with
    /// nothing left to run (returning `None` — the worker thread should
    /// exit).
    #[must_use]
    pub fn next_job(&self) -> Option<JobSpec> {
        let mut inner = self.lock();
        loop {
            if let Some(id) = inner.fifo.pop_front() {
                inner.stats.queued = inner.fifo.len();
                inner.stats.running += 1;
                inner.stats.max_running_observed =
                    inner.stats.max_running_observed.max(inner.stats.running);
                let entry = inner.jobs.get_mut(&id).expect("queued job exists");
                entry.state = JobState::Running;
                entry.started_at = Some(Instant::now());
                return Some(entry.spec.clone());
            }
            if inner.draining {
                return None;
            }
            inner = self.cond.wait(inner).expect("queue lock");
        }
    }

    /// Records the run directory and shard count of a running
    /// job, so progress reporting can count checkpoints on disk.
    pub fn set_run_dir(&self, id: u64, run_dir: PathBuf, shards: usize) {
        if let Some(entry) = self.lock().jobs.get_mut(&id) {
            entry.run_dir = Some(run_dir);
            entry.shards = shards;
        }
    }

    /// Completes a running job whose artifact is already in the cache
    /// (with the runner's report plus per-host attribution, when it ran
    /// sharded).
    pub fn finish(&self, id: u64, report: Option<RunReport>, hosts: Vec<HostCount>) {
        let mut inner = self.lock();
        if let Some(report) = &report {
            inner.stats.shard_spawned += report.spawned as u64;
            inner.stats.shard_reused += report.reused as u64;
            inner.stats.shard_retries += report.retries as u64;
            inner.stats.shard_timeouts += report.timeouts as u64;
        }
        if let Some(entry) = inner.jobs.get_mut(&id) {
            entry.report = report;
            entry.hosts = hosts;
        }
        inner.stats.running = inner.stats.running.saturating_sub(1);
        inner.settle(id, JobState::Done, None);
        self.cond.notify_all();
    }

    /// Fails a running job.
    pub fn fail(&self, id: u64, error: String) {
        let mut inner = self.lock();
        inner.stats.running = inner.stats.running.saturating_sub(1);
        inner.settle(id, JobState::Failed, Some(error));
        self.cond.notify_all();
    }

    /// Cancels a queued job. Running jobs are not interruptible (their
    /// worker owns child processes); terminal jobs are already settled.
    ///
    /// # Errors
    ///
    /// Reports an unknown (or forgotten) id or a job not in the queued
    /// state.
    pub fn cancel(&self, id: u64) -> Result<(), String> {
        let mut inner = self.lock();
        let state = inner
            .jobs
            .get(&id)
            .map(|j| j.state)
            .ok_or_else(|| format!("no such job {id}"))?;
        if state != JobState::Queued {
            return Err(format!("job {id} is {}, not queued", state.as_str()));
        }
        inner.fifo.retain(|&q| q != id);
        inner.stats.queued = inner.fifo.len();
        inner.settle(id, JobState::Cancelled, Some("cancelled".to_owned()));
        self.cond.notify_all();
        Ok(())
    }

    /// A copy of a job's current state; `None` for an unknown or
    /// forgotten id.
    #[must_use]
    pub fn snapshot(&self, id: u64) -> Option<JobSnapshot> {
        self.lock().jobs.get(&id).map(JobEntry::snapshot)
    }

    /// Blocks until job `id` settles or `timeout` passes, whichever comes
    /// first, and returns its state then; `None` for an unknown or
    /// forgotten id.
    #[must_use]
    pub fn wait_settled(&self, id: u64, timeout: Duration) -> Option<JobSnapshot> {
        let (inner, _) = self
            .cond
            .wait_timeout_while(self.lock(), timeout, |inner| {
                inner.jobs.get(&id).is_some_and(|j| !j.state.is_terminal())
            })
            .expect("queue lock");
        inner.jobs.get(&id).map(JobEntry::snapshot)
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        self.lock().stats
    }

    /// Starts draining: queued jobs are cancelled (marked with `reason`),
    /// running jobs keep their slots until they finish, new submits are
    /// refused, and worker threads observe `None` from
    /// [`JobQueue::next_job`] once idle.
    pub fn drain(&self, reason: &str) {
        let mut inner = self.lock();
        inner.draining = true;
        while let Some(id) = inner.fifo.pop_front() {
            inner.settle(id, JobState::Cancelled, Some(reason.to_owned()));
        }
        inner.stats.queued = 0;
        self.cond.notify_all();
    }

    /// True once [`JobQueue::drain`] has been called.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.lock().draining
    }

    /// Blocks until the queue is draining or `timeout` passes; returns
    /// [`JobQueue::is_draining`].
    pub fn wait_draining(&self, timeout: Duration) -> bool {
        let (inner, _) = self
            .cond
            .wait_timeout_while(self.lock(), timeout, |inner| !inner.draining)
            .expect("queue lock");
        inner.draining
    }

    /// Blocks until no job is running (used after [`JobQueue::drain`] to
    /// let inflight work complete before the daemon exits).
    pub fn wait_idle(&self) {
        let mut inner = self.lock();
        while inner.stats.running > 0 {
            inner = self.cond.wait(inner).expect("queue lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::find_experiment;
    use std::sync::Arc;

    /// Submits a `table2` job whose cache key is `tag`.
    fn submit_tagged(queue: &JobQueue, tag: &str) -> (u64, CacheDisposition) {
        let exp = find_experiment("table2").expect("registered");
        let params = Params::parse(exp.extra_params(), Vec::new()).expect("defaults parse");
        let key = CacheKey {
            experiment: exp.name().to_owned(),
            document: tag.to_owned(),
            name: tag.to_owned(),
        };
        queue.submit(exp, params, key).expect("not draining")
    }

    fn submit_simple(queue: &JobQueue, tag: &str) -> u64 {
        let (id, cache) = submit_tagged(queue, tag);
        assert_eq!(cache, CacheDisposition::Miss);
        id
    }

    #[test]
    fn fifo_order_without_affinity() {
        let queue = JobQueue::new();
        let a = submit_simple(&queue, "a");
        let b = submit_simple(&queue, "b");
        assert_eq!(queue.next_job().unwrap().id, a);
        assert_eq!(queue.next_job().unwrap().id, b);
    }

    #[test]
    fn identical_live_requests_coalesce_and_settle_together() {
        let queue = JobQueue::new();
        let id = submit_simple(&queue, "k");
        let (joined, cache) = submit_tagged(&queue, "k");
        assert_eq!(joined, id);
        assert_eq!(cache, CacheDisposition::Coalesced);
        // Still coalesces while running.
        let spec = queue.next_job().expect("job");
        let (joined, _) = submit_tagged(&queue, "k");
        assert_eq!(joined, id);
        // After completion a new identical submit is a fresh job (the
        // cache layer will answer it before it reaches the queue).
        queue.finish(spec.id, None, Vec::new());
        let (fresh, cache) = submit_tagged(&queue, "k");
        assert_ne!(fresh, id);
        assert_eq!(cache, CacheDisposition::Miss);
        let stats = queue.stats();
        assert_eq!(stats.coalesced, 2);
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn cancel_only_affects_queued_jobs() {
        let queue = JobQueue::new();
        let id = submit_simple(&queue, "x");
        queue.cancel(id).expect("queued job cancels");
        assert_eq!(queue.snapshot(id).unwrap().state, JobState::Cancelled);
        assert!(queue.cancel(id).is_err(), "already cancelled");
        let running = submit_simple(&queue, "y");
        let _ = queue.next_job().expect("job");
        let err = queue.cancel(running).expect_err("running job refuses");
        assert!(err.contains("running"), "{err}");
        assert!(queue.cancel(999).is_err(), "unknown id");
    }

    #[test]
    fn drain_cancels_queued_work_and_releases_idle_workers() {
        let queue = Arc::new(JobQueue::new());
        let running = submit_simple(&queue, "r");
        let queued = submit_simple(&queue, "q");
        let spec = queue.next_job().expect("job");
        assert_eq!(spec.id, running);
        queue.drain("service shutting down");
        let snap = queue.snapshot(queued).unwrap();
        assert_eq!(snap.state, JobState::Cancelled);
        assert_eq!(snap.error.as_deref(), Some("service shutting down"));
        // An idle worker sees end-of-work immediately.
        assert!(queue.next_job().is_none());
        // wait_idle returns once the running job settles.
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.wait_idle())
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished(), "still one running job");
        queue.finish(running, None, Vec::new());
        waiter.join().expect("wait_idle returns");
    }

    #[test]
    fn next_job_blocks_until_work_arrives() {
        let queue = Arc::new(JobQueue::new());
        let worker = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.next_job().map(|spec| spec.id))
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!worker.is_finished(), "no work yet");
        let id = submit_simple(&queue, "late");
        assert_eq!(worker.join().expect("joins"), Some(id));
    }

    #[test]
    fn running_counters_track_claims_and_completions() {
        let queue = JobQueue::new();
        for tag in ["a", "b", "c"] {
            submit_simple(&queue, tag);
        }
        let s1 = queue.next_job().unwrap();
        let s2 = queue.next_job().unwrap();
        assert_eq!(queue.stats().running, 2);
        assert_eq!(queue.stats().queued, 1);
        let report = RunReport {
            spawned: 3,
            reused: 1,
            retries: 2,
            timeouts: 1,
            max_inflight_observed: 2,
        };
        let hosts = vec![HostCount {
            name: "alpha".to_owned(),
            dispatched: 3,
            completed: 3,
            ..HostCount::default()
        }];
        queue.finish(s1.id, Some(report), hosts);
        queue.fail(s2.id, "boom".to_owned());
        let stats = queue.stats();
        assert_eq!(stats.running, 0);
        assert_eq!(stats.max_running_observed, 2);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.shard_spawned, 3);
        assert_eq!(stats.shard_reused, 1);
        assert_eq!(stats.shard_retries, 2);
        assert_eq!(stats.shard_timeouts, 1);
        let snap = queue.snapshot(s1.id).unwrap();
        assert_eq!(snap.hosts.len(), 1);
        assert_eq!(snap.hosts[0].name, "alpha");
        assert_eq!(
            queue.snapshot(s2.id).unwrap().error.as_deref(),
            Some("boom")
        );
    }

    #[test]
    fn the_table_keeps_the_newest_settled_jobs_and_every_live_one() {
        let queue = JobQueue::new();
        let settled: Vec<u64> = (0..1100)
            .map(|i| submit_simple(&queue, &format!("s{i}")))
            .collect();
        for _ in &settled {
            let _ = queue.next_job().expect("job");
        }
        // Submitted after every other job was claimed, so it stays queued
        // while all 1,100 settle.
        let queued = submit_simple(&queue, "stays-queued");
        for &id in &settled {
            queue.finish(id, None, Vec::new());
        }
        let (forgotten, kept) = settled.split_at(settled.len() - MAX_SETTLED);
        assert_eq!(forgotten[0], 0);
        assert!(forgotten.iter().all(|&id| queue.snapshot(id).is_none()));
        assert!(kept.iter().all(|&id| queue.snapshot(id).is_some()));
        assert_eq!(queue.snapshot(queued).unwrap().state, JobState::Queued);
        let err = queue.cancel(0).expect_err("job 0 is forgotten");
        assert_eq!(err, "no such job 0");
        assert_eq!(queue.stats().completed, 1100);
    }

    #[test]
    fn a_waiter_wakes_when_its_job_settles_and_times_out_otherwise() {
        let queue = Arc::new(JobQueue::new());
        let id = submit_simple(&queue, "w");
        let snap = queue.wait_settled(id, Duration::from_millis(20));
        assert_eq!(
            snap.unwrap().state,
            JobState::Queued,
            "timed out, still queued"
        );
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.wait_settled(id, Duration::from_secs(60)))
        };
        std::thread::sleep(Duration::from_millis(30));
        let started = Instant::now();
        queue.cancel(id).expect("queued job cancels");
        let snap = waiter.join().expect("waiter returns").expect("job known");
        assert_eq!(snap.state, JobState::Cancelled);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "a cancel must wake the waiter"
        );
        assert!(queue.wait_settled(999, Duration::ZERO).is_none());
    }
}
