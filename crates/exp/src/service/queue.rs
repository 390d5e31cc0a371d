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

use crate::launch::HostCount;
use crate::shard::coordinator::RunReport;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker slot.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the artifact is available (and cached).
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
    /// Registry experiment name.
    pub experiment: String,
    /// Experiment argument words.
    pub args: Vec<String>,
}

/// An observable copy of a job's current state.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Job id.
    pub id: u64,
    /// Registry experiment name.
    pub experiment: String,
    /// Lifecycle state.
    pub state: JobState,
    /// How the submit was answered.
    pub cache: CacheDisposition,
    /// Failure message, for [`JobState::Failed`] / [`JobState::Cancelled`].
    pub error: Option<String>,
    /// The finished artifact document.
    pub artifact: Option<Arc<String>>,
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
    id: u64,
    experiment: String,
    args: Vec<String>,
    key_name: String,
    key_document: String,
    state: JobState,
    cache: CacheDisposition,
    error: Option<String>,
    artifact: Option<Arc<String>>,
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
            id: self.id,
            experiment: self.experiment.clone(),
            state: self.state,
            cache: self.cache,
            error: self.error.clone(),
            artifact: self.artifact.clone(),
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
    jobs: Vec<JobEntry>,
    /// Queued job ids in arrival order.
    fifo: VecDeque<u64>,
    next_id: u64,
    draining: bool,
    stats: QueueStats,
}

impl Inner {
    fn entry(&self, id: u64) -> Option<&JobEntry> {
        self.jobs.iter().find(|j| j.id == id)
    }

    fn entry_mut(&mut self, id: u64) -> Option<&mut JobEntry> {
        self.jobs.iter_mut().find(|j| j.id == id)
    }
}

/// The shared job queue. All methods are safe to call from any thread.
#[derive(Debug, Default)]
pub struct JobQueue {
    inner: Mutex<Inner>,
    /// Signalled on submit (work available), drain, and job completion.
    cond: Condvar,
}

impl JobQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a job (or coalesces onto an identical live one). The key
    /// pair identifies the artifact the job will produce.
    pub fn submit(
        &self,
        experiment: &str,
        args: Vec<String>,
        key_name: &str,
        key_document: &str,
    ) -> (u64, CacheDisposition) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.stats.submitted += 1;
        // Coalesce: an identical request already queued or running will
        // produce this exact artifact; join it. (Both halves of the key
        // must match — the hash alone could collide.)
        if let Some(live) = inner.jobs.iter().find(|j| {
            j.key_name == key_name
                && j.key_document == key_document
                && matches!(j.state, JobState::Queued | JobState::Running)
        }) {
            let id = live.id;
            inner.stats.coalesced += 1;
            return (id, CacheDisposition::Coalesced);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.jobs.push(JobEntry {
            id,
            experiment: experiment.to_owned(),
            args,
            key_name: key_name.to_owned(),
            key_document: key_document.to_owned(),
            state: JobState::Queued,
            cache: CacheDisposition::Miss,
            error: None,
            artifact: None,
            run_dir: None,
            shards: 0,
            report: None,
            hosts: Vec::new(),
            submitted_at: Instant::now(),
            started_at: None,
            finished_ms: None,
        });
        inner.fifo.push_back(id);
        inner.stats.queued = inner.fifo.len();
        self.cond.notify_all();
        (id, CacheDisposition::Miss)
    }

    /// Records a submit answered straight from the artifact cache: the
    /// job is born [`JobState::Done`] with the cached artifact attached,
    /// so `status`/`result` work uniformly for it.
    pub fn record_cache_hit(&self, experiment: &str, artifact: Arc<String>) -> u64 {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.stats.submitted += 1;
        inner.stats.cache_hits += 1;
        let id = inner.next_id;
        inner.next_id += 1;
        inner.jobs.push(JobEntry {
            id,
            experiment: experiment.to_owned(),
            args: Vec::new(),
            key_name: String::new(),
            key_document: String::new(),
            state: JobState::Done,
            cache: CacheDisposition::Hit,
            error: None,
            artifact: Some(artifact),
            run_dir: None,
            shards: 0,
            report: None,
            hosts: Vec::new(),
            submitted_at: Instant::now(),
            started_at: None,
            finished_ms: Some(0),
        });
        id
    }

    /// Blocks until a job is available (returning the oldest queued
    /// job's spec, now marked running) or the queue is draining with
    /// nothing left to run (returning `None` — the worker thread should
    /// exit).
    #[must_use]
    pub fn next_job(&self) -> Option<JobSpec> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(id) = inner.fifo.front().copied() {
                return Some(self.claim(&mut inner, id));
            }
            if inner.draining {
                return None;
            }
            inner = self.cond.wait(inner).expect("queue lock");
        }
    }

    fn claim(&self, inner: &mut Inner, id: u64) -> JobSpec {
        inner.fifo.retain(|&q| q != id);
        inner.stats.queued = inner.fifo.len();
        inner.stats.running += 1;
        inner.stats.max_running_observed =
            inner.stats.max_running_observed.max(inner.stats.running);
        let entry = inner.entry_mut(id).expect("queued job exists");
        entry.state = JobState::Running;
        entry.started_at = Some(Instant::now());
        JobSpec {
            id,
            experiment: entry.experiment.clone(),
            args: entry.args.clone(),
        }
    }

    /// Records the run directory and shard count of a running
    /// job, so progress reporting can count checkpoints on disk.
    pub fn set_run_dir(&self, id: u64, run_dir: PathBuf, shards: usize) {
        let mut inner = self.inner.lock().expect("queue lock");
        if let Some(entry) = inner.entry_mut(id) {
            entry.run_dir = Some(run_dir);
            entry.shards = shards;
        }
    }

    /// Completes a running job with its artifact (and the runner's report
    /// plus per-host attribution, when it ran sharded).
    pub fn finish(
        &self,
        id: u64,
        artifact: Arc<String>,
        report: Option<RunReport>,
        hosts: Vec<HostCount>,
    ) {
        self.conclude(id, JobState::Done, Some(artifact), None, report, hosts);
    }

    /// Fails a running job.
    pub fn fail(&self, id: u64, error: String) {
        self.conclude(id, JobState::Failed, None, Some(error), None, Vec::new());
    }

    fn conclude(
        &self,
        id: u64,
        state: JobState,
        artifact: Option<Arc<String>>,
        error: Option<String>,
        report: Option<RunReport>,
        hosts: Vec<HostCount>,
    ) {
        let mut inner = self.inner.lock().expect("queue lock");
        match state {
            JobState::Done => inner.stats.completed += 1,
            JobState::Failed => inner.stats.failed += 1,
            _ => unreachable!("conclude is for terminal execution states"),
        }
        inner.stats.running = inner.stats.running.saturating_sub(1);
        if let Some(report) = &report {
            inner.stats.shard_spawned += report.spawned as u64;
            inner.stats.shard_reused += report.reused as u64;
            inner.stats.shard_retries += report.retries as u64;
            inner.stats.shard_timeouts += report.timeouts as u64;
        }
        if let Some(entry) = inner.entry_mut(id) {
            entry.finished_ms = Some(entry.elapsed_ms());
            entry.state = state;
            entry.artifact = artifact;
            entry.error = error;
            entry.report = report;
            entry.hosts = hosts;
        }
        self.cond.notify_all();
    }

    /// Cancels a queued job. Running jobs are not interruptible (their
    /// worker owns child processes); terminal jobs are already settled.
    ///
    /// # Errors
    ///
    /// Reports an unknown id or a job not in the queued state.
    pub fn cancel(&self, id: u64) -> Result<(), String> {
        let mut inner = self.inner.lock().expect("queue lock");
        let state = inner
            .entry(id)
            .map(|j| j.state)
            .ok_or_else(|| format!("no such job {id}"))?;
        if state != JobState::Queued {
            return Err(format!("job {id} is {}, not queued", state.as_str()));
        }
        inner.fifo.retain(|&q| q != id);
        inner.stats.queued = inner.fifo.len();
        inner.stats.cancelled += 1;
        let entry = inner.entry_mut(id).expect("checked above");
        entry.state = JobState::Cancelled;
        entry.error = Some("cancelled".to_owned());
        entry.finished_ms = Some(entry.elapsed_ms());
        Ok(())
    }

    /// A copy of a job's current state.
    #[must_use]
    pub fn snapshot(&self, id: u64) -> Option<JobSnapshot> {
        let inner = self.inner.lock().expect("queue lock");
        inner.entry(id).map(JobEntry::snapshot)
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        self.inner.lock().expect("queue lock").stats
    }

    /// Starts draining: queued jobs are cancelled (marked with `reason`),
    /// running jobs keep their slots until they finish, and worker
    /// threads observe `None` from [`JobQueue::next_job`] once idle.
    pub fn drain(&self, reason: &str) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.draining = true;
        while let Some(id) = inner.fifo.pop_front() {
            inner.stats.cancelled += 1;
            if let Some(entry) = inner.entry_mut(id) {
                entry.state = JobState::Cancelled;
                entry.error = Some(reason.to_owned());
                entry.finished_ms = Some(entry.elapsed_ms());
            }
        }
        inner.stats.queued = 0;
        self.cond.notify_all();
    }

    /// Blocks until no job is running (used after [`JobQueue::drain`] to
    /// let inflight work complete before the daemon exits).
    pub fn wait_idle(&self) {
        let mut inner = self.inner.lock().expect("queue lock");
        while inner.stats.running > 0 {
            inner = self.cond.wait(inner).expect("queue lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn submit_simple(queue: &JobQueue, tag: &str) -> u64 {
        let (id, cache) = queue.submit("table2", vec![], tag, tag);
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
        let (joined, cache) = queue.submit("table2", vec![], "k", "k");
        assert_eq!(joined, id);
        assert_eq!(cache, CacheDisposition::Coalesced);
        // Still coalesces while running.
        let spec = queue.next_job().expect("job");
        let (joined, _) = queue.submit("table2", vec![], "k", "k");
        assert_eq!(joined, id);
        // After completion a new identical submit is a fresh job (the
        // cache layer will answer it before it reaches the queue).
        queue.finish(spec.id, Arc::new("artifact".to_owned()), None, Vec::new());
        let (fresh, cache) = queue.submit("table2", vec![], "k", "k");
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
        queue.finish(running, Arc::new("a".to_owned()), None, Vec::new());
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
        queue.finish(s1.id, Arc::new("x".to_owned()), Some(report), hosts);
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
    fn cache_hit_jobs_are_born_done() {
        let queue = JobQueue::new();
        let id = queue.record_cache_hit("table2", Arc::new("cached\n".to_owned()));
        let snap = queue.snapshot(id).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert_eq!(snap.cache, CacheDisposition::Hit);
        assert_eq!(
            snap.artifact.as_deref().map(String::as_str),
            Some("cached\n")
        );
        assert_eq!(queue.stats().cache_hits, 1);
    }
}
