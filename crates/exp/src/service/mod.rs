//! The yield-oracle service: a queued, cache-fronted daemon
//! over the sharded Monte Carlo engine.
//!
//! `xbar serve` runs a long-lived daemon speaking newline-delimited JSON
//! ([`protocol`], schema `xbar-svc/1`) on a `std::net::TcpListener`;
//! `xbar submit` is the matching client. A submitted experiment request
//! flows through three layers:
//!
//! 1. **Cache** ([`cache`]): artifacts are content-addressed by the
//!    canonical deterministic `params` echo of the `xbar-artifact/1`
//!    envelope — byte-reproducibility makes a finished response valid
//!    forever, so a repeated submit is answered byte-identical from disk
//!    without spawning any work or creating a job. The cache is also the
//!    only store of a finished job's artifact.
//! 2. **Queue** ([`queue`]): a FIFO job queue with bounded worker slots.
//!    Identical in-flight requests coalesce onto one job. It remembers
//!    every live job and the 1,024 most recently settled ones, and
//!    waiters block on its condvar until their job settles.
//! 3. **Execution** ([`server`]): each sharded job runs through the
//!    campaign runner ([`crate::launch::run_launch_with_report`]) over the
//!    job fleet (`--launcher`, default `local*{available parallelism}`)
//!    with a per-job run directory under the service work dir — the same
//!    `coordinator.lock`, retry/timeout/resume semantics as
//!    `xbar mc coordinate`. Progress is streamed to waiting clients as
//!    `progress` events every 500 ms, and the final response goes out as
//!    soon as the job settles, carrying the runner's [`RunReport`]
//!    counters and per-host attribution. A daemon killed mid-job leaves
//!    resumable shard checkpoints: restart it on the same work dir and
//!    resubmit.
//!
//! The daemon does not sleep-poll: the accept thread blocks in `accept()`
//! and waiters block on the queue's condvar. A `--wait` client that loses
//! its connection ([`client`]) follows its job by re-sending the same
//! submit.
//!
//! [`RunReport`]: crate::shard::coordinator::RunReport

pub mod cache;
pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::{cache_key, ArtifactCache, CacheKey};
pub use client::submit_main;
pub use protocol::{Request, PROTOCOL};
pub use queue::{JobQueue, JobState};
pub use server::{serve_main, start, ServeOptions, ServiceHandle};
