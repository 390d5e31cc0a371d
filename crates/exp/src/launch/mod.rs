//! The campaign runner: fault-tolerant dispatch of a sharded Monte Carlo
//! campaign onto a fleet of named hosts through a [`Transport`].
//!
//! This is the one event loop every sharded run goes through. `xbar mc
//! coordinate` is the runner on the one-host local fleet `local*N` (no
//! hedging, no quarantine — there is nowhere to fail over to); `xbar mc
//! launch` exposes the full fleet, transport and health policy; the
//! serving daemon runs every sharded `table2` job on it. All of them
//! share the campaign vocabulary, run directory, checkpoints, lock, and
//! deterministic retry backoff of [`crate::shard::coordinator`]:
//!
//! * [`transport`] — the dispatch abstraction ([`Transport`]/[`Flight`]),
//!   its two real implementations ([`LocalProc`] subprocesses and the
//!   [`Exec`] command template that covers `ssh` without new
//!   dependencies), and the workspace's one fault injector ([`Faulty`]:
//!   dropped dispatches, crashed, stalled and torn-stream workers, dead
//!   hosts), which every runner front-end builds through [`with_faults`];
//! * [`pool`] — the [`HostPool`] with per-host health (healthy → suspect
//!   → quarantined → timed probation) and in-flight slot bounds;
//! * [`scheduler`] — the event loop: dispatch, watchdog deadlines,
//!   backoff retries, hedged re-dispatch of stragglers, torn-transfer
//!   detection on every returned stream;
//! * [`merge`] — the two-level merge tree (per-host pre-merge, root
//!   merge), byte-identical to the flat merge by construction;
//! * [`cli`] — `xbar mc launch`, plus the runner flags it shares with
//!   `xbar mc coordinate`.
//!
//! The hard invariant, pinned by tests and the CI loopback smoke: the
//! merged artifacts are **byte-identical** to a monolithic run under
//! every tolerated fault — dropped dispatches, crashed workers,
//! mid-stream truncation, host death mid-campaign, hung flights,
//! duplicated hedge partials.

pub mod cli;
pub mod merge;
pub mod pool;
pub mod scheduler;
pub mod transport;

pub use merge::merge_host_groups;
pub use pool::{parse_hosts, HostCount, HostHealth, HostPool, HostSpec};
pub use scheduler::{run_launch_with_report, LaunchConfig, LaunchReport};
pub use transport::{
    with_faults, Exec, FaultKind, FaultPlan, Faulty, Flight, LocalProc, Transport, WorkerJob,
};
