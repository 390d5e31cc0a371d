//! The campaign plumbing every sharded run shares: the worker a shard
//! dispatch runs, the per-campaign run directory (manifest, lock and
//! checkpoints), the deterministic retry backoff, and the exact-tiling
//! merge into the byte-compared stats artifact.
//!
//! The event loop that schedules shards lives in one place,
//! [`crate::launch::scheduler`]. `xbar mc coordinate` is that runner on
//! the one-host local fleet `local*N`; `xbar mc launch` and the serving
//! daemon are the same runner on other fleets. This module holds what the
//! runner and its callers share:
//!
//! * **Checkpoint/resume** — every campaign owns a run directory derived
//!   from its identity ([`campaign_run_dir`]) with a `campaign.json`
//!   manifest and an exclusive `coordinator.lock`; a directory holding a
//!   *different* campaign is rejected with a clear error instead of
//!   clobbered.
//! * **Backoff** — [`backoff_delay`] is exponential growth plus jitter
//!   that is a pure function of `(seed, shard, attempt)`, so retry
//!   schedules are reproducible — no wall-clock RNG.
//! * **Merge** — [`merge_partials`], the one merge every runner uses,
//!   validates that partials belong to the campaign and tile its sample
//!   range exactly, then folds them flat.
//!
//! The merged **stats artifact** ([`render_stats_json`]) contains only
//! integer-derived statistics, so it is byte-identical across shard
//! layouts, failure histories, and resumes — `--shards 7` with injected
//! crashes and a monolithic in-process run produce the same file. The
//! partial, the `campaign.json` manifest and the stats artifact are all
//! written through [`Json::render_document`], and their campaign-identity
//! fields through `McConfig::identity_fields`.
//! Wall-clock runtime moments are merged too (deterministically for a
//! fixed layout) but reported separately ([`render_timing_table`]).

use super::json::Json;
use super::partial::ShardPartial;
use super::{run_shard, McConfig, ShardSpec};
use crate::experiments::table2::CircuitAccum;
use crate::table::{pct, secs, Table};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Schema tag of the merged stats artifact.
pub const MERGED_SCHEMA: &str = "xbar-mc-merged/1";

/// Schema tag of the `campaign.json` manifest a run directory carries.
pub const CAMPAIGN_SCHEMA: &str = "xbar-mc-campaign/1";

/// Default base delay of the exponential retry backoff.
pub const DEFAULT_RETRY_BASE: Duration = Duration::from_millis(100);

/// The worker a runner dispatches per shard: an `xbar`-compatible binary
/// plus the argument prefix selecting its shard entry point
/// (`["mc", "shard"]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Worker {
    /// Worker binary path.
    pub binary: PathBuf,
    /// Arguments prepended before the shard flags.
    pub prefix_args: Vec<String>,
}

impl Worker {
    /// An `xbar` binary driven through `mc shard`.
    #[must_use]
    pub fn xbar(binary: PathBuf) -> Self {
        Self {
            binary,
            prefix_args: vec!["mc".to_owned(), "shard".to_owned()],
        }
    }
}

/// The default parent directory for run directories. Deliberately stable
/// across processes (unlike the old pid-derived path) so `--resume` after
/// a coordinator crash finds the previous run's partials; per-campaign
/// isolation comes from [`campaign_run_dir`] beneath it.
#[must_use]
pub fn default_work_dir() -> PathBuf {
    std::env::temp_dir().join("xbar-mc")
}

/// The run directory a campaign owns beneath `work_dir`, derived from the
/// campaign identity `(seed, samples, shards, stream[, model kind])` — two
/// coordinators running *different* campaigns against the same
/// `--work-dir` can no longer clobber each other's `partial-N.json` files.
/// Default-model campaigns keep the exact pre-model directory name (CI's
/// resume smoke hardcodes it); a non-default spatial model appends its
/// kind. Parameters that don't fit in a path (defect rate, circuit list,
/// model parameters) are covered by the `campaign.json` manifest check
/// inside the directory.
#[must_use]
pub fn campaign_run_dir(work_dir: &Path, config: &McConfig, shards: usize) -> PathBuf {
    let mut name = format!(
        "run-seed{}-n{}-k{}-{}",
        config.seed, config.samples, shards, config.stream
    );
    if !config.model.is_default() {
        let _ = write!(name, "-{}", config.model.kind().as_str());
    }
    work_dir.join(name)
}

/// Per-run counters of a sharded campaign (the base of
/// [`crate::launch::LaunchReport`]): scheduling facts (how the campaign
/// was executed), deliberately separate from the byte-compared stats
/// artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Worker processes spawned (all attempts).
    pub spawned: usize,
    /// Shards satisfied from existing partials (`--resume`).
    pub reused: usize,
    /// Retry attempts scheduled after a failure.
    pub retries: usize,
    /// Workers killed at the watchdog deadline.
    pub timeouts: usize,
    /// Peak number of simultaneously live workers.
    pub max_inflight_observed: usize,
}

/// The merged campaign result: the configuration plus one merged
/// accumulator per circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedResult {
    /// Campaign configuration.
    pub config: McConfig,
    /// `(circuit, merged accumulator)` in configuration order.
    pub circuits: Vec<(String, CircuitAccum)>,
}

/// Locates the `xbar` binary next to the currently running executable
/// (spawned as `xbar mc shard`, so when the current executable *is*
/// `xbar` the runner is self-contained).
///
/// # Errors
///
/// Reports the path it looked at when the binary does not exist.
pub fn default_worker() -> Result<Worker, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate current exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or_else(|| "current exe has no parent directory".to_owned())?;
    let xbar = dir.join(format!("xbar{}", std::env::consts::EXE_SUFFIX));
    if xbar.is_file() {
        return Ok(Worker::xbar(xbar));
    }
    Err(format!(
        "no worker binary found: {} does not exist (build it with \
         `cargo build --release -p xbar-exp --bin xbar`)",
        xbar.display()
    ))
}

/// Runs the whole campaign in-process (no worker processes) through the
/// same fold-and-merge code path the sharded run uses.
#[must_use]
pub fn run_monolithic(config: &McConfig) -> MergedResult {
    let whole = ShardSpec {
        index: 0,
        num_shards: 1,
        start: 0,
        end: config.samples,
    };
    let partial = run_shard(config, &whole);
    MergedResult {
        config: config.clone(),
        circuits: partial.circuits,
    }
}

/// Merges shard partials after validating that they belong to `config`
/// and tile its sample range exactly.
///
/// Partials are merged in ascending `start` order, so the merge is
/// deterministic for a given shard layout; the statistics are integer
/// counts, so any input order gives the same stats bytes.
///
/// # Errors
///
/// Rejects configuration mismatches, overlapping or missing sample
/// ranges (a duplicated shard, such as a hedge loser's partial, cannot
/// tile), and circuit-list disagreements.
pub fn merge_partials(
    config: &McConfig,
    partials: &[ShardPartial],
) -> Result<MergedResult, String> {
    let mut ordered: Vec<&ShardPartial> = partials.iter().collect();
    ordered.sort_by_key(|p| p.spec.start);

    for partial in &ordered {
        partial
            .validate_for(config, &partial.spec)
            .map_err(|e| format!("shard {}: {e}", partial.spec.index))?;
    }
    let mut cursor = 0usize;
    for partial in &ordered {
        if partial.spec.start != cursor {
            return Err(format!(
                "sample range not tiled: expected a shard starting at {cursor}, \
                 found shard {} starting at {}",
                partial.spec.index, partial.spec.start
            ));
        }
        cursor = partial.spec.end;
    }
    if cursor != config.samples {
        return Err(format!(
            "sample range not covered: shards end at {cursor}, campaign has {} samples",
            config.samples
        ));
    }

    let mut circuits: Vec<(String, CircuitAccum)> = config
        .circuits
        .iter()
        .map(|name| (name.clone(), CircuitAccum::new()))
        .collect();
    for partial in &ordered {
        for ((_, merged), (_, piece)) in circuits.iter_mut().zip(&partial.circuits) {
            merged.merge(piece);
        }
    }
    Ok(MergedResult {
        config: config.clone(),
        circuits,
    })
}

pub(crate) fn partial_path(run_dir: &Path, index: usize) -> PathBuf {
    run_dir.join(format!("partial-{index}.json"))
}

// ---------------------------------------------------------------------------
// Deterministic retry backoff
// ---------------------------------------------------------------------------

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The delay before retrying `shard` after its `attempt`-th failed
/// attempt (1-based): `base · 2^(attempt-1)` (exponent capped at 6) plus
/// jitter in `[0, 100%)` of that step. The jitter is a pure function of
/// `(seed, shard, attempt)` — no wall-clock RNG — so a campaign's retry
/// schedule is reproducible while concurrent retries still de-correlate.
#[must_use]
pub fn backoff_delay(seed: u64, shard: usize, attempt: usize, base: Duration) -> Duration {
    let exponent = u32::try_from(attempt.saturating_sub(1).min(6)).expect("capped exponent");
    let step = base.saturating_mul(1 << exponent);
    let hash = splitmix64(
        seed ^ (shard as u64).rotate_left(32)
            ^ (attempt as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
    );
    // 53 high bits -> a fraction in [0, 1).
    let frac = (hash >> 11) as f64 / (1u64 << 53) as f64;
    step.mul_f64(1.0 + frac)
}

// ---------------------------------------------------------------------------
// Campaign manifest: what a run directory belongs to
// ---------------------------------------------------------------------------

/// Renders the `campaign.json` manifest. `hosts` is the runner's host
/// attribution (`"name*slots"` per entry) — informational provenance for
/// a resumed run, rendered only when non-empty. It deliberately does NOT
/// participate in the campaign mismatch check: the same campaign may be resumed
/// with a different host fleet, and manifests written before host
/// attribution existed still resume.
pub fn render_campaign_manifest(config: &McConfig, shards: usize, hosts: &[String]) -> String {
    let mut fields = vec![("schema", Json::str(CAMPAIGN_SCHEMA))];
    fields.extend(config.identity_fields(Some((shards, hosts))));
    fields.push(("circuits", Json::arr(config.circuits.iter().map(Json::str))));
    Json::obj(fields).render_document()
}

/// Every key a `xbar-mc-campaign/1` manifest may carry. The parser
/// rejects anything else: a manifest written by a newer tool describes
/// campaign identity this coordinator cannot check, and silently ignoring
/// the extra field could merge partials from a different campaign.
const CAMPAIGN_MANIFEST_KEYS: [&str; 11] = [
    "schema",
    "seed",
    "defect_rate",
    "samples",
    "shards",
    "rng_stream",
    "defect_model",
    "cluster_size",
    "line_rate",
    "circuits",
    // Launcher host attribution: provenance, not campaign identity — a
    // resume may use a different fleet, so the parser tolerates the key
    // and the mismatch check ignores it.
    "hosts",
];

fn parse_campaign_manifest(text: &str) -> Result<(McConfig, usize), String> {
    let doc = Json::parse(text).map_err(|e| format!("malformed manifest: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("manifest missing `schema`")?;
    if schema != CAMPAIGN_SCHEMA {
        return Err(format!(
            "manifest schema mismatch: got {schema:?}, expected {CAMPAIGN_SCHEMA:?}"
        ));
    }
    if let Json::Obj(fields) = &doc {
        if let Some((unknown, _)) = fields
            .iter()
            .find(|(key, _)| !CAMPAIGN_MANIFEST_KEYS.contains(&key.as_str()))
        {
            return Err(format!(
                "manifest carries unknown key `{unknown}` (written by a newer tool?); \
                 refusing to resume a campaign whose identity cannot be fully checked"
            ));
        }
    }
    let circuits = doc
        .get("circuits")
        .and_then(Json::as_arr)
        .ok_or("manifest missing `circuits` array")?
        .iter()
        .map(|value| {
            value
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| "manifest circuit entry is not a string".to_owned())
        })
        .collect::<Result<Vec<String>, String>>()?;
    let config = McConfig::from_identity(&doc, "manifest", circuits)?;
    let shards = doc
        .get("shards")
        .and_then(Json::as_usize)
        .ok_or("manifest missing usize `shards`")?;
    Ok((config, shards))
}

/// Describes how `found` differs from the campaign `expected`; `None`
/// when they describe the same campaign.
fn campaign_mismatch(
    expected: &McConfig,
    expected_shards: usize,
    found: &McConfig,
    found_shards: usize,
) -> Option<String> {
    let mut diffs = found.mismatch(expected);
    if found_shards != expected_shards {
        diffs.push(format!("shards {found_shards} != {expected_shards}"));
    }
    if diffs.is_empty() {
        None
    } else {
        Some(diffs.join(", "))
    }
}

/// An exclusive claim on a campaign run directory, held for the
/// coordinator's lifetime. Backed by a `coordinator.lock` file created
/// with `O_EXCL` semantics ([`fs::OpenOptions::create_new`]) and holding
/// the owner's `pid starttime` incarnation; dropped (removed) when the
/// coordinator finishes, and reclaimed by incarnation-liveness check when
/// a previous coordinator was killed without cleanup (the CI resume smoke
/// and the service restart test do exactly that).
#[derive(Debug)]
pub(crate) struct RunDirLock {
    path: PathBuf,
}

impl Drop for RunDirLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// The kernel `starttime` (clock ticks since boot at process start) of a
/// live process: field 22 of `/proc/<pid>/stat`. The pair (pid,
/// starttime) identifies a process *incarnation* — after pid reuse the
/// recycled pid carries a different starttime. `None` when the process is
/// gone or `/proc` is unavailable (non-Linux).
fn proc_starttime(pid: u32) -> Option<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Field 2 (comm) may itself contain spaces and parentheses, so fields
    // can only be counted from the *last* `)`; the remainder starts at
    // field 3 and starttime is field 22, i.e. index 19 of the remainder.
    let rest = stat.rsplit_once(')')?.1;
    rest.split_whitespace().nth(19)?.parse().ok()
}

/// True when the owner recorded in a lock file still names a live process
/// incarnation. The lock holds `pid starttime`; both must match the
/// current `/proc` state, because a bare pid can be recycled by the
/// kernel and misidentify an unrelated process as a live owner (the lock
/// would then block the campaign forever). Locks written before the
/// starttime field existed carry only a pid and degrade to the pid-only
/// check. An unreadable or malformed lock counts as stale: the owner can
/// no longer be identified, and the atomic re-create below still
/// guarantees a single winner. Our own pid counts as alive — in-process
/// coordinators (library callers) racing for one campaign must exclude
/// each other just like separate processes do.
fn lock_owner_alive(path: &Path) -> bool {
    let Ok(text) = fs::read_to_string(path) else {
        return false;
    };
    let mut fields = text.split_whitespace();
    let Some(Ok(pid)) = fields.next().map(str::parse::<u32>) else {
        return false;
    };
    if pid == std::process::id() {
        return true;
    }
    // Without a /proc to consult (non-Linux), liveness cannot be checked;
    // treating the lock as stale keeps crashed coordinators from blocking
    // a campaign forever, which is the failure mode that actually occurs.
    if !Path::new("/proc").is_dir() {
        return false;
    }
    match fields.next() {
        // pid + starttime: alive only if that exact incarnation persists.
        Some(recorded) => match recorded.parse::<u64>() {
            Ok(starttime) => proc_starttime(pid) == Some(starttime),
            Err(_) => false,
        },
        // Legacy pid-only lock: best effort, pid liveness alone.
        None => Path::new(&format!("/proc/{pid}")).is_dir(),
    }
}

/// Atomically claims `run_dir` for this coordinator process.
///
/// # Errors
///
/// Reports a live concurrent coordinator ("campaign already running") or
/// an I/O failure creating the lock.
fn acquire_run_dir_lock(run_dir: &Path) -> Result<RunDirLock, String> {
    static STAGED: AtomicUsize = AtomicUsize::new(0);
    let path = run_dir.join("coordinator.lock");
    // Record the incarnation, not just the pid, so a future coordinator
    // can distinguish "owner still running" from "pid recycled by an
    // unrelated process". The record is written to a private file and
    // hard-linked into place: the link is the atomic exclusive create, so
    // a contender never reads the lock before its owner record is in it
    // (an empty lock would read as stale and be stolen).
    let pid = std::process::id();
    let owner = proc_starttime(pid).map_or_else(
        || format!("{pid}\n"),
        |starttime| format!("{pid} {starttime}\n"),
    );
    let staged = run_dir.join(format!(
        "coordinator.lock.{pid}.{}",
        STAGED.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&staged, owner)
        .map_err(|e| format!("cannot create lock {}: {e}", staged.display()))?;
    let mut claimed = Err(format!(
        "campaign already running: could not win {} (another coordinator claimed it)",
        path.display()
    ));
    // Two passes: the second handles the stale-lock case where the first
    // observed a leftover file from a killed coordinator and removed it.
    for _ in 0..2 {
        match fs::hard_link(&staged, &path) {
            Ok(()) => {
                claimed = Ok(RunDirLock { path });
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                if lock_owner_alive(&path) {
                    claimed = Err(format!(
                        "campaign already running: another coordinator holds {} \
                         (pid {}); wait for it to finish or remove the lock if it is stale",
                        path.display(),
                        fs::read_to_string(&path).unwrap_or_default().trim()
                    ));
                    break;
                }
                // Stale lock from a killed coordinator: remove and retry
                // the atomic create (a racing coordinator may win it).
                let _ = fs::remove_file(&path);
            }
            Err(e) => {
                claimed = Err(format!("cannot create lock {}: {e}", path.display()));
                break;
            }
        }
    }
    let _ = fs::remove_file(&staged);
    claimed
}

/// Prepares the run directory: creates it, claims it with an exclusive
/// lifetime lock (a second coordinator on the same live campaign fails
/// fast instead of racing on `campaign.json` and the partials), and
/// either validates an existing `campaign.json` manifest against this
/// campaign or writes a fresh one. A directory claimed by a *different*
/// campaign — or holding partials with no manifest at all — is rejected
/// with a clear error instead of silently clobbered.
pub(crate) fn preflight_run_dir(
    config: &McConfig,
    shards: usize,
    hosts: &[String],
    run_dir: &Path,
) -> Result<RunDirLock, String> {
    fs::create_dir_all(run_dir)
        .map_err(|e| format!("cannot create run dir {}: {e}", run_dir.display()))?;
    let lock = acquire_run_dir_lock(run_dir)?;
    let manifest_path = run_dir.join("campaign.json");
    match fs::read_to_string(&manifest_path) {
        Ok(text) => {
            let (found, found_shards) = parse_campaign_manifest(&text).map_err(|e| {
                format!(
                    "{}: {e}; remove the directory (or pick another --work-dir) to proceed",
                    manifest_path.display()
                )
            })?;
            if let Some(diff) = campaign_mismatch(config, shards, &found, found_shards) {
                return Err(format!(
                    "run dir {} belongs to a different campaign ({diff}); refusing to \
                     clobber its partials — remove the directory or pick another --work-dir",
                    run_dir.display()
                ));
            }
            Ok(lock)
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            // No manifest: a partial here was written by something we
            // cannot identify (a pre-manifest run or a foreign tool) —
            // refuse rather than mix campaigns.
            if let Some(index) = (0..shards).find(|i| partial_path(run_dir, *i).exists()) {
                return Err(format!(
                    "run dir {} holds {} but no campaign manifest; refusing to \
                     clobber — remove the directory or pick another --work-dir",
                    run_dir.display(),
                    partial_path(run_dir, index).display()
                ));
            }
            fs::write(
                &manifest_path,
                render_campaign_manifest(config, shards, hosts),
            )
            .map_err(|e| format!("cannot write {}: {e}", manifest_path.display()))?;
            Ok(lock)
        }
        Err(e) => Err(format!("cannot read {}: {e}", manifest_path.display())),
    }
}

/// Renders the deterministic merged-stats artifact: **only**
/// integer-derived statistics, so the document is byte-identical for any
/// shard layout of the same campaign (the CI smoke job and the
/// equivalence proptest compare these bytes directly).
#[must_use]
pub fn render_stats_json(merged: &MergedResult) -> String {
    let mut fields = vec![
        ("schema", Json::str(MERGED_SCHEMA)),
        ("experiment", Json::str("table2")),
    ];
    fields.extend(merged.config.identity_fields(None));
    let circuits = merged.circuits.iter().map(|(name, accum)| {
        Json::obj([
            ("name", Json::str(name)),
            ("samples", Json::u64(accum.samples())),
            ("hba_successes", Json::u64(accum.hba.successes)),
            ("hba_success_rate", Json::f64(accum.hba.rate())),
            ("ea_successes", Json::u64(accum.ea.successes)),
            ("ea_success_rate", Json::f64(accum.ea.rate())),
        ])
    });
    fields.push(("circuits", Json::arr(circuits)));
    Json::obj(fields).render_document()
}

/// Renders the informational runtime summary (means/standard deviations
/// from the merged Welford moments) — wall-clock data, deliberately not
/// part of the byte-compared stats artifact.
#[must_use]
pub fn render_timing_table(merged: &MergedResult) -> String {
    let mut table = Table::new(
        "Merged Monte Carlo statistics (timing is wall-clock, informational)",
        &[
            "name",
            "samples",
            "HBA succ%",
            "EA succ%",
            "HBA mean s",
            "HBA std s",
            "EA mean s",
            "EA std s",
        ],
    );
    for (name, accum) in &merged.circuits {
        table.row([
            name.clone(),
            accum.samples().to_string(),
            pct(accum.hba.rate()),
            pct(accum.ea.rate()),
            secs(accum.hba_time.mean()),
            secs(accum.hba_time.std_dev()),
            secs(accum.ea_time.mean()),
            secs(accum.ea_time.std_dev()),
        ]);
    }
    table.to_ascii()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_core::{DefectModelKind, DefectModelSpec, SampleStream};

    fn config() -> McConfig {
        McConfig {
            circuits: vec!["rd53".to_owned()],
            ..McConfig::with_default_circuits(20, 5, 0.1)
        }
    }

    fn clustered_model() -> DefectModelSpec {
        DefectModelSpec::new(DefectModelKind::Clustered, 3.0, 0.02).expect("valid")
    }

    fn partials_for(config: &McConfig, shards: usize) -> Vec<ShardPartial> {
        ShardSpec::partition(config.samples, shards)
            .iter()
            .map(|spec| run_shard(config, spec))
            .collect()
    }

    #[test]
    fn merged_shards_match_the_monolithic_stats_artifact() {
        let config = config();
        let mono = render_stats_json(&run_monolithic(&config));
        for shards in [1usize, 2, 3, 7] {
            let merged = merge_partials(&config, &partials_for(&config, shards)).expect("merges");
            assert_eq!(
                render_stats_json(&merged),
                mono,
                "{shards} shards must be byte-identical"
            );
        }
    }

    #[test]
    fn merge_rejects_a_missing_shard() {
        let config = config();
        let mut partials = partials_for(&config, 3);
        partials.remove(1);
        let err = merge_partials(&config, &partials).expect_err("gap must fail");
        assert!(err.contains("not tiled"), "{err}");
    }

    #[test]
    fn merge_rejects_a_duplicated_shard() {
        let config = config();
        let mut partials = partials_for(&config, 3);
        let dup = partials[0].clone();
        partials.push(dup);
        assert!(merge_partials(&config, &partials).is_err());
    }

    #[test]
    fn merge_rejects_seed_mismatch() {
        let config = config();
        let mut partials = partials_for(&config, 2);
        partials[1].config.campaign.seed ^= 1;
        let err = merge_partials(&config, &partials).expect_err("must fail");
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn merge_rejects_rng_stream_mismatch() {
        // A shard sampled under V2 holds statistics over different defect
        // maps; merging it into a V1 campaign would corrupt the artifact
        // silently, so the coordinator must refuse.
        let config = config();
        let mut partials = partials_for(&config, 2);
        partials[1].config.campaign.stream = SampleStream::V2;
        let err = merge_partials(&config, &partials).expect_err("must fail");
        assert!(err.contains("rng stream"), "{err}");
    }

    #[test]
    fn v2_merge_matches_v2_monolithic_and_declares_its_stream() {
        let mut config = self::config();
        config.campaign.stream = SampleStream::V2;
        let mono = render_stats_json(&run_monolithic(&config));
        assert!(mono.contains("\"rng_stream\": \"v2\""), "{mono}");
        let merged = merge_partials(&config, &partials_for(&config, 3)).expect("merges");
        assert_eq!(render_stats_json(&merged), mono);
    }

    #[test]
    fn merge_rejects_defect_model_mismatch() {
        // A shard sampled under a clustered model holds statistics over a
        // different spatial defect distribution; merging it into an i.i.d.
        // campaign would corrupt the artifact silently.
        let config = config();
        let mut partials = partials_for(&config, 2);
        partials[1].config.campaign.model = clustered_model();
        let err = merge_partials(&config, &partials).expect_err("must fail");
        assert!(err.contains("defect model"), "{err}");
    }

    #[test]
    fn modeled_merge_matches_modeled_monolithic_and_declares_its_model() {
        let mut config = self::config();
        config.campaign.model = clustered_model();
        let mono = render_stats_json(&run_monolithic(&config));
        assert!(mono.contains("\"defect_model\": \"clustered\""), "{mono}");
        assert!(mono.contains("\"cluster_size\": 3.0"), "{mono}");
        assert!(!mono.contains("line_rate"), "clustered ignores line_rate");
        let merged = merge_partials(&config, &partials_for(&config, 3)).expect("merges");
        assert_eq!(render_stats_json(&merged), mono);
        // The default-model artifact never mentions the model at all.
        let default_json = render_stats_json(&run_monolithic(&self::config()));
        assert!(!default_json.contains("defect_model"), "{default_json}");
    }

    #[test]
    fn merge_rejects_out_of_order_circuit_entries() {
        let config = McConfig {
            circuits: vec!["rd53".to_owned(), "misex1".to_owned()],
            ..self::config()
        };
        let mut partials = partials_for(&config, 2);
        partials[0].circuits.swap(0, 1);
        let err = merge_partials(&config, &partials).expect_err("must fail");
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn merge_rejects_a_missing_circuit_entry() {
        let config = McConfig {
            circuits: vec!["rd53".to_owned(), "misex1".to_owned()],
            ..self::config()
        };
        let mut partials = partials_for(&config, 2);
        partials[1].circuits.pop();
        let err = merge_partials(&config, &partials).expect_err("must fail");
        assert!(err.contains("circuit entries"), "{err}");
    }

    #[test]
    fn merge_rejects_sample_count_lies() {
        let config = config();
        let mut partials = partials_for(&config, 2);
        partials[0].circuits[0].1.hba.samples += 1;
        partials[0].circuits[0].1.ea.samples += 1;
        let err = merge_partials(&config, &partials).expect_err("must fail");
        assert!(err.contains("folded"), "{err}");
    }

    #[test]
    fn empty_shards_merge_cleanly() {
        // More shards than samples: trailing shards are empty.
        let mut config = self::config();
        config.campaign.samples = 2;
        let merged = merge_partials(&config, &partials_for(&config, 5)).expect("merges");
        assert_eq!(merged.circuits[0].1.samples(), 2);
    }

    #[test]
    fn stats_json_is_parseable_and_has_rates() {
        let merged = run_monolithic(&config());
        let json = render_stats_json(&merged);
        let doc = Json::parse(&json).expect("valid json");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some(MERGED_SCHEMA)
        );
        let circuits = doc.get("circuits").and_then(|c| c.as_arr()).expect("arr");
        assert_eq!(circuits.len(), 1);
        assert!(circuits[0].get("hba_success_rate").is_some());
        let timing = render_timing_table(&merged);
        assert!(timing.contains("rd53"));
    }

    #[test]
    fn backoff_is_a_pure_function_of_seed_shard_and_attempt() {
        let base = Duration::from_millis(100);
        let delay = backoff_delay(7, 3, 1, base);
        assert_eq!(delay, backoff_delay(7, 3, 1, base), "deterministic");
        assert_ne!(delay, backoff_delay(7, 4, 1, base), "per-shard jitter");
        assert_ne!(delay, backoff_delay(8, 3, 1, base), "per-seed jitter");
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let base = Duration::from_millis(100);
        for attempt in 1..=6 {
            let step = base * (1 << (attempt - 1));
            for (seed, shard) in [(0u64, 0usize), (2018, 5), (u64::MAX, 31)] {
                let delay = backoff_delay(seed, shard, attempt, base);
                assert!(
                    delay >= step && delay < step * 2,
                    "attempt {attempt}: {delay:?} outside [{step:?}, {:?})",
                    step * 2
                );
            }
        }
        // The exponent is capped: huge attempt counts cannot overflow.
        assert!(backoff_delay(7, 3, 10_000, base) < base * 128);
    }

    #[test]
    fn campaign_manifest_roundtrips_and_detects_mismatches() {
        let config = config();
        let text = render_campaign_manifest(&config, 3, &[]);
        let (back, shards) = parse_campaign_manifest(&text).expect("parses");
        assert_eq!(back, config);
        assert_eq!(shards, 3);
        assert!(campaign_mismatch(&config, 3, &back, shards).is_none());

        let mut other = config.clone();
        other.campaign.defect_rate = 0.25;
        let diff = campaign_mismatch(&config, 3, &other, 3).expect("must differ");
        assert!(diff.contains("defect_rate"), "{diff}");
        let diff = campaign_mismatch(&config, 3, &config, 5).expect("must differ");
        assert!(diff.contains("shards"), "{diff}");

        let mut other = config.clone();
        other.campaign.model = clustered_model();
        let diff = campaign_mismatch(&config, 3, &other, 3).expect("must differ");
        assert!(diff.contains("defect_model"), "{diff}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        /// The `campaign.json` reader answers an edited manifest with a
        /// `Result`, never a panic. Each op overwrites or inserts a digit
        /// or a piece of JSON punctuation, deletes a byte or truncates, so
        /// many edited manifests stay well-formed and reach the identity
        /// checks.
        #[test]
        fn campaign_manifest_reader_never_panics(
            ops in proptest::collection::vec(0u64..u64::MAX, 1..6),
        ) {
            let mut config = config();
            config.campaign.model = clustered_model();
            let hosts = ["alpha*2".to_owned()];
            let mut bytes = render_campaign_manifest(&config, 3, &hosts).into_bytes();
            for op in ops {
                let at = (op >> 16) as usize % (bytes.len() + 1);
                let token = b"0123456789-.e\"{}[],:";
                let byte = token[(op >> 8) as usize % token.len()];
                match op % 4 {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    2 if at < bytes.len() => drop(bytes.remove(at)),
                    _ => bytes.truncate(at),
                }
            }
            let _ = parse_campaign_manifest(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn modeled_manifest_roundtrips_and_default_manifest_stays_model_free() {
        let default_text = render_campaign_manifest(&config(), 3, &[]);
        assert!(!default_text.contains("defect_model"), "{default_text}");

        let mut config = self::config();
        config.campaign.model =
            DefectModelSpec::new(DefectModelKind::Composite, 2.5, 0.125).expect("valid");
        let text = render_campaign_manifest(&config, 3, &[]);
        assert!(text.contains("\"defect_model\": \"composite\""), "{text}");
        assert!(text.contains("\"cluster_size\": 2.5"), "{text}");
        assert!(text.contains("\"line_rate\": 0.125"), "{text}");
        let (back, shards) = parse_campaign_manifest(&text).expect("parses");
        assert_eq!(back, config);
        assert_eq!(shards, 3);
    }

    #[test]
    fn manifest_with_an_unknown_key_is_rejected_not_ignored() {
        // A future tool that extends campaign identity must not have its
        // manifests silently reinterpreted by this coordinator.
        let text = render_campaign_manifest(&config(), 3, &[]).replace(
            "\"rng_stream\": \"v1\",",
            "\"rng_stream\": \"v1\",\n  \"voltage_drift\": 0.3,",
        );
        let err = parse_campaign_manifest(&text).expect_err("must fail");
        assert!(err.contains("voltage_drift"), "{err}");
        assert!(err.contains("unknown key"), "{err}");
    }

    #[test]
    fn manifest_host_attribution_roundtrips_and_stays_out_of_identity() {
        // A launcher-written manifest records its fleet; the key parses
        // back cleanly (it is in CAMPAIGN_MANIFEST_KEYS) and never feeds
        // campaign_mismatch — the same campaign may resume on different
        // hosts. Coordinator-written manifests stay byte-free of it.
        let config = config();
        let hosts = vec!["alpha*2".to_owned(), "beta".to_owned()];
        let text = render_campaign_manifest(&config, 3, &hosts);
        assert!(
            text.contains("\"hosts\": [\"alpha*2\", \"beta\"]"),
            "{text}"
        );
        let (back, shards) = parse_campaign_manifest(&text).expect("hosts key tolerated");
        assert_eq!(back, config);
        assert_eq!(shards, 3);
        assert!(campaign_mismatch(&config, 3, &back, shards).is_none());
        assert!(
            !render_campaign_manifest(&config, 3, &[]).contains("hosts"),
            "hostless manifests keep their pre-launcher bytes"
        );
    }

    #[test]
    fn run_dir_name_derives_from_campaign_identity() {
        let config = config();
        let dir = campaign_run_dir(Path::new("/w"), &config, 4);
        assert_eq!(dir, PathBuf::from("/w/run-seed5-n20-k4-v1"));
        let mut v2 = self::config();
        v2.campaign.stream = SampleStream::V2;
        assert_ne!(campaign_run_dir(Path::new("/w"), &v2, 4), dir);
        // Non-default models get their own directory; the default keeps
        // the exact pre-model name (CI's resume smoke hardcodes it).
        let mut clustered = self::config();
        clustered.campaign.model = clustered_model();
        assert_eq!(
            campaign_run_dir(Path::new("/w"), &clustered, 4),
            PathBuf::from("/w/run-seed5-n20-k4-v1-clustered")
        );
    }

    #[test]
    fn run_dir_lock_is_exclusive_reclaims_stale_owners_and_releases_on_drop() {
        let dir = std::env::temp_dir().join(format!("xbar-lock-test-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("create");
        let lock = acquire_run_dir_lock(&dir).expect("first claim wins");
        let path = dir.join("coordinator.lock");
        assert!(path.is_file());

        // A second claim while the owner (this process) is alive fails
        // fast with the contractual message.
        let err = acquire_run_dir_lock(&dir).expect_err("second claim must fail");
        assert!(err.contains("campaign already running"), "{err}");

        // A lock left by a dead process is reclaimed, not fatal. Pid 1 is
        // init (alive), so fake staleness with an impossible pid instead.
        drop(lock);
        fs::write(&path, "4294967294\n").expect("plant stale lock");
        let lock = acquire_run_dir_lock(&dir).expect("stale lock is reclaimed");
        drop(lock);
        assert!(!path.exists(), "drop releases the lock");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lock_records_and_checks_the_owner_incarnation_not_just_the_pid() {
        let dir = std::env::temp_dir().join(format!("xbar-lock-inc-test-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("create");
        let path = dir.join("coordinator.lock");

        // A fresh lock records `pid starttime` for this process, and that
        // starttime agrees with /proc.
        let own = std::process::id();
        let lock = acquire_run_dir_lock(&dir).expect("claim");
        let text = fs::read_to_string(&path).expect("read lock");
        let mut fields = text.split_whitespace();
        assert_eq!(fields.next().unwrap().parse::<u32>().ok(), Some(own));
        let recorded: u64 = fields.next().expect("starttime field").parse().unwrap();
        assert_eq!(proc_starttime(own), Some(recorded));
        drop(lock);

        // Pid 1 is init — alive forever — but a lock naming pid 1 with a
        // *wrong* starttime describes a dead incarnation whose pid was
        // recycled: it must be reclaimed, not treated as a live owner.
        fs::write(&path, format!("1 {}\n", u64::MAX)).expect("plant recycled-pid lock");
        let lock = acquire_run_dir_lock(&dir).expect("recycled pid reclaimed");
        drop(lock);

        // The same pid with its *true* starttime is a live owner.
        if let Some(start) = proc_starttime(1) {
            fs::write(&path, format!("1 {start}\n")).expect("plant live lock");
            let err = acquire_run_dir_lock(&dir).expect_err("live incarnation must block");
            assert!(err.contains("campaign already running"), "{err}");
            fs::remove_file(&path).expect("clear planted lock");
        }

        // Legacy pid-only locks still work: a live pid blocks, garbage is
        // stale.
        fs::write(&path, "1\n").expect("plant legacy lock");
        assert!(lock_owner_alive(&path), "legacy pid-only lock, pid alive");
        fs::write(&path, "1 not-a-number\n").expect("plant malformed lock");
        assert!(!lock_owner_alive(&path), "malformed starttime is stale");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn proc_starttime_reads_this_process_and_tolerates_absence() {
        // On Linux (the CI and dev environment) our own stat line parses.
        if Path::new("/proc/self/stat").is_file() {
            assert!(proc_starttime(std::process::id()).is_some());
        }
        // A pid that cannot exist yields None, not a panic.
        assert_eq!(proc_starttime(u32::MAX - 1), None);
    }
}
