//! Mapping-throughput measurement: the table2-style Monte Carlo workload
//! (per trial: sample a 10%-defective optimum-size crossbar, run HBA, run
//! EA) timed on the legacy dense mappers vs the bitset [`MatchEngine`].
//!
//! The `mapping_throughput` binary drives this module and emits
//! `BENCH_mapping.json`, which CI prints on every PR so mapping-speed
//! regressions are visible in the logs. Both paths replay the same
//! per-sample seeds and the measurement asserts their HBA/EA success
//! counts agree, so the speedup is apples-to-apples by construction.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;
use xbar_core::{
    reference, Campaign, CrossbarMatrix, DefectSampler, FunctionMatrix, MatchEngine, SampleStream,
};
use xbar_exp::launch::{run_launch_with_report, HostSpec, LaunchConfig, LocalProc};
use xbar_exp::sample_seed;
use xbar_exp::shard::coordinator::{render_stats_json, run_monolithic, Worker};
use xbar_exp::shard::McConfig;
use xbar_logic::bench_reg::find;

/// Measured throughput for one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitThroughput {
    /// Circuit name.
    pub name: String,
    /// Defect sampling stream both paths drew from.
    pub stream: SampleStream,
    /// Optimum crossbar rows (`P + K`).
    pub rows: usize,
    /// Crossbar columns (`2I + 2K`).
    pub cols: usize,
    /// Monte Carlo trials per path.
    pub samples: usize,
    /// Wall-clock seconds for the legacy dense path.
    pub legacy_secs: f64,
    /// Wall-clock seconds for the engine path.
    pub engine_secs: f64,
    /// Seconds spent drawing defect maps alone ([`DefectSampler::resample`]
    /// on this entry's stream), measured over a separate pass with the
    /// same seeds.
    pub resample_secs: f64,
    /// Seconds attributable to adjacency construction: a resample+build
    /// pass minus [`CircuitThroughput::resample_secs`] (clamped at 0).
    /// The replay uses the full (non-truncating) builder, so in regimes
    /// where the Hall fast-fail fires often — high defect rates — this is
    /// an upper bound on the engine pass's actual build time; the JSON
    /// therefore reports phase *fractions* normalized over the three
    /// phase measurements rather than over raw engine wall-clock.
    pub build_secs: f64,
    /// Seconds attributable to the HBA+EA solves: the engine pass minus
    /// the resample+build pass (clamped at 0).
    pub solve_secs: f64,
    /// HBA successes (identical on both paths by assertion).
    pub hba_successes: usize,
    /// EA successes (identical on both paths by assertion).
    pub ea_successes: usize,
}

impl CircuitThroughput {
    /// Legacy samples per second.
    #[must_use]
    pub fn legacy_sps(&self) -> f64 {
        self.samples as f64 / self.legacy_secs.max(f64::MIN_POSITIVE)
    }

    /// Engine samples per second.
    #[must_use]
    pub fn engine_sps(&self) -> f64 {
        self.samples as f64 / self.engine_secs.max(f64::MIN_POSITIVE)
    }

    /// Throughput ratio engine/legacy.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.legacy_secs / self.engine_secs.max(f64::MIN_POSITIVE)
    }

    /// Defect maps drawn per second in the resample-only replay — the
    /// number the bench gate compares across streams (V2's geometric skip
    /// must beat V1's dense sweep by its pinned factor).
    #[must_use]
    pub fn resample_sps(&self) -> f64 {
        self.samples as f64 / self.resample_secs.max(f64::MIN_POSITIVE)
    }
}

/// Runs `pass` three times and returns the fastest wall-clock, so a
/// transient burst of CI-runner contention during one repeat cannot sink
/// a throughput ratio below its gate floor. The minimum (not the mean) is
/// the right statistic here: the workload is deterministic, so the
/// fastest repeat is the least-disturbed measurement of the same work.
fn best_of_3(mut pass: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures one circuit: `samples` trials per path at `defect_rate`,
/// seeded like the Table II experiment (`sample_seed(seed ^ 0xBEEF, i)`),
/// single-threaded so the number is per-core mapping throughput. Both
/// paths draw defect maps from `stream`, so V1 and V2 entries each get
/// internally consistent success counts (V2's differ from V1's by design
/// — different defect maps — and are pinned as their own goldens).
///
/// The engine pass and the phase replays are timed best-of-3
/// (`best_of_3`); the legacy pass runs once — contention can only slow
/// it down, which *raises* the reported speedup's denominator safety
/// margin, and at large circuits a legacy repeat costs minutes.
///
/// # Panics
///
/// Panics when `name` is not registered or when the two paths disagree on
/// any per-sample HBA/EA success (they must be decision-identical).
#[must_use]
pub fn measure_circuit(
    name: &str,
    samples: usize,
    defect_rate: f64,
    seed: u64,
    stream: SampleStream,
) -> CircuitThroughput {
    let info = find(name).expect("registered benchmark");
    let cover = info.mapping_cover(seed);
    let fm = FunctionMatrix::from_cover(&cover);
    let rows = fm.num_rows();
    let cols = fm.num_cols();
    let sampler = DefectSampler::new(stream);

    // Legacy path: fresh allocations per trial, dense mappers.
    let t0 = Instant::now();
    let mut legacy_hba = 0usize;
    let mut legacy_ea = 0usize;
    for i in 0..samples {
        let mut rng = StdRng::seed_from_u64(sample_seed(seed ^ 0xBEEF, i));
        let cm = sampler.sample(rows, cols, defect_rate, &mut rng);
        legacy_hba += usize::from(reference::map_hybrid(&fm, &cm).is_success());
        legacy_ea += usize::from(reference::map_exact(&fm, &cm).is_success());
    }
    let legacy_secs = t0.elapsed().as_secs_f64();

    // Engine path: same seeds, reused matrix + engine scratch, FM cached
    // once for the whole campaign. Best-of-3 — the counts are recomputed
    // identically on every repeat (deterministic seeds), only the fastest
    // timing is kept.
    let mut engine = MatchEngine::new();
    engine.prepare_fm(&fm);
    let mut cm = CrossbarMatrix::perfect(rows, cols);
    let mut engine_hba = 0usize;
    let mut engine_ea = 0usize;
    let engine_secs = best_of_3(|| {
        engine_hba = 0;
        engine_ea = 0;
        for i in 0..samples {
            let mut rng = StdRng::seed_from_u64(sample_seed(seed ^ 0xBEEF, i));
            sampler.resample(&mut cm, defect_rate, &mut rng);
            let ((hba_ok, _), (ea_ok, _)) = engine.hybrid_and_exact_success(&fm, &cm);
            engine_hba += usize::from(hba_ok);
            engine_ea += usize::from(ea_ok);
        }
    });

    // Phase split: replay the same seeds measuring (a) defect sampling
    // alone and (b) sampling + full adjacency construction, so the engine
    // time decomposes into resample / build / solve. `std::hint::black_box`
    // keeps the optimizer from deleting the work.
    let resample_secs = best_of_3(|| {
        for i in 0..samples {
            let mut rng = StdRng::seed_from_u64(sample_seed(seed ^ 0xBEEF, i));
            sampler.resample(&mut cm, defect_rate, &mut rng);
            std::hint::black_box(&cm);
        }
    });
    let sample_build_secs = best_of_3(|| {
        for i in 0..samples {
            let mut rng = StdRng::seed_from_u64(sample_seed(seed ^ 0xBEEF, i));
            sampler.resample(&mut cm, defect_rate, &mut rng);
            let (_, cand) = engine.build_adjacency(&fm, &cm);
            std::hint::black_box(cand);
        }
    });

    assert_eq!(
        (legacy_hba, legacy_ea),
        (engine_hba, engine_ea),
        "{name}: engine and legacy paths must agree on every success"
    );

    CircuitThroughput {
        name: name.to_owned(),
        stream,
        rows,
        cols,
        samples,
        legacy_secs,
        engine_secs,
        resample_secs,
        build_secs: (sample_build_secs - resample_secs).max(0.0),
        solve_secs: (engine_secs - sample_build_secs).max(0.0),
        hba_successes: engine_hba,
        ea_successes: engine_ea,
    }
}

/// Measured cost of the [`DefectSampler`] model-dispatch seam on the
/// i.i.d. hot path: the same V1 dense resample drawn through the frozen
/// pre-model API ([`CrossbarMatrix::resample_stuck_open`]) vs through the
/// model-aware handle ([`DefectSampler::resample`], which dispatches on
/// [`xbar_core::DefectModelKind`] per call). The two paths consume the
/// RNG identically, so any gap is pure dispatch overhead — the bench gate
/// pins the ratio so adding defect models can never tax the default
/// campaigns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelDispatch {
    /// Crossbar rows of the measured shape.
    pub rows: usize,
    /// Crossbar columns of the measured shape.
    pub cols: usize,
    /// Resamples per path.
    pub samples: usize,
    /// Best-of-3 wall-clock seconds through the direct legacy API.
    pub direct_secs: f64,
    /// Best-of-3 wall-clock seconds through the model-dispatch handle.
    pub dispatch_secs: f64,
}

impl ModelDispatch {
    /// Direct-path defect maps per second.
    #[must_use]
    pub fn direct_sps(&self) -> f64 {
        self.samples as f64 / self.direct_secs.max(f64::MIN_POSITIVE)
    }

    /// Dispatch-path defect maps per second.
    #[must_use]
    pub fn dispatch_sps(&self) -> f64 {
        self.samples as f64 / self.dispatch_secs.max(f64::MIN_POSITIVE)
    }

    /// Throughput ratio dispatch/direct (1.0 means dispatch is free; the
    /// gate floor sits below it only by a contention margin).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.direct_secs / self.dispatch_secs.max(f64::MIN_POSITIVE)
    }
}

/// Measures [`ModelDispatch`] on one shape: `samples` V1 resamples per
/// path, identical seeds, both sides best-of-3 so a contended repeat on
/// either side cannot skew the ratio.
#[must_use]
pub fn measure_model_dispatch(
    rows: usize,
    cols: usize,
    samples: usize,
    defect_rate: f64,
    seed: u64,
) -> ModelDispatch {
    let mut cm = CrossbarMatrix::perfect(rows, cols);
    let direct_secs = best_of_3(|| {
        for i in 0..samples {
            let mut rng = StdRng::seed_from_u64(sample_seed(seed, i));
            cm.resample_stuck_open(defect_rate, &mut rng);
            std::hint::black_box(&cm);
        }
    });
    let sampler = DefectSampler::v1();
    let dispatch_secs = best_of_3(|| {
        for i in 0..samples {
            let mut rng = StdRng::seed_from_u64(sample_seed(seed, i));
            sampler.resample(&mut cm, defect_rate, &mut rng);
            std::hint::black_box(&cm);
        }
    });
    ModelDispatch {
        rows,
        cols,
        samples,
        direct_secs,
        dispatch_secs,
    }
}

/// Measured throughput of the process-sharded coordinator path vs one
/// monolithic in-process run of the same campaign (same seeds, same
/// merged statistics — the coordinator asserts byte-identical stats).
///
/// On a single machine both sides use every core, so this entry tracks
/// the *fan-out overhead* of the multi-host scaling path (process spawn,
/// partial-file round-trip, merge), not a speedup.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedThroughput {
    /// Worker processes / sample-range shards.
    pub shards: usize,
    /// Total Monte Carlo samples per circuit.
    pub samples: usize,
    /// Circuits in the campaign.
    pub circuits: Vec<String>,
    /// Wall-clock seconds for the sharded coordinator run.
    pub sharded_secs: f64,
    /// Wall-clock seconds for the monolithic in-process run.
    pub single_secs: f64,
}

impl ShardedThroughput {
    /// Total samples simulated (per side).
    #[must_use]
    pub fn total_samples(&self) -> usize {
        self.samples * self.circuits.len()
    }

    /// Sharded samples per second.
    #[must_use]
    pub fn sharded_sps(&self) -> f64 {
        self.total_samples() as f64 / self.sharded_secs.max(f64::MIN_POSITIVE)
    }

    /// Single-process samples per second.
    #[must_use]
    pub fn single_sps(&self) -> f64 {
        self.total_samples() as f64 / self.single_secs.max(f64::MIN_POSITIVE)
    }
}

/// Measures the sharded coordinator against the monolithic path on the
/// same campaign and asserts their merged stats artifacts are
/// byte-identical before reporting any timing. Pass a `samples` count
/// well above `shards` so the measurement amortizes process start and
/// reports steady-state sharding.
///
/// # Panics
///
/// Panics when the coordinator fails (e.g. the `xbar` worker binary is
/// missing — build it with `cargo build --release -p xbar-exp --bin
/// xbar`) or when the two stats artifacts differ.
#[must_use]
pub fn measure_sharded(
    circuits: &[String],
    samples: usize,
    defect_rate: f64,
    seed: u64,
    shards: usize,
    worker: Worker,
) -> ShardedThroughput {
    let config = McConfig {
        campaign: Campaign {
            samples,
            seed,
            defect_rate,
            ..Campaign::default()
        },
        circuits: circuits.to_vec(),
    };
    // `xbar mc coordinate`'s runner: the one-host local fleet, one slot
    // per core, partials under a scratch work dir removed afterwards.
    let slots = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let mut cfg = LaunchConfig::new(config.clone(), shards, vec![HostSpec::local(slots)], worker);
    cfg.work_dir = std::env::temp_dir().join(format!("mc-bench-steady-{}", std::process::id()));
    let t1 = Instant::now();
    let (sharded, _) = run_launch_with_report(&cfg, &LocalProc).expect("sharded coordinator run");
    let sharded_secs = t1.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir(&cfg.work_dir);
    let t2 = Instant::now();
    let single = run_monolithic(&config);
    let single_secs = t2.elapsed().as_secs_f64();
    assert_eq!(
        render_stats_json(&sharded),
        render_stats_json(&single),
        "sharded and monolithic stats artifacts must be byte-identical"
    );
    ShardedThroughput {
        shards,
        samples,
        circuits: circuits.to_vec(),
        sharded_secs,
        single_secs,
    }
}

/// Measured overhead of the yield-oracle service front
/// ([`xbar_exp::service`]): the same `table2` submit answered **cold**
/// (queue admission + execution + cache store) vs **warm** (a
/// content-addressed cache hit that spawns no work). The warm path is the
/// service's whole value proposition — a repeated question must cost a
/// TCP round-trip and a file read, not a Monte Carlo campaign — so the
/// bench gate pins `cold / hit` above a floor: if a change ever makes the
/// cache path re-execute (or the cold path trivially cheap to the point
/// the measurement is meaningless), the ratio collapses and CI fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceOverhead {
    /// Monte Carlo samples in the submitted campaign.
    pub samples: usize,
    /// Wall-clock seconds for the cold submit (one-shot: the first answer
    /// necessarily executes, there is nothing to repeat).
    pub cold_secs: f64,
    /// Best-of-3 wall-clock seconds for a warm submit of the identical
    /// request, answered from the artifact cache.
    pub cache_hit_secs: f64,
}

impl ServiceOverhead {
    /// Ratio cold/hit — how much work the cache actually saves.
    #[must_use]
    pub fn cold_over_hit(&self) -> f64 {
        self.cold_secs / self.cache_hit_secs.max(f64::MIN_POSITIVE)
    }
}

/// Measures [`ServiceOverhead`]: starts an in-process daemon
/// ([`xbar_exp::service::start`] with `in_process_jobs`, so no worker
/// binary is needed), submits one `table2` campaign over a real TCP
/// socket speaking `xbar-svc/1`, then re-submits the identical request
/// best-of-3. Asserts the cold answer is a cache **miss**, every warm
/// answer a **hit**, and all artifacts byte-identical — the timing only
/// means "cache overhead" if the bytes prove both paths answered the same
/// question the same way.
///
/// # Panics
///
/// Panics when the daemon fails to start, a reply is malformed, the
/// cache dispositions are not miss-then-hit, or artifacts differ.
#[must_use]
pub fn measure_service_overhead(samples: usize, defect_rate: f64, seed: u64) -> ServiceOverhead {
    use std::io::{BufRead as _, BufReader, Write as _};
    use xbar_exp::service::{start, Request, ServeOptions};
    use xbar_exp::shard::json::Json;

    let work_dir = std::env::temp_dir().join(format!("xbar-bench-svc-{}", std::process::id()));
    // A stale cache from a crashed earlier run would turn the cold submit
    // into a hit and invalidate the measurement.
    let _ = std::fs::remove_dir_all(&work_dir);
    let handle = start(ServeOptions {
        listen: "127.0.0.1:0".to_owned(),
        work_dir: work_dir.clone(),
        max_inflight: 1,
        in_process_jobs: true,
        ..ServeOptions::default()
    })
    .expect("service starts");
    let addr = handle.addr();

    let request = Request::Submit {
        experiment: "table2".to_owned(),
        args: vec![
            "--samples".to_owned(),
            samples.to_string(),
            "--seed".to_owned(),
            seed.to_string(),
            "--defect-rate".to_owned(),
            format!("{defect_rate:?}"),
            "--circuits".to_owned(),
            "rd53".to_owned(),
        ],
        wait: true,
    }
    .render();

    // One full submit→result round-trip; returns (cache disposition,
    // artifact bytes).
    let submit = || -> (String, String) {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect to daemon");
        writeln!(stream, "{request}").expect("send submit");
        let mut cache = String::new();
        for line in BufReader::new(stream).lines() {
            let line = line.expect("read reply line");
            let doc = Json::parse(&line).expect("reply parses");
            match doc.get("type").and_then(Json::as_str) {
                Some("submitted") => {
                    cache = doc
                        .get("cache")
                        .and_then(Json::as_str)
                        .expect("submitted carries cache")
                        .to_owned();
                }
                Some("progress") => {}
                Some("result") => {
                    let artifact = doc
                        .get("artifact")
                        .and_then(Json::as_str)
                        .expect("result carries artifact")
                        .to_owned();
                    return (cache, artifact);
                }
                other => panic!("unexpected service reply {other:?}: {line}"),
            }
        }
        panic!("daemon closed the connection before the result");
    };

    let t0 = Instant::now();
    let (cold_cache, cold_artifact) = submit();
    let cold_secs = t0.elapsed().as_secs_f64();
    assert_eq!(cold_cache, "miss", "first submit must execute");

    let cache_hit_secs = best_of_3(|| {
        let (cache, artifact) = submit();
        assert_eq!(cache, "hit", "repeated submit must be a cache hit");
        assert_eq!(
            artifact, cold_artifact,
            "cached artifact must be byte-identical to the cold one"
        );
    });

    handle.shutdown_and_wait();
    let _ = std::fs::remove_dir_all(&work_dir);
    ServiceOverhead {
        samples,
        cold_secs,
        cache_hit_secs,
    }
}

/// Cross-checks the measured success counts against the experiment
/// registry: runs `table2` through the typed [`xbar_exp::Experiment`] API
/// on the same campaign (quiet reporter, same seeds) and compares each
/// circuit's artifact `hba_successes` / `ea_successes` with the bench's
/// own counts. Ties the throughput harness to the public API surface —
/// if the registry's statistics ever drift from the measured workload,
/// the benchmark fails loudly instead of reporting a speedup on a
/// different computation.
///
/// # Panics
///
/// Panics when the registry run fails, the artifact is missing a
/// measured circuit, or any success count disagrees.
pub fn registry_crosscheck(results: &[CircuitThroughput], defect_rate: f64, seed: u64) {
    use xbar_exp::shard::json::Json;
    use xbar_exp::{find_experiment, Params, Reporter};

    let exp = find_experiment("table2").expect("table2 is registered");
    // One registry run per sampling stream present in the results: the
    // `--rng-stream` flag must round-trip through the typed params layer
    // and reproduce each stream's own success counts.
    for stream in SampleStream::ALL {
        let group: Vec<&CircuitThroughput> =
            results.iter().filter(|r| r.stream == stream).collect();
        let Some(first) = group.first() else {
            continue;
        };
        let samples = first.samples;
        let circuits: Vec<String> = group.iter().map(|r| r.name.clone()).collect();
        let flags = [
            "--samples".to_owned(),
            samples.to_string(),
            "--seed".to_owned(),
            seed.to_string(),
            "--defect-rate".to_owned(),
            format!("{defect_rate:?}"),
            "--circuits".to_owned(),
            circuits.join(","),
            "--rng-stream".to_owned(),
            stream.as_str().to_owned(),
        ];
        let params = Params::parse(exp.extra_params(), flags).expect("bench flags parse");
        let artifact = exp
            .run(&params, &mut Reporter::quiet())
            .expect("registry table2 run succeeds");
        let doc = Json::parse(&artifact.render(exp, &params)).expect("artifact parses");
        let entries = doc
            .get("data")
            .and_then(|d| d.get("circuits"))
            .and_then(Json::as_arr)
            .expect("artifact carries circuits");
        for r in &group {
            let entry = entries
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(r.name.as_str()))
                .unwrap_or_else(|| panic!("{}: missing from the registry artifact", r.name));
            let count = |key: &str| entry.get(key).and_then(Json::as_u64).expect("u64 count");
            assert_eq!(
                (count("hba_successes"), count("ea_successes")),
                (r.hba_successes as u64, r.ea_successes as u64),
                "{} [{stream}]: registry experiment and bench workload disagree",
                r.name
            );
        }
    }
}

/// Renders the results as the `BENCH_mapping.json` document (no serde in
/// this workspace; the format is flat enough to emit by hand).
#[must_use]
pub fn render_json(results: &[CircuitThroughput], defect_rate: f64, seed: u64) -> String {
    render_json_with_sharded(results, defect_rate, seed, None, None)
}

/// [`render_json`] plus the optional process-sharded throughput and
/// model-dispatch entries.
#[must_use]
pub fn render_json_with_sharded(
    results: &[CircuitThroughput],
    defect_rate: f64,
    seed: u64,
    sharded: Option<&ShardedThroughput>,
    dispatch: Option<&ModelDispatch>,
) -> String {
    render_json_full(results, defect_rate, seed, sharded, dispatch, None)
}

/// [`render_json_with_sharded`] plus the optional yield-oracle service
/// overhead entry.
#[must_use]
pub fn render_json_full(
    results: &[CircuitThroughput],
    defect_rate: f64,
    seed: u64,
    sharded: Option<&ShardedThroughput>,
    dispatch: Option<&ModelDispatch>,
    service: Option<&ServiceOverhead>,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"mapping_throughput\",");
    let _ = writeln!(
        out,
        "  \"workload\": \"table2-style Monte Carlo: per trial sample a stuck-open defect map, run HBA, run EA\","
    );
    let _ = writeln!(out, "  \"defect_rate\": {defect_rate},");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"circuits\": [");
    for (idx, r) in results.iter().enumerate() {
        let comma = if idx + 1 < results.len() { "," } else { "" };
        // Normalize over the phase measurements themselves: the build
        // replay pays full construction even where the engine pass
        // fast-failed, so dividing by raw engine wall-clock could push
        // the fractions past 1 in high-defect regimes.
        let phases = (r.resample_secs + r.build_secs + r.solve_secs).max(f64::MIN_POSITIVE);
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"stream\": \"{}\", \"rows\": {}, \"cols\": {}, \"samples\": {}, \
             \"legacy_samples_per_sec\": {:.1}, \"engine_samples_per_sec\": {:.1}, \
             \"speedup\": {:.2}, \"resample_samples_per_sec\": {:.1}, \
             \"engine_phase_fractions\": {{\"resample\": {:.2}, \"build\": {:.2}, \"solve\": {:.2}}}, \
             \"hba_successes\": {}, \"ea_successes\": {}}}{comma}",
            r.name,
            r.stream,
            r.rows,
            r.cols,
            r.samples,
            r.legacy_sps(),
            r.engine_sps(),
            r.speedup(),
            r.resample_sps(),
            r.resample_secs / phases,
            r.build_secs / phases,
            r.solve_secs / phases,
            r.hba_successes,
            r.ea_successes,
        );
    }
    let _ = writeln!(out, "  ],");
    let legacy_secs: f64 = results.iter().map(|r| r.legacy_secs).sum();
    let engine_secs: f64 = results.iter().map(|r| r.engine_secs).sum();
    let samples: usize = results.iter().map(|r| r.samples).sum();
    let comma = if sharded.is_some() || dispatch.is_some() || service.is_some() {
        ","
    } else {
        ""
    };
    let _ = writeln!(
        out,
        "  \"total\": {{\"samples\": {}, \"legacy_samples_per_sec\": {:.1}, \
         \"engine_samples_per_sec\": {:.1}, \"speedup\": {:.2}}}{comma}",
        samples,
        samples as f64 / legacy_secs.max(f64::MIN_POSITIVE),
        samples as f64 / engine_secs.max(f64::MIN_POSITIVE),
        legacy_secs / engine_secs.max(f64::MIN_POSITIVE),
    );
    if let Some(d) = dispatch {
        let comma = if sharded.is_some() || service.is_some() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  \"model_dispatch\": {{\"rows\": {}, \"cols\": {}, \"samples\": {}, \
             \"direct_samples_per_sec\": {:.1}, \"dispatch_samples_per_sec\": {:.1}, \
             \"dispatch_over_direct\": {:.2}}}{comma}",
            d.rows,
            d.cols,
            d.samples,
            d.direct_sps(),
            d.dispatch_sps(),
            d.ratio(),
        );
    }
    if let Some(s) = sharded {
        let comma = if service.is_some() { "," } else { "" };
        let _ = writeln!(
            out,
            "  \"sharded\": {{\"shards\": {}, \"samples\": {}, \"circuits\": {}, \
             \"sharded_samples_per_sec\": {:.1}, \"single_process_samples_per_sec\": {:.1}, \
             \"stats_byte_identical\": true}}{comma}",
            s.shards,
            s.total_samples(),
            s.circuits.len(),
            s.sharded_sps(),
            s.single_sps(),
        );
    }
    if let Some(v) = service {
        let _ = writeln!(
            out,
            "  \"service_overhead\": {{\"samples\": {}, \"cold_ms\": {:.2}, \
             \"cache_hit_ms\": {:.3}, \"cold_over_hit\": {:.1}, \
             \"artifact_byte_identical\": true}}",
            v.samples,
            v.cold_secs * 1000.0,
            v.cache_hit_secs * 1000.0,
            v.cold_over_hit(),
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_asserts_identical_decisions_and_counts_sensibly() {
        let r = measure_circuit("rd53", 8, 0.10, 2018, SampleStream::V1);
        assert_eq!(r.samples, 8);
        assert!(r.rows > 0 && r.cols > 0);
        assert!(r.ea_successes >= r.hba_successes);
        assert!(r.legacy_secs > 0.0 && r.engine_secs > 0.0);
    }

    #[test]
    fn v2_measures_with_internally_consistent_counts() {
        // The decision-identity assert inside measure_circuit is the real
        // check: legacy and engine paths must agree sample-for-sample when
        // both draw from the V2 stream.
        let r = measure_circuit("rd53", 8, 0.10, 2018, SampleStream::V2);
        assert_eq!(r.stream, SampleStream::V2);
        assert!(r.ea_successes >= r.hba_successes);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = measure_circuit("rd53", 4, 0.10, 7, SampleStream::V1);
        let json = render_json(&[r], 0.10, 7);
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"total\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"stream\": \"v1\""));
        assert!(json.contains("\"resample_samples_per_sec\""));
        assert!(json.contains("\"engine_phase_fractions\""));
        assert!(!json.contains("\"sharded\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces:\n{json}"
        );
    }

    #[test]
    fn sharded_entry_renders_into_the_document() {
        let r = measure_circuit("rd53", 4, 0.10, 7, SampleStream::V1);
        let sharded = ShardedThroughput {
            shards: 3,
            samples: 20,
            circuits: vec!["rd53".to_owned(), "misex1".to_owned()],
            sharded_secs: 0.5,
            single_secs: 0.4,
        };
        assert_eq!(sharded.total_samples(), 40);
        assert!((sharded.sharded_sps() - 80.0).abs() < 1e-9);
        let json = render_json_with_sharded(&[r], 0.10, 7, Some(&sharded), None);
        assert!(json.contains("\"sharded\""));
        assert!(json.contains("\"sharded_samples_per_sec\": 80.0"));
        assert!(json.contains("\"stats_byte_identical\": true"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces:\n{json}"
        );
    }

    #[test]
    fn service_overhead_measures_and_renders() {
        // A tiny campaign through a real in-process daemon: the measure
        // function itself asserts miss-then-hit and byte-identity, so the
        // test's job is the JSON shape and a sane ratio.
        let v = measure_service_overhead(4, 0.10, 77);
        assert_eq!(v.samples, 4);
        assert!(v.cold_secs > 0.0 && v.cache_hit_secs > 0.0);
        assert!(
            v.cold_over_hit() > 1.0,
            "a cache hit must beat executing the campaign: {v:?}"
        );
        let json = render_json_full(&[], 0.10, 77, None, None, Some(&v));
        assert!(json.contains("\"service_overhead\""));
        assert!(json.contains("\"cold_over_hit\""));
        assert!(json.contains("\"artifact_byte_identical\": true"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces:\n{json}"
        );
    }

    #[test]
    fn model_dispatch_measures_and_renders() {
        // Identical RNG consumption on both paths is the precondition for
        // the ratio meaning "dispatch overhead": check it via the maps.
        let d = measure_model_dispatch(70, 40, 50, 0.10, 2018);
        assert_eq!((d.rows, d.cols, d.samples), (70, 40, 50));
        assert!(d.direct_secs > 0.0 && d.dispatch_secs > 0.0);
        let mut rng_a = StdRng::seed_from_u64(sample_seed(2018, 3));
        let mut rng_b = StdRng::seed_from_u64(sample_seed(2018, 3));
        let mut direct = CrossbarMatrix::perfect(70, 40);
        direct.resample_stuck_open(0.10, &mut rng_a);
        let mut via_handle = CrossbarMatrix::perfect(70, 40);
        DefectSampler::v1().resample(&mut via_handle, 0.10, &mut rng_b);
        assert_eq!(direct, via_handle, "both paths must draw the same maps");

        let json = render_json_with_sharded(&[], 0.10, 2018, None, Some(&d));
        assert!(json.contains("\"model_dispatch\""));
        assert!(json.contains("\"dispatch_over_direct\""));
        assert!(!json.contains("\"sharded\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces:\n{json}"
        );
    }
}
