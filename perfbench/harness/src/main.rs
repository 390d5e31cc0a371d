//! Traced replay harness for the perfbench benchmark.
//!
//! Each subcommand replays one benchmark workload by calling the layers'
//! public functions, wraps each call in a span, checks the replay's output
//! against the program's, and prints one JSON object (per-layer metrics,
//! traced wall time, accounted time, check counts) as its last stdout line:
//!
//! ```text
//! xbar-perfbench table2  --samples N --seed S --stream v2 --spans P --artifact-out P
//! xbar-perfbench launch  --samples N --shards K --seed S --hosts H --xbar BIN
//!                        --work-dir D --spans P --artifact-out P
//! xbar-perfbench service --requests FILE --count M --seed S --circuits C
//!                        --xbar BIN --work-dir D --spans P
//! ```
//!
//! `run.py` measures the untraced end-to-end walls and turns the traced
//! numbers printed here into accounted fractions and tracing overhead.

mod trace;

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trace::Tracer;
use xbar_core::{CrossbarMatrix, DefectSampler, FunctionMatrix, MatchEngine, SampleStream};
use xbar_exp::experiments::table2::{
    mc_seed, row_from_accum, table2_artifact_data, table2_artifact_from_accums,
    table2_circuit_names, CircuitAccum,
};
use xbar_exp::launch::{
    merge_host_groups, parse_hosts, run_launch_with_report, Flight, LaunchConfig, LocalProc,
    Transport, WorkerJob,
};
use xbar_exp::service::{self, cache_key, ArtifactCache, Request, ServeOptions};
use xbar_exp::shard::coordinator::{merge_partials, render_stats_json, Worker, DEFAULT_RETRY_BASE};
use xbar_exp::shard::json::Json;
use xbar_exp::shard::partial::ShardPartial;
use xbar_exp::shard::{run_shard, McConfig, ShardSpec};
use xbar_exp::{
    find_experiment, monte_carlo_range_with, Artifact, ExpArgs, Experiment, Params, Reporter,
};
use xbar_logic::bench_reg::{find, BenchmarkInfo};
use xbar_logic::Cover;

type Metrics = BTreeMap<String, f64>;

/// What a replay reports besides its metrics.
struct Replay {
    metrics: Metrics,
    /// Wall seconds of the traced replay of the workload itself.
    traced_wall: f64,
    /// Replay root span: accounting covers its subtree only.
    root: u64,
    /// Correctness checks run and failed.
    checks: usize,
    failed: usize,
    /// `(circuit, hba successes, ea successes)` of the replayed campaign.
    counts: Vec<(String, u64, u64)>,
    /// Per-trial sampler + HBA + EA busy time inside the replay's Monte
    /// Carlo workers: counted, not spanned, so it is moved from the
    /// `exp.mc` layer's self time to `core`'s.
    trial_busy: f64,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: xbar-perfbench table2|launch|service [--flag value]...");
        std::process::exit(2);
    };
    let opts = match parse_opts(rest) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("xbar-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new();
    let result = match cmd.as_str() {
        "table2" => replay_table2(&tracer, &opts),
        "launch" => replay_launch(&tracer, &opts),
        "service" => replay_service(&tracer, &opts),
        other => Err(format!("unknown workload {other:?}")),
    };
    let replay = match result {
        Ok(replay) => replay,
        Err(e) => {
            eprintln!("xbar-perfbench {cmd}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = opts.get("spans") {
        if let Err(e) = tracer.write_jsonl(path, cmd) {
            eprintln!("xbar-perfbench: cannot write spans to {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", render_output(&tracer, &replay));
}

fn parse_opts(words: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut opts = BTreeMap::new();
    let mut it = words.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        opts.insert(key.to_owned(), value.clone());
    }
    Ok(opts)
}

fn opt<'a>(opts: &'a BTreeMap<String, String>, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn opt_num<T: std::str::FromStr>(opts: &BTreeMap<String, String>, key: &str) -> Result<T, String> {
    let text = opt(opts, key)?;
    text.parse()
        .map_err(|_| format!("--{key}: expected a number, got {text:?}"))
}

fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_owned()
    }
}

fn render_output(tracer: &Tracer, replay: &Replay) -> String {
    let mut metrics = replay.metrics.clone();
    let mut layers = tracer.layer_self_times_under(replay.root);
    if let Some(mc) = layers.get_mut("exp.mc") {
        *mc -= replay.trial_busy;
        *layers.entry("core".to_owned()).or_insert(0.0) += replay.trial_busy;
    }
    for (layer, secs) in layers {
        metrics.insert(format!("layer.{layer}.self_s"), secs);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_num(*v)))
        .collect();
    let counts: Vec<String> = replay
        .counts
        .iter()
        .map(|(name, hba, ea)| format!("\"{name}\": [{hba}, {ea}]"))
        .collect();
    format!(
        "{{\"traced_wall_s\": {}, \"layer_union_s\": {}, \"checks\": {}, \"failed\": {}, \
         \"counts\": {{{}}}, \"metrics\": {{{}}}}}",
        json_num(replay.traced_wall),
        json_num(tracer.layer_union_under(replay.root)),
        replay.checks,
        replay.failed,
        counts.join(", "),
        body.join(", ")
    )
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn table2_params(argv: &[String]) -> Result<(&'static dyn Experiment, Params), String> {
    let exp = find_experiment("table2").ok_or("table2 missing from the registry")?;
    let params = Params::parse(exp.extra_params(), argv.iter().cloned())
        .map_err(|e| format!("table2 parameters: {e}"))?;
    Ok((exp, params))
}

fn words(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

// ---------------------------------------------------------------------------
// core + exp.mc: one circuit's campaign, traced

/// Per-trial busy time of one Monte Carlo worker, summed into a shared
/// sink when the worker's state is dropped at the end of its chunk.
#[derive(Debug, Default, Clone, Copy)]
struct TrialBusy {
    sampler: f64,
    hba: f64,
    ea: f64,
}

impl TrialBusy {
    fn add(&mut self, other: &Self) {
        self.sampler += other.sampler;
        self.hba += other.hba;
        self.ea += other.ea;
    }
}

struct McWorker<'a> {
    tracer: &'a Tracer,
    id: u64,
    fold: u64,
    req: &'a str,
    start: Instant,
    engine: MatchEngine,
    cm: CrossbarMatrix,
    busy: TrialBusy,
    sink: &'a Mutex<TrialBusy>,
}

impl Drop for McWorker<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        self.tracer.record_id(
            self.id,
            "exp.mc.worker",
            Some(self.fold),
            self.req,
            self.start,
            end,
        );
        if let Ok(mut sink) = self.sink.lock() {
            sink.add(&self.busy);
        }
    }
}

/// One trial's outcome, folded into the circuit accumulator in sample order.
#[derive(Debug, Clone, Copy)]
struct Trial {
    hba_ok: bool,
    hba_secs: f64,
    ea_ok: bool,
    ea_secs: f64,
}

/// Replays `table2::run_circuit_range` for one circuit with a span around
/// each layer call: the cover (`logic`), the function matrix and per-worker
/// `prepare_fm` (`core`), and the Monte Carlo fan-out (`exp.mc`), with
/// per-trial sampler / HBA / EA busy time summed per worker. The trial body
/// is the program's own: same sampler, same engine calls, same seeds.
///
/// `monte_carlo_range_fold` is private to `xbar-exp`; the replay drives the
/// public `monte_carlo_range_with`, which shares its chunking and per-sample
/// seeding, and folds the per-sample results in sample order.
fn traced_circuit(
    tracer: &Tracer,
    parent: u64,
    info: &BenchmarkInfo,
    args: &ExpArgs,
    range: Range<usize>,
    busy: &Mutex<TrialBusy>,
) -> (Cover, CircuitAccum) {
    let name = info.name;
    let cover = tracer.span("logic.mapping_cover", Some(parent), name, |_| {
        info.mapping_cover(args.seed)
    });
    let fm = tracer.span("core.fm_prepare", Some(parent), name, |_| {
        FunctionMatrix::from_cover(&cover)
    });
    let (rows, cols) = (fm.num_rows(), fm.num_cols());
    let sampler = DefectSampler::with_model(args.stream, args.model);
    let trials: Vec<Trial> = tracer.span("exp.mc.fold", Some(parent), name, |fold| {
        monte_carlo_range_with(
            range,
            mc_seed(args.seed),
            || {
                let id = tracer.alloc();
                let start = Instant::now();
                let mut engine = MatchEngine::new();
                tracer.span("core.fm_prepare", Some(id), name, |_| {
                    engine.prepare_fm(&fm)
                });
                McWorker {
                    tracer,
                    id,
                    fold,
                    req: name,
                    start,
                    engine,
                    cm: CrossbarMatrix::perfect(rows, cols),
                    busy: TrialBusy::default(),
                    sink: busy,
                }
            },
            |w, _, seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let t0 = Instant::now();
                sampler.resample(&mut w.cm, args.defect_rate, &mut rng);
                let t1 = Instant::now();
                let (hba_ok, _) = w.engine.hybrid_success(&fm, &w.cm);
                let t2 = Instant::now();
                let (ea_ok, _) = w.engine.exact_success(&fm, &w.cm);
                let t3 = Instant::now();
                let trial = Trial {
                    hba_ok,
                    hba_secs: (t2 - t1).as_secs_f64(),
                    ea_ok,
                    ea_secs: (t3 - t2).as_secs_f64(),
                };
                w.busy.sampler += (t1 - t0).as_secs_f64();
                w.busy.hba += trial.hba_secs;
                w.busy.ea += trial.ea_secs;
                trial
            },
        )
    });
    let mut accum = CircuitAccum::new();
    for t in trials {
        accum.push(t.hba_ok, t.hba_secs, t.ea_ok, t.ea_secs);
    }
    (cover, accum)
}

/// Per-layer metrics every replay reports from its spans, so a traced run
/// of any workload carries the full list (0 where the workload's replay
/// does not reach the layer).
fn layer_metrics(spans: &[trace::Span], busy: &TrialBusy) -> Metrics {
    let mut m = Metrics::new();
    let (cover_s, cover_n) = trace::total(spans, "logic.mapping_cover", None);
    m.insert("logic.mapping_cover.calls".into(), cover_n as f64);
    m.insert("logic.mapping_cover.busy_s".into(), cover_s);
    m.insert(
        "logic.mapping_cover.busy_s.rd84".into(),
        trace::total(spans, "logic.mapping_cover", Some("rd84")).0,
    );
    m.insert(
        "core.fm_prepare.busy_s".into(),
        trace::total(spans, "core.fm_prepare", None).0,
    );
    m.insert("core.sampler.busy_s".into(), busy.sampler);
    m.insert("core.engine.hba.busy_s".into(), busy.hba);
    m.insert("core.engine.ea.busy_s".into(), busy.ea);
    // Σ worker busy / (workers × fold wall), over every fold.
    let mut worker_busy = 0.0;
    let mut capacity = 0.0;
    for fold in spans.iter().filter(|s| s.name == "exp.mc.fold") {
        let workers: Vec<f64> = spans
            .iter()
            .filter(|s| s.parent == Some(fold.id) && s.name == "exp.mc.worker")
            .map(trace::Span::secs)
            .collect();
        worker_busy += workers.iter().sum::<f64>();
        capacity += workers.len() as f64 * fold.secs();
    }
    m.insert(
        "exp.mc.parallel_eff".into(),
        if capacity > 0.0 {
            worker_busy / capacity
        } else {
            0.0
        },
    );
    m
}

/// Adjacency-build busy time by a differential pass (as in
/// `crates/bench/src/throughput.rs`): the same seeds replayed single-threaded
/// as resample-only and as resample + full `build_adjacency`; the difference
/// is one full build per trial. Each of HBA and EA pays up to one such build
/// (less when the Hall fast-fail truncates it). At most `cap` samples per
/// circuit are replayed and the result is scaled to the full range.
fn build_busy(covers: &[Cover], args: &ExpArgs, range: &Range<usize>, cap: usize) -> f64 {
    let used = range.len().min(cap);
    if used == 0 {
        return 0.0;
    }
    let sampler = DefectSampler::with_model(args.stream, args.model);
    let seed = mc_seed(args.seed);
    let mut total = 0.0;
    for cover in covers {
        let fm = FunctionMatrix::from_cover(cover);
        let mut engine = MatchEngine::new();
        engine.prepare_fm(&fm);
        let mut cm = CrossbarMatrix::perfect(fm.num_rows(), fm.num_cols());
        let samples = range.start..range.start + used;
        let t = Instant::now();
        for i in samples.clone() {
            let mut rng = StdRng::seed_from_u64(xbar_exp::sample_seed(seed, i));
            sampler.resample(&mut cm, args.defect_rate, &mut rng);
            std::hint::black_box(&cm);
        }
        let resample = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for i in samples {
            let mut rng = StdRng::seed_from_u64(xbar_exp::sample_seed(seed, i));
            sampler.resample(&mut cm, args.defect_rate, &mut rng);
            std::hint::black_box(engine.build_adjacency(&fm, &cm));
        }
        total += (t.elapsed().as_secs_f64() - resample).max(0.0);
    }
    total * range.len() as f64 / used as f64
}

// ---------------------------------------------------------------------------
// table2-mc

fn replay_table2(tracer: &Tracer, opts: &BTreeMap<String, String>) -> Result<Replay, String> {
    let samples: usize = opt_num(opts, "samples")?;
    let seed: u64 = opt_num(opts, "seed")?;
    let stream = SampleStream::parse(opt(opts, "stream")?)?;
    let argv = vec![
        "--samples".to_owned(),
        samples.to_string(),
        "--seed".to_owned(),
        seed.to_string(),
        "--rng-stream".to_owned(),
        stream.as_str().to_owned(),
    ];
    let (exp, params) = table2_params(&argv)?;
    let args = params.exp_args();
    let busy = Mutex::new(TrialBusy::default());

    let start = Instant::now();
    let root = tracer.alloc();
    let mut covers = Vec::new();
    let mut rows = Vec::new();
    let mut accums = Vec::new();
    let mut trial_us = Metrics::new();
    for name in table2_circuit_names() {
        let info = find(&name).map_err(|e| format!("{name}: {e}"))?;
        tracer.span("bench.circuit", Some(root), &name, |id| {
            let before = *busy.lock().expect("busy sink");
            let (cover, accum) = traced_circuit(tracer, id, info, &args, 0..samples, &busy);
            let after = *busy.lock().expect("busy sink");
            let per_trial =
                (after.sampler + after.hba + after.ea - before.sampler - before.hba - before.ea)
                    / samples.max(1) as f64;
            trial_us.insert(format!("core.trial_us.{name}"), per_trial * 1e6);
            rows.push(tracer.span("exp.run.row", Some(id), &name, |_| {
                row_from_accum(info, &cover, &accum)
            }));
            accums.push(accum);
            covers.push(cover);
        });
    }
    let document = tracer.span("exp.run.render", Some(root), "table2", |_| {
        Artifact::new(table2_artifact_data(&rows, &accums)).render(exp, &params)
    });
    let end = Instant::now();
    tracer.record_id(root, "bench.table2", None, "table2-mc", start, end);
    let traced_wall = (end - start).as_secs_f64();
    std::fs::write(opt(opts, "artifact-out")?, &document)
        .map_err(|e| format!("cannot write the replay artifact: {e}"))?;

    let total = *busy.lock().expect("busy sink");
    let mut metrics = layer_metrics(&tracer.subtree(root), &total);
    metrics.extend(trial_us);
    metrics.insert(
        "core.engine.build.busy_s".into(),
        build_busy(&covers, &args, &(0..samples), 500),
    );
    let counts = table2_circuit_names()
        .into_iter()
        .zip(&accums)
        .map(|(name, a)| (name, a.hba.successes, a.ea.successes))
        .collect();
    Ok(Replay {
        metrics,
        traced_wall,
        root,
        checks: 0,
        failed: 0,
        counts,
        trial_busy: total.sampler + total.hba + total.ea,
    })
}

// ---------------------------------------------------------------------------
// exp.shard: per-shard fixed cost

fn spawn_wall(binary: &Path, args: &[String]) -> Result<(f64, Vec<u8>), String> {
    let t = Instant::now();
    let out = Command::new(binary)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", binary.display()))?;
    let wall = t.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "{} {args:?} exited with {}",
            binary.display(),
            out.status
        ));
    }
    Ok((wall, out.stdout))
}

fn shard_worker_args(config: &McConfig, spec: &ShardSpec) -> Vec<String> {
    let mut args = words(&["mc", "shard"]);
    args.extend([
        "--samples".to_owned(),
        config.samples.to_string(),
        "--seed".to_owned(),
        config.seed.to_string(),
        "--defect-rate".to_owned(),
        format!("{:?}", config.defect_rate),
        "--rng-stream".to_owned(),
        config.stream.as_str().to_owned(),
        "--circuits".to_owned(),
        config.circuits.join(","),
        "--shard-index".to_owned(),
        spec.index.to_string(),
        "--num-shards".to_owned(),
        spec.num_shards.to_string(),
        "--out".to_owned(),
        "-".to_owned(),
    ]);
    args
}

fn same_counts(a: &ShardPartial, b: &ShardPartial) -> bool {
    a.spec == b.spec
        && a.circuits.len() == b.circuits.len()
        && a.circuits
            .iter()
            .zip(&b.circuits)
            .all(|((na, x), (nb, y))| na == nb && x.hba == y.hba && x.ea == y.ea)
}

/// Settles what one shard worker's fixed cost is made of. `config` has one
/// sample per shard, so shard 0's wall (`exp.shard.fixed_s`) is almost all
/// fixed cost. It is split into process start (`xbar mc shard --help`),
/// the covers (per circuit, rd84 named), FM prepare and partial encode, each
/// measured by an in-process replay of the same shard, and each reported in
/// seconds and as a share of `fixed_s`. Worker runs and replays alternate
/// over `PROBE_ROUNDS` rounds. Each share is taken within a round, against
/// that round's worker wall, and then the median over rounds, so
/// machine-speed drift between rounds cannot skew the split; the seconds
/// are medians over rounds. Each replayed partial must carry the worker's
/// success counts.
///
/// Returns the metrics, the last round's trial busy time and its span root.
fn shard_probe(
    tracer: &Tracer,
    xbar: &Path,
    config: &McConfig,
    checks: &mut (usize, usize),
) -> Result<(Metrics, TrialBusy, u64), String> {
    const PROBE_ROUNDS: usize = 5;
    let spec = ShardSpec::partition(config.samples, config.samples)[0];
    let help = words(&["mc", "shard", "--help"]);
    let args = shard_worker_args(config, &spec);
    let exp_args = config.exp_args();
    let (mut starts, mut walls, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    let mut busy = TrialBusy::default();
    let mut last_encoded = Vec::new();
    for _ in 0..PROBE_ROUNDS {
        starts.push(spawn_wall(xbar, &help)?.0);
        let (wall, worker_bytes) = spawn_wall(xbar, &args)?;
        walls.push(wall);

        let sink = Mutex::new(TrialBusy::default());
        let probe = tracer.alloc();
        let t0 = Instant::now();
        let mut circuits = Vec::new();
        for name in &config.circuits {
            let info = find(name).map_err(|e| format!("{name}: {e}"))?;
            let (_, accum) = traced_circuit(tracer, probe, info, &exp_args, spec.range(), &sink);
            circuits.push((name.clone(), accum));
        }
        let partial = ShardPartial {
            config: config.clone(),
            spec,
            circuits,
        };
        let encoded = tracer.span("exp.shard.encode", Some(probe), "probe", |_| {
            partial.to_json()
        });
        tracer.record_id(
            probe,
            "bench.shard_probe",
            None,
            "probe",
            t0,
            Instant::now(),
        );
        last_encoded = encoded.into_bytes();
        busy = *sink.lock().expect("busy sink");
        rounds.push(tracer.subtree(probe));

        let text = String::from_utf8(worker_bytes).map_err(|e| format!("worker output: {e}"))?;
        let decoded =
            ShardPartial::from_json(&text).and_then(|p| p.validate_for(config, &spec).map(|()| p));
        checks.0 += 1;
        if !decoded.as_ref().is_ok_and(|p| same_counts(p, &partial)) {
            checks.1 += 1;
            eprintln!("xbar-perfbench: shard probe disagrees with the worker's partial");
        }
    }
    // The replay mirrors `run_shard`; the program's own call must agree.
    let reference = run_shard(config, &spec);
    let replayed = ShardPartial::from_json(&String::from_utf8_lossy(&last_encoded));
    checks.0 += 1;
    if !replayed.as_ref().is_ok_and(|p| same_counts(p, &reference)) {
        checks.1 += 1;
        eprintln!("xbar-perfbench: shard probe disagrees with run_shard");
    }

    // Each piece's seconds in every round.
    let per_round = |name: &str, req: Option<&str>| -> Vec<f64> {
        rounds
            .iter()
            .map(|spans| trace::total(spans, name, req).0)
            .collect()
    };
    let pieces = [
        ("start", starts),
        ("cover", per_round("logic.mapping_cover", None)),
        ("cover_rd84", per_round("logic.mapping_cover", Some("rd84"))),
        ("fm_prepare", per_round("core.fm_prepare", None)),
        ("encode", per_round("exp.shard.encode", None)),
    ];
    let shares = |secs: &[f64]| median(secs.iter().zip(&walls).map(|(s, w)| s / w).collect());
    let mut m = Metrics::new();
    for name in &config.circuits {
        m.insert(
            format!("exp.shard.fixed.cover_s.{name}"),
            median(per_round("logic.mapping_cover", Some(name))),
        );
    }
    m.insert("exp.shard.fixed_s".into(), median(walls.clone()));
    m.insert("exp.shard.partial_bytes".into(), last_encoded.len() as f64);
    let mut other = walls.clone();
    for (piece, secs) in &pieces {
        m.insert(format!("exp.shard.fixed.{piece}_s"), median(secs.clone()));
        m.insert(format!("exp.shard.fixed.{piece}_frac"), shares(secs));
        if *piece != "cover_rd84" {
            for (rest, s) in other.iter_mut().zip(secs) {
                *rest -= s;
            }
        }
    }
    m.insert("exp.shard.fixed.other_frac".into(), shares(&other));
    let last = rounds
        .last()
        .and_then(|spans| spans.iter().find(|s| s.parent.is_none()))
        .map_or(0, |s| s.id);
    Ok((m, busy, last))
}

/// Encode and decode + validate busy time over a set of partial streams:
/// each stream is decoded and validated exactly as the launcher does, then
/// re-encoded with `ShardPartial::to_json`.
fn codec_busy(
    tracer: &Tracer,
    parent: u64,
    config: &McConfig,
    streams: &[(String, ShardSpec, Vec<u8>)],
) -> Result<Vec<(String, ShardPartial)>, String> {
    let mut out = Vec::new();
    for (host, spec, bytes) in streams {
        let text = String::from_utf8_lossy(bytes);
        let partial = tracer.span("exp.shard.decode_validate", Some(parent), host, |_| {
            ShardPartial::from_json(&text).and_then(|p| p.validate_for(config, spec).map(|()| p))
        })?;
        let encoded = tracer.span("exp.shard.encode", Some(parent), host, |_| {
            partial.to_json()
        });
        std::hint::black_box(encoded);
        out.push((host.clone(), partial));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// exp.launch

/// One resolved flight as the scheduler saw it.
#[derive(Debug)]
struct FlightRec {
    host: String,
    shard: usize,
    start: Instant,
    end: Instant,
    stream: Option<Vec<u8>>,
}

/// Benchmark-owned transport: `LocalProc` plus a record of every flight's
/// dispatch and resolution time and its returned stream.
struct Recording {
    log: Arc<Mutex<Vec<FlightRec>>>,
}

struct RecFlight {
    inner: Box<dyn Flight>,
    host: String,
    shard: usize,
    start: Instant,
    done: bool,
    log: Arc<Mutex<Vec<FlightRec>>>,
}

impl RecFlight {
    /// Records the flight once: the scheduler may cancel a flight that
    /// already resolved.
    fn finish(&mut self, stream: Option<Vec<u8>>) {
        if std::mem::replace(&mut self.done, true) {
            return;
        }
        if let Ok(mut log) = self.log.lock() {
            log.push(FlightRec {
                host: self.host.clone(),
                shard: self.shard,
                start: self.start,
                end: Instant::now(),
                stream,
            });
        }
    }
}

impl Flight for RecFlight {
    fn poll(&mut self) -> Option<Result<Vec<u8>, String>> {
        let result = self.inner.poll();
        if let Some(outcome) = &result {
            self.finish(outcome.as_ref().ok().cloned());
        }
        result
    }

    fn cancel(&mut self) {
        self.inner.cancel();
        self.finish(None);
    }
}

impl Transport for Recording {
    fn dispatch(&self, host: &str, job: &WorkerJob) -> Result<Box<dyn Flight>, String> {
        let shard = job
            .args
            .iter()
            .position(|a| a == "--shard-index")
            .and_then(|i| job.args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(usize::MAX);
        let start = Instant::now();
        let inner = LocalProc.dispatch(host, job)?;
        Ok(Box::new(RecFlight {
            inner,
            host: host.to_owned(),
            shard,
            start,
            done: false,
            log: Arc::clone(&self.log),
        }))
    }
}

fn replay_launch(tracer: &Tracer, opts: &BTreeMap<String, String>) -> Result<Replay, String> {
    let samples: usize = opt_num(opts, "samples")?;
    let shards: usize = opt_num(opts, "shards")?;
    let seed: u64 = opt_num(opts, "seed")?;
    let xbar = PathBuf::from(opt(opts, "xbar")?);
    let hosts = parse_hosts(opt(opts, "hosts")?)?;
    let slots: usize = hosts.iter().map(|h| h.slots).sum();
    let config = McConfig::with_default_circuits(samples, seed, 0.10);
    let cfg = LaunchConfig {
        config: config.clone(),
        shards,
        max_attempts: 3,
        worker: Worker::xbar(xbar.clone()),
        work_dir: PathBuf::from(opt(opts, "work-dir")?),
        extra_worker_args: Vec::new(),
        keep_partials: false,
        shard_timeout: None,
        hedge_after: None,
        resume: false,
        retry_base: DEFAULT_RETRY_BASE,
        hosts,
        quarantine_after: xbar_exp::launch::pool::DEFAULT_QUARANTINE_AFTER,
        probation: xbar_exp::launch::pool::DEFAULT_PROBATION,
    };
    // The argv `xbar mc launch --artifact` rebuilds its document against.
    let argv = vec![
        "--samples".to_owned(),
        samples.to_string(),
        "--seed".to_owned(),
        seed.to_string(),
        "--defect-rate".to_owned(),
        format!("{:?}", config.defect_rate),
        "--rng-stream".to_owned(),
        config.stream.as_str().to_owned(),
    ];
    let (exp, params) = table2_params(&argv)?;

    // The shard probe runs first, while this process's heap is fresh, so the
    // launch's allocation churn cannot slow its in-process covers.
    let mut checks = (0, 0);
    let probe_config = McConfig::with_default_circuits(shards, seed, 0.10);
    let (probe, busy, probe_root) = shard_probe(tracer, &xbar, &probe_config, &mut checks)?;

    let transport = Recording {
        log: Arc::new(Mutex::new(Vec::new())),
    };

    let start = Instant::now();
    let root = tracer.alloc();
    let run = tracer.alloc();
    let launched = run_launch_with_report(&cfg, &transport);
    let run_end = Instant::now();
    tracer.record_id(
        run,
        "exp.launch.run",
        Some(root),
        "launch-fanout",
        start,
        run_end,
    );
    let (merged, report) = launched?;
    let document = tracer.span("exp.launch.artifact_rebuild", Some(root), "table2", |_| {
        table2_artifact_from_accums(&merged.circuits, seed, exp, &params)
    })?;
    let end = Instant::now();
    tracer.record_id(root, "bench.launch", None, "launch-fanout", start, end);
    let traced_wall = (end - start).as_secs_f64();
    std::fs::write(opt(opts, "artifact-out")?, &document)
        .map_err(|e| format!("cannot write the replay artifact: {e}"))?;

    let flights = std::mem::take(&mut *transport.log.lock().expect("flight log"));
    let mut durations = Vec::new();
    let mut winners = Vec::new();
    for f in &flights {
        let req = format!("shard-{}@{}", f.shard, f.host);
        tracer.record("exp.launch.flight", Some(run), &req, f.start, f.end);
        durations.push((f.end - f.start).as_secs_f64());
        if let Some(bytes) = &f.stream {
            winners.push((f.host.clone(), f.shard, bytes.clone()));
        }
    }
    // Replay the launcher's per-stream decode + validate and its two-level
    // merge on the streams it received; the merge must equal the launch's.
    let specs = ShardSpec::partition(samples, shards);
    let streams: Vec<(String, ShardSpec, Vec<u8>)> = winners
        .into_iter()
        .filter_map(|(host, shard, bytes)| specs.get(shard).map(|s| (host, *s, bytes)))
        .collect();
    let codec = tracer.alloc();
    let c0 = Instant::now();
    let assigned = codec_busy(tracer, codec, &config, &streams)?;
    let remerged = tracer.span("exp.launch.merge", Some(codec), "replay", |_| {
        merge_host_groups(&config, &assigned)
    })?;
    tracer.record_id(
        codec,
        "bench.codec_replay",
        None,
        "launch-fanout",
        c0,
        Instant::now(),
    );
    // The two-level merge tree must equal the flat merge and the launch's.
    let partials: Vec<ShardPartial> = assigned.into_iter().map(|(_, p)| p).collect();
    let flat = merge_partials(&config, &partials)?;
    let want = render_stats_json(&merged);
    checks.0 += 2;
    checks.1 += usize::from(render_stats_json(&remerged) != want)
        + usize::from(render_stats_json(&flat) != want);

    let mut metrics = layer_metrics(&tracer.subtree(probe_root), &busy);
    metrics.extend(probe);
    let flight_total: f64 = durations.iter().sum();
    let max = durations.iter().copied().fold(0.0, f64::max);
    metrics.insert("exp.launch.flight_s_p50".into(), median(durations));
    metrics.insert("exp.launch.flight_s_max".into(), max);
    metrics.insert(
        "exp.launch.slot_busy_frac".into(),
        flight_total / (slots as f64 * (run_end - start).as_secs_f64()),
    );
    let codec_spans = tracer.subtree(codec);
    metrics.insert(
        "exp.launch.merge.busy_s".into(),
        trace::total(&codec_spans, "exp.launch.merge", None).0,
    );
    metrics.insert(
        "exp.launch.artifact_rebuild.busy_s".into(),
        trace::total(&tracer.subtree(root), "exp.launch.artifact_rebuild", None).0,
    );
    metrics.insert("exp.launch.dispatches".into(), report.base.spawned as f64);
    metrics.insert("exp.launch.retries".into(), report.base.retries as f64);
    metrics.insert("exp.launch.hedges".into(), report.hedges as f64);
    add_codec_metrics(&codec_spans, &mut metrics);
    Ok(Replay {
        metrics,
        traced_wall,
        root,
        checks: checks.0,
        failed: checks.1,
        counts: Vec::new(),
        trial_busy: 0.0,
    })
}

fn add_codec_metrics(spans: &[trace::Span], metrics: &mut Metrics) {
    metrics.insert(
        "exp.shard.encode.busy_s".into(),
        trace::total(spans, "exp.shard.encode", None).0,
    );
    metrics.insert(
        "exp.shard.decode_validate.busy_s".into(),
        trace::total(spans, "exp.shard.decode_validate", None).0,
    );
}

// ---------------------------------------------------------------------------
// exp.service

#[derive(Debug)]
struct Served {
    disposition: String,
    /// Connect → `submitted` line, and `submitted` → `result` line.
    submitted_s: f64,
    settle_s: f64,
    artifact: Result<String, String>,
}

fn submit(tracer: &Tracer, addr: SocketAddr, args: &[String], req: &str) -> Result<Served, String> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let line = Request::Submit {
        experiment: "table2".to_owned(),
        args: args.to_vec(),
        wait: true,
    }
    .render();
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut submitted = None;
    for line in BufReader::new(stream).lines() {
        let line = line.map_err(|e| format!("read: {e}"))?;
        let doc = Json::parse(&line).map_err(|e| format!("bad response: {e}"))?;
        match doc.get("type").and_then(Json::as_str) {
            Some("submitted") => {
                let disposition = doc.get("cache").and_then(Json::as_str).unwrap_or("?");
                submitted = Some((Instant::now(), disposition.to_owned()));
            }
            Some("progress") => {}
            Some(kind @ ("result" | "error")) => {
                let t2 = Instant::now();
                let (t1, disposition) = submitted.ok_or("result before submitted")?;
                let id = tracer.record("exp.service.request", None, req, t0, t2);
                tracer.record("exp.service.submitted", Some(id), req, t0, t1);
                tracer.record("exp.service.settle", Some(id), req, t1, t2);
                let artifact = if kind == "result" {
                    doc.get("artifact")
                        .and_then(Json::as_str)
                        .map(str::to_owned)
                        .ok_or_else(|| "result without artifact".to_owned())
                } else {
                    Err(doc
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_owned())
                };
                return Ok(Served {
                    disposition,
                    submitted_s: (t1 - t0).as_secs_f64(),
                    settle_s: (t2 - t1).as_secs_f64(),
                    artifact,
                });
            }
            _ => return Err(format!("unexpected response {line}")),
        }
    }
    Err("connection closed before the result".to_owned())
}

fn service_stats(addr: SocketAddr) -> Result<Json, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(format!("{}\n", Request::Stats.render()).as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("read: {e}"))?;
    Json::parse(line.trim()).map_err(|e| format!("bad stats: {e}"))
}

fn replay_service(tracer: &Tracer, opts: &BTreeMap<String, String>) -> Result<Replay, String> {
    let count: usize = opt_num(opts, "count")?;
    let seed: u64 = opt_num(opts, "seed")?;
    let circuits = opt(opts, "circuits")?.to_owned();
    let xbar = PathBuf::from(opt(opts, "xbar")?);
    let work_dir = PathBuf::from(opt(opts, "work-dir")?);
    let text = std::fs::read_to_string(opt(opts, "requests")?)
        .map_err(|e| format!("cannot read the request sequence: {e}"))?;
    let requests: Vec<Vec<String>> = text
        .lines()
        .take(count)
        .map(|line| line.split_whitespace().map(str::to_owned).collect())
        .collect();

    // The shard probe runs first, while this process's heap is fresh, so the
    // replay's allocation churn cannot slow its in-process covers.
    let mut probe_checks = (0, 0);
    let probe_config = McConfig {
        circuits: circuits.split(',').map(str::to_owned).collect(),
        ..McConfig::with_default_circuits(4, seed, 0.10)
    };
    let (probe, busy, probe_root) = shard_probe(tracer, &xbar, &probe_config, &mut probe_checks)?;

    let handle = service::start(ServeOptions {
        listen: "127.0.0.1:0".to_owned(),
        work_dir: work_dir.clone(),
        ..ServeOptions::default()
    })?;
    let addr = handle.addr();
    let next = AtomicUsize::new(0);
    let served: Mutex<Vec<(usize, Served)>> = Mutex::new(Vec::new());
    let errors = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(args) = requests.get(i) else { break };
                match submit(tracer, addr, args, &format!("r{i}")) {
                    Ok(s) => served.lock().expect("served log").push((i, s)),
                    Err(e) => {
                        eprintln!("xbar-perfbench: request {i}: {e}");
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let end = Instant::now();
    let stats = service_stats(addr);
    handle.shutdown_and_wait();
    let stats = stats?;
    let traced_wall = (end - start).as_secs_f64();
    let root = tracer.alloc();
    // The request spans are roots of their own; adopt them under one replay
    // root so accounting covers exactly the replayed requests.
    tracer.adopt_roots("exp.service.request", root);
    tracer.record_id(root, "bench.service", None, "service-mix", start, end);

    // Every served artifact must equal an in-process `xbar run` of its
    // parameters; each cache entry is also timed through `lookup`.
    let served = served.into_inner().expect("served log");
    let cache = ArtifactCache::open(&work_dir.join("cache"))?;
    let mut expected: BTreeMap<Vec<String>, String> = BTreeMap::new();
    let mut lookups = Vec::new();
    let mut failed = errors.load(Ordering::Relaxed);
    let mut hits = 0usize;
    for (i, s) in &served {
        let args = &requests[*i];
        if !expected.contains_key(args) {
            let (exp, params) = table2_params(args)?;
            let doc = exp
                .run(&params, &mut Reporter::quiet())
                .map_err(|e| format!("in-process table2: {e:?}"))?
                .render(exp, &params);
            let t = Instant::now();
            let key = cache_key(exp, &params);
            let found = cache.lookup(&key);
            lookups.push(t.elapsed().as_secs_f64() * 1e3);
            if found.as_deref() != Some(doc.as_str()) {
                failed += 1;
                eprintln!("xbar-perfbench: cache entry for {args:?} differs from xbar run");
            }
            expected.insert(args.clone(), doc);
        }
        if s.artifact.as_ref().ok() != expected.get(args) {
            failed += 1;
            eprintln!("xbar-perfbench: request {i} ({args:?}) served a wrong artifact");
        }
        hits += usize::from(s.disposition == "hit");
    }

    let checks = (
        probe_checks.0 + count + expected.len(),
        probe_checks.1 + failed,
    );
    let probe_spans = tracer.subtree(probe_root);
    let mut metrics = layer_metrics(&probe_spans, &busy);
    metrics.extend(probe);
    add_codec_metrics(&probe_spans, &mut metrics);
    // The cache path is what hits pay before `submitted`; the queue, the
    // execution and the wait-poll are what cold jobs pay after it.
    let of = |disposition: &str, f: fn(&Served) -> f64| {
        median(
            served
                .iter()
                .filter(|(_, s)| s.disposition == disposition)
                .map(|(_, s)| f(s))
                .collect(),
        )
    };
    metrics.insert(
        "exp.service.submitted_ms_p50".into(),
        of("hit", |s| s.submitted_s) * 1e3,
    );
    metrics.insert(
        "exp.service.settle_s_p50".into(),
        of("miss", |s| s.settle_s),
    );
    metrics.insert("exp.service.cache.lookup_ms".into(), median(lookups));
    metrics.insert(
        "exp.service.hit_ratio".into(),
        hits as f64 / served.len().max(1) as f64,
    );
    for key in ["coalesced", "shard_spawned", "max_running_observed"] {
        let value = stats.get(key).and_then(Json::as_u64).unwrap_or(0);
        metrics.insert(format!("exp.service.{key}"), value as f64);
    }
    Ok(Replay {
        metrics,
        traced_wall,
        root,
        checks: checks.0,
        failed: checks.1,
        counts: Vec::new(),
        trial_busy: 0.0,
    })
}
