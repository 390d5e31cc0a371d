//! Mapping-throughput benchmark: legacy dense mappers vs the bitset
//! `MatchEngine` on the table2-style Monte Carlo workload, emitted as
//! `BENCH_mapping.json` so the speedup is tracked across PRs.
//!
//! Usage: `cargo run --release -p xbar-bench --bin mapping_throughput --
//! [--samples N] [--seed N] [--defect-rate F] [--circuits a,b,c]
//! [--out PATH] [--quick]`

use std::path::PathBuf;
use xbar_bench::throughput::{
    measure_circuit, measure_model_dispatch, measure_service_overhead, measure_sharded,
    registry_crosscheck, render_json_full,
};
use xbar_bench::TABLE2_BENCH_CIRCUITS;
use xbar_core::SampleStream;
use xbar_exp::shard::coordinator::default_worker;

struct Args {
    samples: usize,
    seed: u64,
    defect_rate: f64,
    circuits: Vec<String>,
    out: PathBuf,
    shard_workers: usize,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            samples: 200,
            seed: 2018,
            defect_rate: 0.10,
            circuits: TABLE2_BENCH_CIRCUITS
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            out: PathBuf::from("BENCH_mapping.json"),
            shard_workers: 3,
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--samples" => {
                args.samples = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--samples needs a number"));
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--seed needs a number"));
            }
            "--defect-rate" => {
                args.defect_rate = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--defect-rate needs a float"));
            }
            "--circuits" => {
                let list = it.next().unwrap_or_else(|| panic!("--circuits needs a,b"));
                args.circuits = list.split(',').map(str::to_owned).collect();
            }
            "--out" => {
                args.out = PathBuf::from(it.next().unwrap_or_else(|| panic!("--out needs a path")));
            }
            "--shard-workers" => {
                args.shard_workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--shard-workers needs a number"));
            }
            "--quick" => args.samples = (args.samples / 10).max(5),
            "--help" | "-h" => {
                println!(
                    "mapping throughput: legacy dense mappers vs the bitset MatchEngine\n\n\
                     flags:\n  --samples N       trials per circuit per path (default 200)\n  \
                     --seed N          experiment seed (default 2018)\n  \
                     --defect-rate F   stuck-open probability (default 0.10)\n  \
                     --circuits a,b    registry circuits (default: the Table II bench set)\n  \
                     --out PATH        JSON output path (default BENCH_mapping.json)\n  \
                     --shard-workers N sharded-coordinator entry with N worker\n                    \
processes (default 3; 0 disables; skipped when\n                    \
the xbar binary is not built)\n  \
                     --quick           1/10th of the samples (smoke run)"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other:?}; try --help"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    println!(
        "mapping throughput: {} samples/circuit at {:.0}% defects (seed {})",
        args.samples,
        args.defect_rate * 100.0,
        args.seed
    );
    // Every circuit is measured once per sampling stream: the V1 entries
    // track the frozen dense sweep, the V2 entries the geometric skip —
    // the bench gate compares the two streams' resample and end-to-end
    // throughput on the same campaign.
    let mut results = Vec::new();
    for stream in SampleStream::ALL {
        for name in &args.circuits {
            let r = measure_circuit(name, args.samples, args.defect_rate, args.seed, stream);
            println!(
                "  {:<8} [{}] {:>4}x{:<3} legacy {:>9.1}/s  engine {:>10.1}/s  speedup {:>6.2}x  \
                 resample {:>10.1}/s",
                r.name,
                r.stream,
                r.rows,
                r.cols,
                r.legacy_sps(),
                r.engine_sps(),
                r.speedup(),
                r.resample_sps()
            );
            results.push(r);
        }
    }
    let legacy: f64 = results.iter().map(|r| r.legacy_secs).sum();
    let engine: f64 = results.iter().map(|r| r.engine_secs).sum();
    println!(
        "total speedup: {:.2}x ({:.2}s -> {:.2}s)",
        legacy / engine.max(f64::MIN_POSITIVE),
        legacy,
        engine
    );
    // Tie the bench to the public API: the registry's table2 experiment
    // must report the exact success counts measured above.
    registry_crosscheck(&results, args.defect_rate, args.seed);
    println!(
        "registry crosscheck: table2 experiment reproduces every success count (both streams)"
    );
    // Process-sharded coordinator throughput: same campaign through the
    // xbar worker binary, merged stats asserted byte-identical to the
    // monolithic run. Tracks the fan-out overhead of the multi-host path.
    let sharded = if args.shard_workers == 0 {
        None
    } else {
        match default_worker() {
            Ok(worker) => {
                // 10x the per-path sample count: the per-circuit mapping
                // workload is fast enough post-engine that the bench's own
                // sample count barely amortizes process spawn; the sharded
                // entry should reflect steady-state sharding, with the
                // fixed fan-out cost reported separately.
                let sharded_samples = (args.samples * 10).max(args.shard_workers);
                let s = measure_sharded(
                    &args.circuits,
                    sharded_samples,
                    args.defect_rate,
                    args.seed,
                    args.shard_workers,
                    worker,
                );
                println!(
                    "sharded coordinator ({} workers, {} samples/circuit): {:.1}/s vs \
                     single-process {:.1}/s (stats byte-identical)",
                    s.shards,
                    s.samples,
                    s.sharded_sps(),
                    s.single_sps(),
                );
                Some(s)
            }
            Err(e) => {
                println!("skipping sharded entry: {e}");
                None
            }
        }
    };
    // Defect-model dispatch overhead on the i.i.d. hot path: the frozen
    // direct resample API vs the same draw routed through the DefectSampler
    // model dispatch. Guards the PR-8 trait layer against regressing the
    // V1 Monte Carlo inner loop.
    let dispatch = measure_model_dispatch(128, 48, args.samples * 50, args.defect_rate, args.seed);
    println!(
        "model dispatch ({}x{}, {} resamples): direct {:.1}/s  dispatch {:.1}/s  ({:.2}x)",
        dispatch.rows,
        dispatch.cols,
        dispatch.samples,
        dispatch.direct_sps(),
        dispatch.dispatch_sps(),
        dispatch.ratio()
    );
    // Yield-oracle service front: the same table2 submit answered cold
    // (execute + cache) vs warm (content-addressed cache hit). Guards the
    // serving path — a repeated question must cost a round-trip, not a
    // campaign.
    let service = measure_service_overhead(args.samples, args.defect_rate, args.seed);
    println!(
        "service overhead ({} samples): cold {:.1}ms  cache hit {:.3}ms  ({:.1}x, byte-identical)",
        service.samples,
        service.cold_secs * 1000.0,
        service.cache_hit_secs * 1000.0,
        service.cold_over_hit()
    );
    let json = render_json_full(
        &results,
        args.defect_rate,
        args.seed,
        sharded.as_ref(),
        Some(&dispatch),
        Some(&service),
    );
    std::fs::write(&args.out, &json).expect("write BENCH_mapping.json");
    println!("wrote {}", args.out.display());
}
