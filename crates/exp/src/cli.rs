//! The `xbar` command-line driver: one binary, every experiment.
//!
//! * `xbar list` — all registered experiments;
//! * `xbar describe <exp>` — description plus auto-generated flag help;
//! * `xbar run <exp> [flags]` — run through the typed [`Experiment`] API,
//!   with `--json` printing the canonical artifact and `--out DIR`
//!   writing it to disk;
//! * `xbar mc shard|coordinate|launch` — the sharded Monte Carlo entry
//!   points;
//! * `xbar serve` / `xbar submit` — the yield-oracle daemon and its
//!   client (see [`crate::service`]).
//!
//! All parsing is `Result`-based: usage problems print the relevant help
//! to stderr and exit with code **2**, runtime failures exit with **1** —
//! never a panic/backtrace.

use crate::experiment::{find_experiment, registry, ExpError, Params, Reporter};
use crate::shard;

const TOP_USAGE: &str = "xbar — unified driver for every experiment in the \
Tunali & Altun (DATE 2018) reproduction

usage:
  xbar list                      list registered experiments
  xbar describe <experiment>     one experiment's description and flags
  xbar run <experiment> [flags]  run an experiment
  xbar mc shard [flags]          run one shard of a sharded MC campaign
  xbar mc coordinate [flags]     coordinate worker processes and merge
  xbar mc launch [flags]         dispatch shards across a fleet of hosts
  xbar serve [flags]             queued, cache-fronted experiment daemon
  xbar submit <experiment> [...] submit to a running daemon

common run flags (see `xbar describe <experiment>` for per-experiment ones):
  --samples N --seed N --defect-rate F --quick --json --out DIR --csv PATH

exit codes: 0 success, 1 runtime failure, 2 usage error";

/// Runs the `xbar` CLI on an argument stream (program name already
/// stripped); returns the process exit code.
pub fn run_cli(args: impl IntoIterator<Item = String>) -> i32 {
    let mut args = args.into_iter();
    let Some(command) = args.next() else {
        eprintln!("{TOP_USAGE}");
        return 2;
    };
    match command.as_str() {
        "list" => {
            list_experiments();
            0
        }
        "describe" => match args.next() {
            Some(name) => describe_experiment(&name),
            None => {
                eprintln!("xbar describe: which experiment? (see `xbar list`)");
                2
            }
        },
        "run" => match args.next() {
            Some(name) => run_experiment(&name, args.collect()),
            None => {
                eprintln!("xbar run: which experiment? (see `xbar list`)");
                2
            }
        },
        "mc" => match args.next().as_deref() {
            Some("shard") => shard::cli::shard_main(args.collect()),
            Some("coordinate") => shard::cli::coordinate_main(args.collect()),
            Some("launch") => crate::launch::cli::launch_main(args.collect()),
            Some(other) => {
                eprintln!("xbar mc: unknown subcommand {other:?} (shard | coordinate | launch)");
                2
            }
            None => {
                eprintln!("xbar mc: which subcommand? (shard | coordinate | launch)");
                2
            }
        },
        "serve" => crate::service::serve_main(args.collect()),
        "submit" => crate::service::submit_main(args.collect()),
        "--help" | "-h" | "help" => {
            println!("{TOP_USAGE}");
            0
        }
        other => {
            eprintln!("xbar: unknown command {other:?}\n\n{TOP_USAGE}");
            2
        }
    }
}

fn list_experiments() {
    let width = registry().iter().map(|e| e.name().len()).max().unwrap_or(0);
    for exp in registry() {
        println!("{:<width$}  {}", exp.name(), exp.description());
    }
}

fn describe_experiment(name: &str) -> i32 {
    match find_experiment(name) {
        Some(exp) => {
            println!(
                "{}",
                Params::usage(exp.name(), exp.description(), exp.extra_params())
            );
            0
        }
        None => {
            eprintln!("xbar: unknown experiment {name:?} (see `xbar list`)");
            2
        }
    }
}

fn run_experiment(name: &str, rest: Vec<String>) -> i32 {
    let Some(exp) = find_experiment(name) else {
        eprintln!("xbar: unknown experiment {name:?} (see `xbar list`)");
        return 2;
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "{}",
            Params::usage(exp.name(), exp.description(), exp.extra_params())
        );
        return 0;
    }
    let params = match Params::parse(exp.extra_params(), rest) {
        Ok(p) => p,
        Err(e) => {
            eprintln!(
                "xbar run {name}: {e}\n\n{}",
                Params::usage(exp.name(), exp.description(), exp.extra_params())
            );
            return 2;
        }
    };
    let mut reporter = if params.json {
        Reporter::quiet()
    } else {
        Reporter::stdout()
    };
    match exp.run(&params, &mut reporter) {
        Ok(artifact) => {
            let document = artifact.render(exp, &params);
            if params.json {
                print!("{document}");
            }
            if let Some(dir) = &params.out {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("xbar: cannot create {}: {e}", dir.display());
                    return 1;
                }
                let path = dir.join(format!("{name}.json"));
                // Atomic so a crash mid-write never leaves a torn artifact
                // where a previous good one stood.
                if let Err(e) = crate::atomic::write_atomic(&path, document.as_bytes()) {
                    eprintln!("xbar: cannot write {}: {e}", path.display());
                    return 1;
                }
                if !params.json {
                    println!("wrote artifact to {}", path.display());
                }
            }
            0
        }
        Err(ExpError::Usage(msg)) => {
            eprintln!(
                "xbar run {name}: {msg}\n\n{}",
                Params::usage(exp.name(), exp.description(), exp.extra_params())
            );
            2
        }
        Err(ExpError::Failed(msg)) => {
            eprintln!("xbar run {name}: {msg}");
            1
        }
    }
}
