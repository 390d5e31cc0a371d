//! Integration tests of the typed `Experiment` API and the `xbar` CLI:
//! registry completeness, parse round-trips (including error paths and
//! exit codes), golden artifact-schema pins, legacy-shim equivalence, and
//! the `xbar mc` byte-identity contract.

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::{Command, Output};
use xbar_exp::shard::json::Json;
use xbar_exp::{find_experiment, registry, ExpError, Params, Reporter};

// ---------------------------------------------------------------------------
// Registry completeness
// ---------------------------------------------------------------------------

#[test]
fn registry_covers_every_experiment_with_unique_names() {
    let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
    assert_eq!(names.len(), 18, "tables + figures + ext studies + yield");
    let unique: HashSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "duplicate names in {names:?}");
    // Every pre-redesign binary's experiment is present.
    for expected in [
        "table1",
        "table2",
        "fig1",
        "fig2_fig4",
        "fig3",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "ext_yield_redundancy",
        "ext_multilevel_defects",
        "ext_ablation_hba",
        "ext_analog_validation",
        "ext_column_redundancy",
        "ext_defect_scan",
        "ext_model_yield",
        "ext_cluster_tolerance",
        "estimate_yield",
    ] {
        assert!(
            names.contains(&expected),
            "{expected} missing from registry"
        );
    }
}

#[test]
fn registry_descriptions_and_param_specs_are_well_formed() {
    for exp in registry() {
        assert!(
            !exp.description().trim().is_empty(),
            "{}: empty description",
            exp.name()
        );
        let mut seen = HashSet::new();
        for spec in exp.extra_params() {
            assert!(
                seen.insert(spec.name),
                "{}: duplicate param --{}",
                exp.name(),
                spec.name
            );
            assert!(!spec.help.trim().is_empty(), "--{} has no help", spec.name);
            assert!(
                !spec.name.starts_with('-') && !spec.name.contains(' '),
                "--{} is not a bare kebab-case name",
                spec.name
            );
        }
        // Defaults must parse for every experiment (panics otherwise).
        let _ = Params::defaults(exp.extra_params());
    }
}

#[test]
fn find_experiment_resolves_names_and_rejects_unknowns() {
    assert_eq!(find_experiment("table2").map(|e| e.name()), Some("table2"));
    assert!(find_experiment("not-an-experiment").is_none());
}

// ---------------------------------------------------------------------------
// Typed-params layer: run-time usage errors surface as ExpError::Usage
// ---------------------------------------------------------------------------

#[test]
fn experiments_reject_bad_param_values_as_usage_errors() {
    for (name, flags, needle) in [
        ("table2", &["--circuits", "nope"][..], "not a Table II"),
        ("estimate_yield", &["--mapper", "psychic"][..], "hybrid"),
        (
            "estimate_yield",
            &["--circuit", "nope"][..],
            "not registered",
        ),
        ("fig6", &["--input-sizes", "8,banana"][..], "input size"),
        (
            "ext_column_redundancy",
            &["--stuck-closed-fraction", "1.5"][..],
            "[0, 1]",
        ),
        ("table2", &["--circuits", "rd53,rd53"][..], "listed twice"),
    ] {
        let exp = find_experiment(name).expect("registered");
        let params = Params::parse(exp.extra_params(), flags.iter().map(|s| (*s).to_owned()))
            .expect("flags themselves parse");
        let err = exp
            .run(&params, &mut Reporter::quiet())
            .expect_err("bad value must fail");
        match &err {
            ExpError::Usage(msg) => assert!(msg.contains(needle), "{name}: {msg}"),
            ExpError::Failed(msg) => panic!("{name}: expected Usage, got Failed({msg})"),
        }
    }
}

// ---------------------------------------------------------------------------
// Golden artifact schemas (pinned layouts; update DELIBERATELY, never
// silently — downstream tooling parses these documents)
// ---------------------------------------------------------------------------

fn run_artifact(name: &str, flags: &[&str]) -> (String, Params) {
    let exp = find_experiment(name).expect("registered");
    let params = Params::parse(exp.extra_params(), flags.iter().map(|s| (*s).to_owned()))
        .expect("flags parse");
    let artifact = exp
        .run(&params, &mut Reporter::quiet())
        .expect("experiment runs");
    (artifact.render(exp, &params), params)
}

#[test]
fn golden_table2_artifact_layout_is_pinned() {
    let (text, _) = run_artifact(
        "table2",
        &["--samples", "12", "--seed", "5", "--circuits", "rd53"],
    );
    let expected = r#"{
  "schema": "xbar-artifact/1",
  "experiment": "table2",
  "params": {
    "samples": 12,
    "seed": 5,
    "defect_rate": 0.1,
    "circuits": [
      "rd53"
    ],
    "rng_stream": "v1"
  },
  "data": {
    "circuits": [
      {
        "name": "rd53",
        "inputs": 5,
        "outputs": 3,
        "products": 31,
        "area": 544,
        "area_published": 544,
        "inclusion_ratio": 0.3327205882352941,
        "samples": 12,
        "hba_successes": 11,
        "hba_success_rate": 0.9166666666666666,
        "ea_successes": 11,
        "ea_success_rate": 0.9166666666666666
      }
    ]
  }
}
"#;
    assert_eq!(text, expected, "table2 artifact layout drifted");
}

#[test]
fn golden_estimate_yield_artifact_layout_is_pinned() {
    let (text, _) = run_artifact(
        "estimate_yield",
        &["--samples", "15", "--seed", "7", "--spare-rows", "2"],
    );
    let expected = r#"{
  "schema": "xbar-artifact/1",
  "experiment": "estimate_yield",
  "params": {
    "samples": 15,
    "seed": 7,
    "defect_rate": 0.1,
    "circuit": "rd53",
    "spare_rows": 2,
    "stuck_closed_fraction": 0.0,
    "mapper": "hybrid",
    "rng_stream": "v1"
  },
  "data": {
    "circuit": "rd53",
    "rows": 34,
    "cols": 16,
    "spare_rows": 2,
    "mapper": "hybrid",
    "successes": 15,
    "samples": 15,
    "success_rate": 1.0,
    "area": 576,
    "area_overhead": 1.0588235294117647
  }
}
"#;
    assert_eq!(text, expected, "estimate_yield artifact layout drifted");
}

#[test]
fn golden_ext_model_yield_artifact_layout_is_pinned() {
    // Pins every spatial defect model's yield sweep in one document:
    // the sampling procedures themselves are frozen by these counts.
    let (text, _) = run_artifact("ext_model_yield", &["--samples", "12", "--seed", "5"]);
    let expected = r#"{
  "schema": "xbar-artifact/1",
  "experiment": "ext_model_yield",
  "params": {
    "samples": 12,
    "seed": 5,
    "defect_rate": 0.1,
    "circuit": "rd53",
    "rng_stream": "v1"
  },
  "data": {
    "circuit": "rd53",
    "rows": 34,
    "cols": 16,
    "models": [
      {
        "model": "iid",
        "sweep": [
          {
            "defect_rate": 0.05,
            "successes": 12,
            "samples": 12
          },
          {
            "defect_rate": 0.1,
            "successes": 12,
            "samples": 12
          },
          {
            "defect_rate": 0.15,
            "successes": 10,
            "samples": 12
          },
          {
            "defect_rate": 0.2,
            "successes": 2,
            "samples": 12
          }
        ]
      },
      {
        "model": "clustered",
        "sweep": [
          {
            "defect_rate": 0.05,
            "successes": 3,
            "samples": 12
          },
          {
            "defect_rate": 0.1,
            "successes": 3,
            "samples": 12
          },
          {
            "defect_rate": 0.15,
            "successes": 0,
            "samples": 12
          },
          {
            "defect_rate": 0.2,
            "successes": 0,
            "samples": 12
          }
        ]
      },
      {
        "model": "lines",
        "sweep": [
          {
            "defect_rate": 0.05,
            "successes": 4,
            "samples": 12
          },
          {
            "defect_rate": 0.1,
            "successes": 4,
            "samples": 12
          },
          {
            "defect_rate": 0.15,
            "successes": 4,
            "samples": 12
          },
          {
            "defect_rate": 0.2,
            "successes": 4,
            "samples": 12
          }
        ]
      },
      {
        "model": "composite",
        "sweep": [
          {
            "defect_rate": 0.05,
            "successes": 1,
            "samples": 12
          },
          {
            "defect_rate": 0.1,
            "successes": 1,
            "samples": 12
          },
          {
            "defect_rate": 0.15,
            "successes": 0,
            "samples": 12
          },
          {
            "defect_rate": 0.2,
            "successes": 0,
            "samples": 12
          }
        ]
      }
    ]
  }
}
"#;
    assert_eq!(text, expected, "ext_model_yield artifact layout drifted");
}

#[test]
fn golden_ext_cluster_tolerance_artifact_layout_is_pinned() {
    let (text, _) = run_artifact("ext_cluster_tolerance", &["--samples", "12", "--seed", "5"]);
    let expected = r#"{
  "schema": "xbar-artifact/1",
  "experiment": "ext_cluster_tolerance",
  "params": {
    "samples": 12,
    "seed": 5,
    "defect_rate": 0.1,
    "circuit": "rd53",
    "rng_stream": "v1"
  },
  "data": {
    "circuit": "rd53",
    "products": 31,
    "defect_rate": 0.1,
    "sweep": [
      {
        "cluster_size": 1.0,
        "hba_successes": 11,
        "ea_successes": 12,
        "samples": 12
      },
      {
        "cluster_size": 2.0,
        "hba_successes": 3,
        "ea_successes": 4,
        "samples": 12
      },
      {
        "cluster_size": 4.0,
        "hba_successes": 1,
        "ea_successes": 1,
        "samples": 12
      },
      {
        "cluster_size": 8.0,
        "hba_successes": 0,
        "ea_successes": 0,
        "samples": 12
      }
    ]
  }
}
"#;
    assert_eq!(
        text, expected,
        "ext_cluster_tolerance artifact layout drifted"
    );
}

#[test]
fn table2_circuit_subset_preserves_user_order() {
    // Same contract as `xbar mc coordinate --circuits`: the artifact's
    // circuit array lines up with the requested order.
    let (text, _) = run_artifact("table2", &["--samples", "10", "--circuits", "misex1,rd53"]);
    let doc = Json::parse(&text).expect("artifact parses");
    let names: Vec<&str> = doc
        .get("data")
        .and_then(|d| d.get("circuits"))
        .and_then(Json::as_arr)
        .expect("circuits array")
        .iter()
        .map(|c| c.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, ["misex1", "rd53"]);
}

#[test]
fn every_experiment_declares_a_parseable_artifact_envelope() {
    // Cheap structural check on the two fast deterministic experiments
    // (the full registry sweep is CI's `xbar run --quick --json` loop).
    for name in ["fig3", "fig8"] {
        let (text, _) = run_artifact(name, &[]);
        let doc = Json::parse(&text).expect("artifact parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("xbar-artifact/1")
        );
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some(name));
        assert!(doc.get("params").is_some());
        assert!(doc.get("data").is_some());
    }
}

// ---------------------------------------------------------------------------
// Process-level: exit codes, shim equivalence, mc byte-identity
// ---------------------------------------------------------------------------

fn xbar(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xbar"))
        .args(args)
        .output()
        .expect("spawn xbar")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn xbar_list_names_every_registered_experiment() {
    let out = xbar(&["list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for exp in registry() {
        assert!(
            text.lines().any(|l| l.starts_with(exp.name())),
            "{} missing from `xbar list`",
            exp.name()
        );
    }
}

#[test]
fn usage_problems_exit_2_with_help_not_a_backtrace() {
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["run"][..],
        &["run", "not-an-experiment"][..],
        &["run", "table2", "--frobnicate"][..],
        &["run", "table2", "--samples"][..],
        &["run", "table2", "--samples", "many"][..],
        &["describe", "not-an-experiment"][..],
        &["mc"][..],
        &["mc", "frobnicate"][..],
        &["mc", "shard", "--shard-index", "x"][..],
        &["mc", "coordinate", "--shards"][..],
        &["mc", "coordinate", "--shard-timeout", "soon"][..],
        &["mc", "coordinate", "--shard-timeout", "0"][..],
        &["mc", "coordinate", "--max-inflight", "0"][..],
        &["mc", "coordinate", "--worker-arg"][..],
        // The `mc` front-ends reject exactly the campaigns `run` rejects.
        &["mc", "coordinate", "--defect-rate", "1.5"][..],
        &["mc", "coordinate", "--samples", "0"][..],
        &["mc", "coordinate", "--circuits", "rd53,rd53"][..],
        &["mc", "shard", "--defect-rate", "-0.5"][..],
        // Its stuck-closed sweep samples i.i.d. cells whatever the model.
        &["run", "ext_yield_redundancy", "--defect-model", "clustered"][..],
    ] {
        let out = xbar(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "xbar {args:?}: expected exit 2, got {:?}\nstderr: {}",
            out.status.code(),
            stderr(&out)
        );
        let err = stderr(&out);
        assert!(!err.contains("panicked"), "xbar {args:?} panicked:\n{err}");
    }
}

/// Mixed stuck-open/stuck-closed sampling draws i.i.d. device cells
/// whatever the model, so `estimate_yield` refuses a spatial model there
/// instead of labelling its artifact with a model it never sampled.
#[test]
fn estimate_yield_refuses_a_spatial_model_with_stuck_closed_defects() {
    let run = |extra: &[&str]| {
        let mut args = vec![
            "run",
            "estimate_yield",
            "--circuit",
            "rd53",
            "--samples",
            "10",
            "--json",
        ];
        args.extend(extra);
        xbar(&args)
    };
    for model in [
        &["--defect-model", "clustered"][..],
        &["--defect-model", "lines", "--line-rate", "0.3"][..],
    ] {
        let out = run(&[&["--stuck-closed-fraction", "0.02"][..], model].concat());
        assert_eq!(out.status.code(), Some(2), "{model:?}: {}", stderr(&out));
        let err = stderr(&out);
        let first = err.lines().next().unwrap_or_default();
        assert!(
            first.contains("--defect-model") && first.contains("--stuck-closed-fraction"),
            "{model:?}: {err}"
        );
    }
    // Each half alone still runs.
    for extra in [
        &["--stuck-closed-fraction", "0.02"][..],
        &["--defect-model", "lines", "--stuck-closed-fraction", "0"][..],
    ] {
        let out = run(extra);
        assert_eq!(out.status.code(), Some(0), "{extra:?}: {}", stderr(&out));
    }
}

#[test]
fn describe_and_help_exit_0() {
    for args in [
        &["--help"][..],
        &["describe", "table2"][..],
        &["run", "table2", "--help"][..],
        &["mc", "shard", "--help"][..],
        &["mc", "coordinate", "--help"][..],
        &["mc", "launch", "--help"][..],
        &["serve", "--help"][..],
    ] {
        let out = xbar(args);
        assert!(out.status.success(), "xbar {args:?} failed");
        assert!(!stdout(&out).is_empty());
    }
}

#[test]
fn mc_coordinate_is_byte_identical_to_in_process_with_xbar_as_its_own_worker() {
    let dir = std::env::temp_dir().join(format!("xbar-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let sharded_path = dir.join("sharded.json");
    let single_path = dir.join("single.json");

    // No --worker: default resolution finds the xbar binary next to the
    // running xbar and spawns it as `xbar mc shard` — the self-contained
    // path production uses. The --out lies inside the --work-dir: the
    // runner removes only its own run directory, never the work dir.
    let sharded = xbar(&[
        "mc",
        "coordinate",
        "--shards",
        "3",
        "--samples",
        "30",
        "--circuits",
        "rd53",
        "--work-dir",
        dir.to_str().expect("utf8 path"),
        "--out",
        sharded_path.to_str().expect("utf8 path"),
    ]);
    assert!(
        sharded.status.success(),
        "sharded run failed: {}",
        stderr(&sharded)
    );
    let single = xbar(&[
        "mc",
        "coordinate",
        "--in-process",
        "--samples",
        "30",
        "--circuits",
        "rd53",
        "--out",
        single_path.to_str().expect("utf8 path"),
    ]);
    assert!(single.status.success(), "{}", stderr(&single));

    let sharded_text = std::fs::read_to_string(&sharded_path).expect("sharded artifact");
    let single_text = std::fs::read_to_string(&single_path).expect("single artifact");
    assert_eq!(
        sharded_text, single_text,
        "3-shard xbar run must be byte-identical to --in-process"
    );
    Json::parse(&sharded_text).expect("merged artifact parses");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mc_coordinate_circuits_all_is_the_default_circuit_set() {
    let dir = std::env::temp_dir().join(format!("xbar-cli-all-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let run = |extra: &[&str], name: &str| {
        let path = dir.join(name);
        let mut args = vec!["mc", "coordinate", "--in-process", "--samples", "1"];
        args.extend_from_slice(extra);
        args.extend_from_slice(&["--out", path.to_str().expect("utf8 path")]);
        let out = xbar(&args);
        assert!(out.status.success(), "xbar {args:?}: {}", stderr(&out));
        std::fs::read(&path).expect("merged artifact")
    };
    let all = run(&["--circuits", "all"], "all.json");
    let default = run(&[], "default.json");
    assert_eq!(all, default, "`--circuits all` is the default Table II set");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn json_mode_stdout_carries_only_the_artifact() {
    let out = xbar(&["run", "estimate_yield", "--quick", "--json"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let doc = Json::parse(&text).expect("stdout is exactly one JSON document");
    assert_eq!(
        doc.get("experiment").and_then(Json::as_str),
        Some("estimate_yield")
    );
}

#[test]
fn out_dir_receives_the_artifact_file() {
    let dir = std::env::temp_dir().join(format!("xbar-out-test-{}", std::process::id()));
    let out = xbar(&["run", "fig3", "--out", dir.to_str().expect("utf8 path")]);
    assert!(out.status.success(), "{}", stderr(&out));
    let path: PathBuf = dir.join("fig3.json");
    let text = std::fs::read_to_string(&path).expect("artifact written");
    Json::parse(&text).expect("artifact parses");
    let _ = std::fs::remove_dir_all(&dir);
}
