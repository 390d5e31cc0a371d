//! Process-level tests of the yield-oracle service: a real `xbar serve`
//! daemon on a real TCP socket, driven by real `xbar submit` processes.
//! Covers the core service promises end to end: the served artifact is
//! byte-identical to `xbar run --json`, a repeated submit is answered
//! from the artifact cache without any new work, concurrent submissions
//! never exceed the worker-slot bound, and a daemon killed mid-job
//! leaves checkpoints a restarted daemon resumes from.

use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};
use xbar_core::Campaign;
use xbar_exp::experiment::{find_experiment, Params};
use xbar_exp::service::cache_key;
use xbar_exp::shard::coordinator::campaign_run_dir;
use xbar_exp::shard::json::Json;
use xbar_exp::shard::partial::ShardPartial;
use xbar_exp::shard::McConfig;

fn xbar() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xbar"))
}

/// A unique scratch directory per test (no tempfile crate in the
/// workspace).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xbar-service-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A running daemon plus the address it bound.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts `xbar serve --listen 127.0.0.1:0 --work-dir <work_dir>` plus
    /// `extra` flags and reads the bound address off the first stdout
    /// line.
    fn start(work_dir: &PathBuf, extra: &[&str]) -> Self {
        Self::start_at(work_dir, "127.0.0.1:0", extra)
    }

    /// Starts a daemon on an explicit listen address (the bounce test
    /// must rebind the address a killed daemon just vacated).
    fn start_at(work_dir: &PathBuf, listen: &str, extra: &[&str]) -> Self {
        Self::try_start_at(work_dir, listen, extra).expect("daemon announces its address")
    }

    /// Fallible start: `None` when the daemon exits before announcing
    /// its address (e.g. the listen address is still in TIME_WAIT after
    /// a kill — callers retry).
    fn try_start_at(work_dir: &PathBuf, listen: &str, extra: &[&str]) -> Option<Self> {
        let mut child = xbar()
            .args(["serve", "--listen", listen, "--work-dir"])
            .arg(work_dir)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daemon");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let Some(Ok(first)) = lines.next() else {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        };
        let addr = first
            .rsplit("listening on ")
            .next()
            .expect("address after the marker")
            .trim()
            .to_owned();
        assert!(addr.contains(':'), "not an address: {first}");
        Some(Daemon { child, addr })
    }

    /// Runs one `xbar submit` against this daemon and returns its output.
    fn submit(&self, args: &[&str]) -> Output {
        xbar()
            .args(["submit", "--connect", &self.addr])
            .args(args)
            .output()
            .expect("run xbar submit")
    }

    /// Asks the daemon to drain and waits for a clean exit.
    fn shutdown(mut self) {
        let out = self.submit(&["--shutdown"]);
        assert!(out.status.success(), "shutdown: {out:?}");
        let status = self.child.wait().expect("daemon exit");
        assert!(status.success(), "daemon exit: {status:?}");
    }
}

fn stdout_str(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

fn stderr_str(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf8 stderr")
}

#[test]
fn a_deeply_nested_request_line_gets_an_error_and_the_daemon_keeps_serving() {
    // One 100 KB line of `[` from an untrusted peer: the parser must
    // answer it with an `error` response instead of recursing until the
    // connection thread's stack overflows and aborts the daemon.
    use std::io::Write as _;
    let work_dir = scratch("deep-nesting");
    let daemon = Daemon::start(&work_dir, &["--in-process-jobs"]);
    let stream = std::net::TcpStream::connect(&daemon.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    writeln!(writer, "{}", "[".repeat(100_000)).expect("send hostile line");
    let mut reply = String::new();
    std::io::BufReader::new(stream)
        .read_line(&mut reply)
        .expect("read reply");
    let doc = Json::parse(reply.trim()).expect("the reply is one JSON line");
    assert_eq!(
        doc.get("type").and_then(Json::as_str),
        Some("error"),
        "{reply}"
    );
    let message = doc.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(message.contains("nesting"), "{reply}");

    let stats = daemon.submit(&["--stats"]);
    assert!(stats.status.success(), "daemon must survive: {stats:?}");
    assert!(stdout_str(&stats).contains("\"cache_hits\""), "{stats:?}");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn an_oversized_request_line_gets_an_error_and_the_daemon_keeps_serving() {
    // 1 MiB with no newline from an untrusted peer: the daemon must stop
    // reading at its line bound and answer `error`, instead of buffering
    // until the peer disconnects and never replying.
    use std::io::Write as _;
    let work_dir = scratch("oversized-line");
    let daemon = Daemon::start(&work_dir, &["--in-process-jobs"]);
    let stream = std::net::TcpStream::connect(&daemon.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    writer
        .write_all(&vec![b'x'; 1 << 20])
        .expect("send the oversized line");
    let mut reply = String::new();
    std::io::BufReader::new(stream)
        .read_line(&mut reply)
        .expect("read reply");
    let doc = Json::parse(reply.trim()).expect("the reply is one JSON line");
    assert_eq!(
        doc.get("type").and_then(Json::as_str),
        Some("error"),
        "{reply}"
    );
    drop(writer);

    let stats = daemon.submit(&["--stats"]);
    assert!(stats.status.success(), "daemon must survive: {stats:?}");
    assert!(stdout_str(&stats).contains("\"cache_hits\""), "{stats:?}");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn served_artifact_is_byte_identical_to_xbar_run_and_repeats_hit_the_cache() {
    let work_dir = scratch("identity");
    let daemon = Daemon::start(&work_dir, &["--max-inflight", "2", "--job-shards", "2"]);

    // The reference bytes a client of `xbar run` would get.
    let reference = xbar()
        .args(["run", "table2", "--quick", "--circuits", "rd53", "--json"])
        .output()
        .expect("run xbar run");
    assert!(reference.status.success(), "{reference:?}");
    let reference = stdout_str(&reference);
    assert!(reference.contains("xbar-artifact/1"), "{reference}");

    let submit_args = ["table2", "--quick", "--circuits", "rd53", "--wait"];
    let cold = daemon.submit(&submit_args);
    assert!(cold.status.success(), "{cold:?}");
    assert_eq!(
        stdout_str(&cold),
        reference,
        "served artifact must be byte-identical to xbar run --json"
    );
    assert!(
        stderr_str(&cold).contains("cache miss"),
        "{}",
        stderr_str(&cold)
    );
    // A default daemon runs table2 on the campaign runner over its local
    // fleet: the result line attributes the shard dispatches to `local`.
    assert!(
        stderr_str(&cold).contains("; hosts local:2"),
        "the default fleet is `local`, one dispatch per shard: {}",
        stderr_str(&cold)
    );

    // Successful jobs clean their run directories up; only the cache
    // remains as durable state.
    let jobs_left = |dir: &PathBuf| {
        std::fs::read_dir(dir.join("jobs"))
            .map(|entries| entries.count())
            .unwrap_or(0)
    };
    assert_eq!(jobs_left(&work_dir), 0, "cold run dir cleaned after merge");

    let warm = daemon.submit(&submit_args);
    assert!(warm.status.success(), "{warm:?}");
    assert_eq!(stdout_str(&warm), reference, "cache hit serves same bytes");
    assert!(
        stderr_str(&warm).contains("cache hit"),
        "{}",
        stderr_str(&warm)
    );
    assert_eq!(jobs_left(&work_dir), 0, "a hit never creates a run dir");

    let stats = daemon.submit(&["--stats"]);
    assert!(stats.status.success(), "{stats:?}");
    let stats = stdout_str(&stats);
    assert!(stats.contains("\"cache_hits\": 1"), "{stats}");
    assert!(stats.contains("\"completed\": 1"), "{stats}");
    assert!(
        stats.contains("\"shard_spawned\": 2"),
        "the sharded executor spawned the job's two shard workers: {stats}"
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn concurrent_submissions_never_exceed_the_worker_slot_bound() {
    let work_dir = scratch("slots");
    let conc_dir = work_dir.join("conc");
    // 2 worker slots, 1 shard per job, 1 live worker per job: at most two
    // shard workers can be alive at any instant, and every worker records
    // how many live siblings it sees.
    let daemon = Daemon::start(
        &work_dir,
        &[
            "--max-inflight",
            "2",
            "--job-shards",
            "1",
            "--launcher",
            "local*1",
            "--worker-arg",
            "--inject-slow-ms",
            "--worker-arg",
            "300",
            "--worker-arg",
            "--inject-concurrency-dir",
            "--worker-arg",
            conc_dir.to_str().expect("utf8 path"),
        ],
    );

    // Five concurrent clients with distinct seeds (distinct cache keys, so
    // nothing coalesces) all waiting for completion.
    let clients: Vec<_> = (0..5)
        .map(|i| {
            let addr = daemon.addr.clone();
            std::thread::spawn(move || {
                xbar()
                    .args(["submit", "--connect", &addr])
                    .args(["table2", "--samples", "6", "--circuits", "rd53", "--wait"])
                    .args(["--seed", &format!("90{i}")])
                    .output()
                    .expect("run xbar submit")
            })
        })
        .collect();
    for client in clients {
        let out = client.join().expect("client thread");
        assert!(out.status.success(), "{out:?}");
        assert!(stdout_str(&out).contains("xbar-artifact/1"));
    }

    let observed = std::fs::read_to_string(conc_dir.join("observed.txt"))
        .expect("workers recorded live counts");
    let max_live = observed
        .lines()
        .map(|line| line.trim().parse::<usize>().expect("count"))
        .max()
        .expect("at least one worker ran");
    assert!(
        (1..=2).contains(&max_live),
        "worker-slot bound violated: {max_live} live workers\n{observed}"
    );

    let stats = stdout_str(&daemon.submit(&["--stats"]));
    assert!(stats.contains("\"completed\": 5"), "{stats}");
    assert!(
        stats.contains("\"max_running_observed\": 2")
            || stats.contains("\"max_running_observed\": 1"),
        "{stats}"
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn daemon_killed_mid_job_resumes_from_checkpoints_after_restart() {
    let work_dir = scratch("resume");
    let submit_args = ["table2", "--samples", "30", "--circuits", "rd53"];

    // Where the job's first checkpoint will land: the job dir is named by
    // the cache key, the run dir inside it by the campaign identity —
    // both computed with the same library code the daemon uses.
    let exp = find_experiment("table2").expect("registered");
    let params = Params::parse(
        exp.extra_params(),
        submit_args[1..].iter().map(|s| (*s).to_owned()),
    )
    .expect("parses");
    let key = cache_key(exp, &params);
    let config = McConfig {
        campaign: Campaign {
            samples: 30,
            seed: params.campaign.seed,
            defect_rate: params.campaign.defect_rate,
            ..Campaign::default()
        },
        circuits: vec!["rd53".to_owned()],
    };
    let job_dir = work_dir.join("jobs").join(&key.name);
    let first_partial = campaign_run_dir(&job_dir, &config, 4).join("partial-0.json");

    // Slow serialized shards so the kill lands mid-campaign.
    let mut daemon = Daemon::start(
        &work_dir,
        &[
            "--job-shards",
            "4",
            "--launcher",
            "local*1",
            "--worker-arg",
            "--inject-slow-ms",
            "--worker-arg",
            "400",
        ],
    );
    let accepted = daemon.submit(&submit_args);
    assert!(accepted.status.success(), "{accepted:?}");

    // Wait for the first complete checkpoint, then SIGTERM the daemon —
    // no graceful drain, exactly like a supervisor timeout or reboot.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            Instant::now() < deadline,
            "no checkpoint appeared at {}",
            first_partial.display()
        );
        if let Ok(text) = std::fs::read_to_string(&first_partial) {
            if ShardPartial::from_json(&text).is_ok() {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let term = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let _ = daemon.child.wait();
    assert!(
        first_partial.exists(),
        "checkpoints must survive the daemon's death"
    );

    // Restart on the same work dir (full speed this time) and resubmit:
    // the stale coordinator.lock of the dead daemon must be reclaimed,
    // the surviving partials reused, and the artifact still byte-equal to
    // a monolithic run.
    let daemon = Daemon::start(&work_dir, &["--job-shards", "4", "--launcher", "local*1"]);
    let resumed = daemon.submit(&[&submit_args[..], &["--wait"]].concat());
    assert!(resumed.status.success(), "{resumed:?}");
    let note = stderr_str(&resumed);
    let reused: usize = note
        .split("reused ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no reused count in client note: {note}"));
    assert!(reused >= 1, "restart must reuse checkpoints: {note}");

    let reference = xbar()
        .args(["run"])
        .args(submit_args)
        .arg("--json")
        .output()
        .expect("run xbar run");
    assert_eq!(
        stdout_str(&resumed),
        stdout_str(&reference),
        "resumed artifact must be byte-identical to a monolithic run"
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn protocol_errors_and_usage_errors_have_distinct_exit_codes() {
    let work_dir = scratch("errors");
    let daemon = Daemon::start(&work_dir, &["--in-process-jobs"]);

    // Daemon-side errors: clean exit 1 with the daemon's message.
    let unknown = daemon.submit(&["frobnicate", "--wait"]);
    assert_eq!(unknown.status.code(), Some(1), "{unknown:?}");
    assert!(
        stderr_str(&unknown).contains("unknown experiment"),
        "{}",
        stderr_str(&unknown)
    );
    let no_job = daemon.submit(&["--status", "999"]);
    assert_eq!(no_job.status.code(), Some(1), "{no_job:?}");
    assert!(
        stderr_str(&no_job).contains("no such job"),
        "{}",
        stderr_str(&no_job)
    );
    let routed = daemon.submit(&["table2", "--json"]);
    assert_eq!(routed.status.code(), Some(1), "{routed:?}");
    assert!(
        stderr_str(&routed).contains("output routing"),
        "{}",
        stderr_str(&routed)
    );

    // Client-side usage errors: exit 2 before anything touches the wire.
    let usage = daemon.submit(&["--status", "soon"]);
    assert_eq!(usage.status.code(), Some(2), "{usage:?}");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn launcher_mode_serves_byte_identical_artifacts_with_host_attribution() {
    let work_dir = scratch("launcher");
    // A 2-host loopback fleet with one host dying on its first dispatch:
    // the executor must fail over, attribute the work, and still serve
    // the canonical bytes.
    let daemon = Daemon::start(
        &work_dir,
        &[
            "--job-shards",
            "3",
            "--launcher",
            "alpha*3,beta",
            "--launcher-fault",
            "beta=die@0",
        ],
    );

    let reference = xbar()
        .args(["run", "table2", "--quick", "--circuits", "rd53", "--json"])
        .output()
        .expect("run xbar run");
    assert!(reference.status.success(), "{reference:?}");

    let served = daemon.submit(&["table2", "--quick", "--circuits", "rd53", "--wait"]);
    assert!(served.status.success(), "{served:?}");
    assert_eq!(
        stdout_str(&served),
        stdout_str(&reference),
        "launcher-run artifact must be byte-identical to xbar run --json"
    );
    let note = stderr_str(&served);
    assert!(
        note.contains("hosts ") && note.contains("alpha:"),
        "the completion note must attribute dispatches to hosts: {note}"
    );

    let stats = stdout_str(&daemon.submit(&["--stats"]));
    assert!(
        stats.contains("\"shard_spawned\": 3"),
        "launcher flights must reach the stats counters: {stats}"
    );
    assert!(
        stats.contains("\"shard_retries\": 1"),
        "the dead host costs exactly one shard retry: {stats}"
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn waiting_client_survives_a_daemon_bounce_and_still_gets_identical_bytes() {
    let work_dir = scratch("bounce");
    let submit_args = ["table2", "--samples", "30", "--circuits", "rd53"];

    // Slow serialized shards so the kill lands mid-campaign (same
    // checkpoint bookkeeping as the resume test above).
    let exp = find_experiment("table2").expect("registered");
    let params = Params::parse(
        exp.extra_params(),
        submit_args[1..].iter().map(|s| (*s).to_owned()),
    )
    .expect("parses");
    let key = cache_key(exp, &params);
    let config = McConfig {
        campaign: Campaign {
            samples: 30,
            seed: params.campaign.seed,
            defect_rate: params.campaign.defect_rate,
            ..Campaign::default()
        },
        circuits: vec!["rd53".to_owned()],
    };
    let job_dir = work_dir.join("jobs").join(&key.name);
    let first_partial = campaign_run_dir(&job_dir, &config, 4).join("partial-0.json");

    let mut daemon = Daemon::start(
        &work_dir,
        &[
            "--job-shards",
            "4",
            "--launcher",
            "local*1",
            "--worker-arg",
            "--inject-slow-ms",
            "--worker-arg",
            "400",
        ],
    );
    let addr = daemon.addr.clone();

    // A client waiting on the job while the daemon dies under it.
    let client = xbar()
        .args(["submit", "--connect", &addr])
        .args(submit_args)
        .arg("--wait")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn waiting client");

    // Wait for the first complete checkpoint, then SIGKILL — a hard
    // bounce, no drain, no goodbye on the client's connection.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            Instant::now() < deadline,
            "no checkpoint appeared at {}",
            first_partial.display()
        );
        if let Ok(text) = std::fs::read_to_string(&first_partial) {
            if ShardPartial::from_json(&text).is_ok() {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let kill = Command::new("kill")
        .args(["-KILL", &daemon.child.id().to_string()])
        .status()
        .expect("send SIGKILL");
    assert!(kill.success());
    let _ = daemon.child.wait();

    // Rebind the same address (retrying while the socket drains) at full
    // speed; the new daemon has fresh queue state, so the client must
    // resubmit and the resubmit must resume from the checkpoints.
    let daemon = {
        let rebind_deadline = Instant::now() + Duration::from_secs(8);
        loop {
            if let Some(daemon) = Daemon::try_start_at(
                &work_dir,
                &addr,
                &["--job-shards", "4", "--launcher", "local*1"],
            ) {
                break daemon;
            }
            assert!(
                Instant::now() < rebind_deadline,
                "could not rebind {addr} after the bounce"
            );
            std::thread::sleep(Duration::from_millis(100));
        }
    };

    let out = client.wait_with_output().expect("client output");
    assert!(
        out.status.success(),
        "client must survive the bounce: {out:?}"
    );
    let note = stderr_str(&out);
    assert!(
        note.contains("reconnecting to follow job"),
        "the client must notice the outage: {note}"
    );
    assert!(
        note.contains("resubmitted as job"),
        "the bounced daemon lost its queue; the client resubmits: {note}"
    );

    let reference = xbar()
        .args(["run"])
        .args(submit_args)
        .arg("--json")
        .output()
        .expect("run xbar run");
    assert_eq!(
        stdout_str(&out),
        stdout_str(&reference),
        "bytes delivered across the bounce must equal a monolithic run"
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

/// A TCP relay in front of `daemon`: it forwards every connection both
/// ways, except that it closes the first one right after relaying the
/// daemon's first reply line (`submitted`) — a dropped connection while
/// the daemon itself stays up. Returns the relay's address.
fn relay_dropping_the_first_connection(daemon: &str) -> String {
    use std::io::Write as _;
    use std::net::{Shutdown, TcpListener, TcpStream};
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
    let addr = listener.local_addr().expect("relay address").to_string();
    let daemon = daemon.to_owned();
    std::thread::spawn(move || {
        for (n, client) in listener.incoming().enumerate() {
            let Ok(client) = client else { continue };
            let Ok(upstream) = TcpStream::connect(&daemon) else {
                continue;
            };
            let (mut from_client, mut to_daemon) = (
                client.try_clone().expect("clone client"),
                upstream.try_clone().expect("clone upstream"),
            );
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut from_client, &mut to_daemon);
                let _ = to_daemon.shutdown(Shutdown::Write);
            });
            let mut to_client = client;
            std::thread::spawn(move || {
                if n == 0 {
                    let mut line = String::new();
                    let _ = std::io::BufReader::new(&upstream).read_line(&mut line);
                    let _ = to_client.write_all(line.as_bytes());
                    let _ = to_client.shutdown(Shutdown::Both);
                    let _ = upstream.shutdown(Shutdown::Both);
                } else {
                    let _ = std::io::copy(&mut &upstream, &mut to_client);
                    let _ = to_client.shutdown(Shutdown::Write);
                }
            });
        }
    });
    addr
}

#[test]
fn a_dropped_connection_is_followed_by_resending_the_submit_which_coalesces() {
    let work_dir = scratch("dropped");
    let submit_args = ["table2", "--samples", "30", "--circuits", "rd53"];
    // Slow serialized shards, so the job is still running when the client
    // comes back.
    let daemon = Daemon::start(
        &work_dir,
        &[
            "--job-shards",
            "4",
            "--launcher",
            "local*1",
            "--worker-arg",
            "--inject-slow-ms",
            "--worker-arg",
            "400",
        ],
    );
    let relay = relay_dropping_the_first_connection(&daemon.addr);

    let out = xbar()
        .args(["submit", "--connect", &relay])
        .args(submit_args)
        .arg("--wait")
        .output()
        .expect("run xbar submit");
    assert!(
        out.status.success(),
        "client must survive the drop: {out:?}"
    );
    let note = stderr_str(&out);
    assert!(
        note.contains("reconnecting to follow job"),
        "the client must notice the drop: {note}"
    );
    assert!(
        !note.contains("resubmitted as job"),
        "the daemon kept the job; the re-sent submit joins it: {note}"
    );

    let reference = xbar()
        .args(["run"])
        .args(submit_args)
        .arg("--json")
        .output()
        .expect("run xbar run");
    assert_eq!(
        stdout_str(&out),
        stdout_str(&reference),
        "bytes delivered across the drop must equal a monolithic run"
    );

    let stats = stdout_str(&daemon.submit(&["--stats"]));
    assert!(stats.contains("\"completed\": 1"), "one job ran: {stats}");
    assert!(
        stats.contains("\"coalesced\": 1"),
        "the re-sent submit coalesced onto the running job: {stats}"
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn result_is_served_from_the_cache_and_a_missing_entry_is_an_error() {
    let work_dir = scratch("result-from-cache");
    let daemon = Daemon::start(&work_dir, &["--in-process-jobs"]);
    let submit_args = ["table2", "--quick", "--circuits", "rd53"];

    let cold = daemon.submit(&[&submit_args[..], &["--wait"]].concat());
    assert!(cold.status.success(), "{cold:?}");
    assert!(
        stderr_str(&cold).contains("job 0 (cache miss)"),
        "{}",
        stderr_str(&cold)
    );
    let result = daemon.submit(&["--result", "0"]);
    assert!(result.status.success(), "{result:?}");
    assert_eq!(
        stdout_str(&result),
        stdout_str(&cold),
        "`result` serves the cached bytes"
    );

    // Delete the job's cache entry: `result` must name the missing
    // artifact in an error, not panic or serve an empty artifact.
    let exp = find_experiment("table2").expect("registered");
    let params = Params::parse(
        exp.extra_params(),
        submit_args[1..].iter().map(|s| (*s).to_owned()),
    )
    .expect("parses");
    let key = cache_key(exp, &params);
    std::fs::remove_file(work_dir.join("cache").join(format!("{}.json", key.name)))
        .expect("remove the cached artifact");
    let missing = daemon.submit(&["--result", "0"]);
    assert_eq!(missing.status.code(), Some(1), "{missing:?}");
    assert!(stdout_str(&missing).is_empty(), "{missing:?}");
    assert!(
        stderr_str(&missing).contains(&key.name),
        "the error names the missing artifact: {}",
        stderr_str(&missing)
    );

    let stats = daemon.submit(&["--stats"]);
    assert!(stats.status.success(), "daemon must survive: {stats:?}");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}
