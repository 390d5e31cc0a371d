//! The `xbar submit` client for a running `xbar serve` daemon.
//!
//! One invocation sends one `xbar-svc/1` request and renders the reply.
//! For a waited submit, progress events go to stderr and the artifact —
//! exactly the bytes `xbar run <exp> --json` would print — goes to
//! stdout (or, with `--out`, is written atomically to a file), so the
//! client composes with pipes and `cmp` the same way `xbar run` does.
//!
//! A waited submit has one follow path: when its connection is lost, the
//! client reconnects and re-sends the same submit, which the daemon
//! answers like any other — it coalesces onto the live job, hits the
//! cache once the job is done, or, after a daemon restart, starts a job
//! that resumes from the dead one's checkpoints.

use crate::atomic::write_atomic;
use crate::service::protocol::{Request, PROTOCOL};
use crate::shard::json::Json;
use std::io::{BufRead, BufReader, Lines, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// How many consecutive failed reconnect attempts a waited submit
/// tolerates before giving up. The counter resets every time the daemon
/// answers, so a long job behind a brief daemon bounce still completes;
/// 40 × 250 ms bounds a *continuous* outage at ~10 s.
const RECONNECT_ATTEMPTS: u32 = 40;
/// Pause between reconnect attempts.
const RECONNECT_DELAY: Duration = Duration::from_millis(250);
/// How many re-sent submits of a waited job may start a new job (a
/// `miss`: the daemon restarted and lost it) before the client gives up.
/// Checkpoints in a shared `--work-dir` make each one a resume, not a
/// restart.
const MAX_RESUBMITS: u32 = 3;

/// What one `xbar submit` invocation asks the daemon to do.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Mode {
    Submit {
        experiment: String,
        args: Vec<String>,
    },
    Status(u64),
    ResultOf(u64),
    Cancel(u64),
    Stats,
    Shutdown,
}

#[derive(Debug)]
struct SubmitArgs {
    connect: String,
    wait: bool,
    out: Option<PathBuf>,
    mode: Mode,
}

fn submit_usage() -> String {
    "xbar submit: client for a running `xbar serve` daemon\n\n\
     usage:\n  \
     xbar submit <experiment> [experiment flags...] [--wait] [--out FILE]\n  \
     xbar submit --status JOB | --result JOB | --cancel JOB | --stats | --shutdown\n\n\
     The experiment name comes first; every flag the client does not\n\
     recognize is forwarded verbatim to the daemon, exactly as `xbar run`\n\
     would take it. Output-routing flags (--json/--out/--csv) stay on the\n\
     client side.\n\nclient flags:\n  \
     --connect ADDR   daemon address (default 127.0.0.1:7878)\n  \
     --wait           stream progress (stderr) and print the finished\n                   \
     artifact to stdout, byte-identical to `xbar run --json`\n  \
     --out FILE       with --wait: write the artifact atomically to FILE\n                   \
     instead of stdout\n  \
     --status JOB     report a job's state\n  \
     --result JOB     print a finished job's artifact to stdout\n  \
     --cancel JOB     cancel a queued job\n  \
     --stats          print the daemon's counters (one JSON line)\n  \
     --shutdown       drain and stop the daemon"
        .to_owned()
}

fn parse_submit_args(argv: Vec<String>) -> Result<Option<SubmitArgs>, String> {
    let mut connect = "127.0.0.1:7878".to_owned();
    let mut wait = false;
    let mut out = None;
    let mut mode: Option<Mode> = None;
    let mut experiment: Option<String> = None;
    let mut forwarded: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    let job = |flag: &str, text: String| -> Result<u64, String> {
        text.parse()
            .map_err(|_| format!("{flag}: expected a job id, got {text:?}"))
    };
    let mut set_mode = |m: Mode| -> Result<(), String> {
        match &mode {
            None => {
                mode = Some(m);
                Ok(())
            }
            Some(prior) => Err(format!("conflicting modes: {prior:?} and {m:?}")),
        }
    };
    while let Some(token) = it.next() {
        match token.as_str() {
            "--connect" => connect = value(&token, &mut it)?,
            "--wait" => wait = true,
            "--out" => out = Some(PathBuf::from(value(&token, &mut it)?)),
            "--status" => set_mode(Mode::Status(job(&token, value(&token, &mut it)?)?))?,
            "--result" => set_mode(Mode::ResultOf(job(&token, value(&token, &mut it)?)?))?,
            "--cancel" => set_mode(Mode::Cancel(job(&token, value(&token, &mut it)?)?))?,
            "--stats" => set_mode(Mode::Stats)?,
            "--shutdown" => set_mode(Mode::Shutdown)?,
            "--help" | "-h" => return Ok(None),
            _ if experiment.is_none() && !token.starts_with('-') => experiment = Some(token),
            _ if experiment.is_some() => forwarded.push(token),
            other => {
                return Err(format!(
                    "the experiment name must come before its flags (got {other:?} first); \
                     try --help"
                ))
            }
        }
    }
    let mode = match (mode, experiment) {
        (Some(mode), None) => {
            if !forwarded.is_empty() {
                return Err(format!("{:?} does not take experiment flags", mode));
            }
            mode
        }
        (Some(mode), Some(exp)) => {
            return Err(format!("conflicting modes: {mode:?} and submit {exp:?}"))
        }
        (None, Some(experiment)) => Mode::Submit {
            experiment,
            args: forwarded,
        },
        (None, None) => return Err("need an experiment name (or a query flag); try --help".into()),
    };
    Ok(Some(SubmitArgs {
        connect,
        wait,
        out,
        mode,
    }))
}

/// One parsed response line (keeps the raw line for verbatim reprinting).
struct Reply {
    kind: String,
    doc: Json,
    line: String,
}

/// Why a request did not complete. The split matters for `--wait`: a
/// [`Failure::Lost`] connection (closed, reset, unparseable stream) may be
/// a bouncing daemon — reconnect and re-send — while a
/// [`Failure::Final`] error (the daemon replied `error`, or the artifact
/// could not be written) would recur on every retry.
enum Failure {
    /// The connection broke.
    Lost(String),
    /// An answer; retrying would get the same one.
    Final(String),
}

fn read_reply_raw(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
) -> Result<Reply, Failure> {
    let line = lines
        .next()
        .ok_or_else(|| Failure::Lost("connection closed by the daemon".to_owned()))?
        .map_err(|e| Failure::Lost(format!("cannot read from the daemon: {e}")))?;
    let doc = Json::parse(&line)
        .map_err(|e| Failure::Lost(format!("unparseable response {line:?}: {e}")))?;
    match doc.get("svc").and_then(Json::as_str) {
        Some(PROTOCOL) => {}
        _ => return Err(Failure::Lost(format!("not an {PROTOCOL} response: {line}"))),
    }
    let kind = doc
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| Failure::Lost(format!("response without a type: {line}")))?
        .to_owned();
    if kind == "error" {
        let message = doc
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("unspecified error");
        return Err(Failure::Final(message.to_owned()));
    }
    Ok(Reply { kind, doc, line })
}

fn read_reply(lines: &mut impl Iterator<Item = std::io::Result<String>>) -> Result<Reply, String> {
    read_reply_raw(lines).map_err(|e| match e {
        Failure::Lost(m) | Failure::Final(m) => m,
    })
}

/// Routes a finished artifact: atomically to `--out`, else raw to stdout.
fn deliver_artifact(reply: &Reply, out: Option<&PathBuf>) -> Result<(), String> {
    let artifact = reply
        .doc
        .get("artifact")
        .and_then(Json::as_str)
        .ok_or("result response carries no artifact")?;
    match out {
        Some(path) => {
            write_atomic(path, artifact.as_bytes())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("xbar submit: wrote {}", path.display());
        }
        None => {
            print!("{artifact}");
            let _ = std::io::stdout().flush();
        }
    }
    Ok(())
}

/// The stderr completion note. Keeps the runner counters visible so
/// scripts (and the resume smoke test) can see *how* the job ran — e.g.
/// that a resubmit after a daemon crash actually reused checkpoints.
fn describe_result(reply: &Reply) -> String {
    let cache = reply
        .doc
        .get("cache")
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    let counter = |name: &str| reply.doc.get(name).and_then(Json::as_u64);
    let mut text = match (counter("spawned"), counter("reused")) {
        (Some(spawned), Some(reused)) => format!(
            "cache {cache}; spawned {spawned}, reused {reused}, retries {}, timeouts {}",
            counter("retries").unwrap_or(0),
            counter("timeouts").unwrap_or(0)
        ),
        _ => format!("cache {cache}"),
    };
    // Per-host dispatch attribution, when the job ran sharded.
    if let Some(hosts) = reply.doc.get("hosts").and_then(Json::as_arr) {
        let parts: Vec<String> = hosts
            .iter()
            .filter_map(|h| {
                let name = h.get("host").and_then(Json::as_str)?;
                let dispatched = h.get("dispatched").and_then(Json::as_u64).unwrap_or(0);
                Some(format!("{name}:{dispatched}"))
            })
            .collect();
        if !parts.is_empty() {
            text.push_str("; hosts ");
            text.push_str(&parts.join(" "));
        }
    }
    text
}

/// Opens a connection to the daemon, returning the write half and a line
/// iterator over the read half.
fn connect(addr: &str) -> Result<(TcpStream, Lines<BufReader<TcpStream>>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let writer = stream
        .try_clone()
        .map_err(|e| format!("cannot split the connection: {e}"))?;
    Ok((writer, BufReader::new(stream).lines()))
}

fn send_request(writer: &mut TcpStream, request: &Request) -> Result<(), String> {
    writeln!(writer, "{}", request.render())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("cannot send to the daemon: {e}"))
}

/// Prints one progress/status line for a waited job to stderr.
fn print_progress(job: u64, reply: &Reply) {
    let field = |name: &str| reply.doc.get(name).and_then(Json::as_u64).unwrap_or(0);
    eprintln!(
        "xbar submit: job {job} {} ({}/{} shards, {:.1}s)",
        reply.doc.get("state").and_then(Json::as_str).unwrap_or("?"),
        field("shards_done"),
        field("shards"),
        field("elapsed_ms") as f64 / 1000.0
    );
}

fn run_submit(args: &SubmitArgs) -> Result<(), String> {
    match &args.mode {
        Mode::Submit {
            experiment,
            args: argv,
        } => submit_and_follow(
            args,
            &Request::Submit {
                experiment: experiment.clone(),
                args: argv.clone(),
                wait: args.wait,
            },
        ),
        Mode::ResultOf(id) => {
            let reply = query(&args.connect, &Request::ResultOf { job: *id })?;
            deliver_artifact(&reply, args.out.as_ref())?;
            eprintln!("xbar submit: result ({})", describe_result(&reply));
            Ok(())
        }
        Mode::Status(id) => print_reply_line(&query(&args.connect, &Request::Status { job: *id })?),
        Mode::Cancel(id) => {
            query(&args.connect, &Request::Cancel { job: *id })?;
            eprintln!("xbar submit: cancelled job {id}");
            Ok(())
        }
        Mode::Stats => print_reply_line(&query(&args.connect, &Request::Stats)?),
        Mode::Shutdown => {
            query(&args.connect, &Request::Shutdown)?;
            eprintln!("xbar submit: daemon is draining");
            Ok(())
        }
    }
}

/// Sends one request on a fresh connection and reads its one reply.
fn query(addr: &str, request: &Request) -> Result<Reply, String> {
    let (mut writer, mut lines) = connect(addr)?;
    send_request(&mut writer, request)?;
    read_reply(&mut lines)
}

/// Sends a submit and, with `--wait`, follows it to its result. A lost
/// connection is not an answer: once the daemon has accepted the submit,
/// the client reconnects (at most [`RECONNECT_ATTEMPTS`] consecutive
/// failed attempts, [`RECONNECT_DELAY`] apart) and re-sends the same
/// submit. The daemon answers it like any other: it coalesces onto the
/// live job, hits the cache if the job has finished, or — after a daemon
/// restart lost the job — starts a new one (a `miss`, followed at most
/// [`MAX_RESUBMITS`] times) that resumes from the job's checkpoints.
/// Whichever way, the delivered bytes are the ones an uninterrupted
/// `--wait` would have printed.
fn submit_and_follow(args: &SubmitArgs, submit: &Request) -> Result<(), String> {
    let mut follow = Follow::default();
    loop {
        let lost = match follow.attempt(args, submit) {
            Ok(()) => return Ok(()),
            Err(Failure::Final(e)) => return Err(e),
            Err(Failure::Lost(e)) => e,
        };
        let Some(job) = follow.job else {
            return Err(lost);
        };
        if follow.failures == 0 {
            eprintln!("xbar submit: lost the daemon ({lost}); reconnecting to follow job {job}");
        }
        follow.failures += 1;
        if follow.failures > RECONNECT_ATTEMPTS {
            return Err(format!(
                "gave up on job {job} after {RECONNECT_ATTEMPTS} consecutive failed \
                 reconnect attempts"
            ));
        }
        std::thread::sleep(RECONNECT_DELAY);
    }
}

/// What a followed submit has seen so far.
#[derive(Debug, Default)]
struct Follow {
    /// The job being followed, once the daemon has accepted the submit
    /// (a cache hit has none).
    job: Option<u64>,
    /// Consecutive failed attempts; reset whenever the daemon answers.
    failures: u32,
    /// Re-sent submits that had to start a new job.
    resubmits: u32,
}

impl Follow {
    /// One connection's worth of a submit: send it, read `submitted`,
    /// then (with `--wait`) `progress` lines until the `result`.
    fn attempt(&mut self, args: &SubmitArgs, submit: &Request) -> Result<(), Failure> {
        let (mut writer, mut lines) = connect(&args.connect).map_err(Failure::Lost)?;
        send_request(&mut writer, submit).map_err(Failure::Lost)?;
        let submitted = read_reply_raw(&mut lines)?;
        self.failures = 0;
        let id = submitted.doc.get("job").and_then(Json::as_u64);
        let cache = submitted
            .doc
            .get("cache")
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        match (self.job, id) {
            (None, Some(id)) => eprintln!("xbar submit: job {id} (cache {cache})"),
            (None, None) => eprintln!("xbar submit: no job (cache {cache})"),
            (Some(lost), Some(id)) if cache == "miss" => {
                self.resubmits += 1;
                if self.resubmits > MAX_RESUBMITS {
                    return Err(Failure::Final(format!(
                        "job {lost} was lost again after {MAX_RESUBMITS} resubmit(s)"
                    )));
                }
                eprintln!("xbar submit: daemon lost job {lost}; resubmitted as job {id}");
            }
            (Some(_), _) => {}
        }
        self.job = id.or(self.job);
        if !args.wait {
            return Ok(());
        }
        loop {
            let reply = read_reply_raw(&mut lines)?;
            match reply.kind.as_str() {
                "progress" => {
                    print_progress(
                        reply.doc.get("job").and_then(Json::as_u64).unwrap_or(0),
                        &reply,
                    );
                }
                "result" => {
                    deliver_artifact(&reply, args.out.as_ref()).map_err(Failure::Final)?;
                    eprintln!("xbar submit: result ({})", describe_result(&reply));
                    return Ok(());
                }
                other => {
                    return Err(Failure::Final(format!(
                        "unexpected {other:?} response while waiting"
                    )))
                }
            }
        }
    }
}

/// Reprints a reply verbatim (one compact JSON line) on stdout, so
/// `--stats` / `--status` compose with grep and jq-alikes.
fn print_reply_line(reply: &Reply) -> Result<(), String> {
    println!("{}", reply.line);
    Ok(())
}

/// `xbar submit`: parses flags, performs one request against the daemon,
/// and returns the process exit code (0 ok, 1 runtime/daemon error,
/// 2 usage).
#[must_use]
pub fn submit_main(argv: Vec<String>) -> i32 {
    let args = match parse_submit_args(argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", submit_usage());
            return 0;
        }
        Err(e) => {
            eprintln!("xbar submit: {e}\n\n{}", submit_usage());
            return 2;
        }
    };
    match run_submit(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("xbar submit: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Option<SubmitArgs>, String> {
        parse_submit_args(words.iter().map(|s| (*s).to_owned()).collect())
    }

    #[test]
    fn experiment_flags_forward_verbatim_and_client_flags_do_not() {
        let args = parse(&[
            "table2",
            "--quick",
            "--seed",
            "9",
            "--connect",
            "127.0.0.1:9999",
            "--wait",
            "--circuits",
            "rd53",
            "--out",
            "/tmp/a.json",
        ])
        .expect("parses")
        .expect("not help");
        assert_eq!(args.connect, "127.0.0.1:9999");
        assert!(args.wait);
        assert_eq!(args.out, Some(PathBuf::from("/tmp/a.json")));
        let Mode::Submit {
            experiment,
            args: forwarded,
        } = args.mode
        else {
            panic!("submit mode");
        };
        assert_eq!(experiment, "table2");
        assert_eq!(
            forwarded,
            ["--quick", "--seed", "9", "--circuits", "rd53"],
            "client flags consumed, experiment flags untouched"
        );
    }

    #[test]
    fn query_modes_parse_and_conflicts_are_usage_errors() {
        assert_eq!(
            parse(&["--stats"]).expect("ok").expect("args").mode,
            Mode::Stats
        );
        assert_eq!(
            parse(&["--status", "7"]).expect("ok").expect("args").mode,
            Mode::Status(7)
        );
        assert_eq!(
            parse(&["--result", "7"]).expect("ok").expect("args").mode,
            Mode::ResultOf(7)
        );
        assert_eq!(
            parse(&["--cancel", "0"]).expect("ok").expect("args").mode,
            Mode::Cancel(0)
        );
        assert!(parse(&["--help"]).expect("ok").is_none());
        for words in [
            &[][..],
            &["--stats", "--shutdown"][..],
            &["--stats", "table2"][..],
            &["--status", "soon"][..],
            &["--quick", "table2"][..],
            &["--connect"][..],
        ] {
            assert!(parse(words).is_err(), "{words:?} must fail");
        }
    }

    #[test]
    fn connecting_to_a_dead_daemon_is_a_runtime_error() {
        // Port 1 on localhost is essentially never listening; the client
        // must fail cleanly (CI uses this as its readiness probe).
        let code = submit_main(
            ["--stats", "--connect", "127.0.0.1:1"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
        );
        assert_eq!(code, 1);
    }
}
