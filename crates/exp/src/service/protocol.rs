//! The `xbar-svc/1` wire protocol: newline-delimited JSON over TCP.
//!
//! Every message — request or response — is one JSON object on one line
//! (rendered with [`Json::render_compact`], parsed with
//! [`Json::parse`]), tagged with `"svc": "xbar-svc/1"` and a `"type"`
//! discriminator. Requests flow client → daemon; the daemon answers each
//! request with one response line, except `submit` with `"wait": true`,
//! which streams zero or more `progress` lines before the final `result`
//! (or `error`) line.
//!
//! Request types: `submit`, `status`, `result`, `cancel`, `stats`,
//! `shutdown`. Response types: `submitted`, `progress`, `result`,
//! `status`, `stats`, `ok`, `error`. Unknown fields are ignored by both
//! sides, so the schema can grow compatibly within `/1`.

use crate::shard::json::Json;

/// Protocol schema tag carried by every message.
pub const PROTOCOL: &str = "xbar-svc/1";

/// A client request, parsed from one wire line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run (or answer from cache) an experiment with the given CLI-style
    /// argument words; with `wait`, stream progress and the final result
    /// on this connection.
    Submit {
        /// Registry experiment name.
        experiment: String,
        /// Experiment argument words, exactly as `xbar run` would take
        /// them (`--samples 50 --seed 9 ...`). Output-routing flags
        /// (`--json`, `--out`, `--csv`) are rejected by the daemon:
        /// output routing belongs to the client.
        args: Vec<String>,
        /// Stream `progress` events and the final `result` instead of
        /// returning immediately after `submitted`.
        wait: bool,
    },
    /// Report a job's state.
    Status {
        /// Job id from a previous `submitted` response.
        job: u64,
    },
    /// Return a finished job's artifact.
    ResultOf {
        /// Job id.
        job: u64,
    },
    /// Cancel a queued (not yet running) job.
    Cancel {
        /// Job id.
        job: u64,
    },
    /// Report daemon-wide counters.
    Stats,
    /// Gracefully shut the daemon down: stop accepting work, drain
    /// running jobs (their artifacts still land in the cache), cancel
    /// queued ones.
    Shutdown,
}

impl Request {
    /// Renders the request as one wire line (no trailing newline).
    #[must_use]
    pub fn render(&self) -> String {
        let mut fields = vec![
            ("svc", Json::str(PROTOCOL)),
            ("type", Json::str(self.type_name())),
        ];
        match self {
            Request::Submit {
                experiment,
                args,
                wait,
            } => {
                fields.push(("experiment", Json::str(experiment.clone())));
                fields.push(("args", Json::arr(args.iter().map(|a| Json::str(a.clone())))));
                fields.push(("wait", Json::Bool(*wait)));
            }
            Request::Status { job } | Request::ResultOf { job } | Request::Cancel { job } => {
                fields.push(("job", Json::u64(*job)));
            }
            Request::Stats | Request::Shutdown => {}
        }
        Json::obj(fields).render_compact()
    }

    fn type_name(&self) -> &'static str {
        match self {
            Request::Submit { .. } => "submit",
            Request::Status { .. } => "status",
            Request::ResultOf { .. } => "result",
            Request::Cancel { .. } => "cancel",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }

    /// Parses one wire line into a request.
    ///
    /// # Errors
    ///
    /// Reports malformed JSON, a missing/mismatched `svc` tag, an unknown
    /// `type`, or missing required fields — the daemon echoes the message
    /// back in an `error` response.
    pub fn parse(line: &str) -> Result<Self, String> {
        let doc = Json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
        match doc.get("svc").and_then(Json::as_str) {
            Some(PROTOCOL) => {}
            Some(other) => return Err(format!("unsupported protocol {other:?} (want {PROTOCOL})")),
            None => return Err(format!("missing \"svc\" tag (want {PROTOCOL})")),
        }
        let kind = doc
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing \"type\" field".to_owned())?;
        let job = || {
            doc.get("job")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{kind} request needs a numeric \"job\" field"))
        };
        match kind {
            "submit" => {
                let experiment = doc
                    .get("experiment")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "submit request needs an \"experiment\" field".to_owned())?
                    .to_owned();
                let args = match doc.get("args") {
                    None => Vec::new(),
                    Some(value) => value
                        .as_arr()
                        .ok_or_else(|| "\"args\" must be an array of strings".to_owned())?
                        .iter()
                        .map(|a| {
                            a.as_str()
                                .map(str::to_owned)
                                .ok_or_else(|| "\"args\" must be an array of strings".to_owned())
                        })
                        .collect::<Result<_, _>>()?,
                };
                let wait = doc.get("wait").and_then(Json::as_bool).unwrap_or(false);
                Ok(Request::Submit {
                    experiment,
                    args,
                    wait,
                })
            }
            "status" => Ok(Request::Status { job: job()? }),
            "result" => Ok(Request::ResultOf { job: job()? }),
            "cancel" => Ok(Request::Cancel { job: job()? }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type {other:?}")),
        }
    }
}

/// Starts a response object: `svc` and `type` first, so every line a
/// client reads leads with the same two discriminators.
#[must_use]
pub fn response(kind: &str, fields: Vec<(&'static str, Json)>) -> String {
    let mut all = vec![("svc", Json::str(PROTOCOL)), ("type", Json::str(kind))];
    all.extend(fields);
    Json::obj(all).render_compact()
}

/// An `error` response line.
#[must_use]
pub fn error_line(message: &str) -> String {
    response("error", vec![("message", Json::str(message))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_through_the_wire_form() {
        let requests = [
            Request::Submit {
                experiment: "table2".to_owned(),
                args: vec!["--quick".to_owned(), "--seed".to_owned(), "9".to_owned()],
                wait: true,
            },
            Request::Submit {
                experiment: "fig6".to_owned(),
                args: Vec::new(),
                wait: false,
            },
            Request::Status { job: 3 },
            Request::ResultOf { job: u64::MAX - 1 },
            Request::Cancel { job: 0 },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in requests {
            let line = req.render();
            assert!(!line.contains('\n'), "one request per line: {line}");
            assert!(line.contains("\"svc\": \"xbar-svc/1\""), "{line}");
            assert_eq!(Request::parse(&line).expect("reparses"), req, "{line}");
        }
    }

    #[test]
    fn malformed_requests_report_what_is_wrong() {
        for (line, needle) in [
            ("not json", "malformed request"),
            ("{\"type\": \"stats\"}", "missing \"svc\""),
            (
                "{\"svc\": \"xbar-svc/2\", \"type\": \"stats\"}",
                "unsupported protocol",
            ),
            ("{\"svc\": \"xbar-svc/1\"}", "missing \"type\""),
            (
                "{\"svc\": \"xbar-svc/1\", \"type\": \"frobnicate\"}",
                "unknown request type",
            ),
            (
                "{\"svc\": \"xbar-svc/1\", \"type\": \"submit\"}",
                "needs an \"experiment\"",
            ),
            (
                "{\"svc\": \"xbar-svc/1\", \"type\": \"submit\", \"experiment\": \"t\", \
                 \"args\": [1]}",
                "array of strings",
            ),
            (
                "{\"svc\": \"xbar-svc/1\", \"type\": \"status\"}",
                "numeric \"job\"",
            ),
        ] {
            let err = Request::parse(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn unknown_fields_are_ignored_for_forward_compatibility() {
        let line = "{\"svc\": \"xbar-svc/1\", \"type\": \"stats\", \"future\": {\"x\": 1}}";
        assert_eq!(Request::parse(line).expect("parses"), Request::Stats);
    }

    #[test]
    fn responses_lead_with_svc_and_type() {
        let line = response(
            "submitted",
            vec![("job", Json::u64(7)), ("cache", Json::str("miss"))],
        );
        assert!(line.starts_with("{\"svc\": \"xbar-svc/1\", \"type\": \"submitted\""));
        let doc = Json::parse(&line).expect("parses");
        assert_eq!(doc.get("job").unwrap().as_u64(), Some(7));
        let err = error_line("no such job");
        let doc = Json::parse(&err).expect("parses");
        assert_eq!(doc.get("type").unwrap().as_str(), Some("error"));
        assert_eq!(doc.get("message").unwrap().as_str(), Some("no such job"));
    }
}
