//! The typed flag layer of every `xbar` front-end. A front-end declares
//! its flags **once** as tables of [`ParamSpec`]s, and parsing, `--help`
//! text and (for experiments) the artifact's `params` echo all derive from
//! that declaration — no per-binary flag loops.
//!
//! * [`Flags::parse`] is the one engine: it parses an argv against a list
//!   of spec tables into typed values.
//! * [`Params`] is what an experiment receives: [`COMMON_PARAMS`] as typed
//!   fields plus the experiment's extras. `xbar run`, the daemon and the
//!   `mc` front-ends all build it here, so a Monte Carlo campaign is
//!   checked the same way whichever front-end describes it.
//! * [`FrontEnd`] is a subcommand's declaration (`xbar mc launch`,
//!   `xbar serve`, …): its flag tables, its generated usage text, and the
//!   exit-code contract around parsing.
//!
//! Parsing is `Result`-returning throughout: a malformed flag produces a
//! [`UsageError`] the driver turns into usage text and exit code 2, never
//! a panic/backtrace.

use crate::shard::json::Json;
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;
use xbar_core::{Campaign, DefectModelKind, DefectModelSpec, SampleStream};

/// A flag-parsing/usage error. The CLI driver prints it with the
/// experiment's usage text and exits with code 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// Convenience constructor used by parsing code.
pub(crate) fn usage_err(message: impl Into<String>) -> UsageError {
    UsageError(message.into())
}

/// The value type of one parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// An unsigned count (`usize`).
    USize,
    /// A 64-bit seed-like integer.
    U64,
    /// A finite floating-point value.
    F64,
    /// A probability: a float in `[0, 1]`.
    Prob,
    /// A non-negative duration in seconds (fractional ok).
    Secs,
    /// A boolean switch (present = true, takes no value).
    Flag,
    /// A free-form string.
    Str,
    /// A comma-separated list of strings.
    StrList,
    /// A string that may be given any number of times; the values
    /// collect in order (read back with [`Flags::list`]).
    Repeated,
    /// A closed choice: the value must be one of the listed literals
    /// (stored and echoed as a string).
    Enum(&'static [&'static str]),
}

impl ParamKind {
    fn value_hint(self) -> String {
        match self {
            ParamKind::USize | ParamKind::U64 => "N".to_owned(),
            ParamKind::F64 | ParamKind::Prob => "F".to_owned(),
            ParamKind::Flag => String::new(),
            ParamKind::Str | ParamKind::Secs | ParamKind::Repeated => "S".to_owned(),
            ParamKind::StrList => "a,b".to_owned(),
            ParamKind::Enum(choices) => choices.join("|"),
        }
    }
}

/// A resolved parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// An unsigned count.
    USize(usize),
    /// A 64-bit integer.
    U64(u64),
    /// A float (also a probability).
    F64(f64),
    /// A duration.
    Secs(Duration),
    /// A switch.
    Flag(bool),
    /// A string.
    Str(String),
    /// A string list (also a repeatable flag's values).
    StrList(Vec<String>),
}

impl ParamValue {
    fn to_json(&self) -> Json {
        match self {
            ParamValue::USize(v) => Json::usize(*v),
            ParamValue::U64(v) => Json::u64(*v),
            ParamValue::F64(v) => Json::f64(*v),
            ParamValue::Secs(v) => Json::f64(v.as_secs_f64()),
            ParamValue::Flag(v) => Json::Bool(*v),
            ParamValue::Str(v) => Json::str(v.clone()),
            ParamValue::StrList(v) => Json::arr(v.iter().map(|s| Json::str(s.clone()))),
        }
    }
}

/// The declaration of one flag: name (without the leading `--`), type,
/// textual default, and help line. This single declaration drives
/// parsing, `--help`, and the artifact echo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSpec {
    /// Flag name without the leading `--` (e.g. `"spare-rows"`).
    pub name: &'static str,
    /// Value type.
    pub kind: ParamKind,
    /// Textual default, parsed as the flag's own kind (e.g. `"0"`,
    /// `"rd53"`, `"false"` for switches). Empty means the flag has no
    /// default: it holds no value until given (read it with the `opt_*`
    /// accessors). A repeatable flag starts out empty.
    pub default: &'static str,
    /// One-line help text.
    pub help: &'static str,
}

/// Const constructor for registry tables.
#[must_use]
pub const fn spec(
    name: &'static str,
    kind: ParamKind,
    default: &'static str,
    help: &'static str,
) -> ParamSpec {
    ParamSpec {
        name,
        kind,
        default,
        help,
    }
}

impl ParamSpec {
    fn parse_value(&self, text: &str) -> Result<ParamValue, UsageError> {
        let bad = |kind: &str| usage_err(format!("--{}: expected {kind}, got {text:?}", self.name));
        Ok(match self.kind {
            ParamKind::USize => ParamValue::USize(
                text.parse()
                    .map_err(|_| bad("a number (an unsigned integer)"))?,
            ),
            ParamKind::U64 => ParamValue::U64(text.parse().map_err(|_| bad("a number"))?),
            ParamKind::F64 => {
                let v: f64 = text.parse().map_err(|_| bad("a number"))?;
                if !v.is_finite() {
                    return Err(bad("a finite number"));
                }
                ParamValue::F64(v)
            }
            ParamKind::Prob => {
                let v: f64 = text.parse().map_err(|_| bad("a number"))?;
                // NaN is outside every range, so this also rejects it.
                if !(0.0..=1.0).contains(&v) {
                    return Err(bad("a finite probability in [0, 1]"));
                }
                ParamValue::F64(v)
            }
            ParamKind::Secs => {
                let secs: f64 = text.parse().map_err(|_| bad("seconds"))?;
                ParamValue::Secs(
                    Duration::try_from_secs_f64(secs)
                        .map_err(|_| bad("a non-negative finite number of seconds"))?,
                )
            }
            ParamKind::Flag => ParamValue::Flag(text.parse().map_err(|_| bad("true or false"))?),
            ParamKind::Str => ParamValue::Str(text.to_owned()),
            ParamKind::StrList => {
                if text.is_empty() {
                    return Err(bad("a non-empty comma-separated list"));
                }
                ParamValue::StrList(text.split(',').map(str::to_owned).collect())
            }
            ParamKind::Repeated => ParamValue::StrList(vec![text.to_owned()]),
            ParamKind::Enum(choices) => {
                if !choices.contains(&text) {
                    return Err(bad(&format!("one of {}", choices.join(", "))));
                }
                ParamValue::Str(text.to_owned())
            }
        })
    }

    /// The value the flag holds before it is given, if any.
    ///
    /// # Panics
    ///
    /// Panics when the textual default does not parse as the spec's own
    /// kind — a registry bug, pinned by the completeness tests.
    fn default_value(&self) -> Option<ParamValue> {
        if self.kind == ParamKind::Repeated {
            return Some(ParamValue::StrList(Vec::new()));
        }
        if self.default.is_empty() {
            return None;
        }
        Some(
            self.parse_value(self.default)
                .unwrap_or_else(|e| panic!("bad default for --{}: {e}", self.name)),
        )
    }
}

/// The shared `--rng-stream` declaration: every experiment that samples
/// defects adds this spec, so campaigns pick the sampling stream version
/// with one flag and the artifact `params` block echoes it
/// deterministically. The default is `v1`, the frozen dense stream —
/// existing invocations keep their bytes.
pub const RNG_STREAM_PARAM: ParamSpec = spec(
    "rng-stream",
    ParamKind::Enum(&["v1", "v2"]),
    "v1",
    "defect sampling stream: v1 = frozen dense sweep, v2 = geometric skip",
);

/// The shared `--defect-model` declaration: which spatial defect model
/// the campaign draws. Defaults to `iid` (the paper's Table II model) and
/// is echoed in artifacts **only when non-default**, so every pre-model
/// artifact stays byte-frozen.
pub const DEFECT_MODEL_PARAM: ParamSpec = spec(
    "defect-model",
    ParamKind::Enum(&["iid", "clustered", "lines", "composite"]),
    "iid",
    "spatial defect model: iid cells, clustered runs, broken lines, or lines over clusters",
);

/// The shared `--cluster-size` declaration (mean defect-run length for
/// the `clustered`/`composite` models). Echoed only when non-default.
pub const CLUSTER_SIZE_PARAM: ParamSpec = spec(
    "cluster-size",
    ParamKind::F64,
    "4",
    "mean defect-cluster size for clustered/composite models (>= 1)",
);

/// The shared `--line-rate` declaration (per-line break probability for
/// the `lines`/`composite` models). Echoed only when non-default.
pub const LINE_RATE_PARAM: ParamSpec = spec(
    "line-rate",
    ParamKind::Prob,
    "0.02",
    "broken wordline/bitline probability for lines/composite models",
);

/// The full defect-model declaration set, appended by every sampling
/// experiment after [`RNG_STREAM_PARAM`].
pub const DEFECT_MODEL_PARAMS: [ParamSpec; 3] =
    [DEFECT_MODEL_PARAM, CLUSTER_SIZE_PARAM, LINE_RATE_PARAM];

/// Extras echoed in artifact `params` **only when non-default**: the
/// defect-model family postdates the frozen artifact pins, so the echo
/// must not disturb existing documents when the campaign never opted in.
const OMIT_DEFAULT_ECHO: [&str; 3] = [
    DEFECT_MODEL_PARAM.name,
    CLUSTER_SIZE_PARAM.name,
    LINE_RATE_PARAM.name,
];

/// The parameters every experiment shares (the [`Campaign`]'s samples,
/// seed and defect rate, plus output routing), rendered in usage text for
/// all experiments. `Campaign::default()` holds the same defaults as
/// values; a test keeps the two equal.
pub const COMMON_PARAMS: &[ParamSpec] = &[
    spec(
        "samples",
        ParamKind::USize,
        "200",
        "Monte Carlo samples (ignored by deterministic experiments)",
    ),
    spec("seed", ParamKind::U64, "2018", "experiment seed"),
    spec(
        "defect-rate",
        ParamKind::Prob,
        "0.10",
        "per-crosspoint defect probability",
    ),
    spec(
        "quick",
        ParamKind::Flag,
        "false",
        "smoke run: samples/10 (at least 10), applied after --samples",
    ),
    spec(
        "json",
        ParamKind::Flag,
        "false",
        "suppress human output; print the canonical artifact JSON to stdout",
    ),
    spec(
        "out",
        ParamKind::Str,
        "",
        "directory to write the artifact to as <experiment>.json",
    ),
    spec(
        "csv",
        ParamKind::Str,
        "",
        "also write the primary table as CSV",
    ),
];

/// The common parameters that describe a Monte Carlo campaign
/// (`--samples`, `--seed`, `--defect-rate`), without output routing: the
/// `mc` front-ends parse their campaign against these plus `table2`'s
/// extras, and route output with flags of their own.
pub(crate) const CAMPAIGN_PARAMS: &[ParamSpec] = COMMON_PARAMS.split_at(3).0;

/// The `--help` switch every [`FrontEnd`] declares. Parsing stops at it,
/// so `--help` answers even when later flags are malformed.
pub(crate) const HELP_PARAM: ParamSpec = spec("help", ParamKind::Flag, "false", "print this help");

/// Each typed accessor pair of [`Flags`]: `get` for a flag that always
/// holds a value, `opt` for one that may not.
macro_rules! accessors {
    ($($(#[$doc:meta])* $get:ident / $opt:ident -> $ty:ty: $variant:ident($v:ident) => $out:expr;)*) => {$(
        $(#[$doc])*
        ///
        /// # Panics
        ///
        /// Panics when no table declared `name` with this kind and a
        /// default — a programmer error, not a user error.
        #[must_use]
        pub fn $get(&self, name: &str) -> $ty {
            self.$opt(name).unwrap_or_else(|| {
                panic!("param --{name} is not a declared {} with a value", stringify!($get))
            })
        }

        $(#[$doc])*
        /// `None` when it has no default and was not given, or when `name`
        /// is not declared with this kind — generic callers (the service's
        /// batch scheduler probes every experiment for an optional circuit
        /// affinity) rely on the latter.
        #[must_use]
        pub fn $opt(&self, name: &str) -> Option<$ty> {
            match self.0.get(name) {
                Some(ParamValue::$variant($v)) => Some($out),
                _ => None,
            }
        }
    )*};
}

/// Flag values parsed against one or more [`ParamSpec`] tables, by flag
/// name: every declared flag with a default holds a value, the others
/// only once given.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Flags(BTreeMap<&'static str, ParamValue>);

impl Flags {
    /// Parses a flag stream against `tables`. A repeatable flag collects
    /// every value; any other flag given twice keeps the last. `-h` is
    /// `--help`, and a declared `HELP_PARAM` ends parsing.
    ///
    /// # Errors
    ///
    /// Returns a [`UsageError`] on an unknown flag, a missing value, or a
    /// malformed value — never panics.
    pub fn parse(
        tables: &[&[ParamSpec]],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, UsageError> {
        let mut flags = Self(
            tables
                .iter()
                .flat_map(|table| table.iter())
                .filter_map(|s| Some((s.name, s.default_value()?)))
                .collect(),
        );
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let name = if flag == "-h" {
                HELP_PARAM.name
            } else {
                flag.strip_prefix("--")
                    .ok_or_else(|| usage_err(format!("expected a --flag, got {flag:?}")))?
            };
            let spec = tables
                .iter()
                .flat_map(|table| table.iter())
                .find(|s| s.name == name)
                .ok_or_else(|| usage_err(format!("unknown flag --{name}")))?;
            if spec.kind == ParamKind::Flag {
                flags.0.insert(spec.name, ParamValue::Flag(true));
                if spec.name == HELP_PARAM.name {
                    break;
                }
                continue;
            }
            let text = it
                .next()
                .ok_or_else(|| usage_err(format!("--{name} needs a value")))?;
            match flags.0.get_mut(spec.name) {
                Some(ParamValue::StrList(values)) if spec.kind == ParamKind::Repeated => {
                    values.push(text);
                }
                _ => {
                    let value = spec.parse_value(&text)?;
                    flags.0.insert(spec.name, value);
                }
            }
        }
        Ok(flags)
    }

    accessors! {
        /// A `usize` parameter.
        usize / opt_usize -> usize: USize(v) => *v;
        /// A `u64` parameter.
        u64 / opt_u64 -> u64: U64(v) => *v;
        /// An `f64` (or probability) parameter.
        f64 / opt_f64 -> f64: F64(v) => *v;
        /// A seconds parameter.
        secs / opt_secs -> Duration: Secs(v) => *v;
        /// A switch.
        flag / opt_flag -> bool: Flag(v) => *v;
        /// A string parameter.
        str / opt_str -> &str: Str(v) => v;
        /// A string-list or repeatable parameter.
        list / opt_list -> &[String]: StrList(v) => v;
    }

    /// A count that must be at least 1 when it holds a value.
    ///
    /// # Errors
    ///
    /// Reports a zero count.
    pub(crate) fn opt_count(&self, name: &str) -> Result<Option<usize>, UsageError> {
        match self.opt_usize(name) {
            Some(0) => Err(usage_err(format!("--{name} must be at least 1"))),
            count => Ok(count),
        }
    }

    /// A duration that must be positive when it holds a value.
    ///
    /// # Errors
    ///
    /// Reports a zero duration.
    pub(crate) fn opt_positive_secs(&self, name: &str) -> Result<Option<Duration>, UsageError> {
        match self.opt_secs(name) {
            Some(t) if t.is_zero() => Err(usage_err(format!("--{name} must be positive"))),
            t => Ok(t),
        }
    }
}

/// Fully-resolved experiment parameters: the common set as typed fields,
/// per-experiment extras behind the [`Flags`] accessors (`params.usize`,
/// `params.str`, …, through `Deref`).
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// The sampling campaign: `--samples` (already divided when `quick`
    /// is set), `--seed`, `--defect-rate`, and the stream and defect model
    /// for experiments that declare [`RNG_STREAM_PARAM`] and
    /// [`DEFECT_MODEL_PARAMS`] (the defaults for the others).
    pub campaign: Campaign,
    /// Smoke-run mode (`--quick`).
    pub quick: bool,
    /// Artifact-to-stdout mode (`--json`).
    pub json: bool,
    /// Artifact output directory (`--out DIR`).
    pub out: Option<PathBuf>,
    /// CSV output path for the primary table (`--csv PATH`).
    pub csv: Option<PathBuf>,
    extras: Flags,
}

impl std::ops::Deref for Params {
    type Target = Flags;

    fn deref(&self) -> &Flags {
        &self.extras
    }
}

impl Params {
    /// Defaults for the common set plus the given extra specs.
    ///
    /// # Panics
    ///
    /// Panics when a spec's textual default does not parse as its own
    /// kind — a registry bug, pinned by the completeness test.
    #[must_use]
    pub fn defaults(extra: &[ParamSpec]) -> Self {
        Self::parse(extra, []).expect("the declared defaults pass the central checks")
    }

    /// Parses a flag stream against the common set plus `extra`.
    ///
    /// `--quick` is applied **after** all flags (order-independent):
    /// `samples = (samples / 10).max(10)`.
    ///
    /// # Errors
    ///
    /// Returns a [`UsageError`] on an unknown flag, a missing value, or a
    /// malformed value — never panics.
    pub fn parse(
        extra: &[ParamSpec],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, UsageError> {
        let flags = Flags::parse(&[COMMON_PARAMS, extra], args)?;
        Ok(Self {
            json: flags.flag("json"),
            out: flags.opt_str("out").map(PathBuf::from),
            csv: flags.opt_str("csv").map(PathBuf::from),
            ..Self::from_flags(&flags, extra)?
        })
    }

    /// The parameters that `flags` — parsed against tables including
    /// `CAMPAIGN_PARAMS` and `extra` — describe, after the central
    /// checks every experiment relies on. Output routing (`--json`,
    /// `--out`, `--csv`) stays off: [`Params::parse`] reads it, a front-end
    /// with routing flags of its own does not. Values of any other table
    /// stay with the caller.
    ///
    /// # Errors
    ///
    /// Returns a [`UsageError`] when a central check fails.
    pub fn from_flags(flags: &Flags, extra: &[ParamSpec]) -> Result<Self, UsageError> {
        let quick = flags.opt_flag("quick") == Some(true);
        let extras = Flags(
            extra
                .iter()
                .filter_map(|s| Some((s.name, flags.0.get(s.name)?.clone())))
                .collect(),
        );
        // Choice kinds are checked against their choices at parse time,
        // so these parses fail only on a registry bug; they still answer
        // with a usage error rather than a panic.
        let stream = extras
            .opt_str(RNG_STREAM_PARAM.name)
            .map_or(Ok(SampleStream::V1), SampleStream::parse)
            .map_err(usage_err)?;
        // The cluster size is the one model parameter whose range its kind
        // does not check (probabilities are range-checked by `Prob`, and
        // non-finite values never parse as any F64 param).
        if extras
            .opt_f64(CLUSTER_SIZE_PARAM.name)
            .is_some_and(|v| v < 1.0)
        {
            return Err(usage_err("--cluster-size must be at least 1"));
        }
        let model = DefectModelSpec::new(
            extras
                .opt_str(DEFECT_MODEL_PARAM.name)
                .map_or(Ok(DefectModelKind::Iid), DefectModelKind::parse)
                .map_err(usage_err)?,
            extras
                .opt_f64(CLUSTER_SIZE_PARAM.name)
                .unwrap_or(DefectModelSpec::DEFAULT_CLUSTER_SIZE),
            extras
                .opt_f64(LINE_RATE_PARAM.name)
                .unwrap_or(DefectModelSpec::DEFAULT_LINE_RATE),
        )
        .map_err(usage_err)?;
        let samples = flags.usize("samples");
        let campaign = Campaign {
            samples: if quick {
                (samples / 10).max(10)
            } else {
                samples
            },
            seed: flags.u64("seed"),
            defect_rate: flags.f64("defect-rate"),
            stream,
            model,
        };
        // Central floor: every Monte Carlo experiment divides by the
        // sample count or asserts it non-zero; deterministic experiments
        // ignore it, so rejecting 0 samples here costs nothing and keeps
        // the no-panic exit-code contract for all of them.
        campaign.validate().map_err(usage_err)?;
        Ok(Self {
            campaign,
            quick,
            json: false,
            out: None,
            csv: None,
            extras,
        })
    }

    /// The sampling campaign, for callers written against the earlier
    /// bridge type.
    #[doc(hidden)]
    #[must_use]
    pub fn exp_args(&self) -> Campaign {
        self.campaign
    }

    /// The canonical `params` echo of the artifact document: the
    /// experiment-semantic parameters (common + extras in declaration
    /// order). Output routing (`--json`, `--out`, `--csv`) is deliberately
    /// excluded so artifacts stay byte-identical across hosts and
    /// invocation styles.
    #[must_use]
    pub fn to_json(&self, extra: &[ParamSpec]) -> Json {
        let mut fields = vec![
            ("samples".to_owned(), Json::usize(self.campaign.samples)),
            ("seed".to_owned(), Json::u64(self.campaign.seed)),
            (
                "defect_rate".to_owned(),
                Json::f64(self.campaign.defect_rate),
            ),
        ];
        for s in extra {
            let Some(value) = self.extras.0.get(s.name) else {
                continue;
            };
            // The defect-model family is echoed only when non-default:
            // these params postdate the frozen artifact pins, and omitting
            // them at their defaults keeps every existing document
            // byte-identical.
            if OMIT_DEFAULT_ECHO.contains(&s.name) && Some(value) == s.default_value().as_ref() {
                continue;
            }
            fields.push((s.name.replace('-', "_"), value.to_json()));
        }
        Json::Obj(fields)
    }

    /// Renders the auto-generated usage text for an experiment: common
    /// flags followed by the experiment's extras, one line each.
    #[must_use]
    pub fn usage(exp_name: &str, description: &str, extra: &[ParamSpec]) -> String {
        usage_text(
            description,
            &format!("run {exp_name}"),
            &[("flags", COMMON_PARAMS), ("experiment flags", extra)],
        )
    }
}

/// One `xbar` subcommand's flag surface, declared once: parsing, the
/// generated `--help`, and the exit-code contract all derive from it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrontEnd {
    /// The subcommand as typed after `xbar` (`"mc launch"`); it prefixes
    /// every message the front-end prints.
    pub(crate) command: &'static str,
    /// What the subcommand does: the first paragraph of its help.
    pub(crate) about: &'static str,
    /// The flag tables, each under its help heading (an empty heading
    /// continues the section above).
    pub(crate) sections: &'static [(&'static str, &'static [ParamSpec])],
}

impl FrontEnd {
    /// The generated usage text: `about`, the usage line, then every
    /// section's flags and `--help`.
    #[must_use]
    pub(crate) fn usage(&self) -> String {
        let mut out = usage_text(self.about, self.command, self.sections);
        out.push('\n');
        push_flag_line(&mut out, &HELP_PARAM);
        out
    }

    /// Parses `argv` against every section's table; `Ok(None)` when
    /// `--help` came first.
    ///
    /// # Errors
    ///
    /// Reports an unknown flag or a missing or malformed value.
    pub(crate) fn try_parse(&self, argv: Vec<String>) -> Result<Option<Flags>, UsageError> {
        let mut tables: Vec<&[ParamSpec]> = self.sections.iter().map(|(_, t)| *t).collect();
        tables.push(std::slice::from_ref(&HELP_PARAM));
        let flags = Flags::parse(&tables, argv)?;
        Ok((!flags.flag(HELP_PARAM.name)).then_some(flags))
    }

    /// Parses `argv` and hands the flags to `check`, the front-end's own
    /// checks on outside input. `Err` carries the exit code to return:
    /// 0 after printing the help for `--help`, 2 after printing a usage
    /// error with the help.
    ///
    /// # Errors
    ///
    /// The process exit code when the front-end must not go on.
    pub(crate) fn parse<T>(
        &self,
        argv: Vec<String>,
        check: impl FnOnce(Flags) -> Result<T, UsageError>,
    ) -> Result<T, i32> {
        match self
            .try_parse(argv)
            .and_then(|flags| flags.map(check).transpose())
        {
            Ok(Some(value)) => Ok(value),
            Ok(None) => {
                println!("{}", self.usage());
                Err(0)
            }
            Err(e) => Err(self.reject(&e)),
        }
    }

    /// Prints a usage error with the help to stderr; returns exit code 2.
    #[must_use]
    pub(crate) fn reject(&self, e: &dyn fmt::Display) -> i32 {
        eprintln!("xbar {}: {e}\n\n{}", self.command, self.usage());
        2
    }

    /// Prints a runtime failure to stderr; returns exit code 1.
    #[must_use]
    pub(crate) fn fail(&self, e: &dyn fmt::Display) -> i32 {
        eprintln!("xbar {}: {e}", self.command);
        1
    }
}

/// The usage text shared by `xbar describe` and every [`FrontEnd`]:
/// `about`, the usage line, then one block per non-empty flag table.
fn usage_text(about: &str, command: &str, sections: &[(&str, &[ParamSpec])]) -> String {
    let mut out = format!("{about}\n\nusage: xbar {command} [flags]\n");
    for (heading, specs) in sections.iter().filter(|(_, specs)| !specs.is_empty()) {
        if !heading.is_empty() {
            out.push_str(&format!("\n{heading}:\n"));
        }
        for s in *specs {
            push_flag_line(&mut out, s);
        }
    }
    out
}

/// The column flag help starts at, and the width it wraps to.
const HELP_COLUMN: usize = 25;
const HELP_WIDTH: usize = 79;

/// One flag's help entry: the flag and its value hint, then the help
/// text from [`HELP_COLUMN`] on, word-wrapped at [`HELP_WIDTH`].
fn push_flag_line(out: &mut String, s: &ParamSpec) {
    let mut help = s.help.to_owned();
    if s.kind == ParamKind::Repeated {
        help.push_str(" (repeatable)");
    }
    if !s.default.is_empty() && s.kind != ParamKind::Flag {
        help.push_str(&format!(" (default {})", s.default));
    }
    let flag = format!("--{} {}", s.name, s.kind.value_hint());
    let mut line = format!("  {:<width$} ", flag.trim_end(), width = HELP_COLUMN - 3);
    for word in help.split_whitespace() {
        if line.len() > HELP_COLUMN && line.len() + word.len() > HELP_WIDTH {
            out.push_str(line.trim_end());
            out.push('\n');
            line = " ".repeat(HELP_COLUMN);
        }
        line.push_str(word);
        line.push(' ');
    }
    out.push_str(line.trim_end());
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXTRA: &[ParamSpec] = &[
        spec("circuit", ParamKind::Str, "rd53", "registry circuit"),
        spec(
            "spare-rows",
            ParamKind::USize,
            "0",
            "spare horizontal lines",
        ),
        spec("verbose", ParamKind::Flag, "false", "print more"),
        spec("sizes", ParamKind::StrList, "8,9", "input sizes"),
        RNG_STREAM_PARAM,
    ];

    fn parse(words: &[&str]) -> Result<Params, UsageError> {
        Params::parse(EXTRA, words.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults_match_the_paper_and_specs() {
        let p = parse(&[]).expect("defaults parse");
        assert_eq!(p.campaign, Campaign::default());
        assert_eq!(p.str("circuit"), "rd53");
        assert_eq!(p.usize("spare-rows"), 0);
        assert!(!p.flag("verbose"));
        assert_eq!(p.list("sizes"), ["8", "9"]);
    }

    /// `COMMON_PARAMS` spells the campaign defaults as text and
    /// `Campaign::default()` as values; the two must agree.
    #[test]
    fn table2_defaults_are_the_default_campaign() {
        let table2 = crate::experiments::table2::TABLE2_PARAMS;
        assert_eq!(Params::defaults(table2).campaign, Campaign::default());
    }

    #[test]
    fn common_and_extra_flags_roundtrip() {
        let p = parse(&[
            "--samples",
            "50",
            "--seed",
            "9",
            "--defect-rate",
            "0.2",
            "--circuit",
            "bw",
            "--spare-rows",
            "4",
            "--verbose",
            "--sizes",
            "10,15",
            "--csv",
            "/tmp/x.csv",
        ])
        .expect("parses");
        assert_eq!((p.campaign.samples, p.campaign.seed), (50, 9));
        assert!((p.campaign.defect_rate - 0.2).abs() < 1e-12);
        assert_eq!(p.str("circuit"), "bw");
        assert_eq!(p.usize("spare-rows"), 4);
        assert!(p.flag("verbose"));
        assert_eq!(p.list("sizes"), ["10", "15"]);
        assert_eq!(p.csv.as_deref(), Some(std::path::Path::new("/tmp/x.csv")));
    }

    #[test]
    fn opt_accessors_probe_without_panicking() {
        let p = parse(&["--circuit", "bw", "--sizes", "10,15"]).expect("parses");
        assert_eq!(p.opt_str("circuit"), Some("bw"));
        assert_eq!(
            p.opt_list("sizes"),
            Some(&["10".to_owned(), "15".to_owned()][..])
        );
        // Undeclared names and kind mismatches are None, not a panic —
        // generic callers (the service batch scheduler) rely on this.
        assert_eq!(p.opt_str("circuits"), None);
        assert_eq!(p.opt_list("circuit"), None);
        assert_eq!(p.opt_str("sizes"), None);
    }

    #[test]
    fn quick_is_order_independent() {
        for words in [
            &["--quick", "--samples", "500"][..],
            &["--samples", "500", "--quick"][..],
        ] {
            assert_eq!(parse(words).expect("parses").campaign.samples, 50);
        }
        assert_eq!(parse(&["--quick"]).expect("parses").campaign.samples, 20);
        // Floor of 10 samples even for tiny campaigns.
        assert_eq!(
            parse(&["--samples", "3", "--quick"])
                .expect("parses")
                .campaign
                .samples,
            10
        );
    }

    #[test]
    fn malformed_flags_are_errors_not_panics() {
        for (words, needle) in [
            (&["--frobnicate"][..], "unknown flag"),
            (&["--samples"][..], "needs a value"),
            (&["--samples", "many"][..], "expected a number"),
            (&["--spare-rows", "-1"][..], "unsigned"),
            (&["--defect-rate", "NaN"][..], "[0, 1]"),
            (&["--defect-rate", "1.5"][..], "[0, 1]"),
            (&["--defect-rate", "-0.1"][..], "[0, 1]"),
            (&["--samples", "0"][..], "at least 1"),
            (&["positional"][..], "expected a --flag"),
            (&["--sizes", ""][..], "non-empty"),
        ] {
            let err = parse(words).expect_err("must fail");
            assert!(err.0.contains(needle), "{words:?}: {err}");
        }
    }

    #[test]
    fn help_ends_parsing_and_repeatable_flags_collect() {
        let tables: &[&[ParamSpec]] = &[
            EXTRA,
            &[spec("arg", ParamKind::Repeated, "", "an argument")],
            std::slice::from_ref(&HELP_PARAM),
        ];
        let flags = |words: &[&str]| Flags::parse(tables, words.iter().map(|s| (*s).to_owned()));
        for words in [
            &["--help", "--frobnicate"][..],
            &["-h"][..],
            &["--spare-rows", "4", "--help", "--spare-rows"][..],
        ] {
            assert!(
                flags(words).expect("help ends parsing").flag("help"),
                "{words:?}"
            );
        }
        assert!(flags(&["--frobnicate", "--help"]).is_err());
        let parsed = flags(&["--arg", "a", "--spare-rows", "1", "--arg", "b"]).expect("parses");
        assert_eq!(parsed.list("arg"), ["a", "b"]);
        assert_eq!(flags(&[]).expect("parses").list("arg"), [] as [String; 0]);
    }

    #[test]
    fn enum_params_validate_their_choices() {
        // Default: the declared literal, typed into the campaign's stream.
        let p = parse(&[]).expect("defaults parse");
        assert_eq!(p.str("rng-stream"), "v1");
        assert_eq!(p.campaign.stream, SampleStream::V1);

        let p = parse(&["--rng-stream", "v2"]).expect("parses");
        assert_eq!(p.campaign.stream, SampleStream::V2);

        let err = parse(&["--rng-stream", "v3"]).expect_err("must fail");
        assert!(err.0.contains("one of v1, v2"), "{err}");
    }

    #[test]
    fn sample_stream_defaults_to_v1_when_undeclared() {
        // Experiments that never declared RNG_STREAM_PARAM (deterministic
        // ones) still answer V1 instead of panicking.
        let p = Params::parse(&[], std::iter::empty()).expect("parses");
        assert_eq!(p.campaign.stream, SampleStream::V1);
    }

    #[test]
    fn enum_usage_hint_lists_the_choices() {
        let text = Params::usage("demo", "a demo experiment", EXTRA);
        assert!(text.contains("--rng-stream v1|v2"), "{text}");
        assert!(text.contains("(default v1)"), "{text}");
    }

    const MODELED: &[ParamSpec] = &[
        RNG_STREAM_PARAM,
        DEFECT_MODEL_PARAM,
        CLUSTER_SIZE_PARAM,
        LINE_RATE_PARAM,
    ];

    fn parse_modeled(words: &[&str]) -> Result<Params, UsageError> {
        Params::parse(MODELED, words.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defect_model_defaults_parses_and_normalizes() {
        // Default and undeclared both answer the i.i.d. model.
        let p = parse_modeled(&[]).expect("defaults parse");
        assert_eq!(p.campaign.model, DefectModelSpec::default());
        let p = Params::parse(&[], std::iter::empty()).expect("parses");
        assert_eq!(p.campaign.model, DefectModelSpec::default());

        let p =
            parse_modeled(&["--defect-model", "clustered", "--cluster-size", "6"]).expect("parses");
        let spec = p.campaign.model;
        assert_eq!(spec.kind(), DefectModelKind::Clustered);
        assert!((spec.cluster_size() - 6.0).abs() < 1e-12);

        let p =
            parse_modeled(&["--defect-model", "lines", "--line-rate", "0.125"]).expect("parses");
        let spec = p.campaign.model;
        assert_eq!(spec.kind(), DefectModelKind::Lines);
        assert!((spec.line_rate() - 0.125).abs() < 1e-12);

        // A parameter the chosen kind never consumes is normalized back to
        // its default, so campaign identity comparisons stay exact.
        let p = parse_modeled(&["--defect-model", "lines", "--cluster-size", "9"]).expect("parses");
        assert!(
            (p.campaign.model.cluster_size() - DefectModelSpec::DEFAULT_CLUSTER_SIZE).abs() < 1e-12
        );
    }

    #[test]
    fn defect_model_params_are_range_checked_at_parse_time() {
        for (words, needle) in [
            (&["--defect-model", "blobs"][..], "one of iid, clustered"),
            (&["--cluster-size", "0.5"][..], "at least 1"),
            (&["--cluster-size", "NaN"][..], "finite"),
            (&["--cluster-size", "inf"][..], "finite"),
            (&["--line-rate", "1.5"][..], "[0, 1]"),
            (&["--line-rate", "-0.1"][..], "[0, 1]"),
            (&["--line-rate", "NaN"][..], "finite"),
        ] {
            let err = parse_modeled(words).expect_err("must fail");
            assert!(err.0.contains(needle), "{words:?}: {err}");
        }
    }

    #[test]
    fn default_model_params_are_omitted_from_the_echo() {
        // The frozen-artifact contract: at their defaults the model params
        // leave no trace in the params echo, so pre-existing documents stay
        // byte-identical.
        let p = parse_modeled(&[]).expect("defaults parse");
        let text = p.to_json(MODELED).render();
        // `rng_stream` predates the freeze and is echoed unconditionally;
        // the model family must leave no trace at its defaults.
        assert!(text.contains("\"rng_stream\": \"v1\""), "{text}");
        for absent in ["defect_model", "cluster_size", "line_rate"] {
            assert!(
                !text.contains(absent),
                "default echo leaks {absent}: {text}"
            );
        }

        let p =
            parse_modeled(&["--defect-model", "clustered", "--cluster-size", "6"]).expect("parses");
        let text = p.to_json(MODELED).render();
        assert!(text.contains("\"defect_model\": \"clustered\""), "{text}");
        assert!(text.contains("\"cluster_size\": 6.0"), "{text}");
        assert!(!text.contains("line_rate"), "{text}");
    }

    #[test]
    fn params_echo_is_ordered_and_excludes_output_routing() {
        let p = parse(&["--json", "--out", "/tmp/a", "--csv", "/tmp/b.csv"]).expect("parses");
        let text = p.to_json(EXTRA).render();
        assert!(text.starts_with("{\n  \"samples\": 200,\n  \"seed\": 2018,"));
        assert!(text.contains("\"spare_rows\": 0"));
        assert!(!text.contains("csv"), "{text}");
        assert!(!text.contains("/tmp"), "{text}");
    }

    #[test]
    fn usage_lists_common_and_extra_flags() {
        let text = Params::usage("demo", "a demo experiment", EXTRA);
        for needle in [
            "--samples N",
            "--spare-rows N",
            "--sizes a,b",
            "xbar run demo",
        ] {
            assert!(text.contains(needle), "missing {needle}: {text}");
        }
    }
}
