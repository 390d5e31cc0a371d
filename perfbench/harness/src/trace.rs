//! In-memory span recorder: every span has a name, a start and end (seconds
//! since the recorder's epoch), the span that caused it, and a workload or
//! request id. Spans are kept in memory and written out as JSONL once the
//! replay ends, so recording costs two clock reads and a push.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub req: String,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, for spans whose children start before they end
    /// on another thread (Monte Carlo workers, flights).
    pub fn alloc(&self) -> u64 {
        // A plain counter: it publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Records an interval timed by the caller under a reserved id.
    pub fn record_id(
        &self,
        id: u64,
        name: &str,
        parent: Option<u64>,
        req: &str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name: name.to_owned(),
            req: req.to_owned(),
            start: self.at(start),
            end: self.at(end),
        };
        // A poisoned lock only means another recording thread panicked; the
        // vector itself is valid after every push.
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
    }

    /// Records an interval timed by the caller and returns its id.
    pub fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        req: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.alloc();
        self.record_id(id, name, parent, req, start, end);
        id
    }

    /// Runs `f` inside a span; `f` receives the span's id for its children.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<u64>,
        req: &str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.alloc();
        let start = Instant::now();
        let out = f(id);
        self.record_id(id, name, parent, req, start, Instant::now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &str, workload: &str) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\": \"{workload}\", \"id\": {}, \"parent\": {parent}, \
                 \"name\": \"{}\", \"req\": \"{}\", \"start\": {:.9}, \"end\": {:.9}}}",
                s.id,
                s.name,
                s.req.replace('"', "'"),
                s.start,
                s.end
            );
        }
        std::fs::write(path, out)
    }

    /// Re-parents the parentless spans called `name` under `root`.
    pub fn adopt_roots(&self, name: &str, root: u64) {
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for s in spans
            .iter_mut()
            .filter(|s| s.name == name && s.parent.is_none())
        {
            s.parent = Some(root);
        }
    }

    /// The spans of `root`'s subtree, `root` included.
    pub fn subtree(&self, root: u64) -> Vec<Span> {
        let spans = self.spans();
        let parent: BTreeMap<u64, Option<u64>> = spans.iter().map(|s| (s.id, s.parent)).collect();
        let inside = |mut id: u64| loop {
            if id == root {
                return true;
            }
            match parent.get(&id).copied().flatten() {
                Some(p) => id = p,
                None => return false,
            }
        };
        spans.into_iter().filter(|s| inside(s.id)).collect()
    }

    /// Self time per layer over `root`'s subtree: each span's duration
    /// minus the part of its interval that its children cover (children
    /// may run in parallel on other threads, so their union is taken,
    /// clipped to the parent).
    pub fn layer_self_times_under(&self, root: u64) -> BTreeMap<String, f64> {
        let spans = self.subtree(root);
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let covered = children.get(&s.id).map_or(0.0, |kids| {
                let clipped: Vec<(f64, f64)> = kids
                    .iter()
                    .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                    .filter(|(a, b)| b > a)
                    .collect();
                union_len(clipped)
            });
            *out.entry(layer_of(&s.name).to_owned()).or_insert(0.0) +=
                (s.secs() - covered).max(0.0);
        }
        out
    }

    /// Wall time during which at least one span of a program layer (any
    /// layer but the harness's own `bench` spans) of `root`'s subtree was
    /// open: the part of the replay that a named layer accounts for.
    pub fn layer_union_under(&self, root: u64) -> f64 {
        union_len(
            self.subtree(root)
                .iter()
                .filter(|s| layer_of(&s.name) != "bench")
                .map(|s| (s.start, s.end))
                .collect(),
        )
    }
}

/// Σ duration and count of the spans in `spans` called `name`, optionally
/// only those with request id `req`.
pub fn total(spans: &[Span], name: &str, req: Option<&str>) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name && req.is_none_or(|r| s.req == r))
        .fold((0.0, 0), |(secs, n), s| (secs + s.secs(), n + 1))
}

/// The layer a span belongs to: `exp.<module>` for the experiment crate's
/// modules, the first name component otherwise.
pub fn layer_of(name: &str) -> &str {
    let mut parts = name.splitn(3, '.');
    let first = parts.next().unwrap_or(name);
    match (first, parts.next()) {
        ("exp", Some(module)) => &name[..first.len() + 1 + module.len()],
        _ => first,
    }
}

fn union_len(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in intervals {
        current = match current {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0.0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert!((union_len(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn layers_keep_the_exp_module() {
        assert_eq!(layer_of("exp.shard.encode"), "exp.shard");
        assert_eq!(layer_of("logic.mapping_cover"), "logic");
        assert_eq!(layer_of("bench"), "bench");
    }
}
