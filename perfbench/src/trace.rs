//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! crate's public functions; nothing inside the program is instrumented.
//! A span's layer is its name up to the first `.` (`core.pms` belongs to
//! `core`), and the layer names are the crate names. A layer's self time
//! is the summed duration of its spans minus the time their direct
//! children cover; children never overlap one another, so self times add
//! up to the root span's duration exactly.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span. `parent` is the index of the enclosing span, or
/// `None` for the root. An aggregate span (`calls > 1`, or any span
/// built by [`Tracer::aggregate`]) stands for many short calls under one
/// parent: its duration is their summed time, not a wall interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `cloud.client.places_sync`.
    pub name: Arc<str>,
    /// Participant-day or user-day key, e.g. `p0003/d05`.
    pub key: Arc<str>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Enclosing span.
    pub parent: Option<usize>,
    /// Calls the span stands for.
    pub calls: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans with a stack of open ones. Names and keys are interned,
/// so recording a span allocates nothing once its strings were seen.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    strings: HashSet<Arc<str>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            strings: HashSet::new(),
        }
    }
}

impl Tracer {
    fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(interned) = self.strings.get(s) {
            return Arc::clone(interned);
        }
        let interned: Arc<str> = Arc::from(s);
        self.strings.insert(Arc::clone(&interned));
        interned
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &str, key: &str) {
        let start_ns = self.now_ns();
        let (name, key) = (self.intern(name), self.intern(key));
        self.spans.push(Span {
            name,
            key,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            calls: 1,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let index = self.open.pop().expect("close matches an open span");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Records a finished child of the innermost open span.
    pub fn child(&mut self, name: &str, key: &str, start_ns: u64, end_ns: u64) {
        let (name, key) = (self.intern(name), self.intern(key));
        self.spans.push(Span {
            name,
            key,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            calls: 1,
        });
    }

    /// Records `calls` short calls totalling `total_ns` as one aggregate
    /// child of the innermost open span, ending now.
    pub fn aggregate(&mut self, name: &str, key: &str, calls: u64, total_ns: u64) {
        if calls == 0 {
            return;
        }
        let end_ns = self.now_ns();
        let (name, key) = (self.intern(name), self.intern(key));
        self.spans.push(Span {
            name,
            key,
            start_ns: end_ns.saturating_sub(total_ns),
            end_ns,
            parent: self.open.last().copied(),
            calls,
        });
    }

    /// Recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time per span name, in seconds.
    pub fn self_by_name(&self) -> BTreeMap<String, f64> {
        let mut self_ns: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.duration_ns()))
            .collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] -= i128::from(span.duration_ns());
            }
        }
        let mut names = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            *names.entry(span.name.to_string()).or_insert(0.0) += ns as f64 / 1e9;
        }
        names
    }

    /// Summed self time per layer, in seconds.
    pub fn layer_self_s(&self) -> BTreeMap<String, f64> {
        let mut layers = BTreeMap::new();
        for (name, s) in self.self_by_name() {
            *layers.entry(layer_of(&name).to_owned()).or_insert(0.0) += s;
        }
        layers
    }

    /// Summed duration of the root spans (those without a parent), in
    /// seconds: the traced wall time.
    pub fn wall_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// Summed duration and call count of every span whose name is `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| &*s.name == name)
            .fold((0.0, 0), |(s, c), span| {
                (s + span.duration_ns() as f64 / 1e9, c + span.calls)
            })
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"key\":\"{}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"calls\":{}}}",
                s.name,
                s.key,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.calls
            );
        }
        out
    }
}

/// The layer a span belongs to: its name up to the first `.`.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut t = Tracer::default();
        t.open("bench.run", "");
        t.open("core.pms", "p0/d1");
        t.aggregate("mobility.position", "p0/d1", 10, 1_000);
        t.child(
            "cloud.client.register",
            "p0/d1",
            t.now_ns(),
            t.now_ns() + 500,
        );
        t.close();
        t.close();
        let layers = t.layer_self_s();
        let sum: f64 = layers.values().sum();
        let (root, _) = t.total("bench.run");
        assert!((sum - root).abs() < 1e-12, "{sum} vs {root}");
        assert_eq!(t.total("mobility.position").1, 10);
        assert_eq!(t.to_jsonl().lines().count(), 4);
    }
}
