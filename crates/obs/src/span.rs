//! Causal spans: per-trace parent/child trees in sim-micros.
//!
//! Spans answer "what did *this logical operation* cost, end to end" —
//! one tree per client operation, covering every retry attempt, backoff
//! wait, and injected fault that the operation rode through — and "what
//! happened, per actor": the
//! point events and sim-time spans an actor records through
//! [`Obs::event`](crate::Obs::event) / [`Obs::span`](crate::Obs::span)
//! are root spans of that actor's timeline trace
//! (`SpanSink::trace_id(actor, 0)`). Times are **absolute simulated
//! microseconds** (`SimTime` seconds × 1 000 000), never wall time.
//!
//! # Determinism
//!
//! A trace id is an FNV-1a hash of the owning actor name and a per-actor
//! operation sequence number — a pure function of the workload, not of
//! scheduling. Span ids are allocated per trace, in call order; every
//! span of one trace is recorded from the single thread driving that
//! actor, so ids are schedule-independent too. The export walks spans
//! sorted by `(trace, id)`: same seed, same bytes, at any thread count.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use serde_json::{Number, Value};

/// A span field value: integers or short strings. No floats — field
/// rendering must be byte-stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// An unsigned integer.
    U64(u64),
    /// A string.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    fn to_value(&self) -> Value {
        match self {
            FieldValue::U64(v) => Value::Number(Number::PosInt(*v)),
            FieldValue::Str(s) => Value::String(s.clone()),
        }
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to (see [`SpanSink::trace_id`]).
    pub trace: u64,
    /// Per-trace span id, allocated by [`SpanSink::alloc`] (1-based).
    pub id: u64,
    /// Parent span id within the trace; `0` marks a root span.
    pub parent: u64,
    /// Operation name, e.g. `op:/api/v1/places/sync` or `fault:delay`.
    pub name: String,
    /// Absolute simulated start, microseconds.
    pub start_us: u64,
    /// Absolute simulated end, microseconds (`>= start_us`).
    pub end_us: u64,
    /// Structured annotations (status codes, attempt numbers, …).
    pub fields: Vec<(String, FieldValue)>,
}

#[derive(Debug, Default)]
struct TraceSpans {
    next_id: u64,
    spans: Vec<SpanRecord>,
}

/// The span collector: per-trace id allocation plus deterministic
/// exports. Shared behind an `Arc` by every component that annotates a
/// request's causal path.
#[derive(Default)]
pub struct SpanSink {
    traces: Mutex<BTreeMap<u64, TraceSpans>>,
}

impl std::fmt::Debug for SpanSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanSink")
            .field("traces", &self.traces.lock().len())
            .finish()
    }
}

impl SpanSink {
    /// An empty sink.
    pub fn new() -> SpanSink {
        SpanSink::default()
    }

    /// The deterministic trace id for operation number `seq` of `user`:
    /// FNV-1a over the user string then the sequence number. Never zero
    /// (zero is the "no trace attached" sentinel in request contexts).
    pub fn trace_id(user: &str, seq: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in user.as_bytes() {
            h = (h ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        for byte in seq.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= h >> 33;
        if h == 0 {
            1
        } else {
            h
        }
    }

    /// Allocates the next span id of `trace` (1-based). Parents allocate
    /// before their children, so a parent's id is known while its
    /// children are still running.
    pub fn alloc(&self, trace: u64) -> u64 {
        let mut traces = self.traces.lock();
        let entry = traces.entry(trace).or_default();
        entry.next_id += 1;
        entry.next_id
    }

    /// Records one finished span.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        trace: u64,
        id: u64,
        parent: u64,
        name: &str,
        start_us: u64,
        end_us: u64,
        fields: &[(&str, FieldValue)],
    ) {
        let mut traces = self.traces.lock();
        traces.entry(trace).or_default().spans.push(SpanRecord {
            trace,
            id,
            parent,
            name: name.to_string(),
            start_us,
            end_us,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Total spans recorded so far.
    pub fn len(&self) -> usize {
        self.traces.lock().values().map(|t| t.spans.len()).sum()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every span, sorted by `(trace, id)`.
    pub fn sorted_spans(&self) -> Vec<SpanRecord> {
        let traces = self.traces.lock();
        let mut out: Vec<SpanRecord> = traces
            .values()
            .flat_map(|t| t.spans.iter().cloned())
            .collect();
        out.sort_by_key(|s| (s.trace, s.id));
        out
    }

    /// Deterministic JSONL export: one key-sorted JSON object per span,
    /// spans sorted by `(trace, id)`. Same facts ⇒ same bytes.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.sorted_spans() {
            let mut obj = BTreeMap::new();
            obj.insert(
                "end_us".to_string(),
                Value::Number(Number::PosInt(span.end_us)),
            );
            let mut fields = BTreeMap::new();
            for (k, v) in &span.fields {
                fields.insert(k.clone(), v.to_value());
            }
            obj.insert("fields".to_string(), Value::Object(fields));
            obj.insert("id".to_string(), Value::Number(Number::PosInt(span.id)));
            obj.insert("name".to_string(), Value::String(span.name.clone()));
            obj.insert(
                "parent".to_string(),
                Value::Number(Number::PosInt(span.parent)),
            );
            obj.insert(
                "start_us".to_string(),
                Value::Number(Number::PosInt(span.start_us)),
            );
            obj.insert(
                "trace".to_string(),
                Value::Number(Number::PosInt(span.trace)),
            );
            out.push_str(&Value::Object(obj).to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_stable_and_distinct() {
        let a = SpanSink::trace_id("p0001", 1);
        assert_eq!(a, SpanSink::trace_id("p0001", 1), "pure function");
        assert_ne!(a, SpanSink::trace_id("p0001", 2));
        assert_ne!(a, SpanSink::trace_id("p0002", 1));
        assert_ne!(a, 0, "zero is the no-trace sentinel");
    }

    #[test]
    fn alloc_is_per_trace_and_one_based() {
        let sink = SpanSink::new();
        assert_eq!(sink.alloc(7), 1);
        assert_eq!(sink.alloc(7), 2);
        assert_eq!(sink.alloc(9), 1, "each trace allocates independently");
    }

    #[test]
    fn export_sorts_by_trace_then_id() {
        let sink = SpanSink::new();
        // Recorded out of order on purpose: children finish before roots.
        let t = 5;
        let root = sink.alloc(t);
        let child = sink.alloc(t);
        sink.record(t, child, root, "attempt", 1_000_000, 1_004_000, &[]);
        sink.record(t, root, 0, "op:/x", 1_000_000, 1_004_000, &[]);
        sink.record(
            2,
            sink.alloc(2),
            0,
            "op:/y",
            0,
            10,
            &[("status", 200u64.into())],
        );
        let jsonl = sink.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"trace\":2"), "{jsonl}");
        assert!(lines[1].contains("\"id\":1") && lines[1].contains("\"name\":\"op:/x\""));
        assert!(lines[2].contains("\"id\":2") && lines[2].contains("\"parent\":1"));
    }

    #[test]
    fn same_facts_same_bytes() {
        let build = |other_first: bool| {
            let sink = SpanSink::new();
            let records: &[(u64, &str)] = &[(3, "a"), (8, "b")];
            let order: Vec<usize> = if other_first { vec![1, 0] } else { vec![0, 1] };
            // Pre-allocate ids in fixed per-trace order, record in either.
            let ids: Vec<u64> = records.iter().map(|(t, _)| sink.alloc(*t)).collect();
            for i in order {
                let (t, name) = records[i];
                sink.record(t, ids[i], 0, name, 100, 200, &[]);
            }
            sink.export_jsonl()
        };
        assert_eq!(build(false), build(true));
    }
}
