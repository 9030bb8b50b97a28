//! Observability for the PMWare reproduction.
//!
//! The paper's evaluation is entirely observational — energy per sensing
//! interface (Fig. 1), sensing-trigger counts, place-detection behaviour,
//! and cloud request overhead. This crate gives every layer of the
//! reproduction one way to report those quantities:
//!
//! * [`metrics`] — a unified registry of counters, gauges, and
//!   fixed-bucket histograms. Counters are sharded over a small array of
//!   atomics so concurrent participants never contend on one cache line;
//!   snapshots sum the shards, which makes them independent of thread
//!   interleaving.
//! * [`trace`] — a sim-time structured tracing bus: events and spans keyed
//!   by [`SimTime`](pmware_world::SimTime), grouped per actor in bounded
//!   ring buffers, exported as deterministic JSONL.
//!
//! # Zero perturbation
//!
//! Instrumentation must never change what the simulation does. The whole
//! crate is built around that constraint:
//!
//! * every handle ([`Counter`], [`Gauge`], [`Histogram`]) is an
//!   `Option<Arc<…>>`; the disabled form is a `None` and every operation
//!   on it is an inlined no-op branch,
//! * no API draws randomness, reads the wall clock, or performs I/O on
//!   the hot path,
//! * all recorded values are integers — energy is recorded in
//!   microjoules — so snapshot totals do not depend on floating-point
//!   accumulation order,
//! * snapshots and trace exports render through key-sorted maps, so the
//!   same facts always produce the same bytes.
//!
//! # Example
//!
//! ```
//! use pmware_obs::Obs;
//! use pmware_world::SimTime;
//!
//! let obs = Obs::with_trace(1024);
//! let samples = obs.counter("device_samples_total", &[("interface", "gsm")]);
//! samples.inc();
//! obs.event(SimTime::from_seconds(60), "pms.arrival", &[("place", "p1".into())]);
//!
//! let snapshot = obs.metrics_json().unwrap();
//! assert!(snapshot.contains("device_samples_total"));
//! let trace = obs.trace_jsonl().unwrap();
//! assert!(trace.contains("pms.arrival"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod span;
pub mod trace;

use std::sync::Arc;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, SloReport,
    SnapshotValue,
};
pub use span::{SpanRecord, SpanSink};
pub use trace::{FieldValue, TraceBus};

use pmware_world::SimTime;

/// A cloneable handle bundling a metrics registry, a trace bus, and the
/// actor name instrumentation is attributed to.
///
/// Components store one of these and resolve metric handles through it.
/// The [`disabled`](Obs::disabled) form carries neither registry nor bus;
/// every operation through it is a no-op, which is what makes
/// instrumentation free to leave in place.
#[derive(Clone)]
pub struct Obs {
    metrics: Option<Arc<MetricsRegistry>>,
    trace: Option<Arc<TraceBus>>,
    spans: Option<Arc<SpanSink>>,
    actor: Arc<str>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::disabled()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("metrics", &self.metrics.is_some())
            .field("trace", &self.trace.is_some())
            .field("spans", &self.spans.is_some())
            .field("actor", &self.actor)
            .finish()
    }
}

impl Obs {
    /// A fully disabled handle: no registry, no bus, every call a no-op.
    pub fn disabled() -> Obs {
        Obs {
            metrics: None,
            trace: None,
            spans: None,
            actor: Arc::from("main"),
        }
    }

    /// A handle with a fresh metrics registry and no trace bus.
    pub fn new() -> Obs {
        Obs {
            metrics: Some(Arc::new(MetricsRegistry::new())),
            trace: None,
            spans: None,
            actor: Arc::from("main"),
        }
    }

    /// A handle with a fresh registry and a trace bus bounded to
    /// `capacity` records per actor.
    pub fn with_trace(capacity: usize) -> Obs {
        Obs {
            metrics: Some(Arc::new(MetricsRegistry::new())),
            trace: Some(Arc::new(TraceBus::new(capacity))),
            spans: None,
            actor: Arc::from("main"),
        }
    }

    /// This handle with a fresh [`SpanSink`] attached: components on the
    /// request path start recording causal request spans through it.
    pub fn with_spans(mut self) -> Obs {
        self.spans = Some(Arc::new(SpanSink::new()));
        self
    }

    /// A clone of this handle attributed to `actor`. The registry, bus,
    /// and span sink are shared; only the attribution changes.
    pub fn for_actor(&self, actor: &str) -> Obs {
        Obs {
            metrics: self.metrics.clone(),
            trace: self.trace.clone(),
            spans: self.spans.clone(),
            actor: Arc::from(actor),
        }
    }

    /// This handle with the metrics registry of `fallback` substituted in
    /// when it has none of its own. Components with durable counters use
    /// this to keep a private always-on registry behind a caller-supplied
    /// handle that may be metrics-less.
    pub fn metrics_or(mut self, fallback: &Obs) -> Obs {
        if self.metrics.is_none() {
            self.metrics = fallback.metrics.clone();
        }
        self
    }

    /// The actor this handle attributes instrumentation to.
    pub fn actor(&self) -> &str {
        &self.actor
    }

    /// The shared registry, if metrics are enabled.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// The shared trace bus, if tracing is enabled.
    pub fn trace(&self) -> Option<&Arc<TraceBus>> {
        self.trace.as_ref()
    }

    /// The shared span sink, if request spans are enabled.
    pub fn spans(&self) -> Option<&Arc<SpanSink>> {
        self.spans.as_ref()
    }

    /// Whether metrics, tracing, or spans are live.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_some() || self.trace.is_some() || self.spans.is_some()
    }

    /// Resolves a counter; a no-op handle when metrics are disabled.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match &self.metrics {
            Some(r) => r.counter(name, labels),
            None => Counter::noop(),
        }
    }

    /// Resolves a gauge; a no-op handle when metrics are disabled.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match &self.metrics {
            Some(r) => r.gauge(name, labels),
            None => Gauge::noop(),
        }
    }

    /// Resolves a histogram with the given bucket upper bounds; a no-op
    /// handle when metrics are disabled.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
        match &self.metrics {
            Some(r) => r.histogram(name, labels, bounds),
            None => Histogram::noop(),
        }
    }

    /// Records a trace event for this handle's actor. No-op when tracing
    /// is disabled.
    #[inline]
    pub fn event(&self, at: SimTime, name: &str, fields: &[(&str, FieldValue)]) {
        if let Some(bus) = &self.trace {
            bus.event(&self.actor, at, name, fields);
        }
    }

    /// Records a sim-time span (an operation that began at `start` and
    /// finished at `end` in simulated time) for this handle's actor.
    #[inline]
    pub fn span(&self, start: SimTime, end: SimTime, name: &str, fields: &[(&str, FieldValue)]) {
        if let Some(bus) = &self.trace {
            bus.span(&self.actor, start, end, name, fields);
        }
    }

    /// A deterministic JSON rendering of the current metrics snapshot, or
    /// `None` when metrics are disabled. Trace-ring overflow counts are
    /// synced into the snapshot first (`obs_trace_dropped_total{actor}`),
    /// so a truncated trace is never silent.
    pub fn metrics_json(&self) -> Option<String> {
        let registry = self.metrics.as_ref()?;
        if let Some(bus) = &self.trace {
            for (actor, dropped) in bus.dropped_counts() {
                registry
                    .counter("obs_trace_dropped_total", &[("actor", &actor)])
                    .set(dropped);
            }
        }
        Some(registry.snapshot().to_json())
    }

    /// A deterministic JSONL rendering of the trace buffers, or `None`
    /// when tracing is disabled.
    pub fn trace_jsonl(&self) -> Option<String> {
        self.trace.as_ref().map(|b| b.export_jsonl())
    }

    /// A deterministic JSONL rendering of the recorded request spans, or
    /// `None` when spans are disabled.
    pub fn spans_jsonl(&self) -> Option<String> {
        self.spans.as_ref().map(|s| s.export_jsonl())
    }

    /// A Chrome-trace-format (`chrome://tracing`) rendering of the
    /// recorded request spans, or `None` when spans are disabled.
    pub fn spans_chrome(&self) -> Option<String> {
        self.spans.as_ref().map(|s| s.export_chrome())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        let c = obs.counter("x", &[]);
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        obs.event(SimTime::EPOCH, "e", &[]);
        assert!(obs.metrics_json().is_none());
        assert!(obs.trace_jsonl().is_none());
        assert!(!obs.is_enabled());
    }

    #[test]
    fn for_actor_shares_registry() {
        let obs = Obs::new();
        let a = obs.for_actor("a");
        let b = obs.for_actor("b");
        a.counter("hits", &[]).inc();
        b.counter("hits", &[]).add(2);
        // Same unlabelled counter from both actors: one cell.
        assert_eq!(obs.counter("hits", &[]).get(), 3);
        assert_eq!(a.actor(), "a");
    }

    #[test]
    fn metrics_or_substitutes_only_when_missing() {
        let private = Obs::new();
        private.counter("kept", &[]).inc();

        // Trace-only handle adopts the private registry.
        let trace_only = Obs {
            metrics: None,
            ..Obs::with_trace(16)
        };
        let merged = trace_only.metrics_or(&private);
        assert!(merged.metrics().is_some());
        assert_eq!(merged.counter("kept", &[]).get(), 1);

        // A handle with its own registry keeps it.
        let own = Obs::new().metrics_or(&private);
        assert_eq!(own.counter("kept", &[]).get(), 0);
    }

    /// Ring overflow must be visible in the metrics snapshot, not only as
    /// a trailing meta line deep in the trace JSONL.
    #[test]
    fn trace_drops_surface_in_metrics() {
        let obs = Obs::with_trace(2);
        let a = obs.for_actor("a");
        for i in 0..5 {
            a.event(SimTime::from_seconds(i), "e", &[]);
        }
        // Another actor stays under capacity and must not appear.
        obs.for_actor("quiet").event(SimTime::EPOCH, "e", &[]);
        let json = obs.metrics_json().expect("metrics live");
        assert!(
            json.contains("obs_trace_dropped_total{actor=\\\"a\\\"}"),
            "drops are silent: {json}"
        );
        assert_eq!(
            obs.metrics()
                .unwrap()
                .counter("obs_trace_dropped_total", &[("actor", "a")])
                .get(),
            3
        );
        assert!(!json.contains("obs_trace_dropped_total{actor=\\\"quiet\\\"}"));
    }

    #[test]
    fn spans_flow_through_the_handle() {
        let obs = Obs::disabled().with_spans();
        assert!(obs.is_enabled());
        let sink = obs.spans().expect("sink attached").clone();
        let trace = SpanSink::trace_id(obs.actor(), 1);
        let id = sink.alloc(trace);
        sink.record(trace, id, 0, "op:/x", 0, 42, &[]);
        let jsonl = obs.spans_jsonl().expect("spans live");
        assert!(jsonl.contains("\"name\":\"op:/x\""));
        assert!(obs.spans_chrome().unwrap().contains("\"traceEvents\""));
        // for_actor shares the sink.
        assert_eq!(obs.for_actor("b").spans().unwrap().len(), 1);
        assert!(Obs::disabled().spans_jsonl().is_none());
    }
}
