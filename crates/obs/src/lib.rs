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
//! * [`span`] — causal spans keyed by simulated time: one tree per client
//!   operation (attempts, backoffs, faults, federation work), plus one
//!   timeline trace per actor holding its point events and sim-time spans
//!   (`pms.arrival`, `pms.maintenance`, …), exported as deterministic
//!   JSONL.
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
//! * snapshots and span exports render through key-sorted maps, so the
//!   same facts always produce the same bytes.
//!
//! # Example
//!
//! ```
//! use pmware_obs::Obs;
//! use pmware_world::SimTime;
//!
//! let obs = Obs::new().with_spans();
//! let samples = obs.counter("device_samples_total", &[("interface", "gsm")]);
//! samples.inc();
//! obs.event(SimTime::from_seconds(60), "pms.arrival", &[("place", "p1".into())]);
//!
//! let snapshot = obs.metrics_json().unwrap();
//! assert!(snapshot.contains("device_samples_total"));
//! let spans = obs.spans_jsonl().unwrap();
//! assert!(spans.contains("pms.arrival"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod span;

use std::sync::Arc;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, SloReport,
    SnapshotValue,
};
pub use span::{FieldValue, SpanRecord, SpanSink};

use pmware_world::SimTime;

/// A cloneable handle bundling a metrics registry, a span sink, and the
/// actor name instrumentation is attributed to.
///
/// Components store one of these and resolve metric handles through it.
/// The [`disabled`](Obs::disabled) form carries neither registry nor sink;
/// every operation through it is a no-op, which is what makes
/// instrumentation free to leave in place.
#[derive(Clone)]
pub struct Obs {
    metrics: Option<Arc<MetricsRegistry>>,
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
            .field("spans", &self.spans.is_some())
            .field("actor", &self.actor)
            .finish()
    }
}

impl Obs {
    /// A fully disabled handle: no registry, no sink, every call a no-op.
    pub fn disabled() -> Obs {
        Obs {
            metrics: None,
            spans: None,
            actor: Arc::from("main"),
        }
    }

    /// A handle with a fresh metrics registry and no span sink.
    pub fn new() -> Obs {
        Obs {
            metrics: Some(Arc::new(MetricsRegistry::new())),
            spans: None,
            actor: Arc::from("main"),
        }
    }

    /// This handle with a fresh [`SpanSink`] attached: components on the
    /// request path start recording causal request spans through it, and
    /// [`Obs::event`] / [`Obs::span`] start recording actor timelines.
    pub fn with_spans(mut self) -> Obs {
        self.spans = Some(Arc::new(SpanSink::new()));
        self
    }

    /// A clone of this handle attributed to `actor`. The registry and
    /// span sink are shared; only the attribution changes.
    pub fn for_actor(&self, actor: &str) -> Obs {
        Obs {
            metrics: self.metrics.clone(),
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

    /// The shared span sink, if request spans are enabled.
    pub fn spans(&self) -> Option<&Arc<SpanSink>> {
        self.spans.as_ref()
    }

    /// Whether metrics or spans are live.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_some() || self.spans.is_some()
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

    /// Records a point event for this handle's actor: a zero-length root
    /// span at `at` in the actor's timeline trace. No-op when spans are
    /// disabled.
    #[inline]
    pub fn event(&self, at: SimTime, name: &str, fields: &[(&str, FieldValue)]) {
        self.span(at, at, name, fields);
    }

    /// Records a sim-time span (an operation that began at `start` and
    /// finished at `end` in simulated time) as a root span of this
    /// handle's actor timeline, `SpanSink::trace_id(actor, 0)`. Client
    /// operations number from 1, so the timeline never shares a trace
    /// with one; span ids keep the actor's recording order.
    #[inline]
    pub fn span(&self, start: SimTime, end: SimTime, name: &str, fields: &[(&str, FieldValue)]) {
        if let Some(sink) = &self.spans {
            let trace = SpanSink::trace_id(&self.actor, 0);
            let id = sink.alloc(trace);
            let us = |t: SimTime| t.as_seconds().saturating_mul(1_000_000);
            sink.record(trace, id, 0, name, us(start), us(end), fields);
        }
    }

    /// A deterministic JSON rendering of the current metrics snapshot, or
    /// `None` when metrics are disabled.
    pub fn metrics_json(&self) -> Option<String> {
        self.metrics.as_ref().map(|r| r.snapshot().to_json())
    }

    /// A deterministic JSONL rendering of the recorded spans, or `None`
    /// when spans are disabled.
    pub fn spans_jsonl(&self) -> Option<String> {
        self.spans.as_ref().map(|s| s.export_jsonl())
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
        assert!(obs.spans_jsonl().is_none());
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

        // A spans-only handle adopts the private registry.
        let merged = Obs::disabled().with_spans().metrics_or(&private);
        assert!(merged.metrics().is_some() && merged.spans().is_some());
        assert_eq!(merged.counter("kept", &[]).get(), 1);

        // A handle with its own registry keeps it.
        let own = Obs::new().metrics_or(&private);
        assert_eq!(own.counter("kept", &[]).get(), 0);
    }

    /// Events and sim-time spans are root spans of the actor's timeline
    /// trace (sequence 0), in recording order, in sim-micros.
    #[test]
    fn events_land_in_the_actor_timeline() {
        let obs = Obs::disabled().with_spans();
        let p = obs.for_actor("p0001");
        p.event(
            SimTime::from_seconds(5),
            "pms.arrival",
            &[("place", 3u64.into())],
        );
        p.span(
            SimTime::from_seconds(60),
            SimTime::from_seconds(90),
            "pms.maintenance",
            &[],
        );
        obs.for_actor("p0002")
            .event(SimTime::EPOCH, "pms.departure", &[]);
        let timeline = SpanSink::trace_id("p0001", 0);
        let spans: Vec<SpanRecord> = obs
            .spans()
            .unwrap()
            .sorted_spans()
            .into_iter()
            .filter(|s| s.trace == timeline)
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].id, spans[0].parent), (1, 0));
        assert_eq!(spans[0].name, "pms.arrival");
        assert_eq!((spans[0].start_us, spans[0].end_us), (5_000_000, 5_000_000));
        assert_eq!(spans[1].id, 2);
        assert_eq!(
            (spans[1].start_us, spans[1].end_us),
            (60_000_000, 90_000_000)
        );
        assert_eq!(obs.spans().unwrap().len(), 3);
        // Without a sink, events cost nothing and record nothing.
        Obs::new().event(SimTime::EPOCH, "e", &[]);
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
        // for_actor shares the sink.
        assert_eq!(obs.for_actor("b").spans().unwrap().len(), 1);
        assert!(Obs::disabled().spans_jsonl().is_none());
    }
}
