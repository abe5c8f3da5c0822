//! Send-path instrumentation facade.
//!
//! Compiled against `wsm-obs` when the default `obs` feature is on;
//! compiled to no-ops (zero-sized timer, empty inline methods) when it
//! is off, so the network hot path carries no instrumentation cost in
//! `--no-default-features` builds.

use crate::network::AttemptClass;
use crate::trace::DeliveryOutcome;

#[cfg(feature = "obs")]
mod imp {
    use super::{AttemptClass, DeliveryOutcome};
    use std::sync::Arc;
    use std::time::Instant;
    use wsm_obs::{Counter, Histogram, MetricsRegistry};

    /// Wall-clock handle for one delivery attempt.
    pub type NetTimer = Option<Instant>;

    /// Metrics for the network send/latency path: attempt and byte
    /// totals (split by first-attempt vs retry), per-outcome counters,
    /// and a send-latency histogram.
    pub struct NetObs {
        registry: MetricsRegistry,
        sends: Arc<Counter>,
        sends_first: Arc<Counter>,
        sends_retry: Arc<Counter>,
        bytes: Arc<Counter>,
        send_ns: Arc<Histogram>,
        delivered: Arc<Counter>,
        dropped: Arc<Counter>,
        no_endpoint: Arc<Counter>,
        refused: Arc<Counter>,
        faulted: Arc<Counter>,
        trace_evicted: Arc<Counter>,
    }

    impl Default for NetObs {
        fn default() -> Self {
            Self::new()
        }
    }

    impl NetObs {
        /// A fresh set of network metrics.
        pub fn new() -> Self {
            let registry = MetricsRegistry::new();
            registry.describe("net_sends_total", "Delivery attempts, any class.");
            registry.describe(
                "net_sends_first_total",
                "First delivery attempts (one per message per consumer).",
            );
            registry.describe(
                "net_sends_retry_total",
                "Re-send attempts: in-line retries and queued redeliveries.",
            );
            registry.describe("net_bytes_total", "Serialized envelope bytes sent.");
            registry.describe("net_send_ns", "Wall-clock send latency, nanoseconds.");
            registry.describe(
                "net_trace_evicted_total",
                "Delivery trace records evicted from the bounded trace ring \
                 (outcome counts stay exact).",
            );
            NetObs {
                sends: registry.counter("net_sends_total"),
                sends_first: registry.counter("net_sends_first_total"),
                sends_retry: registry.counter("net_sends_retry_total"),
                bytes: registry.counter("net_bytes_total"),
                send_ns: registry.histogram("net_send_ns"),
                delivered: registry.counter("net_outcome_delivered_total"),
                dropped: registry.counter("net_outcome_dropped_total"),
                no_endpoint: registry.counter("net_outcome_no_endpoint_total"),
                refused: registry.counter("net_outcome_refused_total"),
                faulted: registry.counter("net_outcome_faulted_total"),
                trace_evicted: registry.counter("net_trace_evicted_total"),
                registry,
            }
        }

        /// Start timing one delivery attempt.
        #[inline]
        pub fn start(&self) -> NetTimer {
            Some(Instant::now())
        }

        /// Record one finished delivery attempt.
        pub fn observe(
            &self,
            timer: NetTimer,
            outcome: &DeliveryOutcome,
            bytes: usize,
            class: AttemptClass,
        ) {
            let Some(t) = timer else { return };
            self.send_ns.record(t.elapsed().as_nanos() as u64);
            self.sends.inc();
            match class {
                AttemptClass::First => self.sends_first.inc(),
                AttemptClass::Retry => self.sends_retry.inc(),
            }
            self.bytes.add(bytes as u64);
            match outcome {
                DeliveryOutcome::Delivered => self.delivered.inc(),
                DeliveryOutcome::Dropped => self.dropped.inc(),
                DeliveryOutcome::NoEndpoint => self.no_endpoint.inc(),
                DeliveryOutcome::Refused => self.refused.inc(),
                DeliveryOutcome::Faulted(_) => self.faulted.inc(),
            }
        }

        /// Count one record evicted from the delivery trace.
        pub fn trace_evicted(&self) {
            self.trace_evicted.inc();
        }

        /// The underlying registry (for exporters).
        pub fn registry(&self) -> &MetricsRegistry {
            &self.registry
        }
    }
}

#[cfg(not(feature = "obs"))]
mod imp {
    use super::{AttemptClass, DeliveryOutcome};

    /// Zero-sized timer when instrumentation is compiled out.
    pub type NetTimer = ();

    /// No-op network metrics.
    #[derive(Default)]
    pub struct NetObs;

    impl NetObs {
        /// A no-op metrics set.
        pub fn new() -> Self {
            NetObs
        }

        /// No-op.
        #[inline(always)]
        pub fn start(&self) -> NetTimer {}

        /// No-op.
        #[inline(always)]
        pub fn observe(
            &self,
            _timer: NetTimer,
            _outcome: &DeliveryOutcome,
            _bytes: usize,
            _class: AttemptClass,
        ) {
        }

        /// No-op.
        #[inline(always)]
        pub fn trace_evicted(&self) {}
    }
}

pub use imp::{NetObs, NetTimer};
