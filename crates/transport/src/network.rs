//! The endpoint registry and delivery engine.

use crate::clock::SimClock;
use crate::faults::{FaultPlan, Injected, Injection};
use crate::obs::{NetObs, NetTimer};
use crate::trace::{DeliveryOutcome, TraceLog, TraceRecord};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wsm_soap::{Envelope, Fault};

/// A SOAP endpoint: receives a request envelope, returns `Ok(Some(_))`
/// for a response, `Ok(None)` for one-way accept (HTTP 202), or a fault.
pub trait SoapHandler: Send + Sync {
    /// Process one incoming envelope.
    fn handle(&self, request: Envelope) -> Result<Option<Envelope>, Fault>;
}

/// Whether a delivery attempt is the first try for its message or a
/// retry (in-line re-send or queued redelivery). Transport metrics
/// split send totals by this class so delivery success rates stay
/// honest under heavy redelivery traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttemptClass {
    /// The message's first delivery attempt.
    #[default]
    First,
    /// Any subsequent attempt for the same message.
    Retry,
}

/// Per-endpoint registration options.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndpointOptions {
    /// A firewalled endpoint cannot receive *inbound* traffic; it can
    /// still originate requests (the pull-delivery scenario).
    pub firewalled: bool,
}

/// A delivery error as seen by the sender.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// No endpoint at the target URI.
    NoEndpoint(String),
    /// The target refuses inbound connections.
    Refused(String),
    /// Injected loss dropped the message.
    Dropped(String),
    /// The handler answered with a SOAP fault. Boxed so the error arm
    /// doesn't inflate every `Result` on the hot send path.
    Fault(Box<Fault>),
    /// A two-way exchange got no response body.
    NoResponse(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::NoEndpoint(u) => write!(f, "no endpoint at {u}"),
            TransportError::Refused(u) => write!(f, "{u} refuses inbound connections"),
            TransportError::Dropped(u) => write!(f, "message to {u} was dropped"),
            TransportError::Fault(fault) => write!(f, "SOAP fault: {}", fault.reason),
            TransportError::NoResponse(u) => write!(f, "{u} returned no response"),
        }
    }
}

impl std::error::Error for TransportError {}

struct Endpoint {
    handler: Arc<dyn SoapHandler>,
    options: EndpointOptions,
}

struct Inner {
    endpoints: RwLock<HashMap<String, Endpoint>>,
    /// Endpoint-table generation, bumped on every register/unregister.
    /// [`EndpointSender`] caches a resolved route against this epoch so
    /// consecutive sends to one endpoint skip the registry lock.
    endpoint_epoch: AtomicU64,
    faults: Mutex<FaultPlan>,
    /// Set once any endpoint has a fault spec; until then a send skips
    /// the fault-plan lock. Stored (Release) after the plan is changed
    /// under its lock and loaded (Acquire) before a send takes it.
    faults_armed: AtomicBool,
    trace: Mutex<TraceLog>,
    clock: SimClock,
    /// Simulated per-hop latency added to the clock on every delivery.
    /// An atomic, not a mutex: every delivery reads it, and a lock
    /// here would serialize concurrent federation-link flushers on a
    /// value that changes only when a test reconfigures the network.
    latency_ms: AtomicU64,
    /// Real wall-clock delay per delivery, in microseconds. Zero (the
    /// default) keeps sends instantaneous; benches set it to model wire
    /// time that concurrent senders can overlap.
    send_delay_us: AtomicU64,
    /// Send-path metrics (no-op without the `obs` feature).
    obs: NetObs,
}

/// The simulated network. Cheap to clone; clones share all state.
#[derive(Clone)]
pub struct Network(Arc<Inner>);

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// A fresh network with its own clock and no latency.
    pub fn new() -> Self {
        Network(Arc::new(Inner {
            endpoints: RwLock::new(HashMap::new()),
            endpoint_epoch: AtomicU64::new(0),
            faults: Mutex::new(FaultPlan::default()),
            faults_armed: AtomicBool::new(false),
            trace: Mutex::new(TraceLog::default()),
            clock: SimClock::new(),
            latency_ms: AtomicU64::new(0),
            send_delay_us: AtomicU64::new(0),
            obs: NetObs::new(),
        }))
    }

    /// The network's virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.0.clock
    }

    /// Set the simulated per-hop latency (added to the clock per delivery).
    pub fn set_latency_ms(&self, ms: u64) {
        self.0.latency_ms.store(ms, Ordering::Relaxed);
    }

    /// Set a *real* wall-clock delay per delivery, in microseconds.
    ///
    /// Unlike [`set_latency_ms`](Self::set_latency_ms), which only
    /// advances the virtual clock, this makes each delivery actually
    /// take time — modeling the wire and remote-handler latency that a
    /// deployed broker pays per HTTP notification. Deliveries on
    /// different threads overlap their delays, so this is what makes
    /// parallel fan-out measurably different from sequential fan-out in
    /// the benches. Zero (the default) disables it.
    pub fn set_send_delay_us(&self, us: u64) {
        self.0.send_delay_us.store(us, Ordering::Relaxed);
    }

    /// Register a handler at `uri` with default options.
    pub fn register(&self, uri: impl Into<String>, handler: Arc<dyn SoapHandler>) {
        self.register_with(uri, handler, EndpointOptions::default());
    }

    /// Register a handler with explicit options.
    pub fn register_with(
        &self,
        uri: impl Into<String>,
        handler: Arc<dyn SoapHandler>,
        options: EndpointOptions,
    ) {
        self.0
            .endpoints
            .write()
            .insert(uri.into(), Endpoint { handler, options });
        self.0.endpoint_epoch.fetch_add(1, Ordering::Release);
    }

    /// Remove an endpoint. Returns true if one was registered.
    pub fn unregister(&self, uri: &str) -> bool {
        let removed = self.0.endpoints.write().remove(uri).is_some();
        if removed {
            self.0.endpoint_epoch.fetch_add(1, Ordering::Release);
        }
        removed
    }

    /// The current endpoint-table generation (see [`EndpointSender`]).
    pub fn endpoint_epoch(&self) -> u64 {
        self.0.endpoint_epoch.load(Ordering::Acquire)
    }

    /// A reusable route to one endpoint: consecutive sends to the same
    /// address through the returned [`EndpointSender`] resolve the
    /// handler once per endpoint-table generation instead of taking
    /// the registry read lock per message — the transport half of the
    /// fan-out engine's per-endpoint send batching.
    pub fn sender(&self, to: impl Into<String>) -> EndpointSender {
        EndpointSender {
            net: self.clone(),
            to: to.into(),
            resolved_epoch: None,
            route: None,
        }
    }

    fn lookup(&self, to: &str) -> Option<(Arc<dyn SoapHandler>, EndpointOptions)> {
        self.0
            .endpoints
            .read()
            .get(to)
            .map(|ep| (Arc::clone(&ep.handler), ep.options))
    }

    /// Is an endpoint registered at `uri`?
    pub fn has_endpoint(&self, uri: &str) -> bool {
        self.0.endpoints.read().contains_key(uri)
    }

    /// Drop the next `n` deliveries addressed to `uri`.
    pub fn drop_next(&self, uri: impl Into<String>, n: u32) {
        self.edit_faults(|plan| plan.endpoint_mut(uri).drop_next = n);
    }

    /// Answer the next `n` deliveries to `uri` with an injected SOAP
    /// fault — a *poison* response, as opposed to transient loss.
    pub fn fault_next(&self, uri: impl Into<String>, n: u32) {
        self.edit_faults(|plan| plan.endpoint_mut(uri).fault_next = n);
    }

    /// Add `n` latency spikes of `ms` extra virtual milliseconds to the
    /// upcoming deliveries addressed to `uri`.
    pub fn latency_spike_next(&self, uri: impl Into<String>, ms: u64, n: usize) {
        self.edit_faults(|plan| {
            plan.endpoint_mut(uri)
                .latency_spikes_ms
                .extend(std::iter::repeat_n(ms, n))
        });
    }

    /// Make `uri` flap: unreachable for `down_ms` out of every
    /// `period_ms` of virtual time.
    pub fn set_flapping(&self, uri: impl Into<String>, period_ms: u64, down_ms: u64) {
        self.edit_faults(|plan| {
            plan.endpoint_mut(uri).flap = Some(crate::faults::Flap {
                period_ms,
                down_ms,
                phase_ms: 0,
            })
        });
    }

    /// Install a whole [`FaultPlan`], replacing any existing faults
    /// (including pending `drop_next` budgets).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let mut faults = self.0.faults.lock();
        let armed = !plan.is_empty();
        *faults = plan;
        self.0.faults_armed.store(armed, Ordering::Release);
    }

    /// Change the fault plan through `edit`, which gives some endpoint
    /// a spec, and arm the per-send fault check.
    fn edit_faults(&self, edit: impl FnOnce(&mut FaultPlan)) {
        let mut faults = self.0.faults.lock();
        edit(&mut faults);
        self.0.faults_armed.store(true, Ordering::Release);
    }

    /// One-way send (fire-and-forget notification delivery), counted
    /// as a first attempt.
    pub fn send(&self, to: &str, envelope: Envelope) -> Result<(), TransportError> {
        self.send_class(to, envelope, AttemptClass::First)
    }

    /// One-way send with an explicit attempt class — the redelivery
    /// and in-line-retry paths use [`AttemptClass::Retry`] so send
    /// metrics attribute re-sends separately from first attempts.
    pub fn send_class(
        &self,
        to: &str,
        envelope: Envelope,
        class: AttemptClass,
    ) -> Result<(), TransportError> {
        self.deliver(to, envelope, false, class).map(|_| ())
    }

    /// Two-way request/response exchange.
    pub fn request(&self, to: &str, envelope: Envelope) -> Result<Envelope, TransportError> {
        match self.deliver(to, envelope, true, AttemptClass::First)? {
            Some(resp) => Ok(resp),
            None => Err(TransportError::NoResponse(to.to_string())),
        }
    }

    fn deliver(
        &self,
        to: &str,
        envelope: Envelope,
        two_way: bool,
        class: AttemptClass,
    ) -> Result<Option<Envelope>, TransportError> {
        self.deliver_routed(to, None, envelope, two_way, class)
    }

    /// One delivery, optionally through a pre-resolved route.
    /// `route: None` resolves the endpoint here (the uncached path);
    /// `Some(resolved)` is an [`EndpointSender`]'s epoch-validated
    /// cache, where the inner `None` means "no endpoint existed at
    /// resolution time". Fault injection, latency, and tracing are
    /// identical either way — a cached route only skips the registry
    /// lookup, never the fault plan.
    fn deliver_routed(
        &self,
        to: &str,
        route: Option<Option<&(Arc<dyn SoapHandler>, EndpointOptions)>>,
        envelope: Envelope,
        two_way: bool,
        class: AttemptClass,
    ) -> Result<Option<Envelope>, TransportError> {
        let timer = self.0.obs.start();
        // Consult the fault plan before the hop: it decides this
        // delivery's fate and any extra injected latency. A network no
        // fault was ever configured on skips the plan and its lock.
        let injected = if self.0.faults_armed.load(Ordering::Acquire) {
            self.0.faults.lock().on_delivery(to, self.0.clock.now_ms())
        } else {
            Injected::CLEAN
        };
        let latency = self.0.latency_ms.load(Ordering::Relaxed) + injected.extra_latency_ms;
        if latency > 0 {
            self.0.clock.advance_ms(latency);
        }
        let delay = self.0.send_delay_us.load(Ordering::Relaxed);
        if delay > 0 {
            std::thread::sleep(Duration::from_micros(delay));
        }
        let label = label_of(&envelope);
        // Size accounting only needs the length: an envelope from the
        // broker's renderer carries it, anything else is measured in a
        // pooled buffer.
        let bytes = envelope.xml_len();

        match injected.action {
            Injection::Deliver => {}
            Injection::Drop => {
                self.record(
                    timer,
                    to,
                    label,
                    bytes,
                    two_way,
                    class,
                    DeliveryOutcome::Dropped,
                );
                return Err(TransportError::Dropped(to.to_string()));
            }
            Injection::Fault => {
                let fault = Fault::receiver("injected fault");
                self.record(
                    timer,
                    to,
                    label,
                    bytes,
                    two_way,
                    class,
                    DeliveryOutcome::Faulted(fault.reason.clone()),
                );
                return Err(TransportError::Fault(Box::new(fault)));
            }
        }

        let resolved = match route {
            Some(cached) => cached.map(|(h, o)| (Arc::clone(h), *o)),
            None => self.lookup(to),
        };
        let (handler, options) = match resolved {
            Some(ep) => ep,
            None => {
                self.record(
                    timer,
                    to,
                    label,
                    bytes,
                    two_way,
                    class,
                    DeliveryOutcome::NoEndpoint,
                );
                return Err(TransportError::NoEndpoint(to.to_string()));
            }
        };
        if options.firewalled {
            self.record(
                timer,
                to,
                label,
                bytes,
                two_way,
                class,
                DeliveryOutcome::Refused,
            );
            return Err(TransportError::Refused(to.to_string()));
        }

        match handler.handle(envelope) {
            Ok(resp) => {
                self.record(
                    timer,
                    to,
                    label,
                    bytes,
                    two_way,
                    class,
                    DeliveryOutcome::Delivered,
                );
                Ok(resp)
            }
            Err(fault) => {
                self.record(
                    timer,
                    to,
                    label,
                    bytes,
                    two_way,
                    class,
                    DeliveryOutcome::Faulted(fault.reason.clone()),
                );
                Err(TransportError::Fault(Box::new(fault)))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        timer: NetTimer,
        to: &str,
        label: String,
        bytes: usize,
        two_way: bool,
        class: AttemptClass,
        outcome: DeliveryOutcome,
    ) {
        self.0.obs.observe(timer, &outcome, bytes, class);
        let record = TraceRecord {
            time_ms: self.0.clock.now_ms(),
            to: to.to_string(),
            label,
            bytes,
            two_way,
            outcome,
            worker: std::thread::current()
                .name()
                .unwrap_or("(unnamed)")
                .to_string(),
        };
        if self.0.trace.lock().push(record) {
            self.0.obs.trace_evicted();
        }
    }

    /// Snapshot of the delivery trace: the most recent
    /// [`TRACE_CAPACITY`](crate::trace::TRACE_CAPACITY) records, oldest
    /// first.
    pub fn trace(&self) -> Vec<TraceRecord> {
        self.0.trace.lock().records().iter().cloned().collect()
    }

    /// Take the delivery trace, leaving it empty and resetting the
    /// outcome counts — the cheap way for tests to assert exactly the
    /// records one scenario produced, including per-worker records from
    /// the parallel fan-out path.
    pub fn drain_trace(&self) -> Vec<TraceRecord> {
        self.0.trace.lock().take()
    }

    /// Clear the trace and reset the outcome counts (benches do this
    /// between runs).
    pub fn clear_trace(&self) {
        self.0.trace.lock().take();
    }

    /// Records evicted from the bounded trace since it was last drained
    /// or cleared. Zero means [`trace`](Self::trace) and
    /// [`trace_jsonl`](Self::trace_jsonl) hold every delivery attempt.
    pub fn trace_evicted(&self) -> u64 {
        self.0.trace.lock().evicted()
    }

    /// The delivery trace as JSONL, one record per line.
    ///
    /// Every field is derived from the virtual clock and message
    /// content — no wall-clock durations — so two runs of the same
    /// seeded scenario produce byte-identical documents. The chaos CI
    /// job diffs this export across back-to-back runs.
    pub fn trace_jsonl(&self) -> String {
        let trace = self.0.trace.lock();
        let mut out = String::with_capacity(trace.records().len() * 96);
        for r in trace.records() {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }

    /// Send-path metrics registry (attempt/byte/outcome counters and
    /// the `net_send_ns` latency histogram).
    #[cfg(feature = "obs")]
    pub fn metrics(&self) -> &wsm_obs::MetricsRegistry {
        self.0.obs.registry()
    }

    /// Send-path metrics as Prometheus text exposition.
    #[cfg(feature = "obs")]
    pub fn metrics_text(&self) -> String {
        wsm_obs::export::prometheus(self.0.obs.registry())
    }

    /// Count delivery attempts since the trace was last drained or
    /// cleared whose outcome satisfies `pred`.
    ///
    /// The count is exact and independent of the bounded trace ring:
    /// it comes from per-outcome counters that cover evicted records
    /// too.
    pub fn count_outcomes(&self, pred: impl Fn(&DeliveryOutcome) -> bool) -> usize {
        self.0.trace.lock().count(pred)
    }
}

/// A cached route to one endpoint, from [`Network::sender`].
///
/// Resolving an endpoint costs a registry read lock and a hash lookup
/// per send; a fan-out worker delivering a batch to the same consumer
/// pays that once per endpoint-table generation instead. The cache is
/// validated against [`Network::endpoint_epoch`] on every send, so a
/// re-registered or removed endpoint is always observed — and the
/// fault plan is still consulted per delivery, so injected loss,
/// flapping, and latency spikes behave identically through a cached
/// route.
pub struct EndpointSender {
    net: Network,
    to: String,
    resolved_epoch: Option<u64>,
    route: Option<(Arc<dyn SoapHandler>, EndpointOptions)>,
}

impl EndpointSender {
    /// The endpoint this sender routes to.
    pub fn target(&self) -> &str {
        &self.to
    }

    /// Pre-resolve the route against the current endpoint-table epoch,
    /// so a persistent link (a federation flusher holding this sender
    /// for its lifetime) pays the registry lookup at link creation
    /// instead of on its first hop.
    pub fn resolve_now(&mut self) {
        let epoch = self.net.endpoint_epoch();
        if self.resolved_epoch != Some(epoch) {
            self.route = self.net.lookup(&self.to);
            self.resolved_epoch = Some(epoch);
        }
    }

    /// One-way send through the cached route, with an explicit attempt
    /// class (see [`Network::send_class`]).
    pub fn send_class(
        &mut self,
        envelope: Envelope,
        class: AttemptClass,
    ) -> Result<(), TransportError> {
        let epoch = self.net.endpoint_epoch();
        if self.resolved_epoch != Some(epoch) {
            self.route = self.net.lookup(&self.to);
            self.resolved_epoch = Some(epoch);
        }
        self.net
            .deliver_routed(&self.to, Some(self.route.as_ref()), envelope, false, class)
            .map(|_| ())
    }

    /// One-way send through the cached route, counted as a first
    /// attempt.
    pub fn send(&mut self, envelope: Envelope) -> Result<(), TransportError> {
        self.send_class(envelope, AttemptClass::First)
    }

    /// Two-way request/response exchange through the cached route (see
    /// [`Network::request`]). The federation front keeps one sender per
    /// shard so Subscribe and subscription-management forwards skip the
    /// per-call endpoint lookup.
    pub fn request(&mut self, envelope: Envelope) -> Result<Envelope, TransportError> {
        let epoch = self.net.endpoint_epoch();
        if self.resolved_epoch != Some(epoch) {
            self.route = self.net.lookup(&self.to);
            self.resolved_epoch = Some(epoch);
        }
        match self.net.deliver_routed(
            &self.to,
            Some(self.route.as_ref()),
            envelope,
            true,
            AttemptClass::First,
        )? {
            Some(resp) => Ok(resp),
            None => Err(TransportError::NoResponse(self.to.clone())),
        }
    }
}

/// Label a message for tracing: its `wsa:Action` text in any WSA
/// version, else the first body element's local name.
fn label_of(env: &Envelope) -> String {
    for h in env.headers() {
        if h.name.local == "Action" {
            if let Some(ns) = h.name.ns.as_deref() {
                if ns.contains("addressing") {
                    return h.text().trim().to_string();
                }
            }
        }
    }
    env.body()
        .map(|b| b.name.local.to_string())
        .unwrap_or_else(|| "(empty)".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsm_soap::SoapVersion;
    use wsm_xml::Element;

    struct Echo;
    impl SoapHandler for Echo {
        fn handle(&self, request: Envelope) -> Result<Option<Envelope>, Fault> {
            Ok(Some(request))
        }
    }

    struct Sink;
    impl SoapHandler for Sink {
        fn handle(&self, _request: Envelope) -> Result<Option<Envelope>, Fault> {
            Ok(None)
        }
    }

    struct Grumpy;
    impl SoapHandler for Grumpy {
        fn handle(&self, _request: Envelope) -> Result<Option<Envelope>, Fault> {
            Err(Fault::sender("no thanks"))
        }
    }

    fn env() -> Envelope {
        Envelope::new(SoapVersion::V12).with_body(Element::local("Ping"))
    }

    #[test]
    fn request_response() {
        let net = Network::new();
        net.register("http://a", Arc::new(Echo));
        let resp = net.request("http://a", env()).unwrap();
        assert_eq!(resp.body().unwrap().name.local, "Ping");
    }

    #[test]
    fn one_way_send() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.send("http://a", env()).unwrap();
        assert_eq!(net.count_outcomes(|o| *o == DeliveryOutcome::Delivered), 1);
    }

    #[test]
    fn two_way_to_one_way_handler_is_no_response() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        assert!(matches!(
            net.request("http://a", env()),
            Err(TransportError::NoResponse(_))
        ));
    }

    #[test]
    fn missing_endpoint() {
        let net = Network::new();
        assert!(matches!(
            net.send("http://nope", env()),
            Err(TransportError::NoEndpoint(_))
        ));
        assert_eq!(net.count_outcomes(|o| *o == DeliveryOutcome::NoEndpoint), 1);
    }

    #[test]
    fn firewalled_endpoint_refuses_inbound() {
        let net = Network::new();
        net.register_with(
            "http://fw",
            Arc::new(Echo),
            EndpointOptions { firewalled: true },
        );
        assert!(matches!(
            net.send("http://fw", env()),
            Err(TransportError::Refused(_))
        ));
        // ... but the network still knows it exists.
        assert!(net.has_endpoint("http://fw"));
    }

    #[test]
    fn drop_next_injects_loss_then_recovers() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.drop_next("http://a", 2);
        assert!(matches!(
            net.send("http://a", env()),
            Err(TransportError::Dropped(_))
        ));
        assert!(matches!(
            net.send("http://a", env()),
            Err(TransportError::Dropped(_))
        ));
        assert!(net.send("http://a", env()).is_ok());
        assert_eq!(net.count_outcomes(|o| *o == DeliveryOutcome::Dropped), 2);
    }

    #[test]
    fn handler_fault_propagates() {
        let net = Network::new();
        net.register("http://g", Arc::new(Grumpy));
        match net.request("http://g", env()) {
            Err(TransportError::Fault(f)) => assert_eq!(f.reason, "no thanks"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn latency_advances_clock() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.set_latency_ms(5);
        net.send("http://a", env()).unwrap();
        net.send("http://a", env()).unwrap();
        assert_eq!(net.clock().now_ms(), 10);
        let t = net.trace();
        assert_eq!(t[0].time_ms, 5);
        assert_eq!(t[1].time_ms, 10);
    }

    #[test]
    fn send_delay_takes_real_time() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.set_send_delay_us(2_000);
        let start = std::time::Instant::now();
        net.send("http://a", env()).unwrap();
        net.send("http://a", env()).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(4));
        // Real delay leaves the virtual clock alone.
        assert_eq!(net.clock().now_ms(), 0);
        net.set_send_delay_us(0);
        let start = std::time::Instant::now();
        net.send("http://a", env()).unwrap();
        assert!(start.elapsed() < Duration::from_millis(4));
    }

    #[test]
    fn trace_labels_use_action_or_body() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.send("http://a", env()).unwrap();
        let mut with_action = env();
        with_action.add_header(
            Element::ns("http://www.w3.org/2005/08/addressing", "Action", "wsa")
                .with_text("urn:go"),
        );
        net.send("http://a", with_action).unwrap();
        let t = net.trace();
        assert_eq!(t[0].label, "Ping");
        assert_eq!(t[1].label, "urn:go");
    }

    #[test]
    fn endpoint_sender_caches_route_across_sends() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        let epoch = net.endpoint_epoch();
        let mut sender = net.sender("http://a");
        sender.send(env()).unwrap();
        sender.send(env()).unwrap();
        // No registrations happened, so the epoch (and the cached
        // route) held across both sends.
        assert_eq!(net.endpoint_epoch(), epoch);
        assert_eq!(net.count_outcomes(|o| *o == DeliveryOutcome::Delivered), 2);
    }

    #[test]
    fn endpoint_sender_observes_unregister_and_reregister() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        let mut sender = net.sender("http://a");
        sender.send(env()).unwrap();
        net.unregister("http://a");
        assert!(matches!(
            sender.send(env()),
            Err(TransportError::NoEndpoint(_))
        ));
        // A fresh registration at the same address must be picked up —
        // including one with different options.
        net.register_with(
            "http://a",
            Arc::new(Echo),
            EndpointOptions { firewalled: true },
        );
        assert!(matches!(
            sender.send(env()),
            Err(TransportError::Refused(_))
        ));
    }

    #[test]
    fn endpoint_sender_still_consults_fault_plan() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        let mut sender = net.sender("http://a");
        sender.send(env()).unwrap();
        net.drop_next("http://a", 1);
        assert!(matches!(
            sender.send(env()),
            Err(TransportError::Dropped(_))
        ));
        sender.send(env()).unwrap();
    }

    #[test]
    fn unregister_removes() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        assert!(net.unregister("http://a"));
        assert!(!net.unregister("http://a"));
        assert!(!net.has_endpoint("http://a"));
    }

    #[test]
    fn clones_share_state() {
        let net = Network::new();
        let net2 = net.clone();
        net.register("http://a", Arc::new(Sink));
        assert!(net2.has_endpoint("http://a"));
        net2.send("http://a", env()).unwrap();
        assert_eq!(net.trace().len(), 1);
    }

    #[test]
    fn clear_trace() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.send("http://a", env()).unwrap();
        net.clear_trace();
        assert!(net.trace().is_empty());
    }

    #[test]
    fn drain_trace_takes_and_empties() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.send("http://a", env()).unwrap();
        let _ = net.send("http://missing", env());
        let drained = net.drain_trace();
        assert_eq!(drained.len(), 2);
        assert!(net.trace().is_empty());
        assert!(net.drain_trace().is_empty());
        // Every record carries the delivering thread's name.
        assert!(drained.iter().all(|r| !r.worker.is_empty()));
    }

    #[test]
    fn trace_is_bounded_and_outcome_counts_stay_exact() {
        use crate::trace::TRACE_CAPACITY;
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.register("http://g", Arc::new(Grumpy));
        let _ = net.send("http://g", env());
        for _ in 0..TRACE_CAPACITY + 4 {
            net.send("http://a", env()).unwrap();
        }
        let trace = net.trace();
        assert_eq!(trace.len(), TRACE_CAPACITY);
        assert!(trace
            .iter()
            .all(|r| r.outcome == DeliveryOutcome::Delivered));
        assert_eq!(net.trace_evicted(), 5);
        // The evicted fault and deliveries are still counted.
        assert_eq!(net.count_outcomes(|_| true), TRACE_CAPACITY + 5);
        assert_eq!(
            net.count_outcomes(|o| *o == DeliveryOutcome::Faulted("no thanks".into())),
            1
        );
        assert_eq!(net.trace_jsonl().lines().count(), TRACE_CAPACITY);
        #[cfg(feature = "obs")]
        {
            let text = net.metrics_text();
            assert!(text.contains("# HELP net_trace_evicted_total "), "{text}");
            assert!(text.contains("net_trace_evicted_total 5"), "{text}");
        }
        assert_eq!(net.drain_trace().len(), TRACE_CAPACITY);
        assert_eq!(net.trace_evicted(), 0);
        assert_eq!(net.count_outcomes(|_| true), 0, "drain resets the counts");
    }

    #[test]
    fn installing_an_empty_fault_plan_clears_pending_faults() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.drop_next("http://a", 1);
        net.set_fault_plan(FaultPlan::new());
        net.send("http://a", env()).unwrap();
        net.set_fault_plan(FaultPlan::new().with_endpoint(
            "http://a",
            crate::faults::EndpointFaults::new().with_drop_next(1),
        ));
        assert!(matches!(
            net.send("http://a", env()),
            Err(TransportError::Dropped(_))
        ));
        net.send("http://a", env()).unwrap();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn send_metrics_count_attempts_and_outcomes() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.send("http://a", env()).unwrap();
        net.send("http://a", env()).unwrap();
        let _ = net.send("http://missing", env());
        net.drop_next("http://a", 1);
        let _ = net.send("http://a", env());
        net.send_class("http://a", env(), AttemptClass::Retry)
            .unwrap();
        let text = net.metrics_text();
        assert!(text.contains("net_sends_total 5"), "{text}");
        assert!(text.contains("net_sends_first_total 4"), "{text}");
        assert!(text.contains("net_sends_retry_total 1"), "{text}");
        assert!(text.contains("net_outcome_delivered_total 3"));
        assert!(text.contains("net_outcome_no_endpoint_total 1"));
        assert!(text.contains("net_outcome_dropped_total 1"));
        assert!(text.contains("net_send_ns_count 5"));
        let h = net.metrics().histogram("net_send_ns");
        assert!(h.quantile(0.5).is_some());
    }
}
