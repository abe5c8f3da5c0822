//! The WS-Messenger broker itself.

use crate::backend::{InMemoryBackend, MessagingBackend};
use crate::delivery::{self, DeliveryEngine, DispatchMode, FailKind, PushJob, StatsDelta};
use crate::detect::SpecDialect;
use crate::event::InternalEvent;
use crate::obs::{BrokerObs, Stage};
use crate::registry::{BrokerDeliveryMode, BrokerSubscription, Registry, UnifiedFilters};
use crate::reliability::{
    Admitted, BreakerState, DeadLetter, FaultTolerance, PumpReport, ReliabilityState,
};
use crate::render::{render_batch, render_notification_cached, RenderCache};
use crate::stage::EventSource;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use wsm_addressing::EndpointReference;
use wsm_eventing::{EndStatus, Expires, WseCodec, WseVersion};
use wsm_notification::{Termination, WsnCodec, WsnFilter, WsnVersion};
use wsm_soap::{Envelope, Fault};
use wsm_topics::{TopicExpression, TopicSpace};
use wsm_transport::{AttemptClass, Network, SoapHandler};
use wsm_xml::{Element, SharedElement};

/// Counters describing the broker's mediation activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediationStats {
    /// Publications ingested.
    pub published: u64,
    /// Notifications delivered to WS-Eventing consumers.
    pub delivered_wse: u64,
    /// Notifications delivered to WS-Notification consumers.
    pub delivered_wsn: u64,
    /// Deliveries whose inbound dialect family differed from the
    /// consumer's — the mediated traffic.
    pub mediated: u64,
    /// Deliveries that failed for good: in legacy mode the
    /// subscription was dropped, in fault-tolerant mode the message
    /// was dead-lettered.
    pub failed: u64,
    /// Retries performed by the delivery engine and the redelivery
    /// pump.
    pub retried: u64,
    /// Successful deliveries that came off the redelivery queue.
    pub redelivered: u64,
    /// Messages moved to the dead-letter store.
    pub dead_lettered: u64,
}

/// The broker's live mediation counters: one relaxed atomic per field,
/// so `stats()` snapshots without ever blocking a publishing thread
/// (the seed kept these behind a `Mutex<MediationStats>`, which a
/// snapshot reader could contend with mid-publication).
#[derive(Debug, Default)]
struct StatsCells {
    published: AtomicU64,
    delivered_wse: AtomicU64,
    delivered_wsn: AtomicU64,
    mediated: AtomicU64,
    failed: AtomicU64,
    retried: AtomicU64,
    redelivered: AtomicU64,
    dead_lettered: AtomicU64,
}

impl StatsCells {
    fn inc_published(&self) {
        self.published.fetch_add(1, Ordering::Relaxed);
    }

    /// Merge one publication's accumulated delivery outcomes: a single
    /// pass of relaxed adds, once per publish.
    fn merge(&self, delta: &StatsDelta) {
        self.delivered_wse
            .fetch_add(delta.delivered_wse, Ordering::Relaxed);
        self.delivered_wsn
            .fetch_add(delta.delivered_wsn, Ordering::Relaxed);
        self.mediated.fetch_add(delta.mediated, Ordering::Relaxed);
        self.failed.fetch_add(delta.failed, Ordering::Relaxed);
        self.retried.fetch_add(delta.retried, Ordering::Relaxed);
        self.redelivered
            .fetch_add(delta.redelivered, Ordering::Relaxed);
        self.dead_lettered
            .fetch_add(delta.dead_lettered, Ordering::Relaxed);
    }

    fn snapshot(&self) -> MediationStats {
        MediationStats {
            published: self.published.load(Ordering::Relaxed),
            delivered_wse: self.delivered_wse.load(Ordering::Relaxed),
            delivered_wsn: self.delivered_wsn.load(Ordering::Relaxed),
            mediated: self.mediated.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            redelivered: self.redelivered.load(Ordering::Relaxed),
            dead_lettered: self.dead_lettered.load(Ordering::Relaxed),
        }
    }
}

struct MessengerInner {
    net: Network,
    uri: String,
    manager_uri: String,
    registry: Registry,
    backend: Arc<dyn MessagingBackend>,
    topic_space: Mutex<TopicSpace>,
    current: Mutex<HashMap<String, Arc<SharedElement>>>,
    properties: Mutex<Element>,
    stats: StatsCells,
    obs: BrokerObs,
    publisher_registrations: AtomicU64,
    /// Delivery attempts per notification before the subscription is
    /// dropped (the broker's "reliable" knob; 1 = no retry).
    delivery_attempts: AtomicU32,
    /// Worker threads for push fan-out; 0 or 1 delivers sequentially.
    fanout_workers: AtomicUsize,
    /// Persistent push worker pool (threads spawn lazily on the first
    /// large-enough fan-out).
    engine: DeliveryEngine,
    /// Fault-tolerant delivery state (redelivery queue, breakers,
    /// dead-letter store); `None` keeps the seed's drop-on-failure
    /// semantics.
    reliability: RwLock<Option<Arc<ReliabilityState>>>,
}

/// The dual-specification mediation broker (paper §VII).
#[derive(Clone)]
pub struct WsMessenger {
    inner: Arc<MessengerInner>,
}

impl WsMessenger {
    /// Start a broker with the default in-memory backend.
    pub fn start(net: &Network, uri: &str) -> Self {
        Self::start_with_backend(net, uri, Arc::new(InMemoryBackend::new()))
    }

    /// Start a broker over an explicit pub/sub backend (e.g.
    /// [`crate::backend::JmsBackend`] wrapping a JMS provider).
    pub fn start_with_backend(
        net: &Network,
        uri: &str,
        backend: Arc<dyn MessagingBackend>,
    ) -> Self {
        let inner = Arc::new(MessengerInner {
            net: net.clone(),
            uri: uri.to_string(),
            manager_uri: format!("{uri}/subscriptions"),
            registry: Registry::new(),
            backend,
            topic_space: Mutex::new(TopicSpace::new()),
            current: Mutex::new(HashMap::new()),
            properties: Mutex::new(Element::local("ProducerProperties")),
            stats: StatsCells::default(),
            obs: BrokerObs::new(),
            publisher_registrations: AtomicU64::new(0),
            delivery_attempts: AtomicU32::new(1),
            fanout_workers: AtomicUsize::new(delivery::default_workers()),
            engine: DeliveryEngine::new(),
            reliability: RwLock::new(None),
        });
        net.register(
            uri,
            Arc::new(MessengerHandler {
                inner: Arc::clone(&inner),
            }),
        );
        net.register(
            inner.manager_uri.clone(),
            Arc::new(ManagerHandler {
                inner: Arc::clone(&inner),
            }),
        );
        WsMessenger { inner }
    }

    /// The broker endpoint URI.
    pub fn uri(&self) -> &str {
        &self.inner.uri
    }

    /// The subscription-manager endpoint URI.
    pub fn manager_uri(&self) -> &str {
        &self.inner.manager_uri
    }

    /// Number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.inner.registry.len()
    }

    /// Direct access to the subscription registry. Million-subscriber
    /// benches seed populations here, skipping the SOAP `Subscribe`
    /// round-trip that would dominate setup at that scale.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Number of registered publishers.
    pub fn publisher_registration_count(&self) -> u64 {
        self.inner.publisher_registrations.load(Ordering::Relaxed)
    }

    /// Mediation statistics so far (a lock-free snapshot of relaxed
    /// per-field atomics; never blocks a publishing thread).
    pub fn stats(&self) -> MediationStats {
        self.inner.stats.snapshot()
    }

    /// Runtime observability kill-switch: `false` stops metric and
    /// span recording without recompiling. A no-op when the `obs`
    /// feature is compiled out.
    pub fn set_obs_enabled(&self, on: bool) {
        self.inner.obs.set_enabled(on);
    }

    /// Set how many delivery attempts each notification gets before the
    /// broker gives up on the subscription (minimum 1). The retry is
    /// immediate — the simulated network has no transient backoff — but
    /// it absorbs injected loss, which is how the tests model flaky
    /// consumers.
    pub fn set_delivery_attempts(&self, attempts: u32) {
        self.inner
            .delivery_attempts
            .store(attempts.max(1), Ordering::Relaxed);
    }

    /// Set the push fan-out worker count. `0` or `1` delivers
    /// sequentially on the publishing thread; the default is one worker
    /// per available core. Small fan-outs are delivered inline either
    /// way — the pool only spins up when a publication has enough push
    /// jobs to amortize it.
    pub fn set_fanout_workers(&self, workers: usize) {
        self.inner.fanout_workers.store(workers, Ordering::Relaxed);
    }

    /// Pin the delivery engine's dispatch policy for parallel
    /// fan-outs: [`DispatchMode::Adaptive`] (the default) measures
    /// streaming-inline vs sharded-pool cost per fan-out size and
    /// picks the cheaper; `Inline` and `Sharded` force one path —
    /// benches use this to compare the regimes, and deterministic
    /// scenarios can pin the path they were seeded against.
    pub fn set_dispatch_mode(&self, mode: DispatchMode) {
        self.inner.engine.set_mode(mode);
    }

    /// Switch fault-tolerant delivery on (`Some(config)`) or back to
    /// the seed's drop-on-failure semantics (`None`).
    ///
    /// With fault tolerance on, a failed push never evicts the
    /// subscription. The message re-enqueues with exponential backoff
    /// and deterministic seeded jitter (transient failures) until
    /// [`FaultTolerance::max_redeliveries`], a circuit breaker per
    /// subscriber sheds load from endpoints that keep failing, and
    /// messages that exhaust their budget — or provoke
    /// [`FaultTolerance::poison_budget`] SOAP-fault responses — land
    /// in the dead-letter store ([`WsMessenger::dead_letters`],
    /// queryable over SOAP via `wsm:GetDeadLetters`).
    pub fn set_fault_tolerance(&self, config: Option<FaultTolerance>) {
        *self.inner.reliability.write() = config.map(|c| Arc::new(ReliabilityState::new(c)));
    }

    /// Whether fault-tolerant delivery is active.
    pub fn fault_tolerance_enabled(&self) -> bool {
        self.inner.reliability.read().is_some()
    }

    /// Attempt every due redelivery at the current virtual time.
    /// Returns what the pass did. A no-op (empty report) when fault
    /// tolerance is off or nothing is due.
    pub fn pump_redeliveries(&self) -> PumpReport {
        pump_reliability(&self.inner)
    }

    /// Drain the redelivery queue by advancing the virtual clock to
    /// each due time within `horizon_ms` of now and pumping, until the
    /// queue is empty, every breaker holds, or the horizon passes.
    /// Returns the accumulated outcomes.
    pub fn drain_redeliveries(&self, horizon_ms: u64) -> PumpReport {
        let mut total = PumpReport::default();
        let Some(rel) = self.inner.reliability.read().clone() else {
            return total;
        };
        let deadline = self.inner.net.clock().now_ms().saturating_add(horizon_ms);
        while let Some(due) = rel.next_due_ms() {
            if due > deadline {
                break;
            }
            self.inner.net.clock().set_ms(due);
            total.absorb(pump_reliability(&self.inner));
        }
        total
    }

    /// Messages waiting in the redelivery queue.
    pub fn redelivery_depth(&self) -> usize {
        self.inner
            .reliability
            .read()
            .as_ref()
            .map_or(0, |r| r.depth())
    }

    /// Snapshot of the dead-letter store.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.inner
            .reliability
            .read()
            .as_ref()
            .map_or_else(Vec::new, |r| r.dead_letters())
    }

    /// Dead letters currently stored.
    pub fn dead_letter_count(&self) -> usize {
        self.inner
            .reliability
            .read()
            .as_ref()
            .map_or(0, |r| r.dead_count())
    }

    /// Move every dead letter back into its subscriber's redelivery
    /// channel with a fresh budget. Returns how many were requeued;
    /// drive them with [`WsMessenger::drain_redeliveries`].
    pub fn redeliver_dead_letters(&self) -> usize {
        let Some(rel) = self.inner.reliability.read().clone() else {
            return 0;
        };
        rel.redeliver_dead(self.inner.net.clock().now_ms())
    }

    /// The circuit-breaker state guarding one subscription, if fault
    /// tolerance is on and the subscriber has a redelivery channel.
    pub fn breaker_state(&self, sub_id: &str) -> Option<BreakerState> {
        let rel = self.inner.reliability.read().clone()?;
        rel.breaker_state(sub_id, self.inner.net.clock().now_ms())
    }

    /// The backend name.
    pub fn backend_name(&self) -> &'static str {
        self.inner.backend.name()
    }

    /// Prometheus-style text exposition of the broker metrics
    /// (refreshes the live-subscription gauge at scrape time).
    #[cfg(feature = "obs")]
    pub fn metrics_text(&self) -> String {
        self.inner
            .obs
            .set_subscriptions(self.inner.registry.len() as i64);
        if let Some(rel) = self.inner.reliability.read().clone() {
            refresh_reliability_gauges(&self.inner, &rel);
        }
        let mut text = self.inner.obs.prometheus();
        text.push_str(
            &self
                .inner
                .obs
                .slo_prometheus(self.inner.net.clock().now_ms()),
        );
        text
    }

    /// Snapshot of the buffered pipeline-stage spans, oldest first.
    #[cfg(feature = "obs")]
    pub fn trace_spans(&self) -> Vec<crate::obs::SpanRecord> {
        self.inner.obs.spans()
    }

    /// Take the buffered pipeline-stage spans, leaving the ring empty.
    #[cfg(feature = "obs")]
    pub fn drain_trace_spans(&self) -> Vec<crate::obs::SpanRecord> {
        self.inner.obs.drain_spans()
    }

    /// Aggregate per-stage and per-delivery latency statistics.
    #[cfg(feature = "obs")]
    pub fn obs_snapshot(&self) -> crate::obs::ObsSnapshot {
        self.inner.obs.snapshot()
    }

    /// Install declarative latency objectives on the broker's SLO
    /// engine (replacing any previous set). Objectives are judged
    /// against *terminal* end-to-end outcomes — publish to final
    /// delivery, dead-lettering, or expiry — on the virtual clock.
    #[cfg(feature = "obs")]
    pub fn set_slos(&self, specs: Vec<crate::obs::SloSpec>) {
        self.inner.obs.set_slos(specs);
    }

    /// Evaluate every installed objective as of the current virtual
    /// time: measured quantile, error-budget burn rate, pass/fail.
    #[cfg(feature = "obs")]
    pub fn slo_reports(&self) -> Vec<crate::obs::SloReport> {
        self.inner.obs.slo_reports(self.inner.net.clock().now_ms())
    }

    /// Reconstruct complete per-(event, subscriber) delivery stories
    /// from the buffered spans: every attempt in causal order plus the
    /// terminal outcome, if one was reached.
    #[cfg(feature = "obs")]
    pub fn delivery_stories(&self) -> Vec<crate::obs::DeliveryStory> {
        crate::obs::reconstruct(&self.inner.obs.spans())
    }

    /// The buffered spans plus a trailing span-loss gauge, as JSONL.
    #[cfg(feature = "obs")]
    pub fn spans_jsonl(&self) -> String {
        self.inner.obs.spans_jsonl()
    }

    /// Declare a topic.
    pub fn add_topic(&self, path: &str) {
        self.inner.topic_space.lock().add_str(path);
    }

    /// Set a broker/producer property (ProducerProperties filters).
    pub fn set_property(&self, name: &str, value: &str) {
        let mut props = self.inner.properties.lock();
        props
            .children
            .retain(|c| c.as_element().map(|e| e.name.local != name).unwrap_or(true));
        props.push(Element::local(name).with_text(value));
    }

    /// Publish an event on a topic (in-process publisher API).
    pub fn publish_on(&self, topic: &str, payload: &Element) -> usize {
        self.publish_event(InternalEvent::on_topic(topic, payload.clone()))
    }

    /// Publish a topicless event (the WS-Eventing shape).
    pub fn publish_raw(&self, payload: &Element) -> usize {
        self.publish_event(InternalEvent::raw(payload.clone()))
    }

    /// Publish a fully-specified internal event.
    pub fn publish_event(&self, event: InternalEvent) -> usize {
        ingest(&self.inner, event)
    }

    /// Ingest a batch of structured notifications — the zero-reparse
    /// federation fast path. Each message becomes an [`InternalEvent`]
    /// by moving its `Arc`s (no serialization, no parse, no payload
    /// clone), tagged with `origin` as if it had arrived over the
    /// equivalent XML `Notify` hop. Returns total per-subscriber
    /// deliveries.
    pub fn publish_shared_batch(
        &self,
        batch: Vec<wsm_notification::SharedNotificationMessage>,
        origin: SpecDialect,
    ) -> usize {
        batch
            .into_iter()
            .map(|m| self.publish_event(InternalEvent::from_shared_notification(m, origin)))
            .sum()
    }

    /// Flush wrapped-mode buffers; returns batches sent.
    pub fn flush_wrapped(&self) -> usize {
        let inner = &self.inner;
        let mut batches = 0;
        for (id, events) in inner.registry.take_wrap_buffers() {
            if let Some(sub) = inner.registry.get(&id) {
                let epr = subscription_epr(inner, &sub.id, sub.spec);
                let payloads: Vec<_> = events.iter().map(|e| e.payload.clone()).collect();
                let env = render_batch(&sub, &payloads, &inner.uri, &epr);
                if inner.net.send(&sub.consumer.address, env).is_ok() {
                    batches += 1;
                    #[cfg(feature = "obs")]
                    {
                        let now = inner.net.clock().now_ms();
                        for ev in &events {
                            inner.obs.resolve(
                                ev.seq,
                                &sub.id,
                                0,
                                ev.queued_at_ms,
                                now,
                                crate::obs::Outcome::Delivered,
                            );
                        }
                    }
                } else {
                    drop_failed(inner, &sub.id);
                }
            }
        }
        batches
    }
}

// ---------------------------------------------------------- ingestion

fn ingest(inner: &MessengerInner, event: InternalEvent) -> usize {
    let seq = inner.obs.next_seq();
    ingest_seq(inner, event, seq)
}

/// Ingest one publication under an already-minted trace sequence
/// number (the SOAP handler mints the seq when it times dialect
/// detection, so all of a request's stage spans share one trace id).
fn ingest_seq(inner: &MessengerInner, event: InternalEvent, seq: u64) -> usize {
    let timer = inner.obs.start();
    if let Some(t) = &event.topic {
        inner.topic_space.lock().add(t);
        inner
            .current
            .lock()
            .insert(t.to_string(), event.payload.clone());
    }
    inner.stats.inc_published();
    inner.obs.record_publication();
    let relayed = inner.backend.relay(event);
    inner
        .obs
        .stage(Stage::Publish, seq, timer, inner.net.clock().now_ms(), 1);
    let mut delivered = 0;
    for ev in &relayed {
        delivered += fan_out(inner, ev, seq);
    }
    // Piggyback a redelivery pass on every publication: queued
    // messages whose backoff elapsed (the sends above advanced the
    // virtual clock) go out now. A cheap no-op when nothing is due.
    if inner.reliability.read().is_some() {
        pump_reliability(inner);
    }
    delivered
}

/// The broker's streaming [`EventSource`]: renders each matched push
/// subscriber's envelope lazily as the delivery engine pulls it, so
/// rendering overlaps with delivery (the engine is already sending
/// sealed shards while later envelopes render). Per-subscriber
/// reliability gating (FIFO behind pending redeliveries) happens here
/// too: a gated job is enqueued to the redelivery channel and the
/// source moves on to the next subscriber.
struct RenderSource<'a> {
    inner: &'a MessengerInner,
    cache: &'a RenderCache,
    event: &'a InternalEvent,
    rel: Option<Arc<ReliabilityState>>,
    subs: std::vec::IntoIter<Arc<BrokerSubscription>>,
    expected: usize,
    seq: u64,
    now: u64,
    /// Jobs actually yielded (excludes reliability-gated ones).
    rendered: u64,
    /// Accumulated render time, recorded as the `render` stage span
    /// once the fan-out completes.
    #[cfg(feature = "obs")]
    render_ns: u64,
}

impl EventSource for RenderSource<'_> {
    fn next_event(&mut self) -> Option<PushJob> {
        loop {
            let sub = self.subs.next()?;
            #[cfg(feature = "obs")]
            let render_started = std::time::Instant::now();
            let envelope = render_notification_cached(
                self.cache,
                &sub,
                self.event,
                &self.inner.uri,
                &self.inner.manager_uri,
            );
            #[cfg(feature = "obs")]
            {
                self.render_ns += render_started.elapsed().as_nanos() as u64;
            }
            let job = PushJob {
                sub_id: sub.id.clone(),
                address: sub.consumer.address.clone(),
                envelope,
                wse: matches!(sub.spec, SpecDialect::Wse(_)),
                mediated: self
                    .event
                    .origin
                    .is_some_and(|o| family(o) != family(sub.spec)),
                seq: self.seq,
                published_at_ms: self.now,
                attempt: 0,
            };
            // FIFO per subscriber: while redeliveries are pending
            // (or the breaker is open) a fresh message queues
            // behind them instead of overtaking on the wire.
            if let Some(rel) = self
                .rel
                .as_ref()
                .filter(|r| r.must_enqueue(&job.sub_id, self.now))
            {
                rel.enqueue_new(job, self.now);
                continue;
            }
            self.rendered += 1;
            return Some(job);
        }
    }

    fn expected(&self) -> usize {
        self.expected
    }
}

fn fan_out(inner: &MessengerInner, event: &InternalEvent, seq: u64) -> usize {
    let now = inner.net.clock().now_ms();
    let match_timer = inner.obs.start();
    inner.registry.sweep_expired(now);
    let props = inner.properties.lock().clone();
    let subs = inner.registry.matching(event, Some(&props), now);
    inner
        .obs
        .stage(Stage::Match, seq, match_timer, now, subs.len() as u64);
    let rel = inner.reliability.read().clone();
    let mut delivered = 0;
    // Pre-pass: queue-backed modes (pull, wrapped) resolve inline;
    // push subscribers feed the streaming render source below.
    let mut push_subs: Vec<Arc<BrokerSubscription>> = Vec::with_capacity(subs.len());
    for sub in subs {
        match sub.mode {
            BrokerDeliveryMode::Push => push_subs.push(sub),
            BrokerDeliveryMode::Pull => {
                if inner
                    .registry
                    .queue_event(&sub.id, event.payload.clone(), seq, now)
                {
                    delivered += 1;
                }
            }
            BrokerDeliveryMode::Wrapped => {
                if inner
                    .registry
                    .buffer_wrapped(&sub.id, event.payload.clone(), seq, now)
                {
                    delivered += 1;
                }
            }
        }
    }
    let cache = RenderCache::new(event);
    let expected = push_subs.len();
    let workers = inner.fanout_workers.load(Ordering::Relaxed);
    let mut source = RenderSource {
        inner,
        cache: &cache,
        event,
        rel: rel.clone(),
        subs: push_subs.into_iter(),
        expected,
        seq,
        now,
        rendered: 0,
        #[cfg(feature = "obs")]
        render_ns: 0,
    };
    let deliver_timer = inner.obs.start();
    let report = inner.engine.execute_source(
        &inner.net,
        inner.delivery_attempts.load(Ordering::Relaxed),
        workers,
        &mut source,
    );
    let after_ms = inner.net.clock().now_ms();
    // Render happened inside the deliver window (the source renders
    // lazily while the engine sends); record its accumulated time
    // first so ring order stays publish → match → render → deliver,
    // then the deliver span — whose duration now *includes* the
    // overlapped rendering — and the publisher's handoff wait.
    #[cfg(feature = "obs")]
    inner
        .obs
        .stage_dur(Stage::Render, seq, source.render_ns, now, source.rendered);
    inner.obs.stage(
        Stage::Deliver,
        seq,
        deliver_timer,
        after_ms,
        report.delivered as u64,
    );
    if report.mode == "sharded" {
        inner.obs.stage_dur(
            Stage::Handoff,
            seq,
            report.join_wait_ns,
            after_ms,
            workers as u64,
        );
    }
    #[cfg(feature = "obs")]
    inner.obs.record_latencies(&report.latencies_ns);
    delivered += report.delivered;
    // Every first-round success is a terminal outcome: resolve its
    // causal timeline (and feed the e2e histogram + SLO engine) now.
    #[cfg(feature = "obs")]
    {
        let resolved_at = inner.net.clock().now_ms();
        for job in &report.resolved {
            inner.obs.resolve(
                job.seq,
                &job.sub_id,
                job.attempt,
                job.published_at_ms,
                resolved_at,
                crate::obs::Outcome::Delivered,
            );
        }
    }
    let mut delta = report.delta;
    match rel {
        Some(rel) => {
            // Fault-tolerant mode: a failed push is not "failed" yet —
            // it re-enqueues with backoff, and only dead-lettering
            // counts against the broker.
            delta.failed = 0;
            let now = inner.net.clock().now_ms();
            for (kind, job) in report.failures {
                #[cfg(feature = "obs")]
                let (jseq, jsub, jattempt, jpub) = (
                    job.seq,
                    job.sub_id.clone(),
                    job.attempt,
                    job.published_at_ms,
                );
                match rel.admit_failure(kind, job, now) {
                    Admitted::Requeued { backoff_ms, .. } => {
                        inner.obs.record_backoff(backoff_ms);
                        #[cfg(feature = "obs")]
                        inner.obs.retry(jseq, &jsub, jattempt, now, 0);
                    }
                    Admitted::DeadLettered => {
                        delta.failed += 1;
                        delta.dead_lettered += 1;
                        inner.obs.record_dead_letter();
                        #[cfg(feature = "obs")]
                        {
                            inner
                                .obs
                                .dead_letter(jseq, &jsub, jattempt.saturating_add(1), now);
                            inner.obs.resolve(
                                jseq,
                                &jsub,
                                jattempt,
                                jpub,
                                now,
                                crate::obs::Outcome::DeadLettered,
                            );
                        }
                    }
                }
            }
            refresh_reliability_gauges(inner, &rel);
        }
        None => {
            #[cfg(feature = "obs")]
            let now = inner.net.clock().now_ms();
            for (_, job) in &report.failures {
                drop_failed(inner, &job.sub_id);
                // Legacy mode evicts the subscription: the message's
                // story ends here, unresolved-by-delivery.
                #[cfg(feature = "obs")]
                inner.obs.resolve(
                    job.seq,
                    &job.sub_id,
                    job.attempt,
                    job.published_at_ms,
                    now,
                    crate::obs::Outcome::Expired,
                );
            }
        }
    }
    inner
        .obs
        .record_outcomes(report.delivered as u64, delta.failed, delta.mediated);
    inner.stats.merge(&delta);
    delivered
}

/// Attempt every due redelivery at the current virtual time, merging
/// outcomes into the broker's stats and metrics.
fn pump_reliability(inner: &MessengerInner) -> PumpReport {
    let Some(rel) = inner.reliability.read().clone() else {
        return PumpReport::default();
    };
    let now = inner.net.clock().now_ms();
    let report = rel.pump(now, &|to, env, is_retry| {
        let class = if is_retry {
            AttemptClass::Retry
        } else {
            AttemptClass::First
        };
        inner
            .net
            .send_class(to, env, class)
            .map_err(|e| FailKind::of(&e))
    });
    for b in &report.backoffs_ms {
        inner.obs.record_backoff(*b);
    }
    for _ in 0..report.dead_lettered {
        inner.obs.record_dead_letter();
    }
    #[cfg(feature = "obs")]
    for ev in &report.events {
        use crate::reliability::PumpEventKind;
        match ev.kind {
            PumpEventKind::Redelivered => inner.obs.resolve(
                ev.seq,
                &ev.sub_id,
                ev.attempt,
                ev.published_at_ms,
                ev.at_ms,
                crate::obs::Outcome::Delivered,
            ),
            PumpEventKind::Requeued { .. } => {
                inner
                    .obs
                    .retry(ev.seq, &ev.sub_id, ev.attempt, ev.at_ms, ev.dur_ns);
            }
            PumpEventKind::DeadLettered => {
                inner
                    .obs
                    .dead_letter(ev.seq, &ev.sub_id, ev.attempt.saturating_add(1), ev.at_ms);
                inner.obs.resolve(
                    ev.seq,
                    &ev.sub_id,
                    ev.attempt,
                    ev.published_at_ms,
                    ev.at_ms,
                    crate::obs::Outcome::DeadLettered,
                );
            }
        }
    }
    inner.stats.merge(&report.delta);
    refresh_reliability_gauges(inner, &rel);
    report
}

/// Push the redelivery-depth and open-breaker gauges.
fn refresh_reliability_gauges(inner: &MessengerInner, rel: &ReliabilityState) {
    inner.obs.set_redelivery_depth(rel.depth() as i64);
    let (open, _) = rel.breaker_census(inner.net.clock().now_ms());
    inner.obs.set_breakers_open(open as i64);
}

fn family(d: SpecDialect) -> u8 {
    match d {
        SpecDialect::Wse(_) => 0,
        SpecDialect::Wsn(_) => 1,
    }
}

/// Forget a removed subscription's redelivery channel (if any),
/// resolving any pending deliveries it still held as expired.
fn forget_reliability(inner: &MessengerInner, id: &str) {
    if let Some(rel) = inner.reliability.read().as_ref() {
        let dropped = rel.forget(id);
        #[cfg(feature = "obs")]
        {
            let now = inner.net.clock().now_ms();
            for p in &dropped {
                inner.obs.resolve(
                    p.seq,
                    id,
                    p.attempts + p.strikes,
                    p.published_at_ms,
                    now,
                    crate::obs::Outcome::Expired,
                );
            }
        }
        #[cfg(not(feature = "obs"))]
        drop(dropped);
    }
}

/// Remove a subscription after a delivery failure, sending the WSE
/// `SubscriptionEnd` when the subscriber asked for one.
fn drop_failed(inner: &MessengerInner, id: &str) {
    forget_reliability(inner, id);
    if let Some(sub) = inner.registry.remove(id) {
        if let (SpecDialect::Wse(v), Some(end_to)) = (sub.spec, &sub.end_to) {
            let codec = WseCodec::new(v);
            let manager = subscription_epr(inner, &sub.id, sub.spec);
            let env = codec.subscription_end(
                end_to,
                &manager,
                EndStatus::DeliveryFailure,
                Some("the broker could not deliver notifications"),
            );
            let _ = inner.net.send(&end_to.address, env);
        }
    }
}

fn subscription_epr(inner: &MessengerInner, id: &str, spec: SpecDialect) -> EndpointReference {
    let epr = EndpointReference::new(inner.manager_uri.clone());
    match spec {
        SpecDialect::Wse(v) if v.id_in_reference_parameters() => epr.with_reference(
            v.wsa(),
            Element::ns(v.ns(), "Identifier", "wse").with_text(id),
        ),
        SpecDialect::Wse(_) => epr,
        // Kept in lockstep with the cached render path, which patches
        // the same EPR shape into its SubscriptionReference prototype.
        SpecDialect::Wsn(v) => crate::render::wsn_subscription_epr(v, &inner.manager_uri, id),
    }
}

// --------------------------------------------------- subscribe paths

fn wse_subscribe(
    inner: &MessengerInner,
    v: WseVersion,
    request: &Envelope,
) -> Result<Envelope, Fault> {
    let codec = WseCodec::new(v);
    let req = codec.parse_subscribe(request)?;
    let mut filters = UnifiedFilters::default();
    if let Some(f) = &req.filter {
        if f.dialect != wsm_eventing::XPATH_DIALECT {
            return Err(
                Fault::sender("the requested filter dialect is not supported")
                    .with_subcode("wse:FilteringNotSupported"),
            );
        }
        // Compile once at Subscribe time; the Arc'd program is shared
        // by every subsequent match.
        let compiled = wsm_xpath::CompiledFilter::compile(&f.expression).map_err(|e| {
            Fault::sender(format!("invalid XPath filter: {e}"))
                .with_subcode("wse:FilteringNotSupported")
        })?;
        filters.content.push(std::sync::Arc::new(compiled));
    }
    let mode = match req.mode {
        wsm_eventing::DeliveryMode::Push => BrokerDeliveryMode::Push,
        wsm_eventing::DeliveryMode::Pull => BrokerDeliveryMode::Pull,
        wsm_eventing::DeliveryMode::Wrapped => BrokerDeliveryMode::Wrapped,
    };
    let now = inner.net.clock().now_ms();
    let expires_at = req.expires.map(|e| e.absolute(now));
    let id = inner.registry.insert(
        SpecDialect::Wse(v),
        req.notify_to,
        req.end_to,
        filters,
        mode,
        false,
        expires_at,
    );
    let handle = wsm_eventing::SubscriptionHandle {
        manager: subscription_epr(inner, &id, SpecDialect::Wse(v)),
        id,
        expires: req.expires,
        version: v,
    };
    Ok(codec.subscribe_response(&handle))
}

fn wsn_subscribe(
    inner: &MessengerInner,
    v: WsnVersion,
    request: &Envelope,
) -> Result<Envelope, Fault> {
    let codec = WsnCodec::new(v);
    let req = codec.parse_subscribe(request)?;
    let mut filters = UnifiedFilters::default();
    for f in &req.filters {
        match f {
            WsnFilter::Topic(t) => filters.topics.push(t.clone()),
            WsnFilter::ProducerProperties(x) => {
                let compiled = wsm_xpath::CompiledFilter::compile(x).map_err(|e| {
                    Fault::sender(format!("invalid ProducerProperties filter: {e}"))
                        .with_subcode("wsnt:InvalidFilterFault")
                })?;
                filters.producer_props.push(std::sync::Arc::new(compiled))
            }
            WsnFilter::MessageContent {
                dialect,
                expression,
            } => {
                if dialect != wsm_notification::XPATH_DIALECT {
                    return Err(Fault::sender("unsupported MessageContent dialect")
                        .with_subcode("wsnt:InvalidFilterFault"));
                }
                let compiled = wsm_xpath::CompiledFilter::compile(expression).map_err(|e| {
                    Fault::sender(format!("invalid MessageContent filter: {e}"))
                        .with_subcode("wsnt:InvalidFilterFault")
                })?;
                filters.content.push(std::sync::Arc::new(compiled))
            }
        }
    }
    // Seed the topic space from concrete topic filters so that
    // GetCurrentMessage and demand bookkeeping can see them.
    {
        let mut space = inner.topic_space.lock();
        for t in &filters.topics {
            if let Some(p) = wsm_topics::TopicPath::parse(t.text()) {
                space.add(&p);
            }
        }
    }
    let now = inner.net.clock().now_ms();
    let termination = req.initial_termination.map(|t| t.absolute(now));
    let id = inner.registry.insert(
        SpecDialect::Wsn(v),
        req.consumer,
        None,
        filters,
        BrokerDeliveryMode::Push,
        req.use_raw,
        termination,
    );
    Ok(codec.subscribe_response(
        &EndpointReference::new(inner.manager_uri.clone()),
        &id,
        now,
        termination,
    ))
}

// ------------------------------------------------------- main handler

struct MessengerHandler {
    inner: Arc<MessengerInner>,
}

/// Every namespace the broker processes: both spec families (all
/// versions), the three WS-Addressing versions, WSRF, and the broker's
/// own extension namespace. Shared with the federation front, which
/// speaks the same surface.
pub(crate) fn understood_namespaces() -> Vec<&'static str> {
    let mut out = vec![
        wsm_wsrf::WSRF_RL_NS,
        wsm_wsrf::WSRF_RP_NS,
        crate::render::WSM_NS,
    ];
    for d in SpecDialect::ALL {
        match d {
            SpecDialect::Wse(v) => out.push(v.ns()),
            SpecDialect::Wsn(v) => {
                out.push(v.ns());
                out.push(v.brokered_ns());
            }
        }
    }
    for w in [
        wsm_addressing::WsaVersion::V200303,
        wsm_addressing::WsaVersion::V200408,
        wsm_addressing::WsaVersion::V200508,
    ] {
        out.push(w.ns());
    }
    out
}

impl SoapHandler for MessengerHandler {
    fn handle(&self, request: Envelope) -> Result<Option<Envelope>, Fault> {
        let inner = &self.inner;
        wsm_soap::check_must_understand(&request, &understood_namespaces())?;
        let body = request.body().ok_or_else(|| Fault::sender("empty body"))?;
        // Observability operations short-circuit before dialect
        // detection: they live in the broker's own namespace and must
        // not perturb the pipeline they report on.
        #[cfg(feature = "obs")]
        if body.name.is(crate::render::WSM_NS, "GetMetrics") {
            return get_metrics(inner).map(Some);
        }
        #[cfg(feature = "obs")]
        if body.name.is(crate::render::WSM_NS, "GetTrace") {
            return get_trace(inner, body).map(Some);
        }
        #[cfg(not(feature = "obs"))]
        if body.name.is(crate::render::WSM_NS, "GetMetrics")
            || body.name.is(crate::render::WSM_NS, "GetTrace")
        {
            return Err(Fault::receiver(
                "observability is compiled out of this broker (the `obs` feature is disabled)",
            ));
        }
        // Dead-letter operations are part of the delivery contract,
        // not observability — available with or without `obs`.
        if body.name.is(crate::render::WSM_NS, "GetDeadLetters") {
            return get_dead_letters(inner).map(Some);
        }
        if body.name.is(crate::render::WSM_NS, "RedeliverDeadLetters") {
            return redeliver_dead_letters_op(inner).map(Some);
        }
        let seq = inner.obs.next_seq();
        let detect_timer = inner.obs.start();
        let dialect = SpecDialect::detect(&request);
        inner.obs.stage(
            Stage::Detect,
            seq,
            detect_timer,
            inner.net.clock().now_ms(),
            1,
        );
        match dialect {
            Some(SpecDialect::Wse(v)) => {
                if body.name.is(v.ns(), "Subscribe") {
                    return wse_subscribe(inner, v, &request).map(Some);
                }
                Err(Fault::sender(format!(
                    "unsupported WS-Eventing operation {} at the broker endpoint",
                    body.name.clark()
                )))
            }
            Some(SpecDialect::Wsn(v)) => {
                let codec = WsnCodec::new(v);
                if body.name.is(v.ns(), "Subscribe") {
                    return wsn_subscribe(inner, v, &request).map(Some);
                }
                if let Some(msgs) = codec.parse_notify(&request) {
                    // Every NotificationMessage in the batch shares the
                    // request's trace seq: one inbound Notify is one
                    // trace, however many messages it carries.
                    for m in msgs {
                        let ev = InternalEvent {
                            topic: m.topic,
                            payload: SharedElement::new(m.message),
                            producer: m.producer,
                            origin: Some(SpecDialect::Wsn(v)),
                        };
                        ingest_seq(inner, ev, seq);
                    }
                    return Ok(None);
                }
                if body.name.is(v.ns(), "GetCurrentMessage") {
                    return get_current_message(inner, v, body).map(Some);
                }
                if body.name.is(v.brokered_ns(), "RegisterPublisher") {
                    let (publisher, topics, demand) = codec.parse_register_publisher(&request)?;
                    if demand {
                        return Err(Fault::sender(
                            "WS-Messenger accepts demand-based registrations only via the \
                             wsm-notification broker; register without Demand here",
                        ));
                    }
                    let _ = publisher;
                    {
                        let mut space = inner.topic_space.lock();
                        for t in &topics {
                            if let Some(p) = wsm_topics::TopicPath::parse(t.text()) {
                                space.add(&p);
                            }
                        }
                    }
                    let n = inner
                        .publisher_registrations
                        .fetch_add(1, Ordering::Relaxed)
                        + 1;
                    let reg = EndpointReference::new(format!("{}/registrations/{n}", inner.uri));
                    return Ok(Some(codec.register_publisher_response(&reg)));
                }
                Err(Fault::sender(format!(
                    "unsupported WS-Notification operation {}",
                    body.name.clark()
                )))
            }
            None => {
                // A bare payload: treat as a raw publication.
                let ev = InternalEvent::raw(body.clone());
                ingest_seq(inner, ev, seq);
                Ok(None)
            }
        }
    }
}

/// `GetMetrics` (broker extension namespace): the Prometheus-style
/// text exposition wrapped in a SOAP response.
#[cfg(feature = "obs")]
fn get_metrics(inner: &MessengerInner) -> Result<Envelope, Fault> {
    inner.obs.set_subscriptions(inner.registry.len() as i64);
    Ok(Envelope::new(wsm_soap::SoapVersion::V11).with_body(
        Element::ns(crate::render::WSM_NS, "GetMetricsResponse", "wsm").with_child(
            Element::ns(crate::render::WSM_NS, "Exposition", "wsm")
                .with_text(inner.obs.prometheus()),
        ),
    ))
}

/// `GetTrace` (broker extension namespace): the buffered pipeline
/// spans as `Span` elements. `Drain="true"` empties the ring.
#[cfg(feature = "obs")]
fn get_trace(inner: &MessengerInner, body: &Element) -> Result<Envelope, Fault> {
    let spans = if body.attr("Drain") == Some("true") {
        inner.obs.drain_spans()
    } else {
        inner.obs.spans()
    };
    let mut resp = Element::ns(crate::render::WSM_NS, "GetTraceResponse", "wsm");
    for s in spans {
        let mut el = Element::ns(crate::render::WSM_NS, "Span", "wsm");
        el.set_attr(wsm_xml::QName::local("Seq"), s.seq.to_string());
        el.set_attr(wsm_xml::QName::local("Stage"), s.stage.name());
        el.set_attr(wsm_xml::QName::local("AtMs"), s.at_ms.to_string());
        el.set_attr(wsm_xml::QName::local("DurNs"), s.dur_ns.to_string());
        el.set_attr(wsm_xml::QName::local("Items"), s.items.to_string());
        if let Some(sub) = &s.subscriber {
            el.set_attr(wsm_xml::QName::local("Subscriber"), sub.clone());
            el.set_attr(wsm_xml::QName::local("Attempt"), s.attempt.to_string());
        }
        if let Some(o) = s.outcome {
            el.set_attr(wsm_xml::QName::local("Outcome"), o.name());
        }
        resp.push(el);
    }
    Ok(Envelope::new(wsm_soap::SoapVersion::V11).with_body(resp))
}

/// `GetDeadLetters` (broker extension namespace): every message in the
/// dead-letter store as a `wsm:DeadLetter` element carrying the
/// subscription, consumer address, reason, budget spent, virtual
/// timestamp, and the undeliverable payload itself.
fn get_dead_letters(inner: &MessengerInner) -> Result<Envelope, Fault> {
    let letters = inner
        .reliability
        .read()
        .as_ref()
        .map_or_else(Vec::new, |r| r.dead_letters());
    let mut resp = Element::ns(crate::render::WSM_NS, "GetDeadLettersResponse", "wsm");
    for dl in letters {
        let mut el = Element::ns(crate::render::WSM_NS, "DeadLetter", "wsm");
        el.set_attr(wsm_xml::QName::local("Sub"), dl.sub_id);
        el.set_attr(wsm_xml::QName::local("Address"), dl.address);
        el.set_attr(wsm_xml::QName::local("Reason"), dl.reason);
        el.set_attr(wsm_xml::QName::local("Attempts"), dl.attempts.to_string());
        el.set_attr(wsm_xml::QName::local("Strikes"), dl.strikes.to_string());
        el.set_attr(wsm_xml::QName::local("AtMs"), dl.at_ms.to_string());
        if let Some(body) = dl.envelope.body() {
            el.push(body.clone());
        }
        resp.push(el);
    }
    Ok(Envelope::new(wsm_soap::SoapVersion::V11).with_body(resp))
}

/// `RedeliverDeadLetters` (broker extension namespace): requeue every
/// dead letter with a fresh budget and report how many.
fn redeliver_dead_letters_op(inner: &MessengerInner) -> Result<Envelope, Fault> {
    let count = match inner.reliability.read().clone() {
        Some(rel) => rel.redeliver_dead(inner.net.clock().now_ms()),
        None => 0,
    };
    let mut resp = Element::ns(crate::render::WSM_NS, "RedeliverDeadLettersResponse", "wsm");
    resp.set_attr(wsm_xml::QName::local("Count"), count.to_string());
    Ok(Envelope::new(wsm_soap::SoapVersion::V11).with_body(resp))
}

fn get_current_message(
    inner: &MessengerInner,
    v: WsnVersion,
    body: &Element,
) -> Result<Envelope, Fault> {
    let codec = WsnCodec::new(v);
    let topic_el = body
        .child_ns(v.ns(), "Topic")
        .ok_or_else(|| Fault::sender("GetCurrentMessage requires a Topic"))?;
    let dialect = topic_el
        .attr("Dialect")
        .unwrap_or(wsm_topics::expression::CONCRETE_DIALECT);
    let expr = TopicExpression::compile_uri(dialect, topic_el.text().trim())
        .map_err(|e| Fault::sender(format!("invalid topic: {e}")))?;
    let space = inner.topic_space.lock();
    let current = inner.current.lock();
    let last = space
        .expand(&expr)
        .into_iter()
        .rev()
        .find_map(|t| current.get(&t.to_string()).cloned());
    match last {
        Some(m) => Ok(codec.get_current_message_response(Some(m.element()))),
        None => Err(Fault::sender("no current message on that topic")
            .with_subcode("wsnt:NoCurrentMessageOnTopicFault")),
    }
}

// ---------------------------------------------------- manager handler

struct ManagerHandler {
    inner: Arc<MessengerInner>,
}

impl SoapHandler for ManagerHandler {
    fn handle(&self, request: Envelope) -> Result<Option<Envelope>, Fault> {
        let inner = &self.inner;
        let dialect = SpecDialect::detect(&request)
            .ok_or_else(|| Fault::sender("cannot determine the specification of this request"))?;
        match dialect {
            SpecDialect::Wse(v) => wse_manage(inner, v, &request).map(Some),
            SpecDialect::Wsn(v) => wsn_manage(inner, v, &request).map(Some),
        }
    }
}

fn wse_manage(
    inner: &MessengerInner,
    v: WseVersion,
    request: &Envelope,
) -> Result<Envelope, Fault> {
    let codec = WseCodec::new(v);
    let ns = v.ns();
    let body = request.body().ok_or_else(|| Fault::sender("empty body"))?;
    let id = codec
        .extract_subscription_id(request)
        .ok_or_else(|| Fault::sender("no subscription identifier in request"))?;
    let now = inner.net.clock().now_ms();
    inner.registry.sweep_expired(now);
    let unknown = || Fault::sender(format!("unknown subscription {id}"));

    if body.name.is(ns, "Renew") {
        inner.registry.get(&id).ok_or_else(unknown)?;
        let requested = body
            .child_ns(ns, "Expires")
            .and_then(|e| Expires::parse(&e.text()));
        inner
            .registry
            .set_expiry(&id, requested.map(|e| e.absolute(now)));
        Ok(codec.management_response("Renew", requested))
    } else if body.name.is(ns, "GetStatus") {
        if !v.has_get_status() {
            return Err(Fault::sender("GetStatus is not defined in this version"));
        }
        let status = inner.registry.status(&id).ok_or_else(unknown)?;
        Ok(codec.management_response("GetStatus", status.expires_at_ms.map(Expires::At)))
    } else if body.name.is(ns, "Unsubscribe") {
        inner.registry.remove(&id).ok_or_else(unknown)?;
        forget_reliability(inner, &id);
        Ok(codec.management_response("Unsubscribe", None))
    } else if body.name.is(ns, "Pull") {
        inner.registry.get(&id).ok_or_else(unknown)?;
        let max = body
            .attr("MaxElements")
            .and_then(|m| m.parse().ok())
            .unwrap_or(usize::MAX);
        let events = inner.registry.drain_queue(&id, max);
        // Handing the events to the puller is the terminal outcome for
        // a pull subscription: resolve each one's causal timeline.
        #[cfg(feature = "obs")]
        {
            let resolved_at = inner.net.clock().now_ms();
            for ev in &events {
                inner.obs.resolve(
                    ev.seq,
                    &id,
                    0,
                    ev.queued_at_ms,
                    resolved_at,
                    crate::obs::Outcome::Delivered,
                );
            }
        }
        let payloads: Vec<_> = events.into_iter().map(|e| e.payload).collect();
        Ok(codec.pull_response_shared(&payloads))
    } else {
        Err(Fault::sender(format!(
            "unsupported operation {}",
            body.name.clark()
        )))
    }
}

fn wsn_manage(
    inner: &MessengerInner,
    v: WsnVersion,
    request: &Envelope,
) -> Result<Envelope, Fault> {
    let codec = WsnCodec::new(v);
    let ns = v.ns();
    let body = request.body().ok_or_else(|| Fault::sender("empty body"))?;
    let id = codec
        .extract_subscription_id(request)
        .ok_or_else(|| Fault::sender("no SubscriptionId in request"))?;
    let now = inner.net.clock().now_ms();
    inner.registry.sweep_expired(now);
    let unknown = || {
        Fault::sender(format!("unknown subscription {id}"))
            .with_subcode("wsnt:ResourceUnknownFault")
    };

    if body.name.is(ns, "Renew") {
        if !v.has_native_renew_unsubscribe() {
            return Err(Fault::sender("WSN 1.0 renews via WSRF SetTerminationTime"));
        }
        inner.registry.get(&id).ok_or_else(unknown)?;
        let t = body
            .child_ns(ns, "TerminationTime")
            .and_then(|e| Termination::parse(&e.text()))
            .ok_or_else(|| Fault::sender("Renew requires a TerminationTime"))?;
        inner.registry.set_expiry(&id, Some(t.absolute(now)));
        Ok(codec.management_response("Renew"))
    } else if body.name.is(ns, "Unsubscribe") {
        if !v.has_native_renew_unsubscribe() {
            return Err(Fault::sender("WSN 1.0 unsubscribes via WSRF Destroy"));
        }
        inner.registry.remove(&id).ok_or_else(unknown)?;
        forget_reliability(inner, &id);
        Ok(codec.management_response("Unsubscribe"))
    } else if body.name.is(ns, "PauseSubscription") {
        if !inner.registry.set_paused(&id, true) {
            return Err(unknown());
        }
        Ok(codec.management_response("PauseSubscription"))
    } else if body.name.is(ns, "ResumeSubscription") {
        if !inner.registry.set_paused(&id, false) {
            return Err(unknown());
        }
        Ok(codec.management_response("ResumeSubscription"))
    } else if body.name.is(wsm_wsrf::WSRF_RL_NS, "Destroy") {
        inner.registry.remove(&id).ok_or_else(unknown)?;
        forget_reliability(inner, &id);
        Ok(
            Envelope::new(wsm_soap::SoapVersion::V11).with_body(Element::ns(
                wsm_wsrf::WSRF_RL_NS,
                "DestroyResponse",
                "wsrf-rl",
            )),
        )
    } else if body.name.is(wsm_wsrf::WSRF_RL_NS, "SetTerminationTime") {
        inner.registry.get(&id).ok_or_else(unknown)?;
        let t = body
            .child_ns(wsm_wsrf::WSRF_RL_NS, "RequestedTerminationTime")
            .and_then(|e| Termination::parse(&e.text()))
            .ok_or_else(|| Fault::sender("missing RequestedTerminationTime"))?;
        let abs = t.absolute(now);
        inner.registry.set_expiry(&id, Some(abs));
        Ok(Envelope::new(wsm_soap::SoapVersion::V11).with_body(
            Element::ns(
                wsm_wsrf::WSRF_RL_NS,
                "SetTerminationTimeResponse",
                "wsrf-rl",
            )
            .with_child(
                Element::ns(wsm_wsrf::WSRF_RL_NS, "NewTerminationTime", "wsrf-rl")
                    .with_text(wsm_xml::xsd::format_datetime(abs)),
            ),
        ))
    } else if body.name.is(wsm_wsrf::WSRF_RP_NS, "GetResourceProperty") {
        let sub = inner.registry.get(&id).ok_or_else(unknown)?;
        let status = inner.registry.status(&id).ok_or_else(unknown)?;
        let wanted = body.text();
        let local = wanted.trim().rsplit(':').next().unwrap_or("");
        let mut resp = Element::ns(
            wsm_wsrf::WSRF_RP_NS,
            "GetResourcePropertyResponse",
            "wsrf-rp",
        );
        match local {
            "Paused" => {
                resp.push(Element::ns(ns, "Paused", "wsnt").with_text(status.paused.to_string()))
            }
            "TerminationTime" => {
                if let Some(t) = status.expires_at_ms {
                    resp.push(
                        Element::ns(ns, "TerminationTime", "wsnt")
                            .with_text(wsm_xml::xsd::format_datetime(t)),
                    );
                }
            }
            "ConsumerReference" => resp.push(
                Element::ns(ns, "ConsumerReference", "wsnt")
                    .with_text(sub.consumer.address.clone()),
            ),
            _ => {}
        }
        Ok(Envelope::new(wsm_soap::SoapVersion::V11).with_body(resp))
    } else {
        Err(Fault::sender(format!(
            "unsupported operation {}",
            body.name.clark()
        )))
    }
}
