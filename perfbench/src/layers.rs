//! The traced run's per-layer figures, all taken from outside the
//! program: spans around the benchmark's own calls into the broker and
//! inside its consumer handlers (in situ), and the workload's own
//! inputs fed to each layer's public function (isolated replay).

use crate::common::{median, us, Recv};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;
use wsm_addressing::EndpointReference;
use wsm_eventing::{Expires, Filter, SubscribeRequest, WseCodec, WseVersion};
use wsm_messenger::{
    render_notification_cached, BrokerDeliveryMode, InternalEvent, Registry, RenderCache,
    SpecDialect, UnifiedFilters, WsMessenger,
};
use wsm_notification::{
    NotificationMessage, Termination, WsnCodec, WsnFilter, WsnSubscribeRequest, WsnVersion,
};
use wsm_soap::{Envelope, Fault};
use wsm_topics::{TopicExpression, TopicPath};
use wsm_transport::{Network, SoapHandler};
use wsm_xml::Element;

/// The per-layer metrics every traced run prints, with their units.
/// A layer a workload does not exercise (the federation hop outside
/// `zipf_federated`, filter compilation where no subscription carries
/// a filter) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("broker.first_delivery_us", "us"),
    ("delivery.gap_us", "us"),
    ("delivery.tail_us", "us"),
    ("delivery.offthread_share", "ratio"),
    ("render.us_per_delivery", "us"),
    ("xml.envelope_len_us", "us"),
    ("transport.send_us", "us"),
    ("transport.trace_records_per_op", "count"),
    ("consumer.handler_us", "us"),
    ("registry.matching_us", "us"),
    ("registry.matched_per_pub", "count"),
    ("registry.insert_us", "us"),
    ("registry.remove_us", "us"),
    ("registry.sweep_us", "us"),
    ("xpath.compile_us", "us"),
    ("codec.subscribe_encode_us", "us"),
    ("codec.subscribe_parse_us", "us"),
    ("codec.notify_encode_us", "us"),
    ("federation.hop_us", "us"),
    ("federation.subscribe_forward_us", "us"),
    ("federation.route_entries", "count"),
    ("obs.overhead_pct", "%"),
    ("alloc.per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("closure.ratio", "ratio"),
    ("tracing.overhead_pct", "%"),
];

pub type Layers = BTreeMap<&'static str, f64>;

// ------------------------------------------------------------ subscriptions

/// One subscription as the workloads generate it. The reference
/// matcher is [`SubSpec::admits`]: topic equality and `@sev > k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubSpec {
    /// WS-Eventing 08/2004 (topicless) or WS-Notification 1.3.
    pub wse: bool,
    /// Concrete topic filter (WS-Notification only).
    pub topic: Option<String>,
    /// Content filter `/event[@sev > k]`.
    pub k: Option<u8>,
    /// Lease length on the virtual clock; `None` never expires.
    pub lease_ms: Option<u64>,
}

impl SubSpec {
    pub fn filter_expr(&self) -> Option<String> {
        self.k.map(|k| format!("/event[@sev > {k}]"))
    }

    pub fn admits(&self, topic: Option<&str>, sev: u8) -> bool {
        let topic_ok = match &self.topic {
            Some(t) => topic == Some(t.as_str()),
            None => true,
        };
        topic_ok && self.k.is_none_or(|k| sev > k)
    }

    pub fn wse_request(&self, consumer: &str) -> SubscribeRequest {
        let mut req = SubscribeRequest::push(EndpointReference::new(consumer));
        if let Some(x) = self.filter_expr() {
            req = req.with_filter(Filter::xpath(x));
        }
        if let Some(ms) = self.lease_ms {
            req = req.with_expires(Expires::Duration(ms));
        }
        req
    }

    pub fn wsn_request(&self, consumer: &str) -> WsnSubscribeRequest {
        let mut req = WsnSubscribeRequest::new(EndpointReference::new(consumer));
        if let Some(t) = &self.topic {
            req = req.with_filter(WsnFilter::topic(t));
        }
        if let Some(x) = self.filter_expr() {
            req = req.with_filter(WsnFilter::content(x));
        }
        if let Some(ms) = self.lease_ms {
            req = req.with_termination(Termination::Duration(ms));
        }
        req
    }

    /// The broker-side form, compiled here (outside any timed region).
    fn unified(&self) -> UnifiedFilters {
        UnifiedFilters {
            topics: self
                .topic
                .iter()
                .map(|t| TopicExpression::concrete(t).expect("generated topics are concrete"))
                .collect(),
            content: self
                .filter_expr()
                .iter()
                .map(|x| {
                    Arc::new(
                        wsm_xpath::CompiledFilter::compile(x).expect("generated filters compile"),
                    )
                })
                .collect(),
            producer_props: Vec::new(),
        }
    }
}

pub fn event(topic: Option<&str>, payload: Element, origin: SpecDialect) -> InternalEvent {
    match topic {
        Some(t) => InternalEvent::on_topic(t, payload),
        None => InternalEvent::raw(payload),
    }
    .with_origin(origin)
}

// --------------------------------------------------------------- in situ

/// A span the harness recorded around one call into the program.
pub struct OpSpan {
    pub name: &'static str,
    /// Publication or operation sequence number.
    pub trace: u32,
    pub start: Instant,
    pub end: Instant,
}

/// In-situ delivery figures from the publication spans and the consumer
/// callbacks that share their trace ids.
pub fn in_situ(layers: &mut Layers, ops: &[OpSpan], received: &[Vec<Recv>]) {
    let mut by_trace: HashMap<u32, Vec<&Recv>> = HashMap::new();
    for r in received.iter().flatten() {
        by_trace.entry(r.seq).or_default().push(r);
    }
    let (mut first, mut gaps, mut tails, mut handler) = (vec![], vec![], vec![], vec![]);
    let (mut callbacks, mut off) = (0u64, 0u64);
    for op in ops.iter().filter(|o| o.name == "publish") {
        let Some(cbs) = by_trace.get_mut(&op.trace) else {
            continue;
        };
        cbs.sort_by_key(|r| r.start);
        first.push(us(cbs[0].start.saturating_duration_since(op.start)));
        let last_end = cbs.iter().filter_map(|r| r.end).max().unwrap_or(op.end);
        tails.push(us(op.end.saturating_duration_since(last_end)));
        let mut lanes: Vec<u8> = cbs.iter().map(|r| r.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        for l in lanes {
            let lane: Vec<_> = cbs.iter().filter(|r| r.lane == l).collect();
            for w in lane.windows(2) {
                if let Some(prev_end) = w[0].end {
                    gaps.push(us(w[1].start.saturating_duration_since(prev_end)));
                }
            }
        }
        for r in cbs.iter() {
            callbacks += 1;
            off += (r.lane > 0) as u64;
            if let Some(end) = r.end {
                handler.push(us(end - r.start));
            }
        }
    }
    layers.insert("broker.first_delivery_us", median(&first));
    layers.insert("delivery.gap_us", median(&gaps));
    layers.insert("delivery.tail_us", median(&tails));
    layers.insert(
        "delivery.offthread_share",
        off as f64 / callbacks.max(1) as f64,
    );
    layers.insert("consumer.handler_us", median(&handler));
}

/// Write the traced run's spans as JSONL under `perfbench/out/`: one
/// line per span (name, trace id, parent span, start and end in ns from
/// the first span), then one summary line.
pub fn write_spans(
    workload: &str,
    ops: &[OpSpan],
    received: &[Vec<Recv>],
    summary: &[(&str, f64)],
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let Some(base) = ops.iter().map(|o| o.start).min() else {
        return Ok(path);
    };
    let ns = |t: Instant| t.saturating_duration_since(base).as_nanos();
    let mut parent_of: HashMap<u32, usize> = HashMap::new();
    for (id, op) in ops.iter().enumerate() {
        parent_of.insert(op.trace, id);
        writeln!(
            out,
            r#"{{"id":{id},"name":"{}","trace":{},"parent":null,"start_ns":{},"end_ns":{}}}"#,
            op.name,
            op.trace,
            ns(op.start),
            ns(op.end)
        )?;
    }
    let callbacks = received
        .iter()
        .enumerate()
        .flat_map(|(i, rs)| rs.iter().map(move |r| (i, r)));
    for (id, (endpoint, r)) in (ops.len()..).zip(callbacks) {
        let parent = parent_of
            .get(&r.seq)
            .map_or("null".to_string(), |p| p.to_string());
        let thread = match r.lane {
            0 => "publisher".to_string(),
            n => format!("wsm-push-{}", n - 1),
        };
        writeln!(
            out,
            r#"{{"id":{id},"name":"consumer.handle","trace":{},"parent":{parent},"start_ns":{},"end_ns":{},"endpoint":{endpoint},"thread":"{thread}"}}"#,
            r.seq,
            ns(r.start),
            ns(r.end.unwrap_or(r.start))
        )?;
    }
    let fields: Vec<String> = summary
        .iter()
        .map(|(k, v)| format!(r#""{k}":{v}"#))
        .collect();
    writeln!(out, r#"{{"summary":{{{}}}}}"#, fields.join(","))?;
    out.flush()?;
    Ok(path)
}

// ------------------------------------------------------- isolated replay

/// A consumer that discards what it is sent.
struct Discard;

impl SoapHandler for Discard {
    fn handle(&self, _request: Envelope) -> Result<Option<Envelope>, Fault> {
        Ok(None)
    }
}

pub const DISCARD_URI: &str = "http://perfbench-discard";

/// Match, render, size and send the workload's own events against the
/// live registry of the owner broker (a federation's owner shard), the way the
/// broker's publish path calls those layers. Returns the matched count
/// of each event, for the caller to compare with the reference matcher.
pub fn replay_publications(
    layers: &mut Layers,
    net: &Network,
    brokers: &[WsMessenger],
    owner: &dyn Fn(&InternalEvent) -> usize,
    events: &[InternalEvent],
) -> Vec<usize> {
    let props = Element::local("ProducerProperties");
    let now = net.clock().now_ms();
    let (mut match_ns, mut render_ns, mut len_ns, mut send_ns) = (0u128, 0u128, 0u128, 0u128);
    let mut counts = Vec::with_capacity(events.len());
    let mut rendered: Vec<Envelope> = Vec::new();
    for ev in events {
        let broker = &brokers[owner(ev)];
        let t = Instant::now();
        let subs = broker.registry().matching(ev, Some(&props), now);
        match_ns += t.elapsed().as_nanos();
        counts.push(subs.len());
        let t = Instant::now();
        let cache = RenderCache::new(ev);
        let envs: Vec<Envelope> = subs
            .iter()
            .filter(|s| s.mode == BrokerDeliveryMode::Push)
            .map(|s| render_notification_cached(&cache, s, ev, broker.uri(), broker.manager_uri()))
            .collect();
        render_ns += t.elapsed().as_nanos();
        rendered.extend(envs);
    }
    let t = Instant::now();
    let mut bytes = 0usize;
    for env in &rendered {
        bytes += env.xml_len();
    }
    len_ns += t.elapsed().as_nanos();
    std::hint::black_box(bytes);
    net.register(DISCARD_URI, Arc::new(Discard) as Arc<dyn SoapHandler>);
    let sends = rendered.len();
    let t = Instant::now();
    for env in rendered {
        net.send(DISCARD_URI, env)
            .expect("discard endpoint accepts");
    }
    send_ns += t.elapsed().as_nanos();
    let per = |ns: u128, n: usize| ns as f64 / 1e3 / n.max(1) as f64;
    layers.insert("registry.matching_us", per(match_ns, events.len()));
    layers.insert(
        "registry.matched_per_pub",
        counts.iter().sum::<usize>() as f64 / events.len().max(1) as f64,
    );
    layers.insert("render.us_per_delivery", per(render_ns, sends));
    layers.insert("xml.envelope_len_us", per(len_ns, sends));
    layers.insert("transport.send_us", per(send_ns, sends));
    counts
}

/// A registry write the workload made, in order.
pub enum RegOp {
    /// Subscribe into slot `usize` at virtual time `u64`.
    Insert(usize, SubSpec, u64),
    Remove(usize),
    /// A point where the virtual clock moved.
    Sweep(u64),
}

/// Replay the workload's subscription writes into a fresh `Registry`.
pub fn replay_registry(layers: &mut Layers, ops: &[RegOp]) {
    let registry = Registry::new();
    let compiled: Vec<Option<UnifiedFilters>> = ops
        .iter()
        .map(|op| match op {
            RegOp::Insert(_, spec, _) => Some(spec.unified()),
            _ => None,
        })
        .collect();
    let mut ids: HashMap<usize, String> = HashMap::new();
    let (mut ins, mut rem, mut swp) = ((0u128, 0usize), (0u128, 0usize), (0u128, 0usize));
    for (op, filters) in ops.iter().zip(compiled) {
        match op {
            RegOp::Insert(slot, spec, now) => {
                let spec_dialect = if spec.wse {
                    SpecDialect::Wse(WseVersion::Aug2004)
                } else {
                    SpecDialect::Wsn(WsnVersion::V1_3)
                };
                let consumer = EndpointReference::new(format!("http://replay/{slot}"));
                let filters = filters.expect("compiled above");
                let expires = spec.lease_ms.map(|l| now + l);
                let t = Instant::now();
                let id = registry.insert(
                    spec_dialect,
                    consumer,
                    None,
                    filters,
                    BrokerDeliveryMode::Push,
                    false,
                    expires,
                );
                ins.0 += t.elapsed().as_nanos();
                ins.1 += 1;
                ids.insert(*slot, id);
            }
            RegOp::Remove(slot) => {
                if let Some(id) = ids.remove(slot) {
                    let t = Instant::now();
                    std::hint::black_box(registry.remove(&id));
                    rem.0 += t.elapsed().as_nanos();
                    rem.1 += 1;
                }
            }
            RegOp::Sweep(now) => {
                let t = Instant::now();
                std::hint::black_box(registry.sweep_expired(*now));
                swp.0 += t.elapsed().as_nanos();
                swp.1 += 1;
            }
        }
    }
    let per = |(ns, n): (u128, usize)| ns as f64 / 1e3 / n.max(1) as f64;
    layers.insert("registry.insert_us", per(ins));
    layers.insert("registry.remove_us", per(rem));
    layers.insert("registry.sweep_us", per(swp));
}

/// The subscription codecs and filter compiler on the workload's own
/// requests, and the Notify encoder on its own events.
pub fn replay_codecs(
    layers: &mut Layers,
    to: &str,
    specs: &[SubSpec],
    events: &[(Option<String>, Element)],
) {
    let wse = WseCodec::new(WseVersion::Aug2004);
    let wsn = WsnCodec::new(WsnVersion::V1_3);
    let encode = |(i, s): (usize, &SubSpec)| {
        let consumer = format!("http://replay/{i}");
        if s.wse {
            wse.subscribe(to, &s.wse_request(&consumer))
        } else {
            wsn.subscribe(to, &s.wsn_request(&consumer))
        }
    };
    // An untimed first pass absorbs one-time costs the earlier replays
    // leave behind (the allocator reorganising a just-freed registry).
    std::hint::black_box(specs.iter().enumerate().map(encode).collect::<Vec<_>>());
    let t = Instant::now();
    let envs: Vec<Envelope> = specs.iter().enumerate().map(encode).collect();
    let encode_ns = t.elapsed().as_nanos();
    let t = Instant::now();
    for (s, env) in specs.iter().zip(&envs) {
        let ok = if s.wse {
            wse.parse_subscribe(env).is_ok()
        } else {
            wsn.parse_subscribe(env).is_ok()
        };
        assert!(ok, "the codecs parse their own Subscribe");
    }
    let parse_ns = t.elapsed().as_nanos();
    let exprs: Vec<String> = specs.iter().filter_map(SubSpec::filter_expr).collect();
    let t = Instant::now();
    for x in &exprs {
        std::hint::black_box(wsm_xpath::XPath::compile(x).expect("generated filters compile"));
    }
    let compile_ns = t.elapsed().as_nanos();
    let to_epr = EndpointReference::new(to);
    let t = Instant::now();
    for (topic, payload) in events {
        let msg =
            NotificationMessage::new(topic.as_deref().and_then(TopicPath::parse), payload.clone());
        std::hint::black_box(wsn.notify(&to_epr, std::slice::from_ref(&msg)));
    }
    let notify_ns = t.elapsed().as_nanos();
    let per = |ns: u128, n: usize| {
        if n == 0 {
            0.0
        } else {
            ns as f64 / 1e3 / n as f64
        }
    };
    layers.insert("codec.subscribe_encode_us", per(encode_ns, specs.len()));
    layers.insert("codec.subscribe_parse_us", per(parse_ns, specs.len()));
    layers.insert("xpath.compile_us", per(compile_ns, exprs.len()));
    layers.insert("codec.notify_encode_us", per(notify_ns, events.len()));
}

/// Time `on` and `off` variants of the same work in alternating rounds;
/// returns the relative cost of `on` over `off` in percent, from the
/// medians of the per-round times.
pub fn ab_overhead_pct(rounds: usize, mut run: impl FnMut(bool, usize)) -> f64 {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for r in 0..rounds {
        for flag in [r % 2 == 0, r % 2 != 0] {
            let t = Instant::now();
            run(flag, r);
            let d = t.elapsed().as_secs_f64();
            if flag {
                on.push(d);
            } else {
                off.push(d);
            }
        }
    }
    let (on, off) = (median(&on), median(&off));
    (on - off) / off * 100.0
}
