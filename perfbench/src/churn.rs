//! `subscription_churn`: one broker with a standing population of 256
//! and a churning set of up to 128 subscriptions. A single client
//! cycles through WS-Eventing Subscribe (XPath filter), WS-Notification
//! Subscribe (topic plus content filter), Renew, GetStatus and
//! Unsubscribe; about one operation in six is a publication to the
//! population, and every 64 operations the virtual clock jumps so short
//! leases lapse. The same registry as `zipf_federated`, but written
//! rather than read: insert, remove, the expiry heap, the SOAP codecs
//! and filter compilation.

use crate::common::{
    build, conclude, drive, median, payload, start_consumers, teardown, Consumer, Deck, Rng,
    LONG_LEASE_MS, MAX_SEV,
};
use crate::layers::{self, event, Layers, RegOp, SubSpec};
use crate::{Judged, Mode, Report, Run};
use std::sync::Arc;
use wsm_eventing::{Expires, Subscriber, SubscriptionHandle, WseVersion};
use wsm_messenger::{SpecDialect, WsMessenger};
use wsm_notification::{Termination, WsnClient, WsnSubscriptionHandle, WsnVersion};
use wsm_transport::Network;

const BROKER: &str = "http://broker";
const CONSUMER: &str = "http://cc/";
const STANDING_WSE: usize = 32;
const STANDING_WSN: usize = 224;
const STANDING: usize = STANDING_WSE + STANDING_WSN;
const SLOTS: usize = 128;
const TOPICS: u64 = 32;
/// Operations between clock jumps.
const JUMP_EVERY: usize = 64;
const JUMP_MS: u64 = 100_000;
/// A short lease lapses at the first jump after it was granted; a long
/// one outlives any run.
const SHORT_LEASE_MS: u64 = 50_000;
const SETUPS: usize = 50;
/// Operations per second of `--seconds` (a fixed count, see
/// `fanout::OPS_PER_SECOND`).
pub const OPS_PER_SECOND: usize = 11_000;

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Publish { topic: u8, sev: u8 },
    Subscribe { slot: usize, spec: SubSpec },
    Renew { slot: usize, lease_ms: u64 },
    GetStatus { slot: usize },
    Unsubscribe { slot: usize },
}

/// One client step; `advance` moves the virtual clock first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    pub advance: bool,
    pub op: Op,
}

#[derive(Debug, PartialEq, Eq)]
pub struct Plan {
    pub standing: Vec<SubSpec>,
    pub steps: Vec<Step>,
    /// The reference model's deliveries per endpoint (standing
    /// population first, then the churn slots), in publication order.
    pub expected: Vec<Vec<u32>>,
    pub warmup: usize,
}

fn topic_name(t: u64) -> String {
    format!("c{t}")
}

fn lease(rng: &mut Rng) -> u64 {
    if rng.below(3) == 0 {
        SHORT_LEASE_MS
    } else {
        LONG_LEASE_MS
    }
}

/// Generate the operation stream and, by running the reference model
/// alongside it, the deliveries the broker owes each endpoint.
pub fn plan(seed: u64, n_ops: usize) -> Plan {
    let mut rng = Rng::new(seed, 3);
    // The standing population is the same for every seed (thresholds
    // and topics cycle), so the seed moves the operation stream rather
    // than how many subscribers each publication reaches on average.
    let standing: Vec<SubSpec> = (0..STANDING)
        .map(|i| {
            if i < STANDING_WSE {
                SubSpec {
                    wse: true,
                    topic: None,
                    k: Some(3 + (i % 4) as u8),
                    lease_ms: None,
                }
            } else {
                let j = i - STANDING_WSE;
                SubSpec {
                    wse: false,
                    topic: Some(topic_name(j as u64 % TOPICS)),
                    k: (j as u64 / TOPICS % 2 == 1)
                        .then(|| 2 + (j as u64 / (2 * TOPICS) % 3) as u8),
                    lease_ms: None,
                }
            }
        })
        .collect();
    // One operation in six is a publication, and every (topic, sev)
    // pair comes up once per pass of its deck.
    let mut kinds = Deck::new(vec![true, false, false, false, false, false]);
    let mut publication = Deck::new(
        (0..TOPICS)
            .flat_map(|t| (1..=MAX_SEV).map(move |s| (t, s)))
            .collect(),
    );
    // Model state: each slot's live subscription and its expiry.
    let mut live: Vec<Option<(SubSpec, u64)>> = vec![None; SLOTS];
    let mut expected = vec![Vec::new(); STANDING + SLOTS];
    let mut now = 0u64;
    let mut steps = Vec::with_capacity(n_ops);
    for i in 0..n_ops {
        let advance = i > 0 && i % JUMP_EVERY == 0;
        if advance {
            now += JUMP_MS;
            for slot in live.iter_mut() {
                if slot.as_ref().is_some_and(|(_, exp)| *exp <= now) {
                    *slot = None;
                }
            }
        }
        let occupied: Vec<usize> = (0..SLOTS).filter(|&s| live[s].is_some()).collect();
        let free: Vec<usize> = (0..SLOTS).filter(|&s| live[s].is_none()).collect();
        let op = if kinds.draw(&mut rng) {
            let (topic, sev) = publication.draw(&mut rng);
            let t = topic_name(topic);
            for (e, s) in standing.iter().enumerate() {
                if s.admits(Some(&t), sev) {
                    expected[e].push(i as u32);
                }
            }
            for (slot, l) in live.iter().enumerate() {
                if l.as_ref().is_some_and(|(s, _)| s.admits(Some(&t), sev)) {
                    expected[STANDING + slot].push(i as u32);
                }
            }
            Op::Publish {
                topic: topic as u8,
                sev,
            }
        } else if !free.is_empty() && (occupied.is_empty() || rng.below(20) < 9) {
            let slot = free[rng.below(free.len() as u64) as usize];
            let wse = rng.below(2) == 0;
            let spec = SubSpec {
                wse,
                topic: (!wse).then(|| topic_name(rng.below(TOPICS))),
                k: if wse {
                    Some(4 + rng.below(3) as u8)
                } else {
                    (rng.below(2) == 0).then(|| 2 + rng.below(3) as u8)
                },
                lease_ms: Some(lease(&mut rng)),
            };
            live[slot] = Some((spec.clone(), now + spec.lease_ms.unwrap_or(0)));
            Op::Subscribe { slot, spec }
        } else {
            let slot = occupied[rng.below(occupied.len() as u64) as usize];
            let (spec, expiry) = live[slot].as_mut().expect("occupied");
            match rng.below(3) {
                0 => {
                    live[slot] = None;
                    Op::Unsubscribe { slot }
                }
                1 if spec.wse => Op::GetStatus { slot },
                _ => {
                    let lease_ms = lease(&mut rng);
                    *expiry = now + lease_ms;
                    Op::Renew { slot, lease_ms }
                }
            }
        };
        steps.push(Step { advance, op });
    }
    Plan {
        standing,
        steps,
        expected,
        warmup: n_ops / 10,
    }
}

enum Handle {
    Wse(SubscriptionHandle),
    Wsn(WsnSubscriptionHandle),
}

struct Env {
    net: Network,
    broker: WsMessenger,
    consumers: Vec<Arc<Consumer>>,
}

impl Env {
    fn uris(&self) -> Vec<String> {
        let mut u = vec![
            self.broker.uri().to_string(),
            self.broker.manager_uri().to_string(),
        ];
        u.extend((0..self.consumers.len()).map(|i| format!("{CONSUMER}{i}")));
        u
    }
}

fn subscribe(wse: &Subscriber, wsn: &WsnClient, spec: &SubSpec, endpoint: usize) -> Option<Handle> {
    let consumer = format!("{CONSUMER}{endpoint}");
    if spec.wse {
        wse.subscribe(BROKER, spec.wse_request(&consumer))
            .ok()
            .map(Handle::Wse)
    } else {
        wsn.subscribe(BROKER, &spec.wsn_request(&consumer))
            .ok()
            .map(Handle::Wsn)
    }
}

fn setup(plan: &Plan, mode: Mode, j: &mut Judged) -> Env {
    let net = Network::new();
    let broker = WsMessenger::start(&net, BROKER);
    let consumers = start_consumers(&net, CONSUMER, STANDING + SLOTS, mode == Mode::Traced);
    let wse = Subscriber::new(&net, WseVersion::Aug2004);
    let wsn = WsnClient::new(&net, WsnVersion::V1_3);
    for (i, s) in plan.standing.iter().enumerate() {
        j.attempted += 1;
        j.failed += subscribe(&wse, &wsn, s, i).is_none() as u64;
    }
    Env {
        net,
        broker,
        consumers,
    }
}

pub fn execute(plan: &Plan, mode: Mode) -> Run<WsMessenger> {
    let mut j = Judged::default();
    let env = build(
        SETUPS,
        &mut j,
        |j| setup(plan, mode, j),
        |old| teardown(&old.net, old.uris()),
    );
    let uris = env.uris();
    let (net, broker) = (&env.net, &env.broker);
    let wse = Subscriber::new(net, WseVersion::Aug2004);
    let wsn = WsnClient::new(net, WsnVersion::V1_3);
    let payloads: Vec<_> = (plan.steps.iter().enumerate())
        .map(|(i, s)| match s.op {
            Op::Publish { topic, sev } => Some((topic_name(topic as u64), payload(i as u32, sev))),
            _ => None,
        })
        .collect();
    let mut handles: Vec<Option<Handle>> = (0..SLOTS).map(|_| None).collect();
    let driven = drive(plan.steps.len(), plan.warmup, mode, net, &mut j, |i| {
        let step = &plan.steps[i];
        if step.advance {
            net.clock().advance_ms(JUMP_MS);
        }
        match &step.op {
            Op::Publish { .. } => {
                let (topic, p) = payloads[i].as_ref().expect("publication payload");
                std::hint::black_box(broker.publish_on(topic, p));
                ("publish", true)
            }
            Op::Subscribe { slot, spec } => {
                handles[*slot] = subscribe(&wse, &wsn, spec, STANDING + slot);
                ("subscribe", handles[*slot].is_some())
            }
            Op::Renew { slot, lease_ms } => {
                let ok = match &handles[*slot] {
                    Some(Handle::Wse(h)) => {
                        wse.renew(h, Some(Expires::Duration(*lease_ms))).is_ok()
                    }
                    Some(Handle::Wsn(h)) => wsn.renew(h, Termination::Duration(*lease_ms)).is_ok(),
                    None => false,
                };
                ("renew", ok)
            }
            Op::GetStatus { slot } => {
                let ok = match &handles[*slot] {
                    Some(Handle::Wse(h)) => wse.get_status(h).is_ok(),
                    _ => false,
                };
                ("get_status", ok)
            }
            Op::Unsubscribe { slot } => {
                let ok = match handles[*slot].take() {
                    Some(Handle::Wse(h)) => wse.unsubscribe(&h).is_ok(),
                    Some(Handle::Wsn(h)) => wsn.unsubscribe(&h).is_ok(),
                    None => false,
                };
                ("unsubscribe", ok)
            }
        }
    });
    conclude(
        j,
        env.net,
        env.broker,
        &env.consumers,
        &plan.expected,
        driven,
        uris,
    )
}

fn replay(plan: &Plan, run: &Run<WsMessenger>, layers: &mut Layers) -> bool {
    let origin = SpecDialect::Wsn(WsnVersion::V1_3);
    let publications: Vec<(Option<String>, wsm_xml::Element)> = plan
        .steps
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s.op {
            Op::Publish { topic, sev } => {
                Some((Some(topic_name(topic as u64)), payload(i as u32, sev)))
            }
            _ => None,
        })
        .take(256)
        .collect();
    // The live registry has moved on since these publications, so the
    // replay checks the matcher on the standing population only: every
    // churn subscription is unsubscribed or lapsed by then, or is
    // counted from the model's final state below.
    let events: Vec<_> = publications
        .iter()
        .map(|(t, p)| event(t.as_deref(), p.clone(), origin))
        .collect();
    let counts = layers::replay_publications(
        layers,
        &run.net,
        std::slice::from_ref(&run.broker),
        &|_| 0,
        &events,
    );
    let final_live = final_churn_population(plan, run.net.clock().now_ms());
    let agree = publications.iter().zip(&counts).all(|((t, p), &c)| {
        let sev: u8 = p.attr("sev").and_then(|s| s.parse().ok()).unwrap_or(0);
        let want = plan
            .standing
            .iter()
            .chain(final_live.iter())
            .filter(|s| s.admits(t.as_deref(), sev))
            .count();
        want == c
    });

    let mut reg = Vec::new();
    let mut now = 0;
    for (e, s) in plan.standing.iter().enumerate() {
        reg.push(RegOp::Insert(e, s.clone(), 0));
    }
    let mut specs: Vec<SubSpec> = plan.standing.clone();
    for step in &plan.steps {
        if step.advance {
            now += JUMP_MS;
            reg.push(RegOp::Sweep(now));
        }
        match &step.op {
            Op::Subscribe { slot, spec } => {
                reg.push(RegOp::Insert(STANDING + slot, spec.clone(), now));
                specs.push(spec.clone());
            }
            Op::Unsubscribe { slot } => reg.push(RegOp::Remove(STANDING + slot)),
            _ => {}
        }
    }
    layers::replay_registry(layers, &reg);
    specs.truncate(4096);
    layers::replay_codecs(layers, BROKER, &specs, &publications);

    let wse = Subscriber::new(&run.net, WseVersion::Aug2004);
    let obs = layers::ab_overhead_pct(8, |on, _| {
        run.broker.set_obs_enabled(on);
        for s in specs.iter().filter(|s| s.wse).take(32) {
            if let Ok(h) = wse.subscribe(BROKER, s.wse_request(layers::DISCARD_URI)) {
                let _ = wse.unsubscribe(&h);
            }
        }
    });
    run.broker.set_obs_enabled(true);
    layers.insert("obs.overhead_pct", obs);

    // Closure: a management round trip's isolated layers, weighted by
    // how often each operation occurs, over the in-situ median.
    let mgmt = plan
        .steps
        .iter()
        .filter(|s| !matches!(s.op, Op::Publish { .. }))
        .count()
        .max(1) as f64;
    let count = |f: fn(&Op) -> bool| plan.steps.iter().filter(|s| f(&s.op)).count() as f64 / mgmt;
    let sub_share = count(|o| matches!(o, Op::Subscribe { .. }));
    let unsub_share = count(|o| matches!(o, Op::Unsubscribe { .. }));
    let filtered =
        specs.iter().filter(|s| s.k.is_some()).count() as f64 / specs.len().max(1) as f64;
    let isolated = sub_share
        * (layers["codec.subscribe_encode_us"]
            + layers["codec.subscribe_parse_us"]
            + filtered * layers["xpath.compile_us"]
            + layers["registry.insert_us"])
        + unsub_share * layers["registry.remove_us"];
    layers.insert("closure.ratio", isolated / median(&run.judged.mgmt_us));
    agree
}

/// The churn subscriptions the model holds live at the end of the run
/// and at virtual time `now`.
fn final_churn_population(plan: &Plan, now: u64) -> Vec<SubSpec> {
    let mut live: Vec<Option<(SubSpec, u64)>> = vec![None; SLOTS];
    let mut t = 0;
    for step in &plan.steps {
        if step.advance {
            t += JUMP_MS;
        }
        match &step.op {
            Op::Subscribe { slot, spec } => {
                live[*slot] = Some((spec.clone(), t + spec.lease_ms.unwrap_or(0)))
            }
            Op::Renew { slot, lease_ms } => {
                if let Some((_, e)) = live[*slot].as_mut() {
                    *e = t + lease_ms;
                }
            }
            Op::Unsubscribe { slot } => live[*slot] = None,
            _ => {}
        }
    }
    live.into_iter()
        .flatten()
        .filter(|(_, e)| *e > now)
        .map(|(s, _)| s)
        .collect()
}

pub fn main(seed: u64, seconds: u64, traced: bool) -> Report {
    let plan = plan(seed, OPS_PER_SECOND * seconds as usize);
    if !traced {
        let run = execute(&plan, Mode::Plain);
        return Report::judged(run.correct, &run.judged);
    }
    crate::traced_main("subscription_churn", &plan, execute, replay)
}
