//! `fanout_mediated`: one broker, 256 push consumers — 128 WS-Eventing
//! 08/2004 without a topic and 128 WS-Notification 1.3 on one topic —
//! and a producer sending WS-Notification `Notify` envelopes to the
//! broker over the network. Every publication is rendered and sent 256
//! times and half of those deliveries are mediated WSN → WSE, so
//! render, transport and delivery do nearly all the work and matching
//! almost none.

use crate::common::{
    self, build, conclude, drive, payload, sev_deck, start_consumers, teardown, Consumer, Rng,
    Step, LONG_LEASE_MS,
};
use crate::layers::{self, event, Layers, RegOp, SubSpec};
use crate::{Judged, Mode, Report, Run};
use std::sync::Arc;
use wsm_addressing::EndpointReference;
use wsm_eventing::{Subscriber, WseVersion};
use wsm_messenger::{SpecDialect, WsMessenger};
use wsm_notification::{
    NotificationMessage, Termination, WsnClient, WsnCodec, WsnSubscriptionHandle, WsnVersion,
};
use wsm_soap::Envelope;
use wsm_topics::TopicPath;
use wsm_transport::Network;

const BROKER: &str = "http://broker";
const CONSUMER: &str = "http://consumer/";
const TOPIC: &str = "storms";
const WSE_CONSUMERS: usize = 128;
const WSN_CONSUMERS: usize = 128;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 50;
/// Operations per second of `--seconds`: the run is this fixed count
/// of operations, not a time window, so counts and peak memory repeat.
pub const OPS_PER_SECOND: usize = 400;
/// Events replayed through the isolated layers in the traced run.
const REPLAY: usize = 32;

/// The workload's whole input: who subscribes in which order, and the
/// operation stream (publication severities, and which WS-Notification
/// subscriber each Renew of the trickle targets).
#[derive(Debug, PartialEq, Eq)]
pub struct Plan {
    pub subs: Vec<SubSpec>,
    pub steps: Vec<Step<u8>>,
    pub warmup: usize,
}

pub fn plan(seed: u64, n_ops: usize) -> Plan {
    let mut rng = Rng::new(seed, 1);
    let mut subs: Vec<SubSpec> = (0..WSE_CONSUMERS + WSN_CONSUMERS)
        .map(|i| {
            let wse = i < WSE_CONSUMERS;
            SubSpec {
                wse,
                topic: (!wse).then(|| TOPIC.to_string()),
                k: None,
                lease_ms: None,
            }
        })
        .collect();
    rng.shuffle(&mut subs);
    let renewable: Vec<usize> = (0..subs.len()).filter(|&i| !subs[i].wse).collect();
    let mut sevs = sev_deck();
    let steps = common::steps(n_ops, &mut rng, &renewable, |r| sevs.draw(r));
    Plan {
        subs,
        steps,
        warmup: n_ops / 10,
    }
}

/// The reference model's deliveries: for each consumer, the seqs it
/// must receive, in publication order.
pub fn expected(plan: &Plan) -> Vec<Vec<u32>> {
    plan.subs
        .iter()
        .map(|s| {
            (0..plan.steps.len())
                .filter(
                    |&i| matches!(plan.steps[i], Step::Publish(sev) if s.admits(Some(TOPIC), sev)),
                )
                .map(|i| i as u32)
                .collect()
        })
        .collect()
}

struct Env {
    net: Network,
    broker: WsMessenger,
    consumers: Vec<Arc<Consumer>>,
    /// The WS-Notification subscriptions' handles, by consumer.
    handles: Vec<Option<WsnSubscriptionHandle>>,
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

/// Build the broker and subscribe the population through SOAP.
fn setup(plan: &Plan, mode: Mode, j: &mut Judged) -> Env {
    let net = Network::new();
    let broker = WsMessenger::start(&net, BROKER);
    let consumers = start_consumers(&net, CONSUMER, plan.subs.len(), mode == Mode::Traced);
    let wse = Subscriber::new(&net, WseVersion::Aug2004);
    let wsn = WsnClient::new(&net, WsnVersion::V1_3);
    let mut handles = Vec::with_capacity(plan.subs.len());
    for (i, s) in plan.subs.iter().enumerate() {
        let consumer = format!("{CONSUMER}{i}");
        let (ok, handle) = if s.wse {
            (
                wse.subscribe(BROKER, s.wse_request(&consumer)).is_ok(),
                None,
            )
        } else {
            let h = wsn.subscribe(BROKER, &s.wsn_request(&consumer)).ok();
            (h.is_some(), h)
        };
        handles.push(handle);
        j.attempted += 1;
        j.failed += !ok as u64;
    }
    Env {
        net,
        broker,
        consumers,
        handles,
    }
}

fn notify(codec: &WsnCodec, seq: usize, sev: u8) -> Envelope {
    let msg = NotificationMessage::new(TopicPath::parse(TOPIC), payload(seq as u32, sev));
    codec.notify(&EndpointReference::new(BROKER), &[msg])
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
    let codec = WsnCodec::new(WsnVersion::V1_3);
    let wsn = WsnClient::new(&env.net, WsnVersion::V1_3);
    let mut envelopes: Vec<Option<Envelope>> = (plan.steps.iter().enumerate())
        .map(|(i, s)| match *s {
            Step::Publish(sev) => Some(notify(&codec, i, sev)),
            Step::Renew(_) => None,
        })
        .collect();
    let driven = drive(
        plan.steps.len(),
        plan.warmup,
        mode,
        &env.net,
        &mut j,
        |i| match (plan.steps[i], envelopes[i].take()) {
            (Step::Publish(_), Some(e)) => ("publish", env.net.send(BROKER, e).is_ok()),
            (Step::Renew(sub), _) => {
                let renewed = env.handles[sub]
                    .as_ref()
                    .is_some_and(|h| wsn.renew(h, Termination::Duration(LONG_LEASE_MS)).is_ok());
                ("renew", renewed)
            }
            (Step::Publish(_), None) => unreachable!("every publication has an envelope"),
        },
    );
    conclude(
        j,
        env.net,
        env.broker,
        &env.consumers,
        &expected(plan),
        driven,
        uris,
    )
}

/// The first `n` publications of the plan as `(seq, sev)`.
fn publications(plan: &Plan, n: usize) -> Vec<(usize, u8)> {
    (plan.steps.iter().enumerate())
        .filter_map(|(i, s)| match s {
            Step::Publish(sev) => Some((i, *sev)),
            Step::Renew(_) => None,
        })
        .take(n)
        .collect()
}

/// Isolated replays of this workload's inputs. Returns whether the
/// registry's matches agree with the reference matcher.
fn replay(plan: &Plan, run: &Run<WsMessenger>, layers: &mut Layers) -> bool {
    let pubs = publications(plan, REPLAY);
    let origin = SpecDialect::Wsn(WsnVersion::V1_3);
    let events: Vec<_> = pubs
        .iter()
        .map(|&(seq, sev)| event(Some(TOPIC), payload(seq as u32, sev), origin))
        .collect();
    let counts = layers::replay_publications(
        layers,
        &run.net,
        std::slice::from_ref(&run.broker),
        &|_| 0,
        &events,
    );
    let agree = pubs.iter().zip(&counts).all(|(&(_, sev), &c)| {
        c == plan
            .subs
            .iter()
            .filter(|x| x.admits(Some(TOPIC), sev))
            .count()
    });
    let mut reg: Vec<RegOp> = (plan.subs.iter().cloned().enumerate())
        .map(|(i, s)| RegOp::Insert(i, s, 0))
        .collect();
    reg.push(RegOp::Sweep(0));
    reg.extend((0..plan.subs.len()).map(RegOp::Remove));
    layers::replay_registry(layers, &reg);
    let raw: Vec<_> = pubs
        .iter()
        .map(|&(seq, sev)| (Some(TOPIC.to_string()), payload(seq as u32, sev)))
        .collect();
    layers::replay_codecs(layers, BROKER, &plan.subs, &raw);
    let codec = WsnCodec::new(WsnVersion::V1_3);
    let obs = layers::ab_overhead_pct(8, |on, round| {
        run.broker.set_obs_enabled(on);
        for &(seq, sev) in pubs.iter().cycle().skip(round * 8).take(8) {
            let _ = run.net.send(BROKER, notify(&codec, seq, sev));
        }
    });
    run.broker.set_obs_enabled(true);
    layers.insert("obs.overhead_pct", obs);
    // Per delivery, the blocking path between two callbacks on one
    // thread is one render plus one send (which includes the size
    // accounting); the in-situ figure is the gap between callbacks.
    let closure = (layers["render.us_per_delivery"] + layers["transport.send_us"])
        / layers["delivery.gap_us"];
    layers.insert("closure.ratio", closure);
    agree
}

pub fn main(seed: u64, seconds: u64, traced: bool) -> Report {
    let plan = plan(seed, OPS_PER_SECOND * seconds as usize);
    if !traced {
        let run = execute(&plan, Mode::Plain);
        return Report::judged(run.correct, &run.judged);
    }
    crate::traced_main("fanout_mediated", &plan, execute, replay)
}
