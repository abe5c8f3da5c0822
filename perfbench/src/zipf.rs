//! `zipf_federated`: a two-shard `FederatedMessenger` holding about
//! 100k WS-Notification subscriptions, created by SOAP `Subscribe`
//! through the front, over 12k topic roots; half carry a
//! `/event[@sev > k]` content filter. Publications pick a root under
//! Zipf(1.1) popularity and go through the front's `publish_on` with
//! the default link policy, matching about 6–7 subscribers each. So
//! matching against a registry far larger than the CPU caches, plus the
//! federation routing hop, do nearly all the work, and `setup_s`
//! measures subscribing at scale.

use crate::common::{
    self, build, conclude, drive, payload, sev_deck, start_consumers, teardown, us, Consumer, Rng,
    Step, Zipf, LONG_LEASE_MS,
};
use crate::layers::{self, event, Layers, RegOp, SubSpec};
use crate::{Judged, Mode, Report, Run};
use std::sync::Arc;
use std::time::Instant;
use wsm_messenger::{FederatedMessenger, SpecDialect};
use wsm_notification::{Termination, WsnClient, WsnSubscriptionHandle, WsnVersion};
use wsm_transport::Network;
use wsm_xml::Element;

const FRONT: &str = "http://fed";
const CONSUMER: &str = "http://zc/";
/// Shards = the 2 cores of the reference host, fixed so results do
/// not depend on where the benchmark runs.
const SHARDS: usize = 2;
const SUBSCRIPTIONS: usize = 100_000;
const ROOTS: usize = 12_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Operations per second of `--seconds` (a fixed count, see
/// `fanout::OPS_PER_SECOND`).
pub const OPS_PER_SECOND: usize = 6_500;
/// Events and Subscribe requests replayed through the isolated layers.
const REPLAY: usize = 512;

#[derive(Debug, PartialEq, Eq)]
pub struct Plan {
    /// Subscription `i` is consumer endpoint `i`.
    pub subs: Vec<SubSpec>,
    /// Publications as `(root, sev)`, and the Renew trickle.
    pub steps: Vec<Step<(u32, u8)>>,
    pub warmup: usize,
}

fn root_name(r: u32) -> String {
    format!("z{r}")
}

pub fn plan_sized(seed: u64, n_ops: usize, subscriptions: usize, roots: usize) -> Plan {
    let mut rng = Rng::new(seed, 2);
    // The population is the same for every seed: each root holds the
    // same mix (every other subscriber filtered, thresholds cycling),
    // so the seed moves the publication stream, not how many
    // subscribers the hot roots happen to have.
    let subs = (0..subscriptions)
        .map(|i| {
            let j = i / roots;
            SubSpec {
                wse: false,
                topic: Some(root_name((i % roots) as u32)),
                k: (j % 2 == 1).then(|| 2 + (j / 2 % 3) as u8),
                lease_ms: None,
            }
        })
        .collect();
    let zipf = Zipf::new(roots, 1.1);
    // Popularity rank → root, so the hot roots differ between seeds.
    let mut rank_to_root: Vec<u32> = (0..roots as u32).collect();
    rng.shuffle(&mut rank_to_root);
    let mut sevs = sev_deck();
    let all: Vec<usize> = (0..subscriptions).collect();
    let steps = common::steps(n_ops, &mut rng, &all, |r| {
        (rank_to_root[zipf.sample(r)], sevs.draw(r))
    });
    Plan {
        subs,
        steps,
        warmup: 0,
    }
}

/// The publications among the first `n` operations, as `(seq, root, sev)`.
fn publications(plan: &Plan, n: usize) -> impl Iterator<Item = (usize, u32, u8)> + '_ {
    (plan.steps.iter().enumerate().take(n)).filter_map(|(i, s)| match s {
        Step::Publish((root, sev)) => Some((i, *root, *sev)),
        Step::Renew(_) => None,
    })
}

pub fn plan(seed: u64, n_ops: usize) -> Plan {
    let mut p = plan_sized(seed, n_ops, SUBSCRIPTIONS, ROOTS);
    p.warmup = n_ops / 10;
    p
}

/// For each subscription, the publications among the first `n`
/// operations the reference matcher says it must receive, in order.
pub fn expected_upto(plan: &Plan, n: usize) -> Vec<Vec<u32>> {
    let mut by_topic: std::collections::HashMap<&str, Vec<usize>> = Default::default();
    for (i, s) in plan.subs.iter().enumerate() {
        by_topic
            .entry(s.topic.as_deref().unwrap_or(""))
            .or_default()
            .push(i);
    }
    let mut out = vec![Vec::new(); plan.subs.len()];
    for (seq, root, sev) in publications(plan, n) {
        let topic = root_name(root);
        for &i in by_topic.get(topic.as_str()).into_iter().flatten() {
            if plan.subs[i].admits(Some(&topic), sev) {
                out[i].push(seq as u32);
            }
        }
    }
    out
}

pub fn expected(plan: &Plan) -> Vec<Vec<u32>> {
    expected_upto(plan, plan.steps.len())
}

struct Env {
    net: Network,
    fed: FederatedMessenger,
    consumers: Vec<Arc<Consumer>>,
    handles: Vec<Option<WsnSubscriptionHandle>>,
}

impl Env {
    fn uris(&self) -> Vec<String> {
        let mut u = vec![
            self.fed.uri().to_string(),
            self.fed.manager_uri().to_string(),
        ];
        for s in self.fed.shards() {
            u.push(s.uri().to_string());
            u.push(s.manager_uri().to_string());
        }
        u.extend((0..self.consumers.len()).map(|i| format!("{CONSUMER}{i}")));
        u
    }
}

fn setup(plan: &Plan, mode: Mode, j: &mut Judged) -> Env {
    let net = Network::new();
    let fed = FederatedMessenger::start(&net, FRONT, SHARDS);
    let consumers = start_consumers(&net, CONSUMER, plan.subs.len(), mode == Mode::Traced);
    let wsn = WsnClient::new(&net, WsnVersion::V1_3);
    // Only the handles the Renew trickle will use are kept.
    let mut renewed = vec![false; plan.subs.len()];
    for s in &plan.steps {
        if let Step::Renew(sub) = s {
            renewed[*sub] = true;
        }
    }
    let handles: Vec<_> = (plan.subs.iter().enumerate())
        .map(|(i, s)| {
            let h = wsn
                .subscribe(FRONT, &s.wsn_request(&format!("{CONSUMER}{i}")))
                .ok();
            j.attempted += 1;
            j.failed += h.is_none() as u64;
            h.filter(|_| renewed[i])
        })
        .collect();
    Env {
        net,
        fed,
        consumers,
        handles,
    }
}

pub fn execute(plan: &Plan, mode: Mode, setups: usize) -> Run<FederatedMessenger> {
    let mut j = Judged::default();
    let env = build(
        setups,
        &mut j,
        |j| setup(plan, mode, j),
        |old| teardown(&old.net, old.uris()),
    );
    let uris = env.uris();
    let wsn = WsnClient::new(&env.net, WsnVersion::V1_3);
    let inputs: Vec<Option<(String, Element)>> = (plan.steps.iter().enumerate())
        .map(|(seq, s)| match *s {
            Step::Publish((root, sev)) => Some((root_name(root), payload(seq as u32, sev))),
            Step::Renew(_) => None,
        })
        .collect();
    let driven = drive(
        plan.steps.len(),
        plan.warmup,
        mode,
        &env.net,
        &mut j,
        |i| match (plan.steps[i], &inputs[i]) {
            (Step::Publish(_), Some((topic, event))) => {
                std::hint::black_box(env.fed.publish_on(topic, event));
                ("publish", true)
            }
            (Step::Renew(sub), _) => {
                let renewed = env.handles[sub]
                    .as_ref()
                    .is_some_and(|h| wsn.renew(h, Termination::Duration(LONG_LEASE_MS)).is_ok());
                ("renew", renewed)
            }
            (Step::Publish(_), None) => unreachable!("every publication has an event"),
        },
    );
    conclude(
        j,
        env.net,
        env.fed,
        &env.consumers,
        &expected(plan),
        driven,
        uris,
    )
}

fn replay(plan: &Plan, run: &Run<FederatedMessenger>, layers: &mut Layers) -> bool {
    let n = REPLAY.min(plan.steps.len());
    let origin = SpecDialect::Wsn(WsnVersion::V1_3);
    let raw: Vec<(Option<String>, Element)> = publications(plan, n)
        .map(|(seq, root, sev)| (Some(root_name(root)), payload(seq as u32, sev)))
        .collect();
    let events: Vec<_> = raw
        .iter()
        .map(|(t, p)| event(t.as_deref(), p.clone(), origin))
        .collect();
    let fed = &run.broker;
    layers.insert("federation.route_entries", fed.route_entry_count() as f64);
    let owner = |ev: &wsm_messenger::InternalEvent| {
        fed.shard_for_topic(&ev.topic.as_ref().map(|t| t.to_string()).unwrap_or_default())
    };
    let counts = layers::replay_publications(layers, &run.net, fed.shards(), &owner, &events);
    let mut want = vec![0usize; n];
    for e in expected_upto(plan, n).iter().flatten() {
        want[*e as usize] += 1;
    }
    let want: Vec<usize> = publications(plan, n).map(|(seq, ..)| want[seq]).collect();
    let agree = counts == want;

    // The hop: the same event through the front and straight into its
    // owner shard, alternating, compared by median.
    let (mut front, mut direct) = (Vec::new(), Vec::new());
    for (topic, p) in &raw {
        let topic = topic.as_deref().expect("zipf events have topics");
        let shard = &fed.shards()[fed.shard_for_topic(topic)];
        let t = Instant::now();
        fed.publish_on(topic, p);
        front.push(us(t.elapsed()));
        let t = Instant::now();
        shard.publish_on(topic, p);
        direct.push(us(t.elapsed()));
    }
    layers.insert(
        "federation.hop_us",
        common::median(&front) - common::median(&direct),
    );

    // Subscribe forwarding: the same requests through the front and
    // straight to the owner shard.
    let wsn = WsnClient::new(&run.net, WsnVersion::V1_3);
    let (mut front, mut direct) = (Vec::new(), Vec::new());
    // A sample spread over the population, which cycles its filter mix
    // by position.
    let sample: Vec<SubSpec> = (plan.subs.iter())
        .step_by((plan.subs.len() / REPLAY).max(1))
        .cloned()
        .collect();
    for s in &sample {
        let req = s.wsn_request(layers::DISCARD_URI);
        let topic = s.topic.as_deref().expect("zipf subscriptions have topics");
        let shard = fed.shards()[fed.shard_for_topic(topic)].uri().to_string();
        let t = Instant::now();
        let a = wsn.subscribe(FRONT, &req).is_ok();
        front.push(us(t.elapsed()));
        let t = Instant::now();
        let b = wsn.subscribe(&shard, &req).is_ok();
        direct.push(us(t.elapsed()));
        assert!(a && b, "replayed Subscribe accepted");
    }
    layers.insert(
        "federation.subscribe_forward_us",
        common::median(&front) - common::median(&direct),
    );

    let mut reg: Vec<RegOp> = plan
        .subs
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, s)| RegOp::Insert(i, s, 0))
        .collect();
    reg.push(RegOp::Sweep(0));
    reg.extend((0..plan.subs.len()).map(RegOp::Remove));
    layers::replay_registry(layers, &reg);
    layers::replay_codecs(layers, FRONT, &sample, &raw);

    let obs = layers::ab_overhead_pct(8, |on, round| {
        fed.set_obs_enabled(on);
        for (topic, p) in raw.iter().cycle().skip(round * 32).take(32) {
            fed.publish_on(topic.as_deref().unwrap_or_default(), p);
        }
    });
    fed.set_obs_enabled(true);
    layers.insert("obs.overhead_pct", obs);
    // The blocking path of one publication: the hop, the owner shard's
    // match, then per matched subscriber one render, one send and the
    // consumer's handler; the in-situ figure is the publish median.
    let per_delivery = layers["render.us_per_delivery"]
        + layers["transport.send_us"]
        + layers["consumer.handler_us"];
    let isolated = layers["federation.hop_us"]
        + layers["registry.matching_us"]
        + layers["registry.matched_per_pub"] * per_delivery;
    let in_situ = common::median(&run.judged.publish_us);
    layers.insert("closure.ratio", isolated / in_situ);
    agree
}

pub fn main(seed: u64, seconds: u64, traced: bool) -> Report {
    let plan = plan(seed, OPS_PER_SECOND * seconds as usize);
    if !traced {
        let run = execute(&plan, Mode::Plain, SETUPS);
        return Report::judged(run.correct, &run.judged);
    }
    // One set-up per execution: the traced run reports no `setup_s`.
    crate::traced_main("zipf_federated", &plan, |p, m| execute(p, m, 1), replay)
}
