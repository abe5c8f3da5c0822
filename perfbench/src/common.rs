//! Pieces every workload shares: the seeded generator, the event
//! payload, the benchmark-owned consumer endpoint, the exactly-once /
//! in-order delivery check, process-level CPU and memory readings, the
//! yardstick that rescales times to a reference host speed, and the
//! closed loop that runs a workload and times it.

use crate::layers::OpSpan;
use crate::{Judged, Mode, Run};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wsm_soap::{Envelope, Fault};
use wsm_transport::{Network, SoapHandler};
use wsm_xml::Element;

// ------------------------------------------------------------ generator

/// SplitMix64: the whole input stream of a workload derives from the
/// `--seed` argument through this generator, so a seed names its
/// inputs independently of any library's random-number algorithm.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// A seeded deck of cards, reshuffled after each full pass: every pass
/// deals each card once, so a run's mix (of severities, of operation
/// kinds) is the same for every seed and only the order moves.
pub struct Deck<T> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Clone> Deck<T> {
    pub fn new(cards: Vec<T>) -> Self {
        let next = cards.len();
        Deck { cards, next }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1].clone()
    }
}

/// Inverse-CDF sampler over ranks `0..n` with weight `1 / (rank + 1)^s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|i| {
                total += 1.0 / ((i + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit() * self.cumulative.last().copied().unwrap_or(0.0);
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

// -------------------------------------------------------------- payload

/// Severities run 1..=7; content filters read `@sev > k`.
pub const MAX_SEV: u8 = 7;

pub fn sev_deck() -> Deck<u8> {
    Deck::new((1..=MAX_SEV).collect())
}

/// A lease that outlives any run (the virtual clock only moves where a
/// workload moves it).
pub const LONG_LEASE_MS: u64 = 10_000_000_000;

/// One operation of a publishing workload: a publication, or a Renew of
/// subscription `n` (the management trickle).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step<P> {
    Publish(P),
    Renew(usize),
}

/// One operation in this many is a Renew, so the management round trip
/// is measured on a loaded broker throughout the timed phase.
pub const MGMT_EVERY: usize = 16;

/// `n` operations: a Renew of a subscription drawn from `renewable` at
/// every `MGMT_EVERY`-th, publications from `publication` otherwise.
pub fn steps<P>(
    n: usize,
    rng: &mut Rng,
    renewable: &[usize],
    mut publication: impl FnMut(&mut Rng) -> P,
) -> Vec<Step<P>> {
    (0..n)
        .map(|i| {
            if i % MGMT_EVERY == MGMT_EVERY - 1 {
                Step::Renew(renewable[rng.below(renewable.len() as u64) as usize])
            } else {
                Step::Publish(publication(rng))
            }
        })
        .collect()
}

/// The published event: `seq` identifies the publication to the
/// consumers (it is the trace id of its operation), `sev` is what the
/// content filters compare, and the filler gives it the few hundred
/// bytes of a Grid-monitoring notification.
pub fn payload(seq: u32, sev: u8) -> Element {
    Element::local("event")
        .with_attr("seq", seq.to_string())
        .with_attr("sev", sev.to_string())
        .with_child(Element::local("source").with_text(format!("gridftp-{}", seq % 13)))
        .with_child(
            Element::local("detail")
                .with_text("transfer completed; bytes=1073741824 duration=42s checksum=ok"),
        )
}

/// The `seq` of the event an envelope carries, wherever the consumer's
/// dialect put it (the raw body for WS-Eventing, inside
/// `Notify/NotificationMessage/Message` for WS-Notification).
fn event_seq(env: &Envelope) -> Option<u32> {
    fn find(e: &Element, depth: u32) -> Option<u32> {
        if e.name.local == "event" {
            return e.attr("seq")?.parse().ok();
        }
        if depth == 0 {
            return None;
        }
        e.elements().find_map(|c| find(c, depth - 1))
    }
    env.body().and_then(|b| find(b, 4))
}

// ------------------------------------------------------------- consumer

/// One received notification.
#[derive(Clone, Copy)]
pub struct Recv {
    /// The event's `seq`; `u32::MAX` when the envelope carried none.
    pub seq: u32,
    pub start: Instant,
    /// Handler exit and thread, recorded in the traced run only.
    pub end: Option<Instant>,
    /// 0 on the publishing thread, `1 + N` on pool worker `wsm-push-N`.
    pub lane: u8,
}

/// A benchmark-owned push consumer: records what arrived and when, and
/// discards the envelope.
pub struct Consumer {
    traced: bool,
    log: Mutex<Vec<Recv>>,
}

impl Consumer {
    pub fn new(traced: bool) -> Arc<Self> {
        Arc::new(Consumer {
            traced,
            log: Mutex::new(Vec::new()),
        })
    }

    pub fn take(&self) -> Vec<Recv> {
        std::mem::take(&mut *self.log.lock().expect("consumer log poisoned"))
    }
}

impl SoapHandler for Consumer {
    fn handle(&self, request: Envelope) -> Result<Option<Envelope>, Fault> {
        let start = Instant::now();
        let seq = event_seq(&request).unwrap_or(u32::MAX);
        let (end, lane) = if self.traced {
            let lane = std::thread::current()
                .name()
                .and_then(|n| n.strip_prefix("wsm-push-"))
                .and_then(|i| i.parse::<u8>().ok())
                .map_or(0, |i| i.saturating_add(1));
            (Some(Instant::now()), lane)
        } else {
            (None, 0)
        };
        self.log.lock().expect("consumer log poisoned").push(Recv {
            seq,
            start,
            end,
            lane,
        });
        drop(request);
        Ok(None)
    }
}

/// Register `n` consumers at `{prefix}{i}`.
pub fn start_consumers(net: &Network, prefix: &str, n: usize, traced: bool) -> Vec<Arc<Consumer>> {
    (0..n)
        .map(|i| {
            let c = Consumer::new(traced);
            net.register(format!("{prefix}{i}"), c.clone() as Arc<dyn SoapHandler>);
            c
        })
        .collect()
}

/// Break the handler ↔ network reference cycles of a discarded set-up
/// so its memory is returned before the next one is built.
pub fn teardown(net: &Network, uris: impl IntoIterator<Item = String>) {
    for u in uris {
        net.unregister(&u);
    }
}

// ---------------------------------------------------------------- check

/// Compare what each endpoint received with what the reference model
/// expects (publication seqs in publication order). Returns the set of
/// publications with a missing, duplicated, out-of-order or unexpected
/// delivery.
pub fn check_deliveries(expected: &[Vec<u32>], received: &[Vec<Recv>]) -> HashSet<u32> {
    let mut bad = HashSet::new();
    for (exp, got) in expected.iter().zip(received) {
        if exp.len() == got.len() && exp.iter().zip(got).all(|(e, r)| *e == r.seq) {
            continue;
        }
        let mut e_sorted = exp.clone();
        e_sorted.sort_unstable();
        let mut g_sorted: Vec<u32> = got.iter().map(|r| r.seq).collect();
        g_sorted.sort_unstable();
        let (mut i, mut j) = (0, 0);
        while i < e_sorted.len() || j < g_sorted.len() {
            match (e_sorted.get(i), g_sorted.get(j)) {
                (Some(a), Some(b)) if a == b => {
                    i += 1;
                    j += 1;
                }
                (Some(a), Some(b)) if a < b => {
                    bad.insert(*a);
                    i += 1;
                }
                (Some(_), Some(b)) | (None, Some(b)) => {
                    bad.insert(*b);
                    j += 1;
                }
                (Some(a), None) => {
                    bad.insert(*a);
                    i += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        for w in got.windows(2) {
            if w[1].seq <= w[0].seq {
                bad.insert(w[1].seq);
            }
        }
    }
    bad
}

// ---------------------------------------------------------------- clocks

/// Process CPU time (user + system, every thread) in nanoseconds.
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// When set, the global allocator counts ([`Mode::Counted`] only).
pub static COUNT_ALLOCS: AtomicBool = AtomicBool::new(false);

// ------------------------------------------------------------ yardstick

/// What one yardstick probe takes, in µs, at the reference speed to
/// which every reported time is rescaled.
pub const YARDSTICK_REF_US: f64 = 100.0;
/// Time between two probes of a timed phase.
const PROBE_EVERY: Duration = Duration::from_millis(10);
/// Probes on either side of an instant whose median gives the host's
/// speed there (about ±0.1 s).
const PROBE_SPAN: usize = 10;
/// Probes taken after each set-up to rate it.
const SETUP_PROBES: usize = 16;

/// A fixed piece of the kinds of work the broker's calls are made of:
/// integer mixing, formatting, hashing, ordered-map inserts and
/// building an event tree.
fn yardstick_work(seed: u64) -> u64 {
    let mut rng = Rng::new(seed, 11);
    let mut acc = 0u64;
    for _ in 0..20_000 {
        let x = rng.next_u64();
        acc = acc.rotate_left(5) ^ x.wrapping_mul(acc | 1);
        if x & 3 == 0 {
            acc = acc.wrapping_add(x >> 7);
        }
    }
    let mut hashed = HashMap::new();
    let mut ordered = BTreeMap::new();
    for k in 0..60u64 {
        let s = format!("http://cc/{}/topic-{k}", rng.below(1000));
        acc = acc.wrapping_add(s.len() as u64);
        ordered.insert(s.clone(), k);
        hashed.insert(s, k);
    }
    let event = payload(seed as u32, 3);
    acc + (event.children.len() + hashed.len() + ordered.len()) as u64
}

/// One probe: its wall-clock span and the process CPU clock around it.
struct Probe {
    start: Instant,
    end: Instant,
    cpu_start: u64,
    cpu_end: u64,
}

/// The host's speed along a stretch of a run, read by timing the same
/// fixed work ([`yardstick_work`]) between operations. The host this
/// benchmark runs on is shared: the speed of every operation, of CPU
/// time and of the yardstick alike moves by up to 1.6× between
/// stretches of a second or so. A time taken while the yardstick ran
/// `k` times slower than [`YARDSTICK_REF_US`] is divided by `k`, so a
/// reported figure reads what it would at the reference speed.
#[derive(Default)]
pub struct Yardstick {
    probes: Vec<Probe>,
}

impl Yardstick {
    /// Time the yardstick's work once.
    pub fn probe(&mut self) {
        let (start, cpu_start) = (Instant::now(), cpu_ns());
        std::hint::black_box(yardstick_work(self.probes.len() as u64));
        let (end, cpu_end) = (Instant::now(), cpu_ns());
        self.probes.push(Probe {
            start,
            end,
            cpu_start,
            cpu_end,
        });
    }

    fn due(&self) -> bool {
        self.probes
            .last()
            .is_none_or(|p| p.end.elapsed() >= PROBE_EVERY)
    }

    fn durations_us(&self) -> Vec<f64> {
        self.probes.iter().map(|p| us(p.end - p.start)).collect()
    }

    /// The factor over every probe taken.
    fn factor(&self) -> f64 {
        YARDSTICK_REF_US / median(&self.durations_us())
    }

    /// Each probe's factor, from the median of the probes within
    /// [`PROBE_SPAN`] of it.
    fn speed(&self) -> Speed {
        let d = self.durations_us();
        let at = (0..d.len())
            .map(|k| {
                let window = &d[k.saturating_sub(PROBE_SPAN)..(k + PROBE_SPAN + 1).min(d.len())];
                (self.probes[k].start, YARDSTICK_REF_US / median(window))
            })
            .collect();
        Speed { at }
    }

    /// Wall and CPU seconds between the first probe and the last, less
    /// the probes themselves: as measured, and rescaled.
    fn phase(&self, speed: &Speed) -> [f64; 4] {
        let mut t = [0.0; 4];
        for (k, w) in self.probes.windows(2).enumerate() {
            let wall = (w[1].start - w[0].end).as_secs_f64();
            let cpu = w[1].cpu_start.saturating_sub(w[0].cpu_end) as f64 / 1e9;
            let f = speed.at[k].1;
            t[0] += wall;
            t[1] += cpu;
            t[2] += wall * f;
            t[3] += cpu * f;
        }
        t
    }
}

/// Rescaling factors along a timed phase: reference speed over the
/// host's speed, one per probe.
pub struct Speed {
    at: Vec<(Instant, f64)>,
}

impl Speed {
    /// The factor of the last probe started by `t`; the first probe's
    /// for an earlier `t`.
    pub fn at(&self, t: Instant) -> f64 {
        let k = self.at.partition_point(|(start, _)| *start <= t);
        self.at[k.saturating_sub(1)].1
    }
}

// ----------------------------------------------------------------- stats

/// Nearest-rank quantile of `v` (`q` in `[0, 1]`); 0 for no samples.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Wall and CPU time of a whole timed phase (yardstick probes left
/// out) and what it did.
pub struct Timed {
    pub ops: u64,
    pub pubs: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// The same, rescaled to the yardstick's reference speed.
    pub wall_ref_s: f64,
    pub cpu_ref_s: f64,
}

/// Per-(event, subscriber) latency in µs — publish call start to the
/// consumer handler receiving it — for the timed publications, as
/// measured and rescaled.
pub fn e2e_us(
    received: &[Vec<Recv>],
    starts: &[Option<Instant>],
    speed: &Speed,
) -> (Vec<f64>, Vec<f64>) {
    received
        .iter()
        .flatten()
        .filter_map(|r| {
            let t0 = starts.get(r.seq as usize).copied().flatten()?;
            let e2e = us(r.start.saturating_duration_since(t0));
            Some((e2e, e2e * speed.at(t0)))
        })
        .unzip()
}

// ----------------------------------------------------------- closed loop

/// Build a workload's population `n` times, timing each set-up into
/// `j.setup_s` (and, rated by yardstick probes taken right after it,
/// into `j.at_ref.setup_s`) and retiring all but the last, which is
/// returned.
pub fn build<E>(
    n: usize,
    j: &mut Judged,
    mut setup: impl FnMut(&mut Judged) -> E,
    retire: impl Fn(E),
) -> E {
    let mut env = None;
    for _ in 0..n {
        if let Some(old) = env.take() {
            retire(old);
        }
        let t = Instant::now();
        env = Some(setup(j));
        let setup_s = t.elapsed().as_secs_f64();
        let mut yardstick = Yardstick::default();
        for _ in 0..SETUP_PROBES {
            yardstick.probe();
        }
        j.setup_s.push(setup_s);
        j.at_ref.setup_s.push(setup_s * yardstick.factor());
    }
    env.expect("at least one set-up")
}

/// What the closed loop of [`drive`] observed, beyond what it put in
/// [`Judged`].
pub struct Driven {
    /// Start time of each timed publication, by sequence number, for
    /// the e2e latencies.
    pub starts: Vec<Option<Instant>>,
    /// Operations whose call failed.
    pub failed: HashSet<u32>,
    /// Harness spans around every call (traced run only).
    pub ops: Vec<OpSpan>,
    /// The host's speed along the timed phase.
    pub speed: Speed,
}

/// Run a workload's `n` operations as a closed loop: `op(i)` performs
/// operation `i` and returns its span name (`"publish"` marks a
/// publication) and whether the call succeeded. Times every call after
/// the first `warmup` into `j`, and the whole timed phase on the wall
/// and CPU clocks, probing the [`Yardstick`] between calls every
/// [`PROBE_EVERY`] to rescale them. In [`Mode::Traced`] it records a span per call; in
/// [`Mode::Counted`] it counts allocations and network trace records
/// over the timed phase.
pub fn drive(
    n: usize,
    warmup: usize,
    mode: Mode,
    net: &Network,
    j: &mut Judged,
    mut op: impl FnMut(usize) -> (&'static str, bool),
) -> Driven {
    let mut out = Driven {
        starts: vec![None; n],
        failed: HashSet::new(),
        ops: Vec::new(),
        speed: Speed { at: Vec::new() },
    };
    let mut counted = None;
    let mut yardstick = Yardstick::default();
    // The yardstick's own allocations are not the program's.
    let probe = |yardstick: &mut Yardstick| {
        COUNT_ALLOCS.store(false, Ordering::Relaxed);
        yardstick.probe();
        COUNT_ALLOCS.store(mode == Mode::Counted, Ordering::Relaxed);
    };
    let (mut publish_at, mut mgmt_at) = (Vec::new(), Vec::new());
    let mut pubs = 0;
    for i in 0..n {
        if i == warmup {
            if mode == Mode::Counted {
                counted = Some((wsm_bench::alloc_counters(), net.count_outcomes(|_| true)));
            }
            probe(&mut yardstick);
        } else if i > warmup && yardstick.due() {
            probe(&mut yardstick);
        }
        let t0 = Instant::now();
        let (name, ok) = op(i);
        let t1 = Instant::now();
        j.attempted += 1;
        if !ok {
            out.failed.insert(i as u32);
        }
        if i >= warmup {
            if name == "publish" {
                pubs += 1;
                out.starts[i] = Some(t0);
                j.publish_us.push(us(t1 - t0));
                publish_at.push(t0);
            } else {
                j.mgmt_us.push(us(t1 - t0));
                mgmt_at.push(t0);
            }
        }
        if mode == Mode::Traced {
            out.ops.push(OpSpan {
                name,
                trace: i as u32,
                start: t0,
                end: t1,
            });
        }
    }
    assert!(warmup < n, "a timed phase of at least one operation");
    probe(&mut yardstick);
    out.speed = yardstick.speed();
    let speed = &out.speed;
    let [wall_s, cpu_s, wall_ref_s, cpu_ref_s] = yardstick.phase(speed);
    j.timed = Some(Timed {
        ops: (n - warmup) as u64,
        pubs,
        wall_s,
        cpu_s,
        wall_ref_s,
        cpu_ref_s,
    });
    let rescale = |v: &[f64], at: &[Instant]| -> Vec<f64> {
        v.iter().zip(at).map(|(x, t)| x * speed.at(*t)).collect()
    };
    j.at_ref.publish_us = rescale(&j.publish_us, &publish_at);
    j.at_ref.mgmt_us = rescale(&j.mgmt_us, &mgmt_at);
    if let Some(((a0, b0), records0)) = counted {
        COUNT_ALLOCS.store(false, Ordering::Relaxed);
        let (a1, b1) = wsm_bench::alloc_counters();
        j.allocs = (a1 - a0, b1 - b0);
        j.trace_records = (net.count_outcomes(|_| true) - records0) as u64;
    }
    out
}

/// Check the consumers' logs against the reference model and fill in
/// the failure count, e2e latencies and verdict. `failed` holds the
/// operations whose call already failed; a publication with a delivery
/// violation joins them, so an operation counts once.
pub fn conclude<B>(
    mut j: Judged,
    net: Network,
    broker: B,
    consumers: &[Arc<Consumer>],
    expected: &[Vec<u32>],
    mut driven: Driven,
    uris: Vec<String>,
) -> Run<B> {
    let received: Vec<Vec<Recv>> = consumers.iter().map(|c| c.take()).collect();
    driven.failed.extend(check_deliveries(expected, &received));
    j.failed += driven.failed.len() as u64;
    (j.e2e_us, j.at_ref.e2e_us) = e2e_us(&received, &driven.starts, &driven.speed);
    Run {
        correct: j.failed == 0,
        judged: j,
        net,
        broker,
        received,
        ops: driven.ops,
        uris,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Thirty probes at the reference speed, then thirty at half of it,
    /// one every 10 ms, with the CPU busy throughout.
    fn two_speeds() -> (Instant, Yardstick) {
        let t0 = Instant::now();
        let probes = (0..60u64)
            .map(|k| {
                let start = k * 10_000;
                let took = if k < 30 { 100 } else { 200 };
                Probe {
                    start: t0 + Duration::from_micros(start),
                    end: t0 + Duration::from_micros(start + took),
                    cpu_start: start * 1_000,
                    cpu_end: (start + took) * 1_000,
                }
            })
            .collect();
        (t0, Yardstick { probes })
    }

    #[test]
    fn yardstick_rescales_each_stretch_by_its_own_speed() {
        let (t0, yardstick) = two_speeds();
        let speed = yardstick.speed();
        assert_eq!(speed.at(t0), 1.0);
        assert_eq!(speed.at(t0 + Duration::from_millis(100)), 1.0);
        assert_eq!(speed.at(t0 + Duration::from_millis(500)), 0.5);
        assert_eq!(speed.at(t0 + Duration::from_secs(9)), 0.5);

        let [wall, cpu, wall_ref, cpu_ref] = yardstick.phase(&speed);
        // 59 gaps between probes, each 10 ms less the probe before it.
        let slow_gap = 0.01 - 200e-6;
        assert!((wall - (30.0 * (0.01 - 100e-6) + 29.0 * slow_gap)).abs() < 1e-9);
        assert!((cpu - wall).abs() < 1e-9);
        // A gap takes the factor of the probe before it; the windows
        // that straddle the change have their median on that probe's
        // side of it.
        let at_ref = 30.0 * (0.01 - 100e-6) + 29.0 * slow_gap * 0.5;
        assert!((wall_ref - at_ref).abs() < 1e-9);
        assert!((cpu_ref - wall_ref).abs() < 1e-9);
    }
}
