//! End-to-end and per-layer benchmark of the WS-Messenger broker.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fanout_mediated|zipf_federated|subscription_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for what each workload and metric measures.

mod churn;
mod common;
mod fanout;
mod layers;
mod zipf;

#[cfg(test)]
mod tests;

use common::{median, peak_rss_mb, Timed};
use layers::{Layers, PER_LAYER};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::Ordering;

/// The system allocator, counting through `wsm_bench::CountingAlloc`
/// only while a [`Mode::Counted`] execution has switched counting on,
/// so every other execution pays one relaxed load per allocation and
/// nothing else.
struct Alloc;

// SAFETY: every call is forwarded unchanged to `System`, either
// directly or through `CountingAlloc`, which itself forwards to
// `System` after bumping its counters; a block is always freed by the
// allocator family that produced it (both are `System`).
unsafe impl GlobalAlloc for Alloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if common::COUNT_ALLOCS.load(Ordering::Relaxed) {
            unsafe { wsm_bench::CountingAlloc.alloc(layout) }
        } else {
            unsafe { System.alloc(layout) }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if common::COUNT_ALLOCS.load(Ordering::Relaxed) {
            unsafe { wsm_bench::CountingAlloc.realloc(ptr, layout, new_size) }
        } else {
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

#[global_allocator]
static GLOBAL: Alloc = Alloc;

/// How an execution of a workload is instrumented.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Timed only: the judged run, and the traced invocation's baseline.
    Plain,
    /// Counts allocations and network trace records over the timed
    /// phase; the traced invocation's first execution.
    Counted,
    /// Records a span around every call and inside every consumer
    /// callback.
    Traced,
}

/// What one execution of a workload measured.
#[derive(Default)]
pub struct Judged {
    /// Wall time of each set-up (the population built through SOAP
    /// `Subscribe`), in seconds.
    pub setup_s: Vec<f64>,
    pub timed: Option<Timed>,
    /// Publisher call → return, timed publications, µs.
    pub publish_us: Vec<f64>,
    /// Publish call start → consumer handler, timed publications, µs.
    pub e2e_us: Vec<f64>,
    /// SOAP management round trips in the timed phase, µs.
    pub mgmt_us: Vec<f64>,
    /// The set-up times and samples above rescaled to the yardstick's
    /// reference speed (see [`common::Yardstick`]): what is reported.
    pub at_ref: AtRef,
    pub attempted: u64,
    pub failed: u64,
    /// Allocations and bytes during the timed phase ([`Mode::Counted`]).
    pub allocs: (u64, u64),
    /// Network trace records added during the timed phase
    /// ([`Mode::Counted`]).
    pub trace_records: u64,
}

impl Judged {
    fn timed(&self) -> &Timed {
        self.timed.as_ref().expect("timed phase ran")
    }

    /// Wall seconds per timed operation at the yardstick's reference
    /// speed, so executions made at different host speeds compare.
    pub fn wall_per_op(&self) -> f64 {
        self.timed().wall_ref_s / self.timed().ops as f64
    }

    /// The end-to-end metrics, every time at the reference speed.
    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let (t, r) = (self.timed(), &self.at_ref);
        vec![
            ("setup_s", median(&r.setup_s), "s"),
            ("throughput_pub_s", t.pubs as f64 / t.wall_ref_s, "1/s"),
            ("throughput_ops_s", t.ops as f64 / t.wall_ref_s, "1/s"),
            ("publish_p50_us", median(&r.publish_us), "us"),
            ("e2e_p50_us", median(&r.e2e_us), "us"),
            ("e2e_p90_us", common::quantile(&r.e2e_us, 0.9), "us"),
            ("mgmt_p50_us", median(&r.mgmt_us), "us"),
            ("mgmt_p90_us", common::quantile(&r.mgmt_us, 0.9), "us"),
            ("cpu_us_per_op", t.cpu_ref_s * 1e6 / t.ops as f64, "us"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }
}

/// Set-up times and samples of a [`Judged`] at the reference speed.
#[derive(Default)]
pub struct AtRef {
    pub setup_s: Vec<f64>,
    pub publish_us: Vec<f64>,
    pub e2e_us: Vec<f64>,
    pub mgmt_us: Vec<f64>,
}

/// One execution of a workload: its measurements, its correctness
/// verdict, and the live system it ran on (kept for the traced run's
/// isolated replays).
pub struct Run<B> {
    pub judged: Judged,
    pub correct: bool,
    pub net: wsm_transport::Network,
    pub broker: B,
    pub received: Vec<Vec<common::Recv>>,
    pub ops: Vec<layers::OpSpan>,
    /// Every endpoint the execution registered, for [`common::teardown`].
    pub uris: Vec<String>,
}

/// The traced invocation: a counting execution, which also warms the
/// process (its heap and the allocator's free lists), the traced
/// execution with its isolated replays, then a plain execution of the
/// same inputs as the baseline for `tracing.overhead_pct`. The traced
/// and the baseline executions run with the allocator in the same,
/// non-counting state, so the overhead is that of the spans alone.
fn traced_main<P, B>(
    workload: &str,
    plan: &P,
    execute: impl Fn(&P, Mode) -> Run<B>,
    replay: impl FnOnce(&P, &Run<B>, &mut Layers) -> bool,
) -> Report {
    let (counts, mut correct) = {
        let counted = execute(plan, Mode::Counted);
        common::teardown(&counted.net, counted.uris.clone());
        (counted.judged, counted.correct)
    };
    let run = execute(plan, Mode::Traced);
    let mut layers = Layers::new();
    layers::in_situ(&mut layers, &run.ops, &run.received);
    correct &= replay(plan, &run, &mut layers) && run.correct;
    let discard = [layers::DISCARD_URI.to_string()];
    common::teardown(&run.net, run.uris.iter().cloned().chain(discard));
    let base = execute(plan, Mode::Plain);
    common::teardown(&base.net, base.uris.clone());
    correct &= base.correct;
    common_layers(&mut layers, &counts, &base.judged, &run.judged);
    finish_traced(workload, &run.judged, &run.ops, &run.received, &layers);
    Report::traced(correct, &run.judged, &layers)
}

/// A workload's result for printing.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn judged(correct: bool, j: &Judged) -> Self {
        Report {
            correct,
            attempted: j.attempted,
            failed: j.failed,
            metrics: j.end_to_end(),
        }
    }

    /// The traced run's report: every per-layer metric, in a fixed
    /// order, 0 where the workload has no such layer.
    fn traced(correct: bool, j: &Judged, layers: &Layers) -> Self {
        Report {
            correct,
            attempted: j.attempted,
            failed: j.failed,
            metrics: PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
                .collect(),
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Per-layer figures shared by every workload's traced run: allocation
/// and trace-record rates of the counting execution's timed phase, and
/// the tracing overhead against the plain execution of the same inputs.
fn common_layers(layers: &mut Layers, counted: &Judged, untraced: &Judged, traced: &Judged) {
    let ops = counted.timed().ops.max(1) as f64;
    layers.insert("alloc.per_op", counted.allocs.0 as f64 / ops);
    layers.insert("alloc.bytes_per_op", counted.allocs.1 as f64 / ops);
    layers.insert(
        "transport.trace_records_per_op",
        counted.trace_records as f64 / ops,
    );
    layers.insert(
        "tracing.overhead_pct",
        (traced.wall_per_op() / untraced.wall_per_op() - 1.0) * 100.0,
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.clamp(1, 600),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "fanout_mediated" => fanout::main(args.seed, args.seconds, args.trace),
        "zipf_federated" => zipf::main(args.seed, args.seconds, args.trace),
        "subscription_churn" => churn::main(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!("{}", report.to_json());
}

/// Write the traced run's spans with its summary (tracing overhead and
/// the e2e p99 with its sample count, which is reported, not judged).
fn finish_traced(
    workload: &str,
    traced: &Judged,
    ops: &[layers::OpSpan],
    received: &[Vec<common::Recv>],
    layers: &Layers,
) {
    let samples = traced.e2e_us.len() as f64;
    let p99 = common::quantile(&traced.e2e_us, 0.99);
    eprintln!("perfbench: {workload} traced e2e_p99_us={p99:.1} over {samples} pairs");
    let summary = [
        ("tracing.overhead_pct", layers["tracing.overhead_pct"]),
        ("e2e_p99_us", p99),
        ("e2e_p99_samples", samples),
    ];
    match layers::write_spans(workload, ops, received, &summary) {
        Ok(path) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }
}
