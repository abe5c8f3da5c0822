//! The benchmark's own checks: workloads run at default settings only,
//! inputs are a pure function of the seed, and a reduced-size run of
//! every workload passes its correctness check.

use crate::common::Step;
use crate::{churn, fanout, zipf, Mode};

/// Every source a workload executes.
const WORKLOAD_SOURCES: &[(&str, &str)] = &[
    ("common.rs", include_str!("common.rs")),
    ("layers.rs", include_str!("layers.rs")),
    ("fanout.rs", include_str!("fanout.rs")),
    ("zipf.rs", include_str!("zipf.rs")),
    ("churn.rs", include_str!("churn.rs")),
];

/// Knobs and trace trimming a workload must not touch: the benchmark
/// measures the configuration users run, and program state it does
/// not trim (the network's unbounded delivery trace) stays visible in
/// `peak_rss_mb`.
const FORBIDDEN: &[&str] = &[
    "set_send_delay_us",
    "set_dispatch_mode",
    "set_fanout_workers",
    "set_link_policy",
    "set_batch_max",
    "set_fault_tolerance",
    "clear_trace",
    "drain_trace",
];

#[test]
fn workloads_run_at_default_settings() {
    for (file, src) in WORKLOAD_SOURCES {
        for name in FORBIDDEN {
            assert!(!src.contains(name), "{file} uses {name}");
        }
    }
}

/// Sorted `(endpoint, seq)` pairs: the expected-delivery multiset.
fn multiset(expected: &[Vec<u32>]) -> Vec<(usize, u32)> {
    let mut v: Vec<_> = expected
        .iter()
        .enumerate()
        .flat_map(|(e, seqs)| seqs.iter().map(move |&s| (e, s)))
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn fanout_inputs_follow_the_seed() {
    let (a, b, c) = (
        fanout::plan(7, 300),
        fanout::plan(7, 300),
        fanout::plan(8, 300),
    );
    assert_eq!(a, b);
    assert_eq!(
        multiset(&fanout::expected(&a)),
        multiset(&fanout::expected(&b))
    );
    assert_ne!(a, c);
    let pubs = a
        .steps
        .iter()
        .filter(|s| matches!(s, Step::Publish(_)))
        .count();
    assert_eq!(multiset(&fanout::expected(&a)).len(), 256 * pubs);
}

#[test]
fn zipf_inputs_follow_the_seed() {
    let (a, b, c) = (
        zipf::plan_sized(7, 500, 3_000, 360),
        zipf::plan_sized(7, 500, 3_000, 360),
        zipf::plan_sized(8, 500, 3_000, 360),
    );
    assert_eq!(a, b);
    assert_eq!(multiset(&zipf::expected(&a)), multiset(&zipf::expected(&b)));
    assert_ne!(a, c);
    assert_ne!(multiset(&zipf::expected(&a)), multiset(&zipf::expected(&c)));
}

#[test]
fn churn_inputs_follow_the_seed() {
    let (a, b, c) = (
        churn::plan(7, 2_000),
        churn::plan(7, 2_000),
        churn::plan(8, 2_000),
    );
    assert_eq!(a, b);
    assert_eq!(multiset(&a.expected), multiset(&b.expected));
    assert_ne!(a.steps, c.steps);
    assert_ne!(multiset(&a.expected), multiset(&c.expected));
    let lapsing = a
        .steps
        .iter()
        .filter(
            |s| matches!(&s.op, churn::Op::Subscribe { spec, .. } if spec.lease_ms < Some(60_000)),
        )
        .count();
    assert!(lapsing > 0, "some leases are short enough to lapse");
}

#[test]
fn reduced_fanout_run_is_correct() {
    let run = fanout::execute(&fanout::plan(3, 40), Mode::Plain);
    assert!(run.correct);
    assert_eq!(run.judged.failed, 0);
}

#[test]
fn reduced_zipf_run_is_correct() {
    let plan = zipf::plan_sized(3, 200, 2_000, 240);
    let run = zipf::execute(&plan, Mode::Plain, 1);
    assert!(run.correct);
    assert_eq!(run.judged.failed, 0);
    assert!(
        !run.judged.e2e_us.is_empty(),
        "publications reached subscribers"
    );
}

#[test]
fn reduced_churn_run_is_correct() {
    let run = churn::execute(&churn::plan(3, 1_500), Mode::Plain);
    assert!(run.correct);
    assert_eq!(run.judged.failed, 0);
}

#[test]
fn a_wrong_delivery_counts_as_failed() {
    use crate::common::{check_deliveries, Recv};
    let at = std::time::Instant::now();
    let recv = |seq| Recv {
        seq,
        start: at,
        end: None,
        lane: 0,
    };
    let expected = vec![vec![0, 1, 2], vec![1]];
    let ok = check_deliveries(&expected, &[vec![recv(0), recv(1), recv(2)], vec![recv(1)]]);
    assert!(ok.is_empty());
    // Missing 2, duplicated 1, unexpected 5, and 0 after 1.
    let bad = check_deliveries(
        &expected,
        &[vec![recv(1), recv(0), recv(1)], vec![recv(1), recv(5)]],
    );
    let mut bad: Vec<_> = bad.into_iter().collect();
    bad.sort_unstable();
    assert_eq!(bad, vec![0, 1, 2, 5]);
}
