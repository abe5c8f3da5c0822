//! Delivery tracing.

use std::collections::{HashMap, VecDeque};
use std::fmt;

/// How many of the most recent delivery records a network's trace
/// keeps. Older records are evicted (and counted); the per-outcome
/// counts behind [`Network::count_outcomes`](crate::Network::count_outcomes)
/// cover every record regardless.
pub const TRACE_CAPACITY: usize = 4096;

/// What happened to one delivery attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// Delivered; for requests, the handler produced a response.
    Delivered,
    /// Dropped by injected loss.
    Dropped,
    /// No endpoint registered at the target URI.
    NoEndpoint,
    /// The endpoint refuses inbound connections (firewalled consumer).
    Refused,
    /// The handler returned a SOAP fault.
    Faulted(String),
}

impl DeliveryOutcome {
    /// A short machine-readable tag (`delivered`, `dropped`,
    /// `no_endpoint`, `refused`, `faulted`).
    pub fn tag(&self) -> &'static str {
        match self {
            DeliveryOutcome::Delivered => "delivered",
            DeliveryOutcome::Dropped => "dropped",
            DeliveryOutcome::NoEndpoint => "no_endpoint",
            DeliveryOutcome::Refused => "refused",
            DeliveryOutcome::Faulted(_) => "faulted",
        }
    }
}

impl fmt::Display for DeliveryOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeliveryOutcome::Delivered => write!(f, "delivered"),
            DeliveryOutcome::Dropped => write!(f, "dropped"),
            DeliveryOutcome::NoEndpoint => write!(f, "no endpoint"),
            DeliveryOutcome::Refused => write!(f, "refused (firewalled)"),
            DeliveryOutcome::Faulted(r) => write!(f, "faulted: {r}"),
        }
    }
}

/// One traced delivery attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time at delivery (after latency).
    pub time_ms: u64,
    /// Target endpoint URI.
    pub to: String,
    /// The `wsa:Action` of the message if one was present (any WSA
    /// version), else the body element's local name.
    pub label: String,
    /// Serialized size of the envelope in bytes.
    pub bytes: usize,
    /// Whether this was a request/response exchange (vs one-way).
    pub two_way: bool,
    /// Outcome.
    pub outcome: DeliveryOutcome,
    /// Name of the thread that performed the delivery — a fan-out
    /// worker (`wsm-push-N`) on the parallel path, the publishing or
    /// test thread otherwise. `(unnamed)` for anonymous threads.
    pub worker: String,
}

impl TraceRecord {
    /// The record as one JSON object (no trailing newline).
    ///
    /// Every field is deterministic for a seeded scenario on the
    /// virtual clock (no wall-clock values), which is what lets the
    /// chaos CI job diff two runs' exports byte for byte.
    pub fn to_json(&self) -> String {
        let esc = |s: &str| s.replace('"', "'");
        let mut out = format!(
            "{{\"time_ms\":{},\"to\":\"{}\",\"label\":\"{}\",\"bytes\":{},\"two_way\":{},\"outcome\":\"{}\"",
            self.time_ms,
            esc(&self.to),
            esc(&self.label),
            self.bytes,
            self.two_way,
            self.outcome.tag(),
        );
        if let DeliveryOutcome::Faulted(reason) = &self.outcome {
            out.push_str(&format!(",\"reason\":\"{}\"", esc(reason)));
        }
        out.push_str(&format!(",\"worker\":\"{}\"}}", esc(&self.worker)));
        out
    }
}

/// A network's delivery trace: a ring of the most recent
/// [`TRACE_CAPACITY`] records plus exact per-outcome counts over every
/// record since the last reset.
#[derive(Debug, Default)]
pub(crate) struct TraceLog {
    records: VecDeque<TraceRecord>,
    evicted: u64,
    delivered: u64,
    dropped: u64,
    no_endpoint: u64,
    refused: u64,
    /// Faults are rare and carry a free-form reason, so they are
    /// counted per reason.
    faulted: HashMap<String, u64>,
}

impl TraceLog {
    /// Append one record, evicting the oldest when the ring is full.
    /// Returns whether a record was evicted.
    pub(crate) fn push(&mut self, record: TraceRecord) -> bool {
        match &record.outcome {
            DeliveryOutcome::Delivered => self.delivered += 1,
            DeliveryOutcome::Dropped => self.dropped += 1,
            DeliveryOutcome::NoEndpoint => self.no_endpoint += 1,
            DeliveryOutcome::Refused => self.refused += 1,
            DeliveryOutcome::Faulted(reason) => match self.faulted.get_mut(reason) {
                Some(n) => *n += 1,
                None => {
                    self.faulted.insert(reason.clone(), 1);
                }
            },
        }
        let evicted = self.records.len() == TRACE_CAPACITY;
        if evicted {
            self.records.pop_front();
            self.evicted += 1;
        }
        self.records.push_back(record);
        evicted
    }

    /// Records pushed since the last reset whose outcome satisfies
    /// `pred`, evicted ones included.
    pub(crate) fn count(&self, pred: impl Fn(&DeliveryOutcome) -> bool) -> usize {
        let fixed = [
            (DeliveryOutcome::Delivered, self.delivered),
            (DeliveryOutcome::Dropped, self.dropped),
            (DeliveryOutcome::NoEndpoint, self.no_endpoint),
            (DeliveryOutcome::Refused, self.refused),
        ];
        let fixed: u64 = fixed.iter().filter(|(o, _)| pred(o)).map(|(_, n)| n).sum();
        let faulted: u64 = self
            .faulted
            .iter()
            .filter(|(reason, _)| pred(&DeliveryOutcome::Faulted((*reason).clone())))
            .map(|(_, n)| n)
            .sum();
        (fixed + faulted) as usize
    }

    /// The retained records, oldest first.
    pub(crate) fn records(&self) -> &VecDeque<TraceRecord> {
        &self.records
    }

    /// Records evicted from the ring since the last reset.
    pub(crate) fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Take the retained records and reset every count.
    pub(crate) fn take(&mut self) -> Vec<TraceRecord> {
        std::mem::take(self).records.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(outcome: DeliveryOutcome) -> TraceRecord {
        TraceRecord {
            time_ms: 0,
            to: "http://c".into(),
            label: "l".into(),
            bytes: 1,
            two_way: false,
            outcome,
            worker: "main".into(),
        }
    }

    #[test]
    fn log_keeps_the_newest_records_and_exact_counts() {
        let mut log = TraceLog::default();
        let total = TRACE_CAPACITY + 10;
        for i in 0..total {
            let mut r = record(if i % 2 == 0 {
                DeliveryOutcome::Delivered
            } else {
                DeliveryOutcome::Faulted(format!("r{}", i % 3))
            });
            r.time_ms = i as u64;
            assert_eq!(log.push(r), i >= TRACE_CAPACITY);
        }
        assert_eq!(log.records().len(), TRACE_CAPACITY);
        assert_eq!(log.records()[0].time_ms, 10, "the oldest ten went first");
        assert_eq!(log.evicted(), 10);
        assert_eq!(log.count(|_| true), total);
        assert_eq!(
            log.count(|o| *o == DeliveryOutcome::Delivered),
            total.div_ceil(2)
        );
        let r1 = log.count(|o| *o == DeliveryOutcome::Faulted("r1".into()));
        let faulted = log.count(|o| matches!(o, DeliveryOutcome::Faulted(_)));
        assert_eq!(faulted, total / 2);
        assert!(r1 > 0 && r1 < faulted);
        assert_eq!(log.take().len(), TRACE_CAPACITY);
        assert_eq!(log.count(|_| true), 0, "take resets the counts");
        assert_eq!(log.evicted(), 0);
    }

    #[test]
    fn record_json_is_one_deterministic_object() {
        let r = TraceRecord {
            time_ms: 42,
            to: "http://c".into(),
            label: "urn:go".into(),
            bytes: 100,
            two_way: false,
            outcome: DeliveryOutcome::Faulted("no \"thanks\"".into()),
            worker: "main".into(),
        };
        let json = r.to_json();
        assert_eq!(json, r.to_json());
        assert!(json.starts_with("{\"time_ms\":42,"));
        assert!(json.contains("\"outcome\":\"faulted\""));
        assert!(json.contains("\"reason\":\"no 'thanks'\""));
        assert!(json.ends_with("\"worker\":\"main\"}"));
    }

    #[test]
    fn outcome_display() {
        assert_eq!(DeliveryOutcome::Delivered.to_string(), "delivered");
        assert_eq!(
            DeliveryOutcome::Faulted("x".into()).to_string(),
            "faulted: x"
        );
        assert!(DeliveryOutcome::Refused.to_string().contains("firewalled"));
    }
}
