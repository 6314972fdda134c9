//! Turns one pass's exchanges into latencies, batch spans and the
//! per-session survivor ledger the correctness gate checks.

use std::collections::{BTreeMap, BTreeSet};

use priu_core::Method;
use priu_server::Response;

use crate::client::Pass;
use crate::json::Json;
use crate::workload::{Op, Plan, WriteOp};

/// Requests of one session that committed under one epoch: one coalesced
/// batch, as the responses describe it.
#[derive(Debug, Clone)]
pub struct Batch {
    pub session: usize,
    pub epoch: u64,
    pub method: Method,
    /// Engine seconds the reply reported.
    pub seconds: f64,
    /// Rows the batch removed (deletions plus retention expiry).
    pub removed: u64,
    /// Rows the batch appended.
    pub added: u64,
    pub requests: usize,
    /// Send-to-response time of the batch's earliest request, in ms.
    pub first_latency_ms: f64,
    first_sent_ns: u64,
}

/// Row accounting of one session, summed from the responses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    pub registered: u64,
    pub applied: u64,
    pub expired: u64,
    pub added: u64,
}

impl Ledger {
    /// Rows the session must hold after every acknowledged write.
    pub fn expected(&self) -> i64 {
        self.registered as i64 - self.applied as i64 - self.expired as i64 + self.added as i64
    }
}

/// Everything the metrics are computed from.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Due-to-response latency of acknowledged writes, ms.
    pub write_ms: Vec<f64>,
    /// Send-to-response round trip of answered predicts, µs.
    pub predict_us: Vec<f64>,
    /// In-process `Server::predict` time next to each wire predict (traced
    /// passes only), µs.
    pub inproc_predict_us: Vec<f64>,
    /// How late the sender woke for each request, ms.
    pub gen_lag_ms: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub attempted: u64,
    /// Error responses plus requests that got no response.
    pub failed: u64,
    pub acked_writes: u64,
    /// Acknowledged writes per second, from the first due time to the last
    /// write response.
    pub goodput_per_s: f64,
    /// Seconds from the first due time to the last write response.
    pub span_s: f64,
    pub batches: Vec<Batch>,
    pub ledgers: Vec<Ledger>,
}

impl Analysis {
    /// Builds the analysis of `pass`, a run of `plan`.
    pub fn new(plan: &Plan, pass: &Pass) -> Self {
        let mut out = Analysis {
            attempted: plan.items.len() as u64,
            ledgers: plan
                .sessions
                .iter()
                .map(|s| Ledger {
                    registered: s.data.num_samples() as u64,
                    ..Ledger::default()
                })
                .collect(),
            ..Analysis::default()
        };
        let mut batches: BTreeMap<(usize, u64), Batch> = BTreeMap::new();
        let mut expiry_counted = BTreeSet::new();
        let mut last_write_ns = 0u64;
        for (item, exchange) in plan.items.iter().zip(&pass.exchanges) {
            out.gen_lag_ms
                .push(exchange.sent_ns.saturating_sub(item.due_ns) as f64 / 1e6);
            if exchange.encode_ns > 0 {
                out.encode_us.push(exchange.encode_ns as f64 / 1e3);
            }
            if exchange.decode_ns > 0 {
                out.decode_us.push(exchange.decode_ns as f64 / 1e3);
            }
            let (Some(recv_ns), Some(response)) = (exchange.recv_ns, &exchange.response) else {
                out.failed += 1;
                continue;
            };
            let rtt_ms = recv_ns.saturating_sub(exchange.sent_ns) as f64 / 1e6;
            // (method, seconds, removed, added, epoch) of a committed write.
            let committed = match (&item.op, response) {
                (Op::Predict, Response::Predicted { .. }) => {
                    out.predict_us.push(rtt_ms * 1e3);
                    if let Some(ns) = exchange.inproc_predict_ns {
                        out.inproc_predict_us.push(ns as f64 / 1e3);
                    }
                    continue;
                }
                (
                    Op::Write(_),
                    Response::Deleted {
                        applied,
                        batch_rows,
                        method,
                        seconds,
                        epoch,
                        ..
                    },
                ) => {
                    out.ledgers[item.session].applied += applied;
                    method.map(|m| (m, *seconds, *batch_rows, 0, *epoch))
                }
                (
                    Op::Write(_),
                    Response::Applied {
                        added,
                        expired,
                        batch_rows,
                        method,
                        seconds,
                        epoch,
                    },
                ) => {
                    out.ledgers[item.session].added += added;
                    // Expiry is batch-level: every request of the batch
                    // reports it, so count it once per epoch.
                    if method.is_some() && expiry_counted.insert((item.session, *epoch)) {
                        out.ledgers[item.session].expired += expired;
                    }
                    method.map(|m| (m, *seconds, *batch_rows, *added, *epoch))
                }
                _ => {
                    out.failed += 1;
                    continue;
                }
            };
            out.acked_writes += 1;
            out.write_ms
                .push(recv_ns.saturating_sub(item.due_ns) as f64 / 1e6);
            last_write_ns = last_write_ns.max(recv_ns);
            let Some((method, seconds, removed, added, epoch)) = committed else {
                continue; // a no-op batch: nothing ran, no epoch advanced
            };
            let batch = batches.entry((item.session, epoch)).or_insert(Batch {
                session: item.session,
                epoch,
                method,
                seconds,
                removed,
                added: 0,
                requests: 0,
                first_latency_ms: rtt_ms,
                first_sent_ns: exchange.sent_ns,
            });
            batch.requests += 1;
            batch.added += added;
            if exchange.sent_ns < batch.first_sent_ns {
                batch.first_sent_ns = exchange.sent_ns;
                batch.first_latency_ms = rtt_ms;
            }
        }
        let first_due = plan.items.first().map_or(0, |item| item.due_ns);
        out.span_s = last_write_ns.saturating_sub(first_due) as f64 / 1e9;
        out.failed += pass.unmatched;
        out.batches = batches.into_values().collect();
        out.finish();
        out
    }

    /// Sorts the samples and derives goodput.
    fn finish(&mut self) {
        self.goodput_per_s = if self.span_s > 0.0 {
            self.acked_writes as f64 / self.span_s
        } else {
            0.0
        };
        for v in [
            &mut self.write_ms,
            &mut self.predict_us,
            &mut self.inproc_predict_us,
            &mut self.gen_lag_ms,
            &mut self.encode_us,
            &mut self.decode_us,
        ] {
            v.sort_by(f64::total_cmp);
        }
    }

    /// One JSON line per request (`kind`, `session`, due/sent/response
    /// times in ns, and the reply's epoch, `batch_rows`, method and
    /// `seconds` for writes) followed by one line per batch.
    pub fn span_lines(&self, plan: &Plan, pass: &Pass) -> Vec<String> {
        let mut lines = Vec::with_capacity(plan.items.len() + self.batches.len());
        for (id, (item, exchange)) in plan.items.iter().zip(&pass.exchanges).enumerate() {
            let mut span = Json::obj();
            span.push("span", "request")
                .push("id", id)
                .push(
                    "kind",
                    match &item.op {
                        Op::Predict => "predict",
                        Op::Write(WriteOp::Delete { .. }) => "delete",
                        Op::Write(WriteOp::Tick { .. }) => "tick",
                    },
                )
                .push("session", plan.sessions[item.session].name.as_str())
                .push("due_ns", item.due_ns)
                .push("sent_ns", exchange.sent_ns)
                .push(
                    "response_ns",
                    exchange.recv_ns.map_or(Json::Null, Json::from),
                )
                .push("encode_ns", exchange.encode_ns)
                .push("decode_ns", exchange.decode_ns);
            match &exchange.response {
                Some(
                    Response::Deleted {
                        batch_rows,
                        method,
                        seconds,
                        epoch,
                        ..
                    }
                    | Response::Applied {
                        batch_rows,
                        method,
                        seconds,
                        epoch,
                        ..
                    },
                ) => {
                    span.push("epoch", *epoch)
                        .push("batch_rows", *batch_rows)
                        .push(
                            "method",
                            method.map_or(Json::Null, |m| Json::from(m.name())),
                        )
                        .push("seconds", *seconds);
                }
                Some(Response::Predicted { epoch, .. }) => {
                    span.push("epoch", *epoch);
                }
                Some(Response::Error { message }) => {
                    span.push("error", message.as_str());
                }
                _ => {}
            }
            lines.push(span.render());
        }
        for batch in &self.batches {
            let mut span = Json::obj();
            span.push("span", "batch")
                .push("session", plan.sessions[batch.session].name.as_str())
                .push("epoch", batch.epoch)
                .push("method", batch.method.name())
                .push("requests", batch.requests)
                .push("removed", batch.removed)
                .push("added", batch.added)
                .push("seconds", batch.seconds)
                .push("first_sent_ns", batch.first_sent_ns)
                .push("first_latency_ms", batch.first_latency_ms);
            lines.push(span.render());
        }
        lines
    }
}
