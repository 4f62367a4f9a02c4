//! Operation bookkeeping shared by every workload, and the result one
//! run of one world hands back.

use std::collections::BTreeMap;

use xrdma_core::XrdmaMsg;
use xrdma_sim::Time;

use crate::rng::checksum;

/// Every 64th measured request carries a seeded real payload whose
/// checksum the server echoes back.
pub const CHECK_EVERY: u64 = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpState {
    Outstanding,
    Done,
    Failed,
}

/// What a response callback needs to settle its operation.
#[derive(Clone, Copy, Debug)]
pub struct OpTag {
    pub id: u64,
    /// Open loop: when the op was due. Closed loop: when it was issued.
    pub due: Time,
    /// Checksum of the real payload, for checked requests.
    pub expect: Option<u64>,
    /// Set-up op (first op of a channel or slot), outside the measurement.
    pub warm: bool,
}

/// Outcome of the measured operations of one world. Everything here
/// is in virtual time or a count, so it is identical for a given seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ops {
    pub attempted: u64,
    pub completed: u64,
    /// API errors, error responses (closed or dead channel) and ops left
    /// outstanding after the drain.
    pub failed: u64,
    /// Latency of every completed measured op, sorted (virtual ns).
    pub lat_ns: Vec<u64>,
    /// Ops completed inside the measured span, and their payload bytes
    /// (request + response, no headers, no retransmissions).
    pub done_in_span: u64,
    pub bytes_in_span: u64,
    pub span_ns: u64,
    /// From the first connect/open until every channel (or mux slot) has
    /// completed its first op.
    pub ready_ns: u64,
    /// Running hash of the generated schedule (due time, target) — the
    /// inputs the seed produced.
    pub schedule_hash: u64,
}

/// Live bookkeeping while a world runs.
#[derive(Debug, Default)]
pub struct Book {
    state: Vec<OpState>,
    pub span_end: Time,
    pub ops: Ops,
    failed_api: u64,
    failed_closed: u64,
    failed_drain: u64,
    pub warm_sent: u64,
    pub warm_done: u64,
    pub last_warm_done: Time,
    pub checks_sent: u64,
    pub checked: u64,
    pub server_checked: u64,
    pub errors: Vec<String>,
}

impl Book {
    /// Register a new measured op; returns its id.
    pub fn begin(&mut self) -> u64 {
        let id = self.state.len() as u64;
        self.state.push(OpState::Outstanding);
        self.ops.attempted += 1;
        id
    }

    /// Fold one generated input into the schedule hash.
    pub fn note_schedule(&mut self, due: Time, target: u64) {
        let h = &mut self.ops.schedule_hash;
        for v in [due.nanos(), target] {
            *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(17);
        }
    }

    /// The send call itself failed.
    pub fn fail_api(&mut self, tag: OpTag, err: impl std::fmt::Debug) {
        if tag.warm {
            self.errors
                .push(format!("set-up op failed to send: {err:?}"));
            return;
        }
        if self.settle(tag.id, OpState::Failed) {
            self.failed_api += 1;
        }
    }

    /// A response (or error notification) arrived at `now`.
    pub fn finish(&mut self, tag: OpTag, now: Time, msg: &XrdmaMsg, req_len: u64, resp_len: u64) {
        if tag.warm {
            if msg.is_error() {
                self.errors.push("set-up op failed".into());
            }
            self.warm_done += 1;
            self.last_warm_done = now;
            return;
        }
        if msg.is_error() {
            if self.settle(tag.id, OpState::Failed) {
                self.failed_closed += 1;
            }
            return;
        }
        if !self.settle(tag.id, OpState::Done) {
            return;
        }
        self.ops.completed += 1;
        self.ops.lat_ns.push(now.since(tag.due).as_nanos());
        if now <= self.span_end {
            self.ops.done_in_span += 1;
            self.ops.bytes_in_span += req_len + resp_len;
        }
        if let Some(expect) = tag.expect {
            self.checked += 1;
            let body = msg.body();
            let echoed = body
                .get(..8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
            if echoed != Some(expect) {
                self.errors.push(format!(
                    "op {}: echoed checksum {echoed:x?} != sent {expect:x}",
                    tag.id
                ));
            }
        }
    }

    /// Server side of a checked request: verify the payload it received.
    pub fn server_check(&mut self, body: &[u8], len: u64, expect: u64) -> u64 {
        self.server_checked += 1;
        let got = checksum(body);
        if got != expect || body.len() as u64 != len {
            self.errors.push(format!(
                "server received a corrupt payload: {} of {len} bytes, checksum {got:x} != {expect:x}",
                body.len()
            ));
        }
        got
    }

    fn settle(&mut self, id: u64, to: OpState) -> bool {
        match self.state.get_mut(id as usize) {
            Some(s) if *s == OpState::Outstanding => {
                *s = to;
                true
            }
            other => {
                let seen = other.map(|s| *s);
                self.errors
                    .push(format!("op {id} settled twice (was {seen:?})"));
                false
            }
        }
    }

    /// End of the drain: whatever is still outstanding has failed. Checks
    /// attempted = completed + failed from independent counters.
    pub fn close(mut self) -> (Ops, Vec<String>) {
        for s in &mut self.state {
            if *s == OpState::Outstanding {
                *s = OpState::Failed;
                self.failed_drain += 1;
            }
        }
        let failed = self.failed_api + self.failed_closed + self.failed_drain;
        self.ops.failed = failed;
        if self.ops.attempted != self.ops.completed + failed {
            self.errors.push(format!(
                "accounting: attempted {} != completed {} + failed {failed}",
                self.ops.attempted, self.ops.completed
            ));
        }
        if failed == 0
            && (self.checked != self.checks_sent || self.server_checked != self.checks_sent)
        {
            self.errors.push(format!(
                "{} checked requests sent, {} verified by the server, {} echoes verified",
                self.checks_sent, self.server_checked, self.checked
            ));
        }
        self.ops.lat_ns.sort_unstable();
        (self.ops, self.errors)
    }
}

/// Metric values by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn insert(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// One run of one world of a workload.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Host ns from the first set-up call until the workload is ready.
    pub setup_ns: u64,
    /// Host ns of each run slice of the measured span, and the ops
    /// completed in it.
    pub slice_host_ns: Vec<u64>,
    pub slice_ops: Vec<u64>,
    pub span_allocs: u64,
    pub span_alloc_bytes: u64,
    pub ops: Ops,
    /// Deterministic per-layer values (counts and ratios of counts).
    pub layers: Metrics,
    pub errors: Vec<String>,
}

impl Rep {
    pub fn span_host_ns(&self) -> u64 {
        self.slice_host_ns.iter().sum()
    }

    pub fn span_ops(&self) -> u64 {
        self.slice_ops.iter().sum()
    }

    /// The values that must repeat exactly for a given seed.
    pub fn digest(&self) -> String {
        format!("{:?}|{:?}", self.ops, self.layers)
    }
}

/// Host ns per op in the last quarter of a span's slices over the first
/// quarter: 1.0 when the cost per op is steady. A quarter without a
/// completed op counts as one op.
pub fn cost_drift(slice_host_ns: &[u64], slice_ops: &[u64]) -> f64 {
    let n = slice_host_ns.len();
    let q = (n / 4).max(1);
    let per_op = |r: std::ops::Range<usize>| {
        let ns: u64 = slice_host_ns[r.clone()].iter().sum();
        let ops: u64 = slice_ops[r].iter().sum();
        ns as f64 / ops.max(1) as f64
    };
    per_op(n - q..n) / per_op(0..q)
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile of a sorted slice (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the `p` percentile.
pub fn beyond(sorted: &[u64], p: f64) -> usize {
    let v = percentile(sorted, p);
    sorted.len() - sorted.partition_point(|&x| x <= v)
}

pub fn median_f64(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.99), 990);
        assert_eq!(percentile(&v, 0.999), 999);
        assert_eq!(beyond(&v, 0.99), 10);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
