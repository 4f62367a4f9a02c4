//! `lane_incast`: the committed grouped-incast scenario on the lane stack
//! and the threaded shard engine, reached through
//! `xrdma_core::lane::grouped_incast` and the lanes' public state.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use xrdma_core::lane::{grouped_incast, ChanState, HostWorld, IncastSpec, ROLE_BULK};
use xrdma_sim::Time;

use crate::book::{ratio, Ops, Rep};
use crate::trace::span;
use crate::Spec;

pub const NODES: usize = 256;
/// The workload's shape, and the only one that runs threads: two shard
/// workers. The first run of world 0 (its per-layer counts and spans)
/// and the peak-RSS worlds run so.
pub const SHARDS: usize = 2;
/// Every other run (the other worlds, every timed repeat, every set-up
/// sample) runs on one shard, inline on the benchmark's thread. Two
/// workers that spin on a round barrier on a host with two shared cores
/// time the scheduler, not the stack: their wall time spread 25-50 %
/// between runs of the same code. The engine's results do not depend on
/// the shard count, and every repeat of world 0 must reproduce its
/// two-shard first run byte for byte.
pub const TIMED_SHARDS: usize = 1;
/// Set-up runs in steps of this much virtual time until every channel
/// is up.
const READY_STEP_NS: u64 = 10_000;
const SETUP_LIMIT_NS: u64 = 10_000_000;

fn sum(w: &HostWorld, f: impl Fn(&xrdma_core::lane::HostLane) -> u64) -> u64 {
    w.lanes().iter().map(|l| f(&l.state)).sum()
}

fn done(w: &HostWorld) -> u64 {
    sum(w, |s| s.app.rpcs_done)
}

fn payload_bytes(w: &HostWorld) -> u64 {
    sum(w, |s| s.chans.iter().map(|c| c.bytes_recv).sum())
}

/// The lane stack's cumulative counters, read before and after the
/// measured span.
fn counters(w: &HostWorld) -> BTreeMap<&'static str, u64> {
    let qps = |f: fn(&xrdma_rnic::lane::QpLane<xrdma_core::lane::LaneMsg>) -> u64| {
        sum(w, |s| s.rnic.qps.iter().map(f).sum())
    };
    let stats = w.lane_stats();
    BTreeMap::from([
        ("fabric.rx_pkts", sum(w, |s| s.nic.rx_pkts)),
        ("fabric.rx_bytes", sum(w, |s| s.nic.rx_bytes)),
        ("fabric.ecn_marked", sum(w, |s| s.nic.ecn_marked)),
        ("fabric.drops", sum(w, |s| s.nic.dropped)),
        ("payload_bytes", payload_bytes(w)),
        ("rnic.data_pkts_tx", qps(|q| q.tx_frags)),
        ("rnic.retransmissions", qps(|q| q.retransmissions)),
        ("rnic.cnps_received", qps(|q| q.cnps_rx)),
        ("rnic.stale_drops", sum(w, |s| s.rnic.stale_pkts)),
        (
            "lane.window_stalls",
            sum(w, |s| s.chans.iter().map(|c| c.window_stalls).sum()),
        ),
        (
            "lane.probes_sent",
            sum(w, |s| s.chans.iter().map(|c| c.probes_sent).sum()),
        ),
        (
            "lane.rounds",
            stats.iter().map(|s| s.rounds).max().unwrap_or(0),
        ),
        ("lane.executed", stats.iter().map(|s| s.executed).sum()),
        ("lane.cross_sent", stats.iter().map(|s| s.cross_sent).sum()),
    ])
}

/// Events each lane executed so far.
fn executed_by_lane(w: &HostWorld) -> Vec<u64> {
    w.lane_stats().iter().map(|s| s.executed).collect()
}

pub fn lane_incast(seed: u64, spec: &Spec, shards: usize) -> Rep {
    let setup = Instant::now();
    let ispec = IncastSpec::full(NODES, shards, seed);
    let mut w = span("lane.build", 0, || grouped_incast(ispec));
    // Every client opens a bulk channel to its rack's sink and a
    // heartbeat channel to the next rack's sink; each has two ends.
    let racks = ispec.nodes / ispec.group;
    let per_client = if ispec.heartbeat_ns > 0 && racks > 1 {
        2
    } else {
        1
    };
    let expect_chans = 2 * per_client * (ispec.nodes - racks);
    let ready = |w: &HostWorld| {
        let n: usize = w.lanes().iter().map(|l| l.state.chans.len()).sum();
        n == expect_chans
            && w.lanes()
                .iter()
                .all(|l| l.state.chans.iter().all(|c| c.state == ChanState::Up))
    };
    let mut t = 0;
    while !ready(&w) {
        t += READY_STEP_NS;
        if t > SETUP_LIMIT_NS {
            return Rep {
                errors: vec!["lane channels never all came up".into()],
                ..Rep::default()
            };
        }
        span("lane.run.setup", 0, || w.run_until(Time(t)));
    }
    let mut rep = Rep {
        setup_ns: setup.elapsed().as_nanos() as u64,
        ..Rep::default()
    };
    let t0 = t;
    let end = t0 + spec.span_ns;
    let (done0, ev0) = (done(&w), w.total_executed());
    let before = counters(&w);
    let lanes0 = executed_by_lane(&w);
    let (a0, b0) = crate::alloc::totals();
    let mut pending_peak = 0usize;
    for i in 1..=spec.slices {
        let until = t0 + (end - t0) * u64::from(i) / u64::from(spec.slices);
        let before = done(&w);
        let clock = Instant::now();
        span("lane.run", 0, || w.run_until(Time(until)));
        rep.slice_host_ns.push(clock.elapsed().as_nanos() as u64);
        rep.slice_ops.push(done(&w) - before);
        pending_peak = pending_peak.max(w.lanes().iter().map(|l| l.pending()).sum());
    }
    let (a1, b1) = crate::alloc::totals();
    rep.span_allocs = a1 - a0;
    rep.span_alloc_bytes = b1 - b0;
    let after = counters(&w);
    let d = |k: &str| (after[k] - before[k]) as f64;
    let busiest = executed_by_lane(&w)
        .iter()
        .zip(&lanes0)
        .map(|(a, b)| a - b)
        .max()
        .unwrap_or(0);

    // Ops: the closed loop starts at connect, so every RPC of the run
    // counts. An RPC still outstanding on a Dead channel has failed; one
    // in flight on a live channel at the cut is neither.
    let started = sum(&w, |s| s.app.rpcs_started);
    let completed = done(&w);
    let served = sum(&w, |s| s.app.requests_served);
    let mut failed = 0;
    let mut in_flight = 0;
    let mut dead = 0u64;
    let mut chans = 0u64;
    for l in w.lanes() {
        for c in &l.state.chans {
            chans += 1;
            if c.state == ChanState::Dead {
                dead += 1;
                failed += u64::from(c.rpcs_out);
            } else {
                in_flight += u64::from(c.rpcs_out);
            }
        }
    }
    if started != completed + failed + in_flight {
        rep.errors.push(format!(
            "lane accounting: started {started} != done {completed} + outstanding {}",
            failed + in_flight
        ));
    }
    if served > started {
        rep.errors.push(format!(
            "lane served {served} requests but only {started} were started"
        ));
    }
    // RPC latency from the lanes' tx/done records (virtual ns). Ready is
    // when the last bulk channel came up, which is its first `tx` record:
    // no later milestone is reached by every channel, because most never
    // complete an op before keepalive declares them dead.
    let mut tx: HashMap<u64, u64> = HashMap::new();
    let mut lat_ns = Vec::new();
    let mut last_bulk_up = 0;
    for r in w.merged_records() {
        match r.tag {
            "tx" => {
                // Record key: host << 40 | channel << 32 | rpc.
                let (host, chan) = ((r.a >> 40) as usize, ((r.a >> 32) & 0xff) as usize);
                if r.a & 0xffff_ffff == 0 && w.lanes()[host].state.chans[chan].role == ROLE_BULK {
                    last_bulk_up = last_bulk_up.max(r.t.nanos());
                }
                tx.insert(r.a, r.t.nanos());
            }
            "done" => {
                if let Some(t) = tx.remove(&r.a) {
                    lat_ns.push(r.t.nanos() - t);
                }
            }
            _ => {}
        }
    }
    lat_ns.sort_unstable();
    if lat_ns.len() as u64 != completed {
        rep.errors.push(format!(
            "{} RPC latencies recorded for {completed} completed RPCs",
            lat_ns.len()
        ));
    }
    let done_in_span = completed - done0;
    rep.ops = Ops {
        attempted: completed + failed,
        completed,
        failed,
        lat_ns,
        done_in_span,
        bytes_in_span: after["payload_bytes"] - before["payload_bytes"],
        span_ns: end - t0,
        ready_ns: last_bulk_up,
        schedule_hash: 0,
    };

    let events = (w.total_executed() - ev0) as f64;
    let n = done_in_span as f64;
    let l = &mut rep.layers;
    l.insert("sim.events", events);
    l.insert("sim.events_per_op", ratio(events, n));
    l.insert("sim.pending_peak", pending_peak as f64);
    l.insert("fabric.pkts_per_op", ratio(d("fabric.rx_pkts"), n));
    l.insert(
        "fabric.wire_bytes_per_payload_byte",
        ratio(d("fabric.rx_bytes"), d("payload_bytes")),
    );
    for k in [
        "fabric.ecn_marked",
        "fabric.drops",
        "rnic.data_pkts_tx",
        "rnic.cnps_received",
        "rnic.stale_drops",
        "lane.rounds",
        "lane.probes_sent",
        "lane.window_stalls",
    ] {
        l.insert(k, d(k));
    }
    // The downlink backlog peak is over the whole world.
    let backlog_ns = w
        .lanes()
        .iter()
        .map(|l| l.state.nic.max_backlog_ns)
        .max()
        .unwrap_or(0);
    let gbps = w.lanes()[0].state.nic.cfg().line_rate_gbps;
    l.insert(
        "fabric.max_queue_kb",
        backlog_ns as f64 * gbps / 8.0 / 1024.0,
    );
    l.insert(
        "rnic.retx_ratio",
        ratio(d("rnic.retransmissions"), d("rnic.data_pkts_tx")),
    );
    l.insert(
        "core.window_stalls_per_op",
        ratio(d("lane.window_stalls"), n),
    );
    l.insert(
        "lane.events_per_round",
        ratio(d("lane.executed"), d("lane.rounds")),
    );
    l.insert(
        "lane.cross_msgs_per_event",
        ratio(d("lane.cross_sent"), d("lane.executed")),
    );
    l.insert(
        "lane.busiest_share",
        ratio(busiest as f64, d("lane.executed")),
    );
    l.insert("lane.chans_dead", ratio(dead as f64, chans as f64));
    l.insert("lane.in_flight_at_cut", in_flight as f64);
    rep
}
