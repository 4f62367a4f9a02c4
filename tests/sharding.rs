//! Sharded-execution suite (DESIGN.md §3.15): the threaded `ShardWorld`
//! lane engine, where rounds really execute on worker threads under
//! conservative lookahead, must produce *byte-identical* artifacts —
//! determinism digests, telemetry JSONL, span JSONL, lane stats — at
//! every shard count, proving the mailbox merge protocol is
//! interleaving-invariant. The muxed Rc-world incast, a single lane,
//! is byte-compared across the wheel and `Legacy` calendars.
//!
//! The proptests at the bottom hammer the lane engine with random
//! topologies and shard counts: cross-lane delivery keeps per-pair FIFO
//! order, nothing ever lands below the lookahead horizon, and no lane
//! starves short of the deadline.

use std::cell::Cell;
use std::rc::Rc;

use xrdma_core::{ChannelMux, XrdmaConfig, XrdmaContext};
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_rnic::{CmConfig, ConnManager, RnicConfig};
use xrdma_sim::shard::HOP_NS;
use xrdma_sim::{Dur, Kernel, Lane, ShardConfig, ShardWorld, SimRng, Time, World};

// ---------------------------------------------------------------------------
// The threaded lane engine: differential + flaky-guard
// ---------------------------------------------------------------------------

/// The reference 33-lane incast on the *threaded* engine.
fn model_digest(shards: usize) -> String {
    let mut w = xrdma_sim::shard::incast(33, shards, 90125);
    w.run_until(Time(1_500_000));
    w.digest()
}

#[test]
fn lane_engine_digest_identical_across_shard_counts() {
    let base = model_digest(1);
    for shards in [2usize, 4, 8] {
        let got = model_digest(shards);
        assert_identical(&base, &got, &format!("shards={shards} vs serial"));
    }
    assert!(
        base.contains("\"ev\":\"done\""),
        "RPCs actually completed:\n{base}"
    );
}

/// Flaky-guard: thread-interleaving nondeterminism is exactly the bug
/// class a single green run can hide, so the 8-shard digest runs three
/// times in-process. A mismatch reports the first diverging line pair —
/// the first event whose order flipped — not just "digests differ".
#[test]
fn lane_engine_shards8_stable_across_three_reruns() {
    let base = model_digest(8);
    for round in 1..3 {
        let got = model_digest(8);
        assert_identical(&base, &got, &format!("shards=8 rerun #{round}"));
    }
}

// ---------------------------------------------------------------------------
// The real middleware stack on threaded lanes (xrdma_core::lane)
// ---------------------------------------------------------------------------

/// The ported stack — channels/seq-ack, QP/CQ/DCQCN, NIC endpoints,
/// CM, keepalive — running the grouped-incast workload on the threaded
/// engine. Every observable artifact (digest, telemetry records JSONL,
/// derived span JSONL, per-lane round/mailbox stats) must be
/// byte-identical at every shard count.
mod lane_stack {
    use super::assert_identical;
    use xrdma_core::lane::{grouped_incast, spans_jsonl, HostWorld, IncastSpec};
    use xrdma_sim::Time;

    fn world(shards: usize, drop_every: u64) -> HostWorld {
        let mut spec = IncastSpec::full(32, shards, 90125);
        spec.group = 8;
        spec.rpc_size = 16 * 1024;
        spec.heartbeat_ns = 150_000;
        spec.drop_every = drop_every;
        let mut w = grouped_incast(spec);
        w.run_until(Time(2_000_000));
        w
    }

    #[test]
    fn full_stack_artifacts_identical_at_every_shard_count() {
        let base = world(1, 0);
        let (digest, records, spans) = (base.digest(), base.records_jsonl(), spans_jsonl(&base));
        let stats = format!("{:?}", base.lane_stats());
        assert!(digest.contains("Up"), "channels connected:\n{digest}");
        assert!(spans.contains("\"span\":\"rpc\""), "spans derived");
        for shards in [2usize, 4, 8] {
            let w = world(shards, 0);
            assert_identical(&digest, &w.digest(), &format!("stack digest s={shards}"));
            assert_identical(
                &records,
                &w.records_jsonl(),
                &format!("telemetry JSONL s={shards}"),
            );
            assert_identical(&spans, &spans_jsonl(&w), &format!("span JSONL s={shards}"));
            // Rounds, mailbox send/recv and executed counts are part of
            // the determinism contract too — imbalance diagnostics must
            // not depend on which engine produced them.
            assert_eq!(
                stats,
                format!("{:?}", w.lane_stats()),
                "lane stats s={shards}"
            );
        }
    }

    /// Chaos leg: deterministic packet loss on every host NIC. Go-back-N
    /// must recover (retransmissions observed, RPCs still complete) and
    /// the lossy run must stay byte-identical on threaded lanes.
    #[test]
    fn full_stack_loss_chaos_identical_and_recovers() {
        let base = world(1, 211);
        let retx: u64 = base
            .lanes()
            .iter()
            .flat_map(|l| l.state.rnic.qps.iter())
            .map(|q| q.retransmissions)
            .sum();
        assert!(retx > 0, "drop knob must force go-back-N recovery");
        let done: u64 = base.lanes().iter().map(|l| l.state.app.rpcs_done).sum();
        assert!(done > 100, "RPCs complete despite loss: {done}");
        let digest = base.digest();
        for shards in [4usize, 8] {
            let w = world(shards, 211);
            assert_identical(&digest, &w.digest(), &format!("lossy digest s={shards}"));
        }
    }

    /// The workload must actually exercise the mailbox protocol: every
    /// lane sends and receives cross-lane events (bulk racks + the
    /// cross-rack heartbeat mesh), at every shard count.
    #[test]
    fn every_lane_exchanges_cross_lane_traffic() {
        let w = world(4, 0);
        for s in w.lane_stats() {
            assert!(s.rounds > 0, "lane {} never entered a round", s.lane);
            assert!(s.cross_sent > 0, "lane {} sent nothing cross-lane", s.lane);
            assert!(s.cross_recv > 0, "lane {} got nothing cross-lane", s.lane);
        }
    }
}

// ---------------------------------------------------------------------------
// The muxed Rc-world stack: one lane, compared across both calendars
// ---------------------------------------------------------------------------

/// A deep incast, multiplexed: every client runs 8 logical channels
/// through a 2-slot `ChannelMux` (constant eviction churn, SRQ receive
/// sharing on), on an explicit kernel.
fn mux_incast_digest_on(kernel: Kernel, seed: u64) -> String {
    let world = World::with_kernel(kernel);
    let rng = SimRng::new(seed);
    let fabric = Fabric::new(world.clone(), FabricConfig::rack(9), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    let mut cfg = XrdmaConfig::default();
    cfg.mux_pool = 2;
    cfg.mux_lanes = 4;
    cfg.use_srq = true;
    let mk = |node: u32| {
        XrdmaContext::on_new_node(
            &fabric,
            &cm,
            NodeId(node),
            RnicConfig::default(),
            cfg.clone(),
            &rng,
        )
    };
    let server = mk(0);
    let smux = ChannelMux::new(&server, 7);
    smux.serve(|_, _, reply| {
        if let Some(r) = reply {
            let _ = r.reply_size(128);
        }
    });
    let done = Rc::new(Cell::new(0u64));
    let mut client_muxes = Vec::new();
    for i in 1..9u32 {
        let c = mk(i);
        let m = ChannelMux::new(&c, 7);
        let logicals: Vec<_> = (0..8).map(|_| m.open(NodeId(0))).collect();
        client_muxes.push((c, m, logicals));
    }
    world.run_for(Dur::millis(30));
    for (_, _, logicals) in &client_muxes {
        for lc in logicals {
            for _ in 0..4 {
                let d = done.clone();
                lc.send_request_size(4096, move |_| d.set(d.get() + 1))
                    .expect("send accepted");
            }
        }
    }
    world.run_for(Dur::millis(500));
    assert_eq!(
        done.get(),
        8 * 8 * 4,
        "muxed incast completes on {kernel:?}"
    );

    let mut out = String::new();
    out.push_str(&serde_json::to_string(&fabric.stats().snapshot()).expect("json"));
    out.push('\n');
    out.push_str(&serde_json::to_string(&smux.stats()).expect("json"));
    for (ctx, m, _) in &client_muxes {
        out.push('\n');
        out.push_str(&serde_json::to_string(&ctx.stats()).expect("json"));
        out.push('\n');
        out.push_str(&serde_json::to_string(&m.stats()).expect("json"));
        out.push('\n');
        out.push_str(&serde_json::to_string(&ctx.rnic().stats()).expect("json"));
    }
    out.push_str(&format!(
        "\ntime={} events={}",
        world.now().nanos(),
        world.events_executed()
    ));
    out
}

/// The `ChannelMux` runs on the serial Rc-world stack, which is a single
/// lane: its shard count is always 1, and the calendars it can run on
/// are the timer wheel and the `Legacy` heap. The muxed digest — mux
/// counters included — must be byte-identical on both and on a wheel
/// rerun, proving the mux's slot machinery introduces no dependence on
/// calendar order.
#[test]
fn mux_digest_identical_across_shard_counts() {
    let base = mux_incast_digest_on(Kernel::Wheel, 2718);
    assert!(
        base.contains("\"evictions\""),
        "mux stats present in digest"
    );
    assert_identical(
        &base,
        &mux_incast_digest_on(Kernel::Wheel, 2718),
        "muxed Wheel rerun",
    );
    assert_identical(
        &base,
        &mux_incast_digest_on(Kernel::Legacy, 2718),
        "muxed Legacy vs Wheel",
    );
}

/// Byte-compare two digests; on mismatch, dump the first diverging line
/// pair (the earliest reordered/dropped event) for forensics.
fn assert_identical(base: &str, got: &str, what: &str) {
    if base == got {
        return;
    }
    for (i, (b, g)) in base.lines().zip(got.lines()).enumerate() {
        if b != g {
            panic!(
                "{what}: first divergence at line {}:\n  base: {b}\n  got:  {g}",
                i + 1
            );
        }
    }
    panic!(
        "{what}: one digest is a prefix of the other ({} vs {} lines)",
        base.lines().count(),
        got.lines().count()
    );
}

// ---------------------------------------------------------------------------
// Proptests: random topologies × shard counts
// ---------------------------------------------------------------------------

/// Random-gossip lane state. `n` is the topology size (lanes can't see
/// the world, so it rides in the state); `got` records every delivery as
/// `(src, k, measured_delay)` where `k` is the sender's per-lane message
/// index and the delay is measured at the receiver.
#[derive(Clone, Debug)]
struct GossipState {
    n: u32,
    sent: u64,
    got: Vec<(u32, u64, u64)>,
}

const LOOKAHEAD_NS: u64 = 2 * HOP_NS;

/// Each lane sends to a random peer and reschedules itself forever. The
/// cross-lane delay is a *pure function of the (src, dst) pair*, so
/// deliveries for a given pair must arrive in send order — the per-pair
/// FIFO property the proptest checks.
fn gossip_tick(lane: &mut Lane<GossipState>) {
    let me = lane.id();
    let n = lane.state.n;
    let k = lane.state.sent;
    lane.state.sent += 1;
    let mut dst = lane.rng.next_below(u64::from(n) - 1) as u32;
    if dst >= me {
        dst += 1;
    }
    let delay = Dur::nanos(LOOKAHEAD_NS * (1 + (u64::from(me) + u64::from(dst)) % 3));
    let sent_at = lane.now().nanos();
    lane.send_to(dst, delay, move |l| {
        let measured = l.now().nanos().saturating_sub(sent_at);
        l.state.got.push((me, k, measured));
    });
    let think = Dur::nanos(700 + lane.rng.next_below(4_000));
    lane.schedule_in(think, gossip_tick);
}

fn gossip(lanes: usize, shards: usize, seed: u64, deadline: Time) -> ShardWorld<GossipState> {
    let cfg = ShardConfig {
        shards,
        lookahead: Dur::nanos(LOOKAHEAD_NS),
    };
    let states = (0..lanes)
        .map(|_| GossipState {
            n: lanes as u32,
            sent: 0,
            got: Vec::new(),
        })
        .collect();
    let mut w = ShardWorld::new(cfg, seed, states);
    for i in 0..lanes {
        let lane = w.lane_mut(i);
        let start = Time(1 + lane.rng.next_below(2_000));
        lane.schedule_at(start, gossip_tick);
    }
    w.run_until(deadline);
    w
}

proptest::proptest! {
    /// Any topology, any shard count: the run is byte-identical to the
    /// serial (shards=1) execution of the same seed.
    #[test]
    fn random_topology_matches_serial(
        lanes in 2usize..16,
        shards in 2usize..=4,
        seed in proptest::prelude::any::<u64>(),
    ) {
        let deadline = Time(60_000);
        let serial = gossip(lanes, 1, seed, deadline);
        let sharded = gossip(lanes, shards, seed, deadline);
        proptest::prop_assert_eq!(serial.digest(), sharded.digest());
    }

    /// Delivery-order and liveness invariants hold on the threaded path:
    /// per-pair FIFO, nothing below the lookahead horizon, no starved
    /// lane, and the workload actually crossed lanes.
    #[test]
    fn delivery_order_and_liveness(
        lanes in 2usize..16,
        shards in 2usize..=4,
        seed in proptest::prelude::any::<u64>(),
    ) {
        let deadline = Time(60_000);
        let w = gossip(lanes, shards, seed, deadline);
        let mut crossings = 0u64;
        for lane in w.lanes() {
            // Liveness: every lane reached the deadline.
            proptest::prop_assert_eq!(lane.now(), deadline);
            let mut last_k: std::collections::BTreeMap<u32, u64> =
                std::collections::BTreeMap::new();
            for &(src, k, measured) in &lane.state.got {
                crossings += 1;
                // Horizon: never delivered earlier than send + L.
                proptest::prop_assert!(
                    measured >= LOOKAHEAD_NS,
                    "lane {} got a message from {} after {}ns < lookahead {}ns",
                    lane.id(), src, measured, LOOKAHEAD_NS
                );
                // Per-pair FIFO: constant pair delay ⇒ send order is
                // delivery order, so sender indices strictly increase.
                if let Some(prev) = last_k.insert(src, k) {
                    proptest::prop_assert!(
                        k > prev,
                        "pair {}→{} delivered k={} after k={}",
                        src, lane.id(), k, prev
                    );
                }
            }
        }
        proptest::prop_assert!(crossings > 0, "gossip must actually cross lanes");
    }
}
