//! The three workloads on the serial (`Rc` world) stack: `rpc_small`,
//! `incast_bulk` and `mux_fanout`. They reach the stack only through its
//! public entry points: `World`, `Fabric`, `XrdmaContext::on_new_node` /
//! `connect` / `listen`, `XrdmaChannel` and `ChannelMux`/`LogicalChannel`.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use xrdma_core::{
    ChannelMux, LogicalChannel, XrdmaChannel, XrdmaConfig, XrdmaContext, XrdmaError, XrdmaMsg,
};
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_rnic::{CmConfig, ConnManager, RnicConfig};
use xrdma_sim::{Dur, SimRng, Time, World};

use crate::book::{ratio, Book, OpTag, Rep, CHECK_EVERY};
use crate::rng::{checksum, Rng};
use crate::trace::{self, span};
use crate::Spec;

const SVC: u16 = 9;
/// Set-up ops get ids in their own range so spans never confuse them
/// with measured ops.
const WARM_ID: u64 = 1 << 63;
/// Connects and first sends are spread over this window (virtual ns) so
/// the set-up is seeded input too.
const CONNECT_JITTER_NS: u64 = 20_000;
/// Give up on set-up after this much virtual time.
const SETUP_LIMIT_NS: u64 = 200_000_000;

/// Request key as both ends can name it: `(client node, rpc id)` on a
/// direct channel, `(lcid, lseq)` on a logical channel.
type Key = (u64, u64);

/// Sends one generated op to target `i`.
type SendFn = Rc<dyn Fn(&Rc<Env>, usize, OpTag, Option<Vec<u8>>)>;

#[derive(Default)]
struct Registry {
    /// Checked requests in flight → checksum of their payload.
    checked: HashMap<Key, u64>,
    /// Traced build only: request key → op id, so server-side spans carry
    /// the op's id.
    ids: HashMap<Key, u64>,
}

/// State shared by the generator, the clients' callbacks and the servers.
struct Env {
    world: Rc<World>,
    book: RefCell<Book>,
    reg: RefCell<Registry>,
    /// Arrival gaps and target choices.
    arrivals: RefCell<Rng>,
    /// Bytes of the checked payloads.
    payloads: RefCell<Rng>,
    req_len: u64,
    resp_len: u64,
    closed_loop: bool,
}

struct Net {
    world: Rc<World>,
    fabric: Rc<Fabric>,
    cm: Rc<ConnManager>,
    rng: SimRng,
}

fn build_net(seed: u64, hosts: u32) -> Net {
    span("setup.world", 0, || {
        let world = World::new();
        let rng = SimRng::new(seed);
        let fabric = Fabric::new(world.clone(), FabricConfig::rack(hosts), &rng);
        let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
        Net {
            world,
            fabric,
            cm,
            rng,
        }
    })
}

fn context(net: &Net, node: u32, cfg: &XrdmaConfig) -> Rc<XrdmaContext> {
    span("setup.context", 0, || {
        XrdmaContext::on_new_node(
            &net.fabric,
            &net.cm,
            NodeId(node),
            RnicConfig::default(),
            cfg.clone(),
            &net.rng,
        )
    })
}

impl Env {
    fn new(
        world: &Rc<World>,
        seed: u64,
        req_len: u64,
        resp_len: u64,
        closed_loop: bool,
    ) -> Rc<Env> {
        Rc::new(Env {
            world: world.clone(),
            book: RefCell::new(Book::default()),
            reg: RefCell::new(Registry::default()),
            arrivals: RefCell::new(Rng::new(seed, 1)),
            payloads: RefCell::new(Rng::new(seed, 2)),
            req_len,
            resp_len,
            closed_loop,
        })
    }

    /// A new op due at `due`: its tag, and its payload when it is a
    /// checked request.
    fn new_op(&self, warm: bool, due: Time) -> (OpTag, Option<Vec<u8>>) {
        let mut book = self.book.borrow_mut();
        if warm {
            book.warm_sent += 1;
            let tag = OpTag {
                id: WARM_ID | book.warm_sent,
                due,
                expect: None,
                warm,
            };
            return (tag, None);
        }
        let id = book.begin();
        let payload = id
            .is_multiple_of(CHECK_EVERY)
            .then(|| self.payloads.borrow_mut().payload(self.req_len as usize));
        if payload.is_some() {
            book.checks_sent += 1;
        }
        let tag = OpTag {
            id,
            due,
            expect: payload.as_deref().map(checksum),
            warm,
        };
        (tag, payload)
    }

    fn sent(&self, tag: OpTag, r: Result<Key, XrdmaError>) {
        match r {
            Ok(key) => {
                let mut reg = self.reg.borrow_mut();
                if let Some(x) = tag.expect {
                    reg.checked.insert(key, x);
                }
                if trace::ON {
                    reg.ids.insert(key, tag.id);
                }
            }
            Err(e) => self.book.borrow_mut().fail_api(tag, e),
        }
    }

    fn settle(&self, tag: OpTag, msg: &XrdmaMsg) {
        span("bench.on_response", tag.id, || {
            self.book
                .borrow_mut()
                .finish(tag, self.world.now(), msg, self.req_len, self.resp_len)
        });
    }

    /// Server side of every request: verify checked payloads, echo their
    /// checksum, answer the rest with a size-only response.
    fn serve(
        &self,
        key: Key,
        msg: &XrdmaMsg,
        reply_span: &'static str,
        reply: impl FnOnce(Option<Bytes>) -> Result<(), XrdmaError>,
    ) {
        let (req, expect) = {
            let mut reg = self.reg.borrow_mut();
            let req = if trace::ON {
                reg.ids.remove(&key).unwrap_or(0)
            } else {
                0
            };
            (req, reg.checked.remove(&key))
        };
        span("bench.on_request", req, || {
            let body = expect.map(|x| {
                let sum = self.book.borrow_mut().server_check(&msg.body(), msg.len, x);
                let mut echo = vec![0u8; self.resp_len as usize];
                echo[..8].copy_from_slice(&sum.to_le_bytes());
                Bytes::from(echo)
            });
            // A failed reply leaves the op outstanding; the drain counts it.
            let _ = span(reply_span, req, || reply(body));
        });
    }
}

/// One request on a direct channel. Closed loop: its completion issues
/// the next request on the same channel until the span ends.
fn send_on_channel(
    env: &Rc<Env>,
    ch: &Rc<XrdmaChannel>,
    node: u32,
    tag: OpTag,
    payload: Option<Vec<u8>>,
) {
    let e2 = env.clone();
    let c2 = ch.clone();
    let on_response = move |_: &Rc<XrdmaChannel>, msg: XrdmaMsg| {
        e2.settle(tag, &msg);
        let now = e2.world.now();
        if e2.closed_loop && !tag.warm && now < e2.book.borrow().span_end {
            let (next, p) = e2.new_op(false, now);
            send_on_channel(&e2, &c2, node, next, p);
        }
    };
    let r = span("core.send", tag.id, || match payload {
        Some(p) => ch.send_request(Bytes::from(p), on_response),
        None => ch.send_request_size(env.req_len, on_response),
    });
    env.sent(tag, r.map(|rpc| (u64::from(node), u64::from(rpc))));
}

fn send_on_logical(env: &Rc<Env>, lc: &Rc<LogicalChannel>, tag: OpTag, payload: Option<Vec<u8>>) {
    let e2 = env.clone();
    let on_response = move |msg: XrdmaMsg| e2.settle(tag, &msg);
    let lseq = lc.seq_state().0;
    let r = span("mux.send", tag.id, || match payload {
        Some(p) => lc.send_request(Bytes::from(p), on_response),
        None => lc.send_request_size(env.req_len, on_response),
    });
    env.sent(tag, r.map(|()| (lc.lcid, lseq)));
}

/// Open-loop generator: Poisson arrivals at `rate_mops`, each sent to a
/// uniformly chosen target, until the measured span ends.
fn arrive(env: Rc<Env>, targets: usize, mean_gap_ns: f64, send: SendFn) {
    let now = env.world.now();
    let target = env.arrivals.borrow_mut().below(targets as u64) as usize;
    env.book.borrow_mut().note_schedule(now, target as u64);
    let (tag, payload) = env.new_op(false, now);
    span("bench.gen", tag.id, || send(&env, target, tag, payload));
    let next = Time(now.nanos() + env.arrivals.borrow_mut().exp_ns(mean_gap_ns));
    if next < env.book.borrow().span_end {
        let w = env.world.clone();
        w.schedule_at(next, move || arrive(env, targets, mean_gap_ns, send));
    }
}

/// Run the world in 50 µs steps until `ready()`.
fn run_until_ready(world: &World, ready: impl Fn() -> bool) -> bool {
    while !ready() {
        if world.now().nanos() > SETUP_LIMIT_NS {
            return false;
        }
        let t = Time(world.now().nanos() + 50_000);
        span("sim.run.setup", 0, || world.run_until(t));
    }
    true
}

/// Every per-layer counter the stack exposes, summed over hosts.
fn counters(
    net: &Net,
    ctxs: &[Rc<XrdmaContext>],
    muxes: &[Rc<ChannelMux>],
) -> BTreeMap<&'static str, u64> {
    let mut c = BTreeMap::new();
    let mut add = |k: &'static str, v: u64| *c.entry(k).or_insert(0) += v;
    add("sim.events", net.world.events_executed());
    let f = net.fabric.stats().snapshot();
    add("fabric.pause_frames", f.pause_frames);
    add("fabric.host_tx_pause", f.host_tx_pause);
    add("fabric.ecn_marked", f.ecn_marked);
    add("fabric.drops", f.drops);
    add("fabric.delivered_pkts", f.delivered_pkts);
    add("fabric.delivered_bytes", f.delivered_bytes);
    for ctx in ctxs {
        let r = ctx.rnic().stats();
        add("rnic.data_pkts_tx", r.data_pkts_tx);
        add("rnic.retransmissions", r.retransmissions);
        add("rnic.cnps_received", r.cnps_received);
        add("rnic.rnr_naks_received", r.rnr_naks_received);
        add("rnic.qp_cache_misses", r.qp_cache_misses);
        add("rnic.qp_cache_hits", r.qp_cache_hits);
        add("rnic.doorbells", r.doorbells);
        add("rnic.posted_wrs", r.posted_wrs);
        add("rnic.stale_drops", r.stale_drops);
        let s = ctx.stats();
        add("core.cq_polls", s.cq_polls);
        add("core.cq_empty_polls", s.cq_empty_polls);
        add("core.events_polled", s.events_polled);
        add("core.busy_poll_ns", s.busy_poll_ns);
        add("core.event_mode_ns", s.event_mode_ns);
        add("core.memcache_occupied", s.memcache_occupied);
        for ch in ctx.channels() {
            let s = ch.stats();
            add("core.window_stalls", s.window_stalls);
            add("core.flowctl_queued", s.flowctl_queued);
            add("core.standalone_acks", s.standalone_acks);
            add("core.small_msgs", s.small_msgs);
            add("core.large_msgs", s.large_msgs);
            add("core.rpcs_completed", s.rpcs_completed);
        }
    }
    for m in muxes {
        let s = m.stats();
        add("mux.establishments", s.establishments);
        add("mux.reestablishments", s.reestablishments);
        add("mux.evictions", s.evictions);
        add("mux.frames_queued", s.frames_queued);
        add("mux.frames_deferred", s.frames_deferred);
        add("mux.dup_drops", s.dup_drops);
        add("mux.pool_peak", s.pool_peak);
    }
    c
}

/// The stack's set-up and measured phases, shared by the three workloads.
struct Run {
    net: Net,
    env: Rc<Env>,
    ctxs: Vec<Rc<XrdmaContext>>,
    muxes: Vec<Rc<ChannelMux>>,
    #[cfg(feature = "telemetry")]
    hub: xrdma_telemetry::HubGuard,
}

impl Run {
    fn new(
        seed: u64,
        hosts: u32,
        cfg: &XrdmaConfig,
        req_len: u64,
        resp_len: u64,
        closed_loop: bool,
    ) -> Run {
        let net = build_net(seed, hosts);
        #[cfg(feature = "telemetry")]
        let hub = xrdma_telemetry::TelemetryHub::install(
            &net.world,
            xrdma_telemetry::HubConfig {
                capture_log: false,
                capture_spans: false,
                ..Default::default()
            },
        );
        let ctxs = (0..hosts).map(|n| context(&net, n, cfg)).collect();
        let env = Env::new(&net.world, seed, req_len, resp_len, closed_loop);
        Run {
            net,
            env,
            ctxs,
            muxes: Vec::new(),
            #[cfg(feature = "telemetry")]
            hub,
        }
    }

    /// Measured span in `spec.slices` run slices, then the drain. `start`
    /// kicks off the load at the span's first instant.
    fn measure(
        self,
        spec: &Spec,
        setup: Instant,
        first_open: Time,
        start: impl FnOnce(&Rc<Env>),
    ) -> Rep {
        let mut rep = Rep {
            setup_ns: setup.elapsed().as_nanos() as u64,
            ..Rep::default()
        };
        let world = self.net.world.clone();
        let t0 = world.now();
        {
            let mut b = self.env.book.borrow_mut();
            b.ops.ready_ns = b.last_warm_done.since(first_open).as_nanos();
            b.ops.span_ns = spec.span_ns;
            b.span_end = Time(t0.nanos() + spec.span_ns);
        }
        let before = counters(&self.net, &self.ctxs, &self.muxes);
        let (a0, b0) = crate::alloc::totals();
        span("bench.gen", 0, || start(&self.env));
        let mut pending_peak = 0usize;
        for i in 1..=spec.slices {
            let until = Time(t0.nanos() + spec.span_ns * u64::from(i) / u64::from(spec.slices));
            let done = self.env.book.borrow().ops.completed;
            let t = Instant::now();
            span("sim.run", 0, || world.run_until(until));
            rep.slice_host_ns.push(t.elapsed().as_nanos() as u64);
            rep.slice_ops
                .push(self.env.book.borrow().ops.completed - done);
            pending_peak = pending_peak.max(world.pending());
        }
        let (a1, b1) = crate::alloc::totals();
        rep.span_allocs = a1 - a0;
        rep.span_alloc_bytes = b1 - b0;
        let after = counters(&self.net, &self.ctxs, &self.muxes);
        let memcache_end = after["core.memcache_occupied"];
        span("sim.run.drain", 0, || {
            world.run_for(Dur::nanos(spec.drain_ns))
        });

        let book = std::mem::take(&mut *self.env.book.borrow_mut());
        let warm = book.warm_done;
        let (ops, errors) = book.close();
        rep.errors = errors;
        let d = |k: &str| after[k].saturating_sub(before[k]) as f64;
        let n = ops.done_in_span as f64;
        let l = &mut rep.layers;
        l.insert("sim.events", d("sim.events"));
        l.insert("sim.events_per_op", ratio(d("sim.events"), n));
        l.insert("sim.pending_peak", pending_peak as f64);
        l.insert("fabric.pkts_per_op", ratio(d("fabric.delivered_pkts"), n));
        l.insert(
            "fabric.wire_bytes_per_payload_byte",
            ratio(d("fabric.delivered_bytes"), ops.bytes_in_span as f64),
        );
        for k in [
            "fabric.ecn_marked",
            "fabric.pause_frames",
            "fabric.host_tx_pause",
            "fabric.drops",
        ] {
            l.insert(k, d(k));
        }
        l.insert(
            "fabric.max_queue_kb",
            self.net.fabric.stats().max_queue_depth() as f64 / 1024.0,
        );
        for k in [
            "rnic.data_pkts_tx",
            "rnic.cnps_received",
            "rnic.rnr_naks_received",
            "rnic.stale_drops",
        ] {
            l.insert(k, d(k));
        }
        l.insert(
            "rnic.retx_ratio",
            ratio(d("rnic.retransmissions"), d("rnic.data_pkts_tx")),
        );
        l.insert(
            "rnic.qp_cache_miss_ratio",
            ratio(
                d("rnic.qp_cache_misses"),
                d("rnic.qp_cache_misses") + d("rnic.qp_cache_hits"),
            ),
        );
        l.insert(
            "rnic.wrs_per_doorbell",
            ratio(d("rnic.posted_wrs"), d("rnic.doorbells")),
        );
        l.insert(
            "core.window_stalls_per_op",
            ratio(d("core.window_stalls"), n),
        );
        l.insert(
            "core.flowctl_queued_per_op",
            ratio(d("core.flowctl_queued"), n),
        );
        l.insert(
            "core.standalone_acks_per_op",
            ratio(d("core.standalone_acks"), n),
        );
        l.insert(
            "core.large_msg_share",
            ratio(
                d("core.large_msgs"),
                d("core.large_msgs") + d("core.small_msgs"),
            ),
        );
        l.insert(
            "core.cq_empty_poll_ratio",
            ratio(d("core.cq_empty_polls"), d("core.cq_polls")),
        );
        l.insert(
            "core.cqes_per_poll",
            ratio(d("core.events_polled"), d("core.cq_polls")),
        );
        l.insert(
            "core.busy_poll_share",
            ratio(
                d("core.busy_poll_ns"),
                d("core.busy_poll_ns") + d("core.event_mode_ns"),
            ),
        );
        l.insert("core.memcache_mb", memcache_end as f64 / 1e6);
        if !self.muxes.is_empty() {
            for k in [
                "mux.establishments",
                "mux.reestablishments",
                "mux.evictions",
                "mux.dup_drops",
            ] {
                l.insert(k, after[k] as f64);
            }
            l.insert("mux.frames_queued_per_op", ratio(d("mux.frames_queued"), n));
            l.insert(
                "mux.frames_deferred_per_op",
                ratio(d("mux.frames_deferred"), n),
            );
            l.insert("mux.pool_peak", after["mux.pool_peak"] as f64);
        } else {
            // Direct channels: the library's own completion count must
            // match the benchmark's (set-up ops included).
            let lib = counters(&self.net, &self.ctxs, &[])["core.rpcs_completed"];
            if ops.failed == 0 && lib != warm + ops.completed {
                rep.errors.push(format!(
                    "library counts {lib} completed RPCs, benchmark {}",
                    warm + ops.completed
                ));
            }
        }
        #[cfg(feature = "telemetry")]
        stage_breakdown(&self.hub, &mut rep);
        rep.ops = ops;
        rep
    }
}

/// The telemetry hub's per-stage latency breakdown (virtual time); the
/// stage sums must add up to the end-to-end sum exactly.
#[cfg(feature = "telemetry")]
fn stage_breakdown(hub: &xrdma_telemetry::HubGuard, rep: &mut Rep) {
    let rows = hub.hub().latency_breakdown();
    let mut stage_sum = 0u128;
    let mut e2e_sum = None;
    for r in &rows {
        if r.stage == "e2e" {
            e2e_sum = Some(r.sum_ns);
            continue;
        }
        stage_sum += r.sum_ns;
        let stage = r.stage;
        rep.layers
            .insert(&format!("stage.{stage}.p50_us"), r.p50_ns as f64 / 1e3);
        rep.layers
            .insert(&format!("stage.{stage}.p99_us"), r.p99_ns as f64 / 1e3);
    }
    if e2e_sum != Some(stage_sum) {
        rep.errors.push(format!(
            "stage sums {stage_sum} ns != e2e sum {e2e_sum:?} ns"
        ));
    }
    let seen = hub.hub().recorder_occupancy().1;
    rep.layers.insert("telemetry.events", seen as f64);
}

/// Direct-channel workloads: `clients` hosts with one channel each into
/// the server (host 0) on one ToR.
struct Direct {
    clients: u32,
    req_len: u64,
    resp_len: u64,
    /// `Some(rate)`: open loop at `rate` Mops/s over all clients.
    /// `None`: closed loop at `depth` requests per client.
    rate_mops: Option<f64>,
    depth: u32,
}

fn direct(seed: u64, spec: &Spec, w: &Direct) -> Rep {
    let setup = Instant::now();
    let cfg = XrdmaConfig::default();
    let run = Run::new(
        seed,
        w.clients + 1,
        &cfg,
        w.req_len,
        w.resp_len,
        w.rate_mops.is_none(),
    );
    let env = run.env.clone();
    {
        let e = env.clone();
        run.ctxs[0].listen(SVC, move |ch| {
            let e = e.clone();
            ch.set_on_request(move |ch, msg, tok| {
                let key = (u64::from(ch.peer.0), u64::from(msg.rpc_id));
                e.serve(key, &msg, "core.respond", |body| match body {
                    Some(b) => ch.respond(tok, b),
                    None => ch.respond_size(tok, e.resp_len),
                });
            });
        });
    }
    let chans: Rc<RefCell<Vec<Option<Rc<XrdmaChannel>>>>> =
        Rc::new(RefCell::new(vec![None; w.clients as usize]));
    let mut jitter = Rng::new(seed, 3);
    let mut first_open = Time(u64::MAX);
    for i in 1..=w.clients {
        let at = Time(jitter.below(CONNECT_JITTER_NS));
        first_open = first_open.min(at);
        let ctx = run.ctxs[i as usize].clone();
        let (e, slots) = (env.clone(), chans.clone());
        run.net.world.schedule_at(at, move || {
            span("core.connect", 0, || {
                ctx.connect(NodeId(0), SVC, move |r| match r {
                    Ok(ch) => {
                        slots.borrow_mut()[i as usize - 1] = Some(ch.clone());
                        let (tag, p) = e.new_op(true, e.world.now());
                        send_on_channel(&e, &ch, i, tag, p);
                    }
                    Err(err) => e.book.borrow_mut().errors.push(format!("connect: {err:?}")),
                })
            });
        });
    }
    let clients = u64::from(w.clients);
    if !run_until_ready(&run.net.world, || env.book.borrow().warm_done == clients) {
        return setup_failed("direct channels never became ready");
    }
    let chans: Vec<Rc<XrdmaChannel>> = chans.borrow().iter().flatten().cloned().collect();
    let (rate, depth) = (w.rate_mops, w.depth);
    run.measure(spec, setup, first_open, move |env| match rate {
        Some(mops) => {
            let send: SendFn = Rc::new(move |env, i, tag, p| {
                send_on_channel(env, &chans[i], i as u32 + 1, tag, p)
            });
            schedule_arrivals(env, clients as usize, mops, send);
        }
        None => {
            for (i, ch) in chans.iter().enumerate() {
                for _ in 0..depth {
                    let (tag, p) = env.new_op(false, env.world.now());
                    send_on_channel(env, ch, i as u32 + 1, tag, p);
                }
            }
        }
    })
}

fn schedule_arrivals(env: &Rc<Env>, targets: usize, mops: f64, send: SendFn) {
    let mean_gap_ns = 1e3 / mops;
    let t0 = env.world.now().nanos();
    let first = Time(t0 + env.arrivals.borrow_mut().exp_ns(mean_gap_ns));
    let e = env.clone();
    env.world
        .schedule_at(first, move || arrive(e, targets, mean_gap_ns, send));
}

fn setup_failed(why: &str) -> Rep {
    Rep {
        errors: vec![why.to_string()],
        ..Rep::default()
    }
}

/// Open loop, 0.2 Mops/s Poisson over 8 clients, 64 B requests and
/// responses into one server.
pub fn rpc_small(seed: u64, spec: &Spec) -> Rep {
    direct(
        seed,
        spec,
        &Direct {
            clients: 8,
            req_len: 64,
            resp_len: 64,
            rate_mops: Some(0.2),
            depth: 0,
        },
    )
}

/// Closed loop, 15 senders × depth 4 of 64 KiB requests (64 B
/// responses) into one sink, with the library's default PFC, DCQCN and
/// flow control.
pub fn incast_bulk(seed: u64, spec: &Spec) -> Rep {
    direct(
        seed,
        spec,
        &Direct {
            clients: 15,
            req_len: 64 * 1024,
            resp_len: 64,
            rate_mops: None,
            depth: 4,
        },
    )
}

/// Logical channels on the one client `ChannelMux`, spread evenly over
/// the servers.
const MUX_LOGICAL: u64 = 16_384;
const MUX_SERVERS: u32 = 8;
const MUX_LANES: u64 = 8;

/// Open loop, 0.2 Mops/s Poisson, each request to a uniformly chosen one
/// of 16 384 logical channels on one `ChannelMux` (pool 64 = 8 peers × 8
/// lanes, SRQ on) leading to 8 servers.
pub fn mux_fanout(seed: u64, spec: &Spec) -> Rep {
    let setup = Instant::now();
    let cfg = XrdmaConfig {
        use_srq: true,
        mux_pool: (u64::from(MUX_SERVERS) * MUX_LANES) as usize,
        mux_lanes: MUX_LANES,
        ..XrdmaConfig::default()
    };
    let mut run = Run::new(seed, MUX_SERVERS + 1, &cfg, 64, 64, false);
    let env = run.env.clone();
    for ctx in &run.ctxs[1..] {
        let mux = ChannelMux::new(ctx, SVC);
        let e = env.clone();
        mux.serve(move |lc, msg, reply| {
            let Some(reply) = reply else { return };
            let key = (lc.lcid, msg.mux.map_or(u64::MAX, |d| d.lseq));
            e.serve(key, &msg, "mux.reply", |body| match body {
                Some(b) => reply.reply(b),
                None => reply.reply_size(e.resp_len),
            });
        });
        run.muxes.push(mux);
    }
    let client = ChannelMux::new(&run.ctxs[0], SVC);
    run.muxes.push(client.clone());
    let per_server = MUX_LOGICAL / u64::from(MUX_SERVERS);
    let logical: Vec<Rc<LogicalChannel>> = (0..MUX_LOGICAL)
        .map(|i| {
            span("mux.open", 0, || {
                client.open(NodeId(1 + (i / per_server) as u32))
            })
        })
        .collect();
    // First op on one logical channel of every (peer, lane) slot.
    let mut jitter = Rng::new(seed, 3);
    for s in 0..u64::from(MUX_SERVERS) {
        for lane in 0..MUX_LANES {
            let lc = logical[(s * per_server + lane) as usize].clone();
            let e = env.clone();
            run.net
                .world
                .schedule_at(Time(jitter.below(CONNECT_JITTER_NS)), move || {
                    let (tag, p) = e.new_op(true, e.world.now());
                    send_on_logical(&e, &lc, tag, p);
                });
        }
    }
    let slots = u64::from(MUX_SERVERS) * MUX_LANES;
    if !run_until_ready(&run.net.world, || env.book.borrow().warm_done == slots) {
        return setup_failed("mux slots never became ready");
    }
    let live = client.stats().pool_live;
    let recv_bytes_per_conn = run.ctxs[0].stats().memcache_occupied as f64 / MUX_LOGICAL as f64;
    let logical = Rc::new(logical);
    let mut rep = run.measure(spec, setup, Time::ZERO, move |env| {
        let send: SendFn = Rc::new(move |env, i, tag, p| send_on_logical(env, &logical[i], tag, p));
        schedule_arrivals(env, MUX_LOGICAL as usize, 0.2, send);
    });
    if live != slots {
        rep.errors
            .push(format!("{live} of {slots} mux slots live after set-up"));
    }
    rep.layers
        .insert("mux.recv_bytes_per_conn", recv_bytes_per_conn);
    rep
}
