//! End-to-end and per-layer benchmark of the X-RDMA middleware stack.
//!
//! A workload is `Spec::worlds` independent worlds, each built fresh from
//! a seed derived from the run's seed: set-up, a fixed measured span of
//! virtual time, then a drain. Virtual-time results pool those worlds.
//! Host time comes from every world run but the first, the worlds
//! repeated in turn until the wall-clock budget is spent, each normalised
//! by a reference sample taken next to it; every repeat of a world must
//! reproduce its virtual results byte for byte. See README.md for the
//! metric map.

pub mod alloc;
pub mod book;
pub mod lane;
pub mod reference;
pub mod rng;
pub mod serial;
pub mod trace;

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use book::{beyond, cost_drift, median_f64, percentile, ratio, Metrics, Rep};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The shape of a workload, in virtual time.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Measured span of each world, from the instant it is ready.
    pub span_ns: u64,
    /// After the span: no new ops, outstanding ones may still finish.
    pub drain_ns: u64,
    /// The span is run in this many slices (host-cost drift resolution).
    pub slices: u32,
    /// Independent worlds pooled for the virtual metrics (world 0 uses
    /// the run's seed).
    pub worlds: u32,
}

pub const WORKLOADS: [&str; 4] = ["rpc_small", "incast_bulk", "mux_fanout", "lane_incast"];

/// The committed shape of each workload. The open-loop workloads pool
/// twenty 60 ms worlds (about 240 000 ops), so p99.9 has over 200
/// samples beyond it and no single burst of Poisson arrivals decides it.
/// `lane_incast` completes about 1 100 RPCs per world before it wedges
/// (see README.md, defect 2), so it pools ten worlds to have p99.9 rest
/// on ten samples beyond it.
pub fn spec_for(workload: &str) -> Option<Spec> {
    let ms = 1_000_000;
    let (span_ns, drain_ns, worlds) = match workload {
        "rpc_small" | "mux_fanout" => (60 * ms, 5 * ms, 20),
        "incast_bulk" => (240 * ms, 20 * ms, 2),
        "lane_incast" => (6 * ms, 0, 10),
        _ => return None,
    };
    Some(Spec {
        span_ns,
        drain_ns,
        slices: 16,
        worlds,
    })
}

/// Seed of world `k`; world 0 runs on the run's seed.
pub fn world_seed(seed: u64, k: u32) -> u64 {
    if k == 0 {
        seed
    } else {
        rng::Rng::new(seed, 100 + u64::from(k)).next_u64()
    }
}

/// One world of `workload`. `shards` is the lane stack's shard count
/// (`lane_incast` only; the serial workloads run on one thread).
pub fn run_world(workload: &str, seed: u64, spec: &Spec, shards: usize) -> Rep {
    match workload {
        "rpc_small" => serial::rpc_small(seed, spec),
        "incast_bulk" => serial::incast_bulk(seed, spec),
        "mux_fanout" => serial::mux_fanout(seed, spec),
        "lane_incast" => lane::lane_incast(seed, spec, shards),
        other => panic!("unknown workload {other}"),
    }
}

/// The flags that make the benchmark binary run one job in a fresh
/// process and print one number: a reference sample (ns per event), and
/// the peak RSS (MB) of one world, `--peak-rss <workload> <seed>`.
pub const REFERENCE_FLAG: &str = "--reference";
pub const PEAK_RSS_FLAG: &str = "--peak-rss";

/// Run this binary on `args` in a fresh process, wait for it and read the
/// one positive number it prints.
pub fn in_child(args: &[&str]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("{args:?}: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{args:?}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(x) if out.status.success() && x > 0.0 => Ok(x),
        _ => Err(format!(
            "{args:?} exited with {} and printed {text:?}",
            out.status
        )),
    }
}

/// The `--peak-rss` process: one world of `workload` on `seed`, then
/// the process's peak RSS.
pub fn peak_rss_child(workload: &str, seed: u64) -> Result<f64, String> {
    let spec = spec_for(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let w = run_world(workload, seed, &spec, lane::SHARDS);
    if let Some(e) = w.errors.first() {
        return Err(e.clone());
    }
    alloc::peak_rss_mb()
}

/// Peak RSS is taken over this many worlds, each in a fresh process: it
/// depends on the world's seed, and one seed would decide the figure.
const RSS_WORLDS: u32 = 5;
/// At least this many timed world runs, however short the run.
const MIN_TIMED: usize = 2;
const MAX_TIMED: usize = 1000;
/// Set-up is short next to a world, so it is sampled more often: before
/// every timed world, a batch of set-up-only worlds. Set-up sample `j`
/// runs on `world_seed(seed, j % SETUP_SEEDS)`, so the set-up time of no
/// single seed decides the figure, and the samples are spread over the
/// whole run.
const SETUP_BATCH: usize = 4;
const SETUP_SEEDS: usize = 16;
/// At least this many set-up samples, however short the run.
const MIN_SETUP_SAMPLES: usize = 2 * SETUP_SEEDS;

/// Host-side figures of one timed world run.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Host ns per op in the span, raw and normalised to the nominal
    /// machine speed.
    pub raw_ns_per_op: f64,
    pub ns_per_op: f64,
    pub cost_drift: f64,
    pub allocs_per_op: f64,
    pub allocs_per_event: f64,
    pub alloc_bytes_per_event: f64,
}

/// Raw results of one benchmark process.
#[derive(Default)]
pub struct Measured {
    /// The first run of every world, world 0 first: pooled for the
    /// virtual metrics.
    pub worlds: Vec<Rep>,
    /// Every run but the first of world 0: the first runs of the other
    /// worlds, then repeats of every world in turn.
    pub timed: Vec<Timed>,
    /// Repeats that failed a check or did not reproduce the world's
    /// first run.
    pub errors: Vec<String>,
    /// Set-up times, normalised, in seconds.
    pub setup_s: Vec<f64>,
    /// Reference-loop samples (ns per event).
    pub reference_ns: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Spans of the first run of world 0 (traced build only).
    pub spans: Vec<trace::Span>,
}

/// Times worlds and set-ups, each normalised by the reference sample
/// taken next to it: the machine's speed drifts within a run, so a
/// timing is divided by the speed measured at the same moment.
struct Sampler<'a> {
    workload: &'a str,
    spec: Spec,
    seed: u64,
    m: Measured,
}

impl Sampler<'_> {
    /// `SETUP_BATCH` set-up-only worlds, then a reference sample that
    /// normalises them; returns the speed factor it measured.
    fn tick(&mut self) -> Result<f64, String> {
        // Set-up is timed on set-up-only worlds (an empty span).
        let setup_only = Spec {
            span_ns: 0,
            drain_ns: 0,
            ..self.spec
        };
        let mut setup_ns = [0; SETUP_BATCH];
        for (i, ns) in setup_ns.iter_mut().enumerate() {
            let k = ((self.m.setup_s.len() + i) % SETUP_SEEDS) as u32;
            let w = run_world(
                self.workload,
                world_seed(self.seed, k),
                &setup_only,
                lane::TIMED_SHARDS,
            );
            if let Some(e) = w.errors.first() {
                return Err(format!("set-up-only world {k}: {e}"));
            }
            *ns = w.setup_ns;
        }
        let reference_ns = in_child(&[REFERENCE_FLAG])?;
        self.m.reference_ns.push(reference_ns);
        let speed = reference::NOMINAL_NS_PER_EVENT / reference_ns;
        self.m
            .setup_s
            .extend(setup_ns.iter().map(|&ns| ns as f64 / 1e9 * speed));
        Ok(speed)
    }

    /// One timed run of world `k`, right after a tick.
    fn world(&mut self, k: u32) -> Result<Rep, String> {
        let speed = self.tick()?;
        let w = run_world(
            self.workload,
            world_seed(self.seed, k),
            &self.spec,
            lane::TIMED_SHARDS,
        );
        let raw = ratio(w.span_host_ns() as f64, w.span_ops() as f64);
        let events = w.layers.get("sim.events").unwrap_or(0.0);
        self.m.timed.push(Timed {
            raw_ns_per_op: raw,
            ns_per_op: raw * speed,
            cost_drift: cost_drift(&w.slice_host_ns, &w.slice_ops),
            allocs_per_op: ratio(w.span_allocs as f64, w.span_ops() as f64),
            allocs_per_event: ratio(w.span_allocs as f64, events),
            alloc_bytes_per_event: ratio(w.span_alloc_bytes as f64, events),
        });
        Ok(w)
    }
}

/// Measure the peak RSS of `RSS_WORLDS` worlds, each in a fresh process.
/// Run world 0 once (spans), the other worlds once, then every
/// world again in turn until `budget` is spent, so the host figures
/// weigh every world's seed alike. Every run but the first is timed
/// next to a reference sample and a batch of set-ups, and every repeat
/// must reproduce its world's first run byte for byte.
pub fn measure(workload: &str, seed: u64, budget: Duration) -> Result<Measured, String> {
    let spec = spec_for(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let start = Instant::now();
    let mut rss_mb = Vec::new();
    for k in 0..RSS_WORLDS {
        let seed = world_seed(seed, k).to_string();
        rss_mb.push(in_child(&[PEAK_RSS_FLAG, workload, &seed])?);
    }
    trace::start_recording();
    let first = trace::span("world", 0, || {
        run_world(workload, seed, &spec, lane::SHARDS)
    });
    let spans = trace::stop_recording();
    let mut s = Sampler {
        workload,
        spec,
        seed,
        m: Measured {
            peak_rss_mb: median_f64(&rss_mb),
            spans,
            ..Measured::default()
        },
    };
    // Every run from here on is on this one thread, as are the reference
    // samples' processes.
    reference::pin_to_current_cpu();
    let mut worlds = vec![first];
    for k in 1..spec.worlds {
        worlds.push(s.world(k)?);
    }
    let mut repeat_time = Duration::ZERO;
    for i in 0.. {
        let per_run = repeat_time / i.max(1);
        let enough = s.m.timed.len() >= MIN_TIMED && start.elapsed() + per_run > budget;
        if enough || s.m.timed.len() >= MAX_TIMED {
            break;
        }
        let t = Instant::now();
        let k = i % spec.worlds;
        let w = s.world(k)?;
        let errors = w.errors.iter().map(|e| format!("world {k} repeat: {e}"));
        s.m.errors.extend(errors);
        if w.digest() != worlds[k as usize].digest() {
            s.m.errors.push(format!(
                "world {k} repeat: virtual results or per-layer counts differ from its first run"
            ));
        }
        repeat_time += t.elapsed();
    }
    while s.m.setup_s.len() < MIN_SETUP_SAMPLES {
        s.tick()?;
    }
    s.m.worlds = worlds;
    Ok(s.m)
}

/// Everything one benchmark process reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Timed world runs, and worlds pooled for the virtual metrics.
    pub timed_runs: usize,
    pub worlds: usize,
    /// End-to-end and per-layer metric values, by name. A per-layer
    /// metric the workload does not exercise is absent.
    pub values: Metrics,
    /// Hash of the pooled worlds' virtual results: builds that agree on
    /// it agree on every virtual metric.
    pub virtual_digest: u64,
    pub errors: Vec<String>,
    pub lat_samples: usize,
    pub beyond_p99: usize,
    pub beyond_p999: usize,
    /// Raw host ns per op over every timed world: min, median, max.
    pub host_ns_per_op_runs: [f64; 3],
    /// The machine's measured speed: median reference ns per event.
    pub reference_ns_per_event: f64,
    pub reference_samples: usize,
    pub setup_samples: usize,
}

/// Fold the runs into metric values.
pub fn summarize(workload: &str, m: &Measured) -> Outcome {
    let w0 = &m.worlds[0];
    let mut errors = m.errors.clone();
    for (k, w) in m.worlds.iter().enumerate() {
        errors.extend(w.errors.iter().map(|e| format!("world {k}: {e}")));
    }

    // Virtual time: every world of the workload, pooled.
    let pool = &m.worlds;
    let mut lat: Vec<u64> = pool
        .iter()
        .flat_map(|w| w.ops.lat_ns.iter().copied())
        .collect();
    lat.sort_unstable();
    let total = |f: fn(&Rep) -> u64| pool.iter().map(f).sum::<u64>() as f64;
    let attempted = total(|w| w.ops.attempted) as u64;
    let failed = total(|w| w.ops.failed) as u64;
    let span_ns = total(|w| w.ops.span_ns);
    // Host side: the median over the timed runs.
    let timed = |f: fn(&Timed) -> f64| median_f64(&m.timed.iter().map(f).collect::<Vec<_>>());

    // Per-layer: world 0.
    let mut v = w0.layers.clone();
    // Host timings at the nominal machine speed (see `reference`).
    v.insert("setup_s", median_f64(&m.setup_s));
    v.insert("host_ns_per_op", timed(|t| t.ns_per_op));
    v.insert("peak_rss_mb", m.peak_rss_mb);
    v.insert("allocs_per_op", timed(|t| t.allocs_per_op));
    v.insert("lat_p50_us", percentile(&lat, 0.5) as f64 / 1e3);
    v.insert("lat_p99_us", percentile(&lat, 0.99) as f64 / 1e3);
    v.insert("lat_p999_us", percentile(&lat, 0.999) as f64 / 1e3);
    v.insert(
        "goodput_gbps",
        ratio(total(|w| w.ops.bytes_in_span) * 8.0, span_ns),
    );
    v.insert(
        "msg_rate_mops",
        ratio(total(|w| w.ops.done_in_span) * 1e3, span_ns),
    );
    v.insert(
        "success_ratio",
        ratio(total(|w| w.ops.completed), attempted as f64),
    );
    v.insert(
        "ready_ms",
        total(|w| w.ops.ready_ns) / pool.len() as f64 / 1e6,
    );

    let events = w0.layers.get("sim.events").unwrap_or(0.0);
    v.insert("sim.cost_drift", timed(|t| t.cost_drift));
    v.insert("sim.allocs_per_event", timed(|t| t.allocs_per_event));
    v.insert(
        "sim.alloc_bytes_per_event",
        timed(|t| t.alloc_bytes_per_event),
    );
    if let Some(t) = w0.layers.get("telemetry.events") {
        v.insert("telemetry.events_per_op", ratio(t, w0.ops.completed as f64));
    }
    if trace::ON {
        let s = trace::summarize(&m.spans);
        if s.self_sum_ns != s.root_ns {
            errors.push(format!(
                "span self times add up to {} ns, the traced wall time is {} ns",
                s.self_sum_ns, s.root_ns
            ));
        }
        let run = if workload == "lane_incast" {
            "lane.run"
        } else {
            "sim.run"
        };
        if let Some(r) = s.by_name.get(run) {
            v.insert("sim.host_ns_per_event", ratio(r.self_ns as f64, events));
        }
        for (metric, name, p) in [
            ("core.send_call_ns.p50", "core.send", 0.5),
            ("core.send_call_ns.p99", "core.send", 0.99),
            ("core.respond_call_ns.p50", "core.respond", 0.5),
            ("core.respond_call_ns.p99", "core.respond", 0.99),
            ("core.connect_call_ns", "core.connect", 0.5),
            ("mux.send_call_ns.p50", "mux.send", 0.5),
            ("mux.send_call_ns.p99", "mux.send", 0.99),
            ("mux.open_call_ns", "mux.open", 0.5),
        ] {
            if let Some(n) = s.by_name.get(name) {
                v.insert(metric, percentile(&n.durations, p) as f64);
            }
        }
    }
    for (k, x) in &v.0 {
        if !x.is_finite() {
            errors.push(format!("{k} is not a finite number"));
        }
    }
    let mut raw: Vec<f64> = m.timed.iter().map(|t| t.raw_ns_per_op).collect();
    raw.sort_by(f64::total_cmp);
    Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        timed_runs: m.timed.len(),
        worlds: pool.len(),
        values: v,
        virtual_digest: rng::checksum(
            pool.iter()
                .map(|w| format!("{:?}", w.ops))
                .collect::<String>()
                .as_bytes(),
        ),
        errors,
        lat_samples: lat.len(),
        beyond_p99: beyond(&lat, 0.99),
        beyond_p999: beyond(&lat, 0.999),
        host_ns_per_op_runs: [raw[0], median_f64(&raw), raw[raw.len() - 1]],
        reference_ns_per_event: median_f64(&m.reference_ns),
        reference_samples: m.reference_ns.len(),
        setup_samples: m.setup_s.len(),
    }
}
