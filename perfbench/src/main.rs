//! Benchmark process: runs one workload for a wall-clock budget and
//! prints one JSON object as its last line.
//!
//! ```text
//! xrdma-perfbench --workload <name> --seed <n> --seconds <s> [--spans <file>]
//! ```
//!
//! `--spans` (traced build only) writes the first world's spans as
//! JSONL. The exit code is 0 only when every correctness check passed.
//! The process starts copies of itself for jobs that need a fresh
//! process (`--reference`, `--peak-rss <workload> <seed>`), each printing
//! one number.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use xrdma_perfbench::{
    measure, peak_rss_child, reference, summarize, trace, Outcome, PEAK_RSS_FLAG, REFERENCE_FLAG,
    WORKLOADS,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut spans) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--spans" => spans = Some(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        spans,
    })
}

/// Inputs that silently change what the stack runs must be absent:
/// `XRDMA_SHARDS` moves every `World::new` onto the sharded validation
/// calendar, `XRDMA_DEBUG` adds prints to the channel hot path.
fn check_hermetic() -> Result<(), String> {
    for var in ["XRDMA_SHARDS", "XRDMA_DEBUG"] {
        if std::env::var_os(var).is_some() {
            return Err(format!("refusing to run with {var} set"));
        }
    }
    Ok(())
}

fn json(out: &Outcome, args: &Args) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"values\":{{",
        out.correct, out.attempted, out.failed
    );
    for (i, (k, v)) in out.values.0.iter().enumerate() {
        let _ = write!(s, "{}\"{k}\":{v}", if i > 0 { "," } else { "" });
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let [lo, mid, hi] = out.host_ns_per_op_runs;
    let _ = write!(
        s,
        "}},\"info\":{{\"workload\":\"{}\",\"seed\":{},\"timed_runs\":{},\"worlds\":{},\"nproc\":{nproc},\"profile\":\"{}\",\"traced\":{},\
         \"lat_samples\":{},\"beyond_p99\":{},\"beyond_p999\":{},\"raw_host_ns_per_op_runs\":[{lo},{mid},{hi}],\
         \"reference_ns_per_event\":{},\"reference_samples\":{},\"setup_samples\":{},\"virtual_digest\":\"{:016x}\"}}}}",
        args.workload,
        args.seed,
        out.timed_runs,
        out.worlds,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        trace::ON,
        out.lat_samples,
        out.beyond_p99,
        out.beyond_p999,
        out.reference_ns_per_event,
        out.reference_samples,
        out.setup_samples,
        out.virtual_digest,
    );
    s
}

fn run(args: &Args) -> Result<Outcome, String> {
    let m = measure(
        &args.workload,
        args.seed,
        Duration::from_secs_f64(args.seconds),
    )?;
    if let Some(path) = &args.spans {
        if trace::ON {
            std::fs::write(path, trace::to_jsonl(&m.spans)).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    Ok(summarize(&args.workload, &m))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some(REFERENCE_FLAG) => {
            println!("{}", reference::child());
            return ExitCode::SUCCESS;
        }
        Some(PEAK_RSS_FLAG) => {
            let rss = match &argv[1..] {
                [workload, seed] => seed
                    .parse()
                    .map_err(|e| format!("{PEAK_RSS_FLAG}: {e}"))
                    .and_then(|seed| peak_rss_child(workload, seed)),
                _ => Err(format!("{PEAK_RSS_FLAG} takes <workload> <seed>")),
            };
            return match rss {
                Ok(mb) => {
                    println!("{mb}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("xrdma-perfbench: {e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let args = match parse_args().and_then(|a| check_hermetic().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xrdma-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for e in &out.errors {
                eprintln!("xrdma-perfbench: check failed: {e}");
            }
            println!("{}", json(&out, &args));
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xrdma-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
