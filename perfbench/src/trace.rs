//! Benchmark-side spans: host wall time of every call the benchmark makes
//! into a layer and of its own callbacks. Compiled in only with the
//! `telemetry` feature (the traced build); in the untraced build `span`
//! is a plain call.
//!
//! Spans are kept in memory for the first world of a run and written
//! out as JSONL when the benchmark ends. A span's self time is its
//! duration minus the durations of its child spans; children nest
//! strictly (a stack), so the self times of all spans add up exactly to
//! the duration of the root spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// True in the traced build.
pub const ON: bool = cfg!(feature = "telemetry");

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Request id of the operation the span serves; 0 for spans that
    /// serve no single operation (setup, run slices).
    pub req: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    recording: bool,
    epoch: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = const {
        RefCell::new(Tracer {
            recording: false,
            epoch: None,
            spans: Vec::new(),
            stack: Vec::new(),
        })
    };
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }
}

/// Run `f` inside a span named `name` for request `req`.
#[inline(always)]
pub fn span<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    if !ON {
        return f();
    }
    let idx = open(name, req);
    let r = f();
    close(idx);
    r
}

fn open(name: &'static str, req: u64) -> Option<u32> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.recording {
            return None;
        }
        let idx = t.spans.len() as u32;
        let parent = t.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = t.now_ns();
        t.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        t.stack.push(idx);
        Some(idx)
    })
}

fn close(idx: Option<u32>) {
    let Some(idx) = idx else { return };
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end = t.now_ns();
        t.spans[idx as usize].end_ns = end;
        let top = t.stack.pop();
        assert_eq!(top, Some(idx), "spans must nest");
    });
}

/// Start keeping spans (drops any kept earlier).
pub fn start_recording() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.recording = ON;
        t.epoch = Some(Instant::now());
        t.spans.clear();
        t.stack.clear();
    });
}

/// Stop keeping spans and hand back the ones kept.
pub fn stop_recording() -> Vec<Span> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.recording = false;
        assert!(t.stack.is_empty(), "a span was left open");
        std::mem::take(&mut t.spans)
    })
}

/// Per-name aggregate of a span set.
#[derive(Clone, Debug, Default)]
pub struct NameStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Every duration, sorted (for call-cost percentiles).
    pub durations: Vec<u64>,
}

#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub by_name: BTreeMap<&'static str, NameStat>,
    /// Summed duration of the root spans.
    pub root_ns: u64,
    /// Summed self time of every span; equals `root_ns` when spans nest.
    pub self_sum_ns: u64,
}

/// Self time of each span, by index.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child[s.parent as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, c)| s.dur_ns() - c)
        .collect()
}

pub fn summarize(spans: &[Span]) -> Summary {
    let selfs = self_times(spans);
    let mut sum = Summary::default();
    for (s, &own) in spans.iter().zip(&selfs) {
        let e = sum.by_name.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += own;
        e.durations.push(s.dur_ns());
        if s.parent == NO_PARENT {
            sum.root_ns += s.dur_ns();
        }
        sum.self_sum_ns += own;
    }
    for e in sum.by_name.values_mut() {
        e.durations.sort_unstable();
    }
    sum
}

/// One JSON object per span: `{"id","parent","name","req","start_ns",
/// "end_ns","self_ns"}`, times in host ns from the start of recording;
/// `parent` is -1 for a root span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
            s.name, s.req, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_root_time() {
        let spans = [
            Span {
                name: "rep",
                req: 0,
                parent: NO_PARENT,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "run",
                req: 0,
                parent: 0,
                start_ns: 10,
                end_ns: 60,
            },
            Span {
                name: "cb",
                req: 3,
                parent: 1,
                start_ns: 20,
                end_ns: 30,
            },
            Span {
                name: "cb",
                req: 4,
                parent: 1,
                start_ns: 40,
                end_ns: 45,
            },
        ];
        let s = summarize(&spans);
        assert_eq!(self_times(&spans), vec![50, 35, 10, 5]);
        assert_eq!(s.root_ns, 100);
        assert_eq!(s.self_sum_ns, 100);
        assert_eq!(s.by_name["cb"].durations, vec![5, 10]);
    }
}
