//! A fixed reference workload that measures how fast the machine is
//! running right now, so host timings can be normalised to one nominal
//! machine speed.
//!
//! The speed of a shared host drifts by ±25 % within seconds (other
//! tenants, frequency); on the host this benchmark was tuned on, thread
//! CPU time equalled wall time, so the drift is the machine's speed, not
//! preemption. A median over one run cannot average that out, so every
//! host timing is divided by a sample taken right next to it. This loop
//! is a miniature discrete-event simulator — a binary-heap calendar of
//! boxed closures mutating `Rc<RefCell<HashMap>>` state — so it slows
//! down with the machine the way the real simulator does.
//!
//! It allocates on every event, as the simulator does, so it must not
//! share a heap with the stack: the allocator state a world leaves behind
//! (fragmentation, arena growth) would move it. Each sample therefore
//! runs in a fresh process (`crate::in_child`), and the benchmark process
//! only reads the figure it prints.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Events per reference pass (about 4 ms), and timed passes per sample.
const EVENTS: u64 = 10_000;
const PASSES: usize = 5;
/// Reference ns per event of the nominal machine. Host timings are
/// reported as they would read on a machine where one reference event
/// takes this long.
pub const NOMINAL_NS_PER_EVENT: f64 = 400.0;

type Event = Box<dyn FnOnce(&mut Calendar)>;

struct Calendar {
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    pending: HashMap<u64, Event>,
    rng: u64,
}

impl Calendar {
    fn at(&mut self, t: u64, f: Event) {
        self.seq += 1;
        self.heap.push(Reverse((t, self.seq)));
        self.pending.insert(self.seq, f);
    }

    fn next_rand(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }
}

/// The reference-sample process: one warm-up pass, so the figure does not
/// include the fresh heap's page faults, then the median of `PASSES`
/// timed ones, so one preemption of the sample does not decide it.
pub fn child() -> f64 {
    ns_per_event();
    let mut passes: Vec<f64> = (0..PASSES).map(|_| ns_per_event()).collect();
    passes.sort_by(f64::total_cmp);
    passes[PASSES / 2]
}

/// Pin the calling thread to the CPU it runs on now. A reference sample
/// runs in a child process, which inherits the pin, so it measures the
/// CPU the timed worlds run on: the CPUs of a shared host are not equally
/// fast at the same moment, and samples taken on whichever CPU the child
/// landed on did not follow the worlds' timings.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t` of glibc: 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: both are glibc calls on plain integers and on a buffer of
    // `cpu_set_t`'s size that outlives the call; pid 0 is this thread.
    let cpu = unsafe { sched_getcpu() };
    if let Ok(cpu @ 0..1024) = usize::try_from(cpu) {
        mask[cpu / 64] |= 1 << (cpu % 64);
        // A failed pin leaves the thread free to move; timings then
        // follow the machine less closely, nothing else changes.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() {}

/// Run one reference pass; returns host ns per event.
fn ns_per_event() -> f64 {
    let start = Instant::now();
    let state: Rc<RefCell<HashMap<u64, Vec<u8>>>> = Rc::default();
    let mut cal = Calendar {
        seq: 0,
        heap: BinaryHeap::new(),
        pending: HashMap::new(),
        rng: 0x2545_F491_4F6C_DD1D,
    };
    for t in 0..64 {
        cal.at(t, Box::new(|_: &mut Calendar| {}));
    }
    for _ in 0..EVENTS {
        let Some(Reverse((t, seq))) = cal.heap.pop() else {
            break;
        };
        let f = cal
            .pending
            .remove(&seq)
            .expect("every calendar key has an event");
        f(&mut cal);
        let (key, delay, len) = (
            cal.next_rand() % 4096,
            cal.next_rand() % 1000 + 1,
            (cal.next_rand() % 256) as usize,
        );
        let st = state.clone();
        cal.at(
            t + delay,
            Box::new(move |_: &mut Calendar| {
                let mut m = st.borrow_mut();
                let v = m.entry(key).or_default();
                v.resize(v.len() + len, 7);
                if v.len() > 4096 {
                    v.clear();
                }
            }),
        );
    }
    black_box(state.borrow().len());
    start.elapsed().as_nanos() as f64 / EVENTS as f64
}
