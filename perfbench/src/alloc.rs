//! Process-cost probes: a counting global allocator and the kernel's
//! peak-RSS figure. Both are std-only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counter shards, one cache line each, so the two shard workers of the
/// lane workload do not contend on one atomic.
const SHARDS: usize = 8;

#[repr(align(64))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

static COUNTS: [Shard; SHARDS] = [const {
    Shard {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SHARDS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // A const-initialised `Cell<usize>` has no destructor and never
    // allocates, so reading it from inside the allocator cannot recurse.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn slot() -> usize {
    SLOT.try_with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            v = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(v);
        }
        v
    })
    .unwrap_or(0)
}

fn count(bytes: usize) {
    let s = &COUNTS[slot()];
    // Statistics only: no other data is published through these.
    s.allocs.fetch_add(1, Ordering::Relaxed);
    s.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// The system allocator, counting every allocation and reallocation.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is relaxed counter updates, which neither
// allocate nor touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // is `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` since process start, all threads.
pub fn totals() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(a, b), s| {
        (
            a + s.allocs.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}

/// Peak resident set size of this process in MB (`VmHWM`), or an error
/// when `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable VmHWM line: {line}"))?;
    Ok(kb / 1024.0)
}
