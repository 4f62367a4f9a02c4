//! Linearity gate for backed-MR writes. The memcache hands out buffers
//! bump-allocated inside one large registered arena, so the messages
//! staged into them land right behind each other. Each such append must
//! cost O(len) amortized: it grows the chunk it touches rather than
//! rebuilding the arena's whole written prefix.
//!
//! A counting global allocator measures the heap traffic of the writes
//! alone. This binary holds a single test, so nothing else allocates on
//! the measuring thread while the window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use xrdma_rnic::mem::MemTable;
use xrdma_rnic::{AccessFlags, PageKind};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn record(size: usize) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ARENA: u64 = 4 << 20;
const MSG: usize = 64;
const WRITES: u64 = 16_384;

#[test]
fn adjacent_writes_into_an_arena_are_linear() {
    let table = MemTable::new(0);
    let pd = table.alloc_pd();
    let mr = table.reg_mr(
        &pd,
        ARENA,
        AccessFlags::FULL,
        PageKind::Anonymous,
        true,
        false,
    );
    let msg = [0xA5u8; MSG];

    MEASURING.with(|m| m.set(true));
    for i in 0..WRITES {
        mr.write(mr.addr + i * MSG as u64, &msg).unwrap();
    }
    MEASURING.with(|m| m.set(false));

    let allocs = ALLOCS.load(Ordering::Relaxed);
    let bytes = BYTES.load(Ordering::Relaxed);
    let stored = mr.stored_bytes();
    assert_eq!(stored, WRITES * MSG as u64);
    assert!(
        allocs < 64,
        "{allocs} allocations for {WRITES} appends: appends must grow the chunk in place"
    );
    assert!(
        bytes < 4 * stored,
        "{bytes} bytes allocated to store {stored}: appends must not rebuild the written prefix"
    );
    let tail = mr.read(mr.addr + stored - MSG as u64, MSG as u64).unwrap();
    assert_eq!(tail, msg);
}
