//! Protection domains, memory regions, and the per-node address space.
//!
//! MRs can be *backed* (a real `Vec<u8>`, so writes/reads move actual bytes
//! — used by integrity tests and traced messages) or *unbacked* (size-only,
//! the fast path for large-scale performance runs). Either way rkey/lkey
//! lookup, bounds and access checking are enforced, because the paper's
//! memory-cache-isolation scheme (§VI-C) exists precisely to catch
//! out-of-bounds access to RDMA-enabled memory.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use bytes::Bytes;

use crate::config::PageKind;
use crate::verbs::VerbsError;

/// Access permissions on a memory region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessFlags {
    pub local_write: bool,
    pub remote_read: bool,
    pub remote_write: bool,
    pub remote_atomic: bool,
}

impl AccessFlags {
    pub const LOCAL_ONLY: AccessFlags = AccessFlags {
        local_write: true,
        remote_read: false,
        remote_write: false,
        remote_atomic: false,
    };
    pub const FULL: AccessFlags = AccessFlags {
        local_write: true,
        remote_read: true,
        remote_write: true,
        remote_atomic: true,
    };
    pub const REMOTE_READ: AccessFlags = AccessFlags {
        local_write: true,
        remote_read: true,
        remote_write: false,
        remote_atomic: false,
    };
    pub const REMOTE_WRITE: AccessFlags = AccessFlags {
        local_write: true,
        remote_read: false,
        remote_write: true,
        remote_atomic: false,
    };
}

/// A protection domain. MRs and QPs belong to exactly one PD; cross-PD use
/// is rejected like real verbs would.
#[derive(Debug)]
pub struct Pd {
    pub id: u32,
    pub node: u32,
}

/// Sparse byte store: only written ranges occupy memory, so a 4 MiB
/// arena that ever sees nothing but 56-byte headers costs 56 bytes. Reads
/// of unwritten ranges return zeroes (fresh registered memory).
///
/// Chunks never overlap. A write merges with the chunk that touches its
/// start and every chunk starting inside it, so appends behind a chunk —
/// the memcache bump allocator's pattern — grow that chunk in place at
/// O(len) amortized cost.
#[derive(Default)]
struct SparseBytes {
    chunks: BTreeMap<u64, Vec<u8>>,
}

impl SparseBytes {
    fn write(&mut self, off: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let end = off + data.len() as u64;
        // Take the chunk that touches `off` (starts at or before it, ends
        // at or after it); a write inside it is overwritten in place.
        // Without one, a new chunk starts at `off`.
        let (start, mut chunk) = match self.chunks.range_mut(..=off).next_back() {
            Some((&k, v)) if k + v.len() as u64 >= end => {
                let o = (off - k) as usize;
                v[o..o + data.len()].copy_from_slice(data);
                return;
            }
            Some((&k, v)) if k + v.len() as u64 >= off => (k, std::mem::take(v)),
            _ => (off, Vec::new()),
        };
        // The taken chunk ends inside [off, end): cut it at `off` and grow
        // it by `data`.
        chunk.truncate((off - start) as usize);
        chunk.extend_from_slice(data);
        // Absorb every other chunk starting inside the range. `data` covers
        // each one's head, so only a tail running past `end` survives.
        while let Some(k) = self.chunks.range(off + 1..end).next().map(|(&k, _)| k) {
            if let Some(v) = self.chunks.remove(&k) {
                if let Some(tail) = v.get((end - k) as usize..) {
                    chunk.extend_from_slice(tail);
                }
            }
        }
        self.chunks.insert(start, chunk);
    }

    fn read(&self, off: u64, len: u64) -> Vec<u8> {
        // xrdma-lint: allow(hot-path-alloc) -- the caller's output buffer, one per read; unwritten gaps read as zeroes
        let mut out = vec![0u8; len as usize];
        let end = off + len;
        let mut copy = |k: u64, v: &Vec<u8>| {
            let k_end = k + v.len() as u64;
            if k_end <= off || k >= end {
                return;
            }
            let lo = off.max(k);
            let hi = end.min(k_end);
            out[(lo - off) as usize..(hi - off) as usize]
                .copy_from_slice(&v[(lo - k) as usize..(hi - k) as usize]);
        };
        if let Some((&k, v)) = self.chunks.range(..off).next_back() {
            copy(k, v);
        }
        for (&k, v) in self.chunks.range(off..end) {
            copy(k, v);
        }
        out
    }

    fn stored_bytes(&self) -> u64 {
        self.chunks.values().map(|v| v.len() as u64).sum()
    }

    /// Any real bytes materialized in [off, off+len)?
    fn overlaps(&self, off: u64, len: u64) -> bool {
        let end = off + len;
        self.chunks
            .range(..end)
            .next_back()
            .is_some_and(|(&k, v)| k + v.len() as u64 > off)
    }
}

/// A registered memory region.
pub struct Mr {
    pub pd_id: u32,
    pub addr: u64,
    pub len: u64,
    pub lkey: u32,
    pub rkey: u32,
    pub access: AccessFlags,
    pub page_kind: PageKind,
    /// Sparse real bytes when backed; `None` models a size-only region.
    backing: RefCell<Option<SparseBytes>>,
    /// Set on deregistration; all later access fails.
    revoked: Cell<bool>,
}

impl Mr {
    /// Relative offset of `addr` inside this region, or an access error.
    fn offset_of(&self, addr: u64, len: u64) -> Result<usize, VerbsError> {
        if self.revoked.get() {
            return Err(VerbsError::Gone("MR deregistered"));
        }
        if addr < self.addr || addr.saturating_add(len) > self.addr + self.len {
            return Err(VerbsError::AccessError("out of MR bounds"));
        }
        Ok((addr - self.addr) as usize)
    }

    /// Copy bytes into the region (no-op beyond bounds checks if unbacked).
    pub fn write(&self, addr: u64, data: &[u8]) -> Result<(), VerbsError> {
        let off = self.offset_of(addr, data.len() as u64)?;
        if let Some(buf) = self.backing.borrow_mut().as_mut() {
            buf.write(off as u64, data);
        }
        Ok(())
    }

    /// Read bytes out of the region (zeroes if unbacked or unwritten).
    pub fn read(&self, addr: u64, len: u64) -> Result<Vec<u8>, VerbsError> {
        let off = self.offset_of(addr, len)?;
        Ok(match self.backing.borrow().as_ref() {
            Some(buf) => buf.read(off as u64, len),
            // xrdma-lint: allow(hot-path-alloc) -- the caller's output buffer; an unbacked region reads as zeroes
            None => vec![0; len as usize],
        })
    }

    /// Read bytes out as a shared, refcounted buffer: one gather copy for
    /// the whole range, after which callers slice per MTU fragment without
    /// further allocation (the engine's zero-copy segmentation path).
    pub fn read_bytes(&self, addr: u64, len: u64) -> Result<Bytes, VerbsError> {
        // The single per-message gather copy; fragments slice this buffer.
        self.read(addr, len).map(Bytes::from)
    }

    /// Bytes actually materialized by the sparse backing (diagnostics).
    pub fn stored_bytes(&self) -> u64 {
        self.backing
            .borrow()
            .as_ref()
            .map_or(0, |b| b.stored_bytes())
    }

    /// Bounds/validity check without data movement (used for Zero payloads).
    pub fn check(&self, addr: u64, len: u64) -> Result<(), VerbsError> {
        self.offset_of(addr, len).map(|_| ())
    }

    /// 8-byte atomic fetch-add; returns the old value.
    pub fn fetch_add(&self, addr: u64, operand: u64) -> Result<u64, VerbsError> {
        let off = self.offset_of(addr, 8)? as u64;
        let mut b = self.backing.borrow_mut();
        match b.as_mut() {
            Some(buf) => {
                // xrdma-lint: allow(unwrap-in-api) -- read(off, 8) returns exactly 8 bytes (validated by offset_of)
                let old = u64::from_le_bytes(buf.read(off, 8).try_into().unwrap());
                buf.write(off, &old.wrapping_add(operand).to_le_bytes());
                Ok(old)
            }
            None => Ok(0),
        }
    }

    /// 8-byte compare-and-swap; returns the old value.
    pub fn compare_swap(&self, addr: u64, expect: u64, swap: u64) -> Result<u64, VerbsError> {
        let off = self.offset_of(addr, 8)? as u64;
        let mut b = self.backing.borrow_mut();
        match b.as_mut() {
            Some(buf) => {
                // xrdma-lint: allow(unwrap-in-api) -- read(off, 8) returns exactly 8 bytes (validated by offset_of)
                let old = u64::from_le_bytes(buf.read(off, 8).try_into().unwrap());
                if old == expect {
                    buf.write(off, &swap.to_le_bytes());
                }
                Ok(old)
            }
            None => Ok(0),
        }
    }

    /// Whether any real bytes were ever written into `[addr, addr+len)`.
    /// Lets the engine stream size-only fragments for untouched ranges —
    /// the zero-copy fast path of large performance experiments.
    pub fn has_data_in(&self, addr: u64, len: u64) -> bool {
        if self.check(addr, len).is_err() {
            return false;
        }
        match self.backing.borrow().as_ref() {
            Some(b) => b.overlaps(addr - self.addr, len),
            None => false,
        }
    }
}

/// Per-node registered-memory table: allocation, registration, key lookup.
///
/// Addresses come from two bump allocators: the normal heap region and a
/// *high* region near the top of the address space — the paper's memory
/// cache isolation trick (§VI-C) maps the cache "to a higher address space
/// near the stack" so stray pointers fault instead of corrupting.
pub struct MemTable {
    node: u32,
    next_key: Cell<u32>,
    next_pd: Cell<u32>,
    heap_brk: Cell<u64>,
    high_brk: Cell<u64>,
    by_rkey: RefCell<HashMap<u32, Rc<Mr>>>,
    by_lkey: RefCell<HashMap<u32, Rc<Mr>>>,
    registered_bytes: Cell<u64>,
    mr_count: Cell<usize>,
}

/// Heap allocations start here.
pub const HEAP_BASE: u64 = 0x0000_1000_0000;
/// "High" (isolated) allocations grow downward from here.
pub const HIGH_BASE: u64 = 0x7FFF_0000_0000;

impl MemTable {
    pub fn new(node: u32) -> MemTable {
        MemTable {
            node,
            next_key: Cell::new(1),
            next_pd: Cell::new(1),
            heap_brk: Cell::new(HEAP_BASE),
            high_brk: Cell::new(HIGH_BASE),
            by_rkey: RefCell::new(HashMap::new()),
            by_lkey: RefCell::new(HashMap::new()),
            registered_bytes: Cell::new(0),
            mr_count: Cell::new(0),
        }
    }

    pub fn alloc_pd(&self) -> Rc<Pd> {
        let id = self.next_pd.get();
        self.next_pd.set(id + 1);
        Rc::new(Pd {
            id,
            node: self.node,
        })
    }

    /// Allocate `len` bytes of virtual address space. `high` selects the
    /// isolated region near the top of the address space.
    pub fn alloc(&self, len: u64, high: bool) -> u64 {
        // Keep a guard gap between allocations so out-of-bounds access
        // never silently lands in a neighbouring region.
        let gap = 4096;
        if high {
            let addr = self.high_brk.get() - len - gap;
            self.high_brk.set(addr);
            addr
        } else {
            let addr = self.heap_brk.get();
            self.heap_brk.set(addr + len + gap);
            addr
        }
    }

    /// Register a region at a caller-chosen address. `backed` materializes
    /// real bytes.
    pub fn reg_mr_at(
        &self,
        pd: &Pd,
        addr: u64,
        len: u64,
        access: AccessFlags,
        page_kind: PageKind,
        backed: bool,
    ) -> Rc<Mr> {
        let key = self.next_key.get();
        self.next_key.set(key + 2);
        let mr = Rc::new(Mr {
            pd_id: pd.id,
            addr,
            len,
            lkey: key,
            rkey: key + 1,
            access,
            page_kind,
            backing: RefCell::new(if backed {
                Some(SparseBytes::default())
            } else {
                None
            }),
            revoked: Cell::new(false),
        });
        self.by_rkey.borrow_mut().insert(mr.rkey, mr.clone());
        self.by_lkey.borrow_mut().insert(mr.lkey, mr.clone());
        self.registered_bytes.set(self.registered_bytes.get() + len);
        self.mr_count.set(self.mr_count.get() + 1);
        mr
    }

    /// Allocate + register in one step.
    pub fn reg_mr(
        &self,
        pd: &Pd,
        len: u64,
        access: AccessFlags,
        page_kind: PageKind,
        backed: bool,
        high: bool,
    ) -> Rc<Mr> {
        let addr = self.alloc(len, high);
        self.reg_mr_at(pd, addr, len, access, page_kind, backed)
    }

    /// Deregister: keys become invalid, backing is dropped.
    pub fn dereg_mr(&self, mr: &Rc<Mr>) {
        mr.revoked.set(true);
        *mr.backing.borrow_mut() = None;
        self.by_rkey.borrow_mut().remove(&mr.rkey);
        self.by_lkey.borrow_mut().remove(&mr.lkey);
        self.registered_bytes
            .set(self.registered_bytes.get().saturating_sub(mr.len));
        self.mr_count.set(self.mr_count.get().saturating_sub(1));
    }

    pub fn by_rkey(&self, rkey: u32) -> Option<Rc<Mr>> {
        self.by_rkey.borrow().get(&rkey).cloned()
    }

    pub fn by_lkey(&self, lkey: u32) -> Option<Rc<Mr>> {
        self.by_lkey.borrow().get(&lkey).cloned()
    }

    /// Resolve an rkey for a remote operation, checking access rights.
    pub fn resolve_remote(
        &self,
        rkey: u32,
        addr: u64,
        len: u64,
        write: bool,
        atomic: bool,
    ) -> Result<Rc<Mr>, VerbsError> {
        let mr = self
            .by_rkey(rkey)
            .ok_or(VerbsError::AccessError("unknown rkey"))?;
        if atomic && !mr.access.remote_atomic {
            return Err(VerbsError::AccessError("no remote-atomic permission"));
        }
        if write && !atomic && !mr.access.remote_write {
            return Err(VerbsError::AccessError("no remote-write permission"));
        }
        if !write && !atomic && !mr.access.remote_read {
            return Err(VerbsError::AccessError("no remote-read permission"));
        }
        mr.check(addr, len)?;
        Ok(mr)
    }

    pub fn registered_bytes(&self) -> u64 {
        self.registered_bytes.get()
    }

    pub fn mr_count(&self) -> usize {
        self.mr_count.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table() -> (MemTable, Rc<Pd>) {
        let t = MemTable::new(0);
        let pd = t.alloc_pd();
        (t, pd)
    }

    #[test]
    fn backed_roundtrip() {
        let (t, pd) = table();
        let mr = t.reg_mr(
            &pd,
            4096,
            AccessFlags::FULL,
            PageKind::Anonymous,
            true,
            false,
        );
        mr.write(mr.addr + 100, b"hello").unwrap();
        assert_eq!(mr.read(mr.addr + 100, 5).unwrap(), b"hello");
    }

    #[test]
    fn unbacked_reads_zero() {
        let (t, pd) = table();
        let mr = t.reg_mr(
            &pd,
            64,
            AccessFlags::FULL,
            PageKind::Anonymous,
            false,
            false,
        );
        mr.write(mr.addr, b"data").unwrap();
        assert_eq!(mr.read(mr.addr, 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let (t, pd) = table();
        let mr = t.reg_mr(
            &pd,
            100,
            AccessFlags::FULL,
            PageKind::Anonymous,
            true,
            false,
        );
        assert!(mr.write(mr.addr + 96, b"hello").is_err());
        assert!(mr.read(mr.addr.wrapping_sub(1), 1).is_err());
        assert!(mr.check(mr.addr, 101).is_err());
        assert!(mr.check(mr.addr, 100).is_ok());
    }

    #[test]
    fn access_flags_enforced() {
        let (t, pd) = table();
        let ro = t.reg_mr(
            &pd,
            64,
            AccessFlags::REMOTE_READ,
            PageKind::Anonymous,
            true,
            false,
        );
        assert!(t.resolve_remote(ro.rkey, ro.addr, 8, false, false).is_ok());
        assert!(t.resolve_remote(ro.rkey, ro.addr, 8, true, false).is_err());
        assert!(t.resolve_remote(ro.rkey, ro.addr, 8, false, true).is_err());
        let wo = t.reg_mr(
            &pd,
            64,
            AccessFlags::REMOTE_WRITE,
            PageKind::Anonymous,
            true,
            false,
        );
        assert!(t.resolve_remote(wo.rkey, wo.addr, 8, true, false).is_ok());
        assert!(t.resolve_remote(wo.rkey, wo.addr, 8, false, false).is_err());
    }

    #[test]
    fn unknown_rkey() {
        let (t, _pd) = table();
        assert!(matches!(
            t.resolve_remote(999, 0, 8, false, false),
            Err(VerbsError::AccessError(_))
        ));
    }

    #[test]
    fn dereg_revokes() {
        let (t, pd) = table();
        let mr = t.reg_mr(&pd, 64, AccessFlags::FULL, PageKind::Anonymous, true, false);
        let rkey = mr.rkey;
        assert_eq!(t.mr_count(), 1);
        assert_eq!(t.registered_bytes(), 64);
        t.dereg_mr(&mr);
        assert!(t.by_rkey(rkey).is_none());
        assert!(mr.read(mr.addr, 1).is_err());
        assert_eq!(t.mr_count(), 0);
        assert_eq!(t.registered_bytes(), 0);
    }

    #[test]
    fn high_allocations_isolated() {
        let (t, pd) = table();
        let low = t.reg_mr(
            &pd,
            4096,
            AccessFlags::FULL,
            PageKind::Anonymous,
            false,
            false,
        );
        let high = t.reg_mr(
            &pd,
            4096,
            AccessFlags::FULL,
            PageKind::Anonymous,
            false,
            true,
        );
        assert!(high.addr > low.addr + (1 << 40), "high region far away");
        // A pointer overrun from the low region cannot land in the high one.
        assert!(low.check(high.addr, 1).is_err());
    }

    #[test]
    fn guard_gap_between_allocations() {
        let (t, pd) = table();
        let a = t.reg_mr(
            &pd,
            100,
            AccessFlags::FULL,
            PageKind::Anonymous,
            false,
            false,
        );
        let b = t.reg_mr(
            &pd,
            100,
            AccessFlags::FULL,
            PageKind::Anonymous,
            false,
            false,
        );
        assert!(b.addr >= a.addr + a.len + 4096);
    }

    #[test]
    fn atomics() {
        let (t, pd) = table();
        let mr = t.reg_mr(&pd, 64, AccessFlags::FULL, PageKind::Anonymous, true, false);
        assert_eq!(mr.fetch_add(mr.addr, 5).unwrap(), 0);
        assert_eq!(mr.fetch_add(mr.addr, 3).unwrap(), 5);
        assert_eq!(mr.compare_swap(mr.addr, 8, 100).unwrap(), 8);
        assert_eq!(
            mr.compare_swap(mr.addr, 8, 200).unwrap(),
            100,
            "CAS failed, old returned"
        );
        assert_eq!(mr.fetch_add(mr.addr, 0).unwrap(), 100);
    }

    #[test]
    fn atomic_requires_8_byte_room() {
        let (t, pd) = table();
        let mr = t.reg_mr(&pd, 8, AccessFlags::FULL, PageKind::Anonymous, true, false);
        assert!(mr.fetch_add(mr.addr + 4, 1).is_err());
    }

    const LEN: u64 = 512;

    #[derive(Debug)]
    enum Op {
        Write(u64, Vec<u8>),
        Read(u64, u64),
        HasData(u64, u64),
        FetchAdd(u64, u64),
        Cas(u64, u64, u64),
    }

    /// Dense reference for a `LEN`-byte backed MR: its bytes, plus which of
    /// them were ever written.
    struct Dense {
        bytes: Vec<u8>,
        written: Vec<bool>,
    }

    impl Dense {
        fn new() -> Dense {
            Dense {
                bytes: vec![0; LEN as usize],
                written: vec![false; LEN as usize],
            }
        }

        fn fits(off: u64, len: u64) -> bool {
            off + len <= LEN
        }

        fn write(&mut self, off: u64, data: &[u8]) {
            let o = off as usize;
            self.bytes[o..o + data.len()].copy_from_slice(data);
            self.written[o..o + data.len()].fill(true);
        }

        fn word(&self, off: u64) -> u64 {
            let o = off as usize;
            u64::from_le_bytes(self.bytes[o..o + 8].try_into().unwrap())
        }
    }

    /// `[start, end)` of every stored chunk, in address order.
    fn chunk_spans(mr: &Mr) -> Vec<(u64, u64)> {
        mr.backing.borrow().as_ref().map_or(Vec::new(), |b| {
            b.chunks
                .iter()
                .map(|(&k, v)| (k, k + v.len() as u64))
                .collect()
        })
    }

    fn backed_mr() -> (MemTable, Rc<Mr>) {
        let (t, pd) = table();
        let mr = t.reg_mr(
            &pd,
            LEN,
            AccessFlags::FULL,
            PageKind::Anonymous,
            true,
            false,
        );
        (t, mr)
    }

    /// Runs `op` on the MR and the dense model and checks that the results,
    /// the stored byte count and the chunk layout invariant agree.
    fn apply(mr: &Mr, dense: &mut Dense, op: &Op) -> Result<(), TestCaseError> {
        let a = mr.addr;
        match *op {
            Op::Write(off, ref data) => {
                let fits = Dense::fits(off, data.len() as u64);
                prop_assert_eq!(mr.write(a + off, data).is_ok(), fits, "{:?}", op);
                if fits {
                    dense.write(off, data);
                }
            }
            Op::Read(off, len) => match mr.read(a + off, len) {
                Ok(got) => {
                    prop_assert!(Dense::fits(off, len), "{:?} read out of bounds", op);
                    prop_assert_eq!(&got[..], &dense.bytes[off as usize..(off + len) as usize]);
                }
                Err(_) => prop_assert!(!Dense::fits(off, len), "{:?} refused", op),
            },
            Op::HasData(off, len) => {
                let want = Dense::fits(off, len)
                    && dense.written[off as usize..(off + len) as usize].contains(&true);
                prop_assert_eq!(mr.has_data_in(a + off, len), want, "{:?}", op);
            }
            Op::FetchAdd(off, x) => match mr.fetch_add(a + off, x) {
                Ok(old) => {
                    prop_assert!(Dense::fits(off, 8), "{:?} out of bounds", op);
                    prop_assert_eq!(old, dense.word(off), "{:?}", op);
                    dense.write(off, &old.wrapping_add(x).to_le_bytes());
                }
                Err(_) => prop_assert!(!Dense::fits(off, 8), "{:?} refused", op),
            },
            Op::Cas(off, expect, swap) => match mr.compare_swap(a + off, expect, swap) {
                Ok(old) => {
                    prop_assert!(Dense::fits(off, 8), "{:?} out of bounds", op);
                    prop_assert_eq!(old, dense.word(off), "{:?}", op);
                    if old == expect {
                        dense.write(off, &swap.to_le_bytes());
                    }
                }
                Err(_) => prop_assert!(!Dense::fits(off, 8), "{:?} refused", op),
            },
        }
        let spans = chunk_spans(mr);
        prop_assert!(
            spans.iter().all(|&(s, e)| s < e) && spans.windows(2).all(|w| w[0].1 <= w[1].0),
            "chunks empty or overlapping after {:?}: {:?}",
            op,
            spans
        );
        let written = dense.written.iter().filter(|&&w| w).count() as u64;
        prop_assert_eq!(mr.stored_bytes(), written, "stored bytes after {:?}", op);
        Ok(())
    }

    /// Full-region comparison, then deregistration revokes every access.
    fn finish(t: &MemTable, mr: &Rc<Mr>, dense: &Dense) -> Result<(), TestCaseError> {
        prop_assert_eq!(mr.read(mr.addr, LEN).unwrap(), dense.bytes.clone());
        t.dereg_mr(mr);
        prop_assert!(mr.write(mr.addr, b"x").is_err());
        prop_assert!(mr.read(mr.addr, 1).is_err());
        prop_assert!(mr.fetch_add(mr.addr, 1).is_err());
        prop_assert!(!mr.has_data_in(mr.addr, LEN));
        prop_assert_eq!(mr.stored_bytes(), 0);
        Ok(())
    }

    /// Turns one generated tuple into an op. Kinds 1-4 aim writes at the
    /// current chunk layout so the merge cases come up in every sequence:
    /// appends right behind and right in front of a chunk, a write from a
    /// chunk's key past its end, and a write spanning several chunks.
    /// Lengths start at 0, so zero-length writes come up too.
    fn decode(mr: &Mr, dense: &Dense, (kind, pos, len, x, y): (u8, u64, u64, u64, u64)) -> Op {
        let spans = chunk_spans(mr);
        let n = spans.len() as u64;
        let pick = |i: u64| spans[(i % n) as usize];
        let bytes = |len: u64| -> Vec<u8> {
            (0..len)
                .map(|i| (x.wrapping_mul(2 * i + 1) >> 56) as u8)
                .collect()
        };
        match kind {
            1 if n > 0 => Op::Write(pick(y).1, bytes(len)),
            2 if n > 0 => {
                let s = pick(y).0;
                Op::Write(s - len.min(s), bytes(len.min(s)))
            }
            3 if n > 0 => {
                let (s, e) = pick(y);
                Op::Write(s, bytes(e - s + 1 + len))
            }
            4 if n > 1 => {
                let i = y % (n - 1);
                let j = i + 1 + x % (n - 1 - i);
                let (s0, e0) = spans[i as usize];
                let (s1, e1) = spans[j as usize];
                let from = s0 + pos % (e0 - s0);
                let to = s1 + 1 + len % (e1 - s1);
                Op::Write(from, bytes(to - from))
            }
            5 => Op::Read(pos, len),
            6 => Op::HasData(pos, len.max(1)),
            7 => Op::FetchAdd(pos, x),
            8 => {
                let expect = if y % 2 == 0 && Dense::fits(pos, 8) {
                    dense.word(pos)
                } else {
                    x
                };
                Op::Cas(pos, expect, y)
            }
            _ => Op::Write(pos, bytes(len)),
        }
    }

    proptest! {
        /// Any sequence of writes, reads, data probes and atomics on a
        /// backed MR matches a dense byte array, and the backing stores
        /// exactly the bytes ever written.
        #[test]
        fn sparse_backing_matches_dense_model(
            ops in proptest::collection::vec(
                (0u8..9, 0u64..LEN + 16, 0u64..48, any::<u64>(), any::<u64>()),
                1..120,
            ),
        ) {
            let (t, mr) = backed_mr();
            let mut dense = Dense::new();
            for &g in &ops {
                let op = decode(&mr, &dense, g);
                apply(&mr, &mut dense, &op)?;
            }
            finish(&t, &mr, &dense)?;
        }
    }

    #[test]
    fn sparse_backing_merge_cases() {
        let (t, mr) = backed_mr();
        let mut dense = Dense::new();
        let mut run = |op: Op| apply(&mr, &mut dense, &op).unwrap();
        // Appends behind a chunk grow it in place.
        run(Op::Write(100, vec![1; 8]));
        run(Op::Write(108, vec![2; 8]));
        assert_eq!(chunk_spans(&mr), [(100, 116)]);
        // An append in front starts its own chunk.
        run(Op::Write(92, vec![3; 8]));
        assert_eq!(chunk_spans(&mr), [(92, 100), (100, 116)]);
        // From a chunk's key past its end: absorbs the next chunk, keeps
        // its tail.
        run(Op::Write(92, vec![4; 12]));
        assert_eq!(chunk_spans(&mr), [(92, 116)]);
        // Spanning several chunks, from inside the first into the last.
        run(Op::Write(200, vec![5; 4]));
        run(Op::Write(210, vec![6; 4]));
        run(Op::Write(220, vec![7; 4]));
        run(Op::Write(202, vec![8; 20]));
        assert_eq!(chunk_spans(&mr), [(92, 116), (200, 224)]);
        // Zero-length writes store nothing; only the bounds check applies.
        run(Op::Write(5, vec![]));
        run(Op::Write(LEN, vec![]));
        run(Op::Write(LEN + 1, vec![]));
        run(Op::Write(LEN - 4, vec![9; 8]));
        assert_eq!(chunk_spans(&mr), [(92, 116), (200, 224)]);
        for op in [
            Op::Read(90, 140),
            Op::HasData(116, 84),
            Op::HasData(115, 1),
            Op::FetchAdd(112, 7),
            Op::Cas(220, 0, 1),
            Op::FetchAdd(LEN - 4, 1),
        ] {
            run(op);
        }
        finish(&t, &mr, &dense).unwrap();
    }
}
