//! Load and store queues: speculative load execution, store-to-load
//! forwarding, and load-store order-violation detection.
//!
//! Loads execute as soon as their address is known (gated by the
//! store-wait predictor); a store that later resolves its address and
//! finds a younger, already-executed, overlapping load raises an order
//! violation, squashing from that load (the 21264 replay trap the paper's
//! base machine models).

use crate::types::Seq;
use std::collections::VecDeque;

/// Byte range `[addr, addr + width)` overlap test, wrap-free (kernel data
/// never straddles the top of the address space).
fn overlaps(a: u32, aw: u32, b: u32, bw: u32) -> bool {
    let (a, aw, b, bw) = (a as u64, aw as u64, b as u64, bw as u64);
    a < b + bw && b < a + aw
}

/// True if store `[sa, sa+sw)` fully covers load `[la, la+lw)`.
fn covers(sa: u32, sw: u32, la: u32, lw: u32) -> bool {
    let (sa, sw, la, lw) = (sa as u64, sw as u64, la as u64, lw as u64);
    sa <= la && la + lw <= sa + sw
}

/// A store-queue entry.
///
/// Address generation is decoupled from the data (as on the 21264): the
/// store issues as soon as its base register is ready, resolving the
/// address for dependence checking; the data may arrive much later.
#[derive(Debug, Clone, Copy)]
pub struct StoreEntry {
    /// Owning instruction.
    pub seq: Seq,
    /// Effective address, once the store has executed (agen).
    pub addr: Option<u32>,
    /// Access width in bytes.
    pub width: u32,
    /// Store data (valid once `data_ready`).
    pub data: u64,
    /// True once the data operand has been captured.
    pub data_ready: bool,
}

/// A load-queue entry.
#[derive(Debug, Clone, Copy)]
pub struct LoadEntry {
    /// Owning instruction.
    pub seq: Seq,
    /// Effective address, once the load has executed.
    pub addr: Option<u32>,
    /// Access width in bytes.
    pub width: u32,
}

/// What the store queue says about a load about to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardResult {
    /// No older overlapping store in the queue: read memory.
    FromMemory,
    /// Fully covered by this older store's data: `(store seq, value bits)`
    /// — the value is already shifted/masked for the load.
    Forward(Seq, u64),
    /// An older overlapping store exists but cannot forward (partial
    /// coverage): the load must wait until that store commits.
    BlockedOn(Seq),
}

/// The combined load/store queues.
#[derive(Debug, Clone)]
pub struct LoadStoreQueue {
    loads: VecDeque<LoadEntry>,
    stores: VecDeque<StoreEntry>,
    lq_capacity: usize,
    sq_capacity: usize,
}

impl LoadStoreQueue {
    /// Empty queues with the given capacities.
    pub fn new(lq_capacity: usize, sq_capacity: usize) -> LoadStoreQueue {
        LoadStoreQueue {
            loads: VecDeque::new(),
            stores: VecDeque::new(),
            lq_capacity,
            sq_capacity,
        }
    }

    /// Free load-queue slots.
    pub fn lq_free(&self) -> usize {
        self.lq_capacity - self.loads.len()
    }

    /// Free store-queue slots.
    pub fn sq_free(&self) -> usize {
        self.sq_capacity - self.stores.len()
    }

    /// Allocate a load-queue entry at dispatch (program order).
    ///
    /// # Panics
    /// Panics if the load queue is full or allocation is out of order.
    pub fn push_load(&mut self, seq: Seq, width: u32) {
        assert!(self.loads.len() < self.lq_capacity, "load queue overflow");
        debug_assert!(self.loads.back().is_none_or(|l| l.seq < seq));
        self.loads.push_back(LoadEntry {
            seq,
            addr: None,
            width,
        });
    }

    /// Allocate a store-queue entry at dispatch (program order).
    ///
    /// # Panics
    /// Panics if the store queue is full or allocation is out of order.
    pub fn push_store(&mut self, seq: Seq, width: u32) {
        assert!(self.stores.len() < self.sq_capacity, "store queue overflow");
        debug_assert!(self.stores.back().is_none_or(|s| s.seq < seq));
        self.stores.push_back(StoreEntry {
            seq,
            addr: None,
            width,
            data: 0,
            data_ready: false,
        });
    }

    /// Queue position of the load `seq` (both queues are age-ordered, so
    /// this is a binary search).
    fn load_pos(&self, seq: Seq) -> Option<usize> {
        self.loads.binary_search_by_key(&seq, |l| l.seq).ok()
    }

    /// Queue position of the store `seq`.
    fn store_pos(&self, seq: Seq) -> Option<usize> {
        self.stores.binary_search_by_key(&seq, |s| s.seq).ok()
    }

    /// Number of stores older than `seq`: they occupy `stores[..n]`.
    fn stores_older_than(&self, seq: Seq) -> usize {
        self.stores.partition_point(|s| s.seq < seq)
    }

    /// Record a load's effective address (at execute).
    pub fn set_load_addr(&mut self, seq: Seq, addr: u32) {
        let i = self.load_pos(seq).expect("load not in queue");
        self.loads[i].addr = Some(addr);
    }

    /// The effective address of load `seq`, if it is queued and executed.
    pub fn load_addr(&self, seq: Seq) -> Option<u32> {
        self.load_pos(seq).and_then(|i| self.loads[i].addr)
    }

    /// Record a store's effective address (at agen). Returns the oldest
    /// *younger* load that already executed and overlaps — an order
    /// violation the core must squash from.
    pub fn set_store_addr(&mut self, seq: Seq, addr: u32) -> Option<Seq> {
        let i = self.store_pos(seq).expect("store not in queue");
        let e = &mut self.stores[i];
        e.addr = Some(addr);
        let width = e.width;
        let first_younger = self.loads.partition_point(|l| l.seq <= seq);
        self.loads
            .range(first_younger..)
            .filter_map(|l| l.addr.map(|la| (l.seq, la, l.width)))
            .find(|&(_, la, lw)| overlaps(addr, width, la, lw))
            .map(|(s, _, _)| s)
    }

    /// Record a store's data once the data operand is produced.
    pub fn set_store_data(&mut self, seq: Seq, data: u64) {
        let i = self.store_pos(seq).expect("store not in queue");
        let e = &mut self.stores[i];
        e.data = data;
        e.data_ready = true;
    }

    /// Ask the store queue how the load `seq` at `addr` should obtain its
    /// value. Scans older stores youngest-first.
    pub fn forward_for_load(&self, seq: Seq, addr: u32, width: u32) -> ForwardResult {
        for s in self.stores.range(..self.stores_older_than(seq)).rev() {
            let Some(sa) = s.addr else {
                // Unresolved older store: speculate past it (the violation
                // check catches a real conflict later).
                continue;
            };
            if !overlaps(sa, s.width, addr, width) {
                continue;
            }
            if covers(sa, s.width, addr, width) && s.data_ready {
                let shift = (addr - sa) * 8;
                let bits = s.data >> shift;
                let bits = if width >= 8 {
                    bits
                } else {
                    bits & ((1u64 << (width * 8)) - 1)
                };
                return ForwardResult::Forward(s.seq, bits);
            }
            // Partial coverage, or the data has not been produced yet.
            return ForwardResult::BlockedOn(s.seq);
        }
        ForwardResult::FromMemory
    }

    /// True if every store older than `seq` has resolved its address
    /// (store-wait gating for loads the predictor marks).
    pub fn older_stores_resolved(&self, seq: Seq) -> bool {
        self.stores
            .range(..self.stores_older_than(seq))
            .rev()
            .all(|s| s.addr.is_some())
    }

    /// True if the store `seq` is still in the queue (i.e. not committed).
    pub fn store_in_flight(&self, seq: Seq) -> bool {
        self.store_pos(seq).is_some()
    }

    /// Release the head load at commit.
    pub fn pop_load(&mut self, seq: Seq) {
        match self.loads.front() {
            Some(l) if l.seq == seq => {
                self.loads.pop_front();
            }
            other => panic!("commit of load {seq} but LQ head is {other:?}"),
        }
    }

    /// Release the head store at commit, returning its address/data for
    /// the architectural write.
    ///
    /// # Panics
    /// Panics if `seq` is not the head store or its data never arrived
    /// (commit requires a completed store).
    pub fn pop_store(&mut self, seq: Seq) -> StoreEntry {
        match self.stores.front() {
            Some(s) if s.seq == seq => {
                assert!(s.data_ready, "committing store {seq} without data");
                self.stores.pop_front().expect("nonempty")
            }
            other => panic!("commit of store {seq} but SQ head is {other:?}"),
        }
    }

    /// Remove all entries with `seq >= from` (squash).
    pub fn squash_from(&mut self, from: Seq) {
        while self.loads.back().is_some_and(|l| l.seq >= from) {
            self.loads.pop_back();
        }
        while self.stores.back().is_some_and(|s| s.seq >= from) {
            self.stores.pop_back();
        }
    }

    /// Loads currently resident (diagnostics).
    pub fn loads(&self) -> impl Iterator<Item = &LoadEntry> {
        self.loads.iter()
    }

    /// Stores currently resident (diagnostics).
    pub fn stores(&self) -> impl Iterator<Item = &StoreEntry> {
        self.stores.iter()
    }

    /// Machine-check: both queues within capacity and in strict program
    /// (age) order — the binary-search lookups, forwarding's youngest-first
    /// scan and the commit-head pops rely on it.
    pub fn check_invariants(&self) -> Result<(), String> {
        let fail = |msg: String| Err(format!("lsq: {msg}"));
        if self.loads.len() > self.lq_capacity {
            return fail(format!("load queue over capacity: {}", self.loads.len()));
        }
        if self.stores.len() > self.sq_capacity {
            return fail(format!("store queue over capacity: {}", self.stores.len()));
        }
        for w in 0..self.loads.len().saturating_sub(1) {
            if self.loads[w].seq >= self.loads[w + 1].seq {
                return fail(format!(
                    "load queue out of age order at {}",
                    self.loads[w].seq
                ));
            }
        }
        for w in 0..self.stores.len().saturating_sub(1) {
            if self.stores[w].seq >= self.stores[w + 1].seq {
                return fail(format!(
                    "store queue out of age order at {}",
                    self.stores[w].seq
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_math() {
        assert!(overlaps(100, 4, 100, 4));
        assert!(overlaps(100, 4, 103, 1));
        assert!(!overlaps(100, 4, 104, 4));
        assert!(overlaps(100, 8, 104, 4));
        assert!(covers(100, 8, 104, 4));
        assert!(!covers(104, 4, 100, 8));
    }

    #[test]
    fn forwarding_full_coverage() {
        let mut q = LoadStoreQueue::new(8, 8);
        q.push_store(1, 4);
        q.push_load(2, 4);
        assert!(q.set_store_addr(1, 0x100).is_none());
        q.set_store_data(1, 0xdead_beef);
        assert_eq!(
            q.forward_for_load(2, 0x100, 4),
            ForwardResult::Forward(1, 0xdead_beef)
        );
    }

    #[test]
    fn forwarding_subword_extract() {
        let mut q = LoadStoreQueue::new(8, 8);
        q.push_store(1, 8);
        q.push_load(2, 1);
        q.set_store_addr(1, 0x100);
        q.set_store_data(1, 0x0807_0605_0403_0201);
        // Byte at offset 3 of the 8-byte store.
        assert_eq!(
            q.forward_for_load(2, 0x103, 1),
            ForwardResult::Forward(1, 0x04)
        );
    }

    #[test]
    fn partial_coverage_blocks() {
        let mut q = LoadStoreQueue::new(8, 8);
        q.push_store(1, 1);
        q.push_load(2, 4);
        q.set_store_addr(1, 0x102);
        q.set_store_data(1, 0xff);
        assert_eq!(q.forward_for_load(2, 0x100, 4), ForwardResult::BlockedOn(1));
    }

    #[test]
    fn two_disjoint_partial_stores_block_not_forward() {
        // A wide load covered only by the *union* of two disjoint older
        // stores must not forward from either one alone: the youngest
        // overlapping store partially covers, so the load blocks on it.
        let mut q = LoadStoreQueue::new(8, 8);
        q.push_store(1, 4); // low half
        q.push_store(2, 4); // high half
        q.push_load(3, 8);
        q.set_store_addr(1, 0x100);
        q.set_store_data(1, 0x1111_1111);
        q.set_store_addr(2, 0x104);
        q.set_store_data(2, 0x2222_2222);
        assert_eq!(q.forward_for_load(3, 0x100, 8), ForwardResult::BlockedOn(2));
    }

    #[test]
    fn younger_partial_shadows_older_full_coverage() {
        // An older store fully covers the load, but a younger (still
        // older-than-load) store partially overwrites part of the range:
        // forwarding from the full-coverage store would miss the younger
        // bytes, so the load must block on the partial store.
        let mut q = LoadStoreQueue::new(8, 8);
        q.push_store(1, 8); // full coverage
        q.push_store(2, 1); // one byte inside the range
        q.push_load(3, 8);
        q.set_store_addr(1, 0x100);
        q.set_store_data(1, 0xffff_ffff_ffff_ffff);
        q.set_store_addr(2, 0x103);
        q.set_store_data(2, 0xab);
        assert_eq!(q.forward_for_load(3, 0x100, 8), ForwardResult::BlockedOn(2));
    }

    #[test]
    fn disjoint_younger_store_does_not_mask_older_coverage() {
        // The youngest overlapping store is the covering one; a younger
        // store to a disjoint address must not interfere.
        let mut q = LoadStoreQueue::new(8, 8);
        q.push_store(1, 4);
        q.push_store(2, 4);
        q.push_load(3, 4);
        q.set_store_addr(1, 0x100);
        q.set_store_data(1, 0x5555_5555);
        q.set_store_addr(2, 0x200); // disjoint
        q.set_store_data(2, 0x9999_9999);
        assert_eq!(
            q.forward_for_load(3, 0x100, 4),
            ForwardResult::Forward(1, 0x5555_5555)
        );
    }

    #[test]
    fn partial_store_without_data_still_blocks() {
        // Data readiness must not matter for the block decision: an
        // overlapping partial store with unresolved data blocks too.
        let mut q = LoadStoreQueue::new(8, 8);
        q.push_store(1, 2);
        q.push_load(2, 8);
        q.set_store_addr(1, 0x104); // partial, data never set
        assert_eq!(q.forward_for_load(2, 0x100, 8), ForwardResult::BlockedOn(1));
    }

    #[test]
    fn checker_validates_age_order() {
        let mut q = LoadStoreQueue::new(8, 8);
        q.push_store(1, 4);
        q.push_load(2, 4);
        q.push_load(4, 4);
        q.check_invariants().unwrap();
        q.loads[0].seq = 9; // simulate an ordering bug
        assert!(q.check_invariants().is_err());
    }

    #[test]
    fn youngest_older_store_wins() {
        let mut q = LoadStoreQueue::new(8, 8);
        q.push_store(1, 4);
        q.push_store(2, 4);
        q.push_load(3, 4);
        q.set_store_addr(1, 0x100);
        q.set_store_data(1, 0x1111_1111);
        q.set_store_addr(2, 0x100);
        q.set_store_data(2, 0x2222_2222);
        assert_eq!(
            q.forward_for_load(3, 0x100, 4),
            ForwardResult::Forward(2, 0x2222_2222)
        );
    }

    #[test]
    fn younger_stores_ignored() {
        let mut q = LoadStoreQueue::new(8, 8);
        q.push_load(1, 4);
        q.push_store(2, 4);
        q.set_store_addr(2, 0x100);
        q.set_store_data(2, 0x9999_9999);
        assert_eq!(q.forward_for_load(1, 0x100, 4), ForwardResult::FromMemory);
    }

    #[test]
    fn violation_detection_picks_oldest_younger_load() {
        let mut q = LoadStoreQueue::new(8, 8);
        q.push_store(1, 4);
        q.push_load(2, 4);
        q.push_load(3, 4);
        q.set_load_addr(2, 0x100);
        q.set_load_addr(3, 0x100);
        assert_eq!(q.set_store_addr(1, 0x100), Some(2));
    }

    #[test]
    fn no_violation_when_loads_unexecuted_or_disjoint() {
        let mut q = LoadStoreQueue::new(8, 8);
        q.push_store(1, 4);
        q.push_load(2, 4);
        q.push_load(3, 4);
        q.set_load_addr(3, 0x200); // disjoint
        assert_eq!(q.set_store_addr(1, 0x100), None);
    }

    #[test]
    fn store_wait_gating() {
        let mut q = LoadStoreQueue::new(8, 8);
        q.push_store(1, 4);
        q.push_load(2, 4);
        assert!(!q.older_stores_resolved(2));
        q.set_store_addr(1, 0x500);
        q.set_store_data(1, 1);
        assert!(q.older_stores_resolved(2));
    }

    #[test]
    fn commit_and_squash() {
        let mut q = LoadStoreQueue::new(8, 8);
        q.push_store(1, 4);
        q.push_load(2, 4);
        q.push_store(3, 4);
        q.push_load(4, 4);
        q.squash_from(3);
        assert_eq!(q.lq_free(), 7);
        assert_eq!(q.sq_free(), 7);
        q.set_store_addr(1, 0x10);
        q.set_store_data(1, 7);
        let s = q.pop_store(1);
        assert_eq!((s.addr, s.data), (Some(0x10), 7));
        q.pop_load(2);
        assert_eq!(q.lq_free(), 8);
        assert!(!q.store_in_flight(1));
    }

    /// The linear scans the binary-searched lookups replaced, kept as
    /// the reference model.
    #[derive(Default)]
    struct LinearModel {
        loads: Vec<LoadEntry>,
        stores: Vec<StoreEntry>,
    }

    impl LinearModel {
        fn set_store_addr(&mut self, seq: Seq, addr: u32) -> Option<Seq> {
            let e = self.stores.iter_mut().find(|s| s.seq == seq).unwrap();
            e.addr = Some(addr);
            let width = e.width;
            self.loads
                .iter()
                .filter(|l| l.seq > seq)
                .filter_map(|l| l.addr.map(|la| (l.seq, la, l.width)))
                .find(|&(_, la, lw)| overlaps(addr, width, la, lw))
                .map(|(s, _, _)| s)
        }

        fn forward_for_load(&self, seq: Seq, addr: u32, width: u32) -> ForwardResult {
            for s in self.stores.iter().rev().filter(|s| s.seq < seq) {
                let Some(sa) = s.addr else { continue };
                if !overlaps(sa, s.width, addr, width) {
                    continue;
                }
                if covers(sa, s.width, addr, width) && s.data_ready {
                    let bits = s.data >> ((addr - sa) * 8);
                    let bits = if width >= 8 {
                        bits
                    } else {
                        bits & ((1u64 << (width * 8)) - 1)
                    };
                    return ForwardResult::Forward(s.seq, bits);
                }
                return ForwardResult::BlockedOn(s.seq);
            }
            ForwardResult::FromMemory
        }

        fn older_stores_resolved(&self, seq: Seq) -> bool {
            self.stores.iter().all(|s| s.seq >= seq || s.addr.is_some())
        }
    }

    /// Random dispatch / execute / commit / squash traffic: every lookup
    /// must agree with the linear model.
    #[test]
    fn binary_search_matches_linear_scans() {
        use wib_rng::StdRng;
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = LoadStoreQueue::new(24, 16);
            let mut m = LinearModel::default();
            let mut next_seq = 0;
            let addr = |rng: &mut StdRng| 0x100 + rng.random_range(0..24u32);
            let width = |rng: &mut StdRng| [1, 4, 8][rng.random_range(0..3usize)];
            for _ in 0..4_000 {
                next_seq += rng.random_range(1..3u64);
                let seq = next_seq;
                match rng.random_range(0..12u64) {
                    0..=2 if q.lq_free() > 0 => {
                        let w = width(&mut rng);
                        q.push_load(seq, w);
                        m.loads.push(LoadEntry {
                            seq,
                            addr: None,
                            width: w,
                        });
                    }
                    3..=4 if q.sq_free() > 0 => {
                        let w = width(&mut rng);
                        q.push_store(seq, w);
                        m.stores.push(StoreEntry {
                            seq,
                            addr: None,
                            width: w,
                            data: 0,
                            data_ready: false,
                        });
                    }
                    5 if !m.loads.is_empty() => {
                        let i = rng.random_range(0..m.loads.len());
                        let a = addr(&mut rng);
                        q.set_load_addr(m.loads[i].seq, a);
                        m.loads[i].addr = Some(a);
                    }
                    6 if !m.stores.is_empty() => {
                        let i = rng.random_range(0..m.stores.len());
                        let (s, a) = (m.stores[i].seq, addr(&mut rng));
                        assert_eq!(q.set_store_addr(s, a), m.set_store_addr(s, a));
                    }
                    7 if !m.stores.is_empty() => {
                        let i = rng.random_range(0..m.stores.len());
                        let d = rng.next_u64();
                        q.set_store_data(m.stores[i].seq, d);
                        m.stores[i].data = d;
                        m.stores[i].data_ready = true;
                    }
                    8 if m.loads.first().is_some_and(|l| l.addr.is_some()) => {
                        q.pop_load(m.loads.remove(0).seq);
                    }
                    9 if m.stores.first().is_some_and(|s| s.data_ready) => {
                        let s = m.stores.remove(0);
                        assert_eq!(q.pop_store(s.seq).addr, s.addr);
                    }
                    10 => {
                        let from = rng.random_range(0..next_seq + 1);
                        q.squash_from(from);
                        m.loads.retain(|l| l.seq < from);
                        m.stores.retain(|s| s.seq < from);
                    }
                    _ => {}
                }
                for _ in 0..4 {
                    let probe = rng.random_range(0..next_seq + 2);
                    let (a, w) = (addr(&mut rng), width(&mut rng));
                    assert_eq!(
                        q.forward_for_load(probe, a, w),
                        m.forward_for_load(probe, a, w),
                        "seed {seed}"
                    );
                    assert_eq!(
                        q.older_stores_resolved(probe),
                        m.older_stores_resolved(probe)
                    );
                    assert_eq!(
                        q.store_in_flight(probe),
                        m.stores.iter().any(|s| s.seq == probe)
                    );
                    assert_eq!(
                        q.load_addr(probe),
                        m.loads.iter().find(|l| l.seq == probe).and_then(|l| l.addr)
                    );
                }
                q.check_invariants().unwrap();
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn lq_overflow_panics() {
        let mut q = LoadStoreQueue::new(1, 1);
        q.push_load(1, 4);
        q.push_load(2, 4);
    }
}
