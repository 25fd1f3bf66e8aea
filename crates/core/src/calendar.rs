//! Calendar queue for the pipeline's scheduled events.
//!
//! Events are popped in `(cycle, insertion order)` order — exactly the
//! order of a min-heap keyed on `(at, order)` — but the common case costs
//! no comparisons at all. Each of the next [`HORIZON`] cycles owns a FIFO
//! bucket (an intrusive list through a node arena), and an occupancy
//! bitmap finds the next non-empty bucket with `trailing_zeros`. Events
//! further out than the horizon, or behind the bucket window, wait in an
//! ordered overflow heap.
//!
//! # Why overflow events drain first
//!
//! Every bucketed event is due in `[base, base + HORIZON)`, and `base`
//! only moves forward, over empty buckets. Take an overflow event `X` and
//! a bucketed event `Y` due in the same cycle `T`. If `X` overflowed
//! because `T >= base + HORIZON` at its push, `Y` was bucketed under a
//! larger `base`, hence pushed later. If `X` overflowed because `T` was
//! already behind `base`, no event for `T` could still sit in a bucket
//! then, nor be bucketed afterwards. Either way `X` is older, so draining
//! the overflow heap before the same cycle's bucket preserves insertion
//! order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles covered by the buckets. A power of two above the deepest
/// regular latency (a DRAM access plus a TLB miss), so only unusual
/// configurations use the overflow heap.
const HORIZON: u64 = 512;
const MASK: u64 = HORIZON - 1;
const WORDS: usize = (HORIZON / 64) as usize;

/// End of a bucket list / free list.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node<T> {
    item: T,
    next: u32,
}

/// An overflow-heap entry, ordered by `(at, order)`.
#[derive(Debug, Clone, Copy)]
struct Far<T> {
    at: u64,
    order: u64,
    item: T,
}

impl<T> PartialEq for Far<T> {
    fn eq(&self, other: &Far<T>) -> bool {
        (self.at, self.order) == (other.at, other.order)
    }
}

impl<T> Eq for Far<T> {}

impl<T> PartialOrd for Far<T> {
    fn partial_cmp(&self, other: &Far<T>) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Far<T> {
    fn cmp(&self, other: &Far<T>) -> std::cmp::Ordering {
        (self.at, self.order).cmp(&(other.at, other.order))
    }
}

/// The queue. Allocation happens only while the node arena and the
/// overflow heap grow toward their peak occupancy.
#[derive(Debug, Clone)]
pub(crate) struct CalendarQueue<T> {
    /// `(head, tail)` node of each cycle's FIFO, indexed by `at & MASK`.
    buckets: Vec<(u32, u32)>,
    /// Bit `b` set iff bucket `b` is non-empty.
    occupied: [u64; WORDS],
    nodes: Vec<Node<T>>,
    /// Head of the free-node list (threaded through `next`).
    free: u32,
    /// Every bucketed event is due in `[base, base + HORIZON)`.
    base: u64,
    bucketed: usize,
    overflow: BinaryHeap<Reverse<Far<T>>>,
    order: u64,
}

impl<T: Copy> CalendarQueue<T> {
    pub(crate) fn new() -> CalendarQueue<T> {
        CalendarQueue {
            buckets: vec![(NIL, NIL); HORIZON as usize],
            occupied: [0; WORDS],
            nodes: Vec::with_capacity(256),
            free: NIL,
            base: 0,
            bucketed: 0,
            overflow: BinaryHeap::new(),
            order: 0,
        }
    }

    /// Pending events.
    pub(crate) fn len(&self) -> usize {
        self.bucketed + self.overflow.len()
    }

    /// Schedule `item` for cycle `at`.
    pub(crate) fn push(&mut self, at: u64, item: T) {
        if at < self.base || at - self.base >= HORIZON {
            self.order += 1;
            self.overflow.push(Reverse(Far {
                at,
                order: self.order,
                item,
            }));
            return;
        }
        let node = Node { item, next: NIL };
        let n = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        let b = (at & MASK) as usize;
        match self.buckets[b] {
            (NIL, _) => {
                self.buckets[b] = (n, n);
                self.occupied[b / 64] |= 1 << (b % 64);
            }
            (head, tail) => {
                self.nodes[tail as usize].next = n;
                self.buckets[b] = (head, n);
            }
        }
        self.bucketed += 1;
    }

    /// The cycle of the earliest non-empty bucket.
    fn first_bucketed(&self) -> Option<u64> {
        if self.bucketed == 0 {
            return None;
        }
        let start = (self.base & MASK) as usize;
        let (w0, b0) = (start / 64, start % 64);
        let mut bucket = None;
        // Scan from `base`'s bucket round the ring: the rest of its word,
        // the other words, then the start of its word.
        if self.occupied[w0] >> b0 != 0 {
            bucket = Some(start + (self.occupied[w0] >> b0).trailing_zeros() as usize);
        } else {
            for k in 1..=WORDS {
                let w = (w0 + k) % WORDS;
                let bits = if k == WORDS {
                    self.occupied[w] & ((1u64 << b0) - 1)
                } else {
                    self.occupied[w]
                };
                if bits != 0 {
                    bucket = Some(w * 64 + bits.trailing_zeros() as usize);
                    break;
                }
            }
        }
        let b = bucket.expect("bucketed events have an occupied bucket") as u64;
        Some(self.base + (b.wrapping_sub(start as u64) & MASK))
    }

    /// The cycle of the earliest pending event.
    pub(crate) fn next_at(&self) -> Option<u64> {
        let far = self.overflow.peek().map(|Reverse(f)| f.at);
        match (self.first_bucketed(), far) {
            (Some(c), Some(f)) => Some(c.min(f)),
            (c, f) => c.or(f),
        }
    }

    /// Remove and return the earliest event due at or before `now`.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<T> {
        let near = self.first_bucketed();
        // Slide the window up to `now + 1` (a push is never due earlier),
        // but never past a non-empty bucket.
        self.base = self.base.max(near.map_or(now + 1, |c| c.min(now + 1)));
        if let Some(Reverse(f)) = self.overflow.peek() {
            if f.at <= now && near.is_none_or(|c| f.at <= c) {
                return self.overflow.pop().map(|Reverse(f)| f.item);
            }
        }
        let c = near.filter(|&c| c <= now)?;
        let b = (c & MASK) as usize;
        let (head, tail) = self.buckets[b];
        let node = self.nodes[head as usize];
        if head == tail {
            self.buckets[b] = (NIL, NIL);
            self.occupied[b / 64] &= !(1 << (b % 64));
        } else {
            self.buckets[b].0 = node.next;
        }
        self.nodes[head as usize].next = self.free;
        self.free = head;
        self.bucketed -= 1;
        Some(node.item)
    }

    /// Drop every pending event (runahead episode exit).
    pub(crate) fn clear(&mut self) {
        self.buckets.fill((NIL, NIL));
        self.occupied = [0; WORDS];
        self.nodes.clear();
        self.free = NIL;
        self.bucketed = 0;
        self.overflow.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wib_rng::StdRng;

    /// The structure being replaced: a min-heap on `(at, insertion order)`.
    #[derive(Default)]
    struct HeapModel {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        order: u64,
    }

    impl HeapModel {
        fn push(&mut self, at: u64, item: u32) {
            self.order += 1;
            self.heap.push(Reverse((at, self.order, item)));
        }

        fn pop_due(&mut self, now: u64) -> Option<u32> {
            match self.heap.peek() {
                Some(Reverse((at, _, _))) if *at <= now => self.heap.pop().map(|Reverse(e)| e.2),
                _ => None,
            }
        }

        fn next_at(&self) -> Option<u64> {
            self.heap.peek().map(|Reverse(e)| e.0)
        }
    }

    fn drain(q: &mut CalendarQueue<u32>, now: u64) -> Vec<u32> {
        std::iter::from_fn(|| q.pop_due(now)).collect()
    }

    #[test]
    fn same_cycle_events_pop_in_insertion_order() {
        let mut q = CalendarQueue::new();
        for (i, at) in [5u64, 3, 5, 4, 5, 3].into_iter().enumerate() {
            q.push(at, i as u32);
        }
        assert_eq!(q.len(), 6);
        assert_eq!(q.next_at(), Some(3));
        assert!(drain(&mut q, 2).is_empty());
        assert_eq!(drain(&mut q, 3), vec![1, 5]);
        assert_eq!(drain(&mut q, 5), vec![3, 0, 2, 4]);
        assert_eq!(q.len(), 0);
        assert_eq!(q.next_at(), None);
    }

    #[test]
    fn beyond_horizon_events_drain_before_the_same_cycles_bucket() {
        let mut q = CalendarQueue::new();
        let far = HORIZON + 10;
        q.push(far, 0); // overflow heap
        q.push(far + 1, 1); // overflow heap
        q.push(7, 2);
        assert_eq!(q.next_at(), Some(7));
        assert_eq!(drain(&mut q, 7), vec![2]);
        assert!(drain(&mut q, 50).is_empty());
        // The window has slid: the same cycles now land in buckets, behind
        // the older overflow entries.
        q.push(far, 3);
        q.push(far + 1, 4);
        q.push(far - 1, 5);
        assert_eq!(q.next_at(), Some(far - 1));
        assert_eq!(drain(&mut q, far + 1), vec![5, 0, 3, 1, 4]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn clear_drops_everything_and_the_queue_keeps_working() {
        let mut q = CalendarQueue::new();
        for at in [3u64, 9, 2 * HORIZON] {
            q.push(at, at as u32);
        }
        assert_eq!(drain(&mut q, 3), vec![3]);
        q.clear();
        assert_eq!(q.len(), 0);
        assert_eq!(q.next_at(), None);
        assert!(drain(&mut q, 10 * HORIZON).is_empty());
        q.push(10 * HORIZON + 1, 7);
        q.push(10 * HORIZON + 1, 8);
        assert_eq!(q.next_at(), Some(10 * HORIZON + 1));
        assert_eq!(drain(&mut q, 10 * HORIZON + 1), vec![7, 8]);
    }

    #[test]
    fn next_event_peek_wraps_round_the_ring() {
        let mut q = CalendarQueue::new();
        // Move the window so `base` sits in the last bitmap word.
        let base = 3 * HORIZON - 5;
        assert!(drain(&mut q, base - 1).is_empty());
        // Due after the wrap: its bucket index is below `base`'s.
        q.push(base + 20, 1);
        assert_eq!(q.next_at(), Some(base + 20));
        // Due before the wrap, in the same word as `base`.
        q.push(base + 2, 2);
        assert_eq!(q.next_at(), Some(base + 2));
        assert_eq!(drain(&mut q, base + 2), vec![2]);
        assert_eq!(q.next_at(), Some(base + 20));
        // The far end of the window shares `base`'s word, below its bit.
        q.push(base + HORIZON - 1, 3);
        assert_eq!(drain(&mut q, base + 20), vec![1]);
        assert_eq!(q.next_at(), Some(base + HORIZON - 1));
        assert_eq!(drain(&mut q, base + HORIZON), vec![3]);
    }

    /// Engine-shaped random traffic — pushes at `now + latency` (some past
    /// the horizon), drains every cycle, quiescent jumps straight to the
    /// next event, an occasional `clear` — against the heap model.
    #[test]
    fn random_traffic_matches_the_heap_model() {
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = CalendarQueue::new();
            let mut model = HeapModel::default();
            let mut now = 0u64;
            let mut id = 0u32;
            for _ in 0..4_000 {
                loop {
                    let got = q.pop_due(now);
                    assert_eq!(got, model.pop_due(now), "seed {seed} cycle {now}");
                    if got.is_none() {
                        break;
                    }
                }
                for _ in 0..rng.random_range(0..4u64) {
                    let latency = match rng.random_range(0..10u64) {
                        0 => rng.random_range(HORIZON - 4..3 * HORIZON),
                        1..=3 => rng.random_range(1..8u64),
                        _ => rng.random_range(1..300u64),
                    };
                    q.push(now + latency, id);
                    model.push(now + latency, id);
                    id += 1;
                }
                assert_eq!(q.len(), model.heap.len());
                assert_eq!(q.next_at(), model.next_at(), "seed {seed} cycle {now}");
                now = match (rng.random_range(0..4u64), q.next_at()) {
                    (0, Some(at)) => at,
                    _ => now + 1,
                };
                if rng.random_range(0..500u64) == 0 {
                    q.clear();
                    model.heap.clear();
                }
            }
        }
    }
}
