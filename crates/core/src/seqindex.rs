//! Fixed-size open-addressing `Seq -> slot` map shared by the issue queue
//! and the active list.
//!
//! Linear probing with backward-shift deletion (no tombstones), sized to
//! at most 50% load so probe chains stay short. Never allocates after
//! construction, so both structures keep the cycle loop allocation-free.

use crate::types::Seq;

/// Sentinel for "no slot": marks an empty cell.
pub(crate) const NIL: u32 = u32::MAX;

/// The map. `slots` is the most keys ever live at once.
#[derive(Debug, Clone)]
pub(crate) struct SeqIndex {
    /// `(seq, slot)`; `slot == NIL` marks an empty cell.
    table: Vec<(Seq, u32)>,
    mask: usize,
}

impl SeqIndex {
    pub(crate) fn new(slots: usize) -> SeqIndex {
        let size = (slots * 2).next_power_of_two().max(8);
        SeqIndex {
            table: vec![(0, NIL); size],
            mask: size - 1,
        }
    }

    #[inline]
    fn home(&self, seq: Seq) -> usize {
        // Fibonacci hashing: multiply spreads consecutive seqs, the high
        // bits feed the table index.
        (seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & self.mask
    }

    pub(crate) fn insert(&mut self, seq: Seq, slot: u32) {
        let mut i = self.home(seq);
        while self.table[i].1 != NIL {
            debug_assert_ne!(self.table[i].0, seq, "duplicate key {seq}");
            i = (i + 1) & self.mask;
        }
        self.table[i] = (seq, slot);
    }

    #[inline]
    pub(crate) fn get(&self, seq: Seq) -> Option<u32> {
        let mut i = self.home(seq);
        loop {
            let (s, slot) = self.table[i];
            if slot == NIL {
                return None;
            }
            if s == seq {
                return Some(slot);
            }
            i = (i + 1) & self.mask;
        }
    }

    pub(crate) fn remove(&mut self, seq: Seq) -> Option<u32> {
        let mut i = self.home(seq);
        loop {
            let (s, slot) = self.table[i];
            if slot == NIL {
                return None;
            }
            if s == seq {
                break;
            }
            i = (i + 1) & self.mask;
        }
        let removed = self.table[i].1;
        // Backward-shift deletion: pull displaced entries into the hole so
        // every probe chain stays contiguous.
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            if self.table[j].1 == NIL {
                break;
            }
            let k = self.home(self.table[j].0);
            // Move `j` into the hole unless its home lies cyclically in
            // (i, j] — in that case the entry is already on its shortest
            // reachable position.
            let stuck = if j > i {
                k > i && k <= j
            } else {
                k > i || k <= j
            };
            if !stuck {
                self.table[i] = self.table[j];
                i = j;
            }
        }
        self.table[i].1 = NIL;
        Some(removed)
    }

    /// Occupied cells (machine check: must equal the owner's length).
    pub(crate) fn live_cells(&self) -> usize {
        self.table.iter().filter(|(_, s)| *s != NIL).count()
    }
}
