//! The byte-addressed memory interface shared by the reference interpreter
//! and the detailed simulator.
//!
//! Unwritten memory reads as zero, which keeps wrong-path loads (after a
//! branch misprediction) well defined without any fault machinery.

/// Byte-addressable 32-bit memory.
///
/// Multi-byte accessors are little-endian and have default implementations
/// in terms of the byte accessors; implementors may override them for
/// speed. Addresses wrap modulo 2^32.
pub trait Memory {
    /// Read one byte. Unwritten locations read as zero.
    fn read_u8(&self, addr: u32) -> u8;

    /// Write one byte.
    fn write_u8(&mut self, addr: u32, value: u8);

    /// Read a little-endian `u32`.
    fn read_u32(&self, addr: u32) -> u32 {
        let mut bytes = [0u8; 4];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u32));
        }
        u32::from_le_bytes(bytes)
    }

    /// Write a little-endian `u32`.
    fn write_u32(&mut self, addr: u32, value: u32) {
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    /// Read a little-endian `u64`.
    fn read_u64(&self, addr: u32) -> u64 {
        let lo = self.read_u32(addr) as u64;
        let hi = self.read_u32(addr.wrapping_add(4)) as u64;
        lo | (hi << 32)
    }

    /// Write a little-endian `u64`.
    fn write_u64(&mut self, addr: u32, value: u64) {
        self.write_u32(addr, value as u32);
        self.write_u32(addr.wrapping_add(4), (value >> 32) as u32);
    }

    /// Read `width` bytes (1, 4 or 8) as raw zero-extended bits.
    ///
    /// # Panics
    /// Panics on an unsupported width.
    fn read_bits(&self, addr: u32, width: u32) -> u64 {
        match width {
            1 => self.read_u8(addr) as u64,
            4 => self.read_u32(addr) as u64,
            8 => self.read_u64(addr),
            w => panic!("unsupported access width {w}"),
        }
    }

    /// Write the low `width` bytes (1, 4 or 8) of `bits`.
    ///
    /// # Panics
    /// Panics on an unsupported width.
    fn write_bits(&mut self, addr: u32, width: u32, bits: u64) {
        match width {
            1 => self.write_u8(addr, bits as u8),
            4 => self.write_u32(addr, bits as u32),
            8 => self.write_u64(addr, bits),
            w => panic!("unsupported access width {w}"),
        }
    }

    /// Write a contiguous block of bytes starting at `addr` (bulk image
    /// loading).
    fn write_block(&mut self, addr: u32, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }
}

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
/// Address bits resolved by each page-table level: 10 + 10 + 12 = 32.
const LEVEL_BITS: u32 = 10;
const LEVEL_SIZE: usize = 1 << LEVEL_BITS;

type Page = [u8; PAGE_SIZE];
/// A second-level table: 1024 pages (4 MB of address space).
type PageTable = [Option<Box<Page>>; LEVEL_SIZE];

/// A sparse, paged memory: only touched 4 KB pages are allocated.
///
/// Pages hang off a two-level direct-indexed table (1024 × 1024 × 4 KB
/// covers the whole 32-bit space), so an access is two array indexations
/// and no hashing. Second-level tables are allocated on first write.
#[derive(Debug, Clone)]
pub struct PagedMemory {
    dir: Box<[Option<Box<PageTable>>; LEVEL_SIZE]>,
    pages: usize,
}

impl Default for PagedMemory {
    fn default() -> PagedMemory {
        PagedMemory {
            dir: Box::new([const { None }; LEVEL_SIZE]),
            pages: 0,
        }
    }
}

impl PagedMemory {
    /// Create an empty memory (all bytes read as zero).
    pub fn new() -> PagedMemory {
        PagedMemory::default()
    }

    /// Number of 4 KB pages currently allocated.
    pub fn pages_allocated(&self) -> usize {
        self.pages
    }

    /// The page holding `addr`, if it was ever written.
    #[inline]
    fn page(&self, addr: u32) -> Option<&Page> {
        let table = self.dir[(addr >> (PAGE_SHIFT + LEVEL_BITS)) as usize].as_deref()?;
        table[(addr >> PAGE_SHIFT) as usize & (LEVEL_SIZE - 1)].as_deref()
    }

    /// The page holding `addr`, allocated (zero-filled) on first touch.
    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut Page {
        let table = self.dir[(addr >> (PAGE_SHIFT + LEVEL_BITS)) as usize]
            .get_or_insert_with(|| Box::new([const { None }; LEVEL_SIZE]));
        let slot = &mut table[(addr >> PAGE_SHIFT) as usize & (LEVEL_SIZE - 1)];
        if slot.is_none() {
            self.pages += 1;
        }
        slot.get_or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }
}

impl Memory for PagedMemory {
    fn read_u8(&self, addr: u32) -> u8 {
        match self.page(addr) {
            Some(page) => page[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    fn read_u32(&self, addr: u32) -> u32 {
        // Fast path for the overwhelmingly common aligned in-page case.
        if addr & 3 == 0 {
            if let Some(page) = self.page(addr) {
                let off = (addr as usize) & (PAGE_SIZE - 1);
                return u32::from_le_bytes(page[off..off + 4].try_into().unwrap());
            }
            return 0;
        }
        let mut bytes = [0u8; 4];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u32));
        }
        u32::from_le_bytes(bytes)
    }

    fn write_u32(&mut self, addr: u32, value: u32) {
        // One page-table lookup for the aligned in-page case instead of
        // four (every committed store lands here via `write_bits`).
        if addr & 3 == 0 {
            let page = self.page_mut(addr);
            let off = (addr as usize) & (PAGE_SIZE - 1);
            page[off..off + 4].copy_from_slice(&value.to_le_bytes());
            return;
        }
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    fn read_u64(&self, addr: u32) -> u64 {
        if addr & 7 == 0 {
            if let Some(page) = self.page(addr) {
                let off = (addr as usize) & (PAGE_SIZE - 1);
                return u64::from_le_bytes(page[off..off + 8].try_into().unwrap());
            }
            return 0;
        }
        let lo = self.read_u32(addr) as u64;
        let hi = self.read_u32(addr.wrapping_add(4)) as u64;
        lo | (hi << 32)
    }

    fn write_u64(&mut self, addr: u32, value: u64) {
        if addr & 7 == 0 {
            let page = self.page_mut(addr);
            let off = (addr as usize) & (PAGE_SIZE - 1);
            page[off..off + 8].copy_from_slice(&value.to_le_bytes());
            return;
        }
        self.write_u32(addr, value as u32);
        self.write_u32(addr.wrapping_add(4), (value >> 32) as u32);
    }

    fn write_block(&mut self, addr: u32, bytes: &[u8]) {
        // One page-table lookup per touched 4 KB page.
        let mut off = 0usize;
        while off < bytes.len() {
            let a = addr.wrapping_add(off as u32);
            let start = (a as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - start).min(bytes.len() - off);
            self.page_mut(a)[start..start + n].copy_from_slice(&bytes[off..off + n]);
            off += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill() {
        let m = PagedMemory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u32(0xdead_bee0), 0);
        assert_eq!(m.read_u64(12), 0);
    }

    #[test]
    fn round_trips() {
        let mut m = PagedMemory::new();
        m.write_u32(0x1000, 0xdead_beef);
        assert_eq!(m.read_u32(0x1000), 0xdead_beef);
        assert_eq!(m.read_u8(0x1000), 0xef); // little-endian
        m.write_u64(0x2000, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(0x2000), 0x0123_4567_89ab_cdef);
        m.write_u8(0x3000, 0x5a);
        assert_eq!(m.read_u8(0x3000), 0x5a);
    }

    #[test]
    fn cross_page_access() {
        let mut m = PagedMemory::new();
        m.write_u32(0x1ffe, 0xaabb_ccdd);
        assert_eq!(m.read_u32(0x1ffe), 0xaabb_ccdd);
        assert_eq!(m.pages_allocated(), 2);
    }

    #[test]
    fn width_dispatch() {
        let mut m = PagedMemory::new();
        m.write_bits(0x100, 1, 0xfff); // only low byte stored
        assert_eq!(m.read_bits(0x100, 1), 0xff);
        m.write_bits(0x200, 8, u64::MAX);
        assert_eq!(m.read_bits(0x200, 8), u64::MAX);
        assert_eq!(m.read_bits(0x200, 4), 0xffff_ffff);
    }

    #[test]
    fn top_page_and_table_edges() {
        let mut m = PagedMemory::new();
        m.write_u64(0xFFFF_F000, 0x0102_0304_0506_0708);
        m.write_u8(0xFFFF_FFFF, 0xee);
        assert_eq!(m.read_u64(0xFFFF_F000), 0x0102_0304_0506_0708);
        assert_eq!(m.read_u8(0xFFFF_FFFF), 0xee);
        assert_eq!(m.read_u8(0xFFFF_EFFF), 0); // page below: never written
        assert_eq!(m.pages_allocated(), 1);
        // Straddle a second-level table boundary (4 MB).
        m.write_u64(0x003F_FFFC, u64::MAX);
        assert_eq!(m.read_u64(0x003F_FFFC), u64::MAX);
        assert_eq!(m.read_u32(0x0040_0000), u32::MAX);
        assert_eq!(m.pages_allocated(), 3);
        // Reads never allocate; rewrites reuse the page.
        m.read_u64(0x8000_0000);
        m.write_u8(0x0040_0abc, 1);
        assert_eq!(m.pages_allocated(), 3);
    }

    #[test]
    fn wrapping_block_write_and_clone_are_deep() {
        let mut m = PagedMemory::new();
        m.write_block(0xFFFF_FFFE, &[1, 2, 3, 4]);
        assert_eq!(m.read_u32(0xFFFF_FFFE), 0x0403_0201);
        assert_eq!(m.read_u8(1), 4);
        assert_eq!(m.pages_allocated(), 2);
        let copy = m.clone();
        m.write_u8(0, 9);
        assert_eq!(copy.read_u8(0), 3);
        assert_eq!(copy.pages_allocated(), 2);
    }

    /// Random mixed-width traffic against a byte map.
    #[test]
    fn random_accesses_match_a_byte_map() {
        use std::collections::HashMap;
        let mut m = PagedMemory::new();
        let mut model: HashMap<u32, u8> = HashMap::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let bases = [0u32, 0x1000_0ff8, 0x7fff_fffa, 0xFFFF_FFF9];
        for _ in 0..20_000 {
            let r = next();
            let addr = bases[(r % 4) as usize].wrapping_add((r >> 8) as u32 % 24);
            let width = [1, 4, 8][(r >> 40) as usize % 3];
            if r >> 63 == 1 {
                let bits = next();
                m.write_bits(addr, width, bits);
                for i in 0..width {
                    model.insert(addr.wrapping_add(i), (bits >> (8 * i)) as u8);
                }
            } else {
                let want = (0..width).fold(0u64, |acc, i| {
                    let b = model.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
                    acc | (b as u64) << (8 * i)
                });
                assert_eq!(m.read_bits(addr, width), want, "{addr:#x}/{width}");
            }
        }
        let mut pages: Vec<u32> = model.keys().map(|a| a >> PAGE_SHIFT).collect();
        pages.sort_unstable();
        pages.dedup();
        assert_eq!(m.pages_allocated(), pages.len());
    }

    #[test]
    fn address_wraparound() {
        let mut m = PagedMemory::new();
        m.write_u32(u32::MAX - 1, 0x1122_3344);
        assert_eq!(m.read_u32(u32::MAX - 1), 0x1122_3344);
        assert_eq!(m.read_u8(1), 0x11); // wrapped high byte
    }
}
