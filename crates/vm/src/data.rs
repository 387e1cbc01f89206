//! Byte-addressable data storage for the simulated address spaces.
//!
//! Timing is `scc-sim`'s job; this module stores the actual bytes. Memory
//! is organized in lazily-allocated 4 KB pages so a sparse 32-bit address
//! space costs nothing until touched.

use crate::value::{MemKind, Value};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Hashes with one multiply per word: the hasher of every map in this
/// crate. The page map is looked up on every simulated load and store and
/// the optimizer's tables on every instruction it scans; nothing iterates
/// them in an order that reaches an output, and their keys are page
/// numbers, registers and value numbers rather than attacker-chosen input,
/// so the default SipHash buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FastHasher(u64);

/// A `HashMap` hashed by [`FastHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed by [`FastHasher`].
pub(crate) type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }

    fn write_i64(&mut self, n: i64) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, word: u64) {
        // Fibonacci hashing; the fold brings the well-mixed high half down
        // to the bits the table indexes with.
        let h = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// A sparse byte-addressable memory.
#[derive(Debug, Clone, Default)]
pub struct ByteMemory {
    pages: FastMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl ByteMemory {
    /// Creates an empty memory (all bytes read as zero).
    pub fn new() -> Self {
        Self::default()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads one byte.
    #[inline]
    pub(crate) fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub(crate) fn write_u8(&mut self, addr: u64, v: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = v;
    }

    /// Reads `n <= 8` bytes little-endian. Accesses that stay within one
    /// page (the overwhelmingly common case: scalars are aligned and pages
    /// are 4 KB) take a single map lookup and slice copy; straddling
    /// accesses fall back to the byte loop.
    #[inline]
    fn read_le(&self, addr: u64, n: usize) -> u64 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + n <= PAGE_SIZE {
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => {
                    let mut buf = [0u8; 8];
                    buf[..n].copy_from_slice(&p[off..off + n]);
                    u64::from_le_bytes(buf)
                }
                None => 0,
            }
        } else {
            let mut out = 0u64;
            for i in 0..n {
                out |= u64::from(self.read_u8(addr + i as u64)) << (8 * i);
            }
            out
        }
    }

    /// Writes `n <= 8` bytes little-endian (single-page fast path like
    /// [`ByteMemory::read_le`]).
    #[inline]
    fn write_le(&mut self, addr: u64, n: usize, v: u64) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + n <= PAGE_SIZE {
            let bytes = v.to_le_bytes();
            self.page_mut(addr)[off..off + n].copy_from_slice(&bytes[..n]);
        } else {
            for i in 0..n {
                self.write_u8(addr + i as u64, (v >> (8 * i)) as u8);
            }
        }
    }

    /// Loads a typed value.
    #[inline]
    pub fn load(&self, addr: u64, kind: MemKind) -> Value {
        match kind {
            MemKind::I8 => Value::I(self.read_le(addr, 1) as i8 as i64),
            MemKind::I16 => Value::I(self.read_le(addr, 2) as i16 as i64),
            MemKind::I32 => Value::I(self.read_le(addr, 4) as i32 as i64),
            MemKind::I64 => Value::I(self.read_le(addr, 8) as i64),
            MemKind::F32 => Value::F(f64::from(f32::from_bits(self.read_le(addr, 4) as u32))),
            MemKind::F64 => Value::F(f64::from_bits(self.read_le(addr, 8))),
        }
    }

    /// Stores a typed value.
    #[inline]
    pub fn store(&mut self, addr: u64, kind: MemKind, v: Value) {
        match kind {
            MemKind::I8 => self.write_le(addr, 1, v.as_i() as u64),
            MemKind::I16 => self.write_le(addr, 2, v.as_i() as u64),
            MemKind::I32 => self.write_le(addr, 4, v.as_i() as u64),
            MemKind::I64 => self.write_le(addr, 8, v.as_i() as u64),
            MemKind::F32 => self.write_le(addr, 4, u64::from((v.as_f() as f32).to_bits())),
            MemKind::F64 => self.write_le(addr, 8, v.as_f().to_bits()),
        }
    }

    /// Copies a byte slice in (program images, string tables, simulated
    /// DMA), page-sized chunks at a time.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let n = rest.len().min(PAGE_SIZE - off);
            self.page_mut(addr)[off..off + n].copy_from_slice(&rest[..n]);
            addr += n as u64;
            rest = &rest[n..];
        }
    }

    /// Fills `out` with the bytes starting at `addr`, page-sized chunks at
    /// a time: [`ByteMemory::write_bytes`]'s counterpart. A page never
    /// written reads as zeros and stays unallocated.
    pub fn read_bytes(&self, addr: u64, out: &mut [u8]) {
        let mut addr = addr;
        let mut rest = out;
        while !rest.is_empty() {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let n = rest.len().min(PAGE_SIZE - off);
            let (chunk, tail) = rest.split_at_mut(n);
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(page) => chunk.copy_from_slice(&page[off..off + n]),
                None => chunk.fill(0),
            }
            addr += n as u64;
            rest = tail;
        }
    }

    /// Reads a NUL-terminated C string (capped at 64 KB).
    pub fn read_cstr(&self, addr: u64) -> String {
        let mut out = Vec::new();
        for i in 0..65536 {
            let b = self.read_u8(addr + i);
            if b == 0 {
                break;
            }
            out.push(b);
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    /// Number of resident pages (test/diagnostic aid).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = ByteMemory::new();
        assert_eq!(m.load(0x1234, MemKind::I64), Value::I(0));
        assert_eq!(m.load(0x9999, MemKind::F64), Value::F(0.0));
    }

    #[test]
    fn round_trips_each_kind() {
        let mut m = ByteMemory::new();
        m.store(0x100, MemKind::I8, Value::I(-5));
        assert_eq!(m.load(0x100, MemKind::I8), Value::I(-5));
        m.store(0x200, MemKind::I16, Value::I(-30000));
        assert_eq!(m.load(0x200, MemKind::I16), Value::I(-30000));
        m.store(0x300, MemKind::I32, Value::I(-2_000_000_000));
        assert_eq!(m.load(0x300, MemKind::I32), Value::I(-2_000_000_000));
        m.store(0x400, MemKind::I64, Value::I(i64::MIN / 3));
        assert_eq!(m.load(0x400, MemKind::I64), Value::I(i64::MIN / 3));
        m.store(0x500, MemKind::F64, Value::F(std::f64::consts::PI));
        assert_eq!(m.load(0x500, MemKind::F64), Value::F(std::f64::consts::PI));
        m.store(0x600, MemKind::F32, Value::F(1.5));
        assert_eq!(m.load(0x600, MemKind::F32), Value::F(1.5));
    }

    #[test]
    fn i32_truncates_like_c() {
        let mut m = ByteMemory::new();
        m.store(0x100, MemKind::I32, Value::I(0x1_0000_0001));
        assert_eq!(m.load(0x100, MemKind::I32), Value::I(1));
    }

    #[test]
    fn cross_page_access_works() {
        let mut m = ByteMemory::new();
        let addr = (PAGE_SIZE - 4) as u64;
        m.store(addr, MemKind::I64, Value::I(0x0102_0304_0506_0708));
        assert_eq!(m.load(addr, MemKind::I64), Value::I(0x0102_0304_0506_0708));
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn straddling_and_aligned_accesses_agree_with_byte_interface() {
        // Walk an 8-byte window across the page boundary: the single-page
        // fast path and the per-byte fallback must produce the same bytes.
        for delta in 0..16u64 {
            let addr = PAGE_SIZE as u64 - 8 + delta;
            let mut m = ByteMemory::new();
            m.store(addr, MemKind::I64, Value::I(0x0102_0304_0506_0708));
            assert_eq!(m.load(addr, MemKind::I64), Value::I(0x0102_0304_0506_0708));
            let mut got = 0u64;
            for i in 0..8 {
                got |= u64::from(m.read_u8(addr + i)) << (8 * i);
            }
            assert_eq!(got as i64, 0x0102_0304_0506_0708, "offset {delta}");
        }
    }

    #[test]
    fn read_bytes_agrees_with_the_byte_interface_across_pages() {
        let mut m = ByteMemory::new();
        let base = 2 * PAGE_SIZE as u64 - 100;
        let pattern: Vec<u8> = (0..4300u32).map(|i| (i * 7 + 1) as u8).collect();
        m.write_bytes(base, &pattern);
        // From before the written bytes, across both page boundaries, to
        // after them; across one; and over pages nothing wrote.
        for (start, len) in [
            (base - 10, 4320),
            (base + 90, 20),
            (base, 4300),
            (1 << 30, 9000),
        ] {
            let mut got = vec![0xAA; len];
            m.read_bytes(start, &mut got);
            let bytewise: Vec<u8> = (0..len as u64).map(|i| m.read_u8(start + i)).collect();
            assert_eq!(got, bytewise, "{start:#x}+{len}");
        }
        assert_eq!(m.resident_pages(), 3, "reading allocates nothing");
    }

    #[test]
    fn cstr_round_trip() {
        let mut m = ByteMemory::new();
        m.write_bytes(0x100, b"Sum Array: %d\n\0");
        assert_eq!(m.read_cstr(0x100), "Sum Array: %d\n");
        assert_eq!(m.read_cstr(0x10_000), "");
    }

    #[test]
    fn distant_pages_do_not_alias() {
        // First page, its neighbour, page 2^20, and the last page of the
        // MPB window (the highest address the simulated chip maps).
        let pages = [0u64, 1, 1 << 20, (0xC006_0000u64 >> PAGE_SHIFT) - 1];
        let mut m = ByteMemory::new();
        for (i, page) in pages.iter().enumerate() {
            let base = page << PAGE_SHIFT;
            m.store(base, MemKind::I64, Value::I(1000 + i as i64));
            m.store(
                base + PAGE_SIZE as u64 - 8,
                MemKind::F64,
                Value::F(i as f64),
            );
        }
        assert_eq!(m.resident_pages(), pages.len());
        for (i, page) in pages.iter().enumerate() {
            let base = page << PAGE_SHIFT;
            assert_eq!(m.load(base, MemKind::I64), Value::I(1000 + i as i64));
            assert_eq!(
                m.load(base + PAGE_SIZE as u64 - 8, MemKind::F64),
                Value::F(i as f64)
            );
            assert_eq!(m.load(base + 8, MemKind::I64), Value::I(0));
        }
        // An untouched page between them still reads as zero.
        assert_eq!(m.load(2 << PAGE_SHIFT, MemKind::I64), Value::I(0));
        assert_eq!(m.resident_pages(), pages.len());
    }

    #[test]
    fn adjacent_scalars_do_not_clobber() {
        let mut m = ByteMemory::new();
        m.store(0x100, MemKind::I32, Value::I(11));
        m.store(0x104, MemKind::I32, Value::I(22));
        assert_eq!(m.load(0x100, MemKind::I32), Value::I(11));
        assert_eq!(m.load(0x104, MemKind::I32), Value::I(22));
    }
}
