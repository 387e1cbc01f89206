//! Set-associative write-back caches with LRU replacement.
//!
//! On the SCC only *private* memory is cacheable; shared pages bypass the
//! caches entirely because the hardware provides no coherence. Each core
//! therefore owns an independent L1+L2 [`CacheHierarchy`] that never
//! snoops anyone else.

/// Outcome of a single cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Hit in this cache.
    Hit,
    /// Miss; a (possibly dirty) victim line was evicted.
    Miss {
        /// Whether the evicted line was dirty (needs a write-back).
        dirty_victim: bool,
    },
}

/// One set-associative write-back cache.
///
/// Lines live in a single flat `sets × ways` allocation (set-major): a
/// 48-core chip instantiates 96 caches per run, so per-set boxing would
/// put ~100k allocations on the constructor path and dominate short
/// simulations.
#[derive(Debug, Clone)]
pub struct Cache {
    lines: Vec<Line>,
    ways: usize,
    line_shift: u32,
    set_mask: u64,
    /// Width of the set index: what a line address sheds to leave the tag.
    set_bits: u32,
    hits: u64,
    misses: u64,
    writebacks: u64,
    tick: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

impl Cache {
    /// Creates a cache of `bytes` total capacity, `ways` associativity and
    /// `line_bytes` line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two set count or capacity
    /// is not divisible by `ways * line_bytes`.
    pub fn new(bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(ways >= 1 && line_bytes.is_power_of_two());
        let lines = bytes / line_bytes;
        assert!(lines.is_multiple_of(ways), "capacity must divide into ways");
        let sets = lines / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            lines: vec![Line::default(); sets * ways],
            ways,
            line_shift: line_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            set_bits: sets.trailing_zeros(),
            hits: 0,
            misses: 0,
            writebacks: 0,
            tick: 0,
        }
    }

    /// The lines of `addr`'s set, and the tag `addr` carries within it.
    #[inline]
    fn locate(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line_addr = addr >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_bits;
        (set_idx * self.ways..set_idx * self.ways + self.ways, tag)
    }

    /// Whether `addr`'s line is resident. Changes nothing.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.lines[set].iter().any(|l| l.valid && l.tag == tag)
    }

    /// [`Cache::access`] if `addr`'s line is resident — a hit, with the
    /// LRU, dirty-bit and counter updates of one — and nothing at all
    /// otherwise.
    #[inline]
    pub fn access_resident(&mut self, addr: u64, write: bool) -> bool {
        let (set, tag) = self.locate(addr);
        for line in &mut self.lines[set] {
            if line.valid && line.tag == tag {
                self.tick += 1;
                line.lru = self.tick;
                line.dirty |= write;
                self.hits += 1;
                return true;
            }
        }
        false
    }

    /// Looks up `addr`; on a miss the line is filled. `write` marks the
    /// line dirty on hit or fill (write-allocate).
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> CacheOutcome {
        if self.access_resident(addr, write) {
            return CacheOutcome::Hit;
        }
        self.tick += 1;
        self.misses += 1;
        let (set, tag) = self.locate(addr);
        let set = &mut self.lines[set];
        // Victim: invalid line if any, else LRU.
        let victim = (0..self.ways).find(|&w| !set[w].valid).unwrap_or_else(|| {
            (0..self.ways)
                .min_by_key(|&w| set[w].lru)
                .expect("ways >= 1")
        });
        let dirty_victim = set[victim].valid && set[victim].dirty;
        if dirty_victim {
            self.writebacks += 1;
        }
        set[victim] = Line {
            tag,
            valid: true,
            dirty: write,
            lru: self.tick,
        };
        CacheOutcome::Miss { dirty_victim }
    }

    /// Invalidates the whole cache (used by RCCE's MPB flush semantics).
    pub fn invalidate_all(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
            line.dirty = false;
        }
    }

    /// Writes back every dirty line (clearing its dirty bit but keeping it
    /// valid), returning how many lines streamed out. Each write-back is
    /// counted in [`Cache::stats`].
    pub fn flush_dirty(&mut self) -> usize {
        let mut flushed = 0;
        for line in &mut self.lines {
            if line.valid && line.dirty {
                line.dirty = false;
                flushed += 1;
            }
        }
        self.writebacks += flushed as u64;
        flushed
    }

    /// (hits, misses, writebacks) so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.writebacks)
    }
}

/// A private two-level hierarchy (L1D + unified L2).
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    /// Level-1 data cache.
    pub l1: Cache,
    /// Unified level-2 cache.
    pub l2: Cache,
    l1_hit_cycles: u64,
    l2_hit_cycles: u64,
}

/// Where a private access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceLevel {
    /// Served by L1.
    L1,
    /// Served by L2.
    L2,
    /// Missed both levels; memory must be accessed. The flag reports
    /// whether a dirty victim must also be written back.
    Memory {
        /// A dirty line was evicted on the way.
        writeback: bool,
    },
}

impl CacheHierarchy {
    /// Builds the hierarchy from the chip configuration.
    pub fn new(config: &crate::config::SccConfig) -> Self {
        CacheHierarchy {
            l1: Cache::new(config.l1_bytes, config.l1_ways, config.line_bytes),
            l2: Cache::new(config.l2_bytes, config.l2_ways, config.line_bytes),
            l1_hit_cycles: config.l1_hit_cycles,
            l2_hit_cycles: config.l2_hit_cycles,
        }
    }

    /// Writes back every dirty line in both levels, returning the total
    /// line count (the software-managed coherence "flush" primitive).
    pub fn flush_dirty(&mut self) -> usize {
        self.l1.flush_dirty() + self.l2.flush_dirty()
    }

    /// Invalidates both levels (flush-and-invalidate completes a
    /// software-managed coherence handoff).
    pub fn invalidate(&mut self) {
        self.l1.invalidate_all();
        self.l2.invalidate_all();
    }

    /// [`CacheHierarchy::access`] if one of the two levels holds `addr`'s
    /// line, and nothing at all otherwise: the access a core can make
    /// without anything leaving its tile.
    #[inline]
    pub fn access_resident(&mut self, addr: u64, write: bool) -> Option<(ServiceLevel, u64)> {
        if self.l1.access_resident(addr, write) {
            Some((ServiceLevel::L1, self.l1_hit_cycles))
        } else if self.l2.contains(addr) {
            Some(self.access(addr, write))
        } else {
            None
        }
    }

    /// Performs a private-memory access, returning the level that served
    /// it and the cycles spent in the cache hierarchy (excluding DRAM).
    pub fn access(&mut self, addr: u64, write: bool) -> (ServiceLevel, u64) {
        match self.l1.access(addr, write) {
            CacheOutcome::Hit => (ServiceLevel::L1, self.l1_hit_cycles),
            CacheOutcome::Miss {
                dirty_victim: l1_dirty,
            } => match self.l2.access(addr, write) {
                CacheOutcome::Hit => (ServiceLevel::L2, self.l1_hit_cycles + self.l2_hit_cycles),
                CacheOutcome::Miss {
                    dirty_victim: l2_dirty,
                } => (
                    ServiceLevel::Memory {
                        writeback: l1_dirty || l2_dirty,
                    },
                    self.l1_hit_cycles + self.l2_hit_cycles,
                ),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SccConfig;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(1024, 2, 32);
        assert!(matches!(c.access(0x100, false), CacheOutcome::Miss { .. }));
        assert_eq!(c.access(0x100, false), CacheOutcome::Hit);
        assert_eq!(c.access(0x11F, false), CacheOutcome::Hit, "same line");
        assert!(matches!(c.access(0x120, false), CacheOutcome::Miss { .. }));
        let (h, m, _) = c.stats();
        assert_eq!((h, m), (2, 2));
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2-way, 32 B lines, 64 B total => 1 set of 2 ways.
        let mut c = Cache::new(64, 2, 32);
        c.access(0x000, false); // A
        c.access(0x100, false); // B
        c.access(0x000, false); // A again (B becomes LRU)
        c.access(0x200, false); // C evicts B
        assert_eq!(c.access(0x000, false), CacheOutcome::Hit, "A stays");
        assert!(
            matches!(c.access(0x100, false), CacheOutcome::Miss { .. }),
            "B gone"
        );
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = Cache::new(64, 1, 32); // direct-mapped, 2 sets
        c.access(0x000, true); // dirty line in set 0
                               // Same set (bit 5 is the set index; 0x40 maps to set 0 again).
        let out = c.access(0x40, false);
        assert_eq!(out, CacheOutcome::Miss { dirty_victim: true });
        let (_, _, wb) = c.stats();
        assert_eq!(wb, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = Cache::new(64, 1, 32);
        c.access(0x000, false);
        assert_eq!(
            c.access(0x40, false),
            CacheOutcome::Miss {
                dirty_victim: false
            }
        );
    }

    #[test]
    fn flush_dirty_writes_back_but_keeps_lines() {
        let mut c = Cache::new(1024, 2, 32);
        c.access(0x100, true);
        c.access(0x200, false);
        assert_eq!(c.flush_dirty(), 1, "one dirty line");
        // The line stays valid: the next access hits without a write-back.
        assert_eq!(c.access(0x100, false), CacheOutcome::Hit);
        let (_, _, wb) = c.stats();
        assert_eq!(wb, 1, "the flush itself was the only write-back");
        assert_eq!(c.flush_dirty(), 0, "already clean");
    }

    #[test]
    fn invalidate_all_flushes() {
        let mut c = Cache::new(1024, 2, 32);
        c.access(0x100, true);
        c.invalidate_all();
        assert!(matches!(
            c.access(0x100, false),
            CacheOutcome::Miss {
                dirty_victim: false
            }
        ));
    }

    #[test]
    fn hierarchy_l1_then_l2_then_memory() {
        let cfg = SccConfig::table_6_1();
        let mut h = CacheHierarchy::new(&cfg);
        let (lvl, cycles) = h.access(0x1000, false);
        assert!(matches!(lvl, ServiceLevel::Memory { writeback: false }));
        assert_eq!(cycles, cfg.l1_hit_cycles + cfg.l2_hit_cycles);
        let (lvl, cycles) = h.access(0x1000, false);
        assert_eq!(lvl, ServiceLevel::L1);
        assert_eq!(cycles, cfg.l1_hit_cycles);
    }

    #[test]
    fn hierarchy_l2_hit_after_l1_eviction() {
        let cfg = SccConfig::table_6_1();
        let mut h = CacheHierarchy::new(&cfg);
        // Fill far more than L1 (16 KB) but less than L2 (256 KB).
        for i in 0..2048u64 {
            h.access(i * 32, false);
        }
        // The first line is long gone from L1 but still in L2.
        let (lvl, _) = h.access(0, false);
        assert_eq!(lvl, ServiceLevel::L2);
    }

    #[test]
    fn working_set_hit_rates_are_sane() {
        let cfg = SccConfig::table_6_1();
        let mut h = CacheHierarchy::new(&cfg);
        // An 8 KB working set fits in L1: after warmup, all hits.
        for round in 0..4 {
            for i in 0..256u64 {
                h.access(i * 32, false);
            }
            if round == 0 {
                continue;
            }
        }
        let (hits, misses, _) = h.l1.stats();
        assert!(hits >= 3 * 256, "hits={hits} misses={misses}");
        assert_eq!(misses, 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(96, 1, 32);
    }
}
