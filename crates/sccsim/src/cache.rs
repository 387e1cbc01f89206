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

/// Sets per chunk of a [`Cache`]'s line store.
const CHUNK_SETS: usize = 64;

/// One set-associative write-back cache.
///
/// Lines live in chunks of 64 consecutive sets (set-major inside a
/// chunk), and a chunk gets its lines when the first of them is filled.
/// An empty chunk stands for "every line invalid": lookups miss in it
/// without touching memory, a flush has nothing in it to walk, and
/// invalidating the cache empties every chunk. Building, flushing and
/// invalidating a cache therefore cost what the run touched, not what the
/// chip has. A 48-core chip carries 96 caches per run; a core that
/// actually runs pays at most `sets / 64` allocations per cache (2 for L1,
/// 32 for L2 at Table 6.1's geometry), where per-set boxing would pay
/// ~100k.
#[derive(Debug, Clone)]
pub struct Cache {
    /// `chunks[c]` is empty while no line of chunk `c` has been filled
    /// since the cache was built or last invalidated, and otherwise holds
    /// every line of its sets (all of the cache's, if those are fewer than
    /// a chunk's worth).
    chunks: Vec<Vec<Line>>,
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
            chunks: vec![Vec::new(); sets.div_ceil(CHUNK_SETS)],
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

    /// The chunk of `addr`'s set, the lines of that set within the chunk,
    /// and the tag `addr` carries within the set.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, std::ops::Range<usize>, u64) {
        let line_addr = addr >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_bits;
        let first = set_idx % CHUNK_SETS * self.ways;
        (set_idx / CHUNK_SETS, first..first + self.ways, tag)
    }

    /// Whether `addr`'s line is resident. Changes nothing.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        let (chunk, set, tag) = self.locate(addr);
        // `get` is `None` in an empty chunk.
        self.chunks[chunk]
            .get(set)
            .is_some_and(|set| set.iter().any(|l| l.valid && l.tag == tag))
    }

    /// [`Cache::access`] if `addr`'s line is resident — a hit, with the
    /// LRU, dirty-bit and counter updates of one — and nothing at all
    /// otherwise.
    #[inline]
    pub(crate) fn access_resident(&mut self, addr: u64, write: bool) -> bool {
        let (chunk, set, tag) = self.locate(addr);
        let Some(set) = self.chunks[chunk].get_mut(set) else {
            return false;
        };
        for line in set {
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
        let (chunk, set, tag) = self.locate(addr);
        let lines = &mut self.chunks[chunk];
        if lines.is_empty() {
            let sets = CHUNK_SETS.min(self.set_mask as usize + 1);
            lines.resize(sets * self.ways, Line::default());
        }
        let set = &mut lines[set];
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
    pub(crate) fn invalidate_all(&mut self) {
        // `clear` keeps each chunk's allocation for the next fill.
        self.chunks.iter_mut().for_each(Vec::clear);
    }

    /// Writes back every dirty line (clearing its dirty bit but keeping it
    /// valid), returning how many lines streamed out. Each write-back is
    /// counted in [`Cache::stats`].
    pub(crate) fn flush_dirty(&mut self) -> usize {
        let mut flushed = 0;
        for chunk in &mut self.chunks {
            for line in chunk {
                if line.valid && line.dirty {
                    line.dirty = false;
                    flushed += 1;
                }
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
pub(crate) struct CacheHierarchy {
    /// Level-1 data cache.
    pub l1: Cache,
    /// Unified level-2 cache.
    pub l2: Cache,
    l1_hit_cycles: u64,
    l2_hit_cycles: u64,
}

/// Where a private access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ServiceLevel {
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
    pub(crate) fn new(config: &crate::config::SccConfig) -> Self {
        CacheHierarchy {
            l1: Cache::new(config.l1_bytes, config.l1_ways, config.line_bytes),
            l2: Cache::new(config.l2_bytes, config.l2_ways, config.line_bytes),
            l1_hit_cycles: config.l1_hit_cycles,
            l2_hit_cycles: config.l2_hit_cycles,
        }
    }

    /// Writes back every dirty line in both levels, returning the total
    /// line count (the software-managed coherence "flush" primitive).
    pub(crate) fn flush_dirty(&mut self) -> usize {
        self.l1.flush_dirty() + self.l2.flush_dirty()
    }

    /// Invalidates both levels (flush-and-invalidate completes a
    /// software-managed coherence handoff).
    pub(crate) fn invalidate(&mut self) {
        self.l1.invalidate_all();
        self.l2.invalidate_all();
    }

    /// [`CacheHierarchy::access`] if one of the two levels holds `addr`'s
    /// line, and nothing at all otherwise: the access a core can make
    /// without anything leaving its tile.
    #[inline]
    pub(crate) fn access_resident(
        &mut self,
        addr: u64,
        write: bool,
    ) -> Option<(ServiceLevel, u64)> {
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
    pub(crate) fn access(&mut self, addr: u64, write: bool) -> (ServiceLevel, u64) {
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

    /// The flat `sets × ways` tag array [`Cache`] used to be, kept as the
    /// reference the chunked store is compared against.
    struct FlatCache {
        lines: Vec<Line>,
        ways: usize,
        line_bytes: u64,
        stats: (u64, u64, u64),
        tick: u64,
    }

    impl FlatCache {
        /// `addr`'s set, its tag, and where in the set it is resident.
        fn find(&self, addr: u64) -> (std::ops::Range<usize>, u64, Option<usize>) {
            let sets = (self.lines.len() / self.ways) as u64;
            let line = addr / self.line_bytes;
            let first = (line % sets) as usize * self.ways;
            let (set, tag) = (first..first + self.ways, line / sets);
            let is_it = |&i: &usize| self.lines[i].valid && self.lines[i].tag == tag;
            (set.clone(), tag, set.clone().find(is_it))
        }

        /// [`Cache::access`] if `fill`, else [`Cache::access_resident`]
        /// (`None` where that returns `false`).
        fn access(&mut self, addr: u64, write: bool, fill: bool) -> Option<CacheOutcome> {
            let (set, tag, at) = self.find(addr);
            if at.is_none() && !fill {
                return None;
            }
            self.tick += 1;
            if let Some(at) = at {
                self.stats.0 += 1;
                self.lines[at].lru = self.tick;
                self.lines[at].dirty |= write;
                return Some(CacheOutcome::Hit);
            }
            self.stats.1 += 1;
            let invalid = set.clone().find(|&i| !self.lines[i].valid);
            let victim = invalid.unwrap_or_else(|| set.min_by_key(|&i| self.lines[i].lru).unwrap());
            let dirty_victim = self.lines[victim].valid && self.lines[victim].dirty;
            self.stats.2 += u64::from(dirty_victim);
            (self.lines[victim].tag, self.lines[victim].lru) = (tag, self.tick);
            (self.lines[victim].valid, self.lines[victim].dirty) = (true, write);
            Some(CacheOutcome::Miss { dirty_victim })
        }

        fn flush_dirty(&mut self) -> usize {
            let dirty = self.lines.iter_mut().filter(|l| l.valid && l.dirty);
            let flushed = dirty.map(|l| l.dirty = false).count();
            self.stats.2 += flushed as u64;
            flushed
        }
    }

    /// Table 6.1's L1 and L2, a cache of fewer sets than one chunk holds,
    /// and a direct-mapped one: (bytes, ways, line bytes).
    const GEOMETRIES: [(usize, usize, usize); 4] = [
        (16 * 1024, 4, 32),
        (256 * 1024, 4, 32),
        (1024, 2, 32),
        (8 * 1024, 1, 32),
    ];

    /// Drives a [`Cache`] and a [`FlatCache`] of each geometry with the
    /// same `ops_per_geometry` operations — address streams that walk
    /// sequentially, stride by the set count (one set, ever new tags) and
    /// scatter over 4 MB, switching every few hundred operations — and
    /// requires every return value and the counters to agree at every
    /// step.
    fn drive_both(rng: &mut testkit::SplitMix64, ops_per_geometry: usize) {
        for (bytes, ways, line_bytes) in GEOMETRIES {
            let mut chunked = Cache::new(bytes, ways, line_bytes);
            let mut flat = FlatCache {
                lines: vec![Line::default(); bytes / line_bytes],
                ways,
                line_bytes: line_bytes as u64,
                stats: (0, 0, 0),
                tick: 0,
            };
            let set_stride = (bytes / ways) as u64;
            let (mut stream, mut cursor) = (0, 0u64);
            for op in 0..ops_per_geometry {
                if op % 256 == 0 {
                    stream = rng.gen_range_usize(0, 3);
                    cursor = rng.gen_range_u64(0, 4 << 20);
                }
                let addr = match stream {
                    0 => cursor + 8,
                    1 => cursor + set_stride,
                    _ => rng.gen_range_u64(0, 4 << 20),
                };
                cursor = addr;
                let write = rng.gen_bool();
                let what = || format!("{bytes} B {ways}-way, op {op} at {addr:#x}");
                match rng.gen_range_usize(0, 256) {
                    0 => assert_eq!(chunked.flush_dirty(), flat.flush_dirty(), "{}", what()),
                    1 => {
                        chunked.invalidate_all();
                        flat.lines.fill(Line::default());
                    }
                    2..48 => assert_eq!(
                        chunked.contains(addr),
                        flat.find(addr).2.is_some(),
                        "{}",
                        what()
                    ),
                    48..96 => assert_eq!(
                        chunked.access_resident(addr, write),
                        flat.access(addr, write, false).is_some(),
                        "{}",
                        what()
                    ),
                    _ => assert_eq!(
                        Some(chunked.access(addr, write)),
                        flat.access(addr, write, true),
                        "{}",
                        what()
                    ),
                }
                assert_eq!(chunked.stats(), flat.stats, "{}", what());
            }
        }
    }

    #[test]
    fn chunked_matches_flat() {
        testkit::check("chunked_matches_flat", 64, |rng| drive_both(rng, 5_000));
    }

    /// The same comparison at CI's budget (`-- --ignored`).
    #[test]
    #[ignore = "1024 seeds; CI runs it in release"]
    fn chunked_matches_flat_1024_seeds() {
        testkit::check("chunked_matches_flat", 1024, |rng| drive_both(rng, 5_000));
    }

    fn filled_chunks(c: &Cache) -> usize {
        c.chunks.iter().filter(|chunk| !chunk.is_empty()).count()
    }

    #[test]
    fn a_cache_holds_the_chunks_it_filled_and_no_others() {
        let mut l2 = Cache::new(256 * 1024, 4, 32);
        assert_eq!((l2.chunks.len(), filled_chunks(&l2)), (32, 0));
        assert!(!l2.contains(0x1000) && !l2.access_resident(0x1000, true));
        assert_eq!(l2.flush_dirty(), 0);
        assert_eq!(filled_chunks(&l2), 0, "looking fills nothing");
        l2.access(0x1000, true);
        assert_eq!(filled_chunks(&l2), 1, "one access, one chunk");
        assert_eq!(l2.chunks.iter().map(Vec::len).sum::<usize>(), 64 * 4);
        // 64 sets of 32 B lines: the next chunk starts 2 KB on.
        l2.access(0x1000 + 64 * 32, false);
        assert_eq!(filled_chunks(&l2), 2);
        l2.invalidate_all();
        assert!(!l2.contains(0x1000));
        assert_eq!(
            filled_chunks(&l2),
            0,
            "nor does looking after an invalidate"
        );
        // A cache smaller than one chunk is one chunk of all its lines.
        let mut small = Cache::new(1024, 2, 32);
        small.access(0x20, false);
        assert_eq!(small.chunks.iter().map(Vec::len).collect::<Vec<_>>(), [32]);
    }
}
