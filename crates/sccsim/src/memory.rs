//! The chip-level memory system: address map, routing, and latency.
//!
//! Address space layout (32-bit, per the SCC's LUT-based mapping):
//!
//! | Range                     | Region          | Behaviour               |
//! |---------------------------|-----------------|-------------------------|
//! | `0x0000_0000–0x7FFF_FFFF` | private         | cacheable (L1+L2)       |
//! | `0x8000_0000–0xBFFF_FFFF` | shared DRAM     | **uncacheable**, via MC |
//! | `0xC000_0000–0xC005_FFFF` | MPB             | on-die SRAM             |
//!
//! Private pages are cacheable because each core is the only writer;
//! shared pages bypass the caches entirely (the hardware is non-coherent),
//! so every shared access pays the mesh + memory-controller cost — this
//! asymmetry is the entire premise of the paper's Figure 6.2.

use crate::cache::{CacheHierarchy, ServiceLevel};
use crate::config::SccConfig;
use crate::dram::DramBank;
use crate::mesh::Mesh;
use crate::mpb::Mpb;
use crate::stats::{CoreStats, StatsMatrix};

/// Base of the shared off-chip DRAM window.
pub const SHARED_DRAM_BASE: u64 = 0x8000_0000;
/// Base of the MPB window.
pub const MPB_BASE: u64 = 0xC000_0000;

/// Which region an address falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Per-core private, cacheable memory.
    Private,
    /// Shared, uncacheable off-chip DRAM.
    SharedDram,
    /// Shared on-chip SRAM (Message Passing Buffer).
    Mpb,
}

/// Aggregated access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Private accesses served by L1.
    pub l1_hits: u64,
    /// Private accesses served by L2.
    pub l2_hits: u64,
    /// Private accesses that reached DRAM.
    pub private_dram: u64,
    /// Shared DRAM accesses.
    pub shared_dram: u64,
    /// MPB accesses.
    pub mpb: u64,
    /// Total cycles spent waiting in MC queues.
    pub mc_queue_cycles: u64,
}

/// The full simulated memory system of one SCC chip.
#[derive(Debug)]
pub struct MemorySystem {
    /// Chip configuration.
    pub config: SccConfig,
    /// Mesh geometry.
    pub mesh: Mesh,
    /// Memory controllers.
    pub(crate) dram: DramBank,
    /// Message Passing Buffer.
    pub mpb: Mpb,
    /// Per-core private hierarchies, built on first access: most runs
    /// touch a handful of a 48-core chip's cores, and an untouched
    /// hierarchy is indistinguishable from a freshly built one. A built
    /// one holds line metadata only for the chunks it has filled (see
    /// [`Cache`](crate::cache::Cache)), up to 204 KB when full.
    caches: Vec<Option<CacheHierarchy>>,
    stats: StatsMatrix,
}

/// The two things of the chip a private cache hit touches: one core's
/// cache hierarchy and its row of the statistics. Nothing else reads or
/// writes them while the core's unit runs, so whoever holds a core's lane
/// may perform that core's hits without ordering them against the other
/// cores — on another thread, even.
#[derive(Debug)]
pub struct CoreLane<'a> {
    cache: &'a mut Option<CacheHierarchy>,
    row: &'a mut CoreStats,
}

impl CoreLane<'_> {
    /// [`MemorySystem::access`] if `addr` is private and the core's own L1
    /// or L2 holds its line; `None`, with nothing changed, otherwise.
    ///
    /// A private hit reads and writes only what the lane holds, and its
    /// latency does not depend on the time of the access.
    #[inline]
    pub fn access_cached(&mut self, addr: u64, write: bool) -> Option<u64> {
        if MemorySystem::region_of(addr) != Region::Private {
            return None;
        }
        // An unbuilt hierarchy holds no lines.
        let (level, cycles) = self.cache.as_mut()?.access_resident(addr, write)?;
        match level {
            ServiceLevel::L1 => self.row.l1_hits += 1,
            ServiceLevel::L2 => self.row.l2_hits += 1,
            ServiceLevel::Memory { .. } => unreachable!("a resident line is served on the tile"),
        }
        self.row.record(Region::Private, write, cycles);
        Some(cycles)
    }
}

impl MemorySystem {
    /// Builds the memory system for `config`.
    pub fn new(config: SccConfig) -> Self {
        let mesh = Mesh::new(&config);
        let dram = DramBank::new(config.memory_controllers, config.dram_occupancy_cycles);
        let mpb = Mpb::new(&config);
        let caches = (0..config.cores).map(|_| None).collect();
        MemorySystem {
            mesh,
            dram,
            mpb,
            caches,
            stats: StatsMatrix::new(config.cores),
            config,
        }
    }

    /// Classifies an address.
    #[inline]
    pub fn region_of(addr: u64) -> Region {
        if addr >= MPB_BASE {
            Region::Mpb
        } else if addr >= SHARED_DRAM_BASE {
            Region::SharedDram
        } else {
            Region::Private
        }
    }

    /// Performs one access by `core` at simulated time `now`, returning
    /// the access latency in core cycles.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, addr: u64, write: bool, now: u64) -> u64 {
        let region = Self::region_of(addr);
        let latency = match region {
            Region::Private => {
                // Fold the core id into the private address so each core's
                // private pages are distinct cache contents.
                let (level, cache_cycles) = self.cache_of(core).access(addr, write);
                match level {
                    ServiceLevel::L1 => {
                        self.stats.per_core[core].l1_hits += 1;
                        cache_cycles
                    }
                    ServiceLevel::L2 => {
                        self.stats.per_core[core].l2_hits += 1;
                        cache_cycles
                    }
                    ServiceLevel::Memory { writeback } => {
                        self.stats.per_core[core].private_dram += 1;
                        let (mc, trip) = self.mesh.home_mc(core);
                        let resp = self.dram.request(mc, now + trip / 2);
                        self.stats.per_core[core].mc_queue_cycles += resp.queued_for;
                        let mut lat =
                            cache_cycles + trip + resp.queued_for + self.config.dram_service_cycles;
                        if writeback {
                            // Dirty victim streams out asynchronously; it
                            // occupies the controller but does not stall
                            // the core beyond issue cost.
                            let _ = self.dram.request(mc, now + lat);
                            lat += 2;
                        }
                        lat
                    }
                }
            }
            Region::SharedDram => {
                let (mc, trip) = self.mesh.home_mc(core);
                let occ = self.config.shared_dram_occupancy_cycles;
                let resp = self.dram.request_with_occupancy(mc, now + trip / 2, occ);
                self.stats.per_core[core].mc_queue_cycles += resp.queued_for;
                if write {
                    // Posted write: the store enters the write-combining
                    // buffer and the core moves on; the controller still
                    // spends its occupancy (bandwidth is consumed), and
                    // back-pressure surfaces as queue wait.
                    self.config.posted_write_cycles + resp.queued_for
                } else {
                    trip + resp.queued_for
                        + self.config.dram_service_cycles
                        + self.config.shared_dram_overhead_cycles
                }
            }
            Region::Mpb => {
                let linear = (addr - MPB_BASE) as usize;
                let owner = self.mpb.owner_of(linear);
                let full = self.mpb.access(&self.mesh, core, owner);
                if write {
                    // MPB stores also drain through the write-combining
                    // buffer; the core pays only the hand-off.
                    full.min(self.config.posted_write_cycles)
                } else {
                    full
                }
            }
        };
        self.stats.record(core, region, write, latency);
        latency
    }

    /// [`MemorySystem::access`] if `addr` is private and `core`'s own L1 or
    /// L2 holds its line; `None`, with nothing changed, otherwise (see
    /// [`CoreLane::access_cached`]).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[inline]
    pub fn access_cached(&mut self, core: usize, addr: u64, write: bool) -> Option<u64> {
        self.lane_mut(core).access_cached(addr, write)
    }

    /// What of the chip belongs to `core` alone.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[inline]
    pub fn lane_mut(&mut self, core: usize) -> CoreLane<'_> {
        CoreLane {
            cache: &mut self.caches[core],
            row: &mut self.stats.per_core[core],
        }
    }

    /// Every core's [`CoreLane`], in core order: disjoint borrows, so
    /// different cores' lanes may go to different threads.
    pub fn lanes_mut(&mut self) -> impl Iterator<Item = CoreLane<'_>> {
        let rows = self.stats.per_core.iter_mut();
        self.caches
            .iter_mut()
            .zip(rows)
            .map(|(cache, row)| CoreLane { cache, row })
    }

    /// Performs one access on a hypothetical *flat* machine: private
    /// addresses bypass the caches and pay the full mesh + memory
    /// controller cost on every access, exactly like shared DRAM. Shared
    /// and MPB addresses behave as in [`MemorySystem::access`].
    ///
    /// This is the timing backend of the sequentially-consistent reference
    /// model used for differential testing: with no caches there is no
    /// stale copy to observe, at the price of uniform DRAM latency.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access_flat(&mut self, core: usize, addr: u64, write: bool, now: u64) -> u64 {
        let region = Self::region_of(addr);
        if region != Region::Private {
            return self.access(core, addr, write, now);
        }
        self.stats.per_core[core].private_dram += 1;
        let (mc, trip) = self.mesh.home_mc(core);
        let resp = self.dram.request(mc, now + trip / 2);
        self.stats.per_core[core].mc_queue_cycles += resp.queued_for;
        let latency = if write {
            self.config.posted_write_cycles + resp.queued_for
        } else {
            trip + resp.queued_for + self.config.dram_service_cycles
        };
        self.stats.record(core, region, write, latency);
        latency
    }

    /// The cache line size in bytes (the granularity of the line-level
    /// flush/invalidate hooks).
    pub fn line_bytes(&self) -> usize {
        self.config.line_bytes
    }

    /// `core`'s private hierarchy, built on first use.
    fn cache_of(&mut self, core: usize) -> &mut CacheHierarchy {
        if self.caches[core].is_none() {
            let built = CacheHierarchy::new(&self.config);
            self.caches[core] = Some(built);
        }
        self.caches[core].as_mut().expect("initialized above")
    }

    /// Writes back every dirty line in `core`'s private hierarchy,
    /// returning the line count (see `CacheHierarchy::flush_dirty`).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn flush_core(&mut self, core: usize) -> usize {
        // An unbuilt hierarchy holds no lines: nothing to write back.
        self.caches[core].as_mut().map_or(0, |c| c.flush_dirty())
    }

    /// Invalidates `core`'s private hierarchy (both levels), so subsequent
    /// accesses refill from memory.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn invalidate_core(&mut self, core: usize) {
        if let Some(c) = self.caches[core].as_mut() {
            c.invalidate();
        }
    }

    /// Accumulated chip-global statistics, aggregated over all cores.
    pub fn stats(&self) -> MemStats {
        let mut agg = MemStats::default();
        for c in &self.stats.per_core {
            agg.l1_hits += c.l1_hits;
            agg.l2_hits += c.l2_hits;
            agg.private_dram += c.private_dram;
            agg.shared_dram += c.region_accesses(Region::SharedDram);
            agg.mpb += c.region_accesses(Region::Mpb);
            agg.mc_queue_cycles += c.mc_queue_cycles;
        }
        agg
    }

    /// The per-core × per-region counter matrix.
    pub fn stats_matrix(&self) -> &StatsMatrix {
        &self.stats
    }

    /// High-water mark of MPB allocation, in bytes (see
    /// `Mpb::high_water`).
    pub fn mpb_high_water(&self) -> usize {
        self.mpb.high_water()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(SccConfig::table_6_1())
    }

    #[test]
    fn region_classification() {
        assert_eq!(MemorySystem::region_of(0x1000), Region::Private);
        assert_eq!(MemorySystem::region_of(0x8000_0000), Region::SharedDram);
        assert_eq!(MemorySystem::region_of(0xC000_0000), Region::Mpb);
    }

    #[test]
    fn private_reaccess_is_cached() {
        let mut m = sys();
        let cold = m.access(0, 0x1000, false, 0);
        let warm = m.access(0, 0x1000, false, 100);
        assert!(warm < cold, "warm {warm} cold {cold}");
        assert_eq!(m.stats().l1_hits, 1);
        assert_eq!(m.stats().private_dram, 1);
    }

    #[test]
    fn shared_dram_never_caches() {
        let mut m = sys();
        let a = m.access(0, SHARED_DRAM_BASE + 64, false, 0);
        let b = m.access(0, SHARED_DRAM_BASE + 64, false, 10_000);
        assert_eq!(a, b, "shared accesses pay full price every time");
        assert_eq!(m.stats().shared_dram, 2);
    }

    #[test]
    fn shared_dram_costs_more_than_warm_private() {
        let mut m = sys();
        m.access(0, 0x1000, false, 0);
        let warm = m.access(0, 0x1000, false, 100);
        let shared = m.access(0, SHARED_DRAM_BASE, false, 10_000);
        // An order of magnitude or more: this gap is the 32x of Fig 6.1.
        assert!(shared > warm * 10, "shared {shared} vs warm {warm}");
    }

    #[test]
    fn mpb_beats_shared_dram() {
        let mut m = sys();
        let dram = m.access(21, SHARED_DRAM_BASE, false, 0);
        let mpb = m.access(21, MPB_BASE + 21 * 8192, false, 10_000);
        assert!(mpb < dram, "mpb {mpb} vs dram {dram}");
        assert_eq!(m.stats().mpb, 1);
    }

    #[test]
    fn mc_contention_inflates_latency() {
        let mut m = sys();
        // Two cores on the same quadrant fire at the same instant.
        let first = m.access(0, SHARED_DRAM_BASE, false, 0);
        let second = m.access(1, SHARED_DRAM_BASE + 4096, false, 0);
        assert!(second > first, "second {second} first {first}");
        assert!(m.stats().mc_queue_cycles > 0);
    }

    #[test]
    fn cores_have_independent_caches() {
        let mut m = sys();
        m.access(0, 0x1000, false, 0);
        // Core 1 misses for the same private address (separate cache).
        let cold = m.access(1, 0x1000, false, 1000);
        assert!(cold > m.config.l1_hit_cycles + m.config.l2_hit_cycles);
        assert_eq!(m.stats().private_dram, 2);
    }

    #[test]
    fn different_quadrants_do_not_contend() {
        let mut m = sys();
        let a = m.access(0, SHARED_DRAM_BASE, false, 0); // MC 0
        let b = m.access(47, SHARED_DRAM_BASE + 64, false, 0); // MC 3
                                                               // Core 47 sits on its MC tile: zero mesh trip, so pure service.
        assert!(b <= a);
        assert_eq!(m.stats().mc_queue_cycles, 0);
    }

    #[test]
    fn flat_access_never_caches_private() {
        let mut m = sys();
        let a = m.access_flat(0, 0x1000, false, 0);
        let b = m.access_flat(0, 0x1000, false, 10_000);
        assert_eq!(a, b, "no cache: reaccess pays full price");
        assert_eq!(m.stats().l1_hits, 0);
        assert_eq!(m.stats().private_dram, 2);
        // Shared addresses route through the normal path.
        m.access_flat(0, SHARED_DRAM_BASE, false, 20_000);
        assert_eq!(m.stats().shared_dram, 1);
    }

    #[test]
    fn flush_and_invalidate_core_round_trip() {
        let mut m = sys();
        m.access(0, 0x1000, true, 0); // dirty line in core 0's hierarchy
        assert!(m.flush_core(0) >= 1);
        assert_eq!(m.flush_core(0), 0, "second flush finds nothing dirty");
        // After invalidation the same address misses again.
        let warm = m.access(0, 0x1000, false, 100);
        m.invalidate_core(0);
        let cold = m.access(0, 0x1000, false, 200);
        assert!(cold > warm, "cold {cold} vs warm {warm}");
    }

    /// `access_cached` is `access` restricted to private hits: asking first
    /// on every access changes no latency, no victim and no counter.
    #[test]
    fn asking_the_own_caches_first_changes_nothing() {
        let (mut plain, mut asked) = (sys(), sys());
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let (mut served, mut refused) = (0, 0);
        for now in 0..60_000u64 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let core = (rng >> 60) as usize % 3;
            // Three working sets: one that fits L1, one that fits L2 only,
            // one that thrashes both; plus the uncacheable windows.
            let span = [8 << 10, 128 << 10, 4 << 20][(rng >> 40) as usize % 3];
            let addr = match (rng >> 56) & 15 {
                0 => SHARED_DRAM_BASE + (rng >> 20) % 4096,
                1 => MPB_BASE + (rng >> 20) % 4096,
                _ => (rng >> 8) % span,
            };
            let write = (rng >> 36) & 3 == 0;
            let want = plain.access(core, addr, write, now);
            let got = match asked.access_cached(core, addr, write) {
                Some(lat) => {
                    served += 1;
                    lat
                }
                None => {
                    refused += 1;
                    asked.access(core, addr, write, now)
                }
            };
            assert_eq!(got, want, "access {now}: core {core} addr {addr:#x}");
        }
        assert!(served > 10_000 && refused > 10_000, "{served} / {refused}");
        assert_eq!(asked.stats_matrix(), plain.stats_matrix());
        assert_eq!(asked.stats(), plain.stats());
        // Tags, dirty bits, LRU stamps and hit/miss/write-back counters of
        // every cache, and the controllers' queues.
        assert_eq!(format!("{:?}", asked.caches), format!("{:?}", plain.caches));
        assert_eq!(format!("{:?}", asked.dram), format!("{:?}", plain.dram));
    }

    #[test]
    fn the_own_caches_refuse_what_leaves_the_tile() {
        let mut m = sys();
        assert_eq!(m.access_cached(0, 0x1000, false), None, "unbuilt hierarchy");
        m.access(0, 0x1000, true, 0);
        assert_eq!(
            m.access_cached(0, 0x1000, false),
            Some(m.config.l1_hit_cycles)
        );
        assert_eq!(
            m.access_cached(1, 0x1000, false),
            None,
            "another core's line"
        );
        assert_eq!(m.access_cached(0, 0x2000, false), None, "a miss");
        assert_eq!(m.access_cached(0, SHARED_DRAM_BASE, false), None);
        assert_eq!(m.access_cached(0, MPB_BASE, false), None);
        // The refusals left no trace: one miss and one hit on core 0.
        assert_eq!(m.stats_matrix().per_core[0].total_accesses(), 2);
        assert_eq!(m.stats_matrix().active_cores(), 1);
    }

    /// Per-core × per-region attribution for the crate doctest scenario:
    /// a private cold miss, a private warm hit, a shared-DRAM read and an
    /// MPB read, each landing in exactly one row/column of the matrix.
    #[test]
    fn matrix_attributes_doctest_scenario() {
        let mut m = sys();
        let cold = m.access(0, 0x1000, false, 0); // private, cold
        let warm = m.access(0, 0x1000, false, 100); // L1 hit
        let shared = m.access(0, SHARED_DRAM_BASE, false, 200); // uncacheable
        let mpb = m.access(5, MPB_BASE + 5 * 8192, true, 300); // posted MPB store

        let c0 = &m.stats_matrix().per_core[0];
        assert_eq!(c0.reads[Region::Private.index()], 2);
        assert_eq!(c0.l1_hits, 1, "warm access hits L1");
        assert_eq!(c0.private_dram, 1, "cold access reaches DRAM");
        assert_eq!(c0.reads[Region::SharedDram.index()], 1);
        assert_eq!(c0.writes[Region::SharedDram.index()], 0);
        assert_eq!(
            c0.region_accesses(Region::Mpb),
            0,
            "core 0 never touched the MPB"
        );
        assert_eq!(
            c0.region_cycles[Region::Private.index()],
            cold + warm,
            "private cycle total is the sum of both accesses"
        );
        assert_eq!(c0.region_cycles[Region::SharedDram.index()], shared);

        let c5 = &m.stats_matrix().per_core[5];
        assert_eq!(c5.writes[Region::Mpb.index()], 1);
        assert_eq!(c5.region_cycles[Region::Mpb.index()], mpb);
        assert_eq!(c5.total_accesses(), 1);

        // Other cores stay untouched.
        assert_eq!(m.stats_matrix().active_cores(), 2);
        // The chip-global aggregate agrees with the matrix.
        let agg = m.stats();
        assert_eq!(agg.l1_hits, 1);
        assert_eq!(agg.private_dram, 1);
        assert_eq!(agg.shared_dram, 1);
        assert_eq!(agg.mpb, 1);
    }

    #[test]
    fn latency_histograms_follow_region_costs() {
        let mut m = sys();
        m.access(0, 0x1000, false, 0);
        m.access(0, 0x1000, false, 100);
        let c0 = &m.stats_matrix().per_core[0];
        let h = &c0.latency[Region::Private.index()];
        assert_eq!(h.count, 2);
        // The cold miss and the warm hit land in different buckets.
        assert!(h.max > m.config.l1_hit_cycles);
        assert_eq!(h.total_cycles, c0.region_cycles[Region::Private.index()]);
    }

    #[test]
    fn mpb_high_water_tracks_peak_allocation() {
        let mut m = sys();
        assert_eq!(m.mpb_high_water(), 0);
        m.mpb.alloc_shared(1, 100).expect("alloc_shared");
        m.mpb.alloc_shared(4, 1000).expect("alloc_shared");
        assert_eq!(m.mpb_high_water(), 128 + 1024, "line-aligned peak");
    }
}
