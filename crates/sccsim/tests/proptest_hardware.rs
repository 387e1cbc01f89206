//! Property tests of the hardware model (ported from `proptest` to the
//! in-tree `testkit` runner — hermetic, no external crates):
//!
//! * the set-associative LRU cache matches a naive reference
//!   implementation on arbitrary access traces;
//! * mesh routing is symmetric, triangle-bounded and matches Manhattan
//!   distance;
//! * the memory-controller FIFO conserves work and never reorders
//!   completions before arrivals;
//! * memory-system latencies are reproducible for identical traces;
//! * the per-core × per-region counter matrix is conserved (every access
//!   lands in exactly one cell) on arbitrary traces.

use scc_sim::memory::SHARED_DRAM_BASE;
use scc_sim::{Cache, CacheOutcome, DramBank};
use scc_sim::{MemorySystem, Mesh, Region, SccConfig};
use std::collections::VecDeque;
use testkit::{check, SplitMix64};

/// A trivially-correct fully-explicit LRU cache for cross-checking.
struct RefCache {
    sets: Vec<VecDeque<(u64, bool)>>, // (tag, dirty), front = MRU
    ways: usize,
    line_shift: u32,
    set_count: u64,
}

impl RefCache {
    fn new(bytes: usize, ways: usize, line_bytes: usize) -> Self {
        let sets = bytes / line_bytes / ways;
        RefCache {
            sets: vec![VecDeque::new(); sets],
            ways,
            line_shift: line_bytes.trailing_zeros(),
            set_count: sets as u64,
        }
    }

    fn access(&mut self, addr: u64, write: bool) -> CacheOutcome {
        let line = addr >> self.line_shift;
        let set = (line % self.set_count) as usize;
        let tag = line / self.set_count;
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|(t, _)| *t == tag) {
            let (t, d) = s.remove(pos).expect("present");
            s.push_front((t, d || write));
            return CacheOutcome::Hit;
        }
        let dirty_victim = if s.len() == self.ways {
            s.pop_back().map(|(_, d)| d).unwrap_or(false)
        } else {
            false
        };
        s.push_front((tag, write));
        CacheOutcome::Miss { dirty_victim }
    }
}

/// The production cache and the reference agree on every access of an
/// arbitrary trace (hit/miss AND dirty-victim classification).
#[test]
fn cache_matches_reference_lru() {
    check("cache_matches_reference_lru", 256, |rng| {
        // Small cache to force plenty of evictions: 512 B, 2-way, 32 B lines.
        let mut real = Cache::new(512, 2, 32);
        let mut reference = RefCache::new(512, 2, 32);
        let len = rng.gen_range_usize(1, 400);
        for i in 0..len {
            let addr = rng.gen_range_u64(0, 4096);
            let write = rng.gen_bool();
            let got = real.access(addr, write);
            let want = reference.access(addr, write);
            assert_eq!(got, want, "access #{i} addr {addr:#x} write {write}");
        }
    });
}

/// Cache accounting: hits + misses equals the trace length.
#[test]
fn cache_accounting_is_complete() {
    check("cache_accounting_is_complete", 256, |rng| {
        let mut c = Cache::new(1024, 4, 32);
        let len = rng.gen_range_usize(1, 300);
        for _ in 0..len {
            c.access(rng.gen_range_u64(0, 8192), false);
        }
        let (hits, misses, writebacks) = c.stats();
        assert_eq!(hits + misses, len as u64);
        assert_eq!(writebacks, 0, "read-only trace never writes back");
    });
}

/// Mesh distances: symmetric, zero iff same tile, and within the die
/// diameter.
#[test]
fn mesh_metric_properties() {
    check("mesh_metric_properties", 256, |rng| {
        let a = rng.gen_range_usize(0, 48);
        let b = rng.gen_range_usize(0, 48);
        let mesh = Mesh::new(&SccConfig::table_6_1());
        let d_ab = mesh.mpb_round_trip(a, b);
        let d_ba = mesh.mpb_round_trip(b, a);
        assert_eq!(d_ab, d_ba, "symmetry");
        let same_tile = mesh.tile_of(a) == mesh.tile_of(b);
        assert_eq!(d_ab == 0, same_tile);
        // Diameter: (5 + 3) hops * 2 cycles * round trip.
        assert!(d_ab <= 8 * 2 * 2);
    });
}

/// The MC FIFO conserves work: total busy time equals requests x
/// occupancy, and completions are monotone for monotone arrivals.
#[test]
fn mc_fifo_conserves_work() {
    check("mc_fifo_conserves_work", 256, |rng| {
        let occupancy = rng.gen_range_u64(1, 30);
        let reqs = rng.gen_range_usize(1, 60);
        let mut bank = DramBank::new(1, occupancy);
        let mut t = 0u64;
        let mut last_done = 0u64;
        let mut prev_done = 0u64;
        for _ in 0..reqs {
            t += rng.gen_range_u64(0, 40);
            let r = bank.request(0, t);
            assert!(r.done_at >= t + occupancy);
            assert!(r.done_at >= prev_done + occupancy, "FIFO order");
            prev_done = r.done_at;
            last_done = r.done_at;
        }
        // Conservation: the server was busy exactly reqs * occupancy.
        assert!(last_done >= reqs as u64 * occupancy);
    });
}

fn random_trace(rng: &mut SplitMix64) -> Vec<(usize, u64, bool, u64)> {
    let len = rng.gen_range_usize(1, 120);
    (0..len)
        .map(|_| {
            (
                rng.gen_range_usize(0, 8),
                rng.gen_range_u64(0, 2048),
                rng.gen_bool(),
                rng.gen_range_u64(1, 50),
            )
        })
        .collect()
}

fn trace_addr(off: u64) -> u64 {
    // Alternate private and shared regions from the offset.
    if off.is_multiple_of(2) {
        0x1000 + off * 64
    } else {
        SHARED_DRAM_BASE + off * 64
    }
}

/// Identical access traces produce identical latencies (the determinism
/// the whole experiment harness rests on).
#[test]
fn memory_system_is_reproducible() {
    check("memory_system_is_reproducible", 128, |rng| {
        let trace = random_trace(rng);
        let run = || {
            let mut m = MemorySystem::new(SccConfig::table_6_1());
            let mut now = 0u64;
            let mut lats = Vec::new();
            for (core, off, write, dt) in &trace {
                now += dt;
                lats.push(m.access(*core, trace_addr(*off), *write, now));
            }
            lats
        };
        assert_eq!(run(), run());
    });
}

/// Counter conservation: on an arbitrary trace, every access lands in
/// exactly one (core, region) cell, the matrix totals match the
/// chip-global aggregate, and histogram cycle totals match the summed
/// latencies.
#[test]
fn counter_matrix_is_conserved() {
    check("counter_matrix_is_conserved", 128, |rng| {
        let trace = random_trace(rng);
        let mut m = MemorySystem::new(SccConfig::table_6_1());
        let mut now = 0u64;
        let mut latency_sum = 0u64;
        for (core, off, write, dt) in &trace {
            now += dt;
            latency_sum += m.access(*core, trace_addr(*off), *write, now);
        }
        let matrix = m.stats_matrix();
        let total: u64 = Region::ALL.iter().map(|r| matrix.region_total(*r)).sum();
        assert_eq!(total, trace.len() as u64, "every access lands exactly once");
        let agg = m.stats();
        assert_eq!(
            agg.l1_hits + agg.l2_hits + agg.private_dram,
            matrix.region_total(Region::Private),
            "service-level split covers exactly the private accesses"
        );
        assert_eq!(agg.shared_dram, matrix.region_total(Region::SharedDram));
        assert_eq!(agg.mpb, matrix.region_total(Region::Mpb));
        let cycle_total: u64 = matrix
            .per_core
            .iter()
            .flat_map(|c| c.region_cycles.iter())
            .sum();
        assert_eq!(cycle_total, latency_sum, "histogrammed cycles are exact");
        let hist_total: u64 = Region::ALL
            .iter()
            .map(|r| matrix.region_histogram(*r).total_cycles)
            .sum();
        assert_eq!(hist_total, latency_sum);
    });
}

/// Shared-DRAM reads are never cheaper than the raw service time, and
/// warm private reads are never costlier than cold ones at the same
/// address.
#[test]
fn latency_bounds() {
    check("latency_bounds", 256, |rng| {
        let core = rng.gen_range_usize(0, 48);
        let off = rng.gen_range_u64(0, 4096);
        let cfg = SccConfig::table_6_1();
        let mut m = MemorySystem::new(cfg.clone());
        let shared = m.access(core, SHARED_DRAM_BASE + off * 8, false, 0);
        assert!(shared >= cfg.dram_service_cycles);
        let cold = m.access(core, 0x2000 + off * 8, false, 1_000_000);
        let warm = m.access(core, 0x2000 + off * 8, false, 2_000_000);
        assert!(warm <= cold, "warm {warm} vs cold {cold}");
    });
}
