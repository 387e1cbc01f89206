//! Per-core × per-region access statistics.
//!
//! The paper's whole evaluation is a story about *where accesses land* —
//! L1/L2, private DRAM, shared DRAM or the MPB — and what each landing
//! costs. The chip-global [`MemStats`](crate::MemStats) aggregate answers
//! "how many", but per-core attribution is what a partitioning or
//! placement change must cite to prove a win: it shows which cores pay
//! the shared-memory tax and how the latency distribution shifts when
//! data moves on-chip. [`StatsMatrix`] is that substrate: one
//! [`CoreStats`] row per core, each holding per-[`Region`] read/write
//! counts, cycle totals and a log2-bucketed [`LatencyHistogram`].

use crate::memory::Region;

/// Number of distinct address-space regions.
pub const REGION_COUNT: usize = 3;

/// Number of log2 latency buckets (bucket 15 collects everything at or
/// above 2^14 cycles).
pub const HISTOGRAM_BUCKETS: usize = 16;

impl Region {
    /// All regions, in canonical (index) order.
    pub const ALL: [Region; REGION_COUNT] = [Region::Private, Region::SharedDram, Region::Mpb];

    /// Dense index of this region (row order of the counter matrices).
    pub fn index(self) -> usize {
        match self {
            Region::Private => 0,
            Region::SharedDram => 1,
            Region::Mpb => 2,
        }
    }

    /// Stable machine-readable name (used as JSON manifest keys).
    pub fn name(self) -> &'static str {
        match self {
            Region::Private => "private",
            Region::SharedDram => "shared_dram",
            Region::Mpb => "mpb",
        }
    }

    /// Whether accesses to this region go through the (non-coherent)
    /// private cache hierarchy. Only cacheable regions can serve stale
    /// lines; shared DRAM and the MPB bypass the caches entirely.
    pub fn is_cacheable(self) -> bool {
        matches!(self, Region::Private)
    }
}

/// The cache-line index of `addr` for `line_bytes`-byte lines. Tools that
/// keep per-line metadata (the sharing-soundness oracle's last-writer
/// table) use this so their notion of a line matches the simulator's.
pub fn line_index(addr: u64, line_bytes: usize) -> u64 {
    addr / (line_bytes.max(1) as u64)
}

/// A log2-bucketed latency histogram.
///
/// Bucket 0 counts zero-cycle accesses; bucket *b* (b ≥ 1) counts
/// latencies in `[2^(b-1), 2^b)`; the last bucket is open-ended. Exact
/// counts, totals and the maximum are kept alongside, so mean latency is
/// exact even though the distribution is bucketed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Per-bucket access counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total accesses recorded.
    pub count: u64,
    /// Sum of all recorded latencies (cycles).
    pub total_cycles: u64,
    /// Largest recorded latency (cycles).
    pub max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            total_cycles: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// Bucket index for a latency value.
    pub fn bucket_of(latency: u64) -> usize {
        ((64 - latency.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one access of `latency` cycles.
    pub fn record(&mut self, latency: u64) {
        self.buckets[Self::bucket_of(latency)] += 1;
        self.count += 1;
        self.total_cycles += latency;
        self.max = self.max.max(latency);
    }

    /// Exact mean latency in cycles (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.count as f64
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total_cycles += other.total_cycles;
        self.max = self.max.max(other.max);
    }
}

/// One core's row of the counter matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreStats {
    /// Private accesses served by L1.
    pub l1_hits: u64,
    /// Private accesses served by L2.
    pub l2_hits: u64,
    /// Private accesses that reached DRAM.
    pub private_dram: u64,
    /// Cycles this core spent waiting in MC queues.
    pub mc_queue_cycles: u64,
    /// Reads per region (indexed by [`Region::index`]).
    pub reads: [u64; REGION_COUNT],
    /// Writes per region.
    pub writes: [u64; REGION_COUNT],
    /// Total access latency per region, in cycles.
    pub region_cycles: [u64; REGION_COUNT],
    /// Latency distribution per region.
    pub latency: [LatencyHistogram; REGION_COUNT],
}

impl CoreStats {
    /// Total accesses (reads + writes) this core issued to `region`.
    pub fn region_accesses(&self, region: Region) -> u64 {
        let i = region.index();
        self.reads[i] + self.writes[i]
    }

    /// Total accesses this core issued anywhere.
    pub fn total_accesses(&self) -> u64 {
        Region::ALL.iter().map(|r| self.region_accesses(*r)).sum()
    }

    /// Records one access by this core (see [`StatsMatrix::record`]).
    #[inline]
    pub(crate) fn record(&mut self, region: Region, write: bool, latency: u64) {
        let i = region.index();
        if write {
            self.writes[i] += 1;
        } else {
            self.reads[i] += 1;
        }
        self.region_cycles[i] += latency;
        self.latency[i].record(latency);
    }
}

/// The full per-core × per-region counter matrix of one simulated chip.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsMatrix {
    /// One row per core (row index = core id).
    pub per_core: Vec<CoreStats>,
}

impl StatsMatrix {
    /// An empty matrix for `cores` cores.
    pub fn new(cores: usize) -> Self {
        StatsMatrix {
            per_core: vec![CoreStats::default(); cores],
        }
    }

    /// Records one access by `core`. The region-independent attribution
    /// (`l1_hits`/`l2_hits`/`private_dram`/`mc_queue_cycles`) is added
    /// separately by the memory system as it learns where the access was
    /// served.
    pub fn record(&mut self, core: usize, region: Region, write: bool, latency: u64) {
        self.per_core[core].record(region, write, latency);
    }

    /// Total accesses to `region` across all cores.
    pub fn region_total(&self, region: Region) -> u64 {
        self.per_core
            .iter()
            .map(|c| c.region_accesses(region))
            .sum()
    }

    /// Cores that issued at least one access.
    pub fn active_cores(&self) -> usize {
        self.per_core
            .iter()
            .filter(|c| c.total_accesses() > 0)
            .count()
    }

    /// Chip-wide latency histogram for one region.
    pub fn region_histogram(&self, region: Region) -> LatencyHistogram {
        let mut h = LatencyHistogram::default();
        for c in &self.per_core {
            h.merge(&c.latency[region.index()]);
        }
        h
    }

    /// Zeroes every counter, keeping the core count.
    pub fn reset(&mut self) {
        let cores = self.per_core.len();
        self.per_core = vec![CoreStats::default(); cores];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_indices_are_dense_and_named() {
        for (i, r) in Region::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        assert_eq!(Region::Private.name(), "private");
        assert_eq!(Region::SharedDram.name(), "shared_dram");
        assert_eq!(Region::Mpb.name(), "mpb");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(1023), 10);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_mean_and_max() {
        let mut h = LatencyHistogram::default();
        h.record(2);
        h.record(4);
        h.record(6);
        assert_eq!(h.count, 3);
        assert_eq!(h.total_cycles, 12);
        assert_eq!(h.max, 6);
        assert!((h.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_adds_everything() {
        let mut a = LatencyHistogram::default();
        a.record(1);
        let mut b = LatencyHistogram::default();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count, 2);
        assert_eq!(a.max, 100);
        assert_eq!(a.total_cycles, 101);
    }

    #[test]
    fn matrix_attributes_to_core_and_region() {
        let mut m = StatsMatrix::new(4);
        m.record(2, Region::SharedDram, false, 50);
        m.record(2, Region::SharedDram, true, 10);
        m.record(3, Region::Mpb, false, 20);
        assert_eq!(m.per_core[2].reads[Region::SharedDram.index()], 1);
        assert_eq!(m.per_core[2].writes[Region::SharedDram.index()], 1);
        assert_eq!(m.per_core[2].region_cycles[Region::SharedDram.index()], 60);
        assert_eq!(m.per_core[3].region_accesses(Region::Mpb), 1);
        assert_eq!(m.region_total(Region::SharedDram), 2);
        assert_eq!(m.active_cores(), 2);
        assert_eq!(m.region_histogram(Region::SharedDram).count, 2);
    }

    #[test]
    fn matrix_reset_keeps_shape() {
        let mut m = StatsMatrix::new(8);
        m.record(0, Region::Private, false, 1);
        m.reset();
        assert_eq!(m.per_core.len(), 8);
        assert_eq!(m.region_total(Region::Private), 0);
    }
}
