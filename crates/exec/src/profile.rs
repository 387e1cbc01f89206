//! Run profiles: a run plus what only its trace shows.
//!
//! A [`RunResult`] already says where every access landed: `scc-sim`'s
//! [`StatsMatrix`](scc_sim::StatsMatrix) counts reads, writes and cycles
//! per core and region. A [`Profile`] is that run together with the two
//! things no counter sees:
//!
//! * **per-core reuse-distance histograms** over private-region cache
//!   lines, computed online with Olken's algorithm (a last-access map plus
//!   a Fenwick tree over the access sequence) while the run streams
//!   through a [`ProfileCollector`];
//! * **sync-event summaries** — barrier epochs and wait cycles, lock
//!   acquires and cross-unit hand-offs, thread create/join counts, message
//!   rendezvous, and the task runtime's DMA transfer count and byte
//!   volume (via [`TraceSink::dma`]).
//!
//! The collector is an ordinary [`TraceSink`], so profiling rides the
//! existing monomorphized trace path: the engine's cycle accounting is
//! identical with and without a collector attached (pinned by the
//! `profiling_does_not_perturb_timing` test). A profile is stored with
//! [`Profile::encode`] (the run's binary codec plus the two additions);
//! [`Profile::to_text`] renders the deterministic `hsmprofile 1` text
//! that `hsmd`'s `profile` job answers with.
//!
//! Reuse distance is the number of *distinct* cache lines touched between
//! two accesses to the same line. On a machine whose private caches are
//! (approximately) LRU, an access hits a cache of `C` lines iff its reuse
//! distance is `< C`, so the histogram reads as a hit-rate curve over
//! cache sizes.

use crate::machine::RunResult;
use crate::trace::{SyncEvent, TraceEvent, TraceSink};
use scc_sim::Region;
use std::collections::HashMap;

/// Number of log₂ buckets in a [`ReuseHistogram`]: bucket 0 is distance
/// 0 (immediate re-reference), bucket `b` covers `[2^(b-1), 2^b)`, and the
/// last bucket absorbs everything larger.
pub(crate) const REUSE_BUCKETS: usize = 24;

/// A log₂-bucketed histogram of cache-line reuse distances plus the cold
/// (first-touch) count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReuseHistogram {
    /// Bucket counts (see `REUSE_BUCKETS` for the bucket boundaries).
    pub buckets: [u64; REUSE_BUCKETS],
    /// First accesses to a line (infinite reuse distance — compulsory
    /// misses under any cache size).
    pub cold: u64,
}

impl ReuseHistogram {
    /// Records one re-reference at `distance` distinct lines.
    fn record(&mut self, distance: u64) {
        let bucket = if distance == 0 {
            0
        } else {
            ((64 - distance.leading_zeros()) as usize).min(REUSE_BUCKETS - 1)
        };
        self.buckets[bucket] += 1;
    }
}

/// Aggregated synchronization activity of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncSummary {
    /// Distinct barrier epochs observed.
    pub barrier_epochs: u64,
    /// Barrier arrivals (participants × epochs).
    pub barrier_arrivals: u64,
    /// Cycles units spent between arriving at a barrier and being
    /// released from it — the load-imbalance wait bill.
    pub barrier_wait_cycles: u64,
    /// Lock acquisitions (pthread mutex or RCCE test-and-set).
    pub lock_acquires: u64,
    /// Acquisitions where the previous holder was a *different* unit — a
    /// conservative proxy for contended hand-offs.
    pub lock_handoffs: u64,
    /// Threads/units spawned.
    pub thread_starts: u64,
    /// Join edges observed.
    pub thread_joins: u64,
    /// Point-to-point message rendezvous.
    pub messages: u64,
    /// Bulk DMA transfers billed by the task runtime.
    pub dma_transfers: u64,
    /// Bytes moved by those transfers.
    pub dma_bytes: u64,
}

impl SyncSummary {
    /// The counters in field order: the order of the `sync` text line
    /// and of the binary form.
    pub(crate) fn counters(&self) -> [u64; 10] {
        [
            self.barrier_epochs,
            self.barrier_arrivals,
            self.barrier_wait_cycles,
            self.lock_acquires,
            self.lock_handoffs,
            self.thread_starts,
            self.thread_joins,
            self.messages,
            self.dma_transfers,
            self.dma_bytes,
        ]
    }
}

/// One simulated run together with what only its trace shows.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// The run: cycles, output and `scc-sim`'s per-core × per-region
    /// counters.
    pub run: RunResult,
    /// Reuse-distance histogram over private-region cache lines, indexed
    /// by physical core id. A core past the end made no private access.
    pub reuse: Vec<ReuseHistogram>,
    /// Synchronization summary.
    pub sync: SyncSummary,
}

impl Profile {
    /// Renders the deterministic `hsmprofile 1` text: a fixed header, one
    /// line per chip-wide field, then one dense `core` line per core up
    /// to the last one with an access. Two equal profiles always render
    /// identical bytes.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let run = &self.run;
        let rows = &run.stats_matrix.per_core;
        let mut s = String::new();
        let _ = writeln!(s, "hsmprofile 1");
        let _ = writeln!(
            s,
            "run 1 {} {} {} {}",
            run.total_cycles, run.timed_cycles, run.instructions, run.exit_code
        );
        let _ = write!(s, "units {}", run.per_unit_cycles.len());
        for c in &run.per_unit_cycles {
            let _ = write!(s, " {c}");
        }
        s.push('\n');
        for region in Region::ALL {
            let i = region.index();
            let (mut reads, mut writes, mut cycles, mut sharers) = (0, 0, 0, 0);
            for row in rows {
                reads += row.reads[i];
                writes += row.writes[i];
                cycles += row.region_cycles[i];
                sharers += u64::from(row.region_accesses(region) > 0);
            }
            let name = region.name();
            let _ = writeln!(s, "region {name} {reads} {writes} {cycles} {sharers}");
        }
        let _ = write!(s, "sync");
        for c in self.sync.counters() {
            let _ = write!(s, " {c}");
        }
        s.push('\n');
        let cores = rows
            .iter()
            .rposition(|c| c.total_accesses() > 0)
            .map_or(0, |last| last + 1);
        let _ = writeln!(s, "cores {cores}");
        let none = ReuseHistogram::default();
        for (id, row) in rows[..cores].iter().enumerate() {
            let reuse = self.reuse.get(id).unwrap_or(&none);
            let _ = write!(s, "core {id} {}", reuse.cold);
            for b in &reuse.buckets {
                let _ = write!(s, " {b}");
            }
            let accesses = Region::ALL.map(|r| row.region_accesses(r));
            for v in accesses.iter().chain(&row.writes).chain(&row.region_cycles) {
                let _ = write!(s, " {v}");
            }
            s.push('\n');
        }
        s
    }
}

/// A Fenwick (binary-indexed) tree over the access sequence, supporting
/// append, point update and prefix sum in `O(log n)` — the classic data
/// structure behind Olken's online reuse-distance algorithm.
#[derive(Debug, Clone, Default)]
struct Fenwick {
    // 1-based; tree[i-1] covers the range (i - lowbit(i), i].
    tree: Vec<i64>,
}

impl Fenwick {
    /// Appends position `len+1` holding `value`.
    fn push(&mut self, value: i64) {
        let i = self.tree.len() + 1;
        let lowbit = i & i.wrapping_neg();
        // The new node covers (i - lowbit, i]; everything but `value`
        // is already known from existing prefix sums.
        let node = value + self.prefix(i - 1) - self.prefix(i - lowbit);
        self.tree.push(node);
    }

    fn add(&mut self, mut i: usize, delta: i64) {
        while i <= self.tree.len() {
            self.tree[i - 1] += delta;
            i += i & i.wrapping_neg();
        }
    }

    fn prefix(&self, mut i: usize) -> i64 {
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i - 1];
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// Per-core working state of the collector.
#[derive(Debug, Default)]
struct CoreState {
    /// 1-based index of the last access to each private line.
    last: HashMap<u64, usize>,
    /// +1 at the current last access of every line, 0 elsewhere; prefix
    /// sums count distinct lines in an index range.
    marks: Fenwick,
    /// Private-region accesses observed (the Fenwick length).
    time: usize,
    reuse: ReuseHistogram,
}

impl CoreState {
    fn observe(&mut self, line: u64) {
        self.time += 1;
        self.marks.push(1);
        match self.last.insert(line, self.time) {
            Some(prev) => {
                // Distinct lines touched strictly between the two
                // accesses to `line` = marked positions in (prev, time).
                let distance = self.marks.prefix(self.time - 1) - self.marks.prefix(prev);
                self.marks.add(prev, -1);
                self.reuse.record(distance as u64);
            }
            None => self.reuse.cold += 1,
        }
    }
}

/// A [`TraceSink`] that builds a [`Profile`] online as the engine runs.
///
/// Hand one to [`run`](crate::run) as its sink and convert it with
/// [`ProfileCollector::into_profile`] once the run finishes. Reuse distances are exact (Olken's algorithm), not
/// sampled; memory cost is proportional to the private working set plus
/// one tree node per private access.
#[derive(Debug, Default)]
pub struct ProfileCollector {
    line_bytes: u64,
    cores: Vec<CoreState>,
    sync: SyncSummary,
    /// Pending (epoch, arrival cycle) per unit between arrive and release.
    pending_barrier: Vec<Option<(u64, u64)>>,
    last_epoch: Option<u64>,
    lock_owner: HashMap<u64, usize>,
}

impl ProfileCollector {
    /// A collector bucketing addresses into `line_bytes`-sized cache
    /// lines (use the config's `line_bytes`; 32 on the SCC).
    pub fn new(line_bytes: usize) -> Self {
        ProfileCollector {
            line_bytes: line_bytes.max(1) as u64,
            ..ProfileCollector::default()
        }
    }

    /// Finalizes the collector against the run it observed.
    pub fn into_profile(self, run: RunResult) -> Profile {
        Profile {
            run,
            reuse: self.cores.into_iter().map(|s| s.reuse).collect(),
            sync: self.sync,
        }
    }
}

impl TraceSink for ProfileCollector {
    fn record(&mut self, event: TraceEvent) {
        if event.region != Region::Private {
            return;
        }
        let line = event.addr / self.line_bytes;
        if self.cores.len() <= event.core {
            self.cores.resize_with(event.core + 1, CoreState::default);
        }
        self.cores[event.core].observe(line);
    }

    fn sync(&mut self, event: SyncEvent) {
        match event {
            SyncEvent::ThreadStart { .. } => self.sync.thread_starts += 1,
            SyncEvent::ThreadJoin { .. } => self.sync.thread_joins += 1,
            SyncEvent::LockAcquire { unit, lock, .. } => {
                self.sync.lock_acquires += 1;
                if let Some(prev) = self.lock_owner.insert(lock, unit) {
                    if prev != unit {
                        self.sync.lock_handoffs += 1;
                    }
                }
            }
            SyncEvent::LockRelease { .. } => {}
            SyncEvent::BarrierArrive { unit, epoch, cycle } => {
                self.sync.barrier_arrivals += 1;
                if self.last_epoch != Some(epoch) {
                    self.last_epoch = Some(epoch);
                    self.sync.barrier_epochs += 1;
                }
                if self.pending_barrier.len() <= unit {
                    self.pending_barrier.resize(unit + 1, None);
                }
                self.pending_barrier[unit] = Some((epoch, cycle));
            }
            SyncEvent::BarrierRelease { unit, epoch, cycle } => {
                if let Some(Some((e, at))) = self.pending_barrier.get_mut(unit).map(Option::take) {
                    if e == epoch {
                        self.sync.barrier_wait_cycles += cycle.saturating_sub(at);
                    }
                }
            }
            SyncEvent::Message { .. } => self.sync.messages += 1,
        }
    }

    fn dma(&mut self, _from: usize, _to: usize, bytes: u64, _cycle: u64) {
        self.sync.dma_transfers += 1;
        self.sync.dma_bytes += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(core: usize, addr: u64, write: bool) -> TraceEvent {
        TraceEvent {
            core,
            unit: core,
            cycle: 0,
            addr,
            region: Region::Private,
            latency: 3,
            write,
        }
    }

    #[test]
    fn reuse_distances_follow_olken() {
        // Lines: A B C A B B  (line size 32).
        let mut c = ProfileCollector::new(32);
        for (i, line) in [0u64, 1, 2, 0, 1, 1].iter().enumerate() {
            c.record(access(0, line * 32 + (i as u64 % 4), false));
        }
        let p = c.into_profile(empty_result());
        let h = &p.reuse[0];
        assert_eq!(h.cold, 3, "A, B, C first touches");
        // A re-access: {B, C} in between → distance 2 → bucket 2.
        // B re-access: {C, A} in between → distance 2 → bucket 2.
        // B re-access: nothing in between → distance 0 → bucket 0.
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets.iter().sum::<u64>(), 3, "nothing else");
    }

    #[test]
    fn reuse_distance_counts_distinct_lines_not_accesses() {
        // A B B B A: three B accesses between the A pair, but only one
        // distinct line → distance 1.
        let mut c = ProfileCollector::new(32);
        for line in [0u64, 1, 1, 1, 0] {
            c.record(access(0, line * 32, false));
        }
        let p = c.into_profile(empty_result());
        let h = &p.reuse[0];
        assert_eq!(h.buckets[1], 1, "distance 1 lands in [1,2)");
        assert_eq!(h.buckets[0], 2, "the two immediate B re-accesses");
    }

    #[test]
    fn shared_accesses_have_no_reuse_row() {
        let mut c = ProfileCollector::new(32);
        c.record(TraceEvent {
            region: Region::Mpb,
            ..access(3, 64, true)
        });
        c.record(access(1, 64, false));
        let p = c.into_profile(empty_result());
        assert_eq!(p.reuse.len(), 2, "core 3 made no private access");
        assert_eq!(p.reuse[1].cold, 1);
    }

    #[test]
    fn text_renders_the_run_counters_and_the_trace_summaries() {
        let mut c = ProfileCollector::new(32);
        for line in [0u64, 1, 0] {
            c.record(access(1, line * 32, false));
        }
        c.sync(SyncEvent::BarrierArrive {
            unit: 0,
            epoch: 0,
            cycle: 10,
        });
        c.sync(SyncEvent::BarrierRelease {
            unit: 0,
            epoch: 0,
            cycle: 25,
        });
        c.dma(0, 1, 256, 99);
        let mut run = empty_result();
        run.total_cycles = 40;
        run.per_unit_cycles = vec![40, 30];
        run.stats_matrix = scc_sim::StatsMatrix::new(4);
        for (core, region, write, latency) in [
            (1, Region::Private, false, 3),
            (1, Region::Private, false, 3),
            (1, Region::Private, true, 3),
            (0, Region::SharedDram, true, 60),
            (1, Region::SharedDram, false, 50),
        ] {
            run.stats_matrix.record(core, region, write, latency);
        }
        let text = c.into_profile(run).to_text();
        let mut expected = String::from(
            "hsmprofile 1\n\
             run 1 40 0 0 0\n\
             units 2 40 30\n\
             region private 2 1 9 1\n\
             region shared_dram 1 1 110 2\n\
             region mpb 0 0 0 0\n\
             sync 1 1 15 0 0 0 0 0 1 256\n\
             cores 2\n\
             core 0 0",
        );
        expected.push_str(&" 0".repeat(REUSE_BUCKETS));
        expected.push_str(" 0 1 0 0 1 0 0 60 0\ncore 1 2 0 1");
        expected.push_str(&" 0".repeat(REUSE_BUCKETS - 2));
        expected.push_str(" 3 1 0 1 0 0 9 50 0\n");
        assert_eq!(text, expected);
    }

    fn empty_result() -> RunResult {
        RunResult {
            total_cycles: 0,
            timed_cycles: 0,
            output: Vec::new(),
            exit_code: 0,
            mem_stats: scc_sim::MemStats::default(),
            stats_matrix: scc_sim::StatsMatrix::default(),
            mpb_high_water: 0,
            per_unit_cycles: Vec::new(),
            instructions: 0,
            events: 0,
        }
    }
}
