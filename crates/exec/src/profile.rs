//! First-class run profiles.
//!
//! Before this module, the observable signal of a simulated run was
//! fragmented across three layers: raw [`TraceEvent`]s/[`SyncEvent`]s in
//! [`crate::trace`], per-core × per-region counters in
//! [`scc_sim::StatsMatrix`], and whatever ad-hoc numbers each figure
//! script pulled out of a [`RunResult`]. A [`Profile`] unifies them into
//! one serializable, mergeable artifact per run:
//!
//! * **per-core reuse-distance histograms** over private-region cache
//!   lines, computed online with Olken's algorithm (a last-access map plus
//!   a Fenwick tree over the access sequence) while the run streams
//!   through a [`ProfileCollector`];
//! * **per-region access/sharing counts** (reads, writes, cycles, and how
//!   many cores touched each region);
//! * **sync-event summaries** — barrier epochs and wait cycles, lock
//!   acquires and cross-unit hand-offs, thread create/join counts, message
//!   rendezvous, and the task runtime's DMA transfer count and byte
//!   volume (via [`TraceSink::dma`]);
//! * **cycle totals** — makespan, `wtime`-bracketed cycles, per-unit
//!   clocks, retired instructions and the exit code, copied from the
//!   [`RunResult`].
//!
//! The collector is an ordinary [`TraceSink`], so profiling rides the
//! existing monomorphized trace path: the engine's cycle accounting is
//! identical with and without a collector attached (pinned by the
//! `profiling_does_not_perturb_timing` test). [`Profile::to_text`] is a
//! deterministic line-oriented codec (`hsmprofile 1` header) suitable for
//! content-addressed artifact stores; [`Profile::merge`] aggregates
//! repeated runs counter-wise.
//!
//! Reuse distance is the number of *distinct* cache lines touched between
//! two accesses to the same line. On a machine whose private caches are
//! (approximately) LRU, an access hits a cache of `C` lines iff its reuse
//! distance is `< C`, so the histogram reads as a hit-rate curve over
//! cache sizes.

use crate::machine::{ExecError, RunResult};
use crate::trace::{SyncEvent, TraceEvent, TraceSink};
use scc_sim::Region;
use std::collections::HashMap;

/// Number of log₂ buckets in a [`ReuseHistogram`]: bucket 0 is distance
/// 0 (immediate re-reference), bucket `b` covers `[2^(b-1), 2^b)`, and the
/// last bucket absorbs everything larger.
pub(crate) const REUSE_BUCKETS: usize = 24;

/// Version tag of the [`Profile::to_text`] wire form.
pub(crate) const PROFILE_FORMAT_VERSION: u32 = 1;

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
    /// The bucket a distance falls into.
    pub fn bucket_of(distance: u64) -> usize {
        if distance == 0 {
            0
        } else {
            ((64 - distance.leading_zeros()) as usize).min(REUSE_BUCKETS - 1)
        }
    }

    /// Records one re-reference at `distance` distinct lines.
    pub fn record(&mut self, distance: u64) {
        self.buckets[Self::bucket_of(distance)] += 1;
    }

    /// Re-references recorded (excludes cold misses).
    pub fn reuses(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// All accesses observed: re-references plus cold misses.
    pub fn total(&self) -> u64 {
        self.reuses() + self.cold
    }

    /// Counter-wise sum with another histogram.
    pub fn merge(&mut self, other: &ReuseHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.cold += other.cold;
    }
}

/// One core's slice of a [`Profile`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoreProfile {
    /// Reuse-distance histogram over private-region cache lines.
    pub reuse: ReuseHistogram,
    /// Accesses (loads + stores) per region, indexed by [`Region::index`].
    pub accesses: [u64; 3],
    /// Stores per region.
    pub writes: [u64; 3],
    /// Cycles spent in memory accesses per region.
    pub cycles: [u64; 3],
}

impl CoreProfile {
    /// Counter-wise sum with another core's slice.
    pub fn merge(&mut self, other: &CoreProfile) {
        self.reuse.merge(&other.reuse);
        for i in 0..3 {
            self.accesses[i] += other.accesses[i];
            self.writes[i] += other.writes[i];
            self.cycles[i] += other.cycles[i];
        }
    }
}

/// Chip-wide totals for one address-space region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegionProfile {
    /// Loads.
    pub reads: u64,
    /// Stores.
    pub writes: u64,
    /// Cycles spent accessing the region.
    pub cycles: u64,
    /// Cores that touched the region at least once — the sharing degree.
    pub sharers: u64,
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
    /// Counter-wise sum with another summary.
    pub fn merge(&mut self, other: &SyncSummary) {
        self.barrier_epochs += other.barrier_epochs;
        self.barrier_arrivals += other.barrier_arrivals;
        self.barrier_wait_cycles += other.barrier_wait_cycles;
        self.lock_acquires += other.lock_acquires;
        self.lock_handoffs += other.lock_handoffs;
        self.thread_starts += other.thread_starts;
        self.thread_joins += other.thread_joins;
        self.messages += other.messages;
        self.dma_transfers += other.dma_transfers;
        self.dma_bytes += other.dma_bytes;
    }
}

/// The unified, serializable observation record of one (or, after
/// [`Profile::merge`], several) simulated runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Runs aggregated into this profile (1 for a fresh profile).
    pub runs: u64,
    /// Makespan cycles, summed across merged runs.
    pub total_cycles: u64,
    /// `wtime`-bracketed cycles, summed across merged runs.
    pub timed_cycles: u64,
    /// Bytecode instructions retired, summed across merged runs.
    pub instructions: u64,
    /// Exit code of the (first) run.
    pub exit_code: i64,
    /// Final per-unit clocks (element-wise sums across merged runs).
    pub per_unit_cycles: Vec<u64>,
    /// Per-core observation slices, indexed by physical core id.
    pub per_core: Vec<CoreProfile>,
    /// Chip-wide per-region totals, indexed by [`Region::index`].
    pub regions: [RegionProfile; 3],
    /// Synchronization summary.
    pub sync: SyncSummary,
}

impl Profile {
    /// Cores with at least one recorded access.
    pub fn active_cores(&self) -> usize {
        self.per_core
            .iter()
            .filter(|c| c.accesses.iter().any(|&a| a > 0))
            .count()
    }

    /// Aggregates another profile into this one: counters and cycle
    /// totals sum, `per_unit_cycles`/`per_core` extend to the longer
    /// length, and the exit code of `self` is retained. Merging is
    /// commutative up to the retained exit code and associative, so
    /// shard-and-merge pipelines produce identical bytes regardless of
    /// merge order.
    pub fn merge(&mut self, other: &Profile) {
        self.runs += other.runs;
        self.total_cycles += other.total_cycles;
        self.timed_cycles += other.timed_cycles;
        self.instructions += other.instructions;
        if self.per_unit_cycles.len() < other.per_unit_cycles.len() {
            self.per_unit_cycles.resize(other.per_unit_cycles.len(), 0);
        }
        for (i, &c) in other.per_unit_cycles.iter().enumerate() {
            self.per_unit_cycles[i] += c;
        }
        if self.per_core.len() < other.per_core.len() {
            self.per_core
                .resize(other.per_core.len(), CoreProfile::default());
        }
        for (i, c) in other.per_core.iter().enumerate() {
            self.per_core[i].merge(c);
        }
        for i in 0..3 {
            self.regions[i].reads += other.regions[i].reads;
            self.regions[i].writes += other.regions[i].writes;
            self.regions[i].cycles += other.regions[i].cycles;
            self.regions[i].sharers = self.regions[i].sharers.max(other.regions[i].sharers);
        }
        self.sync.merge(&other.sync);
    }

    /// Serializes to the deterministic `hsmprofile 1` text form: a fixed
    /// header, one line per chip-wide field, then one dense `core` line
    /// per core. Two equal profiles always produce identical bytes.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "hsmprofile {PROFILE_FORMAT_VERSION}");
        let _ = writeln!(
            s,
            "run {} {} {} {} {}",
            self.runs, self.total_cycles, self.timed_cycles, self.instructions, self.exit_code
        );
        let _ = write!(s, "units {}", self.per_unit_cycles.len());
        for c in &self.per_unit_cycles {
            let _ = write!(s, " {c}");
        }
        s.push('\n');
        for (i, r) in self.regions.iter().enumerate() {
            let _ = writeln!(
                s,
                "region {} {} {} {} {}",
                Region::ALL[i].name(),
                r.reads,
                r.writes,
                r.cycles,
                r.sharers
            );
        }
        let y = &self.sync;
        let _ = writeln!(
            s,
            "sync {} {} {} {} {} {} {} {} {} {}",
            y.barrier_epochs,
            y.barrier_arrivals,
            y.barrier_wait_cycles,
            y.lock_acquires,
            y.lock_handoffs,
            y.thread_starts,
            y.thread_joins,
            y.messages,
            y.dma_transfers,
            y.dma_bytes
        );
        let _ = writeln!(s, "cores {}", self.per_core.len());
        for (id, core) in self.per_core.iter().enumerate() {
            let _ = write!(s, "core {id} {}", core.reuse.cold);
            for b in &core.reuse.buckets {
                let _ = write!(s, " {b}");
            }
            for v in core
                .accesses
                .iter()
                .chain(core.writes.iter())
                .chain(core.cycles.iter())
            {
                let _ = write!(s, " {v}");
            }
            s.push('\n');
        }
        s
    }

    /// Parses the [`Profile::to_text`] form.
    ///
    /// # Errors
    ///
    /// Rejects a missing/unknown header and malformed or truncated lines.
    pub fn from_text(text: &str) -> Result<Profile, ExecError> {
        fn num<T: std::str::FromStr>(t: Option<&str>, what: &str) -> Result<T, ExecError> {
            t.ok_or_else(|| ExecError::new(format!("profile: missing {what}")))?
                .parse::<T>()
                .map_err(|_| ExecError::new(format!("profile: malformed {what}")))
        }
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        if header != format!("hsmprofile {PROFILE_FORMAT_VERSION}") {
            return Err(ExecError::new(format!(
                "profile: unknown header `{header}`"
            )));
        }
        let mut p = Profile::default();
        let mut region_idx = 0usize;
        for line in lines {
            let mut t = line.split_whitespace();
            match t.next() {
                Some("run") => {
                    p.runs = num(t.next(), "runs")?;
                    p.total_cycles = num(t.next(), "total_cycles")?;
                    p.timed_cycles = num(t.next(), "timed_cycles")?;
                    p.instructions = num(t.next(), "instructions")?;
                    p.exit_code = num(t.next(), "exit_code")?;
                }
                Some("units") => {
                    let n: usize = num(t.next(), "unit count")?;
                    p.per_unit_cycles = (0..n)
                        .map(|_| num(t.next(), "unit cycles"))
                        .collect::<Result<_, _>>()?;
                }
                Some("region") => {
                    if region_idx >= 3 {
                        return Err(ExecError::new("profile: too many region lines"));
                    }
                    let name = t.next().unwrap_or_default();
                    if name != Region::ALL[region_idx].name() {
                        return Err(ExecError::new(format!(
                            "profile: region `{name}` out of order"
                        )));
                    }
                    let r = &mut p.regions[region_idx];
                    r.reads = num(t.next(), "region reads")?;
                    r.writes = num(t.next(), "region writes")?;
                    r.cycles = num(t.next(), "region cycles")?;
                    r.sharers = num(t.next(), "region sharers")?;
                    region_idx += 1;
                }
                Some("sync") => {
                    let y = &mut p.sync;
                    y.barrier_epochs = num(t.next(), "barrier_epochs")?;
                    y.barrier_arrivals = num(t.next(), "barrier_arrivals")?;
                    y.barrier_wait_cycles = num(t.next(), "barrier_wait_cycles")?;
                    y.lock_acquires = num(t.next(), "lock_acquires")?;
                    y.lock_handoffs = num(t.next(), "lock_handoffs")?;
                    y.thread_starts = num(t.next(), "thread_starts")?;
                    y.thread_joins = num(t.next(), "thread_joins")?;
                    y.messages = num(t.next(), "messages")?;
                    y.dma_transfers = num(t.next(), "dma_transfers")?;
                    y.dma_bytes = num(t.next(), "dma_bytes")?;
                }
                Some("cores") => {
                    let n: usize = num(t.next(), "core count")?;
                    p.per_core = vec![CoreProfile::default(); n];
                }
                Some("core") => {
                    let id: usize = num(t.next(), "core id")?;
                    let core = p
                        .per_core
                        .get_mut(id)
                        .ok_or_else(|| ExecError::new("profile: core id out of range"))?;
                    core.reuse.cold = num(t.next(), "cold count")?;
                    for b in 0..REUSE_BUCKETS {
                        core.reuse.buckets[b] = num(t.next(), "reuse bucket")?;
                    }
                    for i in 0..3 {
                        core.accesses[i] = num(t.next(), "core accesses")?;
                    }
                    for i in 0..3 {
                        core.writes[i] = num(t.next(), "core writes")?;
                    }
                    for i in 0..3 {
                        core.cycles[i] = num(t.next(), "core cycles")?;
                    }
                }
                Some(other) => {
                    return Err(ExecError::new(format!(
                        "profile: unknown line tag `{other}`"
                    )));
                }
                None => {}
            }
        }
        if region_idx != 3 {
            return Err(ExecError::new("profile: truncated (missing regions)"));
        }
        Ok(p)
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
    out: CoreProfile,
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
                self.out.reuse.record(distance as u64);
            }
            None => self.out.reuse.cold += 1,
        }
    }
}

/// A [`TraceSink`] that builds a [`Profile`] online as the engine runs.
///
/// Attach one to any `*_traced` entry point (or use the `*_profiled`
/// wrappers) and convert it with [`ProfileCollector::into_profile`] once
/// the run finishes. Reuse distances are exact (Olken's algorithm), not
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

    fn core_mut(&mut self, core: usize) -> &mut CoreState {
        if self.cores.len() <= core {
            self.cores.resize_with(core + 1, CoreState::default);
        }
        &mut self.cores[core]
    }

    /// Finalizes the collector against the run it observed, pulling cycle
    /// totals from `result` and everything event-shaped from the
    /// collector itself.
    pub fn into_profile(self, result: &RunResult) -> Profile {
        let mut regions = [RegionProfile::default(); 3];
        for state in &self.cores {
            for (i, region) in regions.iter_mut().enumerate() {
                let acc = state.out.accesses[i];
                region.reads += acc - state.out.writes[i];
                region.writes += state.out.writes[i];
                region.cycles += state.out.cycles[i];
                if acc > 0 {
                    region.sharers += 1;
                }
            }
        }
        Profile {
            runs: 1,
            total_cycles: result.total_cycles,
            timed_cycles: result.timed_cycles,
            instructions: result.instructions,
            exit_code: result.exit_code,
            per_unit_cycles: result.per_unit_cycles.clone(),
            per_core: self.cores.into_iter().map(|s| s.out).collect(),
            regions,
            sync: self.sync,
        }
    }
}

impl TraceSink for ProfileCollector {
    fn record(&mut self, event: TraceEvent) {
        let line_bytes = self.line_bytes;
        let state = self.core_mut(event.core);
        let i = event.region.index();
        state.out.accesses[i] += 1;
        if event.write {
            state.out.writes[i] += 1;
        }
        state.out.cycles[i] += event.latency;
        if event.region == Region::Private {
            state.observe(event.addr / line_bytes);
        }
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
        let result = empty_result();
        let p = c.into_profile(&result);
        let h = &p.per_core[0].reuse;
        assert_eq!(h.cold, 3, "A, B, C first touches");
        // A re-access: {B, C} in between → distance 2 → bucket 2.
        // B re-access: {C, A} in between → distance 2 → bucket 2.
        // B re-access: nothing in between → distance 0 → bucket 0.
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.reuses(), 3);
    }

    #[test]
    fn reuse_distance_counts_distinct_lines_not_accesses() {
        // A B B B A: three B accesses between the A pair, but only one
        // distinct line → distance 1.
        let mut c = ProfileCollector::new(32);
        for line in [0u64, 1, 1, 1, 0] {
            c.record(access(0, line * 32, false));
        }
        let p = c.into_profile(&empty_result());
        let h = &p.per_core[0].reuse;
        assert_eq!(h.buckets[1], 1, "distance 1 lands in [1,2)");
        assert_eq!(h.buckets[0], 2, "the two immediate B re-accesses");
    }

    #[test]
    fn text_codec_round_trips_and_is_deterministic() {
        let mut c = ProfileCollector::new(32);
        for line in [0u64, 1, 0, 2, 1] {
            c.record(access(1, line * 32, line == 2));
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
        let p = c.into_profile(&empty_result());
        let text = p.to_text();
        assert!(text.starts_with("hsmprofile 1\n"));
        let back = Profile::from_text(&text).expect("parses");
        assert_eq!(p, back);
        assert_eq!(text, back.to_text(), "serialize∘parse is the identity");
        assert_eq!(back.sync.barrier_wait_cycles, 15);
        assert_eq!(back.sync.dma_bytes, 256);
    }

    #[test]
    fn malformed_profiles_are_rejected() {
        assert!(Profile::from_text("").is_err());
        assert!(Profile::from_text("hsmprofile 9\n").is_err());
        assert!(Profile::from_text("hsmprofile 1\nrun 1 2\n").is_err());
        assert!(Profile::from_text("hsmprofile 1\nbogus 1\n").is_err());
        let truncated = "hsmprofile 1\nrun 1 2 3 4 5\nunits 0\n";
        assert!(Profile::from_text(truncated).is_err(), "missing regions");
    }

    #[test]
    fn merge_sums_counters_and_is_associative() {
        let mut a = one_core_profile(0, 7);
        let b = one_core_profile(1, 11);
        let c = one_core_profile(0, 13);
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        a.merge(&bc);
        // Associative up to the retained exit code (both kept `a`'s).
        assert_eq!(a.to_text(), ab_c.to_text());
        assert_eq!(a.runs, 3);
        assert_eq!(a.total_cycles, 7 + 11 + 13);
    }

    fn one_core_profile(core: usize, cycles: u64) -> Profile {
        let mut c = ProfileCollector::new(32);
        c.record(access(core, 64, false));
        c.record(access(core, 64, true));
        let mut r = empty_result();
        r.total_cycles = cycles;
        c.into_profile(&r)
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
