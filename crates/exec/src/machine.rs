//! Shared machine state: data spaces, run results, and the execution error
//! type.

use hsm_vm::ByteMemory;
use hsm_vm::{MemKind, Value, VmError};
use scc_sim::memory::{MPB_BASE, SHARED_DRAM_BASE};
use scc_sim::{MemStats, MemorySystem, Region, StatsMatrix};
use std::fmt;

/// An execution failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecError {
    /// Description.
    pub message: String,
}

impl ExecError {
    /// Creates an error.
    pub fn new(m: impl Into<String>) -> Self {
        ExecError { message: m.into() }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "execution error: {}", self.message)
    }
}

impl std::error::Error for ExecError {}

impl From<VmError> for ExecError {
    fn from(e: VmError) -> Self {
        ExecError::new(e.to_string())
    }
}

impl From<hsm_vm::CompileError> for ExecError {
    fn from(e: hsm_vm::CompileError) -> Self {
        ExecError::new(e.to_string())
    }
}

/// Argument `i` of a syscall as an address; an absent argument reads as 0.
///
/// # Errors
///
/// A negative value is never an address. The program computed it, so it is
/// the run's error — reported in the words the VM uses for a negative
/// effective address — not the host's.
pub(crate) fn addr_arg(args: &[Value], i: usize) -> Result<u64, ExecError> {
    let v = args.get(i).map_or(0, |v| v.as_i());
    u64::try_from(v).map_err(|_| ExecError::new(format!("negative address {v}")))
}

/// The most bytes one transfer a program sizes may move: a `task_spawn`
/// region, an `RCCE_put`/`RCCE_get`, one side of an
/// `RCCE_send`/`RCCE_recv`.
///
/// 16 MiB. The largest transfer any corpus or paper program makes is
/// `task_matrix_vector`'s 512-byte region of four matrix rows (translated
/// programs make none: they share through memory), and the largest whole
/// data set of a paper workload is LU's 64 matrices of 30×30 doubles,
/// 460 KB; the cap is 36 times that. As one task region it costs 7 ms of
/// host time (2-vCPU x86 container) and 16 MiB of host pages, where a
/// length nothing bounded, such as 2⁴⁰, costs hours and all of the host's
/// memory.
pub(crate) const MAX_TRANSFER_BYTES: u64 = 16 << 20;

/// Refuses a transfer of `len` bytes at `addr`, sized by the program in a
/// call to `call`, that leaves the region `addr` lies in or is larger than
/// [`MAX_TRANSFER_BYTES`], before a byte of it moves.
///
/// # Errors
///
/// The refusal, naming the call and the length.
pub(crate) fn checked_transfer(call: &str, addr: u64, len: u64) -> Result<(), ExecError> {
    let refuse = |why: String| Err(ExecError::new(format!("`{call}` of {len} bytes {why}")));
    if len > MAX_TRANSFER_BYTES {
        return refuse(format!(
            "exceeds the {MAX_TRANSFER_BYTES}-byte transfer cap"
        ));
    }
    if len > region_end(addr) - addr {
        return refuse(format!("at {addr:#x} leaves its memory region"));
    }
    Ok(())
}

/// The first address past the region `addr` lies in (the MPB window runs
/// to the end of the address space).
fn region_end(addr: u64) -> u64 {
    match MemorySystem::region_of(addr) {
        Region::Private => SHARED_DRAM_BASE,
        Region::SharedDram => MPB_BASE,
        Region::Mpb => u64::MAX,
    }
}

/// The bytes a bulk copy moves through its stack buffer at a time: one
/// page of [`ByteMemory`].
const COPY_CHUNK: usize = 4096;

/// Copies `len` bytes at `addr` from one memory to another, a page slice at
/// a time.
pub(crate) fn copy_between(from: &ByteMemory, to: &mut ByteMemory, addr: u64, len: u64) {
    let mut buf = [0u8; COPY_CHUNK];
    let mut done = 0;
    while done < len {
        let n = (len - done).min(COPY_CHUNK as u64);
        let chunk = &mut buf[..n as usize];
        from.read_bytes(addr + done, chunk);
        to.write_bytes(addr + done, chunk);
        done += n;
    }
}

/// The data contents of the simulated machine (timing lives in
/// [`MemorySystem`]; bytes live here).
#[derive(Debug)]
pub(crate) struct DataSpaces {
    /// Per-core private memories (a single one in pthread mode).
    pub private: Vec<ByteMemory>,
    /// Shared off-chip DRAM contents.
    pub shared: ByteMemory,
    /// MPB contents.
    pub mpb: ByteMemory,
}

impl DataSpaces {
    /// Creates spaces for `cores` cores.
    pub(crate) fn new(cores: usize) -> Self {
        DataSpaces {
            private: (0..cores).map(|_| ByteMemory::new()).collect(),
            shared: ByteMemory::new(),
            mpb: ByteMemory::new(),
        }
    }

    /// Loads a value, routing by address region.
    #[inline]
    pub(crate) fn load(&self, core: usize, addr: u64, kind: MemKind) -> Value {
        match MemorySystem::region_of(addr) {
            Region::Private => self.private[core].load(addr, kind),
            Region::SharedDram => self.shared.load(addr, kind),
            Region::Mpb => self.mpb.load(addr, kind),
        }
    }

    /// Stores a value, routing by address region.
    #[inline]
    pub(crate) fn store(&mut self, core: usize, addr: u64, kind: MemKind, v: Value) {
        match MemorySystem::region_of(addr) {
            Region::Private => self.private[core].store(addr, kind, v),
            Region::SharedDram => self.shared.store(addr, kind, v),
            Region::Mpb => self.mpb.store(addr, kind, v),
        }
    }

    /// The memory that holds `addr` for `core`.
    fn space(&self, core: usize, addr: u64) -> &ByteMemory {
        match MemorySystem::region_of(addr) {
            Region::Private => &self.private[core],
            Region::SharedDram => &self.shared,
            Region::Mpb => &self.mpb,
        }
    }

    fn space_mut(&mut self, core: usize, addr: u64) -> &mut ByteMemory {
        match MemorySystem::region_of(addr) {
            Region::Private => &mut self.private[core],
            Region::SharedDram => &mut self.shared,
            Region::Mpb => &mut self.mpb,
        }
    }

    /// Byte copy across cores' address spaces (the task runtime's DMA):
    /// `src_addr` is interpreted in `src_core`'s view, `dst_addr` in
    /// `dst_core`'s, byte by byte as if by a forward loop.
    ///
    /// The bytes move a page slice at a time through a fixed buffer, each
    /// slice inside one region on both sides. Where the two ranges overlap
    /// in one space the forward loop smears the source's head over its
    /// tail, and that is what happens there.
    ///
    /// # Panics
    ///
    /// Panics if either range runs past the end of the address space;
    /// callers bound what a program asks for first (`checked_transfer`).
    pub(crate) fn copy_cross(
        &mut self,
        src_core: usize,
        src_addr: u64,
        dst_core: usize,
        dst_addr: u64,
        bytes: usize,
    ) {
        let bytes = bytes as u64;
        let end = |addr: u64| {
            addr.checked_add(bytes)
                .expect("a range inside the address space")
        };
        let (lo, hi) = (src_addr.max(dst_addr), end(src_addr).min(end(dst_addr)));
        // Both ranges hold an address in the same memory: one outside the
        // private region, or any at all when both views are one core's.
        if lo < hi && (src_core == dst_core || hi > SHARED_DRAM_BASE) {
            for i in 0..bytes {
                let v = self.load(src_core, src_addr + i, MemKind::I8);
                self.store(dst_core, dst_addr + i, MemKind::I8, v);
            }
            return;
        }
        let mut buf = [0u8; COPY_CHUNK];
        let mut done = 0;
        while done < bytes {
            let (src, dst) = (src_addr + done, dst_addr + done);
            let n = (bytes - done)
                .min(COPY_CHUNK as u64)
                .min(region_end(src) - src)
                .min(region_end(dst) - dst);
            let chunk = &mut buf[..n as usize];
            self.space(src_core, src).read_bytes(src, chunk);
            self.space_mut(dst_core, dst).write_bytes(dst, chunk);
            done += n;
        }
    }

    /// Applies a program's load-time image to one core's private memory.
    pub(crate) fn load_image(&mut self, core: usize, image: &[(u64, Vec<u8>)]) {
        for (addr, bytes) in image {
            self.private[core].write_bytes(*addr, bytes);
        }
    }
}

/// One line of simulated program output.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputLine {
    /// Simulated time (core cycles) of the `printf`.
    pub at: u64,
    /// Core (RCCE) or thread (pthread) that printed.
    pub who: usize,
    /// Formatted text.
    pub text: String,
}

/// The result of one simulated program run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Makespan: the largest core/thread clock at completion.
    pub total_cycles: u64,
    /// The benchmark's own measurement: the widest `wtime()`-to-`wtime()`
    /// interval observed on any core (the paper's timestamping protocol);
    /// falls back to the makespan when the program takes fewer than two
    /// timestamps.
    pub timed_cycles: u64,
    /// Everything printed, in time order.
    pub output: Vec<OutputLine>,
    /// Exit value of the entry function per core/thread 0.
    pub exit_code: i64,
    /// Memory system statistics (chip-global aggregate).
    pub mem_stats: MemStats,
    /// Per-core × per-region counter matrix with latency histograms.
    pub stats_matrix: StatsMatrix,
    /// Peak bytes ever allocated in the MPB during the run.
    pub mpb_high_water: usize,
    /// Final local clock per core (RCCE mode) or busy cycles per thread
    /// (pthread mode) — the load-balance picture.
    pub per_unit_cycles: Vec<u64>,
    /// Bytecode instructions retired across all units — the numerator of
    /// the benchmark's `sim_mips` host-throughput metric. Deterministic,
    /// but not part of the simulated timing model.
    pub instructions: u64,
    /// Events the execution core performed: `Ran` slices, loads, stores,
    /// syscalls and finishes, one per VM resumption. How many of them a
    /// visit to the scheduler preceded is not part of the result.
    pub events: u64,
}

impl RunResult {
    /// All printed lines concatenated in time order.
    pub fn output_text(&self) -> String {
        self.output.iter().map(|l| l.text.as_str()).collect()
    }

    /// Printed lines sorted lexicographically — used for output
    /// equivalence between pthread and RCCE runs, whose interleavings
    /// differ.
    pub fn output_sorted(&self) -> Vec<String> {
        let text = self.output_text();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines.sort();
        lines
    }

    /// Simulated seconds at the given core frequency.
    pub fn seconds(&self, core_freq_mhz: u32) -> f64 {
        self.timed_cycles as f64 / (f64::from(core_freq_mhz) * 1e6)
    }

    /// Load imbalance: max over mean of the per-unit cycles (1.0 =
    /// perfectly balanced; Count Primes' block partition shows ~2).
    pub fn imbalance(&self) -> f64 {
        if self.per_unit_cycles.is_empty() {
            return 1.0;
        }
        let max = *self.per_unit_cycles.iter().max().expect("non-empty") as f64;
        let mean =
            self.per_unit_cycles.iter().sum::<u64>() as f64 / self.per_unit_cycles.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Tracks the `wtime()` bracketing per core/thread.
#[derive(Debug, Clone, Default)]
pub(crate) struct WtimeTracker {
    marks: Vec<Vec<u64>>,
}

impl WtimeTracker {
    /// Creates a tracker for `n` cores/threads.
    pub(crate) fn new(n: usize) -> Self {
        WtimeTracker {
            marks: vec![Vec::new(); n],
        }
    }

    /// Records a timestamp for `who` at `clock`.
    pub(crate) fn record(&mut self, who: usize, clock: u64) {
        self.marks[who].push(clock);
    }

    /// The widest first-to-last interval on any core, if any core took two
    /// or more timestamps.
    pub(crate) fn widest_interval(&self) -> Option<u64> {
        self.marks
            .iter()
            .filter(|m| m.len() >= 2)
            .map(|m| m.last().unwrap() - m.first().unwrap())
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sim::memory::{MPB_BASE, SHARED_DRAM_BASE};

    #[test]
    fn spaces_route_by_region() {
        let mut s = DataSpaces::new(2);
        s.store(0, 0x1000, MemKind::I32, Value::I(1));
        s.store(1, 0x1000, MemKind::I32, Value::I(2));
        // Private: per-core distinct.
        assert_eq!(s.load(0, 0x1000, MemKind::I32), Value::I(1));
        assert_eq!(s.load(1, 0x1000, MemKind::I32), Value::I(2));
        // Shared: visible to all.
        s.store(0, SHARED_DRAM_BASE, MemKind::I64, Value::I(99));
        assert_eq!(s.load(1, SHARED_DRAM_BASE, MemKind::I64), Value::I(99));
        // MPB: also globally visible.
        s.store(1, MPB_BASE + 8, MemKind::F64, Value::F(2.5));
        assert_eq!(s.load(0, MPB_BASE + 8, MemKind::F64), Value::F(2.5));
    }

    #[test]
    fn copy_cross_moves_across_regions() {
        let mut s = DataSpaces::new(1);
        s.store(0, 0x100, MemKind::I32, Value::I(0x0A0B0C0D));
        s.copy_cross(0, 0x100, 0, SHARED_DRAM_BASE, 4);
        assert_eq!(
            s.load(0, SHARED_DRAM_BASE, MemKind::I32),
            Value::I(0x0A0B0C0D)
        );
    }

    /// One side of a copy: a core and an address in its view.
    type Side = (usize, u64);

    impl DataSpaces {
        /// [`DataSpaces::copy_cross`] as it was before it moved page slices:
        /// one load and one store per byte.
        fn copy_cross_bytewise(&mut self, src: Side, dst: Side, bytes: u64) {
            for i in 0..bytes {
                let v = self.load(src.0, src.1 + i, MemKind::I8);
                self.store(dst.0, dst.1 + i, MemKind::I8, v);
            }
        }
    }

    #[test]
    fn page_slice_copies_equal_the_byte_loop() {
        const PAGE: u64 = 4096;
        let private = 0x1000_0000;
        #[rustfmt::skip]
        let cases: [(Side, Side, u64); 12] = [
            // Task DMA: the same private range, core 0 to core 1, across
            // three page boundaries.
            ((0, private - 70), (1, private - 70), 3 * PAGE + 140),
            ((0, private), (0, SHARED_DRAM_BASE + 5), 2 * PAGE),
            ((1, MPB_BASE + 17), (0, private + 3), 700),
            // A range that leaves its region, on either side.
            ((0, SHARED_DRAM_BASE - 100), (1, private), 300),
            ((0, private), (0, MPB_BASE - 50), 200),
            ((1, SHARED_DRAM_BASE - 20), (0, MPB_BASE - 30), PAGE),
            // Overlapping in one space: forward (the smear), backward, onto
            // itself, and the same private addresses of one core.
            ((0, SHARED_DRAM_BASE + 100), (1, SHARED_DRAM_BASE + 103), 2 * PAGE),
            ((1, MPB_BASE + 300), (0, MPB_BASE + 295), PAGE),
            ((0, SHARED_DRAM_BASE + 7), (1, SHARED_DRAM_BASE + 7), 5000),
            ((1, private + 40), (1, private + 41), 600),
            // Nothing to copy; one byte.
            ((0, private), (1, private), 0),
            ((1, SHARED_DRAM_BASE - 1), (0, MPB_BASE - 1), 1),
        ];
        for (src, dst, len) in cases {
            // Around both ranges, every space: filled in its first half, so
            // both written and never-written pages are copied.
            let windows = [src.1, dst.1].map(|at| (at.saturating_sub(PAGE), at + len + PAGE));
            let mut old = DataSpaces::new(2);
            for core in 0..2 {
                for &(lo, hi) in &windows {
                    for addr in lo..lo + (hi - lo) / 2 {
                        let v = Value::I((addr * 31 + core as u64) as i64 & 0xFF);
                        old.store(core, addr, MemKind::I8, v);
                    }
                }
            }
            let mut new = DataSpaces {
                private: old.private.clone(),
                shared: old.shared.clone(),
                mpb: old.mpb.clone(),
            };
            old.copy_cross_bytewise(src, dst, len);
            new.copy_cross(src.0, src.1, dst.0, dst.1, len as usize);
            let context = format!("{src:x?} -> {dst:x?}, {len} bytes");
            for core in 0..2 {
                for &(lo, hi) in &windows {
                    for addr in lo..hi {
                        let (o, n) = (
                            old.load(core, addr, MemKind::I8),
                            new.load(core, addr, MemKind::I8),
                        );
                        assert_eq!(o, n, "{context}: core {core} at {addr:#x}");
                    }
                }
            }
            let pages = |s: &DataSpaces| {
                let private: Vec<usize> =
                    s.private.iter().map(ByteMemory::resident_pages).collect();
                (private, s.shared.resident_pages(), s.mpb.resident_pages())
            };
            assert_eq!(pages(&old), pages(&new), "{context}: resident pages");
        }
    }

    #[test]
    fn a_transfer_is_refused_past_its_region_or_the_cap() {
        let private = 0x1000_0000;
        assert_eq!(checked_transfer("RCCE_put", private, 192), Ok(()));
        assert_eq!(
            checked_transfer("RCCE_put", MPB_BASE, MAX_TRANSFER_BYTES),
            Ok(())
        );
        assert_eq!(
            checked_transfer("RCCE_put", SHARED_DRAM_BASE - 8, 8),
            Ok(())
        );
        let refused = |call, addr, len| checked_transfer(call, addr, len).unwrap_err().message;
        assert_eq!(
            refused("task_spawn", private, 1 << 40),
            "`task_spawn` of 1099511627776 bytes exceeds the 16777216-byte transfer cap"
        );
        assert_eq!(
            refused("RCCE_recv", SHARED_DRAM_BASE - 8, 9),
            "`RCCE_recv` of 9 bytes at 0x7ffffff8 leaves its memory region"
        );
        assert_eq!(
            refused("RCCE_get", MPB_BASE - 1, 2),
            "`RCCE_get` of 2 bytes at 0xbfffffff leaves its memory region"
        );
        let top = u64::MAX - 100;
        assert!(refused("RCCE_send", top, 200).contains("leaves its memory region"));
    }

    #[test]
    fn wtime_tracker_widest() {
        let mut t = WtimeTracker::new(3);
        t.record(0, 100);
        t.record(0, 900);
        t.record(1, 50);
        t.record(1, 1500);
        t.record(2, 77); // only one mark: ignored
        assert_eq!(t.widest_interval(), Some(1450));
    }

    #[test]
    fn wtime_tracker_empty() {
        let t = WtimeTracker::new(2);
        assert_eq!(t.widest_interval(), None);
    }

    #[test]
    fn output_sorting_is_stable_across_interleavings() {
        let r = RunResult {
            total_cycles: 1,
            timed_cycles: 1,
            per_unit_cycles: vec![],
            output: vec![
                OutputLine {
                    at: 5,
                    who: 1,
                    text: "b\n".into(),
                },
                OutputLine {
                    at: 9,
                    who: 0,
                    text: "a\n".into(),
                },
            ],
            exit_code: 0,
            mem_stats: MemStats::default(),
            stats_matrix: StatsMatrix::default(),
            mpb_high_water: 0,
            instructions: 0,
            events: 0,
        };
        assert_eq!(r.output_sorted(), vec!["a", "b"]);
        assert_eq!(r.output_text(), "b\na\n");
    }
}
