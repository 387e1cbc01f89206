//! Shared machine state: data spaces, run results, and the execution error
//! type.

use hsm_vm::data::ByteMemory;
use hsm_vm::{MemKind, Value, VmError};
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

/// The data contents of the simulated machine (timing lives in
/// [`MemorySystem`]; bytes live here).
#[derive(Debug)]
pub struct DataSpaces {
    /// Per-core private memories (a single one in pthread mode).
    pub private: Vec<ByteMemory>,
    /// Shared off-chip DRAM contents.
    pub shared: ByteMemory,
    /// MPB contents.
    pub mpb: ByteMemory,
}

impl DataSpaces {
    /// Creates spaces for `cores` cores.
    pub fn new(cores: usize) -> Self {
        DataSpaces {
            private: (0..cores).map(|_| ByteMemory::new()).collect(),
            shared: ByteMemory::new(),
            mpb: ByteMemory::new(),
        }
    }

    /// Loads a value, routing by address region.
    #[inline]
    pub fn load(&self, core: usize, addr: u64, kind: MemKind) -> Value {
        match MemorySystem::region_of(addr) {
            Region::Private => self.private[core].load(addr, kind),
            Region::SharedDram => self.shared.load(addr, kind),
            Region::Mpb => self.mpb.load(addr, kind),
        }
    }

    /// Stores a value, routing by address region.
    #[inline]
    pub fn store(&mut self, core: usize, addr: u64, kind: MemKind, v: Value) {
        match MemorySystem::region_of(addr) {
            Region::Private => self.private[core].store(addr, kind, v),
            Region::SharedDram => self.shared.store(addr, kind, v),
            Region::Mpb => self.mpb.store(addr, kind, v),
        }
    }

    /// Reads a NUL-terminated string visible to `core`.
    pub fn read_cstr(&self, core: usize, addr: u64) -> String {
        match MemorySystem::region_of(addr) {
            Region::Private => self.private[core].read_cstr(addr),
            Region::SharedDram => self.shared.read_cstr(addr),
            Region::Mpb => self.mpb.read_cstr(addr),
        }
    }

    /// Raw byte copy between (possibly different) regions, as seen by
    /// `core` (used by `RCCE_put`/`RCCE_get`).
    pub fn copy_bytes(&mut self, core: usize, dst: u64, src: u64, bytes: usize) {
        for i in 0..bytes as u64 {
            let v = self.load(core, src + i, MemKind::I8);
            self.store(core, dst + i, MemKind::I8, v);
        }
    }

    /// Byte copy across cores' address spaces (the data movement of
    /// `RCCE_send`/`RCCE_recv`): `src_addr` is interpreted in `src_core`'s
    /// view, `dst_addr` in `dst_core`'s.
    pub fn copy_cross(
        &mut self,
        src_core: usize,
        src_addr: u64,
        dst_core: usize,
        dst_addr: u64,
        bytes: usize,
    ) {
        for i in 0..bytes as u64 {
            let v = self.load(src_core, src_addr + i, MemKind::I8);
            self.store(dst_core, dst_addr + i, MemKind::I8, v);
        }
    }

    /// Applies a program's load-time image to one core's private memory.
    pub fn load_image(&mut self, core: usize, image: &[(u64, Vec<u8>)]) {
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
pub struct WtimeTracker {
    marks: Vec<Vec<u64>>,
}

impl WtimeTracker {
    /// Creates a tracker for `n` cores/threads.
    pub fn new(n: usize) -> Self {
        WtimeTracker {
            marks: vec![Vec::new(); n],
        }
    }

    /// Records a timestamp for `who` at `clock`.
    pub fn record(&mut self, who: usize, clock: u64) {
        self.marks[who].push(clock);
    }

    /// The widest first-to-last interval on any core, if any core took two
    /// or more timestamps.
    pub fn widest_interval(&self) -> Option<u64> {
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
    fn copy_bytes_moves_across_regions() {
        let mut s = DataSpaces::new(1);
        s.store(0, 0x100, MemKind::I32, Value::I(0x0A0B0C0D));
        s.copy_bytes(0, SHARED_DRAM_BASE, 0x100, 4);
        assert_eq!(
            s.load(0, SHARED_DRAM_BASE, MemKind::I32),
            Value::I(0x0A0B0C0D)
        );
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
