//! Pluggable coherence models: how a load's *value* resolves against the
//! simulated memory, independently of the synchronization semantics.
//!
//! The paper's entire argument turns on this axis. The SCC's hardware
//! provides no coherence for shared pages; software either avoids caching
//! shared data (the translated RCCE programs) or silently reads stale
//! lines (a naively ported pthread program). Historically the simulator
//! could only *flag* such staleness through the sharing oracle; a
//! [`CoherenceModel`] makes it part of execution, so a program running
//! under [`NonCoherentWriteBack`] really does observe stale values and
//! produce wrong output.
//!
//! Three models ship:
//!
//! | Model                    | Values                       | Timing              |
//! |--------------------------|------------------------------|---------------------|
//! | [`Coherent`]             | backing store, always fresh  | caches + mesh + MC  |
//! | [`NonCoherentWriteBack`] | per-unit write-back views    | caches + mesh + MC  |
//! | [`SeqCstReference`]      | backing store, always fresh  | flat, no caches     |
//!
//! Adding a model means implementing [`CoherenceModel`] (five methods,
//! three with defaults) and wiring a new [`ExecModel`] variant through the
//! `run_*_model` entry points — no engine changes.

use crate::machine::DataSpaces;
use hsm_vm::data::ByteMemory;
use hsm_vm::{MemKind, Value};
use scc_sim::{MemorySystem, Region};
use std::collections::BTreeSet;

/// Selects which [`CoherenceModel`] a run executes under. This is the
/// public, plumbable axis: pipelines, sweeps and the bench manifest carry
/// an `ExecModel`, and the engine monomorphizes over the matching model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecModel {
    /// Ground truth: every load sees the latest store (the behavior of
    /// all runs before models existed). Produces the golden numbers.
    #[default]
    Coherent,
    /// Private lines go stale: each thread/core keeps a write-back view
    /// of cacheable memory that is reconciled only at explicit flush
    /// points (RCCE barriers). Un-translated pthread programs never
    /// flush, so cross-thread sharing through private memory reads stale
    /// data — the hardware the paper ports *away from*.
    NonCoherentWriteBack,
    /// Differential-testing reference: sequentially consistent values on
    /// a flat, cacheless timing model. Any value divergence between this
    /// and [`ExecModel::Coherent`] is an engine bug, not a memory effect.
    SeqCstReference,
}

impl ExecModel {
    /// All models, in documentation order.
    pub const ALL: [ExecModel; 3] = [
        ExecModel::Coherent,
        ExecModel::NonCoherentWriteBack,
        ExecModel::SeqCstReference,
    ];

    /// Stable machine-readable name (manifest field, CLI value).
    pub fn label(self) -> &'static str {
        match self {
            ExecModel::Coherent => "coherent",
            ExecModel::NonCoherentWriteBack => "non_coherent_wb",
            ExecModel::SeqCstReference => "seq_cst_ref",
        }
    }

    /// Parses a [`ExecModel::label`] back into a model.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.label() == s)
    }
}

/// How memory accesses resolve: the value a load returns, the latency an
/// access costs, and what happens at an explicit flush point.
///
/// The engine calls [`latency`](CoherenceModel::latency) once per VM
/// load/store (the timing half) and [`load`](CoherenceModel::load) /
/// [`store`](CoherenceModel::store) for *every* byte of simulated data
/// movement — including syscall-side traffic such as `pthread_create`
/// writing the thread handle, `RCCE_put` payload copies, and `printf`
/// resolving its format string. Routing the syscall side through the
/// model is what lets staleness corrupt observable output rather than
/// just timing.
pub trait CoherenceModel {
    /// Stable name for diagnostics.
    fn label(&self) -> &'static str;

    /// Cycles one access by `core` costs at simulated time `now`.
    fn latency(
        &mut self,
        chip: &mut MemorySystem,
        core: usize,
        addr: u64,
        write: bool,
        now: u64,
    ) -> u64 {
        chip.access(core, addr, write, now)
    }

    /// [`latency`](CoherenceModel::latency) for an access that stays on
    /// `core`'s tile — a private address its own L1 or L2 serves — and
    /// `None`, with nothing changed, for every other access.
    ///
    /// Such an access reads and writes nothing another core can observe
    /// (own cache hierarchy, own statistics row, own private bytes or
    /// write-back view) and costs the same whenever it happens, so the
    /// engine may let a core whose units run nowhere else perform it ahead
    /// of the global event order (see [`SyncModel`](crate::SyncModel)). A
    /// model whose private accesses leave the tile must answer `None`.
    fn cached_latency(
        &mut self,
        chip: &mut MemorySystem,
        core: usize,
        addr: u64,
        write: bool,
    ) -> Option<u64> {
        chip.access_cached(core, addr, write)
    }

    /// The value `unit` (scheduled on `core`) observes at `addr`.
    fn load(
        &mut self,
        unit: usize,
        core: usize,
        addr: u64,
        kind: MemKind,
        spaces: &DataSpaces,
    ) -> Value;

    /// Applies a store by `unit` (scheduled on `core`).
    fn store(
        &mut self,
        unit: usize,
        core: usize,
        addr: u64,
        kind: MemKind,
        v: Value,
        spaces: &mut DataSpaces,
    );

    /// Software-managed coherence point: write `unit`'s modified lines
    /// back and drop its cached copies. Called by sync models at their
    /// flush semantics (RCCE barriers); a no-op for models whose loads
    /// are always fresh.
    fn flush_unit(
        &mut self,
        _unit: usize,
        _core: usize,
        _spaces: &mut DataSpaces,
        _chip: &mut MemorySystem,
    ) {
    }
}

/// Ground-truth model: values come straight from the backing store,
/// timing from the normal cache/mesh/DRAM path. Byte-identical to the
/// pre-model engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct Coherent;

impl CoherenceModel for Coherent {
    fn label(&self) -> &'static str {
        ExecModel::Coherent.label()
    }

    // The golden-path model is a zero-sized pass-through: `#[inline]` lets
    // the monomorphized engine collapse a coherent load/store into a
    // direct `DataSpaces` access with no model-layer frame.
    #[inline]
    fn load(
        &mut self,
        _unit: usize,
        core: usize,
        addr: u64,
        kind: MemKind,
        spaces: &DataSpaces,
    ) -> Value {
        spaces.load(core, addr, kind)
    }

    #[inline]
    fn store(
        &mut self,
        _unit: usize,
        core: usize,
        addr: u64,
        kind: MemKind,
        v: Value,
        spaces: &mut DataSpaces,
    ) {
        spaces.store(core, addr, kind, v);
    }
}

/// Sequentially consistent values on a flat, cacheless machine (see
/// [`MemorySystem::access_flat`]). The reference arm of differential
/// tests: no caches means nothing can go stale, so output and exit codes
/// must match [`Coherent`] exactly; only timing differs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqCstReference;

impl CoherenceModel for SeqCstReference {
    fn label(&self) -> &'static str {
        ExecModel::SeqCstReference.label()
    }

    fn latency(
        &mut self,
        chip: &mut MemorySystem,
        core: usize,
        addr: u64,
        write: bool,
        now: u64,
    ) -> u64 {
        chip.access_flat(core, addr, write, now)
    }

    // Flat timing: a private access queues at a memory controller.
    fn cached_latency(
        &mut self,
        _chip: &mut MemorySystem,
        _core: usize,
        _addr: u64,
        _write: bool,
    ) -> Option<u64> {
        None
    }

    fn load(
        &mut self,
        _unit: usize,
        core: usize,
        addr: u64,
        kind: MemKind,
        spaces: &DataSpaces,
    ) -> Value {
        spaces.load(core, addr, kind)
    }

    fn store(
        &mut self,
        _unit: usize,
        core: usize,
        addr: u64,
        kind: MemKind,
        v: Value,
        spaces: &mut DataSpaces,
    ) {
        spaces.store(core, addr, kind, v);
    }
}

/// Write-back caches with **no coherence**, at value level: each unit
/// keeps its own view of cacheable (private-region) memory, filled line
/// by line from the backing store on first touch and written back only
/// at an explicit [`flush_unit`](CoherenceModel::flush_unit).
///
/// * A load that hits a resident line returns the view's copy — however
///   stale it is.
/// * A store dirties the line in the unit's view; the backing store (and
///   therefore every other unit) does not see it until a flush.
/// * Shared-DRAM and MPB addresses bypass the views entirely, exactly as
///   the SCC's uncacheable shared pages bypass the L1/L2.
///
/// Translated RCCE programs keep shared data in uncacheable regions and
/// flush at barriers, so they stay correct under this model. Pthread
/// programs sharing globals through private memory — the adversarial
/// corpus — observably break, which is the paper's motivation made
/// executable.
#[derive(Debug, Default)]
pub struct NonCoherentWriteBack {
    line_bytes: u64,
    /// Per-unit copy of the private lines the unit has touched.
    views: Vec<ByteMemory>,
    /// Line base addresses resident in each unit's view (`BTreeSet` so
    /// flush order, and thus the run, is deterministic).
    resident: Vec<BTreeSet<u64>>,
    /// Line base addresses modified since the unit's last flush.
    dirty: Vec<BTreeSet<u64>>,
}

impl NonCoherentWriteBack {
    /// Creates the model for `line_bytes`-sized cache lines (the
    /// granularity at which staleness manifests).
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two.
    pub fn new(line_bytes: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        NonCoherentWriteBack {
            line_bytes: line_bytes as u64,
            views: Vec::new(),
            resident: Vec::new(),
            dirty: Vec::new(),
        }
    }

    fn ensure_unit(&mut self, unit: usize) {
        while self.views.len() <= unit {
            self.views.push(ByteMemory::new());
            self.resident.push(BTreeSet::new());
            self.dirty.push(BTreeSet::new());
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    /// Fills every line the access `[addr, addr + size)` touches into
    /// `unit`'s view (write-allocate: stores fill first, then modify).
    fn make_resident(
        &mut self,
        unit: usize,
        core: usize,
        addr: u64,
        size: u64,
        spaces: &DataSpaces,
    ) {
        let first = self.line_of(addr);
        let last = self.line_of(addr + size.max(1) - 1);
        let mut base = first;
        loop {
            if self.resident[unit].insert(base) {
                for i in 0..self.line_bytes {
                    let v = spaces.load(core, base + i, MemKind::I8);
                    self.views[unit].store(base + i, MemKind::I8, v);
                }
            }
            if base == last {
                break;
            }
            base += self.line_bytes;
        }
    }
}

impl CoherenceModel for NonCoherentWriteBack {
    fn label(&self) -> &'static str {
        ExecModel::NonCoherentWriteBack.label()
    }

    fn load(
        &mut self,
        unit: usize,
        core: usize,
        addr: u64,
        kind: MemKind,
        spaces: &DataSpaces,
    ) -> Value {
        if MemorySystem::region_of(addr) != Region::Private {
            return spaces.load(core, addr, kind);
        }
        self.ensure_unit(unit);
        self.make_resident(unit, core, addr, kind.bytes() as u64, spaces);
        self.views[unit].load(addr, kind)
    }

    fn store(
        &mut self,
        unit: usize,
        core: usize,
        addr: u64,
        kind: MemKind,
        v: Value,
        spaces: &mut DataSpaces,
    ) {
        if MemorySystem::region_of(addr) != Region::Private {
            spaces.store(core, addr, kind, v);
            return;
        }
        self.ensure_unit(unit);
        let size = kind.bytes() as u64;
        self.make_resident(unit, core, addr, size, spaces);
        self.views[unit].store(addr, kind, v);
        let first = self.line_of(addr);
        let last = self.line_of(addr + size.max(1) - 1);
        let mut base = first;
        loop {
            self.dirty[unit].insert(base);
            if base == last {
                break;
            }
            base += self.line_bytes;
        }
    }

    fn flush_unit(
        &mut self,
        unit: usize,
        core: usize,
        spaces: &mut DataSpaces,
        chip: &mut MemorySystem,
    ) {
        self.ensure_unit(unit);
        let dirty = std::mem::take(&mut self.dirty[unit]);
        for base in dirty {
            for i in 0..self.line_bytes {
                let v = self.views[unit].load(base + i, MemKind::I8);
                spaces.store(core, base + i, MemKind::I8, v);
            }
        }
        // Drop the cached copies so post-flush loads refill from the
        // backing store, and mirror the flush into the timing caches.
        self.resident[unit].clear();
        chip.flush_core(core);
        chip.invalidate_core(core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sim::memory::SHARED_DRAM_BASE;
    use scc_sim::SccConfig;

    #[test]
    fn exec_model_labels_round_trip() {
        for m in ExecModel::ALL {
            assert_eq!(ExecModel::parse(m.label()), Some(m));
        }
        assert_eq!(ExecModel::parse("mesi"), None);
        assert_eq!(ExecModel::default(), ExecModel::Coherent);
    }

    #[test]
    fn non_coherent_views_hide_cross_unit_stores() {
        let mut spaces = DataSpaces::new(1);
        let mut m = NonCoherentWriteBack::new(32);
        // Unit 0 reads addr 0x100 (fills its line), then unit 1 writes it.
        assert_eq!(m.load(0, 0, 0x100, MemKind::I32, &spaces), Value::I(0));
        m.store(1, 0, 0x100, MemKind::I32, Value::I(7), &mut spaces);
        // Unit 0 still sees its stale fill; the backing store is untouched
        // too (write-back, not write-through).
        assert_eq!(m.load(0, 0, 0x100, MemKind::I32, &spaces), Value::I(0));
        assert_eq!(spaces.load(0, 0x100, MemKind::I32), Value::I(0));
        // Unit 1 sees its own store.
        assert_eq!(m.load(1, 0, 0x100, MemKind::I32, &spaces), Value::I(7));
    }

    #[test]
    fn flush_publishes_and_refills() {
        let mut spaces = DataSpaces::new(1);
        let mut chip = MemorySystem::new(SccConfig::table_6_1());
        let mut m = NonCoherentWriteBack::new(32);
        m.load(0, 0, 0x100, MemKind::I32, &spaces); // stale fill of zero
        m.store(1, 0, 0x100, MemKind::I32, Value::I(7), &mut spaces);
        m.flush_unit(1, 0, &mut spaces, &mut chip);
        assert_eq!(spaces.load(0, 0x100, MemKind::I32), Value::I(7));
        // Unit 0's copy is still the stale pre-flush fill until *it*
        // flushes (or first touches the line after its own flush).
        assert_eq!(m.load(0, 0, 0x100, MemKind::I32, &spaces), Value::I(0));
        m.flush_unit(0, 0, &mut spaces, &mut chip);
        assert_eq!(m.load(0, 0, 0x100, MemKind::I32, &spaces), Value::I(7));
    }

    #[test]
    fn shared_regions_bypass_the_views() {
        let mut spaces = DataSpaces::new(1);
        let mut m = NonCoherentWriteBack::new(32);
        m.store(
            0,
            0,
            SHARED_DRAM_BASE,
            MemKind::I64,
            Value::I(9),
            &mut spaces,
        );
        assert_eq!(
            m.load(1, 0, SHARED_DRAM_BASE, MemKind::I64, &spaces),
            Value::I(9),
            "uncacheable shared DRAM is immediately visible to every unit"
        );
    }

    #[test]
    fn straddling_store_dirties_both_lines() {
        let mut spaces = DataSpaces::new(1);
        let mut chip = MemorySystem::new(SccConfig::table_6_1());
        let mut m = NonCoherentWriteBack::new(32);
        // An 8-byte store at 0x11C crosses the 0x100/0x120 line boundary.
        m.store(0, 0, 0x11C, MemKind::I64, Value::I(-1), &mut spaces);
        m.flush_unit(0, 0, &mut spaces, &mut chip);
        assert_eq!(spaces.load(0, 0x11C, MemKind::I64), Value::I(-1));
    }
}
