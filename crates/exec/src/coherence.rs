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
//! Adding a model means implementing [`CoherenceModel`] (values, timing,
//! the flush point, and which part of the model is one unit's alone) and
//! wiring a new [`ExecModel`] variant through the `run_*_model` entry
//! points — no engine changes.

use crate::machine::{copy_between, DataSpaces};
use hsm_vm::data::ByteMemory;
use hsm_vm::{MemKind, Value};
use scc_sim::{CoreLane, MemorySystem, Region};
use std::collections::BTreeMap;

/// Selects the coherence model a run executes under: what value a load
/// observes. This is the public, plumbable axis: pipelines, sweeps and the
/// bench manifest carry an `ExecModel`, and the engine monomorphizes over
/// the matching model.
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
pub(crate) trait CoherenceModel {
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

    /// [`latency`](CoherenceModel::latency) for an access that stays on the
    /// tile of the core whose `lane` this is — a private address its own L1
    /// or L2 serves — and `None`, with nothing changed, for every other
    /// access.
    ///
    /// Such an access reads and writes nothing another core can observe
    /// (own cache hierarchy, own statistics row, own private bytes or
    /// write-back view) and costs the same whenever it happens, so the
    /// engine may let a core whose units run nowhere else perform it ahead
    /// of the global event order, and beside other cores doing the same on
    /// other host threads (see [`SyncModel`](crate::SyncModel)). A model
    /// whose private accesses leave the tile must answer `None`.
    #[inline]
    fn cached_latency(lane: &mut CoreLane<'_>, addr: u64, write: bool) -> Option<u64> {
        lane.access_cached(addr, write)
    }

    /// What of the model belongs to one unit alone: everything, besides
    /// the private bytes of the unit's core, that
    /// [`load_own`](CoherenceModel::load_own) and
    /// [`store_own`](CoherenceModel::store_own) touch.
    type Own<'a>: Send
    where
        Self: 'a;

    /// The own parts of units `0..units`, in unit order: disjoint, so
    /// different units' parts may go to different threads.
    fn own_parts(&mut self, units: usize) -> impl Iterator<Item = Self::Own<'_>>;

    /// The own part of `unit`.
    #[inline]
    fn own_part(&mut self, unit: usize) -> Self::Own<'_> {
        let mut parts = self.own_parts(unit + 1);
        parts.nth(unit).expect("one own part per unit")
    }

    /// [`load`](CoherenceModel::load) of a private address by the unit
    /// `own` belongs to, on the core `private` belongs to.
    #[inline]
    fn load_own(_own: &mut Self::Own<'_>, private: &ByteMemory, addr: u64, kind: MemKind) -> Value {
        private.load(addr, kind)
    }

    /// [`store`](CoherenceModel::store) to a private address by the unit
    /// `own` belongs to, on the core `private` belongs to.
    #[inline]
    fn store_own(
        _own: &mut Self::Own<'_>,
        private: &mut ByteMemory,
        addr: u64,
        kind: MemKind,
        v: Value,
    ) {
        private.store(addr, kind, v);
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
pub(crate) struct Coherent;

impl CoherenceModel for Coherent {
    type Own<'a> = ();

    fn own_parts(&mut self, units: usize) -> impl Iterator<Item = ()> {
        std::iter::repeat_n((), units)
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
pub(crate) struct SeqCstReference;

impl CoherenceModel for SeqCstReference {
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
    fn cached_latency(_lane: &mut CoreLane<'_>, _addr: u64, _write: bool) -> Option<u64> {
        None
    }

    type Own<'a> = ();

    fn own_parts(&mut self, units: usize) -> impl Iterator<Item = ()> {
        std::iter::repeat_n((), units)
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
pub(crate) struct NonCoherentWriteBack {
    line_bytes: u64,
    views: Vec<UnitView>,
}

/// One unit's write-back view of the private memory of the core it runs
/// on: the [`NonCoherentWriteBack`] model's part of a unit.
#[derive(Debug)]
pub(crate) struct UnitView {
    line_bytes: u64,
    /// The unit's copy of the private lines it has touched.
    bytes: ByteMemory,
    /// Per block of [`LINES_PER_BLOCK`] lines (a 4 KiB page at the SCC's
    /// 32-byte lines), which are resident in the view and which of those
    /// were modified since the unit's last flush.
    blocks: BTreeMap<u64, LineMasks>,
}

/// Lines one [`LineMasks`] covers, a bit each.
const LINES_PER_BLOCK: u64 = u128::BITS as u64;

#[derive(Debug, Clone, Copy, Default)]
struct LineMasks {
    resident: u128,
    dirty: u128,
}

impl UnitView {
    /// Fills every line the access `[addr, addr + size)` touches into the
    /// view (write-allocate: stores fill first, then modify), and marks
    /// them modified if `dirty`.
    fn touch(&mut self, private: &ByteMemory, addr: u64, size: u64, dirty: bool) {
        let (first, last) = (
            addr / self.line_bytes,
            (addr + size.max(1) - 1) / self.line_bytes,
        );
        for line in first..=last {
            let bit = 1u128 << (line % LINES_PER_BLOCK);
            let masks = self.blocks.entry(line / LINES_PER_BLOCK).or_default();
            if masks.resident & bit == 0 {
                masks.resident |= bit;
                let base = line * self.line_bytes;
                copy_between(private, &mut self.bytes, base, self.line_bytes);
            }
            if dirty {
                masks.dirty |= bit;
            }
        }
    }

    fn load(&mut self, private: &ByteMemory, addr: u64, kind: MemKind) -> Value {
        self.touch(private, addr, kind.bytes() as u64, false);
        self.bytes.load(addr, kind)
    }

    fn store(&mut self, private: &ByteMemory, addr: u64, kind: MemKind, v: Value) {
        self.touch(private, addr, kind.bytes() as u64, true);
        self.bytes.store(addr, kind, v);
    }

    /// Writes the modified lines back to `private` and drops every cached
    /// copy, so later loads refill from the backing store. Lines are
    /// disjoint, so the order they go back in does not matter; each run of
    /// adjacent modified lines goes back as one copy.
    fn flush(&mut self, private: &mut ByteMemory) {
        for (&block, masks) in &mut self.blocks {
            let mut dirty = std::mem::take(masks).dirty;
            while dirty != 0 {
                let first = dirty.trailing_zeros();
                let run = (dirty >> first).trailing_ones();
                dirty &= !((u128::MAX >> (u128::BITS - run)) << first);
                let line = block * LINES_PER_BLOCK + u64::from(first);
                let len = u64::from(run) * self.line_bytes;
                copy_between(&self.bytes, private, line * self.line_bytes, len);
            }
        }
    }
}

impl NonCoherentWriteBack {
    /// Creates the model for `line_bytes`-sized cache lines (the
    /// granularity at which staleness manifests).
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two.
    pub(crate) fn new(line_bytes: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        NonCoherentWriteBack {
            line_bytes: line_bytes as u64,
            views: Vec::new(),
        }
    }
}

impl CoherenceModel for NonCoherentWriteBack {
    type Own<'a> = &'a mut UnitView;

    fn own_parts(&mut self, units: usize) -> impl Iterator<Item = &mut UnitView> {
        let line_bytes = self.line_bytes;
        if self.views.len() < units {
            self.views.resize_with(units, || UnitView {
                line_bytes,
                bytes: ByteMemory::new(),
                blocks: BTreeMap::new(),
            });
        }
        self.views.iter_mut().take(units)
    }

    fn load_own(view: &mut &mut UnitView, private: &ByteMemory, addr: u64, kind: MemKind) -> Value {
        view.load(private, addr, kind)
    }

    fn store_own(
        view: &mut &mut UnitView,
        private: &mut ByteMemory,
        addr: u64,
        kind: MemKind,
        v: Value,
    ) {
        view.store(private, addr, kind, v);
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
        self.own_part(unit).load(&spaces.private[core], addr, kind)
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
        self.own_part(unit)
            .store(&spaces.private[core], addr, kind, v);
    }

    fn flush_unit(
        &mut self,
        unit: usize,
        core: usize,
        spaces: &mut DataSpaces,
        chip: &mut MemorySystem,
    ) {
        self.own_part(unit).flush(&mut spaces.private[core]);
        // Mirror the flush into the timing caches.
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

    /// [`UnitView`] as it was before line masks: sets of line addresses,
    /// and one load and one store per byte to fill or flush a line.
    struct BytewiseView {
        line_bytes: u64,
        bytes: ByteMemory,
        resident: std::collections::BTreeSet<u64>,
        dirty: std::collections::BTreeSet<u64>,
    }

    impl BytewiseView {
        fn lines(&self, addr: u64, size: u64) -> impl Iterator<Item = u64> {
            let mask = !(self.line_bytes - 1);
            let (first, last) = (addr & mask, (addr + size.max(1) - 1) & mask);
            (first..=last).step_by(self.line_bytes as usize)
        }

        fn make_resident(&mut self, private: &ByteMemory, addr: u64, size: u64) {
            for base in self.lines(addr, size) {
                if self.resident.insert(base) {
                    for i in 0..self.line_bytes {
                        let v = private.load(base + i, MemKind::I8);
                        self.bytes.store(base + i, MemKind::I8, v);
                    }
                }
            }
        }

        fn load(&mut self, private: &ByteMemory, addr: u64, kind: MemKind) -> Value {
            self.make_resident(private, addr, kind.bytes() as u64);
            self.bytes.load(addr, kind)
        }

        fn store(&mut self, private: &ByteMemory, addr: u64, kind: MemKind, v: Value) {
            let size = kind.bytes() as u64;
            self.make_resident(private, addr, size);
            self.bytes.store(addr, kind, v);
            let lines = self.lines(addr, size);
            self.dirty.extend(lines);
        }

        fn flush(&mut self, private: &mut ByteMemory) {
            for base in std::mem::take(&mut self.dirty) {
                for i in 0..self.line_bytes {
                    let v = self.bytes.load(base + i, MemKind::I8);
                    private.store(base + i, MemKind::I8, v);
                }
            }
            self.resident.clear();
        }
    }

    /// Two units' views over one private memory, against the bytewise
    /// views: random loads, stores and flushes, over lines that straddle
    /// pages, blocks of 128 lines, and each other, at three line sizes.
    #[test]
    fn line_masks_equal_the_bytewise_view() {
        const KINDS: [MemKind; 4] = [MemKind::I8, MemKind::I32, MemKind::I64, MemKind::F64];
        testkit::check("line_masks_vs_bytewise", 64, |rng| {
            let line_bytes = *rng.choose(&[8u64, 32, 64]);
            let (mut private, mut reference) = (ByteMemory::new(), ByteMemory::new());
            let mut views: Vec<UnitView> = (0..2)
                .map(|_| UnitView {
                    line_bytes,
                    bytes: ByteMemory::new(),
                    blocks: BTreeMap::new(),
                })
                .collect();
            let mut bytewise: Vec<BytewiseView> = (0..2)
                .map(|_| BytewiseView {
                    line_bytes,
                    bytes: ByteMemory::new(),
                    resident: Default::default(),
                    dirty: Default::default(),
                })
                .collect();
            // A window over a page boundary that is also a block boundary at
            // 32-byte lines, so accesses straddle lines, pages and blocks.
            let window = 0x1000_1000 - 600..0x1000_1000 + 600;
            for step in 0..400 {
                let unit = rng.gen_range_usize(0, 2);
                let addr = rng.gen_range_u64(window.start, window.end);
                let kind = *rng.choose(&KINDS);
                match rng.gen_range_usize(0, 10) {
                    0 => {
                        views[unit].flush(&mut private);
                        bytewise[unit].flush(&mut reference);
                    }
                    1..=4 => {
                        let v = Value::I(rng.gen_range_i64(-1000, 1000));
                        views[unit].store(&private, addr, kind, v);
                        bytewise[unit].store(&reference, addr, kind, v);
                    }
                    _ => {
                        let got = views[unit].load(&private, addr, kind);
                        let want = bytewise[unit].load(&reference, addr, kind);
                        assert_eq!(format!("{got:?}"), format!("{want:?}"), "step {step}");
                    }
                }
                if step % 50 == 49 {
                    let mut got = vec![0; 1200];
                    let mut want = vec![0; 1200];
                    private.read_bytes(window.start, &mut got);
                    reference.read_bytes(window.start, &mut want);
                    assert_eq!(got, want, "step {step}: private memory");
                }
            }
            assert_eq!(private.resident_pages(), reference.resident_pages());
        });
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
