//! The sharing-soundness oracle: a dynamic checker for Stages 1–3.
//!
//! The paper's translation is only correct if the static analyses
//! classify every variable's sharing status *soundly*: a variable marked
//! private lands in per-core non-coherent memory, so a missed sharing
//! relationship silently reads stale data on the SCC. This module turns
//! that soundness claim into a runtime check. The [`Oracle`] is a
//! [`TraceSink`]: it consumes the memory-access stream and the
//! synchronization stream of a run, resolves every address back to the
//! analyzed variable it belongs to (via the compiled program's layout),
//! and compares what actually happened against the
//! [`ClassificationManifest`] the analysis produced.
//!
//! Three violation classes are reported:
//!
//! * [`ViolationClass::Unsoundness`] — a unit other than the owner
//!   touched data whose verdict is *private*. On the real chip the
//!   translated program would give that unit its own unrelated copy.
//! * [`ViolationClass::StaleRead`] — a read of private-classified data
//!   whose cache line was last written by another unit with no
//!   happens-before edge in between: the non-coherent private cache would
//!   serve the stale line.
//! * [`ViolationClass::DataRace`] — two units accessed the same address
//!   without ordering and at least one access was a write. Detected with
//!   vector clocks over the sync-event stream (create/join, lock
//!   hand-offs, barrier epochs, message rendezvous), independent of any
//!   verdict.
//!
//! The oracle runs in two modes. [`OracleMode::Pthread`] checks the
//! baseline execution, where all threads share one address space — this
//! is where verdicts are validated against ground-truth thread semantics.
//! [`OracleMode::Rcce`] checks a translated run: private addresses are
//! physically distinct per core there (misclassification is no longer
//! *observable* as a cross-core touch, which is exactly why the pthread
//! baseline is the validation vehicle), so only shared regions are
//! race-checked, validating the translator's synchronization insertion.

use crate::trace::{SyncEvent, TraceEvent, TraceSink};
use hsm_analysis::ClassificationManifest;
use hsm_analysis::SharingStatus;
use hsm_vm::{FrameVar, Program, GLOBALS_BASE, HEAP_BASE, STACKS_BASE, STACK_SIZE};
use scc_sim::{line_index, Region};
use std::collections::{HashMap, HashSet};

/// Which execution engine the oracle is observing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// The pthread baseline: one address space, units are thread ids.
    Pthread,
    /// A translated RCCE run: units are cores; the private region is
    /// per-core physical memory, so only shared regions are checked.
    Rcce,
}

/// The class of a detected violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationClass {
    /// A non-owner unit touched private-classified data.
    Unsoundness,
    /// A read of private-classified data served from a line last written
    /// by another unit with no intervening happens-before edge.
    StaleRead,
    /// Conflicting unsynchronized accesses (at least one write).
    DataRace,
}

impl ViolationClass {
    /// Stable lower-snake-case label used in JSON renderings.
    pub fn label(self) -> &'static str {
        match self {
            ViolationClass::Unsoundness => "unsoundness",
            ViolationClass::StaleRead => "stale_read",
            ViolationClass::DataRace => "data_race",
        }
    }
}

/// One detected violation (deduplicated per class × variable × unit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violation class.
    pub class: ViolationClass,
    /// The unit whose access triggered the report.
    pub unit: usize,
    /// The other party: the owner (unsoundness), the last writer (stale
    /// read) or the conflicting unit (data race), when known.
    pub other: Option<usize>,
    /// The accessed address.
    pub addr: u64,
    /// The resolved variable name, when the address maps to one.
    pub variable: Option<String>,
    /// Whether the triggering access was a write.
    pub write: bool,
    /// The triggering access's cycle stamp.
    pub cycle: u64,
}

/// The oracle's summary of one run.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Deduplicated violations in detection order.
    pub violations: Vec<Violation>,
    /// Memory accesses observed.
    pub data_accesses: u64,
    /// Synchronization events observed.
    pub sync_events: u64,
}

impl OracleReport {
    /// True when no violation of any class was detected.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of violations of `class`.
    pub fn count(&self, class: ViolationClass) -> usize {
        self.violations.iter().filter(|v| v.class == class).count()
    }

    /// The distinct violation classes present, in severity order.
    pub fn classes(&self) -> Vec<ViolationClass> {
        let mut cs: Vec<ViolationClass> = self.violations.iter().map(|v| v.class).collect();
        cs.sort();
        cs.dedup();
        cs
    }
}

/// A grow-on-demand vector clock.
#[derive(Debug, Clone, Default)]
struct VClock(Vec<u64>);

impl VClock {
    fn get(&self, u: usize) -> u64 {
        self.0.get(u).copied().unwrap_or(0)
    }

    fn set(&mut self, u: usize, v: u64) {
        if self.0.len() <= u {
            self.0.resize(u + 1, 0);
        }
        self.0[u] = v;
    }

    fn inc(&mut self, u: usize) {
        self.set(u, self.get(u) + 1);
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if v > self.0[i] {
                self.0[i] = v;
            }
        }
    }
}

/// Per-address access history for race detection: the last write epoch
/// and one read epoch per reading unit.
#[derive(Debug, Clone, Default)]
struct Loc {
    write: Option<(usize, u64)>,
    reads: Vec<(usize, u64)>,
}

/// The dynamic sharing-soundness checker. Implements [`TraceSink`]; hand
/// it to [`run`](crate::run) as the sink and call [`Oracle::finish`]
/// afterwards.
#[derive(Debug)]
pub struct Oracle {
    mode: OracleMode,
    line_bytes: usize,
    manifest: ClassificationManifest,
    /// Global variables as (start, end, name), sorted by start.
    globals: Vec<(u64, u64, String)>,
    /// Per-function (name, frame_mem, frame layout), indexed like
    /// `Program::funcs`.
    funcs: Vec<(String, u32, Vec<FrameVar>)>,
    /// Root function index of each unit (set by `ThreadStart` in pthread
    /// mode; every core runs the entry function in RCCE mode).
    unit_roots: Vec<u32>,
    entry: u32,
    /// One vector clock per unit.
    clocks: Vec<VClock>,
    /// Lock-identity -> clock of its last release.
    lock_clocks: HashMap<u64, VClock>,
    /// Barrier epoch -> accumulated arrival clock.
    barrier_acc: HashMap<u64, VClock>,
    /// Private-region cache line -> (last writer unit, epoch, cycle).
    line_writers: HashMap<u64, (usize, u64, u64)>,
    /// Address -> race-detection history.
    locs: HashMap<u64, Loc>,
    /// First unit to touch each private-classified non-stack variable
    /// (its de-facto owner in the baseline run).
    first_toucher: HashMap<String, usize>,
    /// Dedup keys already reported: (class, variable-or-line key, unit).
    seen: HashSet<(ViolationClass, String, usize)>,
    report: OracleReport,
}

impl Oracle {
    /// Builds an oracle for one run of `program` against `manifest`.
    /// `line_bytes` is the simulated cache-line size (the granularity of
    /// the stale-read rule); pass the chip config's `line_bytes`.
    pub fn new(
        program: &Program,
        manifest: ClassificationManifest,
        mode: OracleMode,
        line_bytes: usize,
    ) -> Self {
        let mut globals: Vec<(u64, u64, String)> = program
            .globals
            .iter()
            .map(|g| (g.addr, g.addr + g.storage.max(1) as u64, g.name.clone()))
            .collect();
        globals.sort_by_key(|g| g.0);
        let funcs = program
            .funcs
            .iter()
            .map(|f| (f.name.clone(), f.frame_mem, f.frame_vars.clone()))
            .collect();
        Oracle {
            mode,
            line_bytes: line_bytes.max(1),
            manifest,
            globals,
            funcs,
            unit_roots: vec![program.entry],
            entry: program.entry,
            clocks: Vec::new(),
            lock_clocks: HashMap::new(),
            barrier_acc: HashMap::new(),
            line_writers: HashMap::new(),
            locs: HashMap::new(),
            first_toucher: HashMap::new(),
            seen: HashSet::new(),
            report: OracleReport::default(),
        }
    }

    /// Consumes the oracle and returns its report.
    pub fn finish(self) -> OracleReport {
        self.report
    }

    fn ensure_unit(&mut self, u: usize) {
        while self.clocks.len() <= u {
            let fresh = self.clocks.len();
            let mut vc = VClock::default();
            // Own components start at 1 so two units with untouched
            // clocks are *not* ordered against each other.
            vc.set(fresh, 1);
            self.clocks.push(vc);
        }
        while self.unit_roots.len() <= u {
            self.unit_roots.push(self.entry);
        }
    }

    /// Resolves `addr` to `(variable name, owning function)`:
    /// globals by address range, entry-frame locals by stack layout.
    fn resolve(&self, addr: u64) -> Option<(String, Option<String>)> {
        if (GLOBALS_BASE..STACKS_BASE).contains(&addr) {
            let i = self.globals.partition_point(|g| g.0 <= addr);
            let g = &self.globals[i.checked_sub(1)?];
            return (addr < g.1).then(|| (g.2.clone(), None));
        }
        if (STACKS_BASE..HEAP_BASE).contains(&addr) {
            let su = ((addr - STACKS_BASE) / STACK_SIZE) as usize;
            let off = (addr - STACKS_BASE) % STACK_SIZE;
            let root = *self.unit_roots.get(su)? as usize;
            let (fname, frame_mem, vars) = self.funcs.get(root)?;
            // Only the unit's root frame sits at a known offset; nested
            // frames are race-checked by address but stay anonymous.
            if off < u64::from(*frame_mem) {
                let v = vars
                    .iter()
                    .rev()
                    .find(|v| off >= u64::from(v.offset) && off < u64::from(v.offset + v.size))?;
                return Some((v.name.clone(), Some(fname.clone())));
            }
        }
        None
    }

    /// The stack unit owning `addr`, when it is a stack address.
    fn stack_owner(addr: u64) -> Option<usize> {
        (STACKS_BASE..HEAP_BASE)
            .contains(&addr)
            .then(|| ((addr - STACKS_BASE) / STACK_SIZE) as usize)
    }

    fn push(&mut self, v: Violation) {
        let key = (
            v.class,
            v.variable
                .clone()
                .unwrap_or_else(|| format!("@line:{}", line_index(v.addr, self.line_bytes))),
            v.unit,
        );
        if self.seen.insert(key) {
            self.report.violations.push(v);
        }
    }

    /// Whether `(unit, epoch)` happens-before the current access of the
    /// unit whose clock is `c`.
    fn ordered(c: &VClock, unit: usize, epoch: u64) -> bool {
        epoch <= c.get(unit)
    }

    fn check_race(&mut self, ev: &TraceEvent, variable: &Option<String>) {
        let c = self.clocks[ev.unit].clone();
        let epoch = c.get(ev.unit);
        let loc = self.locs.entry(ev.addr).or_default();
        let mut conflict: Option<usize> = None;
        if let Some((wu, we)) = loc.write {
            if wu != ev.unit && !Self::ordered(&c, wu, we) {
                conflict = Some(wu);
            }
        }
        if ev.write {
            for &(ru, re) in &loc.reads {
                if ru != ev.unit && !Self::ordered(&c, ru, re) {
                    conflict = Some(ru);
                    break;
                }
            }
            loc.write = Some((ev.unit, epoch));
            loc.reads.clear();
        } else {
            match loc.reads.iter_mut().find(|(ru, _)| *ru == ev.unit) {
                Some(r) => r.1 = epoch,
                None => loc.reads.push((ev.unit, epoch)),
            }
        }
        if let Some(other) = conflict {
            self.push(Violation {
                class: ViolationClass::DataRace,
                unit: ev.unit,
                other: Some(other),
                addr: ev.addr,
                variable: variable.clone(),
                write: ev.write,
                cycle: ev.cycle,
            });
        }
    }

    /// Verdict checks (unsoundness, stale read) for one pthread-mode
    /// access to a private-region address.
    fn check_verdict(&mut self, ev: &TraceEvent, name: &str, owner_fn: Option<&str>) {
        let Some(verdict) = self.manifest.verdict_of(name, owner_fn) else {
            return;
        };
        if verdict != SharingStatus::Private {
            return;
        }
        let owner = match Self::stack_owner(ev.addr) {
            Some(su) => su,
            None => *self
                .first_toucher
                .entry(name.to_string())
                .or_insert(ev.unit),
        };
        let line = line_index(ev.addr, self.line_bytes);
        if !ev.write {
            if let Some(&(wu, we, _)) = self.line_writers.get(&line) {
                if wu != ev.unit && !Self::ordered(&self.clocks[ev.unit], wu, we) {
                    self.push(Violation {
                        class: ViolationClass::StaleRead,
                        unit: ev.unit,
                        other: Some(wu),
                        addr: ev.addr,
                        variable: Some(name.to_string()),
                        write: false,
                        cycle: ev.cycle,
                    });
                    return;
                }
            }
        }
        if ev.unit != owner {
            self.push(Violation {
                class: ViolationClass::Unsoundness,
                unit: ev.unit,
                other: Some(owner),
                addr: ev.addr,
                variable: Some(name.to_string()),
                write: ev.write,
                cycle: ev.cycle,
            });
        }
    }
}

impl TraceSink for Oracle {
    fn record(&mut self, ev: TraceEvent) {
        self.report.data_accesses += 1;
        self.ensure_unit(ev.unit);
        match self.mode {
            OracleMode::Pthread => {
                let resolved = self.resolve(ev.addr);
                if let Some((name, owner_fn)) = &resolved {
                    self.check_verdict(&ev, name, owner_fn.as_deref());
                }
                let variable = resolved.map(|(n, _)| n);
                self.check_race(&ev, &variable);
                if ev.write && ev.region.is_cacheable() {
                    let epoch = self.clocks[ev.unit].get(ev.unit);
                    self.line_writers.insert(
                        line_index(ev.addr, self.line_bytes),
                        (ev.unit, epoch, ev.cycle),
                    );
                }
            }
            OracleMode::Rcce => {
                // Private memory is physically per-core in a translated
                // run: same address, different storage. Only the shared
                // regions can carry cross-core conflicts.
                if ev.region != Region::Private {
                    self.check_race(&ev, &None);
                }
            }
        }
    }

    fn sync(&mut self, ev: SyncEvent) {
        self.report.sync_events += 1;
        match ev {
            SyncEvent::ThreadStart {
                parent, unit, func, ..
            } => {
                self.ensure_unit(parent.max(unit));
                let parent_vc = self.clocks[parent].clone();
                self.clocks[unit].join(&parent_vc);
                self.clocks[parent].inc(parent);
                self.unit_roots[unit] = func;
            }
            SyncEvent::ThreadJoin { unit, target, .. } => {
                self.ensure_unit(unit.max(target));
                let target_vc = self.clocks[target].clone();
                self.clocks[unit].join(&target_vc);
            }
            SyncEvent::LockAcquire { unit, lock, .. } => {
                self.ensure_unit(unit);
                if let Some(lc) = self.lock_clocks.get(&lock) {
                    let lc = lc.clone();
                    self.clocks[unit].join(&lc);
                }
            }
            SyncEvent::LockRelease { unit, lock, .. } => {
                self.ensure_unit(unit);
                let vc = self.clocks[unit].clone();
                self.lock_clocks.entry(lock).or_default().join(&vc);
                self.clocks[unit].inc(unit);
            }
            SyncEvent::BarrierArrive { unit, epoch, .. } => {
                self.ensure_unit(unit);
                let vc = self.clocks[unit].clone();
                self.barrier_acc.entry(epoch).or_default().join(&vc);
            }
            SyncEvent::BarrierRelease { unit, epoch, .. } => {
                self.ensure_unit(unit);
                if let Some(acc) = self.barrier_acc.get(&epoch) {
                    let acc = acc.clone();
                    self.clocks[unit].join(&acc);
                }
                self.clocks[unit].inc(unit);
            }
            SyncEvent::Message { from, to, .. } => {
                self.ensure_unit(from.max(to));
                let from_vc = self.clocks[from].clone();
                self.clocks[to].join(&from_vc);
                self.clocks[from].inc(from);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_analysis::{RegionVerdict, VarVerdict};
    use hsm_vm::compile;

    fn tiny_program() -> Program {
        let tu = hsm_cir::parse("int g; int main() { g = 1; return g; }").unwrap();
        compile(&tu).unwrap()
    }

    fn manifest_with(name: &str, verdict: SharingStatus) -> ClassificationManifest {
        ClassificationManifest {
            entries: vec![VarVerdict {
                name: name.to_string(),
                owner: None,
                is_global: true,
                mem_size: 4,
                stages: [verdict; 3],
                verdict,
                region: RegionVerdict::default(),
            }],
        }
    }

    fn access(unit: usize, addr: u64, write: bool, cycle: u64) -> TraceEvent {
        TraceEvent {
            core: 0,
            unit,
            cycle,
            addr,
            region: scc_sim::MemorySystem::region_of(addr),
            latency: 1,
            write,
        }
    }

    fn g_addr(p: &Program) -> u64 {
        p.global("g").unwrap().addr
    }

    #[test]
    fn unordered_conflicting_accesses_are_a_race() {
        let p = tiny_program();
        let a = g_addr(&p);
        let mut o = Oracle::new(
            &p,
            manifest_with("g", SharingStatus::Shared),
            OracleMode::Pthread,
            32,
        );
        o.record(access(0, a, true, 10));
        o.record(access(1, a, true, 20));
        let r = o.finish();
        assert_eq!(r.classes(), vec![ViolationClass::DataRace]);
        assert_eq!(r.violations[0].variable.as_deref(), Some("g"));
        assert_eq!(r.violations[0].other, Some(0));
    }

    #[test]
    fn lock_handoff_orders_accesses() {
        let p = tiny_program();
        let a = g_addr(&p);
        let mut o = Oracle::new(
            &p,
            manifest_with("g", SharingStatus::Shared),
            OracleMode::Pthread,
            32,
        );
        o.sync(SyncEvent::LockAcquire {
            unit: 0,
            lock: 7,
            cycle: 1,
        });
        o.record(access(0, a, true, 2));
        o.sync(SyncEvent::LockRelease {
            unit: 0,
            lock: 7,
            cycle: 3,
        });
        o.sync(SyncEvent::LockAcquire {
            unit: 1,
            lock: 7,
            cycle: 4,
        });
        o.record(access(1, a, true, 5));
        o.sync(SyncEvent::LockRelease {
            unit: 1,
            lock: 7,
            cycle: 6,
        });
        assert!(o.finish().is_clean());
    }

    #[test]
    fn barrier_epochs_order_accesses() {
        let p = tiny_program();
        let a = g_addr(&p);
        let mut o = Oracle::new(
            &p,
            manifest_with("g", SharingStatus::Shared),
            OracleMode::Pthread,
            32,
        );
        o.record(access(0, a, true, 1));
        for unit in 0..2 {
            o.sync(SyncEvent::BarrierArrive {
                unit,
                epoch: 0,
                cycle: 2,
            });
        }
        for unit in 0..2 {
            o.sync(SyncEvent::BarrierRelease {
                unit,
                epoch: 0,
                cycle: 3,
            });
        }
        o.record(access(1, a, false, 4));
        assert!(o.finish().is_clean());
    }

    #[test]
    fn create_and_join_order_accesses() {
        let p = tiny_program();
        let a = g_addr(&p);
        let mut o = Oracle::new(
            &p,
            manifest_with("g", SharingStatus::Shared),
            OracleMode::Pthread,
            32,
        );
        o.record(access(0, a, true, 1));
        o.sync(SyncEvent::ThreadStart {
            parent: 0,
            unit: 1,
            func: 0,
            cycle: 2,
        });
        o.record(access(1, a, true, 3));
        o.sync(SyncEvent::ThreadJoin {
            unit: 0,
            target: 1,
            cycle: 4,
        });
        o.record(access(0, a, false, 5));
        assert!(o.finish().is_clean());
    }

    #[test]
    fn cross_owner_touch_of_private_data_is_unsound() {
        let p = tiny_program();
        let a = g_addr(&p);
        let mut o = Oracle::new(
            &p,
            manifest_with("g", SharingStatus::Private),
            OracleMode::Pthread,
            32,
        );
        // Unit 0 touches first and becomes the owner; unit 1's ordered
        // write is still a cross-owner touch.
        o.record(access(0, a, true, 1));
        o.sync(SyncEvent::ThreadStart {
            parent: 0,
            unit: 1,
            func: 0,
            cycle: 2,
        });
        o.record(access(1, a, true, 3));
        let r = o.finish();
        assert_eq!(r.count(ViolationClass::Unsoundness), 1);
        assert_eq!(
            r.count(ViolationClass::DataRace),
            0,
            "create edge orders them"
        );
        let v = &r.violations[0];
        assert_eq!(v.unit, 1);
        assert_eq!(v.other, Some(0), "owner");
        assert_eq!(v.variable.as_deref(), Some("g"));
    }

    #[test]
    fn unsynchronized_read_after_remote_write_is_stale() {
        let p = tiny_program();
        let a = g_addr(&p);
        let mut o = Oracle::new(
            &p,
            manifest_with("g", SharingStatus::Private),
            OracleMode::Pthread,
            32,
        );
        o.record(access(0, a, true, 1));
        o.record(access(1, a, false, 2));
        let r = o.finish();
        assert_eq!(r.count(ViolationClass::StaleRead), 1);
        assert_eq!(
            r.count(ViolationClass::DataRace),
            1,
            "also an unordered conflict"
        );
        let stale = r
            .violations
            .iter()
            .find(|v| v.class == ViolationClass::StaleRead)
            .unwrap();
        assert_eq!(stale.other, Some(0), "last writer");
    }

    #[test]
    fn ordered_cross_owner_read_is_unsound_not_stale() {
        let p = tiny_program();
        let a = g_addr(&p);
        let mut o = Oracle::new(
            &p,
            manifest_with("g", SharingStatus::Private),
            OracleMode::Pthread,
            32,
        );
        o.record(access(0, a, true, 1));
        o.sync(SyncEvent::ThreadStart {
            parent: 0,
            unit: 1,
            func: 0,
            cycle: 2,
        });
        o.record(access(1, a, false, 3));
        let r = o.finish();
        assert_eq!(r.classes(), vec![ViolationClass::Unsoundness]);
    }

    #[test]
    fn duplicate_violations_are_reported_once() {
        let p = tiny_program();
        let a = g_addr(&p);
        let mut o = Oracle::new(
            &p,
            manifest_with("g", SharingStatus::Private),
            OracleMode::Pthread,
            32,
        );
        o.record(access(0, a, true, 1));
        for c in 0..5 {
            o.record(access(1, a, false, 10 + c));
        }
        let r = o.finish();
        assert_eq!(r.count(ViolationClass::StaleRead), 1);
    }

    #[test]
    fn rcce_mode_ignores_private_region_and_races_shared() {
        let p = tiny_program();
        let mut o = Oracle::new(&p, ClassificationManifest::empty(), OracleMode::Rcce, 32);
        // Same private address on two cores: distinct physical memory.
        o.record(access(0, g_addr(&p), true, 1));
        o.record(access(1, g_addr(&p), true, 2));
        // Same shared-DRAM address unsynchronized: a real conflict.
        o.record(access(0, 0x8000_0100, true, 3));
        o.record(access(1, 0x8000_0100, false, 4));
        let r = o.finish();
        assert_eq!(r.classes(), vec![ViolationClass::DataRace]);
        assert_eq!(r.count(ViolationClass::DataRace), 1);
        assert_eq!(r.violations[0].addr, 0x8000_0100);
    }

    #[test]
    fn message_edge_orders_rcce_accesses() {
        let p = tiny_program();
        let mut o = Oracle::new(&p, ClassificationManifest::empty(), OracleMode::Rcce, 32);
        o.record(access(0, 0x8000_0100, true, 1));
        o.sync(SyncEvent::Message {
            from: 0,
            to: 1,
            cycle: 2,
        });
        o.record(access(1, 0x8000_0100, false, 3));
        assert!(o.finish().is_clean());
    }

    #[test]
    fn report_counts_streams() {
        let p = tiny_program();
        let mut o = Oracle::new(&p, ClassificationManifest::empty(), OracleMode::Pthread, 32);
        o.record(access(0, g_addr(&p), true, 1));
        o.sync(SyncEvent::ThreadStart {
            parent: 0,
            unit: 1,
            func: 0,
            cycle: 2,
        });
        let r = o.finish();
        assert_eq!(r.data_accesses, 1);
        assert_eq!(r.sync_events, 1);
    }
}
