//! Keyed, thread-safe memoization of pipeline artifacts — in memory and,
//! optionally, on disk.
//!
//! A [`Pipeline`](crate::Pipeline) session produces five intermediate
//! artifacts on the way from C source to a simulated run: the parsed
//! [`TranslationUnit`], the Stage 1–3 [`ProgramAnalysis`], the Stage 4
//! [`PartitionPlan`], the Stage 5 [`Translation`] and the compiled
//! [`hsm_vm::Program`] — and then the run itself, a [`RunResult`] or a
//! [`Profile`](hsm_exec::Profile). Every one of them is a pure function
//! of the source plus the session's configuration, so an
//! [`ArtifactCache`] memoizes them behind one [`ArtifactKey`] space of
//! the form *source hash × cores × policy × spec × opt level* (each stage
//! keyed by exactly the inputs it depends on — a parse does not care
//! about the core count, a partition plan does not care how many cores
//! execute it, only how much MPB the spec grants, and a run depends on
//! all of it plus the chip and the simulator version).
//!
//! The cache is shared: cloning a `Pipeline`, or handing the same
//! `Arc<ArtifactCache>` to several sessions (as
//! [`experiment::sweep`](crate::experiment::sweep) does across its worker
//! threads, and as the `hsmd` server does across its clients), makes the
//! baseline, off-chip and HSM runs of one benchmark share a single parse
//! and analysis instead of re-deriving them.
//!
//! Concurrency follows the *pending slot* discipline: the first caller of
//! a key inserts an empty slot (counted as a **miss**) and computes the
//! artifact; concurrent callers find the slot (counted as a **hit**) and
//! block until it fills. Hit/miss counters are therefore deterministic
//! for a fixed access sequence regardless of how many threads drive the
//! cache — the property the sweep determinism test pins.
//!
//! # Persistence
//!
//! [`ArtifactCache::persistent`] attaches a [`DiskStore`] to the shelves
//! whose artifacts cost more to derive than to load — translations,
//! bytecode, profiles and run results; a parse, an analysis and a
//! partition plan are cheaper recomputed and stay in memory. Before a
//! miss computes, the pending-slot holder tries the key's on-disk entry
//! (decoding it through the stage's codec); after a successful compute it
//! writes the entry back. Disk activity is tracked in a separate
//! [`StoreStats`] block — the in-memory hit/miss counters keep their
//! process-local meaning, so a cold and a warm run of the same sweep
//! render byte-identical manifests while the warm run's *store* counters
//! show zero misses. Store entries that fail to verify or decode count as
//! **corrupt**, are removed, and fall back to a plain recompute; errors
//! are never cached, in memory or on disk.

use crate::metrics::Stage;
use crate::store::{DiskStore, LoadOutcome};
use hsm_analysis::ProgramAnalysis;
use hsm_cir::TranslationUnit;
use hsm_exec::RunResult;
use hsm_partition::{MemorySpec, PartitionPlan, Policy};
use hsm_translate::Translation;
use hsm_vm::OptLevel;
use scc_sim::SccConfig;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// FNV-1a hash of a program source — the first component of every key.
pub fn source_hash(src: &str) -> u64 {
    crate::store::fnv1a_bytes(src.as_bytes())
}

/// Fingerprint of a simulated chip — the `chip` component of run and
/// profile keys: FNV-1a over every parameter. The destructuring is
/// exhaustive on purpose: a field added to [`SccConfig`] does not compile
/// until it is hashed here.
pub(crate) fn chip_fingerprint(config: &SccConfig) -> u64 {
    let SccConfig {
        cores,
        mesh_cols,
        mesh_rows,
        core_freq_mhz,
        mesh_freq_mhz,
        dram_freq_mhz,
        l1_bytes,
        l1_ways,
        l2_bytes,
        l2_ways,
        line_bytes,
        l1_hit_cycles,
        l2_hit_cycles,
        dram_service_cycles,
        dram_occupancy_cycles,
        shared_dram_occupancy_cycles,
        posted_write_cycles,
        shared_dram_overhead_cycles,
        hop_cycles,
        mpb_access_cycles,
        mpb_bytes_per_core,
        memory_controllers,
        sched_quantum_cycles,
        context_switch_cycles,
    } = *config;
    let fields = [
        cores as u64,
        mesh_cols as u64,
        mesh_rows as u64,
        u64::from(core_freq_mhz),
        u64::from(mesh_freq_mhz),
        u64::from(dram_freq_mhz),
        l1_bytes as u64,
        l1_ways as u64,
        l2_bytes as u64,
        l2_ways as u64,
        line_bytes as u64,
        l1_hit_cycles,
        l2_hit_cycles,
        dram_service_cycles,
        dram_occupancy_cycles,
        shared_dram_occupancy_cycles,
        posted_write_cycles,
        shared_dram_overhead_cycles,
        hop_cycles,
        mpb_access_cycles,
        mpb_bytes_per_core as u64,
        memory_controllers as u64,
        sched_quantum_cycles,
        context_switch_cycles,
    ];
    let bytes: Vec<u8> = fields.into_iter().flat_map(u64::to_le_bytes).collect();
    crate::store::fnv1a_bytes(&bytes)
}

/// The key of any cached artifact: one documented enum covering every
/// shelf. Each variant carries exactly the inputs its artifact depends
/// on, and [`ArtifactKey::path`] gives a stable string form that doubles
/// as the entry's relative path in the persistent [`DiskStore`].
///
/// The execution model is deliberately absent from the compile-side
/// keys: it changes what a run observes, not what any pipeline stage
/// produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKey {
    /// A parsed translation unit — depends only on the source.
    Parse {
        /// [`source_hash`] of the program.
        src: u64,
    },
    /// A Stage 1–3 analysis — depends only on the source.
    Analysis {
        /// [`source_hash`] of the program.
        src: u64,
    },
    /// A Stage 4 partition plan — the plan depends on the analysis
    /// (hence the source), the placement policy and the memory spec, but
    /// not on the executing core count except through the spec derived
    /// from it.
    Plan {
        /// [`source_hash`] of the program.
        src: u64,
        /// Placement policy.
        policy: Policy,
        /// Memory spec partitioned against.
        spec: MemorySpec,
    },
    /// A Stage 5 translation — everything a plan captures plus the
    /// participating core count the translator bakes into the emitted
    /// RCCE source.
    Translation {
        /// [`source_hash`] of the program.
        src: u64,
        /// Participating core count.
        cores: usize,
        /// Placement policy.
        policy: Policy,
        /// Memory spec partitioned against.
        spec: MemorySpec,
    },
    /// Bytecode of the unmodified pthread program at one [`OptLevel`].
    BaselineProgram {
        /// [`source_hash`] of the program.
        src: u64,
        /// Bytecode optimization level.
        opt: OptLevel,
    },
    /// Bytecode of the translated RCCE program: the full translation key
    /// plus the [`OptLevel`], so artifacts for different levels coexist
    /// in one cache (an `O0`-vs-`O2` sweep shares every stage up to
    /// translation, compiles once and optimizes the O0 entry for O2).
    TranslatedProgram {
        /// [`source_hash`] of the program.
        src: u64,
        /// Participating core count.
        cores: usize,
        /// Placement policy.
        policy: Policy,
        /// Memory spec partitioned against.
        spec: MemorySpec,
        /// Bytecode optimization level.
        opt: OptLevel,
    },
    /// A [`Profile`](hsm_exec::Profile) of one simulated run. Unlike the
    /// compile-side artifacts, a profile depends on *everything* that
    /// selects the run — the full [`Scenario`](crate::scenario::Scenario), because
    /// the execution model changes what the run observes even though it
    /// changes no compiled artifact; the chip it ran on; and, because the
    /// entry outlives the process, the simulator that produced it.
    Profile {
        /// [`source_hash`] of the program.
        src: u64,
        /// Simulated core count.
        cores: usize,
        /// Placement policy.
        policy: Policy,
        /// Memory spec partitioned against.
        spec: MemorySpec,
        /// The full scenario (mode × exec model × opt level).
        scenario: crate::scenario::Scenario,
        /// Fingerprint of the simulated chip.
        chip: u64,
        /// [`hsm_exec::MODEL_VERSION`] of the simulator.
        model: u32,
    },
    /// The [`RunResult`] of one plain simulated run — the same inputs as
    /// a [`Profile`](ArtifactKey::Profile), field for field.
    Run {
        /// [`source_hash`] of the program.
        src: u64,
        /// Simulated core count.
        cores: usize,
        /// Placement policy.
        policy: Policy,
        /// Memory spec partitioned against.
        spec: MemorySpec,
        /// The full scenario (mode × exec model × opt level).
        scenario: crate::scenario::Scenario,
        /// Fingerprint of the simulated chip.
        chip: u64,
        /// [`hsm_exec::MODEL_VERSION`] of the simulator.
        model: u32,
    },
}

impl ArtifactKey {
    /// The pipeline stage this key's artifact belongs to — the stats
    /// bucket it counts under and (by its [`Stage::label`]) the store
    /// subdirectory it lives in.
    pub fn stage(&self) -> Stage {
        match self {
            ArtifactKey::Parse { .. } => Stage::Parse,
            ArtifactKey::Analysis { .. } => Stage::Analyze,
            ArtifactKey::Plan { .. } => Stage::Partition,
            ArtifactKey::Translation { .. } => Stage::Translate,
            ArtifactKey::BaselineProgram { .. } | ArtifactKey::TranslatedProgram { .. } => {
                Stage::Compile
            }
            ArtifactKey::Profile { .. } => Stage::Profile,
            ArtifactKey::Run { .. } => Stage::Run,
        }
    }

    /// The stable string form: `<stage>/<key fields>`, usable as a
    /// relative filesystem path. Two processes deriving the same key
    /// always produce the same string, which is what makes the
    /// [`DiskStore`] content-addressed.
    pub fn path(&self) -> String {
        let fields = match self {
            ArtifactKey::Parse { src } | ArtifactKey::Analysis { src } => format!("{src:016x}"),
            ArtifactKey::Plan { src, policy, spec } => format!(
                "{src:016x}-{}-m{}x{}",
                policy.label(),
                spec.on_chip_capacity,
                spec.off_chip_capacity
            ),
            ArtifactKey::Translation {
                src,
                cores,
                policy,
                spec,
            } => format!(
                "{src:016x}-c{cores}-{}-m{}x{}",
                policy.label(),
                spec.on_chip_capacity,
                spec.off_chip_capacity
            ),
            ArtifactKey::BaselineProgram { src, opt } => {
                format!("{src:016x}-base-{}", opt.label())
            }
            ArtifactKey::TranslatedProgram {
                src,
                cores,
                policy,
                spec,
                opt,
            } => format!(
                "{src:016x}-c{cores}-{}-m{}x{}-{}",
                policy.label(),
                spec.on_chip_capacity,
                spec.off_chip_capacity,
                opt.label()
            ),
            ArtifactKey::Profile {
                src,
                cores,
                policy,
                spec,
                scenario,
                chip,
                model,
            }
            | ArtifactKey::Run {
                src,
                cores,
                policy,
                spec,
                scenario,
                chip,
                model,
            } => format!(
                "{src:016x}-c{cores}-{}-m{}x{}-{}-{}-{}-k{chip:016x}-v{model}",
                policy.label(),
                spec.on_chip_capacity,
                spec.off_chip_capacity,
                scenario.mode.label(),
                scenario.exec_model.label(),
                scenario.opt_level.label()
            ),
        };
        format!("{}/{fields}", self.stage().label())
    }
}

/// Hit/miss counters of one artifact kind (in-memory lookups).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Lookups served from (or queued behind) an existing artifact.
    pub hits: u64,
    /// Lookups that had to compute the artifact.
    pub misses: u64,
}

/// Disk-store counters of one artifact kind. Only misses that reached
/// the store are counted (an in-memory hit never touches disk).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Entries loaded and decoded from disk instead of computed.
    pub loads: u64,
    /// Lookups that found no on-disk entry and had to compute.
    pub misses: u64,
    /// Entries written back after a compute.
    pub writes: u64,
    /// Entries that existed but failed verification or decode (removed,
    /// then recomputed).
    pub corrupt: u64,
}

/// A snapshot of every shelf's disk-store counters, plus the store-wide
/// eviction count. Index it by [`Stage`]: `stats[Stage::Compile].loads`.
///
/// What each persisted shelf's payload is: `translate` the RCCE source,
/// `compile` the versioned `hsm_vm` serial format, `profile` the
/// [`Profile::encode`](hsm_exec::Profile::encode) binary form, `run` the
/// [`RunResult::encode`] one. The `parse`, `analyze` and `partition`
/// shelves are memory-only; their counters stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Per-stage counters, in [`Stage::ALL`] order.
    pub stages: [StoreCounters; 7],
}

impl StoreStats {
    fn total(&self, field: impl Fn(&StoreCounters) -> u64) -> u64 {
        self.stages.iter().map(field).sum()
    }

    /// Total entries loaded from disk across all artifact kinds.
    pub fn total_loads(&self) -> u64 {
        self.total(|c| c.loads)
    }

    /// Total on-disk misses across all artifact kinds.
    pub fn total_misses(&self) -> u64 {
        self.total(|c| c.misses)
    }

    /// Total entries written back across all artifact kinds.
    pub fn total_writes(&self) -> u64 {
        self.total(|c| c.writes)
    }

    /// Total corrupt entries encountered across all artifact kinds.
    pub fn total_corrupt(&self) -> u64 {
        self.total(|c| c.corrupt)
    }
}

impl std::ops::Index<Stage> for StoreStats {
    type Output = StoreCounters;

    fn index(&self, stage: Stage) -> &StoreCounters {
        &self.stages[stage as usize]
    }
}

/// A snapshot of every shelf's counters. Index it by [`Stage`]:
/// `stats[Stage::Parse].misses`. The in-memory hit/miss counters are
/// process-local and schedule-independent; `store` is present only when
/// a [`DiskStore`] is attached and reflects host disk state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Per-stage hit/miss counters, in [`Stage::ALL`] order.
    pub stages: [StageCounters; 7],
    /// Persistent-store counters, when a store is attached.
    pub store: Option<StoreStats>,
}

impl CacheStats {
    /// Total hits across all artifact kinds.
    pub fn total_hits(&self) -> u64 {
        self.stages.iter().map(|c| c.hits).sum()
    }

    /// Total misses across all artifact kinds.
    pub fn total_misses(&self) -> u64 {
        self.stages.iter().map(|c| c.misses).sum()
    }
}

impl std::ops::Index<Stage> for CacheStats {
    type Output = StageCounters;

    fn index(&self, stage: Stage) -> &StageCounters {
        &self.stages[stage as usize]
    }
}

/// A slot that is either filled with the artifact or pending while the
/// first caller computes it.
type Slot<V> = Arc<Mutex<Option<Arc<V>>>>;

/// One artifact kind's keyed store.
struct Shelf<V> {
    slots: Mutex<HashMap<ArtifactKey, Slot<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    loads: AtomicU64,
    store_misses: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
}

impl<V> Default for Shelf<V> {
    fn default() -> Self {
        Shelf {
            slots: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }
}

impl<V> Shelf<V> {
    /// Returns the cached artifact for `key`, trying the disk store (if
    /// any) and then `compute` on a miss. Concurrent callers of the same
    /// key block until the first one's artifact lands; a failed
    /// computation vacates the key so later callers retry (errors are
    /// never cached). `decode`/`encode` are the stage's store codec; a
    /// decode failure counts as corruption and falls back to `compute`.
    fn get_or_try_insert<E>(
        &self,
        key: ArtifactKey,
        store: Option<&DiskStore>,
        decode: impl FnOnce(&[u8]) -> Option<V>,
        encode: impl FnOnce(&V) -> Vec<u8>,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let slot = {
            let mut slots = self.slots.lock().expect("cache map lock");
            match slots.get(&key) {
                Some(slot) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Arc::clone(slot)
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let slot: Slot<V> = Arc::new(Mutex::new(None));
                    slots.insert(key, Arc::clone(&slot));
                    slot
                }
            }
        };
        let mut filled = slot.lock().expect("cache slot lock");
        if let Some(v) = filled.as_ref() {
            return Ok(Arc::clone(v));
        }
        if let Some(store) = store {
            match store.load(&key) {
                LoadOutcome::Hit(payload) => match decode(&payload) {
                    Some(v) => {
                        self.loads.fetch_add(1, Ordering::Relaxed);
                        let v = Arc::new(v);
                        *filled = Some(Arc::clone(&v));
                        return Ok(v);
                    }
                    None => {
                        // Verified bytes, but the stage codec rejected
                        // them (stale stage format, hash collision):
                        // same corruption handling, one layer up.
                        self.corrupt.fetch_add(1, Ordering::Relaxed);
                        store.remove(&key);
                    }
                },
                LoadOutcome::Corrupt => {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                }
                LoadOutcome::Miss => {
                    self.store_misses.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        match compute() {
            Ok(v) => {
                if let Some(store) = store {
                    // Best-effort write-through: an I/O failure keeps the
                    // in-memory artifact and simply stays a disk miss.
                    if store.save(&key, &encode(&v)).is_ok() {
                        self.writes.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let v = Arc::new(v);
                *filled = Some(Arc::clone(&v));
                Ok(v)
            }
            Err(e) => {
                self.slots.lock().expect("cache map lock").remove(&key);
                Err(e)
            }
        }
    }

    /// [`Shelf::get_or_try_insert`] for a shelf that is never persisted.
    fn get_or_try_compute<E>(
        &self,
        key: ArtifactKey,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        self.get_or_try_insert(key, None, |_| None, |_| Vec::new(), compute)
    }

    fn counters(&self) -> (StageCounters, StoreCounters) {
        (
            StageCounters {
                hits: self.hits.load(Ordering::Relaxed),
                misses: self.misses.load(Ordering::Relaxed),
            },
            StoreCounters {
                loads: self.loads.load(Ordering::Relaxed),
                misses: self.store_misses.load(Ordering::Relaxed),
                writes: self.writes.load(Ordering::Relaxed),
                corrupt: self.corrupt.load(Ordering::Relaxed),
            },
        )
    }
}

/// The keyed artifact store shared by [`Pipeline`](crate::api::Pipeline)
/// sessions, [`sweep`](crate::api::sweep) workers and
/// `hsmd` clients. Optionally backed by a persistent [`DiskStore`] (see
/// the module docs).
#[derive(Default)]
pub struct ArtifactCache {
    parse: Shelf<TranslationUnit>,
    analyze: Shelf<ProgramAnalysis>,
    partition: Shelf<PartitionPlan>,
    translate: Shelf<Translation>,
    compile: Shelf<hsm_vm::Program>,
    profile: Shelf<hsm_exec::Profile>,
    /// Run results in their [`RunResult::encode`] form.
    run: Shelf<Vec<u8>>,
    /// The run shelf's filled keys, oldest first, with their sizes.
    run_resident: Mutex<(VecDeque<(ArtifactKey, usize)>, usize)>,
    store: Option<DiskStore>,
}

/// Bytes of encoded run results the memory tier keeps before it drops the
/// oldest. A compact entry is about 1 KB, so this is some thousands of
/// points — every figure and the whole `hsmd` working set — while a
/// 10 000-point sweep of distinct points stays bounded. A dropped entry
/// is still on disk when a store is attached.
const RUN_SHELF_BYTES: usize = 4 << 20;

impl ArtifactCache {
    /// A fresh in-memory cache behind an [`Arc`], ready to hand to
    /// several [`Pipeline`](crate::api::Pipeline) sessions.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A cache backed by a persistent store rooted at `dir` (created if
    /// needed). Entries survive the process; any cache opened over the
    /// same directory — concurrently or later — reuses them.
    ///
    /// # Errors
    ///
    /// Propagates store-directory creation failures.
    pub fn persistent(dir: impl AsRef<Path>) -> io::Result<Arc<Self>> {
        Ok(Arc::new(ArtifactCache {
            store: Some(DiskStore::open(dir.as_ref())?),
            ..Self::default()
        }))
    }

    /// The attached persistent store, when there is one.
    pub fn store(&self) -> Option<&DiskStore> {
        self.store.as_ref()
    }

    /// A snapshot of the counters of every shelf (plus the store block
    /// when a [`DiskStore`] is attached).
    pub fn stats(&self) -> CacheStats {
        let shelves = Stage::ALL.map(|stage| match stage {
            Stage::Parse => self.parse.counters(),
            Stage::Analyze => self.analyze.counters(),
            Stage::Partition => self.partition.counters(),
            Stage::Translate => self.translate.counters(),
            Stage::Compile => self.compile.counters(),
            Stage::Profile => self.profile.counters(),
            Stage::Run => self.run.counters(),
        });
        CacheStats {
            stages: shelves.map(|(memory, _)| memory),
            store: self.store.is_some().then(|| StoreStats {
                stages: shelves.map(|(_, disk)| disk),
            }),
        }
    }

    /// Memoized parse of `source` (whose [`source_hash`] is `src`).
    /// Memory-only: a parse is cheaper than a store round trip.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error without caching it.
    pub fn unit_with<E>(
        &self,
        src: u64,
        source: &str,
        compute: impl FnOnce() -> Result<TranslationUnit, E>,
    ) -> Result<Arc<TranslationUnit>, E> {
        debug_assert_eq!(source_hash(source), src);
        self.parse
            .get_or_try_compute(ArtifactKey::Parse { src }, compute)
    }

    /// Memoized Stage 1–3 analysis of the source identified by `src`
    /// (memory-only). `unit` is what `compute` analyzes; it is part of
    /// the signature `benchmark/` calls and unused here.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error without caching it.
    pub fn analysis_with<E>(
        &self,
        src: u64,
        _unit: &TranslationUnit,
        compute: impl FnOnce() -> Result<ProgramAnalysis, E>,
    ) -> Result<Arc<ProgramAnalysis>, E> {
        self.analyze
            .get_or_try_compute(ArtifactKey::Analysis { src }, compute)
    }

    /// Memoized Stage 4 partition plan for `key` (a
    /// [`ArtifactKey::Plan`]). Memory-only: Algorithm 3 takes
    /// microseconds, a store write a hundred times that.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error without caching it.
    pub fn plan_with<E>(
        &self,
        key: ArtifactKey,
        compute: impl FnOnce() -> Result<PartitionPlan, E>,
    ) -> Result<Arc<PartitionPlan>, E> {
        debug_assert!(matches!(key, ArtifactKey::Plan { .. }));
        self.partition.get_or_try_compute(key, compute)
    }

    /// Memoized Stage 5 translation for `key` (a
    /// [`ArtifactKey::Translation`]). The store payload is the emitted
    /// RCCE source; on load it is re-parsed, while `analysis` and `plan`
    /// (already cached one shelf up) are shared into the translation's
    /// context fields.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error without caching it.
    pub fn translation_with<E>(
        &self,
        key: ArtifactKey,
        analysis: &Arc<ProgramAnalysis>,
        plan: &Arc<PartitionPlan>,
        compute: impl FnOnce() -> Result<Translation, E>,
    ) -> Result<Arc<Translation>, E> {
        debug_assert!(matches!(key, ArtifactKey::Translation { .. }));
        self.translate.get_or_try_insert(
            key,
            self.store.as_ref(),
            |payload| {
                let source = std::str::from_utf8(payload).ok()?.to_string();
                Translation::from_source(source, Arc::clone(analysis), Arc::clone(plan)).ok()
            },
            |translation| translation.source().as_bytes().to_vec(),
            compute,
        )
    }

    /// Memoized bytecode for `key` (a [`ArtifactKey::BaselineProgram`]
    /// or [`ArtifactKey::TranslatedProgram`]): at O0 `compute` compiles;
    /// at any other level the caller has looked the O0 entry up here
    /// first, and `compute` optimizes it. The store payload is the
    /// versioned [`hsm_vm::serial`] text format — an exact round-trip,
    /// so a warm run executes bit-identical bytecode and a loaded O0
    /// entry optimizes as a compiled one would.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error without caching it.
    pub fn program_with<E>(
        &self,
        key: ArtifactKey,
        compute: impl FnOnce() -> Result<hsm_vm::Program, E>,
    ) -> Result<Arc<hsm_vm::Program>, E> {
        debug_assert!(matches!(
            key,
            ArtifactKey::BaselineProgram { .. } | ArtifactKey::TranslatedProgram { .. }
        ));
        self.compile.get_or_try_insert(
            key,
            self.store.as_ref(),
            |payload| {
                let text = std::str::from_utf8(payload).ok()?;
                hsm_vm::parse_program(text).ok()
            },
            |program| hsm_vm::serialize_program(program).into_bytes(),
            compute,
        )
    }

    /// Memoized run profile for `key` (an [`ArtifactKey::Profile`]). The
    /// store payload is [`Profile::encode`](hsm_exec::Profile::encode),
    /// so a warm sweep serves profiles from disk without re-simulating.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error without caching it.
    pub(crate) fn profile_with<E>(
        &self,
        key: ArtifactKey,
        compute: impl FnOnce() -> Result<hsm_exec::Profile, E>,
    ) -> Result<Arc<hsm_exec::Profile>, E> {
        debug_assert!(matches!(key, ArtifactKey::Profile { .. }));
        self.profile.get_or_try_insert(
            key,
            self.store.as_ref(),
            hsm_exec::Profile::decode,
            hsm_exec::Profile::encode,
            compute,
        )
    }

    /// Memoized plain run for `key` (an [`ArtifactKey::Run`]). Both tiers
    /// hold the [`RunResult::encode`] form, so a hit — in memory or from
    /// the store — is a decode, and the caller that computes (or loads)
    /// the entry gets its result without a second copy. The memory tier
    /// keeps a fixed byte budget (4 MiB) of entries and drops the oldest beyond
    /// that.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error without caching it.
    pub(crate) fn run_with<E>(
        &self,
        key: ArtifactKey,
        compute: impl FnOnce() -> Result<RunResult, E>,
    ) -> Result<RunResult, E> {
        debug_assert!(matches!(key, ArtifactKey::Run { .. }));
        // Set by whichever closure fills the slot: the result this call
        // already holds in decoded form.
        let filled = Cell::new(None);
        let entry = self.run.get_or_try_insert(
            key,
            self.store.as_ref(),
            |payload| {
                filled.set(Some(RunResult::decode(payload)?));
                Some(payload.to_vec())
            },
            Vec::clone,
            || {
                let result = compute()?;
                let entry = result.encode();
                filled.set(Some(result));
                Ok(entry)
            },
        )?;
        Ok(match filled.take() {
            Some(result) => {
                self.note_resident_run(key, entry.len());
                result
            }
            // Resident bytes are this process's own encoding, or decoded
            // once already when they were loaded.
            None => RunResult::decode(&entry).expect("a resident run entry decodes"),
        })
    }

    /// Books a freshly filled run entry and evicts the oldest entries
    /// while the shelf is over [`RUN_SHELF_BYTES`].
    fn note_resident_run(&self, key: ArtifactKey, bytes: usize) {
        let mut resident = self.run_resident.lock().expect("run shelf ledger lock");
        let (order, total) = &mut *resident;
        order.push_back((key, bytes));
        *total += bytes;
        while *total > RUN_SHELF_BYTES {
            let (oldest, size) = order
                .pop_front()
                .expect("a non-empty shelf holds the bytes");
            *total -= size;
            self.run
                .slots
                .lock()
                .expect("cache map lock")
                .remove(&oldest);
        }
    }
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_decode<V>(_: &[u8]) -> Option<V> {
        None
    }

    fn no_encode<V>(_: &V) -> Vec<u8> {
        Vec::new()
    }

    #[test]
    fn source_hash_distinguishes_sources() {
        assert_ne!(source_hash("int main() {}"), source_hash("int main( ) {}"));
        assert_eq!(source_hash("x"), source_hash("x"));
    }

    #[test]
    fn shelf_counts_hits_and_misses() {
        let shelf: Shelf<u32> = Shelf::default();
        let key = ArtifactKey::Parse { src: 1 };
        let a = shelf
            .get_or_try_insert::<()>(key, None, no_decode, no_encode, || Ok(10))
            .expect("first insert");
        let b = shelf
            .get_or_try_insert::<()>(key, None, no_decode, no_encode, || {
                panic!("must not recompute")
            })
            .expect("hit");
        assert_eq!(*a, 10);
        assert!(Arc::ptr_eq(&a, &b));
        let (c, _) = shelf.counters();
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn shelf_does_not_cache_errors() {
        let shelf: Shelf<u32> = Shelf::default();
        let key = ArtifactKey::Parse { src: 7 };
        let err = shelf
            .get_or_try_insert(key, None, no_decode, no_encode, || Err("boom"))
            .unwrap_err();
        assert_eq!(err, "boom");
        // The failed key was vacated: the next caller recomputes.
        let ok = shelf
            .get_or_try_insert::<&str>(key, None, no_decode, no_encode, || Ok(3))
            .expect("retry");
        assert_eq!(*ok, 3);
        assert_eq!(shelf.counters().0.misses, 2);
    }

    #[test]
    fn concurrent_lookups_compute_once() {
        let shelf: Arc<Shelf<u64>> = Arc::new(Shelf::default());
        let computed = Arc::new(AtomicU64::new(0));
        let key = ArtifactKey::Parse { src: 42 };
        std::thread::scope(|s| {
            for _ in 0..8 {
                let shelf = Arc::clone(&shelf);
                let computed = Arc::clone(&computed);
                s.spawn(move || {
                    let v = shelf
                        .get_or_try_insert::<()>(key, None, no_decode, no_encode, || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            Ok(99)
                        })
                        .expect("value");
                    assert_eq!(*v, 99);
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1, "computed exactly once");
        let (c, _) = shelf.counters();
        assert_eq!(c.hits + c.misses, 8);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn artifact_key_paths_are_stable_and_distinct() {
        let spec = MemorySpec::scc(4);
        let keys = [
            ArtifactKey::Parse { src: 0xabcd },
            ArtifactKey::Analysis { src: 0xabcd },
            ArtifactKey::Plan {
                src: 0xabcd,
                policy: Policy::SizeAscending,
                spec,
            },
            ArtifactKey::Translation {
                src: 0xabcd,
                cores: 4,
                policy: Policy::SizeAscending,
                spec,
            },
            ArtifactKey::BaselineProgram {
                src: 0xabcd,
                opt: OptLevel::O2,
            },
            ArtifactKey::TranslatedProgram {
                src: 0xabcd,
                cores: 4,
                policy: Policy::SizeAscending,
                spec,
                opt: OptLevel::O2,
            },
            ArtifactKey::Profile {
                src: 0xabcd,
                cores: 4,
                policy: Policy::SizeAscending,
                spec,
                scenario: crate::scenario::Scenario::default(),
                chip: 0x1234,
                model: 7,
            },
            run_key(0xabcd),
        ];
        let paths: Vec<String> = keys.iter().map(ArtifactKey::path).collect();
        for (i, p) in paths.iter().enumerate() {
            assert!(
                p.starts_with(keys[i].stage().label()),
                "{p} under its stage dir"
            );
            for (j, q) in paths.iter().enumerate() {
                if i != j {
                    assert_ne!(p, q, "distinct keys, distinct paths");
                }
            }
        }
        // Pinned spellings: these are an on-disk format, not free to drift.
        assert_eq!(paths[0], "parse/000000000000abcd");
        assert_eq!(
            paths[3],
            format!(
                "translate/000000000000abcd-c4-size_ascending-m{}x{}",
                spec.on_chip_capacity, spec.off_chip_capacity
            )
        );
        let run_fields = format!(
            "000000000000abcd-c4-size_ascending-m{}x{}-hsm-coherent-O0-k0000000000001234-v7",
            spec.on_chip_capacity, spec.off_chip_capacity
        );
        assert_eq!(paths[6], format!("profile/{run_fields}"));
        assert_eq!(paths[7], format!("run/{run_fields}"));
    }

    #[test]
    fn chip_fingerprint_sees_every_parameter() {
        let base = SccConfig::table_6_1();
        assert_eq!(chip_fingerprint(&base), chip_fingerprint(&base.clone()));
        let mut slower_l2 = base.clone();
        slower_l2.l2_hit_cycles += 1;
        let mut fewer_cores = base.clone();
        fewer_cores.cores = 24;
        let prints =
            [&base, &slower_l2, &fewer_cores, &base.with_core_freq(533)].map(chip_fingerprint);
        for (i, a) in prints.iter().enumerate() {
            for b in &prints[i + 1..] {
                assert_ne!(a, b, "{prints:x?}");
            }
        }
    }

    fn run_key(src: u64) -> ArtifactKey {
        ArtifactKey::Run {
            src,
            cores: 4,
            policy: Policy::SizeAscending,
            spec: MemorySpec::scc(4),
            scenario: crate::scenario::Scenario::default(),
            chip: 0x1234,
            model: 7,
        }
    }

    /// A result whose encoding is a little over `bytes` long.
    fn bulky_result(tag: u64, bytes: usize) -> RunResult {
        RunResult {
            total_cycles: tag,
            timed_cycles: tag,
            output: vec![hsm_exec::OutputLine {
                at: tag,
                who: 0,
                text: "x".repeat(bytes),
            }],
            exit_code: 0,
            mem_stats: scc_sim::MemStats::default(),
            stats_matrix: scc_sim::StatsMatrix::new(48),
            mpb_high_water: 0,
            per_unit_cycles: vec![tag],
            instructions: tag,
            events: tag,
        }
    }

    fn never() -> Result<RunResult, ()> {
        panic!("must not simulate")
    }

    #[test]
    fn run_shelf_hands_back_what_was_computed() {
        let cache = ArtifactCache::shared();
        let result = bulky_result(9, 10);
        let cold = cache.run_with::<()>(run_key(1), || Ok(result.clone()));
        assert_eq!(cold.as_ref(), Ok(&result));
        assert_eq!(cache.run_with(run_key(1), never).as_ref(), Ok(&result));
        // An error is handed back and forgotten.
        assert_eq!(cache.run_with(run_key(2), || Err("boom")), Err("boom"));
        assert_eq!(
            cache.run_with::<()>(run_key(2), || Ok(result.clone())),
            Ok(result)
        );
        let run = cache.stats()[Stage::Run];
        assert_eq!((run.hits, run.misses), (1, 3));
    }

    /// The memory tier keeps `RUN_SHELF_BYTES` of entries: filling it past
    /// that drops the oldest first, a dropped key is a memory miss again,
    /// and with a store attached the miss is served from disk.
    #[test]
    fn run_shelf_evicts_oldest_first_and_falls_back_to_the_store() {
        let dir = std::env::temp_dir().join(format!("hsm-run-shelf-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ArtifactCache::persistent(&dir).expect("store opens");
        let each = RUN_SHELF_BYTES / 4;
        // Five entries of a quarter of the budget (and a bit): the first
        // two must go to make room for the fifth.
        for tag in 0..5 {
            let made = cache.run_with::<()>(run_key(tag), || Ok(bulky_result(tag, each)));
            assert_eq!(made, Ok(bulky_result(tag, each)));
        }
        let resident = |cache: &ArtifactCache| -> Vec<u64> {
            let ledger = cache.run_resident.lock().unwrap();
            assert!(ledger.1 <= RUN_SHELF_BYTES, "{} bytes resident", ledger.1);
            let slots = cache.run.slots.lock().unwrap();
            assert_eq!(slots.len(), ledger.0.len(), "ledger and map agree");
            ledger
                .0
                .iter()
                .map(|(key, _)| match key {
                    ArtifactKey::Run { src, .. } => *src,
                    other => panic!("{other:?} on the run shelf"),
                })
                .collect()
        };
        assert_eq!(resident(&cache), [2, 3, 4], "oldest first");
        let before = cache.stats();
        assert_eq!(before[Stage::Run].misses, 5);
        assert_eq!(before.store.unwrap()[Stage::Run].writes, 5);

        // A survivor is a memory hit; an evicted key misses memory and
        // loads from the store — nothing re-simulates either way.
        assert_eq!(cache.run_with(run_key(4), never), Ok(bulky_result(4, each)));
        assert_eq!(cache.run_with(run_key(0), never), Ok(bulky_result(0, each)));
        let after = cache.stats();
        assert_eq!(after[Stage::Run].hits, 1);
        assert_eq!(after[Stage::Run].misses, 6);
        assert_eq!(after.store.unwrap()[Stage::Run].loads, 1);
        assert_eq!(
            resident(&cache),
            [3, 4, 0],
            "reloading evicted the next oldest"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_without_store_have_no_store_block() {
        let cache = ArtifactCache::shared();
        assert!(cache.stats().store.is_none());
        assert!(cache.store().is_none());
    }
}
