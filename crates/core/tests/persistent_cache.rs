//! Integration tests of the persistent artifact store: a cold run
//! populates the on-disk store, a warm run over the same directory
//! reloads every persisted artifact — run results included — with zero
//! store misses, corruption falls back to recompute, and a different chip
//! never hits another chip's entries.

use hsm_core::api::{ArtifactCache, Mode, OptLevel, Pipeline, Scenario, Stage};
use scc_sim::SccConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

const SRC: &str = r#"
int sum[2];
void *tf(void *tid) { sum[(int)tid] = (int)tid + 1; return tid; }
int main() {
    pthread_t t[2];
    int i;
    for (i = 0; i < 2; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 2; i++) pthread_join(t[i], NULL);
    return sum[0] + sum[1];
}
"#;

/// A fresh store directory per test (under the system temp dir).
fn temp_store(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hsm-cache-test-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs baseline + off-chip + HSM through one session family over the
/// given cache, returning the three exit codes and timed cycles.
fn run_all(cache: &Arc<ArtifactCache>) -> Vec<(i64, u64)> {
    let session = Pipeline::new(SRC).cores(2).cache(Arc::clone(cache));
    let base = session
        .clone()
        .scenario(Mode::PthreadBaseline.into())
        .run_scenario()
        .expect("baseline");
    let off = session
        .clone()
        .scenario(Mode::RcceOffChip.into())
        .run_scenario()
        .expect("off-chip");
    let hsm = session.run_scenario().expect("hsm");
    vec![
        (base.exit_code, base.timed_cycles),
        (off.exit_code, off.timed_cycles),
        (hsm.exit_code, hsm.timed_cycles),
    ]
}

#[test]
fn cold_run_populates_warm_run_loads_with_zero_misses() {
    let dir = temp_store("warm");
    let cold_cache = ArtifactCache::persistent(&dir).expect("open store");
    let cold_runs = run_all(&cold_cache);
    let cold = cold_cache.stats();
    let cold_store = cold.store.expect("store stats present");
    assert!(cold_store.total_misses() > 0, "cold run misses the disk");
    assert_eq!(cold_store.total_loads(), 0, "nothing to load cold");
    assert!(
        cold_store[Stage::Compile].writes >= 3,
        "programs written back"
    );

    // A brand-new cache over the same directory: every artifact loads.
    let warm_cache = ArtifactCache::persistent(&dir).expect("reopen store");
    let warm_runs = run_all(&warm_cache);
    let warm = warm_cache.stats();
    let warm_store = warm.store.expect("store stats present");
    assert_eq!(warm_store.total_misses(), 0, "warm run never misses");
    assert_eq!(warm_store.total_corrupt(), 0);
    assert!(warm_store.total_loads() > 0, "artifacts came from disk");
    assert_eq!(
        warm_store[Stage::Compile].writes,
        0,
        "nothing recomputed, nothing rewritten"
    );
    assert_eq!(cold_runs, warm_runs, "identical results cold vs warm");
    assert_eq!(cold_store[Stage::Run].writes, 3, "one entry per run");
    assert_eq!(warm_store[Stage::Run].loads, 3, "nothing re-simulated");

    // The witness shelves left the disk tier: cheaper recomputed than
    // stored, they never touch the store and their directories stay empty.
    for stage in [Stage::Parse, Stage::Analyze, Stage::Partition] {
        assert_eq!(cold_store[stage], Default::default(), "{stage:?} cold");
        assert_eq!(warm_store[stage], Default::default(), "{stage:?} warm");
        let entries = std::fs::read_dir(dir.join("v2").join(stage.label())).expect("stage dir");
        assert_eq!(entries.count(), 0, "{stage:?} holds no entries");
    }

    // The in-memory hit/miss counters are process-local and identical
    // cold vs warm — what keeps manifests byte-identical across runs.
    assert_eq!(cold.stages, warm.stages);
}

#[test]
fn warm_programs_are_bit_identical_to_cold() {
    let dir = temp_store("bits");
    let cold_cache = ArtifactCache::persistent(&dir).expect("open store");
    let cold = Pipeline::new(SRC)
        .cores(2)
        .cache(cold_cache)
        .program()
        .expect("cold program");
    let warm_cache = ArtifactCache::persistent(&dir).expect("reopen store");
    let warm = Pipeline::new(SRC)
        .cores(2)
        .cache(Arc::clone(&warm_cache))
        .program()
        .expect("warm program");
    assert_eq!(*cold, *warm, "decoded bytecode identical to compiled");
    let store = warm_cache.stats().store.expect("store stats");
    assert_eq!(store.total_misses(), 0);
    assert!(
        store[Stage::Compile].loads >= 1,
        "the program came from disk"
    );
}

/// A level above O0 optimizes the O0 entry, so a store that holds only
/// that entry serves an O2 session without a compile: the O0 program
/// loads from disk, and optimizing what `hsm_vm::serial` carried gives
/// the bytes optimizing a compiled program gives.
#[test]
fn o2_optimizes_a_stored_o0_entry() {
    let dir = temp_store("o0");
    let session = Pipeline::new(SRC).cores(2);
    let o2 = Scenario::new(Mode::RcceHsm).opt_level(OptLevel::O2);
    session
        .clone()
        .cache(ArtifactCache::persistent(&dir).expect("open store"))
        .program()
        .expect("O0 program");

    let cache = ArtifactCache::persistent(&dir).expect("reopen store");
    let warm = session
        .clone()
        .cache(Arc::clone(&cache))
        .scenario(o2)
        .program()
        .expect("O2 over the stored O0 entry");
    let store = cache.stats().store.expect("store stats");
    assert_eq!(
        store[Stage::Compile].loads,
        1,
        "the O0 entry came from disk"
    );
    assert_eq!(store[Stage::Compile].writes, 1, "only the O2 entry is new");
    let fresh = session.scenario(o2).program().expect("O2 with no store");
    assert_eq!(
        hsm_vm::serialize_program(&warm),
        hsm_vm::serialize_program(&fresh)
    );
}

/// The O0 lookup an O2 session makes comes first whether or not the O2
/// entry is stored, so its in-memory counters are the same cold and
/// warm, as they are at O0.
#[test]
fn o2_counters_do_not_depend_on_the_store() {
    let dir = temp_store("o2stats");
    let stats = || {
        let cache = ArtifactCache::persistent(&dir).expect("open store");
        Pipeline::new(SRC)
            .cores(2)
            .cache(Arc::clone(&cache))
            .scenario(Scenario::new(Mode::RcceHsm).opt_level(OptLevel::O2))
            .run_scenario()
            .expect("O2 run");
        cache.stats()
    };
    let (cold, warm) = (stats(), stats());
    assert_eq!(warm.store.expect("store stats")[Stage::Compile].loads, 2);
    assert_eq!(cold.stages, warm.stages);
}

#[test]
fn corrupted_entry_falls_back_to_recompute() {
    let dir = temp_store("corrupt");
    let cold_cache = ArtifactCache::persistent(&dir).expect("open store");
    let cold_runs = run_all(&cold_cache);

    // Flip payload bytes in every compile entry.
    let compile_dir = dir.join("v2/compile");
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&compile_dir).expect("compile entries") {
        let path = entry.expect("dir entry").path();
        let mut bytes = std::fs::read(&path).expect("read entry");
        let len = bytes.len();
        bytes[len - 1] ^= 0xff;
        std::fs::write(&path, bytes).expect("rewrite entry");
        corrupted += 1;
    }
    assert!(corrupted >= 3, "all three programs were stored");

    let warm_cache = ArtifactCache::persistent(&dir).expect("reopen store");
    let warm_runs = run_all(&warm_cache);
    assert_eq!(cold_runs, warm_runs, "corruption never changes results");
    let store = warm_cache.stats().store.expect("store stats");
    assert_eq!(
        store[Stage::Compile].corrupt,
        corrupted,
        "every tampered entry detected"
    );
    assert_eq!(
        store[Stage::Compile].writes,
        corrupted,
        "recomputed programs written back"
    );
    assert_eq!(
        store[Stage::Translate].corrupt + store[Stage::Run].corrupt,
        0,
        "untouched shelves unaffected"
    );

    // Third pass: the rewritten entries verify again.
    let healed_cache = ArtifactCache::persistent(&dir).expect("reopen store");
    run_all(&healed_cache);
    let healed = healed_cache.stats().store.expect("store stats");
    assert_eq!(healed.total_misses(), 0);
    assert_eq!(healed.total_corrupt(), 0);
}

/// Regression: `ArtifactKey::Profile` ignored the chip (and the simulator
/// version), so two sessions with different `Pipeline::config(..)` over
/// one cache — or an `hsmd` restarted with another chip over one
/// `cache_dir` — were served each other's profile. Runs and profiles are
/// keyed by both now, in memory and through a store.
#[test]
fn a_different_chip_never_hits_another_chips_entries() {
    let dir = temp_store("chips");
    let table = SccConfig::table_6_1();
    let slow_dram = SccConfig {
        dram_service_cycles: table.dram_service_cycles * 4,
        ..table.clone()
    };
    let observe = |cache: &Arc<ArtifactCache>, chip: &SccConfig| {
        let session = Pipeline::new(SRC)
            .cores(2)
            .config(chip.clone())
            .cache(Arc::clone(cache));
        let run = session.run_scenario().expect("run");
        let profile = session.profile().expect("profile");
        assert_eq!(profile.run, run, "one chip, one answer");
        (run, profile.to_text())
    };

    let cache = ArtifactCache::persistent(&dir).expect("open store");
    let (table_run, table_profile) = observe(&cache, &table);
    let (slow_run, slow_profile) = observe(&cache, &slow_dram);
    assert!(
        slow_run.total_cycles > table_run.total_cycles,
        "slower DRAM shows"
    );
    assert_ne!(table_profile, slow_profile);
    let stats = cache.stats();
    for stage in [Stage::Run, Stage::Profile] {
        assert_eq!(
            (stats[stage].hits, stats[stage].misses),
            (0, 2),
            "{stage:?}"
        );
        assert_eq!(stats.store.expect("store")[stage].writes, 2, "{stage:?}");
    }
    assert_eq!(stats[Stage::Compile].misses, 1, "the chip compiles nothing");
    // The same two chips again, in memory: each finds its own entry.
    assert_eq!(
        observe(&cache, &table),
        (table_run.clone(), table_profile.clone())
    );
    assert_eq!(
        observe(&cache, &slow_dram),
        (slow_run.clone(), slow_profile.clone())
    );
    assert_eq!(cache.stats()[Stage::Run].misses, 2, "nothing re-simulated");

    // And through the store, in the opposite order.
    let warm = ArtifactCache::persistent(&dir).expect("reopen store");
    assert_eq!(observe(&warm, &slow_dram), (slow_run, slow_profile));
    assert_eq!(observe(&warm, &table), (table_run, table_profile));
    let store = warm.stats().store.expect("store");
    for stage in [Stage::Run, Stage::Profile] {
        assert_eq!(
            (store[stage].loads, store[stage].misses),
            (2, 0),
            "{stage:?}"
        );
    }
}
