//! Integration tests of the persistent artifact store: a cold run
//! populates the on-disk store, a warm run over the same directory
//! reloads every artifact with zero store misses, corruption falls back
//! to recompute, and capacity eviction surfaces in the stats.

use hsm_core::api::{ArtifactCache, DiskStore, Mode, Pipeline, Stage};
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

#[test]
fn corrupted_entry_falls_back_to_recompute() {
    let dir = temp_store("corrupt");
    let cold_cache = ArtifactCache::persistent(&dir).expect("open store");
    let cold_runs = run_all(&cold_cache);

    // Flip payload bytes in every compile entry.
    let compile_dir = dir.join("v1/compile");
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
        store[Stage::Parse].corrupt,
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

#[test]
fn capacity_eviction_surfaces_in_cache_stats() {
    let dir = temp_store("evict");
    // A cap far below the combined entry sizes forces evictions.
    let store = DiskStore::with_capacity(&dir, 256).expect("open store");
    let cache = ArtifactCache::with_store(store);
    run_all(&cache);
    let stats = cache.stats().store.expect("store stats");
    assert!(stats.evictions > 0, "tiny cap must evict: {stats:?}");
}
