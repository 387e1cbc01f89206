//! The Profile artifact's determinism contract: its `hsmprofile` text
//! form must be byte-identical across fresh sessions, across sweep
//! worker counts, and across a cold-vs-warm persistent store.

use hsm_core::api::{fnv1a_bytes, ExecModel, Pipeline, Stage};
use hsm_core::api::{sweep, ArtifactCache, Mode, Scenario, SweepMatrix, SweepTask};
use scc_sim::SccConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// An 8-way decomposition that folds onto every core count in the
/// sweep below (2, 4, 8).
const SRC: &str = r#"
int sum[8];
void *tf(void *tid) {
    int i;
    int acc = 0;
    for (i = 0; i < 16; i++) acc = acc + (int)tid + i;
    sum[(int)tid] = acc;
    return tid;
}
int main() {
    pthread_t t[8];
    int i;
    int total = 0;
    for (i = 0; i < 8; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 8; i++) pthread_join(t[i], NULL);
    for (i = 0; i < 8; i++) total = total + sum[i];
    return total % 251;
}
"#;

/// A fresh store directory per test (under the system temp dir).
fn temp_store(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hsm-profile-test-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The 2-core point of the sweep below, wired to `cache` so its profile
/// run shares the compile-side artifacts the sweep deposited.
fn seed_pipeline(cache: &Arc<ArtifactCache>) -> Pipeline {
    Pipeline::new(SRC)
        .cores(2)
        .scenario(Scenario::new(Mode::RcceHsm))
        .cache(Arc::clone(cache))
}

/// A three-point core axis over one program.
fn matrix(cache: &Arc<ArtifactCache>) -> SweepMatrix {
    let src: Arc<str> = Arc::from(SRC);
    let mut m = SweepMatrix::new(SccConfig::table_6_1()).cache(Arc::clone(cache));
    for cores in [2usize, 4, 8] {
        m = m.point(
            format!("det/{cores}"),
            Arc::clone(&src),
            SweepTask::Run(Scenario::new(Mode::RcceHsm)),
            cores,
        );
    }
    m
}

#[test]
fn profile_text_is_byte_identical_across_fresh_sessions() {
    let a = Pipeline::new(SRC)
        .cores(4)
        .profile()
        .expect("first session");
    let b = Pipeline::new(SRC)
        .cores(4)
        .profile()
        .expect("second session");
    let text = a.to_text();
    assert_eq!(
        text,
        b.to_text(),
        "independent sessions must agree byte-for-byte"
    );
}

#[test]
fn sweep_worker_count_does_not_change_the_profile_text() {
    // Each cache is populated by a sweep at a different worker count;
    // the profile is then taken through that cache.
    let texts: Vec<String> = [1usize, 4]
        .into_iter()
        .map(|workers| {
            let cache = ArtifactCache::shared();
            let report = sweep(&matrix(&cache).workers(workers));
            assert_eq!(report.outcomes.len(), 3);
            let profile = seed_pipeline(&cache).profile().expect("profile");

            // Reading it back through an identically-keyed pipeline must
            // be a pure cache hit.
            let before = cache.stats()[Stage::Profile];
            assert_eq!(before.misses, 1, "one profiled run");
            seed_pipeline(&cache).profile().expect("profile lookup");
            let after = cache.stats()[Stage::Profile];
            assert_eq!(after.misses, before.misses, "lookup recomputed nothing");
            assert!(after.hits > before.hits, "lookup hit the artifact");
            profile.to_text()
        })
        .collect();
    assert_eq!(
        texts[0], texts[1],
        "worker fan-out must not perturb the profile"
    );
}

#[test]
fn profile_is_byte_identical_cold_vs_warm_store() {
    let dir = temp_store("profile");

    let cold_cache = ArtifactCache::persistent(&dir).expect("open store");
    let cold = seed_pipeline(&cold_cache).profile().expect("cold profile");
    let cold_stats = cold_cache.stats().store.expect("store stats present");
    assert!(
        cold_stats[Stage::Profile].writes > 0,
        "cold profile written back"
    );

    // A brand-new cache over the same directory: the profile loads from
    // disk through its binary codec instead of re-simulating.
    let warm_cache = ArtifactCache::persistent(&dir).expect("reopen store");
    let warm = seed_pipeline(&warm_cache).profile().expect("warm profile");
    let warm_stats = warm_cache.stats().store.expect("store stats present");
    assert!(
        warm_stats[Stage::Profile].loads > 0,
        "profile came from disk"
    );
    assert_eq!(
        warm_stats[Stage::Profile].misses,
        0,
        "warm run never misses"
    );
    assert_eq!(
        cold.to_text(),
        warm.to_text(),
        "the store round-trip must be byte-exact"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

fn corpus(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../corpus")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `hsmprofile` text of every corpus program under every mode that
/// applies to it and every execution model, hashed into one digest. A
/// change to how a profile is collected, stored or rendered that moves
/// any byte of any of these 81 texts moves the digest; a failing run
/// contributes its error message instead.
#[test]
fn corpus_profile_texts_are_pinned() {
    const PTHREAD: [(&str, usize); 8] = [
        ("example_4_1.c", 3),
        ("matrix_vector.c", 4),
        ("mutex_histogram.c", 4),
        ("switch_classifier.c", 2),
        ("escaping_local.c", 4),
        ("dot_product.c", 4),
        ("adversarial/escaping_arg.c", 4),
        ("adversarial/unlocked_counter.c", 4),
    ];
    const TASK: [(&str, usize); 3] = [
        ("task_matrix_vector.c", 4),
        ("task_histogram.c", 4),
        ("task_dot_product.c", 8),
    ];
    let paper_modes = [Mode::PthreadBaseline, Mode::RcceOffChip, Mode::RcceHsm];
    let points = PTHREAD
        .iter()
        .flat_map(|&(name, cores)| paper_modes.map(|mode| (name, cores, mode)))
        .chain(
            TASK.iter()
                .map(|&(name, cores)| (name, cores, Mode::TaskDataflow)),
        );
    let mut all = String::new();
    let mut runs = 0;
    for (name, cores, mode) in points {
        let src = corpus(name);
        for model in ExecModel::ALL {
            let text = Pipeline::new(src.as_str())
                .cores(cores)
                .scenario(Scenario::new(mode).exec_model(model))
                .profile()
                .map_or_else(|e| format!("error: {e}\n"), |p| p.to_text());
            all.push_str(&format!(
                "{name} {} {}\n{text}",
                mode.label(),
                model.label()
            ));
            runs += 1;
        }
    }
    assert_eq!(runs, 81);
    assert_eq!(
        format!("{:016x}", fnv1a_bytes(all.as_bytes())),
        "6634730515e30b09",
        "the corpus's profile texts moved"
    );
}
