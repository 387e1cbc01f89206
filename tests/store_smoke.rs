//! Tier-1 smoke test of the disk tier: what one `Pipeline` session
//! writes to a `cache_dir` — translation, bytecode and the run result —
//! the next one loads; a damaged entry on either shelf is counted, thrown
//! away and recomputed, and the run never notices.
//!
//! `crates/core` tests the store shelf by shelf; this is the one test of
//! it that `cargo test -q` at the repository root reaches.

use hsm_core::{ArtifactCache, Mode, Pipeline, Stage, StoreStats};
use hsm_exec::RunResult;
use std::fs;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hsm-store-smoke-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One fresh session over `dir`: the translated `matrix_vector` on four
/// cores, and what the disk tier did for it.
fn session(dir: &Path) -> (RunResult, StoreStats) {
    let source = fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus/matrix_vector.c"),
    )
    .expect("corpus");
    let cache = ArtifactCache::persistent(dir).expect("cache_dir opens");
    let run = Pipeline::new(source)
        .cores(4)
        .scenario(Mode::RcceHsm.into())
        .cache(cache.clone())
        .run_scenario()
        .expect("matrix_vector runs");
    (
        run,
        cache.stats().store.expect("a persistent cache has a store"),
    )
}

/// The one entry of `stage`'s shelf.
fn only_entry(dir: &Path, stage: Stage) -> PathBuf {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir.join("v2").join(stage.label()))
        .expect("stage shelf")
        .map(|entry| entry.expect("entry").path())
        .collect();
    assert_eq!(entries.len(), 1, "{entries:?}");
    entries.remove(0)
}

#[test]
fn a_second_session_loads_what_the_first_wrote() {
    let dir = temp_dir("warm");
    let (cold, wrote) = session(&dir);
    assert!(
        wrote.total_writes() > 0 && wrote.total_misses() > 0,
        "{wrote:?}"
    );
    assert_eq!((wrote.total_loads(), wrote.total_corrupt()), (0, 0));

    let (warm, loaded) = session(&dir);
    assert!(loaded.total_loads() > 0, "{loaded:?}");
    assert_eq!(
        (
            loaded.total_misses(),
            loaded.total_writes(),
            loaded.total_corrupt()
        ),
        (0, 0, 0),
        "{loaded:?}"
    );
    assert_eq!(warm, cold);
    assert_eq!(
        loaded[Stage::Run].loads,
        1,
        "the run was not simulated again"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_damaged_entry_costs_a_recompute_never_a_panic() {
    let dir = temp_dir("damaged");
    let (cold, _) = session(&dir);
    type Damage = fn(&mut Vec<u8>);
    let truncate: Damage = |bytes| bytes.truncate(bytes.len() / 2);
    let flip_a_bit: Damage = |bytes| {
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x10;
    };
    let damage = [("truncated", truncate), ("bit-flipped", flip_a_bit)];
    for stage in [Stage::Compile, Stage::Run] {
        for (what, spoil) in damage {
            let what = format!("{what} {} entry", stage.label());
            let entry = only_entry(&dir, stage);
            let mut bytes = fs::read(&entry).expect("read entry");
            spoil(&mut bytes);
            fs::write(&entry, bytes).expect("rewrite entry");

            let (run, stats) = session(&dir);
            assert_eq!(stats.total_corrupt(), 1, "{what}: {stats:?}");
            assert_eq!(
                (stats[stage].corrupt, stats[stage].writes),
                (1, 1),
                "{what}: counted, recomputed and written back"
            );
            assert_eq!(run, cold, "{what}");
            // The rewritten entry is whole again.
            let (_, healed) = session(&dir);
            assert_eq!(
                (healed.total_corrupt(), healed.total_misses()),
                (0, 0),
                "{what}"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}
