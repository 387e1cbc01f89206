//! Tier-1 smoke test of the disk tier: what one `Pipeline` session
//! writes to a `cache_dir` — translation, bytecode and the run result —
//! the next one loads; a damaged entry on either shelf is counted, thrown
//! away and recomputed, and the run never notices.
//!
//! `crates/core` tests the store shelf by shelf; this is the one test of
//! it that `cargo test -q` at the repository root reaches.

use hsm_cir::print_unit;
use hsm_core::api::{ArtifactCache, Mode, OptLevel, Pipeline, Scenario, Stage, StoreStats};
use hsm_exec::RunResult;
use hsm_partition::Policy;
use hsm_workloads::Bench;
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

/// Every corpus program, and every paper workload at the reduced sizes
/// `crates/core`'s own tests use.
fn corpus_and_paper_sources() -> Vec<(String, String)> {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut sources: Vec<(String, String)> = fs::read_dir(&corpus)
        .expect("corpus dir")
        .map(|entry| entry.expect("entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "c"))
        .map(|path| {
            let source = fs::read_to_string(&path).expect("corpus program");
            (path.display().to_string(), source)
        })
        .collect();
    sources.sort();
    assert!(sources.len() >= 9, "{} corpus programs", sources.len());
    for bench in Bench::all() {
        let mut params = bench.default_params(4);
        params.size = match bench {
            Bench::CountPrimes => 2_000,
            Bench::PiApprox => 8_000,
            Bench::Sum35 => 16_000,
            Bench::DotProduct | Bench::Stream => 256,
            Bench::LuDecomp => 8,
        };
        params.reps = if bench == Bench::LuDecomp { 8 } else { 1 };
        sources.push((bench.to_string(), hsm_workloads::source(bench, &params)));
    }
    sources
}

/// Stage 5 prints its output once, to check it, and a `Translation` keeps
/// that text: it must be the text of the unit it travels with, and the
/// store must hand back the same text and unit.
#[test]
fn a_translation_keeps_the_text_it_was_checked_as() {
    let dir = temp_dir("source");
    for (name, source) in corpus_and_paper_sources() {
        for policy in [Policy::SizeAscending, Policy::OffChipOnly] {
            let what = format!("{name} under {policy:?}");
            let session = |expect_load: u64| {
                let cache = ArtifactCache::persistent(&dir).expect("cache_dir opens");
                let translation = Pipeline::new(source.as_str())
                    .cores(4)
                    .policy(policy)
                    .cache(cache.clone())
                    .translation()
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let store = cache.stats().store.expect("a persistent cache has a store");
                assert_eq!(store[Stage::Translate].loads, expect_load, "{what}");
                translation
            };
            let saved = session(0);
            assert_eq!(saved.source(), print_unit(&saved.unit), "{what}");
            assert_eq!(saved.to_source(), saved.source(), "{what}");
            let loaded = session(1);
            assert_eq!(loaded.source(), saved.source(), "{what}");
            assert_eq!(print_unit(&loaded.unit), print_unit(&saved.unit), "{what}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// An overflowing float literal lexes to +∞, and the translation stored
/// on disk must spell it so that it parses back: a cold O0 run and a
/// disk-warm O2 run of the same source (the second re-parses the stored
/// translation) exit alike.
#[test]
fn an_overflowing_float_literal_survives_the_translate_shelf() {
    let source = r#"#include <pthread.h>
int out[2];

void *tf(void *arg) {
    int id = (int)arg;
    double big = 1e999;
    out[id] = big > 1e308;
    pthread_exit(NULL);
}

int main() {
    pthread_t t[2];
    int i;
    for (i = 0; i < 2; i++) {
        pthread_create(&t[i], NULL, tf, (void *)i);
    }
    for (i = 0; i < 2; i++) {
        pthread_join(t[i], NULL);
    }
    return out[0] + out[1];
}
"#;
    let dir = temp_dir("overflow");
    let run = |level: OptLevel| {
        let cache = ArtifactCache::persistent(&dir).expect("cache_dir opens");
        Pipeline::new(source)
            .cores(2)
            .scenario(Scenario::new(Mode::RcceHsm).opt_level(level))
            .cache(cache)
            .run_scenario()
            .unwrap_or_else(|e| panic!("{level:?}: {e}"))
            .exit_code
    };
    let cold = run(OptLevel::O0);
    let warm = run(OptLevel::O2);
    assert_eq!((cold, warm), (2, 2));
    let _ = fs::remove_dir_all(&dir);
}
