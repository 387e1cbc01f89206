//! Golden regression test of the run manifest.
//!
//! Replays the golden corpus programs (Example 4.1 and the matrix-vector
//! product) through the full pipeline and asserts the deterministic
//! manifest — every memory counter, latency histogram bucket, cycle count
//! and IR size — is byte-identical to the checked-in golden. Any change to
//! the simulator's observable behaviour must come with a conscious golden
//! update:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p hsm-bench --test manifest_golden
//! ```

use hsm_bench::golden_manifest;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens/manifest_golden.json")
}

#[test]
fn manifest_matches_golden() {
    let rendered = golden_manifest().expect("golden programs run").render();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {} (regenerate with UPDATE_GOLDENS=1): {e}",
            path.display()
        )
    });
    if rendered != expected {
        // Find the first differing line for a readable failure.
        let mismatch = rendered
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match mismatch {
            Some((i, (got, want))) => panic!(
                "manifest diverged from golden at line {}:\n  golden: {want}\n  now:    {got}\n\
                 If the change is intentional, regenerate with UPDATE_GOLDENS=1.",
                i + 1
            ),
            None => panic!(
                "manifest length changed: golden {} lines, now {} lines.\n\
                 If the change is intentional, regenerate with UPDATE_GOLDENS=1.",
                expected.lines().count(),
                rendered.lines().count()
            ),
        }
    }
}

#[test]
fn golden_runs_are_reproducible() {
    // The property the golden file rests on: two fresh replays agree.
    let a = golden_manifest().expect("first run").render();
    let b = golden_manifest().expect("second run").render();
    assert_eq!(a, b);
}
