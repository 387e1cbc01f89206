//! Golden regression test of the sharing-oracle sweep.
//!
//! Runs every corpus program (including the adversarial ones) under the
//! sharing-soundness oracle and asserts the rendered `sharing` section —
//! verdict counts, violation classes, culprit variables and pass flags —
//! is byte-identical to the checked-in golden. The section deliberately
//! contains no cycle stamps or raw addresses, so it only moves when the
//! oracle's *semantic* output moves:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p hsm-bench --test sharing_golden
//! ```

use hsm_bench::{all_pass, sharing_manifest};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens/sharing_golden.json")
}

#[test]
fn sharing_section_matches_golden() {
    let sharing = sharing_manifest().expect("corpus sweep runs");
    assert!(
        all_pass(&sharing),
        "an expectation failed:\n{}",
        sharing.render()
    );
    let rendered = sharing.render();
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
        let mismatch = rendered
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match mismatch {
            Some((i, (got, want))) => panic!(
                "sharing section diverged from golden at line {}:\n  golden: {want}\n  now:    {got}\n\
                 If the change is intentional, regenerate with UPDATE_GOLDENS=1.",
                i + 1
            ),
            None => panic!(
                "sharing section length changed: golden {} lines, now {} lines.\n\
                 If the change is intentional, regenerate with UPDATE_GOLDENS=1.",
                expected.lines().count(),
                rendered.lines().count()
            ),
        }
    }
}
