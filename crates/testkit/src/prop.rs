//! A shrink-free property runner.
//!
//! Each case runs with a [`SplitMix64`] derived deterministically from a
//! base seed and the case index, so the whole suite is reproducible by
//! construction. On failure the runner reports the property name, the
//! case index and the exact case seed; the fix workflow is to pin that
//! seed in a **named regression test** (see the ported
//! `proptest_*`-suites for examples) — no shrinking needed, because the
//! generators here are written to produce small inputs by default.
//!
//! Environment knobs:
//!
//! * `TESTKIT_SEED` — overrides the base seed (default
//!   [`DEFAULT_BASE_SEED`]);
//! * `TESTKIT_CASES` — overrides every property's case count (useful for
//!   a deep overnight run: `TESTKIT_CASES=10000 cargo test`).

use crate::rng::SplitMix64;

/// The fixed base seed: hex of "HSMREPRO" truncated — arbitrary, but
/// stable so that CI failures reproduce locally with no extra flags.
const DEFAULT_BASE_SEED: u64 = 0x4853_4D52_4550_524F;

/// Resolves the requested case count against the `TESTKIT_CASES`
/// override.
fn default_cases(requested: u32) -> u32 {
    match std::env::var("TESTKIT_CASES") {
        Ok(v) => v.parse().unwrap_or(requested),
        Err(_) => requested,
    }
}

fn base_seed() -> u64 {
    match std::env::var("TESTKIT_SEED") {
        Ok(v) => v.parse().unwrap_or(DEFAULT_BASE_SEED),
        Err(_) => DEFAULT_BASE_SEED,
    }
}

/// Derives the per-case seed, the one a failing case reports.
fn case_seed(base: u64, name: &str, case: u32) -> u64 {
    // Fold the property name into the seed so distinct properties explore
    // distinct parts of the space even at the same base seed.
    let mut h = base;
    for b in name.bytes() {
        h = h.wrapping_mul(0x100_0000_01B3).wrapping_add(u64::from(b));
    }
    SplitMix64::new(h.wrapping_add(u64::from(case))).next_u64()
}

/// Runs `cases` instances of property `body`, each with a fresh
/// deterministic generator. Panics (with the case seed in the message) on
/// the first failing case.
pub fn check(name: &str, cases: u32, mut body: impl FnMut(&mut SplitMix64)) {
    let base = base_seed();
    let cases = default_cases(cases);
    for case in 0..cases {
        let seed = case_seed(base, name, case);
        run_one(name, case, seed, &mut body);
    }
}

/// Replays a single case of a property from its reported seed — the
/// regression-pinning entry point.
pub fn check_seeded(name: &str, seed: u64, mut body: impl FnMut(&mut SplitMix64)) {
    run_one(name, 0, seed, &mut body);
}

fn run_one(name: &str, case: u32, seed: u64, body: &mut impl FnMut(&mut SplitMix64)) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut rng = SplitMix64::new(seed);
        body(&mut rng);
    }));
    if let Err(payload) = result {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string panic>");
        panic!(
            "property '{name}' failed at case {case} (seed {seed:#018x}): {msg}\n\
             replay with testkit::check_seeded(\"{name}\", {seed:#018x}, ...)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut n = 0;
        check("counts_cases", 17, |_| n += 1);
        assert_eq!(n, 17);
    }

    #[test]
    fn failing_property_reports_seed() {
        let caught = std::panic::catch_unwind(|| {
            check("always_fails", 3, |_| panic!("boom"));
        });
        let err = caught.expect_err("must fail");
        let msg = err.downcast_ref::<String>().expect("string panic").clone();
        assert!(msg.contains("always_fails"), "{msg}");
        assert!(msg.contains("seed 0x"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn case_seeds_are_deterministic_and_distinct() {
        let a = case_seed(DEFAULT_BASE_SEED, "p", 0);
        let b = case_seed(DEFAULT_BASE_SEED, "p", 0);
        let c = case_seed(DEFAULT_BASE_SEED, "p", 1);
        let d = case_seed(DEFAULT_BASE_SEED, "q", 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn seeded_replay_sees_same_stream() {
        let mut first = None;
        check_seeded("replay", 0xDEAD_BEEF, |rng| {
            first = Some(rng.next_u64());
        });
        let mut second = None;
        check_seeded("replay", 0xDEAD_BEEF, |rng| {
            second = Some(rng.next_u64());
        });
        assert_eq!(first, second);
    }
}
