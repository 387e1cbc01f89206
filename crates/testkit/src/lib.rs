//! # testkit — hermetic, dependency-free test support
//!
//! The repository must build and test with **zero** external crates (the
//! CI environment has no network), so this crate supplies the two
//! capabilities the workspace previously pulled from crates.io:
//!
//! * [`SplitMix64`] — a tiny, deterministic PRNG (the `rand` replacement);
//! * [`check`] / [`check_seeded`] — a shrink-free property runner (the
//!   `proptest` replacement): every case derives from a reported seed, so
//!   a failure is reproduced by pinning that seed in a named regression
//!   test rather than by shrinking.
//!
//! ```
//! use testkit::{check, SplitMix64};
//!
//! check("addition_commutes", 64, |rng| {
//!     let a = rng.gen_range_i64(-1000, 1000);
//!     let b = rng.gen_range_i64(-1000, 1000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod prop;
mod rng;

pub use prop::{check, check_seeded};
pub use rng::SplitMix64;
