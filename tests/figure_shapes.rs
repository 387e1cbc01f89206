//! Integration test E5–E7: the evaluation figures' *shapes* hold at
//! reduced scale — who wins, in what order, and where the crossovers are.
//! (Absolute magnitudes are the `figures` binary's job at full scale.)

use hsm_core::api::Mode;
use hsm_core::experiment::{run, run_all_modes};
use hsm_workloads::{Bench, Params};
use scc_sim::SccConfig;

fn params(bench: Bench, threads: usize) -> Params {
    let (size, reps) = match bench {
        Bench::CountPrimes => (2_000, 1),
        Bench::PiApprox => (40_000, 1),
        Bench::Sum35 => (60_000, 1),
        Bench::DotProduct => (2_048, 1),
        Bench::LuDecomp => (8, 16),
        Bench::Stream => (2_048, 1),
    };
    Params {
        threads,
        size,
        reps,
    }
}

/// Figure 6.1's shape: converting to N cores speeds up every benchmark,
/// and compute-bound programs gain more than memory-bound ones.
#[test]
fn fig_6_1_shape() {
    let config = SccConfig::table_6_1();
    let n = 16;
    let pi = run_all_modes(Bench::PiApprox, &params(Bench::PiApprox, n), &config).expect("pi");
    let stream = run_all_modes(Bench::Stream, &params(Bench::Stream, n), &config).expect("st");
    assert!(pi.outputs_match && stream.outputs_match);
    // Compute-bound approaches linear speedup.
    assert!(
        pi.offchip_speedup() > 0.75 * n as f64,
        "pi speedup {:.1} should be near {n}x",
        pi.offchip_speedup()
    );
    // Memory-bound still wins, but far below linear.
    assert!(
        stream.offchip_speedup() > 1.0,
        "{:.2}",
        stream.offchip_speedup()
    );
    assert!(
        stream.offchip_speedup() < 0.75 * n as f64,
        "stream speedup {:.1} should stay well below linear",
        stream.offchip_speedup()
    );
    assert!(pi.offchip_speedup() > stream.offchip_speedup());
}

/// Figure 6.2's shape: MPB placement helps memory-heavy benchmarks a lot,
/// compute-bound benchmarks marginally.
#[test]
fn fig_6_2_shape() {
    let config = SccConfig::table_6_1();
    let n = 16;
    let stream = run_all_modes(Bench::Stream, &params(Bench::Stream, n), &config).expect("st");
    let pi = run_all_modes(Bench::PiApprox, &params(Bench::PiApprox, n), &config).expect("pi");
    assert!(
        stream.hsm_improvement() > 2.0,
        "stream should gain >2x from MPB, got {:.2}",
        stream.hsm_improvement()
    );
    assert!(
        pi.hsm_improvement() < 1.3,
        "pi barely touches shared data, got {:.2}",
        pi.hsm_improvement()
    );
    assert!(stream.hsm_improvement() > pi.hsm_improvement());
}

/// Figure 6.3's shape: Pi speedup grows monotonically (within tolerance)
/// with the core count and is near-linear.
#[test]
fn fig_6_3_shape() {
    let config = SccConfig::table_6_1();
    let counts = [1usize, 2, 4, 8];
    let mut last = 0.0f64;
    for &cores in &counts {
        let p = params(Bench::PiApprox, cores);
        let base = run(Bench::PiApprox, &p, Mode::PthreadBaseline, &config).expect("base");
        let hsm = run(Bench::PiApprox, &p, Mode::RcceHsm, &config).expect("hsm");
        let speedup = base.timed_cycles as f64 / hsm.timed_cycles as f64;
        assert!(
            speedup > last * 1.3,
            "speedup must keep growing: {speedup:.2} after {last:.2} at {cores} cores"
        );
        assert!(
            speedup > 0.7 * cores as f64,
            "near-linear expected: {speedup:.2} at {cores} cores"
        );
        last = speedup;
    }
}

/// The E8 ablation's shape: fewer memory controllers slow down the
/// off-chip Dot Product.
#[test]
fn mc_contention_shape() {
    let p = params(Bench::DotProduct, 16);
    let mut four = SccConfig::table_6_1();
    four.memory_controllers = 4;
    let mut one = SccConfig::table_6_1();
    one.memory_controllers = 1;
    let r4 = run(Bench::DotProduct, &p, Mode::RcceOffChip, &four).expect("4 MCs");
    let r1 = run(Bench::DotProduct, &p, Mode::RcceOffChip, &one).expect("1 MC");
    assert!(
        r1.timed_cycles > r4.timed_cycles,
        "1 MC {} must be slower than 4 MCs {}",
        r1.timed_cycles,
        r4.timed_cycles
    );
}

/// LU's default configuration spills the MPB (the paper's observation),
/// while Stream's fits.
#[test]
fn lu_spills_stream_fits() {
    let mpb = 48 * 8192;
    let lu = Bench::LuDecomp.default_params(32);
    assert!(hsm_workloads::shared_footprint(Bench::LuDecomp, &lu) > mpb);
    let stream = Bench::Stream.default_params(32);
    assert!(hsm_workloads::shared_footprint(Bench::Stream, &stream) <= mpb);
}

/// Count Primes' block partition is imbalanced (the mechanism behind its
/// halved Figure 6.1 speedup); Pi's even partition is balanced.
#[test]
fn count_primes_is_imbalanced_pi_is_not() {
    let config = SccConfig::table_6_1();
    let primes = run(
        Bench::CountPrimes,
        &params(Bench::CountPrimes, 16),
        Mode::RcceHsm,
        &config,
    )
    .expect("primes");
    let pi = run(
        Bench::PiApprox,
        &params(Bench::PiApprox, 16),
        Mode::RcceHsm,
        &config,
    )
    .expect("pi");
    assert!(
        primes.imbalance() > 1.2,
        "primes imbalance {:.2} should exceed 1.2",
        primes.imbalance()
    );
    assert!(
        pi.imbalance() < 1.1,
        "pi imbalance {:.2} should be near 1",
        pi.imbalance()
    );
}
