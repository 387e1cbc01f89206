//! Integration test: semantic equivalence across all six benchmarks — the
//! pthread baseline, the off-chip RCCE conversion and the HSM (MPB)
//! conversion must produce the same program output and the same result as
//! the Rust reference model. (Reduced problem sizes keep debug-mode
//! runtime reasonable.)

use hsm_core::experiment::{outputs_equivalent, run, Mode};
use hsm_workloads::{reference_exit, Bench, Params};
use scc_sim::SccConfig;

fn tiny(bench: Bench, threads: usize) -> Params {
    let (size, reps) = match bench {
        Bench::CountPrimes => (800, 1),
        Bench::PiApprox => (8_000, 1),
        Bench::Sum35 => (12_000, 1),
        Bench::DotProduct => (512, 1),
        Bench::LuDecomp => (6, 8),
        Bench::Stream => (512, 1),
    };
    Params {
        threads,
        size,
        reps,
    }
}

fn check(bench: Bench, threads: usize) {
    let config = SccConfig::table_6_1();
    let p = tiny(bench, threads);
    let expected = reference_exit(bench, &p);

    let base = run(bench, &p, Mode::PthreadBaseline, &config)
        .unwrap_or_else(|e| panic!("{bench} baseline: {e}"));
    assert_eq!(base.exit_code, expected, "{bench} baseline exit");

    let off = run(bench, &p, Mode::RcceOffChip, &config)
        .unwrap_or_else(|e| panic!("{bench} off-chip: {e}"));
    assert_eq!(off.exit_code, expected, "{bench} off-chip exit");
    assert!(
        outputs_equivalent(&base, &off),
        "{bench} off-chip output diverged:\n{:?}\nvs\n{:?}",
        base.output_sorted(),
        off.output_sorted()
    );

    let hsm = run(bench, &p, Mode::RcceHsm, &config).unwrap_or_else(|e| panic!("{bench} hsm: {e}"));
    assert_eq!(hsm.exit_code, expected, "{bench} hsm exit");
    assert!(
        outputs_equivalent(&base, &hsm),
        "{bench} hsm output diverged"
    );
}

#[test]
fn count_primes_equivalence() {
    check(Bench::CountPrimes, 8);
}

#[test]
fn pi_equivalence() {
    check(Bench::PiApprox, 8);
}

#[test]
fn sum35_equivalence() {
    check(Bench::Sum35, 8);
}

#[test]
fn dot_product_equivalence() {
    check(Bench::DotProduct, 8);
}

#[test]
fn lu_equivalence() {
    check(Bench::LuDecomp, 8);
}

#[test]
fn stream_equivalence() {
    check(Bench::Stream, 8);
}

/// Equivalence must hold at awkward thread counts too (work does not
/// divide evenly; the last thread absorbs the remainder).
#[test]
fn uneven_partitions_are_correct() {
    for bench in [Bench::PiApprox, Bench::Sum35, Bench::CountPrimes] {
        check(bench, 7);
    }
}

/// Determinism: the same configuration simulated twice gives identical
/// cycle counts and output.
#[test]
fn simulation_is_deterministic() {
    let config = SccConfig::table_6_1();
    let p = tiny(Bench::Stream, 8);
    let a = run(Bench::Stream, &p, Mode::RcceHsm, &config).expect("first");
    let b = run(Bench::Stream, &p, Mode::RcceHsm, &config).expect("second");
    assert_eq!(a.timed_cycles, b.timed_cycles);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.output_text(), b.output_text());
}

/// Stage 5 prints the translated program and the driver re-parses it: a
/// float literal has to come back a float. `1e16` used to be printed as
/// `10000000000000000`, turning `1e16 / 3` into an integer division in
/// the RCCE program only, and `1e300` as a 301-digit integer that failed
/// the re-parse.
#[test]
fn large_float_literals_survive_translation() {
    use hsm_core::api::Pipeline;
    let source = "\
#include <stdio.h>
#include <pthread.h>
double out[2];
void *tf(void *tid) {
    int id = (int)tid;
    double third = 1e16 / 3;
    double big = 1e300;
    out[id] = third * 2 - 6666666666666660 + big / 1e299;
    pthread_exit(NULL);
}
int main() {
    pthread_t threads[2];
    int t;
    for (t = 0; t < 2; t++) pthread_create(&threads[t], NULL, tf, (void *)t);
    for (t = 0; t < 2; t++) pthread_join(threads[t], NULL);
    printf(\"%.1f\\n\", out[0] + out[1]);
    return (int)(out[0] + out[1]);
}";
    // 1e16 / 3 = 3333333333333333.5 in doubles; twice that ends in 7.
    let run = |mode: Mode| {
        Pipeline::new(source)
            .cores(2)
            .scenario(mode.into())
            .run_scenario()
            .unwrap_or_else(|e| panic!("{}: {e}", mode.label()))
    };
    let base = run(Mode::PthreadBaseline);
    assert_eq!(base.exit_code, 2 * (7 + 10));
    for mode in [Mode::RcceOffChip, Mode::RcceHsm] {
        let translated = run(mode);
        assert_eq!(translated.exit_code, base.exit_code, "{}", mode.label());
        assert!(outputs_equivalent(&base, &translated), "{}", mode.label());
    }
}
