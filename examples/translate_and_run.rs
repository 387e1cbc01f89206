//! Runs one full evaluation point: Pi Approximation as a 16-thread pthread
//! program on one simulated core, then converted to a 16-core RCCE program
//! — the experiment behind one bar of Figure 6.1.
//!
//! ```text
//! cargo run --release --example translate_and_run
//! ```

use hsm_core::api::Mode;
use hsm_core::experiment::run;
use hsm_workloads::{Bench, Params};
use scc_sim::SccConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params {
        threads: 16,
        size: 200_000,
        reps: 1,
    };
    let config = SccConfig::table_6_1();
    let bench = Bench::PiApprox;

    println!(
        "benchmark: {bench}, {} threads/cores, {} steps\n",
        params.threads, params.size
    );

    let baseline = run(bench, &params, Mode::PthreadBaseline, &config)?;
    println!(
        "pthread baseline : {:>12} cycles ({:.3} ms simulated)",
        baseline.timed_cycles,
        baseline.seconds(config.core_freq_mhz) * 1e3
    );

    let offchip = run(bench, &params, Mode::RcceOffChip, &config)?;
    println!(
        "RCCE off-chip    : {:>12} cycles ({:.1}x speedup)",
        offchip.timed_cycles,
        baseline.timed_cycles as f64 / offchip.timed_cycles as f64
    );

    let hsm = run(bench, &params, Mode::RcceHsm, &config)?;
    println!(
        "RCCE + MPB (HSM) : {:>12} cycles ({:.1}x speedup)",
        hsm.timed_cycles,
        baseline.timed_cycles as f64 / hsm.timed_cycles as f64
    );

    let expected = hsm_workloads::reference_exit(bench, &params);
    assert_eq!(baseline.exit_code, expected, "baseline result");
    assert_eq!(offchip.exit_code, expected, "off-chip result");
    assert_eq!(hsm.exit_code, expected, "HSM result");
    println!("\nall three configurations computed pi identically (exit {expected})");
    Ok(())
}
