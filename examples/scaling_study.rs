//! A miniature Figure 6.3: Pi Approximation speedup at increasing core
//! counts, printed as an ASCII bar chart — driven by the parallel sweep
//! engine, so the whole core-count × mode matrix fans out over host
//! threads while the points share one artifact cache.
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use hsm_core::api::{sweep, Mode, SweepMatrix};
use hsm_workloads::Bench;
use scc_sim::SccConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SccConfig::table_6_1();
    let counts = [1usize, 2, 4, 8, 16, 24, 32];

    // One matrix, every (core count, mode) point; `sweep` fans the points
    // out over a work-stealing pool of host threads. Results are
    // deterministic regardless of the worker count.
    let matrix = SweepMatrix::core_scaling(
        Bench::PiApprox,
        &[Mode::PthreadBaseline, Mode::RcceHsm],
        &counts,
        config,
    );
    let report = sweep(&matrix);

    println!("Pi Approximation: RCCE speedup over the 1-core pthread baseline\n");
    let bench = Bench::PiApprox.name();
    let base_cycles = report
        .outcome(&format!("{bench}@1/baseline"))
        .and_then(|o| o.result.as_ref().ok())
        .and_then(|p| p.run_result())
        .map(|r| r.timed_cycles)
        .ok_or("1-core baseline point missing")?;
    for cores in counts {
        let hsm = report
            .outcome(&format!("{bench}@{cores}/hsm"))
            .ok_or("hsm point missing")?;
        let run = match &hsm.result {
            Ok(payload) => payload.run_result().ok_or("hsm payload is not a run")?,
            Err(e) => return Err(format!("{cores}-core hsm point failed: {e}").into()),
        };
        let speedup = base_cycles as f64 / run.timed_cycles as f64;
        let bar = "#".repeat(speedup.round() as usize);
        println!("{cores:>3} cores {speedup:>6.1}x  {bar}");
    }

    println!(
        "\nswept {} points on {} worker thread(s) in {:.1} ms",
        report.outcomes.len(),
        report.workers,
        report.host_wall_nanos as f64 / 1e6
    );
    println!(
        "artifact cache: {} hits / {} misses across the sweep",
        report.cache.total_hits(),
        report.cache.total_misses()
    );
    println!("\nnear-linear scaling: the workload is compute-bound, so the");
    println!("only shared traffic is one partial-sum store per core.");
    Ok(())
}
