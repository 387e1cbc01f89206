//! # hsm-bench — experiment harness behind the `figures` binary.
//!
//! Each function regenerates the data behind one table or figure of the
//! paper; the `figures` binary prints them (and with `--json` writes the
//! versioned run manifest from [`full_manifest`]). Host wall-clock is
//! measured from outside, by the repo-root `benchmark/` harness.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod manifest;
mod sharing;

pub use manifest::{
    full_manifest, golden_manifest, ManifestOptions, MANIFEST_PROGRAMS, MANIFEST_SCHEMA_VERSION,
};
pub use sharing::{all_pass, sharing_manifest, sharing_manifest_with};

use hsm_core::api::{sweep, Mode, SweepMatrix};
use hsm_core::api::{Pipeline, PipelineError};
use hsm_core::experiment::{self, BenchResult};
use hsm_workloads::Bench;
use scc_sim::SccConfig;
use std::fmt::Write as _;

/// The evaluation's core/thread count (Table 6.1: 32).
pub const EVAL_UNITS: usize = 32;

/// Writes a machine-readable artifact, creating its parent directory on
/// demand — `figures --json` must work in a fresh checkout where
/// `bench-out/` does not exist yet.
///
/// # Errors
///
/// Propagates directory-creation and write failures.
pub fn write_artifact(path: &str, content: &str) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, content)
}

/// The paper's running example (Example Code 4.1).
pub const EXAMPLE_4_1: &str = r#"
#include <stdio.h>
#include <pthread.h>

int global;
int *ptr;
int sum[3] = {0};

void *tf(void * tid) {
    int tLocal = (int)tid;
    sum[tLocal] += tLocal;
    sum[tLocal] += *ptr;
    pthread_exit(NULL);
}

int main() {
    int local = 0;
    int tmp = 1;
    ptr = &tmp;
    pthread_t threads[3];
    int rc;
    for(local = 0; local < 3; local++) {
        rc = pthread_create(&threads[local], NULL, tf, (void *) local);
    }
    for(local = 0; local < 3; local++) {
        pthread_join(threads[local], NULL);
        printf("Sum Array: %d\n", sum[local]);
    }
    return 0;
}
"#;

/// Renders Table 4.1 and Table 4.2 for the paper's Example Code 4.1.
pub fn analysis_tables() -> (String, String) {
    let tu = hsm_cir::parse(EXAMPLE_4_1).expect("example 4.1 parses");
    let analysis = hsm_analysis::ProgramAnalysis::analyze(&tu);
    (analysis.render_table_4_1(), analysis.render_table_4_2())
}

/// Runs the full Figure 6.1 / 6.2 grid: every benchmark, all three modes,
/// as one parallel sweep over a shared artifact cache (each benchmark's
/// source is parsed and analyzed once for its three runs).
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn run_evaluation(units: usize) -> Result<Vec<BenchResult>, PipelineError> {
    run_evaluation_with(units, 0)
}

/// [`run_evaluation`] with an explicit sweep worker count (0 = one per
/// available host core).
///
/// # Errors
///
/// Propagates pipeline failures.
pub(crate) fn run_evaluation_with(
    units: usize,
    workers: usize,
) -> Result<Vec<BenchResult>, PipelineError> {
    let config = SccConfig::table_6_1();
    let benches = Bench::all();
    let modes = [Mode::PthreadBaseline, Mode::RcceOffChip, Mode::RcceHsm];
    let matrix = SweepMatrix::benchmarks(&benches, &modes, units, config).workers(workers);
    let report = sweep(&matrix);
    let mut outcomes = report.outcomes.into_iter();
    benches
        .into_iter()
        .map(|bench| {
            let base = outcomes.next().expect("baseline point").into_run()?;
            let off = outcomes.next().expect("offchip point").into_run()?;
            let hsm = outcomes.next().expect("hsm point").into_run()?;
            let outputs_match = experiment::outputs_equivalent(&base, &off)
                && experiment::outputs_equivalent(&base, &hsm)
                && base.exit_code == off.exit_code
                && base.exit_code == hsm.exit_code;
            Ok(BenchResult {
                bench,
                pthread_cycles: base.timed_cycles,
                offchip_cycles: off.timed_cycles,
                hsm_cycles: hsm.timed_cycles,
                outputs_match,
            })
        })
        .collect()
}

/// Renders Figure 6.1: off-chip RCCE speedup over the pthread baseline.
pub fn render_fig_6_1(results: &[BenchResult]) -> String {
    let mut out = String::from(
        "Figure 6.1 — RCCE (off-chip shared memory, 32 cores) speedup over\n\
         the 32-thread pthread program on one core\n\n",
    );
    let _ = writeln!(out, "{:<18}{:>12}{:>10}", "Benchmark", "Speedup", "Match");
    out.push_str(&"-".repeat(40));
    out.push('\n');
    for r in results {
        let _ = writeln!(
            out,
            "{:<18}{:>10.1}x{:>10}",
            r.bench.name(),
            r.offchip_speedup(),
            if r.outputs_match { "ok" } else { "DIVERGED" }
        );
    }
    out
}

/// Renders Figure 6.2: run-time improvement of MPB placement over
/// off-chip-only.
pub fn render_fig_6_2(results: &[BenchResult]) -> String {
    let mut out = String::from(
        "Figure 6.2 — run time of off-chip-only vs MPB (Algorithm 3)\n\
         placement, 32 cores\n\n",
    );
    let _ = writeln!(
        out,
        "{:<18}{:>14}{:>14}{:>12}",
        "Benchmark", "Off-chip cyc", "MPB cyc", "Improve"
    );
    out.push_str(&"-".repeat(58));
    out.push('\n');
    let mut improvements = Vec::new();
    for r in results {
        let _ = writeln!(
            out,
            "{:<18}{:>14}{:>14}{:>10.1}x",
            r.bench.name(),
            r.offchip_cycles,
            r.hsm_cycles,
            r.hsm_improvement()
        );
        improvements.push(r.hsm_improvement());
    }
    let geo: f64 = improvements.iter().map(|v| v.ln()).sum::<f64>() / improvements.len() as f64;
    let _ = writeln!(out, "\ngeometric-mean improvement: {:.1}x", geo.exp());
    out
}

/// Runs and renders Figure 6.3: Pi Approximation speedup at several core
/// counts.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig_6_3(core_counts: &[usize]) -> Result<String, PipelineError> {
    let config = SccConfig::table_6_1();
    let rows = experiment::core_scaling(Bench::PiApprox, core_counts, &config)?;
    let mut out = String::from(
        "Figure 6.3 — Pi Approximation speedup over the single-core pthread\n\
         baseline at increasing core counts\n\n",
    );
    let _ = writeln!(out, "{:<10}{:>12}", "Cores", "Speedup");
    out.push_str(&"-".repeat(22));
    out.push('\n');
    for (cores, speedup) in rows {
        let _ = writeln!(out, "{:<10}{:>10.1}x", cores, speedup);
    }
    Ok(out)
}

/// Ablation E8: Dot Product off-chip run time as the number of memory
/// controllers varies (isolates MC queuing contention).
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn ablation_memory_controllers(units: usize) -> Result<String, PipelineError> {
    let mut out =
        String::from("Ablation — Dot Product (off-chip, 32 cores) vs memory controllers\n\n");
    let _ = writeln!(out, "{:<8}{:>14}{:>12}", "MCs", "Cycles", "Slowdown");
    out.push_str(&"-".repeat(34));
    out.push('\n');
    let mut base = None;
    for mcs in [4usize, 2, 1] {
        let mut config = SccConfig::table_6_1();
        config.memory_controllers = mcs;
        let params = Bench::DotProduct.default_params(units);
        let r = experiment::run(Bench::DotProduct, &params, Mode::RcceOffChip, &config)?;
        let b = *base.get_or_insert(r.timed_cycles);
        let _ = writeln!(
            out,
            "{:<8}{:>14}{:>10.2}x",
            mcs,
            r.timed_cycles,
            r.timed_cycles as f64 / b as f64
        );
    }
    Ok(out)
}

/// Ablation E9: partitioning policies on a constrained MPB (Stream at a
/// deliberately small on-chip budget) — quantifies Algorithm 3's
/// size-ascending greedy against frequency-density and size-descending.
pub fn ablation_partition_policies() -> String {
    use hsm_partition::{partition, MemorySpec, Policy, SharedVar};
    let vars = vec![
        SharedVar::array("a", 64 * 1024, 900_000, 8),
        SharedVar::array("b", 64 * 1024, 600_000, 8),
        SharedVar::array("c", 64 * 1024, 900_000, 8),
        SharedVar::new("nthreads", 4, 64),
        SharedVar::new("n", 4, 64),
        SharedVar::new("reps", 4, 32),
    ];
    let spec = MemorySpec::with_on_chip(128 * 1024);
    let mut out =
        String::from("Ablation — partition policy quality (Stream variables, 128 KB MPB)\n\n");
    let _ = writeln!(
        out,
        "{:<20}{:>14}{:>20}",
        "Policy", "On-chip B", "On-chip access %"
    );
    out.push_str(&"-".repeat(54));
    out.push('\n');
    for policy in [
        Policy::SizeAscending,
        Policy::FrequencyDensity,
        Policy::SizeDescending,
        Policy::OffChipOnly,
    ] {
        let plan = partition(&vars, &spec, policy);
        let _ = writeln!(
            out,
            "{:<20}{:>14}{:>19.1}%",
            format!("{policy:?}"),
            plan.on_chip_used,
            plan.on_chip_access_fraction() * 100.0
        );
    }
    out
}

/// Extension E10 (§7.2): running programs with more threads than the
/// conversion's core count by folding thread work onto fewer cores.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn thread_folding(thread_counts: &[usize]) -> Result<String, PipelineError> {
    let config = SccConfig::table_6_1();
    let mut out =
        String::from("§7.2 extension — Pi with more threads than cores (folded onto 48)\n\n");
    let _ = writeln!(out, "{:<10}{:>10}{:>12}", "Threads", "Cores", "Speedup");
    out.push_str(&"-".repeat(32));
    out.push('\n');
    for &threads in thread_counts {
        let cores = threads.min(config.cores);
        let mut params = Bench::PiApprox.default_params(threads);
        params.threads = threads;
        let src = hsm_workloads::source(Bench::PiApprox, &params);
        let session = Pipeline::new(src).cores(cores).config(config.clone());
        let base = session
            .clone()
            .scenario(Mode::PthreadBaseline.into())
            .run_scenario()?;
        // Translating a T-thread program for C < T cores triggers the
        // translator's many-to-one fold loop.
        let hsm = session.run_scenario()?;
        let _ = writeln!(
            out,
            "{:<10}{:>10}{:>10.1}x",
            threads,
            cores,
            base.timed_cycles as f64 / hsm.timed_cycles.max(1) as f64
        );
    }
    Ok(out)
}

/// STREAM-style per-kernel bandwidth table in all three configurations
/// (the breakdown behind the Stream bar of Figures 6.1/6.2).
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn stream_kernel_table(units: usize) -> Result<String, PipelineError> {
    use hsm_workloads::{stream_kernel_source, Params, StreamKernel};
    let config = SccConfig::table_6_1();
    let params = Params {
        threads: units,
        size: 12_288,
        reps: 2,
    };
    let mut out = String::from("Stream kernels — effective bandwidth (MB/s, simulated)\n\n");
    let _ = writeln!(
        out,
        "{:<8}{:>16}{:>16}{:>16}",
        "Kernel", "Pthread 1-core", "RCCE off-chip", "RCCE MPB"
    );
    out.push_str(&"-".repeat(56));
    out.push('\n');
    let freq_hz = f64::from(config.core_freq_mhz) * 1e6;
    for kernel in StreamKernel::all() {
        let src = stream_kernel_source(kernel, &params);
        let bytes = (kernel.bytes_per_elem() * params.size * params.reps) as f64;
        let mbps = |cycles: u64| bytes / (cycles as f64 / freq_hz) / 1e6;
        // One session per kernel: the three configurations share its
        // parsed unit and analysis through the session cache.
        let session = Pipeline::new(src).cores(units).config(config.clone());
        let base = session
            .clone()
            .scenario(Mode::PthreadBaseline.into())
            .run_scenario()?;
        let off = session
            .clone()
            .scenario(Mode::RcceOffChip.into())
            .run_scenario()?;
        let mpb = session.run_scenario()?;
        let _ = writeln!(
            out,
            "{:<8}{:>16.0}{:>16.0}{:>16.0}",
            kernel.name(),
            mbps(base.timed_cycles),
            mbps(off.timed_cycles),
            mbps(mpb.timed_cycles)
        );
    }
    Ok(out)
}

/// DVFS sweep: simulated wall-clock run time of a compute-bound and a
/// memory-bound benchmark at the SCC's frequency steps. Compute time
/// scales with 1/f; memory-bound time scales sub-linearly because the
/// DRAM is a fixed physical latency (the memory wall).
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn dvfs_sweep(units: usize) -> Result<String, PipelineError> {
    let mut out = String::from("DVFS sweep — simulated run time (ms) of the HSM configuration\n\n");
    let _ = writeln!(
        out,
        "{:<12}{:>16}{:>16}",
        "Core MHz", "Pi (compute)", "Stream (memory)"
    );
    out.push_str(&"-".repeat(44));
    out.push('\n');
    for mhz in [1000u32, 800, 533, 266] {
        let config = SccConfig::table_6_1().with_core_freq(mhz);
        let pi_p = Bench::PiApprox.default_params(units);
        let st_p = Bench::Stream.default_params(units);
        let pi = experiment::run(Bench::PiApprox, &pi_p, Mode::RcceHsm, &config)?;
        let st = experiment::run(Bench::Stream, &st_p, Mode::RcceHsm, &config)?;
        let ms = |cycles: u64| cycles as f64 / (f64::from(mhz) * 1e6) * 1e3;
        let _ = writeln!(
            out,
            "{:<12}{:>16.3}{:>16.3}",
            mhz,
            ms(pi.timed_cycles),
            ms(st.timed_cycles)
        );
    }
    Ok(out)
}

/// Extension: Jacobi heat diffusion — barrier-per-iteration stencil,
/// the synchronization-heavy pattern §7.3's future work targets.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn jacobi_extension(core_counts: &[usize]) -> Result<String, PipelineError> {
    use hsm_workloads::{jacobi_source, Params};
    let config = SccConfig::table_6_1();
    let mut out = String::from("Extension — Jacobi 1-D heat diffusion (in-worker barriers)\n\n");
    let _ = writeln!(out, "{:<10}{:>12}{:>14}", "Cores", "Speedup", "Imbalance");
    out.push_str(&"-".repeat(36));
    out.push('\n');
    for &cores in core_counts {
        let p = Params {
            threads: cores,
            size: 4_096 + 2,
            reps: 24,
        };
        let src = jacobi_source(&p);
        let session = Pipeline::new(src).cores(cores).config(config.clone());
        let base = session
            .clone()
            .scenario(Mode::PthreadBaseline.into())
            .run_scenario()?;
        let hsm = session.run_scenario()?;
        let _ = writeln!(
            out,
            "{:<10}{:>10.1}x{:>14.2}",
            cores,
            base.timed_cycles as f64 / hsm.timed_cycles.max(1) as f64,
            hsm.imbalance()
        );
    }
    out.push_str(
        "\nPer-iteration chip-wide barriers shave the scaling below the\n\
         compute-bound near-linear curve of Figure 6.3; the gap widens as\n\
         the per-core slice shrinks.\n",
    );
    Ok(out)
}

/// Renders Table 6.1.
pub fn render_table_6_1(units: usize) -> String {
    SccConfig::table_6_1().render_table_6_1(units, units)
}

/// Renders the translated RCCE source of Example Code 4.1 (Example 4.2).
/// Uses off-chip placement so the allocations read `RCCE_shmalloc`, as in
/// the thesis' listing.
pub fn render_example_4_2() -> String {
    let tu = hsm_cir::parse(EXAMPLE_4_1).expect("example parses");
    hsm_translate::translate(
        &tu,
        hsm_translate::TranslateOptions {
            cores: 32,
            policy: hsm_partition::Policy::OffChipOnly,
        },
    )
    .expect("example translates")
    .to_source()
}

#[cfg(test)]
mod tests {
    #[test]
    fn write_artifact_creates_missing_output_directories() {
        let root = std::env::temp_dir().join(format!("hsm-bench-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let path = root.join("nested/BENCH_test.json");
        let path = path.to_str().expect("utf-8 temp path");
        super::write_artifact(path, "{}\n").expect("writes through missing dirs");
        assert_eq!(std::fs::read_to_string(path).expect("readable"), "{}\n");
        // Overwrites in place on the second run.
        super::write_artifact(path, "{\"v\": 2}\n").expect("rewrites");
        assert_eq!(
            std::fs::read_to_string(path).expect("readable"),
            "{\"v\": 2}\n"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
