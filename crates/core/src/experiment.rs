//! Experiment drivers for every table and figure in the evaluation:
//! one benchmark in one mode ([`run`]), in all three modes
//! ([`run_all_modes`]) and across core counts ([`core_scaling`]).

use crate::pipeline::{Pipeline, PipelineError};
use crate::scenario::{Mode, Scenario};
use crate::sweep::{sweep, SweepMatrix, SweepTask};
use hsm_exec::RunResult;
use hsm_workloads::{Bench, Params};
use scc_sim::SccConfig;
use std::sync::Arc;

/// Runs one benchmark in one mode. A [`Mode::TaskDataflow`] run
/// expects the source to use the `task_spawn` API.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn run(
    bench: Bench,
    params: &Params,
    mode: Mode,
    config: &SccConfig,
) -> Result<RunResult, PipelineError> {
    Pipeline::new(hsm_workloads::source(bench, params))
        .cores(params.threads)
        .scenario(Scenario::new(mode))
        .config(config.clone())
        .run_scenario()
}

/// One bar of Figure 6.1 (or one pair of Figure 6.2).
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Which benchmark.
    pub bench: Bench,
    /// Baseline (1-core pthread) run time in cycles.
    pub pthread_cycles: u64,
    /// Off-chip-only RCCE run time in cycles.
    pub offchip_cycles: u64,
    /// HSM (MPB) RCCE run time in cycles.
    pub hsm_cycles: u64,
    /// Whether the three runs produced the same program output
    /// (multiset of printed lines and exit codes).
    pub outputs_match: bool,
}

impl BenchResult {
    /// Figure 6.1's y-axis: baseline time / off-chip RCCE time.
    pub fn offchip_speedup(&self) -> f64 {
        self.pthread_cycles as f64 / self.offchip_cycles.max(1) as f64
    }

    /// Figure 6.2's comparison: off-chip time / on-chip time.
    pub fn hsm_improvement(&self) -> f64 {
        self.offchip_cycles as f64 / self.hsm_cycles.max(1) as f64
    }
}

/// Runs one benchmark in all three modes — through one shared-cache
/// sweep, so the source is parsed and analyzed once — and
/// cross-checks outputs.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn run_all_modes(
    bench: Bench,
    params: &Params,
    config: &SccConfig,
) -> Result<BenchResult, PipelineError> {
    let src: Arc<str> = hsm_workloads::source(bench, params).into();
    let matrix = SweepMatrix::new(config.clone())
        .point(
            "baseline",
            Arc::clone(&src),
            SweepTask::Run(Mode::PthreadBaseline.into()),
            params.threads,
        )
        .point(
            "offchip",
            Arc::clone(&src),
            SweepTask::Run(Mode::RcceOffChip.into()),
            params.threads,
        )
        .point(
            "hsm",
            src,
            SweepTask::Run(Mode::RcceHsm.into()),
            params.threads,
        );
    let report = sweep(&matrix);
    let mut outcomes = report.outcomes.into_iter();
    let base = outcomes.next().expect("baseline point").into_run()?;
    let off = outcomes.next().expect("offchip point").into_run()?;
    let hsm = outcomes.next().expect("hsm point").into_run()?;
    let outputs_match = outputs_equivalent(&base, &off)
        && outputs_equivalent(&base, &hsm)
        && base.exit_code == off.exit_code
        && base.exit_code == hsm.exit_code;
    Ok(BenchResult {
        bench,
        pthread_cycles: base.timed_cycles,
        offchip_cycles: off.timed_cycles,
        hsm_cycles: hsm.timed_cycles,
        outputs_match,
    })
}

/// Compares program outputs as deduplicated sorted line sets: the
/// pthread baseline prints each per-thread line once; the RCCE program
/// prints per-core lines (same multiset) but replicates any
/// post-barrier aggregate line on every core.
pub fn outputs_equivalent(a: &RunResult, b: &RunResult) -> bool {
    let mut la = a.output_sorted();
    let mut lb = b.output_sorted();
    la.dedup();
    lb.dedup();
    la == lb
}

/// Figure 6.3: Pi Approximation speedup over the baseline at several
/// core counts, swept in parallel.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn core_scaling(
    bench: Bench,
    core_counts: &[usize],
    config: &SccConfig,
) -> Result<Vec<(usize, f64)>, PipelineError> {
    let matrix = SweepMatrix::core_scaling(
        bench,
        &[Mode::PthreadBaseline, Mode::RcceHsm],
        core_counts,
        config.clone(),
    );
    let report = sweep(&matrix);
    let mut outcomes = report.outcomes.into_iter();
    let mut out = Vec::new();
    for &cores in core_counts {
        let base = outcomes.next().expect("baseline point").into_run()?;
        let hsm = outcomes.next().expect("hsm point").into_run()?;
        out.push((
            cores,
            base.timed_cycles as f64 / hsm.timed_cycles.max(1) as f64,
        ));
    }
    Ok(out)
}
