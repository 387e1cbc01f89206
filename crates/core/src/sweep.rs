//! The parallel experiment sweep engine.
//!
//! [`sweep`] executes a benchmark × mode × core-count matrix
//! ([`SweepMatrix`]) as a work-stealing fan-out over std threads: workers
//! pull points off a shared queue, each point runs one deterministic
//! single-threaded simulation through an artifact-reuse
//! [`Pipeline`] session, and every session shares one
//! [`ArtifactCache`] so the baseline, off-chip and HSM runs of a
//! benchmark parse, analyze and partition its source exactly once.
//!
//! The report records, per point, the payload plus the host wall time,
//! and globally the cache hit/miss counters — both feed the versioned
//! JSON run manifest `figures --json` writes. Results are bit-identical
//! for any worker count: the simulations are pure functions of their
//! inputs, and the cache's pending-slot discipline keeps even the
//! hit/miss counters schedule-independent.

use crate::cache::{ArtifactCache, CacheStats};
use crate::metrics::PipelineMetrics;
use crate::pipeline::{Pipeline, PipelineError, SharingCheck, STAGE_STACK_BYTES};
use crate::scenario::{Mode, Scenario};
use hsm_exec::RunResult;
use hsm_partition::Policy;
use hsm_workloads::Bench;
use scc_sim::SccConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one sweep point executes. Every task carries its full
/// [`Scenario`] — mode, memory model and opt level travel together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepTask {
    /// A plain run of the given scenario.
    Run(Scenario),
    /// A run of the given scenario plus its per-stage pipeline metrics.
    RunMetered(Scenario),
    /// A run of the given scenario under the sharing-soundness oracle
    /// (what it audits follows the mode; see
    /// [`Pipeline::check_sharing`]).
    CheckSharing(Scenario),
}

impl SweepTask {
    /// A stable label for manifests and progress output.
    pub fn label(self) -> &'static str {
        match self {
            SweepTask::Run(s) | SweepTask::RunMetered(s) => s.label(),
            SweepTask::CheckSharing(s) => match s.mode {
                Mode::PthreadBaseline => "check_sharing",
                Mode::RcceOffChip | Mode::RcceHsm => "check_sharing_rcce",
                Mode::TaskDataflow => "check_sharing_task",
            },
        }
    }

    /// The scenario the task carries.
    pub fn scenario(self) -> Scenario {
        match self {
            SweepTask::Run(s) | SweepTask::RunMetered(s) | SweepTask::CheckSharing(s) => s,
        }
    }
}

/// One point of the sweep matrix.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Unique name the report is keyed by.
    pub name: String,
    /// The program source (shared, not cloned, across points).
    pub src: Arc<str>,
    /// What to execute (the task carries its [`Scenario`]: mode, memory
    /// model and opt level).
    pub task: SweepTask,
    /// Participating core count.
    pub cores: usize,
    /// Placement policy (defaults from the task's mode).
    pub policy: Policy,
}

/// A benchmark × mode × core-count matrix plus execution knobs.
#[derive(Debug, Clone)]
pub struct SweepMatrix {
    /// The points to execute, in report order.
    pub points: Vec<SweepPoint>,
    /// The simulated chip every point runs on.
    pub config: SccConfig,
    /// Worker threads (0 = one per available host core).
    pub workers: usize,
    /// Shared artifact cache (a fresh one per sweep when `None`).
    pub cache: Option<Arc<ArtifactCache>>,
}

impl SweepMatrix {
    /// An empty matrix over `config`.
    pub fn new(config: SccConfig) -> Self {
        SweepMatrix {
            points: Vec::new(),
            config,
            workers: 0,
            cache: None,
        }
    }

    /// Sets the worker-thread count (0 = one per available host core).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Attaches a shared cache instead of a per-sweep private one.
    #[must_use]
    pub fn cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Appends a point with the task's default policy.
    #[must_use]
    pub fn point(
        mut self,
        name: impl Into<String>,
        src: Arc<str>,
        task: SweepTask,
        cores: usize,
    ) -> Self {
        self.points.push(SweepPoint {
            name: name.into(),
            src,
            task,
            cores,
            policy: task.scenario().mode.policy(),
        });
        self
    }

    /// The full benchmark × mode grid at one core count, named
    /// `"{bench}/{mode label}"`.
    pub fn benchmarks(benches: &[Bench], modes: &[Mode], units: usize, config: SccConfig) -> Self {
        let mut matrix = SweepMatrix::new(config);
        for &bench in benches {
            let params = bench.default_params(units);
            let src: Arc<str> = hsm_workloads::source(bench, &params).into();
            for &mode in modes {
                let task = SweepTask::Run(Scenario::new(mode));
                matrix = matrix.point(
                    format!("{}/{}", bench.name(), task.label()),
                    Arc::clone(&src),
                    task,
                    params.threads,
                );
            }
        }
        matrix
    }

    /// One benchmark across several core counts in the given modes, named
    /// `"{bench}@{cores}/{mode label}"`.
    pub fn core_scaling(
        bench: Bench,
        modes: &[Mode],
        core_counts: &[usize],
        config: SccConfig,
    ) -> Self {
        let mut matrix = SweepMatrix::new(config);
        for &cores in core_counts {
            let params = bench.default_params(cores);
            let src: Arc<str> = hsm_workloads::source(bench, &params).into();
            for &mode in modes {
                let task = SweepTask::Run(Scenario::new(mode));
                matrix = matrix.point(
                    format!("{}@{}/{}", bench.name(), cores, task.label()),
                    Arc::clone(&src),
                    task,
                    cores,
                );
            }
        }
        matrix
    }
}

/// What a completed point produced.
#[derive(Debug)]
pub enum SweepPayload {
    /// A run result, with stage metrics when the task was metered.
    Run(RunResult, Option<PipelineMetrics>),
    /// An oracle check.
    Sharing(Box<SharingCheck>),
}

impl SweepPayload {
    /// The run result, for `Run`/`RunMetered` points.
    pub fn run_result(&self) -> Option<&RunResult> {
        match self {
            SweepPayload::Run(r, _) => Some(r),
            SweepPayload::Sharing(_) => None,
        }
    }
}

/// One executed point of a sweep.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The point's name.
    pub name: String,
    /// The task that ran.
    pub task: SweepTask,
    /// The core count it ran at.
    pub cores: usize,
    /// The payload, or the pipeline failure (with its failing stage).
    pub result: Result<SweepPayload, PipelineError>,
    /// Host wall time of this point, in nanoseconds.
    pub host_wall_nanos: u128,
}

impl SweepOutcome {
    /// Consumes the outcome into its plain run result (oracle payloads
    /// yield the checked program's run).
    ///
    /// # Errors
    ///
    /// Propagates the point's pipeline failure.
    pub fn into_run(self) -> Result<RunResult, PipelineError> {
        self.result.map(|payload| match payload {
            SweepPayload::Run(r, _) => r,
            SweepPayload::Sharing(check) => check.result,
        })
    }
}

/// The result of one [`sweep`] call.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-point outcomes, in matrix order.
    pub outcomes: Vec<SweepOutcome>,
    /// Cache hit/miss counters accumulated across the whole sweep.
    pub cache: CacheStats,
    /// Worker threads actually used.
    pub workers: usize,
    /// Host wall time of the whole sweep, in nanoseconds.
    pub host_wall_nanos: u128,
}

impl SweepReport {
    /// Finds an outcome by point name.
    pub fn outcome(&self, name: &str) -> Option<&SweepOutcome> {
        self.outcomes.iter().find(|o| o.name == name)
    }
}

/// Resolves a worker-count request against the host.
fn effective_workers(requested: usize, points: usize) -> usize {
    let workers = if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    };
    workers.clamp(1, points.max(1))
}

/// The configured session for one point.
fn point_pipeline(point: &SweepPoint, config: &SccConfig, cache: &Arc<ArtifactCache>) -> Pipeline {
    Pipeline::new(Arc::clone(&point.src))
        .cores(point.cores)
        .scenario(point.task.scenario())
        .policy(point.policy)
        .config(config.clone())
        .cache(Arc::clone(cache))
}

/// Executes one point through an artifact-reuse session.
fn run_point(point: &SweepPoint, config: &SccConfig, cache: &Arc<ArtifactCache>) -> SweepOutcome {
    let started = Instant::now();
    let pipeline = point_pipeline(point, config, cache);
    let result = match point.task {
        SweepTask::Run(_) => pipeline.run_scenario().map(|r| SweepPayload::Run(r, None)),
        // The stages are metered against a scratch cache, so their wall
        // times are the cold stage costs and the shared cache still sees
        // one lookup per shelf for the point.
        SweepTask::RunMetered(_) => pipeline
            .clone()
            .cache(ArtifactCache::shared())
            .stage_metrics()
            .and_then(|m| Ok(SweepPayload::Run(pipeline.run_scenario()?, Some(m)))),
        SweepTask::CheckSharing(_) => pipeline
            .check_sharing()
            .map(|c| SweepPayload::Sharing(Box::new(c))),
    };
    SweepOutcome {
        name: point.name.clone(),
        task: point.task,
        cores: point.cores,
        result,
        host_wall_nanos: started.elapsed().as_nanos(),
    }
}

/// Controls and callbacks for [`sweep_with`]. The plain [`sweep`] is
/// `sweep_with(matrix, SweepOptions::default())`.
#[derive(Clone, Copy, Default)]
pub struct SweepOptions<'a> {
    /// Cooperative cancellation, checked before each point starts (a
    /// running simulation is never interrupted mid-flight). Once it
    /// returns true, every remaining point completes immediately with
    /// [`PipelineError::Cancelled`] — the report still has one outcome
    /// per point, in order. The `hsmd` server uses this to enforce
    /// per-job deadlines.
    pub cancel: Option<&'a (dyn Fn() -> bool + Sync)>,
    /// Streaming hook: called exactly once per point with its index and
    /// outcome, in matrix order, as soon as the point *and every earlier
    /// one* have completed (a reorder buffer hides out-of-order worker
    /// completion). Calls are serialized; the `hsmd` server streams
    /// manifest rows to its client from here.
    pub on_row: Option<RowHook<'a>>,
    /// Retired in ISSUE 17 (the predictor lost its trial to a two-point
    /// fit); must be `false`. [`sweep_with`] ignores it — every point is
    /// simulated. Kept only because `benchmark/` spells it in a struct
    /// literal; drop with the next benchmark PR.
    pub predict_first: bool,
}

/// The row-streaming callback type of [`SweepOptions::on_row`]: point
/// index plus the finished outcome, invoked in matrix order.
pub(crate) type RowHook<'a> = &'a (dyn Fn(usize, &SweepOutcome) + Sync);

impl std::fmt::Debug for SweepOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepOptions")
            .field("cancel", &self.cancel.is_some())
            .field("on_row", &self.on_row.is_some())
            .finish()
    }
}

/// Executes every point of `matrix` across its worker threads and
/// collects the outcomes in matrix order.
///
/// Workers pull points off a shared queue (the idle ones steal whatever
/// work remains, so a slow point never serializes the rest), and all of
/// them feed one [`ArtifactCache`]. Each simulated run itself stays
/// single-threaded and deterministic; for a fixed matrix the report's
/// payloads and cache counters are identical for every worker count —
/// only the host wall times vary.
pub fn sweep(matrix: &SweepMatrix) -> SweepReport {
    sweep_with(matrix, SweepOptions::default())
}

/// [`sweep`] with cooperative cancellation and ordered row streaming —
/// the engine behind the `hsmd` job server. See [`SweepOptions`].
pub fn sweep_with(matrix: &SweepMatrix, opts: SweepOptions<'_>) -> SweepReport {
    let cache = matrix.cache.clone().unwrap_or_else(ArtifactCache::shared);
    let total = matrix.points.len();
    let workers = effective_workers(matrix.workers, total);
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    // Reorder buffer cursor: index of the next outcome to hand to
    // `on_row`. Workers advance it under the lock after filling a slot.
    let next_emit = Mutex::new(0usize);
    let slots: Vec<Mutex<Option<SweepOutcome>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= total {
            break;
        }
        let point = &matrix.points[i];
        let outcome = if opts.cancel.is_some_and(|cancelled| cancelled()) {
            SweepOutcome {
                name: point.name.clone(),
                task: point.task,
                cores: point.cores,
                result: Err(PipelineError::Cancelled),
                host_wall_nanos: 0,
            }
        } else {
            run_point(point, &matrix.config, &cache)
        };
        *slots[i].lock().expect("result slot") = Some(outcome);
        if let Some(on_row) = opts.on_row {
            let mut cursor = next_emit.lock().expect("emit cursor");
            while *cursor < total {
                let slot = slots[*cursor].lock().expect("result slot");
                match slot.as_ref() {
                    Some(done) => on_row(*cursor, done),
                    None => break,
                }
                *cursor += 1;
            }
        }
    };
    if workers == 1 {
        // One worker is the caller: an `hsmd` `simulate` job or a
        // `--workers 1` sweep pays for no thread.
        worker();
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    std::thread::Builder::new()
                        .stack_size(STAGE_STACK_BYTES)
                        .spawn_scoped(scope, worker)
                        .expect("spawn a sweep worker")
                })
                .collect();
            // `scope` alone waits for the closures to return, not for the
            // threads to exit; a sweep started right after would overlap
            // their teardown.
            for handle in handles {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
    }
    let outcomes = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every point executed")
        })
        .collect();
    SweepReport {
        outcomes,
        cache: cache.stats(),
        workers,
        host_wall_nanos: started.elapsed().as_nanos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Stage;

    fn tiny_pi_matrix(workers: usize) -> SweepMatrix {
        let mut params = Bench::PiApprox.default_params(4);
        params.size = 4_000;
        let src: Arc<str> = hsm_workloads::source(Bench::PiApprox, &params).into();
        SweepMatrix::new(SccConfig::table_6_1())
            .workers(workers)
            .point(
                "pi/baseline",
                Arc::clone(&src),
                SweepTask::Run(Mode::PthreadBaseline.into()),
                4,
            )
            .point(
                "pi/offchip",
                Arc::clone(&src),
                SweepTask::Run(Mode::RcceOffChip.into()),
                4,
            )
            .point("pi/hsm", src, SweepTask::Run(Mode::RcceHsm.into()), 4)
    }

    fn cycles(report: &SweepReport) -> Vec<u64> {
        report
            .outcomes
            .iter()
            .map(|o| {
                o.result
                    .as_ref()
                    .expect("point ok")
                    .run_result()
                    .expect("run payload")
                    .timed_cycles
            })
            .collect()
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        let serial = sweep(&tiny_pi_matrix(1));
        let parallel = sweep(&tiny_pi_matrix(3));
        assert_eq!(serial.workers, 1);
        assert_eq!(parallel.workers, 3);
        assert_eq!(cycles(&serial), cycles(&parallel));
        assert_eq!(
            serial.cache, parallel.cache,
            "counters schedule-independent"
        );
        assert!(
            serial.cache[Stage::Parse].hits > 0,
            "modes shared the parse"
        );
        assert_eq!(serial.cache[Stage::Parse].misses, 1);
    }

    #[test]
    fn sweep_records_errors_per_point_with_stage() {
        let src: Arc<str> = "int main( {".into();
        let matrix = SweepMatrix::new(SccConfig::table_6_1()).point(
            "bad",
            src,
            SweepTask::Run(Mode::RcceHsm.into()),
            2,
        );
        let report = sweep(&matrix);
        let err = report.outcomes[0].result.as_ref().unwrap_err();
        assert_eq!(err.stage(), "parse");
    }

    #[test]
    fn streamed_rows_arrive_in_matrix_order() {
        let matrix = tiny_pi_matrix(3);
        let seen: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        let on_row = |i: usize, o: &SweepOutcome| {
            seen.lock().unwrap().push((i, o.name.clone()));
        };
        let report = sweep_with(
            &matrix,
            SweepOptions {
                cancel: None,
                on_row: Some(&on_row),
                ..SweepOptions::default()
            },
        );
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), report.outcomes.len());
        for (emitted, (i, name)) in seen.iter().enumerate() {
            assert_eq!(emitted, *i, "rows streamed in matrix order");
            assert_eq!(*name, report.outcomes[*i].name);
        }
    }

    #[test]
    fn cancelled_sweep_marks_remaining_points() {
        let matrix = tiny_pi_matrix(1);
        let cancel = || true;
        let report = sweep_with(
            &matrix,
            SweepOptions {
                cancel: Some(&cancel),
                on_row: None,
                ..SweepOptions::default()
            },
        );
        assert_eq!(report.outcomes.len(), 3, "one outcome per point");
        for o in &report.outcomes {
            assert!(
                matches!(o.result, Err(PipelineError::Cancelled)),
                "{} cancelled",
                o.name
            );
        }
    }
}
