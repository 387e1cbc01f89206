//! Per-stage instrumentation of the five-stage pipeline.
//!
//! Each run of the pipeline (parse → analyze → partition → translate →
//! compile) can report, per stage, the wall time it took on the host and a
//! stage-appropriate IR size — source bytes in, variables analyzed,
//! placements decided, RCCE bytes out, bytecode instructions. The wall
//! times feed the run manifest's `host_*_nanos` fields (informational,
//! host-dependent); the IR sizes are deterministic and golden-checked.

use std::time::Instant;

/// The pipeline stages, in execution order: the five compile-side stages
/// plus the profiled and the plain run. One table for everything kept per stage — the
/// metered stages of a [`PipelineMetrics`], the [`ArtifactCache`] shelves
/// and their counters, the [`DiskStore`] subdirectories.
///
/// [`ArtifactCache`]: crate::ArtifactCache
/// [`DiskStore`]: crate::store::DiskStore
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Source text → translation unit.
    Parse,
    /// Stages 1–3: scope, inter-thread and points-to analysis.
    Analyze,
    /// Stage 4: MPB placement (Algorithm 3).
    Partition,
    /// Stage 5: pthread → RCCE source translation.
    Translate,
    /// Translation unit → (optimized) bytecode.
    Compile,
    /// A profiled simulated run.
    Profile,
    /// A plain simulated run: the memoized [`RunResult`](hsm_exec::RunResult).
    Run,
}

impl Stage {
    /// Every stage, in execution order; `stage as usize` indexes it.
    pub const ALL: [Stage; 7] = [
        Stage::Parse,
        Stage::Analyze,
        Stage::Partition,
        Stage::Translate,
        Stage::Compile,
        Stage::Profile,
        Stage::Run,
    ];

    /// The stable spelling: manifest key, store directory and store-entry
    /// header field.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Analyze => "analyze",
            Stage::Partition => "partition",
            Stage::Translate => "translate",
            Stage::Compile => "compile",
            Stage::Profile => "profile",
            Stage::Run => "run",
        }
    }
}

/// One stage's measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageMetric {
    /// Which stage.
    pub stage: Stage,
    /// Host wall time the stage took, in nanoseconds (not simulated time;
    /// varies run to run).
    pub wall_nanos: u128,
    /// Deterministic size of the stage's output IR:
    /// * `parse` — bytes of the parsed unit re-printed as C;
    /// * `analyze` — variables classified;
    /// * `partition` — placements decided;
    /// * `translate` — bytes of the emitted RCCE C source;
    /// * `compile` — bytecode instructions in the program.
    pub ir_size: usize,
}

/// The metered stages of one pipeline walk.
#[derive(Debug, Clone, Default)]
pub struct PipelineMetrics {
    /// Stage measurements in execution order.
    pub stages: Vec<StageMetric>,
}

impl PipelineMetrics {
    /// Looks up a stage's measurement.
    pub fn stage(&self, stage: Stage) -> Option<&StageMetric> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// Total host wall time across all recorded stages.
    pub fn total_nanos(&self) -> u128 {
        self.stages.iter().map(|s| s.wall_nanos).sum()
    }

    /// Times `body` and records it as `stage` with the IR size it reports.
    pub(crate) fn measure<T, E>(
        &mut self,
        stage: Stage,
        body: impl FnOnce() -> Result<(T, usize), E>,
    ) -> Result<T, E> {
        let start = Instant::now();
        let (value, ir_size) = body()?;
        self.stages.push(StageMetric {
            stage,
            wall_nanos: start.elapsed().as_nanos(),
            ir_size,
        });
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_records_in_order() {
        let mut m = PipelineMetrics::default();
        let v: Result<i32, ()> = m.measure(Stage::Parse, || Ok((41, 7)));
        assert_eq!(v, Ok(41));
        let _: Result<(), ()> = m.measure(Stage::Analyze, || Ok(((), 3)));
        assert_eq!(m.stages.len(), 2);
        assert_eq!(m.stages[0].stage, Stage::Parse);
        assert_eq!(m.stages[0].ir_size, 7);
        assert_eq!(m.stage(Stage::Analyze).unwrap().ir_size, 3);
        assert!(m.stage(Stage::Compile).is_none());
        assert_eq!(m.total_nanos(), m.stages.iter().map(|s| s.wall_nanos).sum());
    }

    #[test]
    fn stage_table_is_indexable_and_spelt_stably() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, i);
        }
        let labels: Vec<&str> = Stage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            [
                "parse",
                "analyze",
                "partition",
                "translate",
                "compile",
                "profile",
                "run"
            ]
        );
    }

    #[test]
    fn measure_propagates_errors_without_recording() {
        let mut m = PipelineMetrics::default();
        let v: Result<(), &str> = m.measure(Stage::Parse, || Err("boom"));
        assert_eq!(v, Err("boom"));
        assert!(m.stages.is_empty());
    }
}
