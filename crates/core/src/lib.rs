//! # hsm-core — the end-to-end HSM pipeline and experiment runner
//!
//! Ties the whole reproduction together:
//!
//! ```text
//!  pthread C source
//!    └─ hsm-cir  parse
//!        └─ hsm-analysis  stages 1–3 (scope, inter-thread, points-to)
//!            └─ hsm-partition  stage 4 (Algorithm 3)
//!                └─ hsm-translate  stage 5 (Algorithms 4–10) → RCCE C
//!                    └─ hsm-vm  compile to bytecode
//!                        └─ hsm-exec  run on the simulated SCC
//! ```
//!
//! The crate has two public modules. [`api`] is the one path to every
//! public item: the [`Pipeline`](api::Pipeline) session — a builder over
//! one C source whose intermediate artifacts (parsed unit, analysis,
//! partition plan, translation, compiled bytecode) are memoized in a
//! keyed [`ArtifactCache`](api::ArtifactCache) and shared across the
//! baseline, off-chip and HSM configurations — the
//! [`sweep`](api::sweep) engine that fans a benchmark × mode ×
//! core-count matrix out over worker threads, the `hsmd` job protocol,
//! server and client, and the persistent store. [`experiment`] holds
//! the figure drivers built from both. Every run executes under a
//! selectable [`ExecModel`](api::ExecModel) (coherent ground truth by
//! default).

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod api;
mod cache;
pub mod experiment;
mod json;
mod metrics;
mod pipeline;
mod protocol;
mod scenario;
mod server;
mod spec;
mod store;
mod sweep;

#[cfg(test)]
mod tests {
    use crate::api::{sweep, Mode, Pipeline, PipelineError, Stage, SweepMatrix, SweepTask};
    use crate::experiment::{self, run_all_modes};
    use hsm_workloads::{Bench, Params};
    use scc_sim::SccConfig;
    use std::sync::Arc;

    fn cfg() -> SccConfig {
        SccConfig::table_6_1()
    }

    /// Reduced sizes so debug-mode tests stay fast.
    fn tiny(bench: Bench, threads: usize) -> Params {
        let mut p = bench.default_params(threads);
        p.size = match bench {
            Bench::CountPrimes => 2_000,
            Bench::PiApprox => 8_000,
            Bench::Sum35 => 16_000,
            Bench::DotProduct => 256,
            Bench::LuDecomp => 8,
            Bench::Stream => 256,
        };
        p.reps = if bench == Bench::LuDecomp { 8 } else { 1 };
        p
    }

    #[test]
    fn pi_pipeline_all_modes_agree_and_speed_up() {
        let p = tiny(Bench::PiApprox, 8);
        let r = run_all_modes(Bench::PiApprox, &p, &cfg()).expect("pipeline");
        assert!(r.outputs_match, "outputs diverged");
        assert!(
            r.offchip_speedup() > 3.0,
            "8 cores should beat 8 threads on 1 core: {:.2}x",
            r.offchip_speedup()
        );
    }

    #[test]
    fn exit_codes_match_reference_model() {
        for bench in [Bench::PiApprox, Bench::CountPrimes, Bench::Sum35] {
            let p = tiny(bench, 4);
            let expected = hsm_workloads::reference_exit(bench, &p);
            let base = experiment::run(bench, &p, Mode::PthreadBaseline, &cfg()).expect("base");
            assert_eq!(base.exit_code, expected, "{bench} baseline");
            let hsm = experiment::run(bench, &p, Mode::RcceHsm, &cfg()).expect("hsm");
            assert_eq!(hsm.exit_code, expected, "{bench} hsm");
        }
    }

    #[test]
    fn stream_benefits_from_mpb() {
        let p = tiny(Bench::Stream, 8);
        let r = run_all_modes(Bench::Stream, &p, &cfg()).expect("pipeline");
        assert!(r.outputs_match);
        assert!(
            r.hsm_improvement() > 1.2,
            "MPB placement should beat off-chip for Stream: {:.2}x",
            r.hsm_improvement()
        );
    }

    #[test]
    fn lu_gains_little_from_mpb() {
        // The batch exceeds the MPB even at reduced size? At tiny size it
        // fits, so force a footprint check instead: with default params it
        // must spill.
        let p = Bench::LuDecomp.default_params(32);
        let spec = hsm_partition::MemorySpec::scc(48);
        assert!(hsm_workloads::shared_footprint(Bench::LuDecomp, &p) > spec.on_chip_capacity);
    }

    #[test]
    fn pipeline_session_produces_rcce() {
        let p = tiny(Bench::PiApprox, 4);
        let src = hsm_workloads::source(Bench::PiApprox, &p);
        let t = Pipeline::new(src)
            .cores(4)
            .translation()
            .expect("translate");
        let out = t.source();
        assert!(out.contains("RCCE_APP"), "{out}");
        assert!(!out.contains("pthread"), "{out}");
    }

    #[test]
    fn parse_errors_surface_with_stage_and_source() {
        let err = Pipeline::new("int main( {").run_scenario().unwrap_err();
        assert!(matches!(err, PipelineError::Parse(_)));
        assert_eq!(err.stage(), "parse");
        let source = std::error::Error::source(&err).expect("source chain");
        assert!(!source.to_string().is_empty());
        assert!(err.to_string().starts_with("parse stage:"));
    }

    #[test]
    fn metered_pipeline_reports_all_five_stages() {
        let p = tiny(Bench::PiApprox, 4);
        let src = hsm_workloads::source(Bench::PiApprox, &p);
        let session = Pipeline::new(src).cores(4);
        let m = session.stage_metrics().expect("pipeline");
        let stages: Vec<Stage> = m.stages.iter().map(|s| s.stage).collect();
        assert_eq!(stages, Stage::ALL[..5]);
        assert!(m.stages.iter().all(|s| s.ir_size > 0));
        assert_eq!(
            m.stage(Stage::Compile).unwrap().ir_size,
            session.program().expect("program").code_len(),
            "compile stage size is the instruction count"
        );
        assert_eq!(
            m.stage(Stage::Translate).unwrap().ir_size,
            session.translation().expect("translation").source().len()
        );
    }

    #[test]
    fn three_modes_share_one_parse_and_analysis() {
        let p = tiny(Bench::PiApprox, 4);
        let src = hsm_workloads::source(Bench::PiApprox, &p);
        let session = Pipeline::new(src).cores(4).config(cfg());
        for mode in [Mode::PthreadBaseline, Mode::RcceOffChip, Mode::RcceHsm] {
            session
                .clone()
                .scenario(mode.into())
                .run_scenario()
                .unwrap_or_else(|e| panic!("{}: {e}", mode.label()));
        }
        let stats = session.cache_handle().stats();
        assert_eq!(stats[Stage::Parse].misses, 1, "exactly one parse artifact");
        assert_eq!(
            stats[Stage::Analyze].misses,
            1,
            "exactly one analysis artifact"
        );
        assert!(
            stats[Stage::Parse].hits >= 2,
            "both RCCE modes reused the parse"
        );
        assert!(
            stats[Stage::Analyze].hits >= 1,
            "HSM mode reused the analysis"
        );
        assert_eq!(
            stats[Stage::Translate].misses,
            2,
            "off-chip and HSM translations are distinct artifacts"
        );
        assert_eq!(
            stats[Stage::Compile].misses,
            3,
            "baseline + two translations compile separately"
        );
    }

    #[test]
    fn sharing_check_is_clean_on_disciplined_source() {
        let src = r#"
int sum[4];
void *tf(void *tid) { sum[(int)tid] = (int)tid * 2; return tid; }
int main() {
    pthread_t t[4];
    int i;
    for (i = 0; i < 4; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 4; i++) pthread_join(t[i], NULL);
    return sum[0] + sum[1] + sum[2] + sum[3];
}
"#;
        let check = Pipeline::new(src)
            .scenario(Mode::PthreadBaseline.into())
            .config(cfg())
            .check_sharing()
            .expect("pipeline");
        assert!(check.report.is_clean(), "{:?}", check.report.violations);
        assert_eq!(check.result.exit_code, 12);
        assert!(check.report.data_accesses > 0);
        assert!(check.report.sync_events > 0, "create/join edges observed");
        let (shared, _, _) = check.manifest.counts();
        assert!(shared > 0, "sum must be classified shared");
    }

    #[test]
    fn sharing_check_flags_escaping_stack_pointer() {
        let src = r#"
void *tf(void *arg) { int *p = (int *)arg; *p = *p + 41; return arg; }
int main() {
    pthread_t t;
    int local = 1;
    pthread_create(&t, NULL, tf, (void *)&local);
    pthread_join(t, NULL);
    return local;
}
"#;
        let check = Pipeline::new(src)
            .scenario(Mode::PthreadBaseline.into())
            .config(cfg())
            .check_sharing()
            .expect("pipeline");
        let classes = check.report.classes();
        assert_eq!(
            classes,
            vec![hsm_exec::ViolationClass::Unsoundness],
            "cross-owner touch of a private local, ordered by create/join: {:?}",
            check.report.violations
        );
        let v = &check.report.violations[0];
        assert_eq!(v.variable.as_deref(), Some("local"));
        assert_eq!(v.unit, 1, "the child thread is the trespasser");
        assert_eq!(check.result.exit_code, 42, "the race-free bug still runs");
    }

    #[test]
    fn sharing_check_flags_unlocked_counter() {
        let src = r#"
int counter;
void *tf(void *tid) {
    int i;
    for (i = 0; i < 50; i++) counter = counter + 1;
    return tid;
}
int main() {
    pthread_t t[2];
    int i;
    for (i = 0; i < 2; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 2; i++) pthread_join(t[i], NULL);
    return counter;
}
"#;
        let check = Pipeline::new(src)
            .scenario(Mode::PthreadBaseline.into())
            .config(cfg())
            .check_sharing()
            .expect("pipeline");
        let classes = check.report.classes();
        assert_eq!(
            classes,
            vec![hsm_exec::ViolationClass::DataRace],
            "shared verdict is correct, the omission is the lock: {:?}",
            check.report.violations
        );
        assert!(check
            .report
            .violations
            .iter()
            .all(|v| v.variable.as_deref() == Some("counter")));
    }

    #[test]
    fn rcce_sharing_check_validates_translated_sync() {
        let p = tiny(Bench::PiApprox, 4);
        let src = hsm_workloads::source(Bench::PiApprox, &p);
        let check = Pipeline::new(src)
            .cores(4)
            .config(cfg())
            .check_sharing()
            .expect("pipeline");
        assert!(check.report.is_clean(), "{:?}", check.report.violations);
        assert!(check.report.sync_events > 0, "barriers observed");
    }

    #[test]
    fn baseline_metering_has_two_stages() {
        let p = tiny(Bench::PiApprox, 4);
        let m = Pipeline::new(hsm_workloads::source(Bench::PiApprox, &p))
            .scenario(Mode::PthreadBaseline.into())
            .stage_metrics()
            .expect("baseline");
        let stages: Vec<Stage> = m.stages.iter().map(|s| s.stage).collect();
        assert_eq!(stages, [Stage::Parse, Stage::Compile]);
    }

    /// The sweep engine at 1 worker and at 4 workers must agree on every
    /// deterministic field, including the cache counters.
    #[test]
    fn sweep_matrix_is_worker_count_invariant() {
        let p = tiny(Bench::PiApprox, 4);
        let src: Arc<str> = hsm_workloads::source(Bench::PiApprox, &p).into();
        let build = |workers| {
            SweepMatrix::new(cfg())
                .workers(workers)
                .point(
                    "baseline",
                    Arc::clone(&src),
                    SweepTask::Run(Mode::PthreadBaseline.into()),
                    4,
                )
                .point(
                    "offchip",
                    Arc::clone(&src),
                    SweepTask::Run(Mode::RcceOffChip.into()),
                    4,
                )
                .point(
                    "hsm",
                    Arc::clone(&src),
                    SweepTask::Run(Mode::RcceHsm.into()),
                    4,
                )
        };
        let serial = sweep(&build(1));
        let parallel = sweep(&build(4));
        assert_eq!(serial.cache, parallel.cache);
        for (a, b) in serial.outcomes.iter().zip(parallel.outcomes.iter()) {
            let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            let (ra, rb) = (ra.run_result().unwrap(), rb.run_result().unwrap());
            assert_eq!(ra.timed_cycles, rb.timed_cycles, "{}", a.name);
            assert_eq!(ra.exit_code, rb.exit_code, "{}", a.name);
        }
    }
}
