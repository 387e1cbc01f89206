//! Layer probes: short, fixed-size measurements the traced run takes
//! after its passes, each calling one layer's public functions directly.
//! Iteration counts are constants (the same on every commit); every
//! probe reports a median so one scheduling hiccup does not move it.

use crate::adapter::{
    compile_point, mpb_span_bytes, paper_reference_exit, paper_source, replay_accesses, run_direct,
    run_sweep, AccessStream, ArtifactCache, Bench, Compiled, ExecModel, Mode, Params, Point,
    Scenario,
};
use crate::metrics::Values;
use crate::seed::Rng;
use crate::stats::median;
use crate::workloads::PointSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Seconds `f` takes.
pub fn time_s<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// A Pi Approximation point at reduced size: pure bytecode dispatch, with
/// fewer than one scheduler event per thousand instructions.
fn pi_point(mode: Mode, threads: usize) -> Point {
    let params = Params {
        threads,
        size: 100_000,
        reps: 1,
    };
    Point {
        name: format!("probe/pi/{}/{threads}", mode.label()),
        group: 0,
        src: paper_source(Bench::PiApprox, &params).into(),
        cores: threads,
        scenario: Scenario::new(mode),
        expect_exit: paper_reference_exit(Bench::PiApprox, &params),
    }
}

/// Host ns per retired instruction of `compiled`, median of `reps` runs.
fn ns_per_instr(compiled: &Compiled, expect_exit: i64, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (s, run) = time_s(|| compiled.run(ExecModel::Coherent, false));
            let run = run.expect("the probe program runs");
            assert_eq!(run.exit_code, expect_exit, "probe program exit");
            s * 1e9 / run.instructions as f64
        })
        .collect();
    median(&samples)
}

/// `vm.dispatch_ns_per_instr`: the calibration every `exec.ns_per_event`
/// is computed against — Pi on the one-core pthread baseline.
pub fn dispatch_ns_per_instr() -> f64 {
    let point = pi_point(Mode::PthreadBaseline, 32);
    let compiled = compile_point(&point).expect("the probe program compiles");
    ns_per_instr(&compiled, point.expect_exit, 5)
}

/// `sccsim.access_ns.*`: seeded address streams replayed straight into
/// `MemorySystem::access`, 32 cores round-robin.
pub fn memory_model(seed: u64, values: &mut Values) {
    const ACCESSES: usize = 400_000;
    const REPS: usize = 5;
    let mut rng = Rng::new(seed, 2);
    let start = rng.below(1 << 16) * 64;
    let mpb = mpb_span_bytes();
    let streams: [(&'static str, AccessStream, Vec<u64>); 4] = [
        (
            "sccsim.access_ns.private_hit",
            AccessStream::PrivateHit,
            (0..ACCESSES).map(|_| rng.below(512) * 8).collect(),
        ),
        (
            "sccsim.access_ns.private_stream",
            AccessStream::PrivateStream,
            (0..ACCESSES as u64).map(|i| start + i * 64).collect(),
        ),
        (
            "sccsim.access_ns.shared_dram",
            AccessStream::SharedDram,
            (0..ACCESSES).map(|_| rng.below(1 << 21) * 8).collect(),
        ),
        (
            "sccsim.access_ns.mpb",
            AccessStream::Mpb,
            (0..ACCESSES).map(|_| rng.below(mpb / 8) * 8).collect(),
        ),
    ];
    for (name, stream, offsets) in streams {
        let mut checksum = None;
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let (ns, cycles) = replay_accesses(stream, &offsets);
                assert_eq!(*checksum.get_or_insert(cycles), cycles, "{name} repeats");
                ns
            })
            .collect();
        values.set(name, median(&samples));
    }
}

/// Differential ablations on the HSM/coherent points of `paper_memory`:
/// the same compiled programs re-run under the flat reference model, the
/// write-back overlay and the profile collector; plus the scheduler's
/// cost as ns/instr of Pi at fixed total work on 32 cores vs 1.
pub fn ablations(set: &PointSet, values: &mut Values) {
    let hsm: Vec<&Point> = set
        .points
        .iter()
        .filter(|p| {
            p.scenario.mode == Mode::RcceHsm && p.scenario.exec_model == ExecModel::Coherent
        })
        .collect();
    let (mut coherent, mut flat, mut wb, mut profiled) = (0.0, 0.0, 0.0, 0.0);
    for point in hsm {
        let compiled = compile_point(point).expect("a workload point compiles");
        let timed = |model, with_profile| {
            let (s, run) = time_s(|| compiled.run(model, with_profile));
            let run = run.expect("a workload point runs");
            assert_eq!(run.exit_code, point.expect_exit, "{}", point.name);
            s
        };
        coherent += timed(ExecModel::Coherent, false);
        flat += timed(ExecModel::SeqCstReference, false);
        wb += timed(ExecModel::NonCoherentWriteBack, false);
        profiled += timed(ExecModel::Coherent, true);
    }
    if coherent > 0.0 {
        values.set("exec.flat_ratio", flat / coherent);
        values.set("exec.wb_ratio", wb / coherent);
        values.set("exec.profile_ratio", profiled / coherent);
    }
    let per_instr = |threads| {
        let point = pi_point(Mode::RcceHsm, threads);
        let compiled = compile_point(&point).expect("the probe program compiles");
        ns_per_instr(&compiled, point.expect_exit, 5)
    };
    values.set("exec.sched_ratio_32v1", per_instr(32) / per_instr(1));
}

/// `exec.setup_us.*`: running `int main(){return 0;}` — machine and
/// per-core VM construction and nothing else — on the one-core pthread
/// baseline and on 32 RCCE and task cores. Returns what that empty run
/// costs summed over `set`'s points, each at its own mode and core
/// count, in microseconds: the part of a pass that is run set-up.
pub fn run_setup(set: &PointSet, values: &mut Values) -> f64 {
    let cost = |mode, cores, reps: usize| {
        let point = Point {
            name: "probe/empty".into(),
            group: 0,
            src: Arc::from("int main(){return 0;}"),
            cores,
            scenario: Scenario::new(mode),
            expect_exit: 0,
        };
        let compiled = compile_point(&point).expect("the empty program compiles");
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let (s, run) = time_s(|| compiled.run(ExecModel::Coherent, false));
                assert_eq!(run.expect("the empty program runs").exit_code, 0);
                s * 1e6
            })
            .collect();
        median(&samples)
    };
    values.set("exec.setup_us.pthread", cost(Mode::PthreadBaseline, 1, 300));
    values.set("exec.setup_us.rcce32", cost(Mode::RcceHsm, 32, 300));
    values.set("exec.setup_us.task32", cost(Mode::TaskDataflow, 32, 300));
    let mut by_shape: Vec<((Mode, usize), f64)> = Vec::new();
    set.points
        .iter()
        .map(|p| {
            // Off-chip and HSM runs construct the same machine.
            let mode = match p.scenario.mode {
                Mode::RcceOffChip => Mode::RcceHsm,
                other => other,
            };
            match by_shape.iter().find(|(shape, _)| *shape == (mode, p.cores)) {
                Some(&(_, us)) => us,
                None => {
                    let us = cost(mode, p.cores, 100);
                    by_shape.push(((mode, p.cores), us));
                    us
                }
            }
        })
        .sum()
}

/// `core.sweep.*`: what the sweep engine adds to running the same points
/// directly through `Pipeline`, and how well two workers share a pass.
pub fn sweep_engine(set: &PointSet, values: &mut Values) {
    const REPS: usize = 9;
    let points = &set.points;
    let sweep = |workers| {
        let (s, outcomes) = time_s(|| run_sweep(points, &ArtifactCache::shared(), workers));
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        s
    };
    let direct = || {
        let cache = ArtifactCache::shared();
        let (s, ()) = time_s(|| {
            for p in points {
                black_box(run_direct(p, &cache)).expect("a workload point runs");
            }
        });
        s
    };
    let (mut one, mut two, mut plain) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        one.push(sweep(1));
        plain.push(direct());
        two.push(sweep(2));
    }
    values.set(
        "core.sweep.overhead_us_per_point",
        (median(&one) - median(&plain)) * 1e6 / points.len() as f64,
    );
    values.set("core.sweep.par_eff_2w", median(&one) / (2.0 * median(&two)));
}
