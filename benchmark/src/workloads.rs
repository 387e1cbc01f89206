//! The point lists of the three in-process workloads and the correctness
//! gate every pass goes through.
//!
//! A *pass* is one full execution of a workload's point list with a
//! fresh in-memory `ArtifactCache`. Pass counts are not configurable:
//! a run repeats whole passes until `--seconds` is spent.

use crate::adapter::{
    outputs_equivalent, paper_program, paper_reference_exit, Bench, ExecModel, MemCounts, Mode,
    OptLevel, Point, RunFacts, RunResult, Scenario,
};
use std::sync::Arc;

/// One corpus program: name, source, the core count the corpus tests run
/// it at, and its pinned exit code.
pub struct CorpusProgram {
    /// File stem under `corpus/`.
    pub name: &'static str,
    /// The C source, baked in at build time.
    pub src: &'static str,
    /// Participating cores.
    pub cores: usize,
    /// Exit code of a correct run.
    pub exit: i64,
}

macro_rules! corpus {
    ($name:literal, $cores:literal, $exit:literal) => {
        CorpusProgram {
            name: $name,
            src: include_str!(concat!("../../corpus/", $name, ".c")),
            cores: $cores,
            exit: $exit,
        }
    };
}

/// The barrier programs of `corpus_grid`, with the exits pinned when the
/// benchmark was defined.
pub const BARRIER_PROGRAMS: [CorpusProgram; 6] = [
    corpus!("example_4_1", 3, 0),
    corpus!("matrix_vector", 4, 495),
    corpus!("mutex_histogram", 4, 100),
    corpus!("switch_classifier", 2, 2879),
    corpus!("escaping_local", 4, 100),
    corpus!("dot_product", 8, 72),
];

/// The task-annotated ports, run only under the task-dataflow mode.
pub const TASK_PROGRAMS: [CorpusProgram; 3] = [
    corpus!("task_matrix_vector", 4, 495),
    corpus!("task_histogram", 4, 100),
    corpus!("task_dot_product", 8, 72),
];

/// An unmodified pthread program on write-back caches that nothing
/// flushes reads stale shared data: every barrier program's baseline ×
/// `non_coherent_wb` point exits 0 (pinned), and its output is compared
/// only with its own O0/O2 twin.
const STALE_BASELINE_EXIT: i64 = 0;

/// The three configurations of the paper's evaluation.
pub const PAPER_MODES: [Mode; 3] = [Mode::PthreadBaseline, Mode::RcceOffChip, Mode::RcceHsm];

/// One Figure 6.1 bar the paper states a number for.
#[derive(Debug, Clone, Copy)]
pub struct Fig61Bar {
    /// Index of the benchmark's baseline point.
    pub baseline: usize,
    /// Index of its off-chip point.
    pub offchip: usize,
    /// The speedup the paper reports.
    pub paper: f64,
}

/// A workload's point list.
#[derive(Debug, Clone)]
pub struct PointSet {
    /// The points, in execution order.
    pub points: Vec<Point>,
    /// The Figure 6.1 bars among them.
    pub fig61: Vec<Fig61Bar>,
}

impl PointSet {
    /// The same points in the execution order `seed` draws (the Fig. 6.1
    /// indices follow their points). Results and fingerprints do not
    /// depend on the order; which point pays for a shared artifact first
    /// does.
    pub fn shuffled(self, seed: u64) -> PointSet {
        let order = crate::seed::Rng::new(seed, 1).permutation(self.points.len());
        let mut new_index = vec![0; order.len()];
        for (new, &old) in order.iter().enumerate() {
            new_index[old] = new;
        }
        PointSet {
            points: order.iter().map(|&old| self.points[old].clone()).collect(),
            fig61: self
                .fig61
                .iter()
                .map(|bar| Fig61Bar {
                    baseline: new_index[bar.baseline],
                    offchip: new_index[bar.offchip],
                    paper: bar.paper,
                })
                .collect(),
        }
    }
}

fn paper_points(benches: &[(Bench, Option<f64>)], with_wb: bool) -> PointSet {
    let mut set = PointSet {
        points: Vec::new(),
        fig61: Vec::new(),
    };
    for (group, &(bench, paper)) in benches.iter().enumerate() {
        let (src, params) = paper_program(bench, 32);
        let src: Arc<str> = src.into();
        let expect_exit = paper_reference_exit(bench, &params);
        let first = set.points.len();
        let mut scenarios: Vec<Scenario> = PAPER_MODES.iter().map(|&m| Scenario::new(m)).collect();
        if with_wb {
            scenarios
                .push(Scenario::new(Mode::RcceHsm).exec_model(ExecModel::NonCoherentWriteBack));
        }
        for scenario in scenarios {
            set.points.push(Point {
                name: format!(
                    "{}/{}/{}",
                    bench.name(),
                    scenario.mode.label(),
                    scenario.exec_model.label()
                ),
                group,
                src: Arc::clone(&src),
                cores: params.threads,
                scenario,
                expect_exit,
            });
        }
        if let Some(paper) = paper {
            set.fig61.push(Fig61Bar {
                baseline: first,
                offchip: first + 1,
                paper,
            });
        }
    }
    set
}

/// `paper_compute`: the three dispatch-bound paper benchmarks × three
/// modes at 32 units — 9 points. The speedups are the paper's Fig. 6.1.
pub fn paper_compute() -> PointSet {
    paper_points(
        &[
            (Bench::PiApprox, Some(32.0)),
            (Bench::Sum35, Some(29.0)),
            (Bench::CountPrimes, Some(16.0)),
        ],
        false,
    )
}

/// `paper_memory`: the three memory-bound paper benchmarks × three modes
/// under `coherent`, plus HSM under `non_coherent_wb` — 12 points. The
/// paper states a Fig. 6.1 number for Stream only.
pub fn paper_memory() -> PointSet {
    paper_points(
        &[
            (Bench::Stream, Some(17.0)),
            (Bench::DotProduct, None),
            (Bench::LuDecomp, None),
        ],
        true,
    )
}

/// `corpus_grid`: six barrier programs × three modes × three memory
/// models × {O0, O2}, plus the three task ports × task mode × three
/// models × {O0, O2} — 126 points.
pub fn corpus_grid() -> PointSet {
    let mut points = Vec::new();
    let mut group = 0;
    let mut push = |program: &CorpusProgram, modes: &[Mode], points: &mut Vec<Point>| {
        let src: Arc<str> = program.src.into();
        let stale_group = group + 1;
        for &mode in modes {
            for model in ExecModel::ALL {
                let stale =
                    mode == Mode::PthreadBaseline && model == ExecModel::NonCoherentWriteBack;
                for opt in [OptLevel::O0, OptLevel::O2] {
                    points.push(Point {
                        name: format!(
                            "{}/{}/{}/{}",
                            program.name,
                            mode.label(),
                            model.label(),
                            opt.label()
                        ),
                        group: if stale { stale_group } else { group },
                        src: Arc::clone(&src),
                        cores: program.cores,
                        scenario: Scenario::new(mode).exec_model(model).opt_level(opt),
                        expect_exit: if stale {
                            STALE_BASELINE_EXIT
                        } else {
                            program.exit
                        },
                    });
                }
            }
        }
        group += 2;
    };
    for program in &BARRIER_PROGRAMS {
        push(program, &PAPER_MODES, &mut points);
    }
    for program in &TASK_PROGRAMS {
        push(program, &[Mode::TaskDataflow], &mut points);
    }
    PointSet {
        points,
        fig61: Vec::new(),
    }
}

/// What one pass sums to. Identical across passes, between traced and
/// untraced runs, and (without `events`) between in-process and served
/// rows — anything else is a failed op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Σ timed cycles.
    pub timed_cycles: u64,
    /// Σ makespan cycles.
    pub total_cycles: u64,
    /// Σ retired instructions.
    pub instructions: u64,
    /// Σ scheduler events.
    pub events: u64,
    /// Order-independent digest of every op's name, exit and output hash.
    pub outputs: u64,
}

impl Fingerprint {
    /// Folds one op in (commutative, so execution order does not matter).
    pub fn add(&mut self, name: &str, facts: &RunFacts) {
        self.timed_cycles += facts.timed_cycles;
        self.total_cycles += facts.total_cycles;
        self.instructions += facts.instructions;
        self.events += facts.events;
        let mut bytes = name.as_bytes().to_vec();
        bytes.extend_from_slice(&facts.exit_code.to_le_bytes());
        bytes.extend_from_slice(&facts.output_fnv.to_le_bytes());
        self.outputs = self
            .outputs
            .wrapping_add(crate::adapter::fnv1a_bytes(&bytes));
    }
}

/// A checked pass.
#[derive(Debug, Clone, Default)]
pub struct PassCheck {
    /// Facts per point index (`None` where the op errored).
    pub facts: Vec<Option<RunFacts>>,
    /// Ops that failed a check.
    pub failed: u64,
    /// Why, for the first few.
    pub failures: Vec<String>,
    /// The pass's fingerprint.
    pub fingerprint: Fingerprint,
    /// Simulated-side memory statistics summed over the pass.
    pub mem: MemCounts,
    /// Mean relative error against the paper's Fig. 6.1 bars, percent
    /// (0 when the workload has none).
    pub fig61_err_pct: f64,
}

impl PassCheck {
    /// Records one failed op.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// Checks one pass: `results[i]` is the outcome of `set.points[i]`.
/// An op fails on an error result, an exit code other than the expected
/// one, or an output not equivalent to its group's first point.
pub fn check_pass(set: &PointSet, results: &[Result<RunResult, String>]) -> PassCheck {
    let mut check = PassCheck {
        facts: vec![None; set.points.len()],
        ..PassCheck::default()
    };
    let mut group_reference: Vec<Option<usize>> = Vec::new();
    for (i, (point, result)) in set.points.iter().zip(results).enumerate() {
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                check.fail(format!("{}: {e}", point.name));
                continue;
            }
        };
        let facts = RunFacts::of(run);
        check.facts[i] = Some(facts);
        check.fingerprint.add(&point.name, &facts);
        check.mem.add(run);
        if facts.exit_code != point.expect_exit {
            check.fail(format!(
                "{}: exit {} (expected {})",
                point.name, facts.exit_code, point.expect_exit
            ));
            continue;
        }
        if group_reference.len() <= point.group {
            group_reference.resize(point.group + 1, None);
        }
        match group_reference[point.group] {
            None => group_reference[point.group] = Some(i),
            Some(r) => {
                let reference = results[r].as_ref().expect("a reference is an Ok result");
                if !outputs_equivalent(reference, run) {
                    check.fail(format!(
                        "{}: output differs from {}",
                        point.name, set.points[r].name
                    ));
                }
            }
        }
    }
    let errors: Vec<f64> = set
        .fig61
        .iter()
        .filter_map(|bar| {
            let base = check.facts[bar.baseline]?.timed_cycles as f64;
            let off = check.facts[bar.offchip]?.timed_cycles.max(1) as f64;
            Some(((base / off - bar.paper) / bar.paper).abs() * 100.0)
        })
        .collect();
    check.fig61_err_pct = crate::stats::mean(&errors);
    check
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_lists_have_the_documented_shape() {
        let compute = paper_compute();
        assert_eq!(compute.points.len(), 9);
        assert_eq!(compute.fig61.len(), 3);
        let memory = paper_memory();
        assert_eq!(memory.points.len(), 12);
        assert_eq!(memory.fig61.len(), 1);
        assert_eq!(
            memory
                .points
                .iter()
                .filter(|p| p.scenario.exec_model == ExecModel::NonCoherentWriteBack)
                .count(),
            3
        );
        let grid = corpus_grid();
        assert_eq!(grid.points.len(), 126);
        let mut names: Vec<&str> = grid.points.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 126, "point names are unique");
        for set in [&compute, &memory] {
            for bar in &set.fig61 {
                let (base, off) = (&set.points[bar.baseline], &set.points[bar.offchip]);
                assert_eq!(base.scenario.mode, Mode::PthreadBaseline);
                assert_eq!(off.scenario.mode, Mode::RcceOffChip);
                assert_eq!(base.group, off.group);
            }
        }
    }

    #[test]
    fn shuffling_keeps_the_points_and_the_bars() {
        let plain = paper_memory();
        let shuffled = paper_memory().shuffled(9);
        let names = |set: &PointSet| {
            let mut n: Vec<String> = set.points.iter().map(|p| p.name.clone()).collect();
            n.sort();
            n
        };
        assert_eq!(names(&plain), names(&shuffled));
        assert_ne!(
            plain.points.iter().map(|p| &p.name).collect::<Vec<_>>(),
            shuffled.points.iter().map(|p| &p.name).collect::<Vec<_>>()
        );
        let bar = |set: &PointSet| {
            let b = set.fig61[0];
            (
                set.points[b.baseline].name.clone(),
                set.points[b.offchip].name.clone(),
            )
        };
        assert_eq!(bar(&plain), bar(&shuffled));
        assert_eq!(
            names(&paper_memory().shuffled(9)),
            names(&paper_memory().shuffled(10))
        );
    }

    #[test]
    fn fingerprint_ignores_order_but_not_content() {
        let a = RunFacts {
            exit_code: 1,
            timed_cycles: 10,
            total_cycles: 20,
            instructions: 30,
            events: 4,
            output_fnv: 99,
        };
        let b = RunFacts { exit_code: 2, ..a };
        let mut ab = Fingerprint::default();
        ab.add("a", &a);
        ab.add("b", &b);
        let mut ba = Fingerprint::default();
        ba.add("b", &b);
        ba.add("a", &a);
        assert_eq!(ab, ba);
        let mut swapped = Fingerprint::default();
        swapped.add("a", &b);
        swapped.add("b", &a);
        assert_ne!(ab, swapped, "which op produced which output matters");
        assert_eq!(ab.timed_cycles, 20);
    }
}
