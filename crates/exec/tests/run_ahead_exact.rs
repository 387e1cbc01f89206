//! Run-ahead changes when the scheduler is asked, never what a run
//! computes.
//!
//! `ExecutionCore::run` lets a unit keep stepping while the scheduler
//! would hand it out again anyway (the ordered rule) or while what it
//! does is visible to nobody else (the local rule); DESIGN.md §9 argues
//! both are exact. This suite is the argument as a test: every program
//! here runs twice, once on the production path and once behind
//! `VisitEveryEvent`, which refuses every grant so the core visits
//! `schedule` before each event, and the two runs must agree on the whole
//! `RunResult` — or on the error — and, with a recording sink attached,
//! on every access and every synchronization event in order.
//!
//! The local rule also lets the free cores of an RCCE run advance beside
//! one another on several host threads. How many is the host's business
//! and never part of a result, so every RCCE program here additionally
//! runs with the helper count forced to each of [`HELPERS`] and must give
//! what the reference gives.
//!
//! The task-dataflow model grants nothing and so has no second side to
//! compare; its results are pinned by `tests/sync_models.rs` and the
//! manifest goldens.

use hsm_core::{ExecModel, Mode, OptLevel, Pipeline, Scenario};
use hsm_exec::{ExecError, RunResult, SyncEvent, TraceEvent, TraceSink};
use hsm_vm::Program;
use hsm_workloads::{Bench, Params};
use scc_sim::SccConfig;
use std::path::PathBuf;

/// Keeps everything a sink is told, in order.
#[derive(Debug, Default, PartialEq)]
struct Recorder {
    accesses: Vec<TraceEvent>,
    syncs: Vec<SyncEvent>,
}

impl TraceSink for Recorder {
    fn record(&mut self, event: TraceEvent) {
        self.accesses.push(event);
    }

    fn sync(&mut self, event: SyncEvent) {
        self.syncs.push(event);
    }
}

/// Which sync model runs the program: pthread on one core, or RCCE on
/// this many.
#[derive(Debug, Clone, Copy)]
enum Units {
    Pthread,
    Rcce(usize),
}

type Outcome = Result<RunResult, ExecError>;

/// Host threads beside the caller's that an RCCE run is forced onto: none
/// (every lane on the caller), one (the reference container), and more
/// than any test here has cores to spare for.
const HELPERS: [usize; 3] = [0, 1, 3];

/// Holds an RCCE run at every helper count against `reference`. Returns
/// how many of the runs advanced their free cores in one go at least once.
fn assert_exact_at_every_helper_count(
    label: &str,
    program: &Program,
    cores: usize,
    model: ExecModel,
    reference: &Outcome,
) -> usize {
    let config = &SccConfig::table_6_1();
    let mut with_a_phase = 0;
    for helpers in HELPERS {
        let before = hsm_exec::phases_on_this_thread();
        let run = hsm_exec::run_rcce_with_helpers(program, cores, config, model, helpers);
        assert_eq!(
            &run, reference,
            "{label} under {model:?}: {helpers} helpers changed the result"
        );
        with_a_phase += usize::from(hsm_exec::phases_on_this_thread() > before);
    }
    with_a_phase
}

/// `(production, visiting the scheduler before every event)`.
fn both<S: TraceSink>(
    program: &Program,
    units: Units,
    model: ExecModel,
    sinks: (&mut S, &mut S),
) -> (Outcome, Outcome) {
    let config = &SccConfig::table_6_1();
    match units {
        Units::Pthread => (
            hsm_exec::run_pthread_model_traced(program, config, model, sinks.0),
            hsm_exec::run_pthread_visiting_every_event(program, config, model, sinks.1),
        ),
        Units::Rcce(cores) => (
            hsm_exec::run_rcce_model_traced(program, cores, config, model, sinks.0),
            hsm_exec::run_rcce_visiting_every_event(program, cores, config, model, sinks.1),
        ),
    }
}

/// Runs `program` four times — both paths, untraced and recorded — and
/// holds each production run against its reference. Returns the untraced
/// production outcome.
fn assert_exact(label: &str, program: &Program, units: Units, model: ExecModel) -> Outcome {
    let (fast, reference) = both(
        program,
        units,
        model,
        (&mut hsm_exec::NullSink, &mut hsm_exec::NullSink),
    );
    assert_eq!(fast, reference, "{label} under {model:?}: results differ");
    if let Units::Rcce(cores) = units {
        assert_exact_at_every_helper_count(label, program, cores, model, &reference);
    }

    let (mut seen, mut expected) = (Recorder::default(), Recorder::default());
    let (traced, traced_reference) = both(program, units, model, (&mut seen, &mut expected));
    assert_eq!(
        traced, traced_reference,
        "{label} under {model:?}: traced results differ"
    );
    assert_eq!(
        traced, fast,
        "{label} under {model:?}: the sink perturbed the run"
    );
    assert_eq!(
        seen.syncs, expected.syncs,
        "{label} under {model:?}: sync streams differ"
    );
    // Element by element, so a failure names the first access that moved.
    assert_eq!(seen.accesses.len(), expected.accesses.len(), "{label}");
    for (i, pair) in seen.accesses.iter().zip(&expected.accesses).enumerate() {
        assert_eq!(
            pair.0, pair.1,
            "{label} under {model:?}: access {i} differs"
        );
    }
    fast
}

/// The three placements of a pthread source: the untranslated baseline
/// on one core and the two translations on `cores`.
fn assert_source_exact(name: &str, src: &str, cores: usize, models: &[ExecModel], level: OptLevel) {
    for mode in [Mode::PthreadBaseline, Mode::RcceOffChip, Mode::RcceHsm] {
        let session = Pipeline::new(src)
            .cores(cores)
            .scenario(Scenario::new(mode).opt_level(level));
        let (program, units) = match mode {
            Mode::PthreadBaseline => (session.baseline_program(), Units::Pthread),
            _ => (session.program(), Units::Rcce(cores)),
        };
        let program = program.unwrap_or_else(|e| panic!("{name}@{cores} {}: {e}", mode.label()));
        for &model in models {
            let label = format!("{name}@{cores} {} {level}", mode.label());
            let _ = assert_exact(&label, &program, units, model);
        }
    }
}

fn corpus(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../corpus")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every pthread program of the corpus with the core count its own test
/// uses, the adversarial ones included: their wrong answers under
/// `non_coherent_wb` are results like any other.
const CORPUS: [(&str, usize); 8] = [
    ("example_4_1.c", 3),
    ("matrix_vector.c", 4),
    ("mutex_histogram.c", 4),
    ("switch_classifier.c", 2),
    ("escaping_local.c", 4),
    ("dot_product.c", 4),
    ("adversarial/escaping_arg.c", 4),
    ("adversarial/unlocked_counter.c", 4),
];

#[test]
fn run_ahead_is_exact_on_the_corpus() {
    for (name, cores) in CORPUS {
        let src = corpus(name);
        for level in [OptLevel::O0, OptLevel::O2] {
            assert_source_exact(name, &src, cores, &ExecModel::ALL, level);
        }
    }
}

/// The six paper benchmarks at about 1/50 of their paper-scale work (the
/// sizes `serve_mix` uses).
fn small_params(bench: Bench, threads: usize) -> Params {
    let (size, reps) = match bench {
        Bench::PiApprox => (8_000, 1),
        Bench::Sum35 => (20_000, 1),
        Bench::CountPrimes => (600, 1),
        Bench::DotProduct => (320, 3),
        Bench::LuDecomp => (8, 8),
        Bench::Stream => (256, 2),
    };
    Params {
        threads,
        size,
        reps,
    }
}

#[test]
fn run_ahead_is_exact_on_the_paper_workloads() {
    let models = [ExecModel::Coherent, ExecModel::NonCoherentWriteBack];
    for bench in Bench::all() {
        for units in [2, 4, 8, 32] {
            let src = hsm_workloads::source(bench, &small_params(bench, units));
            assert_source_exact(bench.name(), &src, units, &models, OptLevel::O2);
        }
    }
}

/// Both RCCE placements of `bench` at O0 (like the benchmark's
/// `paper_compute`), at every helper count, under each of `models`: equal
/// to the reference, and every run did advance its free cores in one go —
/// at a size too small for that the tests below would pass without having
/// run what they are about.
fn assert_a_phase_runs_exactly(bench: Bench, params: &Params, models: &[ExecModel]) {
    let config = &SccConfig::table_6_1();
    let cores = params.threads;
    let src = hsm_workloads::source(bench, params);
    for mode in [Mode::RcceOffChip, Mode::RcceHsm] {
        let program = Pipeline::new(src.as_str())
            .cores(cores)
            .scenario(Scenario::new(mode).opt_level(OptLevel::O0))
            .program()
            .expect("translates");
        let label = format!("{}@{cores} {}", bench.name(), mode.label());
        for &model in models {
            let sink = &mut hsm_exec::NullSink;
            let reference =
                hsm_exec::run_rcce_visiting_every_event(&program, cores, config, model, sink);
            assert!(reference.is_ok(), "{label}: {reference:?}");
            let with_a_phase =
                assert_exact_at_every_helper_count(&label, &program, cores, model, &reference);
            assert_eq!(with_a_phase, HELPERS.len(), "{label} under {model:?}");
        }
    }
}

const COMPUTE: [Bench; 3] = [Bench::PiApprox, Bench::Sum35, Bench::CountPrimes];

/// The three compute benchmarks at sizes where a core retires more than
/// the engine's floor between two syscalls, on 2, 5 and 32 cores. Count
/// Primes is the case that needs the scheduler told: its cores reach the
/// memory controllers right after the stretch they ran beside one another,
/// in an order only a rebuilt schedule gets right.
#[test]
fn free_cores_advance_beside_one_another_exactly() {
    for bench in COMPUTE {
        for cores in [2, 5, 32] {
            let size = match bench {
                // Trial division: the last core's block is the dear one.
                Bench::CountPrimes => 400 + 35 * cores,
                _ => 3_000 * cores,
            };
            let params = Params {
                threads: cores,
                size,
                reps: 1,
            };
            let models = [ExecModel::Coherent, ExecModel::NonCoherentWriteBack];
            assert_a_phase_runs_exactly(bench, &params, &models);
        }
    }
}

/// The six RCCE points of the benchmark's `paper_compute` at paper scale,
/// where leaving the scheduler untold once read Count Primes'
/// `mc_queue_cycles` 7 028 as 7 254 774 with nothing panicking: a release
/// build has no `debug_assert` in `schedule`, only this comparison.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper scale: a minute in a debug build")]
fn free_cores_advance_beside_one_another_exactly_at_paper_scale() {
    for bench in COMPUTE {
        assert_a_phase_runs_exactly(bench, &bench.default_params(32), &[ExecModel::Coherent]);
    }
}

/// `RunResult.events` counts events performed, however many of them a
/// visit to the scheduler preceded: Stream, off-chip, 32 cores performs the
/// 1 352 224 it performed when every one of them was a visit.
#[test]
fn events_count_what_was_performed_not_what_was_scheduled() {
    let bench = Bench::Stream;
    let src = hsm_workloads::source(bench, &bench.default_params(32));
    let run = Pipeline::new(src)
        .cores(32)
        .scenario(Mode::RcceOffChip.into())
        .run_scenario()
        .expect("stream runs");
    assert_eq!(run.events, 1_352_224);
    assert_eq!(run.instructions, 10_634_248);
}

/// Random worker bodies over each thread's own slice (the generator of
/// `tests/proptest_pipeline.rs`) at random core counts.
#[test]
fn run_ahead_is_exact_on_generated_programs() {
    let templates = [
        "data[j] = data[j] + id;",
        "data[j] = data[j] * 2;",
        "data[j] = data[j] + aux[j];",
        "aux[j] = data[j] - 1;",
        "if (data[j] % 2 == 0) data[j] = data[j] + 3;",
        "data[j] = data[j] + j % 5;",
    ];
    testkit::check("run_ahead_is_exact_on_generated_programs", 12, |rng| {
        let body: Vec<&str> = (0..rng.gen_range_usize(1, 8))
            .map(|_| *rng.choose(&templates))
            .collect();
        let body = body.join("\n        ");
        let threads = rng.gen_range_usize(2, 33);
        let n = threads * 8;
        let src = format!(
            r#"
#include <pthread.h>
int data[{n}];
int aux[{n}];
void *tf(void *tid) {{
    int id = (int)tid;
    int j;
    for (j = id * 8; j < id * 8 + 8; j++) {{
        {body}
    }}
    pthread_exit(NULL);
}}
int main() {{
    pthread_t t[{threads}];
    int i;
    for (i = 0; i < {n}; i++) {{
        data[i] = i % 7;
        aux[i] = (i + 2) % 3;
    }}
    for (i = 0; i < {threads}; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < {threads}; i++) pthread_join(t[i], NULL);
    int check = 0;
    for (i = 0; i < {n}; i++) check = check * 31 % 100003 + data[i] + aux[i];
    return check % 100000;
}}
"#
        );
        let model = *rng.choose(&ExecModel::ALL);
        let level = *rng.choose(&[OptLevel::O0, OptLevel::O2]);
        assert_source_exact("generated", &src, threads, &[model], level);
    });
}

fn native(src: &str) -> Program {
    hsm_vm::compile(&hsm_cir::parse(src).expect("parse")).expect("compile")
}

/// Hand-written RCCE programs for what translated programs never do:
/// every blocking primitive, so every way a blocked core re-enters the
/// schedule with a clock somebody else set.
#[test]
fn run_ahead_is_exact_across_every_wake_up() {
    // Locks serialize increments of a shared counter; private work of a
    // different length per core between the critical sections.
    let locks = r#"
int *counter;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    counter = (int *)RCCE_shmalloc(sizeof(int) * 1);
    int me;
    me = RCCE_ue();
    int scratch[16];
    int round;
    int i;
    for (round = 0; round < 6; round++) {
        for (i = 0; i < 16 * (me + 1); i++) scratch[i % 16] = scratch[(i + 1) % 16] + i;
        RCCE_acquire_lock(0);
        counter[0] = counter[0] + 1;
        RCCE_release_lock(0);
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return counter[0] + scratch[0] % 2;
}
"#;
    // A send/recv ring, then a flag hand-off from the last core to the
    // first, then put/get through the MPB.
    let messages = r#"
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    int me;
    me = RCCE_ue();
    int n;
    n = RCCE_num_ues();
    RCCE_FLAG ready;
    RCCE_flag_alloc(&ready);
    char *buf;
    buf = (char *)RCCE_malloc(64);
    int out[4];
    int in[4];
    int i;
    for (i = 0; i < 4; i++) out[i] = me * 10 + i;
    for (i = 0; i < 40 * me; i++) in[i % 4] = in[i % 4] + out[i % 4];
    if (me % 2 == 0) {
        RCCE_send(out, 16, (me + 1) % n);
        RCCE_recv(in, 16, (me + n - 1) % n);
    } else {
        RCCE_recv(in, 16, (me + n - 1) % n);
        RCCE_send(out, 16, (me + 1) % n);
    }
    if (me == n - 1) RCCE_flag_write(&ready, 1, 0);
    if (me == 0) RCCE_wait_until(&ready, 1);
    RCCE_put(buf, out, 16, me);
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_get(in, buf, 16, (me + 1) % n);
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return in[0] + in[3];
}
"#;
    for (name, src) in [("locks", locks), ("messages", messages)] {
        let program = native(src);
        for cores in [2, 3, 8, 32] {
            for model in ExecModel::ALL {
                let label = format!("{name}@{cores}");
                assert_exact(&label, &program, Units::Rcce(cores), model)
                    .unwrap_or_else(|e| panic!("{label} under {model:?}: {e}"));
            }
        }
    }
}

/// A run that fails reports the failure the reference reports: a fault a
/// core meets while running ahead waits for that core's turn.
#[test]
fn run_ahead_reports_the_error_the_reference_reports() {
    // Core 0 divides by zero at the end of a long private stretch, which
    // it runs through before any other core moves; core 1 releases a lock
    // it does not hold much earlier in simulated time.
    let two_failures = r#"
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    int me;
    me = RCCE_ue();
    int scratch[8];
    int i;
    int zero = 0;
    if (me == 0) {
        for (i = 0; i < 2000; i++) scratch[i % 8] = scratch[(i + 1) % 8] + i;
        return scratch[0] / zero;
    }
    for (i = 0; i < 400; i++) scratch[i % 8] = scratch[(i + 1) % 8] + i;
    RCCE_release_lock(3);
    return 0;
}
"#;
    // Only the fault: the other cores wait in a barrier nobody completes.
    let lone_fault = r#"
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    int me;
    me = RCCE_ue();
    int scratch[8];
    int i;
    int zero = 0;
    for (i = 0; i < 100 * (me + 1); i++) scratch[i % 8] = scratch[(i + 1) % 8] + i;
    if (me == 2) return scratch[0] / zero;
    RCCE_barrier(&RCCE_COMM_WORLD);
    return 0;
}
"#;
    // No fault at all: core 0 never reaches the barrier.
    let deadlock = r#"
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    int out[1];
    out[0] = 1;
    if (RCCE_ue() == 0) RCCE_send(out, 4, 1);
    RCCE_barrier(&RCCE_COMM_WORLD);
    return 0;
}
"#;
    for (name, src, expect) in [
        ("two_failures", two_failures, "does not hold"),
        ("lone_fault", lone_fault, "division by zero"),
        ("deadlock", deadlock, "deadlock"),
    ] {
        let program = native(src);
        for model in ExecModel::ALL {
            let outcome = assert_exact(name, &program, Units::Rcce(4), model);
            let error = outcome.expect_err(name);
            assert!(error.message.contains(expect), "{name}: {error}");
        }
    }
}

/// What a core meets while it advances beside the others waits for its
/// turn like anything else it meets ahead of the order, on whichever host
/// thread it met it.
#[test]
fn a_failure_met_beside_other_cores_is_the_one_the_reference_reports() {
    // Every core runs past the engine's floor, the higher ids for less
    // long. Core 3 computes a negative address at the earliest clock, core
    // 1 divides by zero at a later one; which of the two a host thread
    // meets first depends on how the lanes were dealt.
    let two_faults = r#"
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    int me;
    me = RCCE_ue();
    int scratch[8];
    int i;
    int acc = 0;
    int zero = 0;
    int far = 0 - 400000000;
    for (i = 0; i < 6000 * (4 - me); i++) acc = acc + i % 3;
    if (me == 1) return acc / zero;
    if (me == 3) return scratch[far];
    return 0;
}
"#;
    // Core 1 loops on its own warm lines for ever, so it stops only where
    // a lane's event bound stops it, far ahead of core 0, which divides by
    // zero after a stretch past the floor. (Under `non_coherent_wb` the
    // barrier drops the lines and core 1 reaches the bound one hand-out
    // later; under `seq_cst_ref` nothing is served on the tile and it
    // never runs ahead at all.)
    let endless = r#"
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    int me;
    me = RCCE_ue();
    int scratch[8];
    int i;
    int acc = 0;
    int zero = 0;
    for (i = 0; i < 8; i++) scratch[i] = i;
    RCCE_barrier(&RCCE_COMM_WORLD);
    if (me == 1) {
        for (i = 0; i >= 0; i = (i + 1) % 8) scratch[i] = scratch[(i + 1) % 8] + 1;
    }
    for (i = 0; i < 8000; i++) acc = acc + i % 3;
    return acc / zero;
}
"#;
    let config = &SccConfig::table_6_1();
    for (name, src, cores, expect) in [
        ("two_faults", two_faults, 4, "negative address"),
        ("endless", endless, 3, "division by zero"),
    ] {
        let program = native(src);
        for model in ExecModel::ALL {
            let sink = &mut hsm_exec::NullSink;
            let reference =
                hsm_exec::run_rcce_visiting_every_event(&program, cores, config, model, sink);
            let error = reference.as_ref().expect_err(name);
            assert!(error.message.contains(expect), "{name}: {error}");
            let with_a_phase =
                assert_exact_at_every_helper_count(name, &program, cores, model, &reference);
            assert_eq!(with_a_phase, HELPERS.len(), "{name} under {model:?}");
        }
    }
}
