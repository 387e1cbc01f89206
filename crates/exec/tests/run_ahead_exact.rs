//! Run-ahead changes when the scheduler is asked, never what a run
//! computes.
//!
//! `hsm_exec::run` lets a unit keep stepping while the scheduler
//! would hand it out again anyway (the ordered rule), while what it does is
//! visible to nobody else (the local rule), or while it only computes (the
//! pure rule); DESIGN.md §9 argues all three are exact. This suite is the
//! argument as a test: every program here runs on the production path and
//! as the reference (`RunSpec::reference`), which refuses every grant so the
//! core visits `schedule` before each event and no unit is ever ahead of its
//! turn, and the runs must agree on the whole `RunResult` — or on the
//! error — and, with a recording sink attached, on every access and every
//! synchronization event in order.
//!
//! The local and the pure rule also take the free units of a run ahead
//! beside one another on several host threads. How many is the host's
//! business and never part of a result, so every program here additionally
//! runs with the helper count forced to each of [`HELPERS`], untraced and
//! recorded, and must give what the reference gives.
//!
//! The task-dataflow model's second side is held beside the model, in
//! `crates/exec/src/taskflow.rs`'s unit tests; here it appears only in
//! the census of which runs take their units ahead at all.

use hsm_core::api::{ExecModel, Mode, OptLevel, Pipeline, Scenario};
use hsm_exec::{
    run, ExecError, NullSink, ProfileCollector, RunResult, RunSpec, SyncEvent, TraceEvent,
    TraceSink, Units,
};
use hsm_vm::Program;
use hsm_workloads::{Bench, Params};
use scc_sim::SccConfig;
use std::path::PathBuf;
use std::sync::Arc;

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

type Outcome = Result<RunResult, ExecError>;

/// Host threads beside the caller's that a run is forced onto: none (every
/// free unit on the caller), one (the reference container), and more than
/// any test here has units to spare for.
const HELPERS: [usize; 3] = [0, 1, 3];

/// The production path.
fn production(units: Units, model: ExecModel) -> RunSpec {
    RunSpec::new(SccConfig::table_6_1(), units, model)
}

/// The reference: a scheduler visit before every event, no unit ever ahead.
fn reference(units: Units, model: ExecModel) -> RunSpec {
    RunSpec {
        reference: true,
        ..production(units, model)
    }
}

/// The production path, on exactly `helpers` host threads beside the
/// caller's.
fn on_helpers(helpers: usize, units: Units, model: ExecModel) -> RunSpec {
    RunSpec {
        helpers: Some(helpers),
        ..production(units, model)
    }
}

/// How many times `run` took its free units ahead in one go.
fn phases_of<R>(run: impl FnOnce() -> R) -> (R, u64) {
    let before = hsm_exec::phases_on_this_thread();
    let result = run();
    (result, hsm_exec::phases_on_this_thread() - before)
}

/// Runs `program` as the reference, untraced and recorded, then on
/// the production path — untraced on the threads the host offers, and
/// untraced and recorded at every forced helper count — and holds every
/// run against the reference: the whole outcome, and what the sink was
/// told. Returns the reference outcome and how many of the untraced forced
/// runs took their free units ahead in one go at least once.
fn assert_exact(
    label: &str,
    program: &Program,
    units: Units,
    model: ExecModel,
) -> (Outcome, usize) {
    let visiting = reference(units, model);
    let reference = run(program, &visiting, &mut NullSink);
    let mut expected = Recorder::default();
    let traced_reference = run(program, &visiting, &mut expected);
    assert_eq!(
        traced_reference, reference,
        "{label} under {model:?}: the sink perturbed the reference"
    );
    let fast = run(program, &production(units, model), &mut NullSink);
    assert_eq!(fast, reference, "{label} under {model:?}: results differ");

    let mut with_a_phase = 0;
    for helpers in HELPERS {
        let at = format!("{label} under {model:?} on {helpers} helpers");
        let forced_spec = on_helpers(helpers, units, model);
        let (forced, phases) = phases_of(|| run(program, &forced_spec, &mut NullSink));
        assert_eq!(forced, reference, "{at}: results differ");
        with_a_phase += usize::from(phases > 0);

        let mut seen = Recorder::default();
        let traced = run(program, &forced_spec, &mut seen);
        assert_eq!(traced, reference, "{at}: traced results differ");
        assert_eq!(seen.syncs, expected.syncs, "{at}: sync streams differ");
        // Element by element, so a failure names the first access that moved.
        assert_eq!(seen.accesses.len(), expected.accesses.len(), "{at}");
        for (i, pair) in seen.accesses.iter().zip(&expected.accesses).enumerate() {
            assert_eq!(pair.0, pair.1, "{at}: access {i} differs");
        }
    }
    (reference, with_a_phase)
}

/// What `mode` runs of a pthread source for `cores` units, and on what:
/// the source itself on one core, or one of its two translations.
fn program_of(src: &str, cores: usize, mode: Mode, level: OptLevel) -> (Arc<Program>, Units) {
    let session = Pipeline::new(src)
        .cores(cores)
        .scenario(Scenario::new(mode).opt_level(level));
    let (program, units) = match mode {
        Mode::PthreadBaseline => (session.baseline_program(), Units::Pthread),
        _ => (session.program(), Units::Rcce { cores }),
    };
    let program = program.unwrap_or_else(|e| panic!("{} on {cores}: {e}", mode.label()));
    (program, units)
}

/// The three placements of a pthread source: the untranslated baseline
/// on one core and the two translations on `cores`.
fn assert_source_exact(name: &str, src: &str, cores: usize, models: &[ExecModel], level: OptLevel) {
    for mode in [Mode::PthreadBaseline, Mode::RcceOffChip, Mode::RcceHsm] {
        let (program, units) = program_of(src, cores, mode, level);
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

/// `bench` at O0 (like the benchmark's `paper_compute`) in each of
/// `modes`, at every helper count, under each of `models`: equal to the
/// reference, and every run did take its free units ahead in one go — at a
/// size too small for that the tests below would pass without having run
/// what they are about.
fn assert_a_phase_runs_exactly(
    bench: Bench,
    params: &Params,
    modes: &[Mode],
    models: &[ExecModel],
) {
    let src = hsm_workloads::source(bench, params);
    for &mode in modes {
        let (program, units) = program_of(&src, params.threads, mode, OptLevel::O0);
        let label = format!("{}@{} {}", bench.name(), params.threads, mode.label());
        for &model in models {
            let (reference, with_a_phase) = assert_exact(&label, &program, units, model);
            assert!(reference.is_ok(), "{label}: {reference:?}");
            assert_eq!(with_a_phase, HELPERS.len(), "{label} under {model:?}");
        }
    }
}

const RCCE_MODES: [Mode; 2] = [Mode::RcceOffChip, Mode::RcceHsm];

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
            assert_a_phase_runs_exactly(bench, &params, &RCCE_MODES, &models);
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
        let params = bench.default_params(32);
        assert_a_phase_runs_exactly(bench, &params, &RCCE_MODES, &[ExecModel::Coherent]);
    }
}

/// The pthread baselines of the three compute benchmarks at sizes where
/// the threads run `Ran` slice after `Ran` slice for longer than the
/// engine's floor, on 2, 5 and 32 threads: the threads compute ahead beside
/// one another and replay in turn, quantum by quantum. (Count Primes on 32
/// threads has a thread finish — a store and an exit — every few hundred
/// slices until it is at paper scale, which is the test below.)
#[test]
fn threads_compute_ahead_and_replay_in_turn_exactly() {
    let models = [ExecModel::Coherent, ExecModel::NonCoherentWriteBack];
    for (bench, threads, size) in [
        (Bench::PiApprox, 2, 180_000),
        (Bench::PiApprox, 5, 180_000),
        (Bench::PiApprox, 32, 180_000),
        (Bench::Sum35, 2, 180_000),
        (Bench::Sum35, 5, 180_000),
        (Bench::Sum35, 32, 180_000),
        (Bench::CountPrimes, 2, 2_100),
        (Bench::CountPrimes, 5, 3_000),
    ] {
        let params = Params {
            threads,
            size,
            reps: 1,
        };
        assert_a_phase_runs_exactly(bench, &params, &[Mode::PthreadBaseline], &models);
    }
}

/// The three pthread baselines of the benchmark's `paper_compute`.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper scale: a minute in a debug build")]
fn threads_compute_ahead_and_replay_in_turn_exactly_at_paper_scale() {
    for bench in COMPUTE {
        let params = bench.default_params(32);
        let modes = [Mode::PthreadBaseline];
        assert_a_phase_runs_exactly(bench, &params, &modes, &[ExecModel::Coherent]);
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
                let (outcome, _) = assert_exact(&label, &program, Units::Rcce { cores }, model);
                outcome.unwrap_or_else(|e| panic!("{label} under {model:?}: {e}"));
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
            let (outcome, _) = assert_exact(name, &program, Units::Rcce { cores: 4 }, model);
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
    for (name, src, cores, expect) in [
        ("two_faults", two_faults, 4, "negative address"),
        ("endless", endless, 3, "division by zero"),
    ] {
        let program = native(src);
        for model in ExecModel::ALL {
            let (reference, with_a_phase) =
                assert_exact(name, &program, Units::Rcce { cores }, model);
            let error = reference.expect_err(name);
            assert!(error.message.contains(expect), "{name}: {error}");
            assert_eq!(with_a_phase, HELPERS.len(), "{name} under {model:?}");
        }
    }
}

/// A pthread program whose `threads` workers each spin for `work`
/// iterations of pure arithmetic and then do `tail`, while `main`, having
/// started them, spins for `main_work` iterations itself and then does
/// `end`. Declared for both: `acc`, `zero` (0) and `far` (an address below
/// zero when used as an index of `out`).
fn spinning(threads: usize, work: &str, tail: &str, main_work: usize, end: &str) -> String {
    format!(
        r#"
int out[{threads}];
void *spin(void *tid) {{
    int id = (int)tid;
    int i;
    int acc = 0;
    int zero = 0;
    int far = 0 - 400000000;
    for (i = 0; i < {work}; i++) acc = acc + i % 3;
    {tail}
    out[id] = acc;
    return tid;
}}
int main() {{
    pthread_t t[{threads}];
    int i;
    int acc = 0;
    int zero = 0;
    int far = 0 - 400000000;
    for (i = 0; i < {threads}; i++) pthread_create(&t[i], NULL, spin, (void *)i);
    for (i = 0; i < {main_work}; i++) acc = acc + i % 5;
    {end}
    return acc % 7;
}}
"#
    )
}

/// What a thread computed ahead of its turn counts for nothing until the
/// turn comes: a process that ends first ends as if the thread had never
/// got there, and a fault waits behind the slices that led to it.
#[test]
fn what_a_thread_computed_ahead_happens_only_in_its_turn() {
    let join = "for (i = 0; i < 4; i++) pthread_join(t[i], NULL);";
    let fault = "if (id == 2) acc = acc / zero;";
    let two_faults = "if (id == 1) acc = acc / zero; if (id == 3) acc = out[far];";
    // About 38 simulated cycles an iteration, five units taking turns: the
    // floor is crossed when each has spun some 22 000 times.
    let cases = [
        // `main` leaves while every thread holds some 500 slices it has
        // not replayed: instructions, events and busy cycles count what
        // was replayed.
        ("exit", spinning(4, "200000", "", 60_000, "exit(3);"), Ok(3)),
        ("return", spinning(4, "200000", "", 60_000, ""), Ok(6)),
        // Thread 2 has divided by zero on some host thread long before
        // `main` is done, and is never handed out again to say so.
        (
            "fault, then exit",
            spinning(4, "75000", fault, 60_000, "exit(3);"),
            Ok(3),
        ),
        // Unless `main` waits for it.
        (
            "fault, joined",
            spinning(4, "75000", fault, 60_000, join),
            Err("division by zero"),
        ),
        // Thread 3 is the first to fault in simulated time; which of the
        // two a host thread meets first is how the threads were dealt.
        (
            "two faults",
            spinning(4, "60000 + 5000 * (4 - id)", two_faults, 60_000, join),
            Err("negative address"),
        ),
        // A thread that never ends is stopped by the most slices a unit
        // may hold, and the run by `main`.
        (
            "endless",
            spinning(1, "10", "while (1);", 150_000, "exit(5);"),
            Ok(5),
        ),
    ];
    for (name, src, expect) in cases {
        let program = native(&src);
        for model in ExecModel::ALL {
            let (reference, with_a_phase) = assert_exact(name, &program, Units::Pthread, model);
            assert_eq!(with_a_phase, HELPERS.len(), "{name} under {model:?}");
            match (&reference, expect) {
                (Ok(run), Ok(exit)) => assert_eq!(run.exit_code, exit, "{name} under {model:?}"),
                (Err(error), Err(message)) => {
                    assert!(error.message.contains(message), "{name}: {error}");
                }
                _ => panic!("{name} under {model:?}: {reference:?}"),
            }
        }
    }
}

/// Under a recording sink an RCCE run has no lanes and its cores compute
/// ahead under the pure rule instead. A `ProfileCollector` is told about
/// every access and every synchronization event in the global order, so the
/// profile it builds is the reference's to the byte at any helper count.
#[test]
fn a_profiled_rcce_run_computes_ahead_and_profiles_the_same() {
    let config = &SccConfig::table_6_1();
    let bench = Bench::PiApprox;
    let cores = 5;
    let params = Params {
        threads: cores,
        size: 180_000,
        reps: 1,
    };
    let src = hsm_workloads::source(bench, &params);
    let (program, _) = program_of(&src, cores, Mode::RcceHsm, OptLevel::O0);
    let model = ExecModel::Coherent;
    let units = Units::Rcce { cores };
    let mut collector = ProfileCollector::new(config.line_bytes);
    let reference = run(&program, &reference(units, model), &mut collector).expect("pi runs");
    let expected = collector.into_profile(reference.clone()).to_text();
    let mut texts = Vec::new();
    for helpers in HELPERS {
        let mut collector = ProfileCollector::new(config.line_bytes);
        let forced = on_helpers(helpers, units, model);
        let (outcome, phases) = phases_of(|| run(&program, &forced, &mut collector));
        let result = outcome.expect("pi runs");
        assert_eq!(result, reference, "{helpers} helpers");
        let profile = collector.into_profile(result);
        assert!(phases > 0, "{helpers} helpers: nothing was computed ahead");
        texts.push(profile.to_text());
    }
    assert_eq!(texts[0], expected, "0 helpers against the reference");
    assert!(
        texts.iter().all(|text| *text == texts[0]),
        "across helper counts"
    );
}

/// Which runs take their free units ahead in one go, and how often: a phase
/// costs a thread start and join or two, so the runs too short to earn
/// that back must not start one, and the ones meant to must. Counted, not
/// timed — the timed half is `scripts/bench_pairs.sh`.
mod census {
    use super::*;

    /// The phases of one run of `program`, untraced and recorded.
    fn phases(program: &Program, units: Units, model: ExecModel) -> (u64, u64) {
        let spec = production(units, model);
        let (outcome, untraced) = phases_of(|| run(program, &spec, &mut NullSink));
        outcome.expect("runs");
        let sink = &mut Recorder::default();
        let (outcome, recorded) = phases_of(|| run(program, &spec, sink));
        outcome.expect("runs");
        (untraced, recorded)
    }

    /// At the sizes of the benchmark's `serve_mix` and `corpus_grid` no run
    /// starts a phase under the pure rule: not the pthread baselines, not
    /// the task ports, nothing that carries a sink. The RCCE runs without a
    /// sink start the phases the local rule started before the pure rule
    /// existed, counted at the parent commit (`19365bd`): one on each
    /// placement of the three compute benchmarks, Pi on 8 cores excepted,
    /// where no core retires 50 000 instructions between two syscalls.
    #[test]
    fn short_runs_start_no_phase_they_did_not_start_before() {
        let paper_modes = [Mode::PthreadBaseline, Mode::RcceOffChip, Mode::RcceHsm];
        for bench in Bench::all() {
            for threads in [2, 4, 8] {
                let src = hsm_workloads::source(bench, &small_params(bench, threads));
                for mode in paper_modes {
                    let (program, units) = program_of(&src, threads, mode, OptLevel::O0);
                    let local = mode != Mode::PthreadBaseline
                        && COMPUTE.contains(&bench)
                        && (bench, threads) != (Bench::PiApprox, 8);
                    let counted = phases(&program, units, ExecModel::Coherent);
                    let label = format!("{bench}@{threads} {}", mode.label());
                    assert_eq!(counted, (u64::from(local), 0), "{label}");
                }
            }
        }
        // `corpus_grid`'s programs and core counts.
        let barrier_programs = [
            ("example_4_1.c", 3),
            ("matrix_vector.c", 4),
            ("mutex_histogram.c", 4),
            ("switch_classifier.c", 2),
            ("escaping_local.c", 4),
            ("dot_product.c", 8),
        ];
        for (name, cores) in barrier_programs {
            let src = corpus(name);
            for mode in paper_modes {
                for level in [OptLevel::O0, OptLevel::O2] {
                    let (program, units) = program_of(&src, cores, mode, level);
                    for model in ExecModel::ALL {
                        let counted = phases(&program, units, model);
                        assert_eq!(counted, (0, 0), "{name} {} {level} {model:?}", mode.label());
                    }
                }
            }
        }
        let task_ports = [
            ("task_matrix_vector.c", 4),
            ("task_histogram.c", 4),
            ("task_dot_product.c", 8),
        ];
        for (name, cores) in task_ports {
            let program = native(&corpus(name));
            for model in ExecModel::ALL {
                let spec = production(Units::Task { cores }, model);
                let (outcome, untraced) = phases_of(|| run(&program, &spec, &mut NullSink));
                outcome.expect("runs");
                let sink = &mut Recorder::default();
                let (outcome, recorded) = phases_of(|| run(&program, &spec, sink));
                outcome.expect("runs");
                assert_eq!((untraced, recorded), (0, 0), "{name} {model:?}");
            }
        }
    }

    /// At paper scale, 32 units: every point of `paper_compute` starts
    /// exactly one phase — the RCCE points under the local rule, as they
    /// did before, the pthread baselines under the pure rule — and the
    /// baselines of `paper_memory`, which meet a load or a store every few
    /// instructions, start none.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper scale: a minute in a debug build")]
    fn paper_scale_runs_start_the_phases_they_are_meant_to() {
        for bench in Bench::all() {
            let src = hsm_workloads::source(bench, &bench.default_params(32));
            let compute = COMPUTE.contains(&bench);
            let (program, units) = program_of(&src, 32, Mode::PthreadBaseline, OptLevel::O0);
            let (outcome, baseline) = phases_of(|| {
                run(
                    &program,
                    &production(units, ExecModel::Coherent),
                    &mut NullSink,
                )
            });
            outcome.expect("runs");
            assert_eq!(baseline, u64::from(compute), "{bench} baseline");
            if !compute {
                continue;
            }
            for mode in RCCE_MODES {
                let (program, units) = program_of(&src, 32, mode, OptLevel::O0);
                let (outcome, rcce) = phases_of(|| {
                    run(
                        &program,
                        &production(units, ExecModel::Coherent),
                        &mut NullSink,
                    )
                });
                outcome.expect("runs");
                assert_eq!(rcce, 1, "{bench} {}", mode.label());
            }
        }
    }
}
