//! # hsm-exec — discrete-event execution of C programs on the simulated SCC
//!
//! A run is one call, [`run`]`(&program, &spec, sink)`. The [`RunSpec`]
//! names the chip and two orthogonal axes:
//!
//! * the sync model, [`Units`]: what create/join/barrier/put/get mean.
//!   Three ship. [`Units::Pthread`] is the paper's baseline (Table 6.1):
//!   all threads of a pthread program time-sliced on **one** core, sharing
//!   its caches, with an OS quantum and context-switch penalty.
//!   [`Units::Rcce`] is the converted program: one process per core, each
//!   running the whole translated binary, synchronized by RCCE barriers and
//!   test-and-set locks, with private/shared/MPB memory latencies from
//!   `scc-sim`. [`Units::Task`] is the task-dataflow runtime of BDDT-SCC.
//! * the coherence model, [`ExecModel`]: what value a load observes.
//!   [`ExecModel::Coherent`] is ground truth;
//!   [`ExecModel::NonCoherentWriteBack`] makes the SCC's missing hardware
//!   coherence *executable* (stale reads really happen);
//!   [`ExecModel::SeqCstReference`] is a cacheless differential
//!   reference.
//!
//! Every memory access and synchronization event streams to the
//! [`TraceSink`]; [`NullSink`] watches nothing and costs nothing. The RCCE
//! scheduler always advances the core with the smallest local clock, so
//! memory-controller queuing and lock contention resolve in globally
//! consistent simulated time, deterministically.
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use hsm_exec::{run, ExecModel, NullSink, RunSpec, Units};
//! use scc_sim::SccConfig;
//!
//! let src = r#"
//!     int data[4];
//!     void *tf(void *tid) { data[(int)tid] = (int)tid * 10; return tid; }
//!     int main() {
//!         pthread_t t[4];
//!         int i;
//!         for (i = 0; i < 4; i++) pthread_create(&t[i], NULL, tf, (void *)i);
//!         for (i = 0; i < 4; i++) pthread_join(t[i], NULL);
//!         printf("%d %d %d %d\n", data[0], data[1], data[2], data[3]);
//!         return 0;
//!     }
//! "#;
//! let program = hsm_vm::compile(&hsm_cir::parse(src)?)?;
//! let spec = RunSpec::new(SccConfig::table_6_1(), Units::Pthread, ExecModel::Coherent);
//! let result = run(&program, &spec, &mut NullSink)?;
//! assert_eq!(result.output_text(), "0 10 20 30\n");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod codec;
mod coherence;
mod engine;
mod machine;
mod oracle;
mod printf;
mod profile;
mod pthread;
mod rcce;
mod rcce_rt;
mod taskflow;
mod trace;

pub use coherence::ExecModel;
#[doc(hidden)]
pub use engine::phases_on_this_thread;
pub use engine::{run, RunSpec, Units};
pub use machine::{ExecError, OutputLine, RunResult};
pub use oracle::{Oracle, OracleMode, OracleReport, Violation, ViolationClass};
pub use profile::{Profile, ProfileCollector, ReuseHistogram, SyncSummary};
pub use trace::{NullSink, SyncEvent, TraceEvent, TraceSink};

use hsm_vm::Program;
use scc_sim::SccConfig;

/// Version of everything that decides a simulated number: the engine,
/// the three sync models, the coherence overlays, the syscall costs, and
/// `scc-sim`'s latency model (the chip *parameters* are an input, not
/// part of the version). A stored [`RunResult`] or [`Profile`] is only
/// as good as the simulator that produced it, so `hsm-core` keys both by
/// this number. **Bump it in the change that moves any simulated cycle
/// count** — `tests/model_version.rs` pins it together with a digest of
/// the corpus's cycles and fails until you do.
pub const MODEL_VERSION: u32 = 1;

/// Fixed syscall overheads in core cycles (single place to tune).
mod syscall_cost {
    /// `RCCE_init` library setup.
    pub(crate) const RCCE_INIT: u64 = 2_000;
    /// `RCCE_finalize`.
    pub(crate) const RCCE_FINALIZE: u64 = 1_000;
    /// Any allocator call.
    pub(crate) const ALLOC: u64 = 400;
    /// `printf` formatting + console path.
    pub(crate) const PRINTF: u64 = 1_500;
    /// `pthread_create` (kernel thread setup on the baseline core).
    pub(crate) const THREAD_CREATE: u64 = 8_000;
    /// `pthread_join` bookkeeping.
    pub(crate) const JOIN: u64 = 600;
    /// Mutex fast path.
    pub(crate) const MUTEX: u64 = 120;
    /// `task_spawn` descriptor construction + dependence lookup (a
    /// user-level operation, far cheaper than a kernel thread spawn).
    pub(crate) const TASK_SPAWN: u64 = 900;
    /// Per-task dispatch bookkeeping on the worker side, on top of the
    /// input-region DMA cost.
    pub(crate) const TASK_DISPATCH: u64 = 300;
    /// `task_wait_all` completion check and return.
    pub(crate) const TASK_WAIT: u64 = 400;
}

/// [`run`] with a [`ProfileCollector`] attached: the result together with
/// its [`Profile`], which holds a copy of it.
fn run_profiled(program: &Program, spec: &RunSpec) -> Result<(RunResult, Profile), ExecError> {
    let mut collector = ProfileCollector::new(spec.config.line_bytes);
    let result = run(program, spec, &mut collector)?;
    let profile = collector.into_profile(result.clone());
    Ok((result, profile))
}

fn spec(config: &SccConfig, units: Units, model: ExecModel) -> RunSpec {
    RunSpec::new(config.clone(), units, model)
}

// The six `run_*` below are [`run`] under the names `benchmark/src/adapter.rs`
// calls; nothing in the workspace may call them.

#[doc(hidden)] // Named by `benchmark/src/adapter.rs`.
pub fn run_pthread_model(p: &Program, c: &SccConfig, m: ExecModel) -> Result<RunResult, ExecError> {
    run(p, &spec(c, Units::Pthread, m), &mut NullSink)
}

#[doc(hidden)] // Named by `benchmark/src/adapter.rs`.
pub fn run_rcce_model(
    p: &Program,
    cores: usize,
    c: &SccConfig,
    m: ExecModel,
) -> Result<RunResult, ExecError> {
    run(p, &spec(c, Units::Rcce { cores }, m), &mut NullSink)
}

#[doc(hidden)] // Named by `benchmark/src/adapter.rs`.
pub fn run_task_model(
    p: &Program,
    cores: usize,
    c: &SccConfig,
    m: ExecModel,
) -> Result<RunResult, ExecError> {
    run(p, &spec(c, Units::Task { cores }, m), &mut NullSink)
}

#[doc(hidden)] // Named by `benchmark/src/adapter.rs`.
pub fn run_pthread_model_profiled(
    p: &Program,
    c: &SccConfig,
    m: ExecModel,
) -> Result<(RunResult, Profile), ExecError> {
    run_profiled(p, &spec(c, Units::Pthread, m))
}

#[doc(hidden)] // Named by `benchmark/src/adapter.rs`.
pub fn run_rcce_model_profiled(
    p: &Program,
    cores: usize,
    c: &SccConfig,
    m: ExecModel,
) -> Result<(RunResult, Profile), ExecError> {
    run_profiled(p, &spec(c, Units::Rcce { cores }, m))
}

#[doc(hidden)] // Named by `benchmark/src/adapter.rs`.
pub fn run_task_model_profiled(
    p: &Program,
    cores: usize,
    c: &SccConfig,
    m: ExecModel,
) -> Result<(RunResult, Profile), ExecError> {
    run_profiled(p, &spec(c, Units::Task { cores }, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_cir::parse;
    use hsm_vm::compile;
    use scc_sim::SccConfig;

    fn compile_src(src: &str) -> hsm_vm::Program {
        compile(&parse(src).expect("parse")).expect("compile")
    }

    fn cfg() -> SccConfig {
        SccConfig::table_6_1()
    }

    /// `units` under `model` on the Table 6.1 chip.
    fn table(units: Units, model: ExecModel) -> RunSpec {
        RunSpec::new(cfg(), units, model)
    }

    /// `p` run as `units` under `model` on the Table 6.1 chip.
    fn under(p: &Program, units: Units, model: ExecModel) -> Result<RunResult, ExecError> {
        run(p, &table(units, model), &mut NullSink)
    }

    /// `p` run as `units`, coherent, on the Table 6.1 chip.
    fn coherent(p: &Program, units: Units) -> Result<RunResult, ExecError> {
        under(p, units, ExecModel::Coherent)
    }

    // ------------------------------------------------------ pthread mode --

    const PTHREAD_SUM: &str = r#"
int sum[4];
int nthreads;
void *tf(void *tid) {
    int id = (int)tid;
    int i;
    for (i = 0; i < 100; i++) sum[id] += 1;
    return tid;
}
int main() {
    pthread_t t[4];
    int i;
    nthreads = 4;
    for (i = 0; i < 4; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 4; i++) pthread_join(t[i], NULL);
    return sum[0] + sum[1] + sum[2] + sum[3];
}
"#;

    #[test]
    fn pthread_threads_compute_and_join() {
        let p = compile_src(PTHREAD_SUM);
        let r = coherent(&p, Units::Pthread).expect("run");
        assert_eq!(r.exit_code, 400);
    }

    #[test]
    fn pthread_output_is_captured() {
        let src = r#"
void *tf(void *tid) { printf("thread %d\n", (int)tid); return tid; }
int main() {
    pthread_t t[2];
    int i;
    for (i = 0; i < 2; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 2; i++) pthread_join(t[i], NULL);
    return 0;
}
"#;
        let p = compile_src(src);
        let r = coherent(&p, Units::Pthread).expect("run");
        let lines = r.output_sorted();
        assert_eq!(lines, vec!["thread 0", "thread 1"]);
    }

    #[test]
    fn pthread_mutex_protects_counter() {
        let src = r#"
pthread_mutex_t m;
int counter;
void *tf(void *tid) {
    int i;
    for (i = 0; i < 50; i++) {
        pthread_mutex_lock(&m);
        counter = counter + 1;
        pthread_mutex_unlock(&m);
    }
    return tid;
}
int main() {
    pthread_t t[4];
    int i;
    pthread_mutex_init(&m, NULL);
    for (i = 0; i < 4; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 4; i++) pthread_join(t[i], NULL);
    return counter;
}
"#;
        let p = compile_src(src);
        let r = coherent(&p, Units::Pthread).expect("run");
        assert_eq!(r.exit_code, 200);
    }

    #[test]
    fn pthread_exit_terminates_thread() {
        let src = r#"
int mark[2];
void *tf(void *tid) {
    mark[(int)tid] = 1;
    pthread_exit(NULL);
}
int main() {
    pthread_t t[2];
    int i;
    for (i = 0; i < 2; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 2; i++) pthread_join(t[i], NULL);
    return mark[0] + mark[1];
}
"#;
        let p = compile_src(src);
        let r = coherent(&p, Units::Pthread).expect("run");
        assert_eq!(r.exit_code, 2);
    }

    #[test]
    fn pthread_more_threads_take_longer_on_one_core() {
        let make = |threads: usize| {
            format!(
                r#"
int work[{threads}];
void *tf(void *tid) {{
    int i;
    int acc = 0;
    for (i = 0; i < 20000; i++) acc += i;
    work[(int)tid] = acc;
    return tid;
}}
int main() {{
    pthread_t t[{threads}];
    int i;
    double t0 = wtime();
    for (i = 0; i < {threads}; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < {threads}; i++) pthread_join(t[i], NULL);
    double t1 = wtime();
    return 0;
}}
"#
            )
        };
        let r4 = coherent(&compile_src(&make(4)), Units::Pthread).expect("run 4");
        let r16 = coherent(&compile_src(&make(16)), Units::Pthread).expect("run 16");
        let ratio = r16.timed_cycles as f64 / r4.timed_cycles as f64;
        assert!(
            (3.0..6.0).contains(&ratio),
            "16 threads should take ~4x the time of 4 on one core, got {ratio}"
        );
    }

    #[test]
    fn pthread_self_returns_distinct_ids() {
        let src = r#"
int ids[3];
void *tf(void *tid) { ids[(int)tid] = (int)pthread_self(); return tid; }
int main() {
    pthread_t t[3];
    int i;
    for (i = 0; i < 3; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 3; i++) pthread_join(t[i], NULL);
    if (ids[0] == ids[1]) return 1;
    if (ids[1] == ids[2]) return 2;
    if (ids[0] == 0) return 3;
    return 0;
}
"#;
        let p = compile_src(src);
        assert_eq!(coherent(&p, Units::Pthread).expect("run").exit_code, 0);
    }

    #[test]
    fn rcce_calls_rejected_in_pthread_mode() {
        let src = "int main() { int x = RCCE_ue(); return x; }";
        let p = compile_src(src);
        let err = coherent(&p, Units::Pthread).unwrap_err();
        assert!(err.to_string().contains("RCCE call"), "{err}");
    }

    // --------------------------------------------------------- rcce mode --

    const RCCE_SUM: &str = r#"
int *sum;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    sum = (int *)RCCE_shmalloc(sizeof(int) * 8);
    int myID;
    myID = RCCE_ue();
    sum[myID] = myID * 10;
    RCCE_barrier(&RCCE_COMM_WORLD);
    int total = 0;
    int i;
    for (i = 0; i < 8; i++) total += sum[i];
    RCCE_finalize();
    return total;
}
"#;

    #[test]
    fn rcce_cores_share_shmalloc_data() {
        let p = compile_src(RCCE_SUM);
        let r = coherent(&p, Units::Rcce { cores: 8 }).expect("run");
        assert_eq!(r.exit_code, 280);
    }

    #[test]
    fn rcce_symmetric_allocation_is_consistent() {
        let src = r#"
int *a;
int *b;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    a = (int *)RCCE_shmalloc(sizeof(int) * 4);
    b = (int *)RCCE_shmalloc(sizeof(int) * 4);
    int myID;
    myID = RCCE_ue();
    if (myID == 0) { a[0] = 7; b[0] = 9; }
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return a[0] * 10 + b[0];
}
"#;
        let p = compile_src(src);
        let r = coherent(&p, Units::Rcce { cores: 4 }).expect("run");
        assert_eq!(r.exit_code, 79);
    }

    #[test]
    fn rcce_barrier_synchronizes_clocks() {
        let src = r#"
int *flag;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    flag = (int *)RCCE_shmalloc(sizeof(int) * 1);
    int myID;
    myID = RCCE_ue();
    if (myID == 0) {
        int i;
        int acc = 0;
        for (i = 0; i < 50000; i++) acc += i;
        flag[0] = 42;
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    int seen = flag[0];
    RCCE_finalize();
    return seen;
}
"#;
        let p = compile_src(src);
        let r = coherent(&p, Units::Rcce { cores: 4 }).expect("run");
        assert_eq!(r.exit_code, 42);
    }

    #[test]
    fn rcce_locks_serialize_increments() {
        let src = r#"
int *counter;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    counter = (int *)RCCE_shmalloc(sizeof(int) * 1);
    int myID;
    myID = RCCE_ue();
    int i;
    for (i = 0; i < 20; i++) {
        RCCE_acquire_lock(0);
        counter[0] = counter[0] + 1;
        RCCE_release_lock(0);
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    int total = counter[0];
    RCCE_finalize();
    return total;
}
"#;
        let p = compile_src(src);
        let r = coherent(&p, Units::Rcce { cores: 4 }).expect("run");
        assert_eq!(r.exit_code, 80, "4 cores x 20 increments");
    }

    #[test]
    fn rcce_mpb_malloc_allocates_on_chip() {
        let src = r#"
int *fast;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    fast = (int *)RCCE_malloc(sizeof(int) * 8);
    int myID;
    myID = RCCE_ue();
    fast[myID] = myID + 1;
    RCCE_barrier(&RCCE_COMM_WORLD);
    int total = 0;
    int i;
    for (i = 0; i < 8; i++) total += fast[i];
    RCCE_finalize();
    return total;
}
"#;
        let p = compile_src(src);
        let r = coherent(&p, Units::Rcce { cores: 8 }).expect("run");
        assert_eq!(r.exit_code, 36);
        assert!(
            r.mem_stats.mpb > 0,
            "MPB must be exercised: {:?}",
            r.mem_stats
        );
    }

    #[test]
    fn rcce_mpb_is_faster_than_shared_dram() {
        let body = |alloc: &str| {
            format!(
                r#"
int *data;
int RCCE_APP(int *argc, char **argv) {{
    RCCE_init(&argc, &argv);
    data = (int *){alloc}(sizeof(int) * 64);
    int myID;
    myID = RCCE_ue();
    double t0 = RCCE_wtime();
    int i;
    int acc = 0;
    for (i = 0; i < 2000; i++) acc += data[(myID * 64 + i) % 64];
    data[myID] = acc;
    double t1 = RCCE_wtime();
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return 0;
}}
"#
            )
        };
        let slow = coherent(
            &compile_src(&body("RCCE_shmalloc")),
            Units::Rcce { cores: 8 },
        )
        .expect("dram");
        let fast =
            coherent(&compile_src(&body("RCCE_malloc")), Units::Rcce { cores: 8 }).expect("mpb");
        assert!(
            fast.timed_cycles < slow.timed_cycles,
            "MPB {} should beat DRAM {}",
            fast.timed_cycles,
            slow.timed_cycles
        );
    }

    #[test]
    fn rcce_more_cores_scale_compute() {
        let src = r#"
int *partial;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    partial = (int *)RCCE_shmalloc(sizeof(int) * 48);
    int myID;
    myID = RCCE_ue();
    int n;
    n = RCCE_num_ues();
    double t0 = RCCE_wtime();
    int i;
    int acc = 0;
    for (i = myID; i < 100000; i += n) acc += i & 7;
    partial[myID] = acc;
    double t1 = RCCE_wtime();
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return 0;
}
"#;
        let p = compile_src(src);
        let r1 = coherent(&p, Units::Rcce { cores: 1 }).expect("1 core");
        let r8 = coherent(&p, Units::Rcce { cores: 8 }).expect("8 cores");
        let speedup = r1.timed_cycles as f64 / r8.timed_cycles as f64;
        assert!(
            speedup > 5.0,
            "8 cores should be >5x one core, got {speedup:.2}"
        );
    }

    #[test]
    fn rcce_deadlock_detected_when_core_skips_barrier() {
        let src = r#"
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    int myID;
    myID = RCCE_ue();
    if (myID != 0) {
        RCCE_barrier(&RCCE_COMM_WORLD);
    }
    RCCE_finalize();
    return 0;
}
"#;
        let p = compile_src(src);
        let err = coherent(&p, Units::Rcce { cores: 4 }).unwrap_err();
        assert!(err.to_string().contains("deadlock"), "{err}");
    }

    #[test]
    fn rcce_barrier_after_a_core_exited_is_a_barrier_deadlock() {
        // Core 0 leaves at once; the others work first, so they reach the
        // barrier after it is already gone.
        let src = r#"
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    int myID;
    myID = RCCE_ue();
    if (myID == 0) return 0;
    int i;
    int acc = 0;
    for (i = 0; i < 500; i++) acc += i % 3;
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return acc;
}
"#;
        let err = coherent(&compile_src(src), Units::Rcce { cores: 4 }).unwrap_err();
        assert_eq!(
            err.to_string(),
            "execution error: barrier deadlock: some cores exited before the barrier"
        );
    }

    /// 32 cores running the same code tie on their clocks at every step;
    /// the schedule is "smallest clock, lowest core id on ties", and the
    /// order in which tied cores reach the memory controllers decides who
    /// queues behind whom. The numbers are the parent commit's (PR 13).
    #[test]
    fn rcce_clock_ties_resolve_to_the_lowest_core_id() {
        const BEFORE: [usize; 32] = [
            24, 30, 25, 31, 26, 27, 28, 29, 0, 1, 2, 3, 4, 5, 12, 13, 6, 14, 7, 15, 8, 9, 16, 17,
            10, 11, 18, 19, 20, 21, 22, 23,
        ];
        const AFTER: [usize; 32] = [
            24, 25, 26, 27, 0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11, 12, 13, 14, 30, 15, 31, 28, 29,
            18, 19, 20, 21, 16, 22, 17, 23,
        ];
        const PER_CORE: [u64; 32] = [
            14400, 14410, 14432, 14452, 14478, 14498, 14563, 14573, 14591, 14601, 14640, 14663,
            14516, 14540, 14569, 14589, 14615, 14635, 14679, 14699, 14708, 14741, 14770, 14803,
            14038, 14179, 14191, 14201, 14217, 14227, 14173, 14183,
        ];
        let src = r#"
int *cells;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    cells = (int *)RCCE_shmalloc(sizeof(int) * 64);
    int me;
    me = RCCE_ue();
    int i;
    int acc = 0;
    for (i = 0; i < 40; i++) {
        cells[(me + i) % 64] = i;
        acc += cells[(me + 2 * i) % 64] % 5;
    }
    printf("core %d before\n", me);
    RCCE_barrier(&RCCE_COMM_WORLD);
    for (i = 0; i < 40; i++) acc += cells[(me * 3 + i) % 64] % 7;
    printf("core %d after\n", me);
    RCCE_finalize();
    return 0;
}
"#;
        let r = coherent(&compile_src(src), Units::Rcce { cores: 32 }).expect("run");
        // Output is ordered by (cycle, core): who printed when.
        let printed: Vec<usize> = r.output.iter().map(|l| l.who).collect();
        assert_eq!(printed[..32], BEFORE, "order of the first print");
        assert_eq!(printed[32..], AFTER, "order of the second print");
        assert_eq!(
            (r.total_cycles, r.events, r.instructions),
            (25937, 8032, 85984),
            "totals"
        );
        assert_eq!(r.per_unit_cycles, PER_CORE, "per-core cycles");
    }

    #[test]
    fn rcce_pthread_leftovers_are_rejected() {
        let src = r#"
int RCCE_APP(int *argc, char **argv) {
    pthread_t t;
    pthread_create(&t, NULL, RCCE_APP, NULL);
    return 0;
}
"#;
        let p = compile_src(src);
        let err = coherent(&p, Units::Rcce { cores: 2 }).unwrap_err();
        assert!(err.to_string().contains("translation incomplete"), "{err}");
    }

    #[test]
    fn rcce_put_get_move_data_through_mpb() {
        let src = r#"
int *slot;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    slot = (int *)RCCE_malloc(sizeof(int) * 2);
    int myID;
    myID = RCCE_ue();
    int local[2];
    local[0] = myID + 100;
    if (myID == 0) {
        RCCE_put(slot, local, 4, 1);
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    int got = slot[0];
    RCCE_finalize();
    return got;
}
"#;
        let p = compile_src(src);
        let r = coherent(&p, Units::Rcce { cores: 2 }).expect("run");
        assert_eq!(r.exit_code, 100);
    }

    /// `run` is the one place a core count meets its sync model: every
    /// count the model or the chip does not have is an error, not a panic.
    #[test]
    fn core_count_bounds_checked() {
        let p = compile_src(RCCE_SUM);
        for units in [
            Units::Rcce { cores: 0 },
            Units::Rcce { cores: 49 },
            Units::Task { cores: 1 },
            Units::Task { cores: 49 },
        ] {
            let err = coherent(&p, units).expect_err("refused");
            assert!(err.message.contains("core count"), "{units:?}: {err}");
        }
    }

    // ------------------------------------------------ message passing --

    #[test]
    fn rcce_send_recv_ring() {
        // Each core sends its id to the next core in the ring and adds
        // what it receives; core 0's exit is 0*10 + received.
        let src = r#"
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    int myID;
    myID = RCCE_ue();
    int n;
    n = RCCE_num_ues();
    int out[1];
    int in[1];
    out[0] = myID * 10;
    if (myID % 2 == 0) {
        RCCE_send(out, 4, (myID + 1) % n);
        RCCE_recv(in, 4, (myID + n - 1) % n);
    } else {
        RCCE_recv(in, 4, (myID + n - 1) % n);
        RCCE_send(out, 4, (myID + 1) % n);
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return in[0];
}
"#;
        let p = compile_src(src);
        let r = coherent(&p, Units::Rcce { cores: 4 }).expect("run");
        // Core 0 receives from core 3: 30.
        assert_eq!(r.exit_code, 30);
    }

    #[test]
    fn rcce_flags_signal_across_cores() {
        // Core 0 computes, then raises core 1's flag copy; core 1 waits on
        // its own copy before reading the shared result.
        let src = r#"
int *slot;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    slot = (int *)RCCE_shmalloc(sizeof(int) * 1);
    RCCE_FLAG ready;
    RCCE_flag_alloc(&ready);
    int myID;
    myID = RCCE_ue();
    int got = 0;
    if (myID == 0) {
        slot[0] = 777;
        RCCE_flag_write(&ready, 1, 1);
        got = 777;
    }
    if (myID == 1) {
        RCCE_wait_until(&ready, 1);
        got = slot[0];
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return got;
}
"#;
        let p = compile_src(src);
        let r = coherent(&p, Units::Rcce { cores: 2 }).expect("run");
        assert_eq!(r.exit_code, 777, "core 0's exit");
    }

    #[test]
    fn rcce_flag_read_returns_value() {
        let src = r#"
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    RCCE_FLAG f;
    RCCE_flag_alloc(&f);
    int myID;
    myID = RCCE_ue();
    RCCE_flag_write(&f, myID + 5, myID);
    int v[1];
    RCCE_flag_read(&f, v, myID);
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return v[0];
}
"#;
        let p = compile_src(src);
        let r = coherent(&p, Units::Rcce { cores: 3 }).expect("run");
        assert_eq!(r.exit_code, 5, "core 0 wrote 0+5 to its own copy");
    }

    #[test]
    fn rcce_send_without_recv_deadlocks_cleanly() {
        let src = r#"
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    int myID;
    myID = RCCE_ue();
    int out[1];
    out[0] = 1;
    if (myID == 0) {
        RCCE_send(out, 4, 1);
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return 0;
}
"#;
        let p = compile_src(src);
        let err = coherent(&p, Units::Rcce { cores: 2 }).unwrap_err();
        assert!(err.to_string().contains("deadlock"), "{err}");
    }

    #[test]
    fn rcce_pingpong_costs_scale_with_message_size() {
        let body = |bytes: usize| {
            format!(
                r#"
int RCCE_APP(int *argc, char **argv) {{
    RCCE_init(&argc, &argv);
    int myID;
    myID = RCCE_ue();
    char buf[{bytes}];
    double t0 = RCCE_wtime();
    int r;
    for (r = 0; r < 8; r++) {{
        if (myID == 0) {{
            RCCE_send(buf, {bytes}, 1);
            RCCE_recv(buf, {bytes}, 1);
        }} else {{
            RCCE_recv(buf, {bytes}, 0);
            RCCE_send(buf, {bytes}, 0);
        }}
    }}
    double t1 = RCCE_wtime();
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return 0;
}}
"#
            )
        };
        let small = coherent(&compile_src(&body(32)), Units::Rcce { cores: 2 }).expect("small");
        let big = coherent(&compile_src(&body(4096)), Units::Rcce { cores: 2 }).expect("big");
        assert!(
            big.timed_cycles > small.timed_cycles,
            "4 KB ping-pong {} must cost more than 32 B {}",
            big.timed_cycles,
            small.timed_cycles
        );
    }

    // ------------------------------------------------------ observability --

    #[test]
    fn trace_ring_captures_rcce_accesses() {
        use crate::trace::RingTrace;
        let p = compile_src(RCCE_SUM);
        let mut ring = RingTrace::new(100_000);
        let r = run(
            &p,
            &table(Units::Rcce { cores: 4 }, ExecModel::Coherent),
            &mut ring,
        )
        .expect("run");
        assert!(!ring.is_empty(), "a real program performs memory accesses");
        assert_eq!(ring.dropped(), 0, "capacity is ample for this program");
        // Every traced event is attributed in the counter matrix: per
        // core and region, reads, writes and cycles must agree exactly.
        let mut traced = scc_sim::StatsMatrix::new(r.stats_matrix.per_core.len());
        for e in ring.events() {
            let row = &mut traced.per_core[e.core];
            let i = e.region.index();
            if e.write {
                row.writes[i] += 1;
            } else {
                row.reads[i] += 1;
            }
            row.region_cycles[i] += e.latency;
        }
        for (core, (seen, counted)) in traced
            .per_core
            .iter()
            .zip(&r.stats_matrix.per_core)
            .enumerate()
        {
            let counted = (counted.reads, counted.writes, counted.region_cycles);
            assert_eq!(
                (seen.reads, seen.writes, seen.region_cycles),
                counted,
                "core {core}: trace and counters see the same stream"
            );
        }
        // The shared `sum` array lives in shared DRAM: shared accesses from
        // more than one core must appear.
        let shared_cores: std::collections::HashSet<usize> = ring
            .events()
            .iter()
            .filter(|e| e.region == scc_sim::Region::SharedDram)
            .map(|e| e.core)
            .collect();
        assert!(shared_cores.len() >= 2, "cores {shared_cores:?}");
    }

    #[test]
    fn tracing_does_not_perturb_timing() {
        use crate::trace::RingTrace;
        let p = compile_src(RCCE_SUM);
        let plain = coherent(&p, Units::Rcce { cores: 4 }).expect("plain");
        let mut ring = RingTrace::new(64);
        let traced = run(
            &p,
            &table(Units::Rcce { cores: 4 }, ExecModel::Coherent),
            &mut ring,
        )
        .expect("traced");
        assert_eq!(plain.total_cycles, traced.total_cycles);
        assert_eq!(plain.exit_code, traced.exit_code);
        assert_eq!(plain.mem_stats, traced.mem_stats);
        assert!(
            ring.dropped() > 0,
            "a tiny ring overflows and stays bounded"
        );
        assert_eq!(ring.len(), 64);
    }

    #[test]
    fn profiling_does_not_perturb_timing() {
        // The ProfileCollector rides the same monomorphized trace path as
        // RingTrace: every cycle total must match the unprofiled run, in
        // all three sync models.
        let rcce = compile_src(RCCE_SUM);
        let plain = coherent(&rcce, Units::Rcce { cores: 4 }).expect("plain");
        let (profiled, profile) =
            run_profiled(&rcce, &table(Units::Rcce { cores: 4 }, ExecModel::Coherent))
                .expect("profiled");
        assert_eq!(plain.total_cycles, profiled.total_cycles);
        assert_eq!(plain.mem_stats, profiled.mem_stats);
        assert_eq!(profile.run, profiled);
        assert!(profile.sync.barrier_epochs > 0, "RCCE_SUM barriers");
        assert!(
            profile.reuse.iter().any(|h| h.cold > 0),
            "private accesses seen"
        );

        let pth = compile_src(PTHREAD_SUM);
        let plain = coherent(&pth, Units::Pthread).expect("plain");
        let (profiled, profile) =
            run_profiled(&pth, &table(Units::Pthread, ExecModel::Coherent)).expect("profiled");
        assert_eq!(plain.total_cycles, profiled.total_cycles);
        assert_eq!(profile.reuse.len(), 1, "baseline shares core 0");

        let task = compile_src(TASK_SUM);
        let plain = coherent(&task, Units::Task { cores: 5 }).expect("plain");
        let (profiled, profile) =
            run_profiled(&task, &table(Units::Task { cores: 5 }, ExecModel::Coherent))
                .expect("profiled");
        assert_eq!(plain.total_cycles, profiled.total_cycles);
        assert_eq!(profile.run.exit_code, 400);
        assert!(
            profile.sync.dma_transfers > 0 && profile.sync.dma_bytes > 0,
            "task DMA volume flows through TraceSink::dma: {:?}",
            profile.sync
        );
    }

    /// A thread that loses the core at quantum expiry is suspended between
    /// two events, never inside one: when it gets the core back it goes on
    /// with the access it would have made next, so the access stream is
    /// the one of a core that asked the scheduler before every event.
    #[test]
    fn pthread_preemption_resumes_at_the_next_event() {
        use crate::trace::RingTrace;
        let p = compile_src(PTHREAD_SUM);
        // A quantum of a few dozen events instead of thousands.
        let mut tight = cfg();
        tight.sched_quantum_cycles = 300;
        let spec = RunSpec::new(tight, Units::Pthread, ExecModel::Coherent);
        let mut ring = RingTrace::new(1_000_000);
        let run = super::run(&p, &spec, &mut ring).expect("run");
        let mut expected = RingTrace::new(1_000_000);
        let visiting = RunSpec {
            reference: true,
            ..spec.clone()
        };
        let reference = super::run(&p, &visiting, &mut expected);
        assert_eq!(run.exit_code, 400);
        assert_eq!(Ok(&run), reference.as_ref());
        assert_eq!(ring.events(), expected.events());
        let switches = ring
            .events()
            .windows(2)
            .filter(|pair| pair[0].unit != pair[1].unit)
            .count();
        assert!(switches > 16, "threads interleave mid-loop: {switches}");
        let plain = super::run(&p, &spec, &mut NullSink).expect("plain");
        assert_eq!(plain, run, "and the sink saw the run it did not perturb");
    }

    #[test]
    fn pthread_trace_stays_on_core_zero() {
        use crate::trace::RingTrace;
        let p = compile_src(PTHREAD_SUM);
        let mut ring = RingTrace::new(1_000_000);
        let r = run(&p, &table(Units::Pthread, ExecModel::Coherent), &mut ring).expect("run");
        assert!(ring.events().iter().all(|e| e.core == 0));
        assert_eq!(r.stats_matrix.active_cores(), 1, "baseline uses one core");
        assert_eq!(r.exit_code, 400);
    }

    #[test]
    fn run_result_reports_mpb_high_water() {
        let src = r#"
int *fast;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    fast = (int *)RCCE_malloc(sizeof(int) * 100);
    fast[RCCE_ue()] = 1;
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return 0;
}
"#;
        let p = compile_src(src);
        let r = coherent(&p, Units::Rcce { cores: 2 }).expect("run");
        assert_eq!(r.mpb_high_water, 416, "400 B rounds to the 32 B line");
    }

    // ------------------------------------------------------- exec models --

    #[test]
    fn seq_cst_reference_matches_coherent_values() {
        let p = compile_src(PTHREAD_SUM);
        let coherent = coherent(&p, Units::Pthread).expect("coherent");
        let flat = under(&p, Units::Pthread, ExecModel::SeqCstReference).expect("seq_cst_ref");
        assert_eq!(coherent.exit_code, flat.exit_code);
        assert_eq!(coherent.output_text(), flat.output_text());
        // Timing differs: the flat model has no caches to hit.
        assert_ne!(coherent.total_cycles, flat.total_cycles);
    }

    #[test]
    fn non_coherent_model_breaks_unsynchronized_pthread_sharing() {
        // Threads publish through private-region globals and main reads
        // them after join. Without coherence (and with pthread code never
        // flushing), main's cached lines stay stale.
        let p = compile_src(PTHREAD_SUM);
        let truth = coherent(&p, Units::Pthread).expect("coherent");
        assert_eq!(truth.exit_code, 400);
        let stale = under(&p, Units::Pthread, ExecModel::NonCoherentWriteBack).expect("stale");
        assert_ne!(
            stale.exit_code, 400,
            "stale reads must corrupt the unsynchronized sum"
        );
    }

    #[test]
    fn non_coherent_model_keeps_translated_rcce_programs_correct() {
        // The translated program shares through uncacheable shared DRAM
        // and flushes at barriers: staleness cannot reach it.
        let p = compile_src(RCCE_SUM);
        let r = under(
            &p,
            Units::Rcce { cores: 8 },
            ExecModel::NonCoherentWriteBack,
        )
        .expect("run");
        assert_eq!(r.exit_code, 280, "same answer as the coherent model");
    }

    #[test]
    fn rcce_barrier_flush_publishes_private_writes() {
        // Core 0 writes a *private* global before the barrier; its own
        // re-read after the barrier must see the flushed value even under
        // the non-coherent model.
        let src = r#"
int mine;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    mine = RCCE_ue() + 7;
    RCCE_barrier(&RCCE_COMM_WORLD);
    int v = mine;
    RCCE_finalize();
    return v;
}
"#;
        let p = compile_src(src);
        let r = under(
            &p,
            Units::Rcce { cores: 2 },
            ExecModel::NonCoherentWriteBack,
        )
        .expect("run");
        assert_eq!(r.exit_code, 7, "core 0's exit");
    }

    // ------------------------------------------------------ task dataflow --

    const TASK_SUM: &str = r#"
int sum[4];
void tf(int id) {
    int i;
    for (i = 0; i < 100; i++) sum[id] += 1;
}
int main() {
    int i;
    for (i = 0; i < 4; i++) task_spawn(tf, i, 0, 0, 0, 0, &sum[i], 4);
    task_wait_all();
    return sum[0] + sum[1] + sum[2] + sum[3];
}
"#;

    const TASK_CHAIN: &str = r#"
int a[8];
int b[8];
void produce(int n) {
    int i;
    for (i = 0; i < 8; i++) a[i] = i + n;
}
void transform(int unused) {
    int i;
    for (i = 0; i < 8; i++) b[i] = a[i] * 2;
}
int main() {
    int s;
    int i;
    task_spawn(produce, 1, 0, 0, 0, 0, &a[0], 32);
    task_spawn(transform, 0, &a[0], 32, 0, 0, &b[0], 32);
    task_wait_all();
    s = 0;
    for (i = 0; i < 8; i++) s += b[i];
    return s;
}
"#;

    #[test]
    fn independent_tasks_run_and_publish_their_outputs() {
        let p = compile_src(TASK_SUM);
        let r = coherent(&p, Units::Task { cores: 4 }).expect("task run");
        assert_eq!(r.exit_code, 400);
        // The four tasks really spread across cores: more than one core
        // accumulated busy cycles.
        let active = r.per_unit_cycles.iter().filter(|&&c| c > 0).count();
        assert!(
            active > 1,
            "expected parallel execution: {:?}",
            r.per_unit_cycles
        );
    }

    #[test]
    fn task_dataflow_is_deterministic() {
        let p = compile_src(TASK_SUM);
        let a = coherent(&p, Units::Task { cores: 4 }).expect("run a");
        let b = coherent(&p, Units::Task { cores: 4 }).expect("run b");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn raw_dependences_order_producer_before_consumer() {
        let p = compile_src(TASK_CHAIN);
        for model in ExecModel::ALL {
            let r = under(&p, Units::Task { cores: 4 }, model).expect("chain run");
            // sum(2 * (i + 1) for i in 0..8) = 72 — only right when the
            // transform task observed the producer's published output.
            assert_eq!(r.exit_code, 72, "{model:?}");
        }
    }

    #[test]
    fn task_programs_survive_non_coherent_caches() {
        let p = compile_src(TASK_SUM);
        let truth = coherent(&p, Units::Task { cores: 4 }).expect("coherent");
        let wb = under(
            &p,
            Units::Task { cores: 4 },
            ExecModel::NonCoherentWriteBack,
        )
        .expect("wb");
        assert_eq!(
            truth.exit_code, wb.exit_code,
            "declared outputs are flushed and DMAed"
        );
    }

    #[test]
    fn undeclared_sharing_is_lost_like_an_unflushed_pthread_program() {
        // The task writes a global it never declares as an output: the
        // runtime has no reason to move it off the worker's core, so main
        // keeps seeing the load-image value.
        let src = r#"
int flag;
void tf(int unused) { flag = 1; }
int main() {
    task_spawn(tf, 0, 0, 0, 0, 0, 0, 0);
    task_wait_all();
    return flag;
}
"#;
        let p = compile_src(src);
        let r = coherent(&p, Units::Task { cores: 4 }).expect("run");
        assert_eq!(
            r.exit_code, 0,
            "undeclared output never reaches main's space"
        );
    }

    #[test]
    fn task_self_and_workers_report() {
        let src = r#"
int ids[3];
void tf(int slot) { ids[slot] = task_self(); }
int main() {
    task_spawn(tf, 0, 0, 0, 0, 0, &ids[0], 4);
    task_spawn(tf, 1, 0, 0, 0, 0, &ids[1], 4);
    task_wait_all();
    return ids[0] * 10 + ids[1] + task_workers() * 100 + task_self() * 1000;
}
"#;
        let p = compile_src(src);
        let r = coherent(&p, Units::Task { cores: 4 }).expect("run");
        // Task ids are 1 and 2 in spawn order; main is task 0; 4 workers:
        // 1*10 + 2 + 4*100.
        assert_eq!(r.exit_code, 412);
    }

    #[test]
    fn foreign_intrinsics_are_rejected_in_task_mode() {
        let src = r#"
pthread_mutex_t lock;
int main() {
    pthread_mutex_lock(&lock);
    return 0;
}
"#;
        let p = compile_src(src);
        let err = coherent(&p, Units::Task { cores: 2 }).expect_err("mutex in task mode");
        assert!(err.message.contains("task"), "{}", err.message);
    }

    #[test]
    fn wait_all_inside_a_task_is_an_error() {
        let src = r#"
void tf(int unused) { task_wait_all(); }
int main() {
    task_spawn(tf, 0, 0, 0, 0, 0, 0, 0);
    task_wait_all();
    return 0;
}
"#;
        let p = compile_src(src);
        let err = coherent(&p, Units::Task { cores: 2 }).expect_err("nested wait_all");
        assert!(err.message.contains("task_wait_all"), "{}", err.message);
    }

    // ------------------------------------------------------------ malloc --

    /// A private `malloc` stays inside the heap arena, which ends where the
    /// shared window begins: an allocation that would pass that end — 64
    /// bytes after a full arena, or half the address space twice — is the
    /// program's error in every sync model.
    #[test]
    fn malloc_past_the_heap_arena_is_a_run_error() {
        let full = r#"
int main() {
    char *a = (char *)malloc(1 << 30);
    char *b = (char *)malloc(64);
    b[0] = 7;
    return a == b;
}
"#;
        let huge = r#"
int main() {
    char *a = (char *)malloc(9223372036854775000);
    char *b = (char *)malloc(9223372036854775000);
    return a == b;
}
"#;
        for (src, bytes) in [(full, 64), (huge, 9_223_372_036_854_775_000u64)] {
            let p = compile_src(src);
            for units in [
                Units::Pthread,
                Units::Rcce { cores: 2 },
                Units::Task { cores: 2 },
            ] {
                let err = coherent(&p, units).expect_err("the arena is 1 GiB");
                let refused = format!("malloc of {bytes} bytes");
                assert!(err.message.contains(&refused), "{units:?}: {err}");
            }
        }
    }
}
