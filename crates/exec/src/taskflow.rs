//! Task-dataflow execution mode (the BDDT-SCC programming model): `main`
//! spawns tasks whose data footprint is *declared* — up to two input
//! regions and one output region per task — and a runtime scheduler
//! derives the dependence graph from region overlaps and runs ready tasks
//! on free cores.
//!
//! The interpreter is the engine's ([`crate::run`]); this module
//! contributes only the task semantics as a [`SyncModel`]:
//!
//! * **Dependence tracking.** A new task depends on every earlier task
//!   whose *output* region overlaps its input or output regions (RAW and
//!   WAW), and on every earlier task whose *input* region its output
//!   overlaps (WAR) — the in/out versioning discipline of BDDT-SCC.
//!   Tasks whose dependences have all completed enter a ready queue in
//!   spawn order.
//! * **Explicit data movement.** This is why the annotations exist on
//!   non-coherent hardware: each core owns a private address space, and
//!   the runtime DMAs a task's declared input regions from the canonical
//!   space (core 0) into the worker's space at dispatch, and its output
//!   region back at completion. Data the program shares *without*
//!   declaring it is simply never moved — the same observable failure
//!   mode as an un-flushed pthread program on the SCC.
//! * **Coherence discipline.** The spawner's write-back view is flushed
//!   at every `task_spawn` (publishing freshly initialized inputs), a
//!   worker's view at task completion (publishing its output before the
//!   DMA), and the waiter's view at `task_wait_all` release — the task
//!   analogue of the RCCE barrier flush, so clean task programs stay
//!   output-identical under [`NonCoherentWriteBack`].
//! * **Timing.** Discrete-event scheduling by smallest local clock, like
//!   RCCE mode. Core 0 is the dedicated master: it runs `main` and owns
//!   the canonical data space, and tasks are dispatched only to cores
//!   `1..cores` (a worker's line-granular flush must never overwrite
//!   canonical data beyond its declared output). A task starts at
//!   `max(ready time, core free time)` plus the dispatch DMA cost, so
//!   the makespan reflects genuine pipeline parallelism.

use crate::coherence::CoherenceModel;
use crate::engine::{Charge, ExecEnv, Flow, SyncModel, UnitState};
use crate::machine::{addr_arg, checked_transfer, ExecError};
use crate::rcce_rt::RcceRuntime;
use crate::syscall_cost;
use crate::trace::{SyncEvent, TraceSink};
use hsm_vm::compile::{STACKS_BASE, STACK_SIZE};
use hsm_vm::{Intrinsic, Value};
use std::collections::VecDeque;

/// Unit budget shared with the pthread engine (bounded by the stack
/// region): unit 0 is `main`, every executed task consumes one more.
const MAX_UNITS: usize = 1024;

/// One declared data region, `(base address, length in bytes)`.
type Regionspec = (u64, u64);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Waiting on incomplete predecessors.
    Pending,
    /// Dependences resolved; queued for a free core.
    Ready,
    /// Executing on a unit.
    Running,
    /// Completed; output published to the canonical space.
    Done,
}

#[derive(Debug, Clone)]
struct TaskDesc {
    func: u32,
    arg: i64,
    ins: Vec<Regionspec>,
    out: Option<Regionspec>,
    state: TaskState,
    /// Unit that executed `task_spawn`.
    spawner: usize,
    /// Incomplete predecessors still holding this task back.
    deps_left: usize,
    /// Every predecessor (complete or not), for happens-before edges.
    deps: Vec<usize>,
    /// Successors to release when this task completes.
    dependents: Vec<usize>,
    /// Earliest simulated time the task may start.
    ready_at: u64,
    /// Unit the task ran (or is running) on.
    unit: Option<usize>,
    /// Local clock at completion (output DMA included).
    finished_at: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MainState {
    Running,
    /// Blocked in `task_wait_all`.
    WaitingAll,
    Done(i64),
}

/// The task-dataflow [`SyncModel`]: one private space and heap arena per
/// core, a dynamic unit per executed task, dependence-driven dispatch.
pub(crate) struct TaskDataflowSync {
    cores: usize,
    rt: RcceRuntime,
    tasks: Vec<TaskDesc>,
    /// Ready task ids in spawn order.
    ready: VecDeque<usize>,
    /// Task unit currently occupying each core (`main` is tracked via
    /// [`MainState`], not here).
    core_unit: Vec<Option<usize>>,
    /// Simulated time each core was last vacated by a task.
    core_free_at: Vec<u64>,
    /// Core assignment per unit (unit 0 = `main` on core 0).
    unit_core: Vec<usize>,
    /// Task id per unit (`None` for `main`).
    unit_task: Vec<Option<usize>>,
    main: MainState,
}

/// `true` when the two regions share at least one byte.
fn overlaps((a, alen): Regionspec, (b, blen): Regionspec) -> bool {
    alen > 0 && blen > 0 && a < b + blen && b < a + alen
}

impl TaskDataflowSync {
    pub(crate) fn new(cores: usize) -> Self {
        TaskDataflowSync {
            cores,
            rt: RcceRuntime::new(cores),
            tasks: Vec::new(),
            ready: VecDeque::new(),
            core_unit: vec![None; cores],
            core_free_at: vec![0; cores],
            unit_core: vec![0],
            unit_task: vec![None],
            main: MainState::Running,
        }
    }

    /// All regions a task reads (its declared inputs plus its output,
    /// which it may read-modify-write).
    fn read_set(t: &TaskDesc) -> Vec<Regionspec> {
        let mut rs = t.ins.clone();
        if let Some(o) = t.out {
            rs.push(o);
        }
        rs
    }

    /// Whether spawning `new` after `old` creates a dependence edge:
    /// RAW (new reads old's output), WAW (outputs collide), or WAR (new
    /// overwrites what old reads).
    fn conflicts(new: &TaskDesc, old: &TaskDesc) -> bool {
        if let Some(oout) = old.out {
            if Self::read_set(new).iter().any(|&r| overlaps(r, oout)) {
                return true;
            }
        }
        if let Some(nout) = new.out {
            if Self::read_set(old).iter().any(|&r| overlaps(r, nout)) {
                return true;
            }
        }
        false
    }

    /// DMA one region between the canonical space (core 0) and `core`,
    /// bypassing the coherence views (the SCC's DMA engines bypass the
    /// caches). Returns the transfer's cycle cost.
    fn dma<C: CoherenceModel>(
        &self,
        env: &mut ExecEnv<C>,
        (addr, len): Regionspec,
        from: usize,
        to: usize,
    ) -> u64 {
        if len == 0 || from == to {
            return 0;
        }
        env.spaces.copy_cross(from, addr, to, addr, len as usize);
        self.rt.put_get_cost(&env.chip, from, to, len as usize)
    }

    /// Moves every ready task onto a free core, creating its unit and
    /// emitting its happens-before edges.
    fn dispatch<C: CoherenceModel, S: TraceSink>(
        &mut self,
        env: &mut ExecEnv<C>,
        sink: &mut S,
    ) -> Result<(), ExecError> {
        while !self.ready.is_empty() {
            // Core 0 is the dedicated master running main (BDDT-SCC keeps
            // the control thread on its own core); it also owns the
            // canonical data space, which a worker's line-granular cache
            // flush must never overwrite beyond its declared output.
            let core = (1..self.cores).find(|&c| self.core_unit[c].is_none());
            let Some(core) = core else { break };
            let id = self.ready.pop_front().expect("non-empty ready queue");
            let uid = env.units.len();
            if uid >= MAX_UNITS {
                return Err(ExecError::new("too many tasks (max 1023)"));
            }
            let (func, arg, ins, start0, spawner, deps) = {
                let t = &self.tasks[id];
                (
                    t.func,
                    t.arg,
                    t.ins.clone(),
                    t.ready_at.max(self.core_free_at[core]),
                    t.spawner,
                    t.deps.clone(),
                )
            };
            let mut unit = UnitState::new(
                env.program,
                func,
                vec![Value::I(arg)],
                STACKS_BASE + uid as u64 * STACK_SIZE,
            );
            // Input DMA: canonical space -> worker space, billed to the
            // task's start time.
            let mut cost = syscall_cost::TASK_DISPATCH;
            for r in ins {
                if S::ENABLED && r.1 > 0 && core != 0 {
                    sink.dma(0, core, r.1, start0);
                }
                cost += self.dma(env, r, 0, core);
            }
            unit.clock = start0 + cost;
            let start = unit.clock;
            env.units.push(unit);
            self.unit_core.push(core);
            self.unit_task.push(Some(id));
            self.core_unit[core] = Some(uid);
            self.tasks[id].state = TaskState::Running;
            self.tasks[id].unit = Some(uid);
            sink.sync(SyncEvent::ThreadStart {
                parent: spawner,
                unit: uid,
                func,
                cycle: start,
            });
            // Each resolved dependence is a hand-off from the task that
            // produced (or last read) the region.
            for d in deps {
                if let Some(target) = self.tasks[d].unit {
                    sink.sync(SyncEvent::ThreadJoin {
                        unit: uid,
                        target,
                        cycle: start,
                    });
                }
            }
        }
        Ok(())
    }

    /// Releases `main` from `task_wait_all` once every task has
    /// completed: join edges against every task, a view flush so `main`
    /// rereads published outputs, and the wait cost.
    fn try_release_main<C: CoherenceModel, S: TraceSink>(
        &mut self,
        env: &mut ExecEnv<C>,
        sink: &mut S,
    ) {
        if self.main != MainState::WaitingAll {
            return;
        }
        if !self.tasks.iter().all(|t| t.state == TaskState::Done) {
            return;
        }
        let latest = self
            .tasks
            .iter()
            .map(|t| t.finished_at)
            .max()
            .unwrap_or(env.units[0].clock);
        let release = env.units[0].clock.max(latest) + syscall_cost::TASK_WAIT;
        env.units[0].clock = release;
        for t in &self.tasks {
            if let Some(target) = t.unit {
                sink.sync(SyncEvent::ThreadJoin {
                    unit: 0,
                    target,
                    cycle: release,
                });
            }
        }
        env.coherence
            .flush_unit(0, 0, &mut env.spaces, &mut env.chip);
        self.main = MainState::Running;
        env.units[0].vm.syscall_return(Value::I(0));
    }
}

impl SyncModel for TaskDataflowSync {
    fn unit_count(&self) -> usize {
        1
    }

    fn space_count(&self) -> usize {
        self.cores
    }

    fn heap_slots(&self) -> usize {
        self.cores
    }

    fn wtime_slots(&self) -> usize {
        MAX_UNITS
    }

    fn core_of(&self, unit: usize) -> usize {
        self.unit_core[unit]
    }

    fn heap_slot(&self, unit: usize) -> usize {
        self.unit_core[unit]
    }

    fn stack_base(&self, unit: usize) -> u64 {
        STACKS_BASE + unit as u64 * STACK_SIZE
    }

    fn schedule<C: CoherenceModel>(
        &mut self,
        env: &mut ExecEnv<C>,
    ) -> Result<Option<usize>, ExecError> {
        let mut best: Option<(u64, usize)> = None;
        if self.main == MainState::Running {
            best = Some((env.units[0].clock, 0));
        }
        for &u in self.core_unit.iter().flatten() {
            let cand = (env.units[u].clock, u);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        match best {
            Some((_, u)) => Ok(Some(u)),
            None => {
                if matches!(self.main, MainState::Done(_)) {
                    Ok(None)
                } else {
                    Err(ExecError::new(
                        "task deadlock: main is blocked but no task can run",
                    ))
                }
            }
        }
    }

    fn charge(&mut self, unit: &mut UnitState, cycles: u64, kind: Charge) {
        unit.clock += cycles;
        if kind == Charge::Progress {
            unit.busy_cycles += cycles;
        }
    }

    fn syscall<C: CoherenceModel, S: TraceSink>(
        &mut self,
        env: &mut ExecEnv<C>,
        sink: &mut S,
        unit: usize,
        intr: Intrinsic,
        args: &[Value],
    ) -> Result<Flow, ExecError> {
        let core = self.unit_core[unit];
        let ret = match intr {
            Intrinsic::TaskSpawn => {
                env.units[unit].clock += syscall_cost::TASK_SPAWN;
                let func = args.first().copied().unwrap_or(Value::I(-1)).as_i();
                if func < 0 || func as usize >= env.program.funcs.len() {
                    return Err(ExecError::new(format!(
                        "task_spawn with invalid function index {func}"
                    )));
                }
                if self.tasks.len() + 1 >= MAX_UNITS {
                    return Err(ExecError::new("too many tasks (max 1023)"));
                }
                let arg = args.get(1).copied().unwrap_or(Value::I(0)).as_i();
                // The runtime DMAs each region whole: bounded here, before
                // the task exists.
                let region = |p: usize| -> Result<Regionspec, ExecError> {
                    let addr = addr_arg(args, p)?;
                    let len = args.get(p + 1).copied().unwrap_or(Value::I(0)).as_i();
                    if addr == 0 || len <= 0 {
                        return Ok((0, 0));
                    }
                    checked_transfer(intr.name(), addr, len as u64)?;
                    Ok((addr, len as u64))
                };
                let ins: Vec<Regionspec> = [region(2)?, region(4)?]
                    .into_iter()
                    .filter(|&(_, l)| l > 0)
                    .collect();
                let out = Some(region(6)?).filter(|&(_, l)| l > 0);
                // Publish everything the spawner wrote so far: the task's
                // input DMA reads the canonical space.
                env.coherence
                    .flush_unit(unit, core, &mut env.spaces, &mut env.chip);
                let mut t = TaskDesc {
                    func: func as u32,
                    arg,
                    ins,
                    out,
                    state: TaskState::Pending,
                    spawner: unit,
                    deps_left: 0,
                    deps: Vec::new(),
                    dependents: Vec::new(),
                    ready_at: env.units[unit].clock,
                    unit: None,
                    finished_at: 0,
                };
                let id = self.tasks.len();
                for (tid, old) in self.tasks.iter_mut().enumerate() {
                    if !Self::conflicts(&t, old) {
                        continue;
                    }
                    t.deps.push(tid);
                    if old.state == TaskState::Done {
                        t.ready_at = t.ready_at.max(old.finished_at);
                    } else {
                        t.deps_left += 1;
                        old.dependents.push(id);
                    }
                }
                if t.deps_left == 0 {
                    t.state = TaskState::Ready;
                    self.ready.push_back(id);
                }
                self.tasks.push(t);
                Value::I(id as i64 + 1)
            }
            Intrinsic::TaskWaitAll => {
                if unit != 0 {
                    return Err(ExecError::new(
                        "task_wait_all inside a task: express ordering as in/out dependences",
                    ));
                }
                if self.tasks.iter().all(|t| t.state == TaskState::Done) {
                    env.units[unit].clock += syscall_cost::TASK_WAIT;
                    env.coherence
                        .flush_unit(unit, core, &mut env.spaces, &mut env.chip);
                    Value::I(0)
                } else {
                    self.main = MainState::WaitingAll;
                    // No syscall_return: main stays pending until release.
                    return Ok(Flow::Continue);
                }
            }
            Intrinsic::TaskSelf => Value::I(self.unit_task[unit].map_or(0, |t| t as i64 + 1)),
            Intrinsic::TaskWorkers => Value::I(self.cores as i64),
            Intrinsic::Exit => {
                let code = args.first().copied().unwrap_or(Value::I(0)).as_i();
                self.main = MainState::Done(code);
                return Ok(Flow::Stop);
            }
            other => {
                return Err(ExecError::new(format!(
                    "{other:?} call in a task-dataflow program: only the task_* API, \
                     printf, malloc and wtime are available"
                )));
            }
        };
        env.units[unit].vm.syscall_return(ret);
        let _ = sink;
        Ok(Flow::Continue)
    }

    fn finished<C: CoherenceModel, S: TraceSink>(
        &mut self,
        env: &mut ExecEnv<C>,
        sink: &mut S,
        unit: usize,
        exit: i64,
    ) -> Result<Flow, ExecError> {
        if unit == 0 {
            // Main returning ends the program, as in pthread mode.
            self.main = MainState::Done(exit);
            return Ok(Flow::Stop);
        }
        let id = self.unit_task[unit].expect("task unit has a task");
        let core = self.unit_core[unit];
        // Publish the task's writes to its core's backing space, then DMA
        // the declared output back to the canonical space.
        env.coherence
            .flush_unit(unit, core, &mut env.spaces, &mut env.chip);
        if let Some(out) = self.tasks[id].out {
            if S::ENABLED && out.1 > 0 && core != 0 {
                sink.dma(core, 0, out.1, env.units[unit].clock);
            }
            let cost = self.dma(env, out, core, 0);
            env.units[unit].clock += cost;
        }
        let done_at = env.units[unit].clock;
        self.tasks[id].state = TaskState::Done;
        self.tasks[id].finished_at = done_at;
        self.core_free_at[core] = done_at;
        self.core_unit[core] = None;
        let dependents = std::mem::take(&mut self.tasks[id].dependents);
        for dep in dependents {
            let t = &mut self.tasks[dep];
            t.deps_left -= 1;
            t.ready_at = t.ready_at.max(done_at);
            if t.deps_left == 0 && t.state == TaskState::Pending {
                t.state = TaskState::Ready;
                self.ready.push_back(dep);
            }
        }
        Ok(Flow::Continue)
    }

    fn post_step<C: CoherenceModel, S: TraceSink>(
        &mut self,
        env: &mut ExecEnv<C>,
        sink: &mut S,
    ) -> Result<(), ExecError> {
        self.dispatch(env, sink)?;
        self.try_release_main(env, sink);
        Ok(())
    }

    fn finalize<C: CoherenceModel>(&self, env: &ExecEnv<C>) -> (u64, Vec<u64>, i64) {
        let total = env.units.iter().map(|u| u.clock).max().unwrap_or(0);
        let mut per_core = vec![0u64; self.cores];
        for (u, unit) in env.units.iter().enumerate() {
            per_core[self.unit_core[u]] += unit.busy_cycles;
        }
        let exit = match self.main {
            MainState::Done(code) => code,
            _ => 0,
        };
        (total, per_core, exit)
    }
}

#[cfg(test)]
mod tests {
    //! The task model's side of `tests/run_ahead_exact.rs`, held beside
    //! the model: the model grants nothing itself, so what is compared is
    //! the pure rule — tasks computing ahead beside one another and
    //! replaying one slice a visit — against the reference run
    //! ([`RunSpec::reference`]), which refuses it.

    use super::*;
    use crate::engine::phases_on_this_thread;
    use crate::trace::TraceEvent;
    use crate::{run, ExecModel, NullSink, RunResult, RunSpec, Units};
    use hsm_vm::Program;
    use scc_sim::SccConfig;

    /// Keeps everything a sink is told, in order.
    #[derive(Debug, Default, PartialEq)]
    struct Recorder {
        accesses: Vec<TraceEvent>,
        syncs: Vec<SyncEvent>,
        dmas: Vec<(usize, usize, u64, u64)>,
    }

    impl TraceSink for Recorder {
        fn record(&mut self, event: TraceEvent) {
            self.accesses.push(event);
        }

        fn sync(&mut self, event: SyncEvent) {
            self.syncs.push(event);
        }

        fn dma(&mut self, from: usize, to: usize, bytes: u64, cycle: u64) {
            self.dmas.push((from, to, bytes, cycle));
        }
    }

    fn native(src: &str) -> Program {
        hsm_vm::compile(&hsm_cir::parse(src).expect("parse")).expect("compile")
    }

    /// Holds runs of `program` at 0, 1 and 3 forced helpers, untraced and
    /// recorded, against the reference. Returns the reference outcome and
    /// how many of the untraced runs took their tasks ahead in one go.
    fn assert_exact(
        label: &str,
        program: &Program,
        cores: usize,
        model: ExecModel,
    ) -> (Result<RunResult, ExecError>, usize) {
        let spec = RunSpec::new(SccConfig::table_6_1(), Units::Task { cores }, model);
        let visiting = RunSpec {
            reference: true,
            ..spec.clone()
        };
        let reference = run(program, &visiting, &mut NullSink);
        let mut expected = Recorder::default();
        let traced = run(program, &visiting, &mut expected);
        assert_eq!(
            traced, reference,
            "{label}: the sink perturbed the reference"
        );
        let mut with_a_phase = 0;
        for helpers in [0, 1, 3] {
            let at = format!("{label} under {model:?} on {helpers} helpers");
            let phases = phases_on_this_thread();
            let forced = RunSpec {
                helpers: Some(helpers),
                ..spec.clone()
            };
            let outcome = run(program, &forced, &mut NullSink);
            assert_eq!(outcome, reference, "{at}: results differ");
            with_a_phase += usize::from(phases_on_this_thread() > phases);
            let mut seen = Recorder::default();
            let outcome = run(program, &forced, &mut seen);
            assert_eq!(outcome, reference, "{at}: traced results differ");
            assert_eq!(seen, expected, "{at}: the sink was told something else");
        }
        (reference, with_a_phase)
    }

    #[test]
    fn the_corpus_ports_run_as_if_every_event_were_a_visit() {
        for (name, cores) in [
            ("task_matrix_vector.c", 4),
            ("task_histogram.c", 4),
            ("task_dot_product.c", 8),
        ] {
            let path = format!("{}/../../corpus/{name}", env!("CARGO_MANIFEST_DIR"));
            let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let program = native(&src);
            for model in ExecModel::ALL {
                let (reference, _) = assert_exact(name, &program, cores, model);
                assert!(reference.is_ok(), "{name} under {model:?}: {reference:?}");
            }
        }
    }

    /// Four tasks that spin for far longer than the engine's floor while
    /// `main` waits, one of them into a division by zero when asked to:
    /// they compute ahead beside one another, and the fault is reported
    /// when its task's turn reaches it.
    #[test]
    fn tasks_compute_ahead_and_replay_a_slice_a_visit_exactly() {
        let src = |tail: &str| {
            format!(
                r#"
int out[4];
void spin(int id) {{
    int i;
    int acc = 0;
    int zero = 0;
    for (i = 0; i < 40000 + 3000 * id; i++) acc = acc + i % 3;
    {tail}
    out[id] = acc;
}}
int main() {{
    int i;
    for (i = 0; i < 4; i++) task_spawn(spin, i, 0, 0, 0, 0, &out[i], 4);
    task_wait_all();
    return (out[0] + out[1] + out[2] + out[3]) % 100;
}}
"#
            )
        };
        for (name, tail, fails) in [
            ("spin", "", false),
            ("fault", "if (id == 1) acc = acc / zero;", true),
        ] {
            let program = native(&src(tail));
            for model in ExecModel::ALL {
                let (reference, with_a_phase) = assert_exact(name, &program, 5, model);
                assert_eq!(reference.is_err(), fails, "{name}: {reference:?}");
                assert_eq!(with_a_phase, 3, "{name} under {model:?}: no task ran ahead");
            }
        }
    }
}
