//! The unified execution core: one scheduler loop, one VM-step dispatch,
//! one printf/trace/sync-event emission path — parameterized by a
//! [`SyncModel`] (what create/join/barrier/put/get mean) and a
//! [`CoherenceModel`] (what value a load observes and what an access
//! costs).
//!
//! The three execution modes are thin [`SyncModel`] impls over this core:
//! pthread (round-robin time slicing on core 0), RCCE (discrete-event
//! interleaving of per-core processes) and task dataflow. The core owns
//! the step loop, memory-access timing + tracing, the `printf`/`malloc`/
//! `wtime` syscalls, output collection, and result assembly. [`run`] is
//! its one entry: it picks the sync model's and the coherence model's
//! types from a [`RunSpec`].

use crate::coherence::{
    CoherenceModel, Coherent, ExecModel, NonCoherentWriteBack, SeqCstReference,
};
use crate::machine::{DataSpaces, ExecError, OutputLine, RunResult, WtimeTracker};
use crate::printf;
use crate::pthread::PthreadSync;
use crate::rcce::RcceSync;
use crate::syscall_cost;
use crate::taskflow::TaskDataflowSync;
use crate::trace::{TraceEvent, TraceSink};
use hsm_vm::compile::{Program, HEAP_BASE};
use hsm_vm::data::ByteMemory;
use hsm_vm::{ExecForm, Intrinsic, MemKind, StepOutcome, UnitVm, Value, VmError};
use scc_sim::memory::SHARED_DRAM_BASE;
use scc_sim::{CoreLane, MemorySystem, SccConfig};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// What a slice of simulated time was spent on, so each sync model can
/// bill it to the right clocks. The pthread model advances one global
/// clock and additionally bills `Progress` to the running thread's busy
/// time and `Progress`/`Dispatch` to its scheduling quantum; the RCCE
/// model bills everything to the unit's local clock alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Charge {
    /// Forward progress of the unit: instruction execution and memory
    /// access latency.
    Progress,
    /// Syscall dispatch overhead measured by the VM.
    Dispatch,
    /// Fixed service cost of a syscall (allocator, printf, sync ops).
    Service,
}

/// Whether the run continues after a syscall or unit completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Keep scheduling.
    Continue,
    /// The process is over (pthread `exit`/main return); stop the loop.
    Stop,
}

/// One schedulable execution context: a thread (pthread mode) or a core's
/// process (RCCE mode).
#[derive(Debug)]
pub(crate) struct UnitState {
    /// The suspendable VM driving this unit.
    pub vm: UnitVm,
    /// The unit's view of simulated time. In pthread mode every unit's
    /// clock mirrors the single global clock while it runs.
    pub clock: u64,
    /// Cycles this unit spent making progress (the pthread load-balance
    /// metric; unused by RCCE, whose balance metric is clock-based).
    pub busy_cycles: u64,
    /// What the VM is suspended on when the unit ran ahead of the
    /// scheduler and met something it may not perform out of order (see
    /// [`SyncModel`]). Nothing of it has been charged or performed; it is
    /// the first thing the unit does when `schedule` hands it out again.
    pub held: Option<Result<StepOutcome, VmError>>,
    /// [`StepOutcome::Ran`] slices the VM computed ahead of the unit's turn
    /// under the pure rule (see [`SyncModel`]), oldest first, each as
    /// `(cycles, instructions retired)`: they precede `held`, nothing of
    /// them has been charged, and the unit replays them first when
    /// `schedule` hands it out. A slice ends within one instruction of the
    /// VM's 4096-cycle valve, so both halves fit their 32 bits.
    ahead: VecDeque<(u32, u32)>,
    /// Instructions the VM retired on its way to `held`, when it was the
    /// pure rule that held it.
    held_instructions: u32,
}

impl UnitState {
    /// Creates a unit poised at `func` with `args` on the private stack
    /// region at `stack_base`.
    pub(crate) fn new(program: &Program, func: u32, args: Vec<Value>, stack_base: u64) -> Self {
        UnitState {
            vm: UnitVm::new(program, func, args, stack_base),
            clock: 0,
            busy_cycles: 0,
            held: None,
            ahead: VecDeque::new(),
            held_instructions: 0,
        }
    }

    /// Whether the unit has something to run that nobody is waiting to
    /// order: no held event, and a VM that is neither blocked in a syscall
    /// nor finished.
    fn is_free(&self) -> bool {
        self.held.is_none() && self.vm.is_ready()
    }

    /// **The pure rule**, stated once: runs the unit's VM through `Ran`
    /// slices, which read and write nothing but the VM, and records them
    /// for the unit's turn instead of billing anybody, until it holds
    /// [`PURE_FLOOR`] of them. The first outcome that is not a `Ran` slice
    /// is held behind them.
    ///
    /// The unit must be [free](UnitState::is_free), and the room for the
    /// slices [reserved](ExecEnv::compute_ahead).
    fn compute_ahead(&mut self, form: &ExecForm<'_>) {
        while self.ahead.len() < PURE_FLOOR {
            let retired = self.vm.instructions_retired();
            let outcome = self.vm.run_until_event(form);
            let instructions = (self.vm.instructions_retired() - retired) as u32;
            match outcome {
                Ok(StepOutcome::Ran { cycles }) => {
                    self.ahead.push_back((cycles as u32, instructions));
                }
                other => {
                    self.held = Some(other);
                    self.held_instructions = instructions;
                    return;
                }
            }
        }
    }

    /// Instructions the VM has retired and the run has not: those of the
    /// slices not replayed yet and those that led to what is held behind
    /// them. A run that ends with `main` counts neither.
    fn instructions_ahead(&self) -> u64 {
        let slices: u64 = self.ahead.iter().map(|slice| u64::from(slice.1)).sum();
        let held = self.held.as_ref().map_or(0, |_| self.held_instructions);
        slices + u64::from(held)
    }
}

/// What a unit owns under [`SyncModel::OWN_EVENTS_ARE_LOCAL`]: its VM and
/// clock, its core's caches and statistics row, its core's private bytes
/// and its part of the coherence model — everything the local rule reads
/// or writes. Lanes of different units are disjoint borrows of the
/// [`ExecEnv`], so they may be advanced on different threads.
struct Lane<'a, C: CoherenceModel + 'a> {
    unit: &'a mut UnitState,
    core: CoreLane<'a>,
    private: &'a mut ByteMemory,
    own: C::Own<'a>,
}

// A lane must be able to go to another thread; what could stop it is a
// model's `Own` or a field added to `UnitState`.
const _: () = {
    const fn sendable<T: Send>() {}
    sendable::<Lane<'static, Coherent>>();
    sendable::<Lane<'static, NonCoherentWriteBack>>();
    sendable::<Lane<'static, SeqCstReference>>();
};

impl<C: CoherenceModel> Lane<'_, C> {
    /// **The local rule**, stated once: runs the unit's VM and performs
    /// what only the unit can observe and what costs the same whenever it
    /// happens — `Ran` slices, and loads and stores its core's own caches
    /// serve — billing the unit's own clock. The first thing that is
    /// neither (an access that leaves the tile, a syscall, a finish, a
    /// fault) is held on the unit with nothing of it charged or performed.
    /// Returns the number of events performed, at most
    /// [`RUN_AHEAD_LIMIT`].
    ///
    /// The unit must be [free](UnitState::is_free).
    fn advance(&mut self, form: &ExecForm<'_>) -> u64 {
        let Lane {
            unit,
            core,
            private,
            own,
        } = self;
        'event: for performed in 0..RUN_AHEAD_LIMIT {
            let outcome = unit.vm.run_until_event(form);
            'held: {
                match outcome {
                    Ok(StepOutcome::Ran { cycles }) => unit.clock += cycles,
                    Ok(StepOutcome::Load { addr, kind, cycles }) => {
                        let Some(latency) = C::cached_latency(core, addr, false) else {
                            break 'held;
                        };
                        unit.clock += cycles + latency;
                        let v = C::load_own(own, private, addr, kind);
                        unit.vm.provide_load(v);
                    }
                    #[rustfmt::skip]
                    Ok(StepOutcome::Store { addr, kind, value, cycles }) => {
                        let Some(latency) = C::cached_latency(core, addr, true) else {
                            break 'held;
                        };
                        unit.clock += cycles + latency;
                        C::store_own(own, private, addr, kind, value);
                        unit.vm.store_done();
                    }
                    _ => break 'held,
                }
                continue 'event;
            }
            // It waits for the unit's turn.
            unit.held = Some(outcome);
            return performed;
        }
        RUN_AHEAD_LIMIT
    }
}

/// Everything the core and the sync model share: the machine (chip
/// timing, data spaces and coherence model), the unit table, heap break
/// pointers, program output and wtime marks.
pub(crate) struct ExecEnv<'p, C: CoherenceModel> {
    /// The compiled program every unit executes.
    pub program: &'p Program,
    /// `program` as the units' VMs dispatch it, built once for the run.
    form: ExecForm<'p>,
    /// Chip configuration.
    pub config: &'p SccConfig,
    /// Timing model of the chip.
    pub chip: MemorySystem,
    /// Backing bytes of all address spaces.
    pub spaces: DataSpaces,
    /// The value-visibility model every memory operation routes through.
    pub coherence: C,
    /// All units, indexed by unit id (thread id / core id).
    pub units: Vec<UnitState>,
    /// Heap break per allocation arena (one shared arena in pthread mode,
    /// one per core in RCCE mode).
    pub heap_brk: Vec<u64>,
    /// Program output collected so far.
    pub output: Vec<OutputLine>,
    /// `wtime()` marks per unit.
    pub wtimes: WtimeTracker,
    /// Monotone counter naming barrier episodes in the sync-event stream.
    pub barrier_epoch: u64,
}

impl<'p, C: CoherenceModel> ExecEnv<'p, C> {
    pub(crate) fn new<M: SyncModel>(
        program: &'p Program,
        config: &'p SccConfig,
        coherence: C,
        model: &M,
    ) -> Self {
        let mut spaces = DataSpaces::new(model.space_count());
        for s in 0..model.space_count() {
            spaces.load_image(s, &program.image);
        }
        let units = (0..model.unit_count())
            .map(|i| UnitState::new(program, program.entry, vec![], model.stack_base(i)))
            .collect();
        ExecEnv {
            program,
            form: ExecForm::new(program),
            config,
            chip: MemorySystem::new(config.clone()),
            spaces,
            coherence,
            units,
            heap_brk: vec![HEAP_BASE; model.heap_slots()],
            output: Vec::new(),
            wtimes: WtimeTracker::new(model.wtime_slots()),
            barrier_epoch: 0,
        }
    }

    /// Loads a value as observed by `unit` on `core` — the single path for
    /// all data reads, VM-issued and syscall-side alike.
    pub(crate) fn mem_load(&mut self, unit: usize, core: usize, addr: u64, kind: MemKind) -> Value {
        self.coherence.load(unit, core, addr, kind, &self.spaces)
    }

    /// Stores a value on behalf of `unit` on `core`.
    pub(crate) fn mem_store(
        &mut self,
        unit: usize,
        core: usize,
        addr: u64,
        kind: MemKind,
        v: Value,
    ) {
        self.coherence
            .store(unit, core, addr, kind, v, &mut self.spaces);
    }

    /// Byte copy between two addresses in `unit`'s view (`RCCE_put`/`RCCE_get`).
    pub(crate) fn copy_bytes(
        &mut self,
        unit: usize,
        core: usize,
        dst: u64,
        src: u64,
        bytes: usize,
    ) {
        for i in 0..bytes as u64 {
            let v = self.mem_load(unit, core, src + i, MemKind::I8);
            self.mem_store(unit, core, dst + i, MemKind::I8, v);
        }
    }

    /// Byte copy across two units' views (the `RCCE_send`/`RCCE_recv`
    /// rendezvous data movement). Each side is a `(unit, core, addr)`
    /// triple.
    pub(crate) fn copy_cross(
        &mut self,
        src: (usize, usize, u64),
        dst: (usize, usize, u64),
        bytes: usize,
    ) {
        let (src_unit, src_core, src_addr) = src;
        let (dst_unit, dst_core, dst_addr) = dst;
        for i in 0..bytes as u64 {
            let v = self.mem_load(src_unit, src_core, src_addr + i, MemKind::I8);
            self.mem_store(dst_unit, dst_core, dst_addr + i, MemKind::I8, v);
        }
    }

    /// Reads a NUL-terminated string as observed by `unit` (capped at
    /// 64 KB like [`hsm_vm::data::ByteMemory::read_cstr`]).
    pub(crate) fn read_cstr(&mut self, unit: usize, core: usize, addr: u64) -> String {
        let mut out = Vec::new();
        for i in 0..65536 {
            let b = self.mem_load(unit, core, addr + i, MemKind::I8).as_i() as u8;
            if b == 0 {
                break;
            }
            out.push(b);
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    /// Formats a `printf` syscall with the format string and `%s`
    /// arguments resolved through `unit`'s memory view.
    ///
    /// # Errors
    ///
    /// A negative string pointer is the program's error.
    pub(crate) fn format_printf(
        &mut self,
        unit: usize,
        core: usize,
        args: &[Value],
    ) -> Result<String, ExecError> {
        printf::format_syscall(args, &mut |addr| self.read_cstr(unit, core, addr))
    }

    /// [Advances](Lane::advance) `unit` on its lane.
    #[inline]
    fn advance(&mut self, unit: usize) -> u64 {
        let mut lane = Lane::<C> {
            unit: &mut self.units[unit],
            core: self.chip.lane_mut(unit),
            private: &mut self.spaces.private[unit],
            own: self.coherence.own_part(unit),
        };
        lane.advance(&self.form)
    }

    /// [Advances](Lane::advance) every free unit but `except` on up to
    /// `threads` threads and returns the number of events performed.
    fn advance_free(&mut self, except: usize, threads: usize) -> u64 {
        let form = &self.form;
        let owns = self.coherence.own_parts(self.units.len());
        let lanes = self
            .units
            .iter_mut()
            .zip(self.chip.lanes_mut())
            .zip(&mut self.spaces.private)
            .zip(owns)
            .map(|(((unit, core), private), own)| Lane::<C> {
                unit,
                core,
                private,
                own,
            });
        let free: Vec<_> = lanes
            .enumerate()
            .filter(|(unit, lane)| *unit != except && lane.unit.is_free())
            .map(|(_, lane)| lane)
            .collect();
        fan_out(free, threads, |mut lane| lane.advance(form))
    }

    /// [Computes ahead](UnitState::compute_ahead), on up to `threads`
    /// threads, every free unit that has replayed what it computed last
    /// time; `false` when there are not two of them for a second thread to
    /// take one of.
    fn compute_ahead(&mut self, threads: usize) -> bool {
        let form = &self.form;
        let mut free: Vec<_> = self
            .units
            .iter_mut()
            .filter(|unit| unit.is_free() && unit.ahead.is_empty())
            .collect();
        if free.len() < 2 {
            return false;
        }
        // The room is made here: a helper thread that allocates gets a
        // malloc arena of its own, megabytes of it resident.
        for unit in &mut free {
            unit.ahead.reserve(PURE_FLOOR);
        }
        fan_out(free, threads, |unit| {
            unit.compute_ahead(form);
            0
        });
        true
    }
}

/// Runs `run` on every item, dealt round-robin over up to `threads`
/// threads of which the caller is one, and returns the sum of the results.
fn fan_out<T: Send>(items: Vec<T>, threads: usize, run: impl Fn(T) -> u64 + Sync) -> u64 {
    let run = |hand: Vec<T>| -> u64 { hand.into_iter().map(&run).sum() };
    let threads = threads.min(items.len());
    if threads <= 1 {
        return run(items);
    }
    let mut hands: Vec<Vec<_>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        hands[i % threads].push(item);
    }
    std::thread::scope(|scope| {
        let run = &run;
        let mine = hands.pop().expect("more than one hand");
        // A helper the host refuses to start costs nothing but speed: its
        // items stay where they are, free units free as before.
        let helpers: Vec<_> = hands
            .into_iter()
            .filter_map(|hand| {
                std::thread::Builder::new()
                    .name("hsm-lane".into())
                    .spawn_scoped(scope, move || run(hand))
                    .ok()
            })
            .collect();
        let mut sum = run(mine);
        for helper in helpers {
            sum += helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
        sum
    })
}

/// The synchronization semantics of an execution mode: which units exist,
/// how time is billed, which unit runs next, and what the mode-specific
/// syscalls (thread and RCCE primitives) mean.
///
/// The core loop handles everything else: VM stepping, memory timing +
/// value resolution, tracing, and the mode-independent syscalls
/// (`printf`, `malloc`, `wtime`).
///
/// # When the scheduler is visited
///
/// [`schedule`](SyncModel::schedule) fixes the order in which events are
/// performed, and that order is part of the simulated result. The core
/// asks it only when the answer could be something other than "the same
/// unit again", and performs out of that order only what no order can
/// tell apart:
///
/// * **The ordered rule** — [`still_due`](SyncModel::still_due): once
///   `schedule` has handed out unit `u`, `u` performs the event it is
///   suspended on and keeps stepping while a visit to `schedule` would
///   hand out `u` again. Nothing changed the order, so nothing is asked.
/// * **The local rule** —
///   [`OWN_EVENTS_ARE_LOCAL`](SyncModel::OWN_EVENTS_ARE_LOCAL): a unit that
///   is not due may still perform an event that touches nothing another
///   unit can observe and costs the same whenever it happens: a
///   [`StepOutcome::Ran`] slice, or a load/store the coherence model
///   serves from the core's own caches
///   ([`CoherenceModel::cached_latency`]). Performing it early moves the
///   unit's clock, cache, statistics row and private bytes exactly as
///   performing it in turn would, and nobody looks at those in between.
///   The rule is one function over what a unit owns (`Lane::advance`),
///   and because two units own nothing in common it holds for any number
///   of units at once: the unit handed out last goes on under it when it
///   stops being due, and when that hand-out was long (`PHASE_FLOOR`)
///   every other unit that is free to run is advanced too, on as many host
///   threads as the host offers, before `schedule` is asked again.
///   The rule is off under a recording [`TraceSink`], whose stream lists
///   every event in the global order.
/// * **The pure rule** — asks nothing of the model, and so holds for every
///   model and under every sink: a [`StepOutcome::Ran`] slice reads and
///   writes nothing but the unit's own VM (the VM surfaces every load,
///   store and syscall as an event), so a unit that is free to run may
///   *compute* its next slices at any time, on any host thread
///   (`UnitState::compute_ahead`). What a slice costs is a different matter
///   — a pthread thread's cycles move the one clock all threads share and
///   use up its quantum — so nothing is billed then: each slice is kept as
///   `(cycles, instructions)` and *replayed* when `schedule` hands the unit
///   out, through [`charge`](SyncModel::charge) and
///   [`still_due`](SyncModel::still_due) exactly as the live slice would
///   have gone, before the unit goes on live. The units are computed ahead
///   beside one another once the run as a whole has performed `PURE_FLOOR`
///   slices in a row and nothing else. A run that has lanes keeps those,
///   which bill as they go and need no replay: the pure rule serves the
///   pthread model, the task model, and the RCCE model under a recording
///   sink.
///
/// Anything else — an access that leaves the tile, a syscall, a finish, a
/// VM fault — is *held* on the unit ([`UnitState::held`]): the VM stays
/// suspended on it, nothing is charged, and the unit performs it first
/// when `schedule` hands it out (after the slices it computed on the way
/// there, if any), which is exactly when a core that visited `schedule`
/// before every event would have performed it. A syscall or a finish
/// always ends the hand-out: those are the events that change other units'
/// states and clocks. A run that ends first (`exit`, `main` returning) ends
/// as if nothing had been computed ahead: [`RunResult::instructions`]
/// counts what was replayed.
pub(crate) trait SyncModel: Sized {
    /// Number of units at boot (pthread: 1, the main thread; RCCE: one
    /// per core). Units may be added later (`pthread_create`).
    fn unit_count(&self) -> usize;

    /// Number of private address spaces (pthread: 1 shared by all
    /// threads; RCCE: one per core).
    fn space_count(&self) -> usize;

    /// Number of heap arenas (indexed by [`SyncModel::heap_slot`]).
    fn heap_slots(&self) -> usize;

    /// Capacity of the wtime tracker.
    fn wtime_slots(&self) -> usize;

    /// The simulated core `unit` executes on.
    fn core_of(&self, unit: usize) -> usize;

    /// The heap arena `unit` allocates from.
    fn heap_slot(&self, unit: usize) -> usize;

    /// Stack region base for boot unit `unit`.
    fn stack_base(&self, unit: usize) -> u64;

    /// Picks the next unit to step, or `Ok(None)` when the run completed.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on deadlock.
    fn schedule<C: CoherenceModel>(
        &mut self,
        env: &mut ExecEnv<C>,
    ) -> Result<Option<usize>, ExecError>;

    /// The ordered rule: `unit` is the unit `schedule` handed out last and
    /// has since performed only loads, stores and `Ran` slices; would
    /// `schedule` hand it out again? The default never says so, which
    /// visits `schedule` before every event.
    fn still_due<C: CoherenceModel>(&self, _env: &ExecEnv<C>, _unit: usize) -> bool {
        false
    }

    /// The local rule: whether a unit that is not due may perform events
    /// only it can observe. True only for a model whose units each own
    /// their core: unit `i` runs on core `i` and nowhere else, so one cache
    /// hierarchy, one private space and one clock are touched by nobody
    /// else while it runs; [`charge`](SyncModel::charge) bills
    /// [`Charge::Progress`] to that clock alone (`unit.clock += cycles`),
    /// which is how the rule bills it without asking the model; and the
    /// other units reach what the unit owns only through syscalls that find
    /// it blocked.
    const OWN_EVENTS_ARE_LOCAL: bool = false;

    /// Units other than the one `schedule` handed out last were advanced
    /// under the local rule: their clocks moved forward, so whatever the
    /// model keeps ordered by clock on the promise that only the last
    /// pick moves is stale. Called only when
    /// [`OWN_EVENTS_ARE_LOCAL`](SyncModel::OWN_EVENTS_ARE_LOCAL).
    fn clocks_moved(&mut self) {}

    /// Refuses the pure rule, which asks nothing of a model and so cannot
    /// be withheld by one that merely grants nothing: set by
    /// [`VisitEveryEvent`] alone, the reference that runs ahead of nothing.
    const VISITS_EVERY_EVENT: bool = false;

    /// Advances the clocks by `cycles` of the given [`Charge`] kind on
    /// behalf of `unit`.
    fn charge(&mut self, unit: &mut UnitState, cycles: u64, kind: Charge);

    /// Handles a mode-specific syscall (`intr` is never one of the
    /// mode-independent intrinsics the core consumed already).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on semantic violations (unknown thread
    /// joins, foreign-mode intrinsics, lock misuse, ...).
    fn syscall<C: CoherenceModel, S: TraceSink>(
        &mut self,
        env: &mut ExecEnv<C>,
        sink: &mut S,
        unit: usize,
        intr: Intrinsic,
        args: &[Value],
    ) -> Result<Flow, ExecError>;

    /// Handles the entry function of `unit` returning `exit`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if completion is itself a violation.
    fn finished<C: CoherenceModel, S: TraceSink>(
        &mut self,
        env: &mut ExecEnv<C>,
        sink: &mut S,
        unit: usize,
        exit: i64,
    ) -> Result<Flow, ExecError>;

    /// Called after every syscall and every finish, before the next
    /// `schedule`: the only events that can make a blocked unit runnable
    /// (the RCCE model releases a complete barrier here, the task model
    /// dispatches ready tasks; pthread needs nothing).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on violations detectable only globally
    /// (barrier deadlock with exited cores).
    fn post_step<C: CoherenceModel, S: TraceSink>(
        &mut self,
        env: &mut ExecEnv<C>,
        sink: &mut S,
    ) -> Result<(), ExecError>;

    /// Extracts `(total_cycles, per_unit_cycles, exit_code)` at the end
    /// of the run.
    fn finalize<C: CoherenceModel>(&self, env: &ExecEnv<C>) -> (u64, Vec<u64>, i64);
}

const STEP_LIMIT: u64 = 2_000_000_000;

/// Events a unit may perform under the local rule in one
/// [`advance`](Lane::advance). The rule is exact at any length; the bound
/// only keeps a unit that loops on its own memory forever from hiding an
/// error another unit is about to report behind [`STEP_LIMIT`] events.
const RUN_AHEAD_LIMIT: u64 = 1 << 16;

/// Instructions a hand-out has to retire for the other free units to be
/// advanced beside one another before the next `schedule` (once between
/// two syscalls or finishes). Starting and joining a scoped thread costs
/// 30–60 µs, which is what the VM needs for this many instructions at its
/// 1.3 ns each: a unit that ran this long is taken as the sign that the
/// others, which run the same program, are about to, and a run whose
/// hand-outs are shorter never pays for a thread. Not a setting: results
/// are the same at any value.
const PHASE_FLOOR: u64 = 50_000;

/// Consecutive `Ran` slices the run as a whole has to perform, with no
/// other event of any unit in between, for every free unit to be
/// [computed ahead](UnitState::compute_ahead) beside the others; also the
/// most slices a unit holds, so a unit costs at most 8 KiB and one that
/// loops for ever is stopped by [`STEP_LIMIT`] as it always was. The two
/// measured ends (CHANGES.md, PR 23): at 8 or 32 slices `serve_mix`, whose
/// runs are 1/50 of paper scale (3-5-Sum at 2 threads is one pure stretch
/// of 380 slices), started 414–441 phases a run, each paying 30–60 µs per
/// scoped thread for a few hundred µs of dispatch, and read `wall_s`
/// +6…+30 %; at 1024 slices — 4 Mi simulated cycles, ≈ 2 ms of dispatch,
/// ≈ 40 thread spawns — neither it nor `corpus_grid` starts one, and Pi's
/// 32-thread baseline, the shortest run that should, goes serially for its
/// first 17 %. Not a setting: results are the same at any value.
const PURE_FLOOR: usize = 1024;

/// Host threads a run may spread its free units over, itself included:
/// `helpers` beside the caller when [`RunSpec::helpers`] forces them, else
/// what the host offers this process. On a one-CPU host the units are taken
/// one after the other on the calling thread. Other runs of the process
/// (the second worker of a sweep, an `hsmd` job) are not subtracted: a
/// 2-worker sweep over the RCCE points of `paper_compute` read the same with
/// and without that (CHANGES.md, PR 22), the work being the same either way.
fn lane_threads(helpers: Option<usize>) -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    match helpers {
        Some(helpers) => helpers + 1,
        None => *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from)),
    }
}

thread_local! {
    /// Times a run on this thread took its free units ahead beside one
    /// another, under the local rule or the pure one.
    static PHASES: Cell<u64> = const { Cell::new(0) };
}

/// How often the runs this thread has made so far took their free units
/// ahead in one go (see [`SyncModel`]): what a test reads before and after
/// a run to know that the run got there. Not part of any result.
#[doc(hidden)]
pub fn phases_on_this_thread() -> u64 {
    PHASES.get()
}

/// The sync model a run executes under: which units run the program, on
/// which cores, and what creating, joining, locking and waiting mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Units {
    /// The paper's baseline: every thread of a pthread program time-sliced
    /// on core 0, sharing its caches, with an OS quantum and a
    /// context-switch penalty.
    Pthread,
    /// The converted program: one process per core, each running the whole
    /// binary, synchronized by RCCE barriers and test-and-set locks.
    Rcce {
        /// Cores, one process each: 1 up to the chip's.
        cores: usize,
    },
    /// The task-dataflow runtime: `main` on core 0 spawns tasks with
    /// declared regions, which run on the other cores.
    Task {
        /// Cores, `main`'s included: 2 up to the chip's.
        cores: usize,
    },
}

/// Everything [`run`] needs besides the program and the sink: the chip, the
/// sync model and the coherence model.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The chip the program runs on.
    pub config: SccConfig,
    /// The sync model.
    pub units: Units,
    /// What value a load observes.
    pub model: ExecModel,
    /// Visit the scheduler before every event and let no unit run ahead of
    /// its turn: the reference the run-ahead rules are tested against
    /// (DESIGN.md §9). The result is the same either way.
    #[doc(hidden)]
    pub reference: bool,
    /// Spread the free units over exactly this many host threads beside the
    /// caller's, whatever the host has to spare, so tests can hold every
    /// count against the reference; `None` takes what the host offers. The
    /// result is the same at any count.
    #[doc(hidden)]
    pub helpers: Option<usize>,
}

impl RunSpec {
    /// `units` under `model` on the chip `config` describes.
    pub fn new(config: SccConfig, units: Units, model: ExecModel) -> Self {
        RunSpec {
            config,
            units,
            model,
            reference: false,
            helpers: None,
        }
    }
}

/// Runs `program` the way `spec` says, streaming every memory access and
/// synchronization event to `sink` ([`NullSink`](crate::NullSink) for none;
/// sinks observe, they never perturb the run). The only place a core count
/// is checked against the sync model.
///
/// # Errors
///
/// A core count outside what the sync model and the chip allow; VM faults,
/// deadlock, failed allocations, and calls the sync model does not have
/// (RCCE calls in a pthread run, pthread calls that survived translation,
/// a `task_wait_all` outside `main`, ...).
pub fn run<S: TraceSink>(
    program: &Program,
    spec: &RunSpec,
    sink: &mut S,
) -> Result<RunResult, ExecError> {
    let chip = spec.config.cores;
    match spec.units {
        Units::Pthread => with_sync(program, spec, PthreadSync::new(), sink),
        Units::Rcce { cores } if (1..=chip).contains(&cores) => {
            with_sync(program, spec, RcceSync::new(cores, &spec.config), sink)
        }
        Units::Task { cores } if (2..=chip).contains(&cores) => {
            with_sync(program, spec, TaskDataflowSync::new(cores), sink)
        }
        Units::Rcce { cores } => Err(ExecError::new(format!(
            "core count {cores} outside 1..={chip}"
        ))),
        Units::Task { cores } => Err(ExecError::new(format!(
            "task mode needs a master plus at least one worker: core count \
             {cores} outside 2..={chip}"
        ))),
    }
}

/// [`with_coherence`] under `sync`, or behind [`VisitEveryEvent`] when
/// `spec` asks for the reference.
fn with_sync<M: SyncModel, S: TraceSink>(
    program: &Program,
    spec: &RunSpec,
    sync: M,
    sink: &mut S,
) -> Result<RunResult, ExecError> {
    if spec.reference {
        with_coherence(program, spec, VisitEveryEvent(sync), sink)
    } else {
        with_coherence(program, spec, sync, sink)
    }
}

fn check_step_limit(steps: u64) -> Result<(), ExecError> {
    if steps > STEP_LIMIT {
        return Err(ExecError::new("simulation exceeded the step limit"));
    }
    Ok(())
}

/// The one place a program steps, accesses memory, prints and gets traced:
/// runs `program` under `model` (synchronization semantics) and `coherence`
/// (memory semantics), streaming accesses to `sink`.
fn execute<M: SyncModel, C: CoherenceModel, S: TraceSink>(
    program: &Program,
    spec: &RunSpec,
    mut model: M,
    coherence: C,
    sink: &mut S,
) -> Result<RunResult, ExecError> {
    let mut env = ExecEnv::new(program, &spec.config, coherence, &model);
    let local = M::OWN_EVENTS_ARE_LOCAL && !S::ENABLED;
    // A lane bills as it goes, which is cheaper than recording and
    // replaying: the pure rule is for the runs that have no lanes.
    let pure = !local && !M::VISITS_EVERY_EVENT;
    debug_assert!(
        !local || (0..env.units.len()).all(|unit| model.core_of(unit) == unit),
        "a unit whose events are local runs on the core of its own index"
    );
    debug_assert!(
        !local
            || env.units.first_mut().is_none_or(|unit| {
                let (clock, busy) = (unit.clock, unit.busy_cycles);
                model.charge(unit, 1, Charge::Progress);
                let billed = (unit.clock, unit.busy_cycles) == (clock + 1, busy);
                unit.clock = clock;
                billed
            }),
        "the local rule bills progress as `unit.clock += cycles`, and so must the model"
    );
    let mut steps: u64 = 0;
    // The free units have not been advanced in one go since the last
    // syscall or finish. What they run until the next one they have
    // in common, so one such phase takes them all there.
    let mut fresh = true;
    // `Ran` slices performed so far, live or replayed, and `(steps,
    // ran)` where the stretch of nothing but such slices began that the
    // run is in.
    let mut ran: u64 = 0;
    let mut stretch = (0, 0);
    'visit: while let Some(u) = model.schedule(&mut env)? {
        if pure {
            let (events, slices) = (steps - stretch.0, ran - stretch.1);
            if events != slices {
                // Something else was performed: a new stretch.
                stretch = (steps, ran);
            } else if slices >= PURE_FLOOR as u64 {
                stretch = (steps, ran);
                if env.compute_ahead(lane_threads(spec.helpers)) {
                    PHASES.set(PHASES.get() + 1);
                }
            }
        }
        let retired = env.units[u].vm.instructions_retired();
        // `u` is due. What it computed ahead comes next in the global
        // order, billed as the live slice would have been.
        if pure {
            while let Some((cycles, _)) = env.units[u].ahead.pop_front() {
                model.charge(&mut env.units[u], u64::from(cycles), Charge::Progress);
                steps += 1;
                ran += 1;
                check_step_limit(steps)?;
                if !model.still_due(&env, u) {
                    continue 'visit;
                }
            }
        }
        // Then whatever it is suspended on.
        loop {
            // A binding per event rather than one assigned to: the VM
            // then writes its answer in place, where reading it back
            // field by field costs nothing.
            let outcome = match env.units[u].held.take() {
                Some(held) => held,
                None => env.units[u].vm.run_until_event(&env.form),
            };
            let flow = match outcome {
                Ok(StepOutcome::Ran { cycles }) => {
                    model.charge(&mut env.units[u], cycles, Charge::Progress);
                    ran += u64::from(pure);
                    None
                }
                Ok(StepOutcome::Load { addr, kind, cycles }) => {
                    let access = (addr, kind, None, cycles);
                    memory_access(&mut model, &mut env, sink, u, access);
                    None
                }
                #[rustfmt::skip]
                Ok(StepOutcome::Store { addr, kind, value, cycles }) => {
                    let access = (addr, kind, Some(value), cycles);
                    memory_access(&mut model, &mut env, sink, u, access);
                    None
                }
                #[rustfmt::skip]
                Ok(StepOutcome::Syscall { intrinsic, ref args, cycles }) => {
                    model.charge(&mut env.units[u], cycles, Charge::Dispatch);
                    Some(syscall(&mut model, &mut env, sink, u, intrinsic, args)?)
                }
                Ok(StepOutcome::Finished { exit }) => {
                    Some(model.finished(&mut env, sink, u, exit.as_i())?)
                }
                Err(fault) => return Err(fault.into()),
            };
            steps += 1;
            check_step_limit(steps)?;
            match flow {
                Some(Flow::Stop) => break 'visit,
                Some(Flow::Continue) => {
                    model.post_step(&mut env, sink)?;
                    fresh = true;
                    continue 'visit;
                }
                None => {}
            }
            if !model.still_due(&env, u) {
                break;
            }
        }
        if !local {
            continue;
        }
        // Somebody else is due first, but what `u` does next may be
        // nobody's business but its own.
        steps += env.advance(u);
        if fresh && env.units[u].vm.instructions_retired() - retired > PHASE_FLOOR {
            fresh = false;
            steps += env.advance_free(u, lane_threads(spec.helpers));
            model.clocks_moved();
            PHASES.set(PHASES.get() + 1);
        }
        check_step_limit(steps)?;
    }

    debug_assert!(env.units.iter().all(|u| u.ahead.len() <= PURE_FLOOR));
    let (total_cycles, per_unit_cycles, exit_code) = model.finalize(&env);
    let timed = env.wtimes.widest_interval().unwrap_or(total_cycles);
    let retired = |u: &UnitState| u.vm.instructions_retired() - u.instructions_ahead();
    let instructions = env.units.iter().map(retired).sum();
    env.output.sort_by_key(|l| (l.at, l.who));
    Ok(RunResult {
        total_cycles,
        timed_cycles: timed,
        output: env.output,
        exit_code,
        mem_stats: env.chip.stats(),
        stats_matrix: env.chip.stats_matrix().clone(),
        mpb_high_water: env.chip.mpb_high_water(),
        per_unit_cycles,
        instructions,
        events: steps,
    })
}

/// [`execute`] under the [`CoherenceModel`] that `spec.model` names.
fn with_coherence<M: SyncModel, S: TraceSink>(
    program: &Program,
    spec: &RunSpec,
    sync: M,
    sink: &mut S,
) -> Result<RunResult, ExecError> {
    match spec.model {
        ExecModel::Coherent => execute(program, spec, sync, Coherent, sink),
        ExecModel::NonCoherentWriteBack => {
            let views = NonCoherentWriteBack::new(spec.config.line_bytes);
            execute(program, spec, sync, views, sink)
        }
        ExecModel::SeqCstReference => execute(program, spec, sync, SeqCstReference, sink),
    }
}

/// One VM-issued load or store of the unit that is due, `(addr, kind,
/// value to store, issue cycles)`: charge issue cycles, resolve the
/// latency through the coherence model, trace it, charge the latency,
/// then move the data and resume the VM.
#[inline(always)]
fn memory_access<M: SyncModel, C: CoherenceModel, S: TraceSink>(
    model: &mut M,
    env: &mut ExecEnv<C>,
    sink: &mut S,
    unit: usize,
    (addr, kind, store, cycles): (u64, MemKind, Option<Value>, u64),
) {
    let core = model.core_of(unit);
    let write = store.is_some();
    model.charge(&mut env.units[unit], cycles, Charge::Progress);
    let now = env.units[unit].clock;
    let lat = env.coherence.latency(&mut env.chip, core, addr, write, now);
    // `ENABLED` is a compile-time constant of the sink type: with
    // the default `NullSink` the event (and its region
    // classification) is never even built.
    if S::ENABLED {
        sink.record(TraceEvent {
            core,
            unit,
            cycle: now,
            addr,
            region: MemorySystem::region_of(addr),
            latency: lat,
            write,
        });
    }
    model.charge(&mut env.units[unit], lat, Charge::Progress);
    match store {
        Some(value) => {
            env.mem_store(unit, core, addr, kind, value);
            env.units[unit].vm.store_done();
        }
        None => {
            let v = env.mem_load(unit, core, addr, kind);
            env.units[unit].vm.provide_load(v);
        }
    }
}

/// Dispatches a syscall: the mode-independent ones (`printf`,
/// `malloc`, `wtime`) are handled here, everything else goes to the
/// sync model.
fn syscall<M: SyncModel, C: CoherenceModel, S: TraceSink>(
    model: &mut M,
    env: &mut ExecEnv<C>,
    sink: &mut S,
    unit: usize,
    intr: Intrinsic,
    args: &[Value],
) -> Result<Flow, ExecError> {
    match intr {
        Intrinsic::Printf => {
            model.charge(&mut env.units[unit], syscall_cost::PRINTF, Charge::Service);
            let core = model.core_of(unit);
            let text = env.format_printf(unit, core, args)?;
            let at = env.units[unit].clock;
            env.output.push(OutputLine {
                at,
                who: unit,
                text,
            });
            env.units[unit].vm.syscall_return(Value::I(0));
            Ok(Flow::Continue)
        }
        Intrinsic::Malloc => {
            model.charge(&mut env.units[unit], syscall_cost::ALLOC, Charge::Service);
            let bytes = args.first().copied().unwrap_or(Value::I(0)).as_i().max(0) as u64;
            let slot = model.heap_slot(unit);
            let addr = env.heap_brk[slot];
            // The arena ends where the shared window begins: an address past
            // it would be billed, and in RCCE mode seen, as shared data.
            let end = addr
                .checked_add((bytes + 31) & !31)
                .filter(|&end| end <= SHARED_DRAM_BASE)
                .ok_or_else(|| {
                    ExecError::new(format!("malloc of {bytes} bytes overflows the heap arena"))
                })?;
            env.heap_brk[slot] = end;
            env.units[unit].vm.syscall_return(Value::I(addr as i64));
            Ok(Flow::Continue)
        }
        Intrinsic::Wtime | Intrinsic::RcceWtime => {
            let clock = env.units[unit].clock;
            env.wtimes.record(unit.min(model.wtime_slots() - 1), clock);
            let secs = clock as f64 / (f64::from(env.config.core_freq_mhz) * 1e6);
            env.units[unit].vm.syscall_return(Value::F(secs));
            Ok(Flow::Continue)
        }
        Intrinsic::Sqrt | Intrinsic::Fabs => {
            unreachable!("pure intrinsics run inline")
        }
        other => model.syscall(env, sink, unit, other, args),
    }
}

/// A [`SyncModel`] that is `M` in everything except that it grants no
/// run-ahead: the core visits `schedule` before every event. [`run`] wraps
/// the model in it when [`RunSpec::reference`] is set, so tests can hold the
/// production models against it.
struct VisitEveryEvent<M>(M);

impl<M: SyncModel> SyncModel for VisitEveryEvent<M> {
    const VISITS_EVERY_EVENT: bool = true;

    fn unit_count(&self) -> usize {
        self.0.unit_count()
    }

    fn space_count(&self) -> usize {
        self.0.space_count()
    }

    fn heap_slots(&self) -> usize {
        self.0.heap_slots()
    }

    fn wtime_slots(&self) -> usize {
        self.0.wtime_slots()
    }

    fn core_of(&self, unit: usize) -> usize {
        self.0.core_of(unit)
    }

    fn heap_slot(&self, unit: usize) -> usize {
        self.0.heap_slot(unit)
    }

    fn stack_base(&self, unit: usize) -> u64 {
        self.0.stack_base(unit)
    }

    fn schedule<C: CoherenceModel>(
        &mut self,
        env: &mut ExecEnv<C>,
    ) -> Result<Option<usize>, ExecError> {
        self.0.schedule(env)
    }

    fn charge(&mut self, unit: &mut UnitState, cycles: u64, kind: Charge) {
        self.0.charge(unit, cycles, kind);
    }

    fn syscall<C: CoherenceModel, S: TraceSink>(
        &mut self,
        env: &mut ExecEnv<C>,
        sink: &mut S,
        unit: usize,
        intr: Intrinsic,
        args: &[Value],
    ) -> Result<Flow, ExecError> {
        self.0.syscall(env, sink, unit, intr, args)
    }

    fn finished<C: CoherenceModel, S: TraceSink>(
        &mut self,
        env: &mut ExecEnv<C>,
        sink: &mut S,
        unit: usize,
        exit: i64,
    ) -> Result<Flow, ExecError> {
        self.0.finished(env, sink, unit, exit)
    }

    fn post_step<C: CoherenceModel, S: TraceSink>(
        &mut self,
        env: &mut ExecEnv<C>,
        sink: &mut S,
    ) -> Result<(), ExecError> {
        self.0.post_step(env, sink)
    }

    fn finalize<C: CoherenceModel>(&self, env: &ExecEnv<C>) -> (u64, Vec<u64>, i64) {
        self.0.finalize(env)
    }
}
