//! Pthread execution mode: the baseline of Figure 6.1.
//!
//! Multithreaded applications "do run on the SCC, however they can only
//! take advantage of a single core" (§6). This mode runs every thread of a
//! pthread program on **core 0**, round-robin time-sliced with an OS
//! quantum and a context-switch penalty, sharing one address space and one
//! cache hierarchy.
//!
//! The interpreter itself is the engine's ([`crate::run`]); this module
//! contributes only the pthread semantics as a [`SyncModel`]: the ready
//! queue, quantum preemption, and the create/join/mutex/barrier syscalls.

use crate::coherence::CoherenceModel;
use crate::engine::{Charge, ExecEnv, Flow, SyncModel, UnitState};
use crate::machine::{addr_arg, ExecError};
use crate::syscall_cost;
use crate::trace::{SyncEvent, TraceSink};
use hsm_vm::{Intrinsic, MemKind, Value};
use hsm_vm::{STACKS_BASE, STACK_SIZE};
use std::collections::{HashMap, VecDeque};

#[derive(Debug, Clone, PartialEq)]
enum ThreadState {
    Ready,
    Running,
    WaitingJoin { target: usize },
    WaitingMutex { key: u64 },
    WaitingBarrier { key: u64 },
    Done { exit: i64 },
}

/// The pthread [`SyncModel`]: all threads share core 0, one address
/// space, one heap, and one global clock; scheduling is round-robin with
/// an OS quantum.
pub(crate) struct PthreadSync {
    states: Vec<ThreadState>,
    ready: VecDeque<usize>,
    joiners: HashMap<usize, Vec<usize>>,
    mutex_owner: HashMap<u64, usize>,
    mutex_waiters: HashMap<u64, VecDeque<usize>>,
    // pthread barriers keyed by the barrier object's address:
    // (required count, currently waiting thread ids).
    barriers: HashMap<u64, (usize, Vec<usize>)>,
    // The process-wide clock; the running thread's unit clock mirrors it.
    clock: u64,
    current: usize,
    quantum_used: u64,
}

impl PthreadSync {
    pub(crate) fn new() -> Self {
        PthreadSync {
            states: vec![ThreadState::Running],
            ready: VecDeque::new(),
            joiners: HashMap::new(),
            mutex_owner: HashMap::new(),
            mutex_waiters: HashMap::new(),
            barriers: HashMap::new(),
            clock: 0,
            current: 0,
            quantum_used: 0,
        }
    }

    /// Marks `tid` done and wakes its joiners.
    fn finish<C: CoherenceModel, S: TraceSink>(
        &mut self,
        env: &mut ExecEnv<C>,
        sink: &mut S,
        tid: usize,
        exit: i64,
    ) {
        self.states[tid] = ThreadState::Done { exit };
        if let Some(waiting) = self.joiners.remove(&tid) {
            for w in waiting {
                sink.sync(SyncEvent::ThreadJoin {
                    unit: w,
                    target: tid,
                    cycle: self.clock,
                });
                self.states[w] = ThreadState::Ready;
                env.units[w].vm.syscall_return(Value::I(0));
                self.ready.push_back(w);
            }
        }
    }
}

impl SyncModel for PthreadSync {
    fn unit_count(&self) -> usize {
        1
    }

    fn space_count(&self) -> usize {
        1
    }

    fn heap_slots(&self) -> usize {
        1
    }

    fn wtime_slots(&self) -> usize {
        1024
    }

    fn core_of(&self, _unit: usize) -> usize {
        0
    }

    fn heap_slot(&self, _unit: usize) -> usize {
        0
    }

    fn stack_base(&self, _unit: usize) -> u64 {
        STACKS_BASE
    }

    fn schedule<C: CoherenceModel>(
        &mut self,
        env: &mut ExecEnv<C>,
    ) -> Result<Option<usize>, ExecError> {
        loop {
            // If the current thread cannot run, schedule another (round
            // robin) and charge a context switch.
            if self.states[self.current] != ThreadState::Running {
                let Some(next) = self.ready.pop_front() else {
                    // Nothing ready: either done or deadlocked.
                    if matches!(self.states[0], ThreadState::Done { .. }) {
                        return Ok(None);
                    }
                    return Err(ExecError::new("thread deadlock: no runnable thread"));
                };
                if self.states[next] == ThreadState::Ready {
                    self.states[next] = ThreadState::Running;
                }
                if next != self.current {
                    self.clock += env.config.context_switch_cycles;
                }
                self.current = next;
                self.quantum_used = 0;
                continue;
            }

            // Preempt at quantum expiry when someone else is waiting.
            if self.quantum_used >= env.config.sched_quantum_cycles && !self.ready.is_empty() {
                self.states[self.current] = ThreadState::Ready;
                self.ready.push_back(self.current);
                continue;
            }

            env.units[self.current].clock = self.clock;
            return Ok(Some(self.current));
        }
    }

    fn still_due<C: CoherenceModel>(&self, env: &ExecEnv<C>, _unit: usize) -> bool {
        // The running thread keeps the core until its quantum is spent
        // and somebody is waiting for it.
        self.quantum_used < env.config.sched_quantum_cycles || self.ready.is_empty()
    }

    fn charge(&mut self, unit: &mut UnitState, cycles: u64, kind: Charge) {
        self.clock += cycles;
        unit.clock = self.clock;
        match kind {
            Charge::Progress => {
                self.quantum_used += cycles;
                unit.busy_cycles += cycles;
            }
            Charge::Dispatch => self.quantum_used += cycles,
            Charge::Service => {}
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
        let current = unit;
        match intr {
            Intrinsic::PthreadCreate => {
                self.clock += syscall_cost::THREAD_CREATE;
                let handle_addr = addr_arg(args, 0)?;
                let func = args.get(2).copied().unwrap_or(Value::I(0)).as_i();
                let arg = args.get(3).copied().unwrap_or(Value::I(0));
                if func < 0 || func as usize >= env.program.funcs.len() {
                    return Err(ExecError::new("pthread_create: bad thread function"));
                }
                let tid = env.units.len();
                if tid >= 1024 {
                    return Err(ExecError::new("too many threads (max 1024)"));
                }
                let stack = STACKS_BASE + tid as u64 * STACK_SIZE;
                env.units
                    .push(UnitState::new(env.program, func as u32, vec![arg], stack));
                self.states.push(ThreadState::Ready);
                self.ready.push_back(tid);
                sink.sync(SyncEvent::ThreadStart {
                    parent: current,
                    unit: tid,
                    func: func as u32,
                    cycle: self.clock,
                });
                // Store the thread id into the pthread_t handle (through
                // the coherence model: under a non-coherent model the
                // parent's later read of the handle can go stale too).
                env.mem_store(current, 0, handle_addr, MemKind::I64, Value::I(tid as i64));
                env.units[current].vm.syscall_return(Value::I(0));
            }
            Intrinsic::PthreadJoin => {
                self.clock += syscall_cost::JOIN;
                let target = args.first().copied().unwrap_or(Value::I(0)).as_i();
                if target < 0 || target as usize >= env.units.len() {
                    return Err(ExecError::new(format!(
                        "pthread_join of unknown thread {target}"
                    )));
                }
                let target = target as usize;
                if matches!(self.states[target], ThreadState::Done { .. }) {
                    sink.sync(SyncEvent::ThreadJoin {
                        unit: current,
                        target,
                        cycle: self.clock,
                    });
                    env.units[current].vm.syscall_return(Value::I(0));
                } else {
                    self.states[current] = ThreadState::WaitingJoin { target };
                    self.joiners.entry(target).or_default().push(current);
                }
            }
            Intrinsic::PthreadExit => {
                self.finish(env, sink, current, 0);
            }
            Intrinsic::PthreadSelf => {
                env.units[current]
                    .vm
                    .syscall_return(Value::I(current as i64));
            }
            Intrinsic::MutexInit | Intrinsic::MutexDestroy => {
                env.units[current].vm.syscall_return(Value::I(0));
            }
            Intrinsic::BarrierInit => {
                // pthread_barrier_init(&b, attr, count)
                let key = addr_arg(args, 0)?;
                let count = args.get(2).copied().unwrap_or(Value::I(1)).as_i().max(1) as usize;
                self.barriers.insert(key, (count, Vec::new()));
                env.units[current].vm.syscall_return(Value::I(0));
            }
            Intrinsic::BarrierDestroy => {
                let key = addr_arg(args, 0)?;
                self.barriers.remove(&key);
                env.units[current].vm.syscall_return(Value::I(0));
            }
            Intrinsic::BarrierWait => {
                self.clock += syscall_cost::MUTEX;
                let key = addr_arg(args, 0)?;
                let Some((count, waiting)) = self.barriers.get_mut(&key) else {
                    return Err(ExecError::new(
                        "pthread_barrier_wait on an uninitialized barrier",
                    ));
                };
                waiting.push(current);
                if waiting.len() >= *count {
                    // Release everyone; the last arriver returns
                    // PTHREAD_BARRIER_SERIAL_THREAD (-1), others 0.
                    let released = std::mem::take(waiting);
                    let epoch = env.barrier_epoch;
                    env.barrier_epoch += 1;
                    for tid in &released {
                        sink.sync(SyncEvent::BarrierArrive {
                            unit: *tid,
                            epoch,
                            cycle: self.clock,
                        });
                    }
                    for (i, tid) in released.iter().enumerate() {
                        let rv = if i + 1 == released.len() { -1 } else { 0 };
                        sink.sync(SyncEvent::BarrierRelease {
                            unit: *tid,
                            epoch,
                            cycle: self.clock,
                        });
                        env.units[*tid].vm.syscall_return(Value::I(rv));
                        if *tid != current {
                            self.states[*tid] = ThreadState::Ready;
                            self.ready.push_back(*tid);
                        }
                    }
                } else {
                    self.states[current] = ThreadState::WaitingBarrier { key };
                }
            }
            Intrinsic::MutexLock => {
                self.clock += syscall_cost::MUTEX;
                let key = addr_arg(args, 0)?;
                if let Some(owner) = self.mutex_owner.get(&key) {
                    if *owner == current {
                        return Err(ExecError::new("recursive mutex lock would self-deadlock"));
                    }
                    self.mutex_waiters
                        .entry(key)
                        .or_default()
                        .push_back(current);
                    self.states[current] = ThreadState::WaitingMutex { key };
                } else {
                    self.mutex_owner.insert(key, current);
                    sink.sync(SyncEvent::LockAcquire {
                        unit: current,
                        lock: key,
                        cycle: self.clock,
                    });
                    env.units[current].vm.syscall_return(Value::I(0));
                }
            }
            Intrinsic::MutexUnlock => {
                self.clock += syscall_cost::MUTEX;
                let key = addr_arg(args, 0)?;
                if self.mutex_owner.get(&key) != Some(&current) {
                    return Err(ExecError::new("unlocking a mutex the thread does not hold"));
                }
                self.mutex_owner.remove(&key);
                sink.sync(SyncEvent::LockRelease {
                    unit: current,
                    lock: key,
                    cycle: self.clock,
                });
                if let Some(waiter) = self.mutex_waiters.get_mut(&key).and_then(|q| q.pop_front()) {
                    self.mutex_owner.insert(key, waiter);
                    sink.sync(SyncEvent::LockAcquire {
                        unit: waiter,
                        lock: key,
                        cycle: self.clock,
                    });
                    self.states[waiter] = ThreadState::Ready;
                    env.units[waiter].vm.syscall_return(Value::I(0));
                    self.ready.push_back(waiter);
                }
                env.units[current].vm.syscall_return(Value::I(0));
            }
            Intrinsic::Exit => {
                let code = args.first().copied().unwrap_or(Value::I(0)).as_i();
                self.finish(env, sink, 0, code);
                return Ok(Flow::Stop);
            }
            other => {
                return Err(ExecError::new(format!(
                    "RCCE call {other:?} in a pthread program"
                )));
            }
        }
        Ok(Flow::Continue)
    }

    fn finished<C: CoherenceModel, S: TraceSink>(
        &mut self,
        env: &mut ExecEnv<C>,
        sink: &mut S,
        unit: usize,
        exit: i64,
    ) -> Result<Flow, ExecError> {
        self.finish(env, sink, unit, exit);
        // main returning ends the process.
        Ok(if unit == 0 {
            Flow::Stop
        } else {
            Flow::Continue
        })
    }

    fn post_step<C: CoherenceModel, S: TraceSink>(
        &mut self,
        _env: &mut ExecEnv<C>,
        _sink: &mut S,
    ) -> Result<(), ExecError> {
        Ok(())
    }

    fn finalize<C: CoherenceModel>(&self, env: &ExecEnv<C>) -> (u64, Vec<u64>, i64) {
        let exit = match self.states[0] {
            ThreadState::Done { exit } => exit,
            _ => 0,
        };
        let per_unit = env.units.iter().map(|u| u.busy_cycles).collect();
        (self.clock, per_unit, exit)
    }
}
