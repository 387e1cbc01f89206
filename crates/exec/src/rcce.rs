//! RCCE execution mode: N cores, each running the translated program,
//! interleaved by a discrete-event scheduler that always advances the core
//! with the smallest local clock.
//!
//! The interpreter itself is the engine's ([`crate::run`]); this module
//! contributes only the RCCE semantics as a [`SyncModel`]: the
//! discrete-event schedule, the symmetric heap/flag allocation discipline,
//! barriers, test-and-set locks, flags, and send/recv rendezvous.

use crate::coherence::CoherenceModel;
use crate::engine::{Charge, ExecEnv, Flow, SyncModel, UnitState};
use crate::machine::{addr_arg, checked_transfer, ExecError};
use crate::rcce_rt::RcceRuntime;
use crate::syscall_cost;
use crate::trace::{SyncEvent, TraceSink};
use hsm_vm::{Intrinsic, MemKind, Value};
use hsm_vm::{STACKS_BASE, STACK_SIZE};
use scc_sim::SccConfig;
use std::collections::VecDeque;

#[derive(Debug, Clone, PartialEq)]
enum CoreState {
    Running,
    InBarrier {
        arrived_at: u64,
    },
    WaitingLock {
        id: usize,
    },
    /// Spinning on its own copy of a flag (`RCCE_wait_until`).
    WaitingFlag {
        flag: usize,
        value: i64,
    },
    /// Blocked in `RCCE_send(buf, size, dst)` until `dst` posts the recv.
    WaitingSend {
        dst: usize,
        buf: u64,
        size: usize,
    },
    /// Blocked in `RCCE_recv(buf, size, src)` until `src` posts the send.
    WaitingRecv {
        src: usize,
        buf: u64,
        size: usize,
    },
    Done {
        exit: i64,
    },
}

/// The RCCE [`SyncModel`]: one unit per core, one private address space
/// and heap arena each, discrete-event interleaving by local clock.
pub(crate) struct RcceSync {
    cores: usize,
    rt: RcceRuntime,
    states: Vec<CoreState>,
    alloc_seq: Vec<usize>,
    flag_seq: Vec<usize>,
    /// Local clock at the most recent barrier arrival: the per-core work
    /// completion time, before the barrier equalizes the clocks (used for
    /// the load-imbalance metric).
    last_barrier_arrival: Vec<u64>,
    /// Symmetric allocation log: the k-th allocation call returns the same
    /// address on every core (RCCE's symmetric heap discipline).
    alloc_log: Vec<u64>,
    /// Flags: flag id -> per-UE value (each UE owns one copy in its MPB
    /// slice, as in the real library). Allocation is symmetric like the
    /// heap: the k-th RCCE_flag_alloc on every core names the same flag.
    flags: Vec<Vec<i64>>,
    /// Last core that wrote each flag copy, for the sync-event stream: a
    /// satisfied RCCE_wait_until is a hand-off from that writer.
    flag_writer: Vec<Vec<Option<usize>>>,
    /// Lock state (test-and-set registers, managed at event level so
    /// waiters block instead of spinning the DES).
    lock_owner: Vec<Option<usize>>,
    lock_waiters: Vec<VecDeque<usize>>,
    /// The [`key`]s of the `Running` cores, ascending: the scheduler's pick
    /// first, and behind it the first core the pick must not overtake.
    /// Rebuilt when `resync` says so; between rebuilds only the core at
    /// the front moves, and only backwards (anything else is announced by
    /// `clocks_moved`).
    order: Vec<u128>,
    /// The key the core handed out last has to stay below to be handed out
    /// again: the second entry of `order` at the time of the pick.
    limit: u128,
    /// A syscall or a finish happened since the last `schedule`, or the
    /// engine advanced cores it had not handed out. Only those change a
    /// core's state or another core's clock, so only then does the barrier
    /// need a look and `order` a rebuild; after any other event, only the
    /// clock of the core handed out last — still `order`'s first entry —
    /// has moved.
    resync: bool,
}

/// What the scheduler orders cores by: the local clock, then the core id,
/// as one integer — ties in the clock fall to the lowest core id.
fn key(clock: u64, core: usize) -> u128 {
    u128::from(clock) << 64 | core as u128
}

impl RcceSync {
    pub(crate) fn new(cores: usize, config: &SccConfig) -> Self {
        RcceSync {
            cores,
            rt: RcceRuntime::new(cores),
            states: vec![CoreState::Running; cores],
            alloc_seq: vec![0; cores],
            flag_seq: vec![0; cores],
            last_barrier_arrival: vec![0; cores],
            alloc_log: Vec::new(),
            flags: Vec::new(),
            flag_writer: Vec::new(),
            lock_owner: vec![None; config.cores],
            lock_waiters: vec![VecDeque::new(); config.cores],
            order: Vec::with_capacity(cores),
            limit: 0,
            resync: true,
        }
    }

    /// Resolves the flag handle a flag call passes first to a flag id,
    /// through the calling unit's memory view.
    fn flag_id<C: CoherenceModel>(
        &mut self,
        env: &mut ExecEnv<C>,
        core: usize,
        args: &[Value],
    ) -> Result<usize, ExecError> {
        if args.is_empty() {
            return Err(ExecError::new("flag call without a flag handle"));
        }
        let handle = addr_arg(args, 0)?;
        let id = env.mem_load(core, core, handle, MemKind::I64).as_i();
        let count = self.flags.len();
        if id < 0 || id as usize >= count {
            return Err(ExecError::new(format!(
                "flag handle {id} out of range (allocated: {count})"
            )));
        }
        Ok(id as usize)
    }

    /// The [`key`] of every `Running` core, in core order.
    fn running_keys<'a, C: CoherenceModel>(
        &'a self,
        env: &'a ExecEnv<C>,
    ) -> impl Iterator<Item = u128> + 'a {
        let cores = self.states.iter().zip(&env.units).enumerate();
        cores
            .filter(|(_, (state, _))| **state == CoreState::Running)
            .map(|(core, (_, unit))| key(unit.clock, core))
    }

    /// Performs the rendezvous data movement of one send/recv pair: the
    /// payload moves sender -> MPB -> receiver, both cores resuming at the
    /// completion time. Each side is a `(core, buffer)` pair.
    fn transfer<C: CoherenceModel, S: TraceSink>(
        &mut self,
        env: &mut ExecEnv<C>,
        sink: &mut S,
        (src, src_buf): (usize, u64),
        (dst, dst_buf): (usize, u64),
        bytes: usize,
    ) {
        env.copy_cross((src, src, src_buf), (dst, dst, dst_buf), bytes);
        let meet = env.units[src].clock.max(env.units[dst].clock);
        let cost = self.rt.put_get_cost(&env.chip, src, dst, bytes)
            + self.rt.put_get_cost(&env.chip, dst, dst, bytes);
        let done = meet + cost;
        env.units[src].clock = done;
        env.units[dst].clock = done;
        // The rendezvous orders both sides against each other.
        sink.sync(SyncEvent::Message {
            from: src,
            to: dst,
            cycle: done,
        });
        sink.sync(SyncEvent::Message {
            from: dst,
            to: src,
            cycle: done,
        });
    }
}

impl SyncModel for RcceSync {
    fn unit_count(&self) -> usize {
        self.cores
    }

    fn space_count(&self) -> usize {
        self.cores
    }

    fn heap_slots(&self) -> usize {
        self.cores
    }

    fn wtime_slots(&self) -> usize {
        self.cores
    }

    fn core_of(&self, unit: usize) -> usize {
        unit
    }

    fn heap_slot(&self, unit: usize) -> usize {
        unit
    }

    fn stack_base(&self, unit: usize) -> u64 {
        STACKS_BASE + unit as u64 * STACK_SIZE
    }

    fn schedule<C: CoherenceModel>(
        &mut self,
        env: &mut ExecEnv<C>,
    ) -> Result<Option<usize>, ExecError> {
        if self.resync {
            let mut order = std::mem::take(&mut self.order);
            order.clear();
            order.extend(self.running_keys(env));
            order.sort_unstable();
            self.order = order;
            self.resync = false;
        } else if let Some((&front, rest)) = self.order.split_first() {
            // The core handed out last moved its clock forward: put it
            // back behind every core that is now due before it.
            let core = front as u64 as usize;
            let moved = key(env.units[core].clock, core);
            let behind = rest.partition_point(|&other| other < moved);
            self.order.copy_within(1..=behind, 0);
            self.order[behind] = moved;
        }
        debug_assert!(
            {
                let mut fresh: Vec<u128> = self.running_keys(env).collect();
                fresh.sort_unstable();
                fresh == self.order
            },
            "the schedule order went stale: {:?}",
            self.order
        );
        // The running core with the smallest clock, lowest core id on ties.
        if let Some(&next) = self.order.first() {
            self.limit = self.order.get(1).copied().unwrap_or(u128::MAX);
            return Ok(Some(next as u64 as usize));
        }
        if self
            .states
            .iter()
            .all(|s| matches!(s, CoreState::Done { .. }))
        {
            Ok(None)
        } else {
            Err(ExecError::new(
                "deadlock: no runnable core but not all cores finished",
            ))
        }
    }

    fn still_due<C: CoherenceModel>(&self, env: &ExecEnv<C>, unit: usize) -> bool {
        // No key but `unit`'s has changed since the pick: `unit` is still
        // the smallest while it stays below the runner-up.
        key(env.units[unit].clock, unit) < self.limit
    }

    // One process per core: a core's caches, private space, write-back
    // view, statistics row and clock are its unit's alone, and the other
    // cores reach them only through syscalls that find the unit blocked.
    const OWN_EVENTS_ARE_LOCAL: bool = true;

    fn clocks_moved(&mut self) {
        self.resync = true;
    }

    fn charge(&mut self, unit: &mut UnitState, cycles: u64, _kind: Charge) {
        // RCCE bills everything to the core's local clock; balance is
        // measured by barrier-arrival time, not busy cycles.
        unit.clock += cycles;
    }

    fn syscall<C: CoherenceModel, S: TraceSink>(
        &mut self,
        env: &mut ExecEnv<C>,
        sink: &mut S,
        unit: usize,
        intr: Intrinsic,
        args: &[Value],
    ) -> Result<Flow, ExecError> {
        let core = unit;
        let cores = self.cores;
        self.resync = true;
        let ret = match intr {
            Intrinsic::RcceInit => {
                env.units[core].clock += syscall_cost::RCCE_INIT;
                Value::I(0)
            }
            Intrinsic::RcceFinalize => {
                env.units[core].clock += syscall_cost::RCCE_FINALIZE;
                Value::I(0)
            }
            Intrinsic::RcceUe => Value::I(core as i64),
            Intrinsic::RcceNumUes => Value::I(cores as i64),
            Intrinsic::RcceShmalloc | Intrinsic::RcceMpbMalloc => {
                let bytes = args.first().copied().unwrap_or(Value::I(0)).as_i().max(0) as usize;
                env.units[core].clock += syscall_cost::ALLOC;
                let seq = self.alloc_seq[core];
                self.alloc_seq[core] += 1;
                let addr = if seq < self.alloc_log.len() {
                    self.alloc_log[seq]
                } else {
                    let a = match intr {
                        Intrinsic::RcceShmalloc => self.rt.shmalloc(bytes)?,
                        _ => self.rt.mpb_malloc(&mut env.chip, bytes)?,
                    };
                    self.alloc_log.push(a);
                    a
                };
                Value::I(addr as i64)
            }
            Intrinsic::RcceBarrier => {
                // The software coherence point: translated programs write
                // their modified shared lines back before waiting.
                env.coherence
                    .flush_unit(unit, core, &mut env.spaces, &mut env.chip);
                let now = env.units[core].clock;
                self.last_barrier_arrival[core] = now;
                self.states[core] = CoreState::InBarrier { arrived_at: now };
                // No syscall_return: the VM stays pending until released.
                return Ok(Flow::Continue);
            }
            Intrinsic::RcceAcquireLock => {
                let id = args.first().copied().unwrap_or(Value::I(0)).as_i().max(0) as usize
                    % self.lock_owner.len();
                let trip = env.chip.mesh.mpb_round_trip(core, id).max(2);
                env.units[core].clock += trip;
                if self.lock_owner[id].is_none() {
                    self.lock_owner[id] = Some(core);
                    sink.sync(SyncEvent::LockAcquire {
                        unit: core,
                        lock: id as u64,
                        cycle: env.units[core].clock,
                    });
                    Value::I(0)
                } else {
                    self.lock_waiters[id].push_back(core);
                    self.states[core] = CoreState::WaitingLock { id };
                    return Ok(Flow::Continue);
                }
            }
            Intrinsic::RcceReleaseLock => {
                let id = args.first().copied().unwrap_or(Value::I(0)).as_i().max(0) as usize
                    % self.lock_owner.len();
                let trip = env.chip.mesh.mpb_round_trip(core, id).max(2);
                env.units[core].clock += trip;
                if self.lock_owner[id] != Some(core) {
                    return Err(ExecError::new(format!(
                        "core {core} released lock {id} it does not hold"
                    )));
                }
                self.lock_owner[id] = None;
                sink.sync(SyncEvent::LockRelease {
                    unit: core,
                    lock: id as u64,
                    cycle: env.units[core].clock,
                });
                if let Some(waiter) = self.lock_waiters[id].pop_front() {
                    self.lock_owner[id] = Some(waiter);
                    let grant = env.units[core].clock.max(env.units[waiter].clock)
                        + env.chip.mesh.mpb_round_trip(waiter, id).max(2);
                    env.units[waiter].clock = grant;
                    sink.sync(SyncEvent::LockAcquire {
                        unit: waiter,
                        lock: id as u64,
                        cycle: grant,
                    });
                    self.states[waiter] = CoreState::Running;
                    env.units[waiter].vm.syscall_return(Value::I(0));
                }
                Value::I(0)
            }
            Intrinsic::RccePut | Intrinsic::RcceGet => {
                let dst = addr_arg(args, 0)?;
                let src = addr_arg(args, 1)?;
                let bytes = args.get(2).copied().unwrap_or(Value::I(0)).as_i().max(0) as usize;
                let target = args.get(3).copied().unwrap_or(Value::I(0)).as_i().max(0) as usize
                    % cores.max(1);
                checked_transfer(intr.name(), dst, bytes as u64)?;
                checked_transfer(intr.name(), src, bytes as u64)?;
                env.copy_bytes(unit, core, dst, src, bytes);
                env.units[core].clock += self.rt.put_get_cost(&env.chip, core, target, bytes);
                Value::I(0)
            }
            Intrinsic::Exit => {
                let code = args.first().copied().unwrap_or(Value::I(0)).as_i();
                self.states[core] = CoreState::Done { exit: code };
                return Ok(Flow::Continue);
            }
            Intrinsic::RcceFlagAlloc => {
                env.units[core].clock += syscall_cost::ALLOC;
                let seq = self.flag_seq[core];
                self.flag_seq[core] += 1;
                if seq >= self.flags.len() {
                    self.flags.push(vec![0; cores]);
                    self.flag_writer.push(vec![None; cores]);
                }
                if !args.is_empty() {
                    let handle = addr_arg(args, 0)?;
                    env.mem_store(core, core, handle, MemKind::I64, Value::I(seq as i64));
                }
                Value::I(0)
            }
            Intrinsic::RcceFlagWrite => {
                // RCCE_flag_write(&flag, value, ue)
                let id = self.flag_id(env, core, args)?;
                let value = args.get(1).copied().unwrap_or(Value::I(0)).as_i();
                let ue = args.get(2).copied().unwrap_or(Value::I(0)).as_i().max(0) as usize % cores;
                env.units[core].clock += env.chip.mesh.mpb_round_trip(core, ue).max(2)
                    + env.chip.config.mpb_access_cycles;
                self.flags[id][ue] = value;
                self.flag_writer[id][ue] = Some(core);
                // Wake a waiter spinning on this copy.
                if self.states[ue] == (CoreState::WaitingFlag { flag: id, value }) {
                    let wake = env.units[core].clock.max(env.units[ue].clock)
                        + env.chip.config.mpb_access_cycles;
                    env.units[ue].clock = wake;
                    if ue != core {
                        sink.sync(SyncEvent::Message {
                            from: core,
                            to: ue,
                            cycle: wake,
                        });
                    }
                    self.states[ue] = CoreState::Running;
                    env.units[ue].vm.syscall_return(Value::I(0));
                }
                Value::I(0)
            }
            Intrinsic::RcceFlagRead => {
                // RCCE_flag_read(&flag, &out, ue)
                let id = self.flag_id(env, core, args)?;
                let ue = args.get(2).copied().unwrap_or(Value::I(0)).as_i().max(0) as usize % cores;
                env.units[core].clock += env.chip.mesh.mpb_round_trip(core, ue).max(2)
                    + env.chip.config.mpb_access_cycles;
                let v = self.flags[id][ue];
                // Observing a remote write through a flag read is a hand-off.
                if let Some(writer) = self.flag_writer[id][ue] {
                    if writer != core {
                        sink.sync(SyncEvent::Message {
                            from: writer,
                            to: core,
                            cycle: env.units[core].clock,
                        });
                    }
                }
                let out = addr_arg(args, 1)?;
                if out != 0 {
                    env.mem_store(core, core, out, MemKind::I64, Value::I(v));
                }
                Value::I(v)
            }
            Intrinsic::RcceWaitUntil => {
                // RCCE_wait_until(&flag, value) — spins on the caller's copy.
                let id = self.flag_id(env, core, args)?;
                let value = args.get(1).copied().unwrap_or(Value::I(0)).as_i();
                env.units[core].clock += env.chip.config.mpb_access_cycles;
                if self.flags[id][core] == value {
                    // Already satisfied: the last writer of this copy handed
                    // off to us without blocking.
                    if let Some(writer) = self.flag_writer[id][core] {
                        if writer != core {
                            sink.sync(SyncEvent::Message {
                                from: writer,
                                to: core,
                                cycle: env.units[core].clock,
                            });
                        }
                    }
                    Value::I(0)
                } else {
                    self.states[core] = CoreState::WaitingFlag { flag: id, value };
                    return Ok(Flow::Continue);
                }
            }
            Intrinsic::RcceSend => {
                // RCCE_send(buf, size, dest) — synchronous rendezvous.
                let buf = addr_arg(args, 0)?;
                let size = args.get(1).copied().unwrap_or(Value::I(0)).as_i().max(0) as usize;
                // Either side's size bounds the transfer: each is checked
                // at its own call.
                checked_transfer(intr.name(), buf, size as u64)?;
                let dst =
                    args.get(2).copied().unwrap_or(Value::I(0)).as_i().max(0) as usize % cores;
                if let CoreState::WaitingRecv {
                    src,
                    buf: rbuf,
                    size: rsize,
                } = self.states[dst]
                {
                    if src == core {
                        let n = size.min(rsize);
                        self.transfer(env, sink, (core, buf), (dst, rbuf), n);
                        self.states[dst] = CoreState::Running;
                        env.units[dst].vm.syscall_return(Value::I(0));
                        Value::I(0)
                    } else {
                        self.states[core] = CoreState::WaitingSend { dst, buf, size };
                        return Ok(Flow::Continue);
                    }
                } else {
                    self.states[core] = CoreState::WaitingSend { dst, buf, size };
                    return Ok(Flow::Continue);
                }
            }
            Intrinsic::RcceRecv => {
                // RCCE_recv(buf, size, src).
                let buf = addr_arg(args, 0)?;
                let size = args.get(1).copied().unwrap_or(Value::I(0)).as_i().max(0) as usize;
                // Either side's size bounds the transfer: each is checked
                // at its own call.
                checked_transfer(intr.name(), buf, size as u64)?;
                let src =
                    args.get(2).copied().unwrap_or(Value::I(0)).as_i().max(0) as usize % cores;
                if let CoreState::WaitingSend {
                    dst,
                    buf: sbuf,
                    size: ssize,
                } = self.states[src]
                {
                    if dst == core {
                        let n = size.min(ssize);
                        self.transfer(env, sink, (src, sbuf), (core, buf), n);
                        self.states[src] = CoreState::Running;
                        env.units[src].vm.syscall_return(Value::I(0));
                        Value::I(0)
                    } else {
                        self.states[core] = CoreState::WaitingRecv { src, buf, size };
                        return Ok(Flow::Continue);
                    }
                } else {
                    self.states[core] = CoreState::WaitingRecv { src, buf, size };
                    return Ok(Flow::Continue);
                }
            }
            other => {
                return Err(ExecError::new(format!(
                    "pthread call {other:?} reached RCCE mode: translation incomplete"
                )));
            }
        };
        env.units[core].vm.syscall_return(ret);
        Ok(Flow::Continue)
    }

    fn finished<C: CoherenceModel, S: TraceSink>(
        &mut self,
        _env: &mut ExecEnv<C>,
        _sink: &mut S,
        unit: usize,
        exit: i64,
    ) -> Result<Flow, ExecError> {
        self.states[unit] = CoreState::Done { exit };
        self.resync = true;
        // The run ends when the scheduler finds every core Done.
        Ok(Flow::Continue)
    }

    fn post_step<C: CoherenceModel, S: TraceSink>(
        &mut self,
        env: &mut ExecEnv<C>,
        sink: &mut S,
    ) -> Result<(), ExecError> {
        // Barrier release check: all live cores waiting? States change only
        // inside `syscall`/`finished`, so after any other event the answer
        // is the one the previous check gave.
        if !self.resync {
            return Ok(());
        }
        let total = self.states.len();
        let in_barrier = self
            .states
            .iter()
            .filter(|s| matches!(s, CoreState::InBarrier { .. }))
            .count();
        if in_barrier == 0 {
            return Ok(());
        }
        let done = self
            .states
            .iter()
            .filter(|s| matches!(s, CoreState::Done { .. }))
            .count();
        // RCCE_barrier(&RCCE_COMM_WORLD) involves every UE: if any core has
        // already exited, the arrivals can never complete — on silicon the
        // program would hang.
        if done > 0 && in_barrier + done == total {
            return Err(ExecError::new(
                "barrier deadlock: some cores exited before the barrier",
            ));
        }
        if in_barrier < total {
            return Ok(());
        }
        let latest = self
            .states
            .iter()
            .filter_map(|s| match s {
                CoreState::InBarrier { arrived_at } => Some(*arrived_at),
                _ => None,
            })
            .max()
            .expect("at least one in barrier");
        let release = latest + self.rt.barrier_cost(&env.chip);
        let epoch = env.barrier_epoch;
        env.barrier_epoch += 1;
        for (i, s) in self.states.iter().enumerate() {
            if let CoreState::InBarrier { arrived_at } = s {
                sink.sync(SyncEvent::BarrierArrive {
                    unit: i,
                    epoch,
                    cycle: *arrived_at,
                });
            }
        }
        for (i, s) in self.states.iter_mut().enumerate() {
            if matches!(s, CoreState::InBarrier { .. }) {
                sink.sync(SyncEvent::BarrierRelease {
                    unit: i,
                    epoch,
                    cycle: release,
                });
                env.units[i].clock = release;
                *s = CoreState::Running;
                env.units[i].vm.syscall_return(Value::I(0));
            }
        }
        Ok(())
    }

    fn finalize<C: CoherenceModel>(&self, env: &ExecEnv<C>) -> (u64, Vec<u64>, i64) {
        let total = env.units.iter().map(|u| u.clock).max().unwrap_or(0);
        let per_unit = env
            .units
            .iter()
            .enumerate()
            .map(|(i, u)| {
                if self.last_barrier_arrival[i] > 0 {
                    self.last_barrier_arrival[i]
                } else {
                    u.clock
                }
            })
            .collect();
        let exit = match self.states[0] {
            CoreState::Done { exit } => exit,
            _ => 0,
        };
        (total, per_unit, exit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coherence::Coherent;
    use crate::{run, ExecModel, NullSink, RunSpec, Units};
    use hsm_vm::Program;

    /// The run on `cores` cores, and the reference that visits the
    /// scheduler before every event.
    fn fast_and_reference(cores: usize) -> [RunSpec; 2] {
        let units = Units::Rcce { cores };
        let spec = RunSpec::new(SccConfig::table_6_1(), units, ExecModel::Coherent);
        let reference = RunSpec {
            reference: true,
            ..spec.clone()
        };
        [spec, reference]
    }

    fn native(src: &str) -> Program {
        hsm_vm::compile(&hsm_cir::parse(src).expect("parse")).expect("compile")
    }

    /// A scheduler over `clocks.len()` idle cores with the given clocks.
    fn at_clocks<'p>(
        program: &'p Program,
        config: &'p SccConfig,
        clocks: &[u64],
    ) -> (RcceSync, ExecEnv<'p, Coherent>) {
        let sync = RcceSync::new(clocks.len(), config);
        let mut env = ExecEnv::new(program, config, Coherent, &sync);
        for (unit, &clock) in env.units.iter_mut().zip(clocks) {
            unit.clock = clock;
        }
        (sync, env)
    }

    #[test]
    fn a_core_stays_due_until_it_reaches_the_runner_up() {
        let (program, config) = (native("int main() { return 0; }"), SccConfig::table_6_1());
        let (mut sync, mut env) = at_clocks(&program, &config, &[50, 10, 30, 30]);
        assert_eq!(sync.schedule(&mut env), Ok(Some(1)));
        // Core 1 runs alone up to the runner-up, core 2 at 30 ...
        env.units[1].clock = 29;
        assert!(sync.still_due(&env, 1));
        // ... and through the tie: it has the lower id.
        env.units[1].clock = 30;
        assert!(sync.still_due(&env, 1));
        env.units[1].clock = 31;
        assert!(!sync.still_due(&env, 1));
        // Cores 2 and 3 tie at 30: the lower id goes first, and at the
        // same clock as core 3 it is still the one `schedule` would pick.
        assert_eq!(sync.schedule(&mut env), Ok(Some(2)));
        assert!(sync.still_due(&env, 2));
        env.units[2].clock = 31;
        assert!(!sync.still_due(&env, 2));
        // Core 3 at 30 is bounded by core 1 at 31: a tie with a lower id
        // is the other core's turn.
        assert_eq!(sync.schedule(&mut env), Ok(Some(3)));
        env.units[3].clock = 31;
        assert!(!sync.still_due(&env, 3));
        assert_eq!(sync.schedule(&mut env), Ok(Some(1)));
        let order = [(31, 1), (31, 2), (31, 3), (50, 0)];
        assert_eq!(sync.order, order.map(|(clock, core)| key(clock, core)));
    }

    #[test]
    fn a_blocked_core_never_bounds_the_limit() {
        let (program, config) = (native("int main() { return 0; }"), SccConfig::table_6_1());
        let (mut sync, mut env) = at_clocks(&program, &config, &[10, 0, 20, 5]);
        // The two cores with the smallest clocks are not runnable.
        sync.states[1] = CoreState::InBarrier { arrived_at: 0 };
        sync.states[3] = CoreState::WaitingLock { id: 0 };
        assert_eq!(sync.schedule(&mut env), Ok(Some(0)));
        env.units[0].clock = 19;
        assert!(sync.still_due(&env, 0), "bounded by core 2 at 20 only");
        env.units[0].clock = 21;
        assert!(!sync.still_due(&env, 0));
        assert_eq!(sync.schedule(&mut env), Ok(Some(2)));
        // The last runnable core has nobody to wait for.
        sync.states[0] = CoreState::Done { exit: 0 };
        sync.resync = true;
        assert_eq!(sync.schedule(&mut env), Ok(Some(2)));
        env.units[2].clock = u64::MAX;
        assert!(sync.still_due(&env, 2));
        sync.states[2] = CoreState::Done { exit: 0 };
        sync.resync = true;
        let deadlock = sync.schedule(&mut env).expect_err("two cores never wake");
        assert!(deadlock.message.contains("deadlock"), "{deadlock}");
    }

    /// A lock hand-off, a flag wake, a rendezvous and a barrier release
    /// each hand a blocked core a clock somebody else computed. Debug
    /// builds audit `order` against the states at every `schedule`; every
    /// build holds the run against the one that asks before each event.
    #[test]
    fn every_wake_up_rebuilds_the_order() {
        let program = native(
            r#"
int *counter;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    counter = (int *)RCCE_shmalloc(sizeof(int) * 1);
    int me;
    me = RCCE_ue();
    int n;
    n = RCCE_num_ues();
    RCCE_FLAG ready;
    RCCE_flag_alloc(&ready);
    int out[1];
    int in[1];
    int i;
    out[0] = me;
    for (i = 0; i < 50 * (n - me); i++) out[0] = out[0] + i % 3;
    RCCE_acquire_lock(0);
    counter[0] = counter[0] + 1;
    RCCE_release_lock(0);
    if (me % 2 == 0) {
        RCCE_send(out, 4, me + 1);
    } else {
        RCCE_recv(in, 4, me - 1);
    }
    if (me == n - 1) RCCE_flag_write(&ready, 1, 0);
    if (me == 0) RCCE_wait_until(&ready, 1);
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return counter[0];
}
"#,
        );
        for cores in [2, 4, 16] {
            let [fast, reference] = fast_and_reference(cores);
            let fast = run(&program, &fast, &mut NullSink).expect("run");
            let reference = run(&program, &reference, &mut NullSink);
            assert_eq!(fast.exit_code, cores as i64);
            assert_eq!(Ok(fast), reference, "{cores} cores");
        }
    }

    /// A core that runs ahead into a syscall parks it, and the syscall
    /// happens once, on the core's turn: every line printed once, every
    /// lock acquired once, in the reference's order.
    #[test]
    fn a_held_syscall_is_dispatched_once() {
        let program = native(
            r#"
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    int me;
    me = RCCE_ue();
    int scratch[8];
    int i;
    for (i = 0; i < 300 * (4 - me); i++) scratch[i % 8] = scratch[(i + 1) % 8] + i;
    printf("core %d\n", me);
    RCCE_acquire_lock(1);
    RCCE_release_lock(1);
    RCCE_barrier(&RCCE_COMM_WORLD);
    return scratch[0] % 2;
}
"#,
        );
        let [fast, reference] = fast_and_reference(4);
        let fast = run(&program, &fast, &mut NullSink).expect("run");
        let lines: Vec<&str> = fast.output.iter().map(|l| l.text.as_str()).collect();
        // The shortest loop prints first.
        assert_eq!(lines, ["core 3\n", "core 2\n", "core 1\n", "core 0\n"]);
        let reference = run(&program, &reference, &mut NullSink);
        assert_eq!(Ok(fast), reference);
    }
}
