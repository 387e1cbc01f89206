//! The stack-machine instruction set.
//!
//! The compiler lowers CIR to this bytecode, the optimizer rewrites it and
//! [`crate::serial`] stores it. The VM does not dispatch on it directly:
//! [`crate::vm::Vm::run_until_event`] runs the program's
//! [`crate::form::ExecForm`], whose slots stand for one or more of these
//! instructions, up to the next load, store or library call and hands that
//! to the engine, which is what makes execution suspendable — the
//! discrete-event engine can interleave 48 cores at memory-access
//! granularity. [`Instr::base_cost`] and the semantics below stay the
//! definition of what a slot costs and does.

use crate::value::MemKind;
use std::fmt;

/// Library calls resolved by the execution engine (or inline by the VM for
/// the pure-math ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    // Common C library.
    /// `printf(fmt, ...)` — formatted output through the engine.
    Printf,
    /// `sqrt(x)` — pure math, evaluated inline by the VM.
    Sqrt,
    /// `fabs(x)` — pure math, evaluated inline by the VM.
    Fabs,
    /// `exit(code)` — terminate the program.
    Exit,
    /// `malloc(size)` — simulated-heap allocation.
    Malloc,
    /// `wtime()` — simulated wall-clock in seconds.
    Wtime,
    // Pthread API (meaningful in pthread execution mode).
    /// `pthread_create(&tid, attr, fn, arg)`.
    PthreadCreate,
    /// `pthread_join(tid, retp)`.
    PthreadJoin,
    /// `pthread_exit(ret)`.
    PthreadExit,
    /// `pthread_self()`.
    PthreadSelf,
    /// `pthread_mutex_init(&m, attr)`.
    MutexInit,
    /// `pthread_mutex_lock(&m)`.
    MutexLock,
    /// `pthread_mutex_unlock(&m)`.
    MutexUnlock,
    /// `pthread_mutex_destroy(&m)`.
    MutexDestroy,
    /// `pthread_barrier_init(&b, attr, count)`.
    BarrierInit,
    /// `pthread_barrier_wait(&b)`.
    BarrierWait,
    /// `pthread_barrier_destroy(&b)`.
    BarrierDestroy,
    // RCCE API (meaningful in RCCE execution mode).
    /// `RCCE_init(&argc, &argv)`.
    RcceInit,
    /// `RCCE_finalize()`.
    RcceFinalize,
    /// `RCCE_ue()` — this unit's id.
    RcceUe,
    /// `RCCE_num_ues()` — unit count.
    RcceNumUes,
    /// `RCCE_shmalloc(size)` — shared off-chip DRAM allocation.
    RcceShmalloc,
    /// `RCCE_malloc(size)` — on-chip MPB allocation.
    RcceMpbMalloc,
    /// `RCCE_barrier(&comm)`.
    RcceBarrier,
    /// `RCCE_acquire_lock(ue)` — test-and-set lock acquire.
    RcceAcquireLock,
    /// `RCCE_release_lock(ue)`.
    RcceReleaseLock,
    /// `RCCE_wtime()`.
    RcceWtime,
    /// `RCCE_put(dst, src, size, ue)` — push into a remote MPB.
    RccePut,
    /// `RCCE_get(dst, src, size, ue)` — pull from a remote MPB.
    RcceGet,
    /// `RCCE_flag_alloc(&flag)`.
    RcceFlagAlloc,
    /// `RCCE_flag_write(&flag, value, ue)`.
    RcceFlagWrite,
    /// `RCCE_flag_read(&flag, &value, ue)`.
    RcceFlagRead,
    /// `RCCE_wait_until(flag, value)` — spin until a flag matches.
    RcceWaitUntil,
    /// `RCCE_send(buf, size, ue)` — blocking MPB send.
    RcceSend,
    /// `RCCE_recv(buf, size, ue)` — blocking MPB receive.
    RcceRecv,
    /// `task_spawn(fn, arg, in1, in1_bytes, in2, in2_bytes, out, out_bytes)`
    /// — spawn a dataflow task running `fn(arg)` with up to two declared
    /// input regions and one output region. Returns the task id (>= 1).
    TaskSpawn,
    /// `task_wait_all()` — block until every spawned task has completed.
    TaskWaitAll,
    /// `task_self()` — id of the calling task (0 in `main`).
    TaskSelf,
    /// `task_workers()` — number of cores available to run tasks.
    TaskWorkers,
}

impl Intrinsic {
    /// Resolves a C function name to an intrinsic.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        use Intrinsic::*;
        Some(match name {
            "printf" => Printf,
            "sqrt" => Sqrt,
            "fabs" => Fabs,
            "exit" => Exit,
            "malloc" => Malloc,
            "wtime" => Wtime,
            "pthread_create" => PthreadCreate,
            "pthread_join" => PthreadJoin,
            "pthread_exit" => PthreadExit,
            "pthread_self" => PthreadSelf,
            "pthread_mutex_init" => MutexInit,
            "pthread_mutex_lock" => MutexLock,
            "pthread_mutex_unlock" => MutexUnlock,
            "pthread_mutex_destroy" => MutexDestroy,
            "pthread_barrier_init" => BarrierInit,
            "pthread_barrier_wait" => BarrierWait,
            "pthread_barrier_destroy" => BarrierDestroy,
            "RCCE_init" => RcceInit,
            "RCCE_finalize" => RcceFinalize,
            "RCCE_ue" => RcceUe,
            "RCCE_num_ues" => RcceNumUes,
            "RCCE_shmalloc" => RcceShmalloc,
            "RCCE_malloc" => RcceMpbMalloc,
            "RCCE_barrier" => RcceBarrier,
            "RCCE_acquire_lock" => RcceAcquireLock,
            "RCCE_release_lock" => RcceReleaseLock,
            "RCCE_wtime" => RcceWtime,
            "RCCE_put" => RccePut,
            "RCCE_get" => RcceGet,
            "RCCE_flag_alloc" => RcceFlagAlloc,
            "RCCE_flag_write" => RcceFlagWrite,
            "RCCE_flag_read" => RcceFlagRead,
            "RCCE_wait_until" => RcceWaitUntil,
            "RCCE_send" => RcceSend,
            "RCCE_recv" => RcceRecv,
            "task_spawn" => TaskSpawn,
            "task_wait_all" => TaskWaitAll,
            "task_self" => TaskSelf,
            "task_workers" => TaskWorkers,
            _ => return None,
        })
    }

    /// The C function name this intrinsic resolves from — the inverse of
    /// [`Intrinsic::from_name`], used by the bytecode serializer as the
    /// stable on-disk spelling.
    pub fn name(self) -> &'static str {
        use Intrinsic::*;
        match self {
            Printf => "printf",
            Sqrt => "sqrt",
            Fabs => "fabs",
            Exit => "exit",
            Malloc => "malloc",
            Wtime => "wtime",
            PthreadCreate => "pthread_create",
            PthreadJoin => "pthread_join",
            PthreadExit => "pthread_exit",
            PthreadSelf => "pthread_self",
            MutexInit => "pthread_mutex_init",
            MutexLock => "pthread_mutex_lock",
            MutexUnlock => "pthread_mutex_unlock",
            MutexDestroy => "pthread_mutex_destroy",
            BarrierInit => "pthread_barrier_init",
            BarrierWait => "pthread_barrier_wait",
            BarrierDestroy => "pthread_barrier_destroy",
            RcceInit => "RCCE_init",
            RcceFinalize => "RCCE_finalize",
            RcceUe => "RCCE_ue",
            RcceNumUes => "RCCE_num_ues",
            RcceShmalloc => "RCCE_shmalloc",
            RcceMpbMalloc => "RCCE_malloc",
            RcceBarrier => "RCCE_barrier",
            RcceAcquireLock => "RCCE_acquire_lock",
            RcceReleaseLock => "RCCE_release_lock",
            RcceWtime => "RCCE_wtime",
            RccePut => "RCCE_put",
            RcceGet => "RCCE_get",
            RcceFlagAlloc => "RCCE_flag_alloc",
            RcceFlagWrite => "RCCE_flag_write",
            RcceFlagRead => "RCCE_flag_read",
            RcceWaitUntil => "RCCE_wait_until",
            RcceSend => "RCCE_send",
            RcceRecv => "RCCE_recv",
            TaskSpawn => "task_spawn",
            TaskWaitAll => "task_wait_all",
            TaskSelf => "task_self",
            TaskWorkers => "task_workers",
        }
    }

    /// Whether the VM can evaluate this intrinsic itself without engine
    /// involvement (pure math).
    pub fn is_pure(self) -> bool {
        matches!(self, Intrinsic::Sqrt | Intrinsic::Fabs)
    }
}

/// One bytecode instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Push an integer (also used for addresses and function indices).
    PushI(i64),
    /// Push a float.
    PushF(f64),
    /// Read register-allocated local `slot`.
    LocalGet(u16),
    /// Write register-allocated local `slot` (pops).
    LocalSet(u16),
    /// Push `frame.mem_base + offset` (memory-resident locals/arrays).
    LocalMemAddr(u32),
    /// Pop address, load a value through the memory system.
    Load(MemKind),
    /// Pop value then address, store through the memory system. When
    /// `keep` is true the stored value is pushed back (assignment used as
    /// an expression).
    Store(MemKind, bool),
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
    /// Exchange the top two values.
    Swap,
    /// Rotate the top three values: `a b c` → `b c a`.
    Rot3,
    /// `a + b` (wrapping on integers, C promotion when either is float).
    Add,
    /// `a - b` (wrapping / promoting like [`Instr::Add`]).
    Sub,
    /// `a * b` (wrapping / promoting like [`Instr::Add`]).
    Mul,
    /// `a / b`; integer division by zero faults the VM.
    Div,
    /// `a % b`; integer remainder by zero faults the VM.
    Rem,
    /// `a << b` (operands coerce to integers, shift amount wraps).
    Shl,
    /// `a >> b` (arithmetic; coercion as [`Instr::Shl`]).
    Shr,
    /// `a & b` (integer coercion).
    BitAnd,
    /// `a | b` (integer coercion).
    BitOr,
    /// `a ^ b` (integer coercion).
    BitXor,
    /// Arithmetic negation (wrapping on integers).
    Neg,
    /// Logical not: pushes `1` when the operand is falsy, else `0`.
    Not,
    /// Bitwise complement (integer coercion).
    BitNot,
    /// `a < b` → `0`/`1` (C usual arithmetic conversions).
    CmpLt,
    /// `a <= b` → `0`/`1`.
    CmpLe,
    /// `a > b` → `0`/`1`.
    CmpGt,
    /// `a >= b` → `0`/`1`.
    CmpGe,
    /// `a == b` → `0`/`1`.
    CmpEq,
    /// `a != b` → `0`/`1`.
    CmpNe,
    /// Convert int → float.
    I2F,
    /// Convert float → int (truncating).
    F2I,
    /// Unconditional jump to instruction index.
    Jump(u32),
    /// Pop; jump when zero.
    JumpIfZero(u32),
    /// Pop; jump when non-zero.
    JumpIfNotZero(u32),
    /// Call function by index; the top `nargs` values become arguments.
    Call(u32, u8),
    /// Call a library intrinsic with `nargs` stacked arguments.
    CallIntrinsic(Intrinsic, u8),
    /// Return popping the return value.
    Ret,
    /// Return with an implicit 0.
    RetVoid,
    /// Do nothing (placeholder; the optimizer removes these).
    Nop,
}

/// The fieldless opcode of each [`Instr`] variant.
///
/// `Op` names an instruction without its payload: the optimizer's value
/// numbering keys on it, and `tests/vm_dispatch.rs` draws from
/// [`Op::ALL`] to prove its generated corpus covers the instruction set.
/// Discriminants are dense (`0..Op::COUNT`) and [`Op::ALL`] lists every
/// opcode in discriminant order. The execution form names a fused
/// operator by its `Op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op {
    /// Opcode of [`Instr::PushI`].
    PushI = 0,
    /// Opcode of [`Instr::PushF`].
    PushF,
    /// Opcode of [`Instr::LocalGet`].
    LocalGet,
    /// Opcode of [`Instr::LocalSet`].
    LocalSet,
    /// Opcode of [`Instr::LocalMemAddr`].
    LocalMemAddr,
    /// Opcode of [`Instr::Load`].
    Load,
    /// Opcode of [`Instr::Store`].
    Store,
    /// Opcode of [`Instr::Dup`].
    Dup,
    /// Opcode of [`Instr::Pop`].
    Pop,
    /// Opcode of [`Instr::Swap`].
    Swap,
    /// Opcode of [`Instr::Rot3`].
    Rot3,
    /// Opcode of [`Instr::Add`].
    Add,
    /// Opcode of [`Instr::Sub`].
    Sub,
    /// Opcode of [`Instr::Mul`].
    Mul,
    /// Opcode of [`Instr::Div`].
    Div,
    /// Opcode of [`Instr::Rem`].
    Rem,
    /// Opcode of [`Instr::Shl`].
    Shl,
    /// Opcode of [`Instr::Shr`].
    Shr,
    /// Opcode of [`Instr::BitAnd`].
    BitAnd,
    /// Opcode of [`Instr::BitOr`].
    BitOr,
    /// Opcode of [`Instr::BitXor`].
    BitXor,
    /// Opcode of [`Instr::Neg`].
    Neg,
    /// Opcode of [`Instr::Not`].
    Not,
    /// Opcode of [`Instr::BitNot`].
    BitNot,
    /// Opcode of [`Instr::CmpLt`].
    CmpLt,
    /// Opcode of [`Instr::CmpLe`].
    CmpLe,
    /// Opcode of [`Instr::CmpGt`].
    CmpGt,
    /// Opcode of [`Instr::CmpGe`].
    CmpGe,
    /// Opcode of [`Instr::CmpEq`].
    CmpEq,
    /// Opcode of [`Instr::CmpNe`].
    CmpNe,
    /// Opcode of [`Instr::I2F`].
    I2F,
    /// Opcode of [`Instr::F2I`].
    F2I,
    /// Opcode of [`Instr::Jump`].
    Jump,
    /// Opcode of [`Instr::JumpIfZero`].
    JumpIfZero,
    /// Opcode of [`Instr::JumpIfNotZero`].
    JumpIfNotZero,
    /// Opcode of [`Instr::Call`].
    Call,
    /// Opcode of [`Instr::CallIntrinsic`].
    CallIntrinsic,
    /// Opcode of [`Instr::Ret`].
    Ret,
    /// Opcode of [`Instr::RetVoid`].
    RetVoid,
    /// Opcode of [`Instr::Nop`].
    Nop,
}

impl Op {
    /// Number of opcodes.
    pub const COUNT: usize = 40;

    /// Every opcode, in discriminant order (`ALL[i] as usize == i`).
    pub const ALL: [Op; Op::COUNT] = [
        Op::PushI,
        Op::PushF,
        Op::LocalGet,
        Op::LocalSet,
        Op::LocalMemAddr,
        Op::Load,
        Op::Store,
        Op::Dup,
        Op::Pop,
        Op::Swap,
        Op::Rot3,
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Div,
        Op::Rem,
        Op::Shl,
        Op::Shr,
        Op::BitAnd,
        Op::BitOr,
        Op::BitXor,
        Op::Neg,
        Op::Not,
        Op::BitNot,
        Op::CmpLt,
        Op::CmpLe,
        Op::CmpGt,
        Op::CmpGe,
        Op::CmpEq,
        Op::CmpNe,
        Op::I2F,
        Op::F2I,
        Op::Jump,
        Op::JumpIfZero,
        Op::JumpIfNotZero,
        Op::Call,
        Op::CallIntrinsic,
        Op::Ret,
        Op::RetVoid,
        Op::Nop,
    ];
}

impl Instr {
    /// The fieldless opcode of this instruction.
    #[inline(always)]
    pub fn op(self) -> Op {
        match self {
            Instr::PushI(_) => Op::PushI,
            Instr::PushF(_) => Op::PushF,
            Instr::LocalGet(_) => Op::LocalGet,
            Instr::LocalSet(_) => Op::LocalSet,
            Instr::LocalMemAddr(_) => Op::LocalMemAddr,
            Instr::Load(_) => Op::Load,
            Instr::Store(..) => Op::Store,
            Instr::Dup => Op::Dup,
            Instr::Pop => Op::Pop,
            Instr::Swap => Op::Swap,
            Instr::Rot3 => Op::Rot3,
            Instr::Add => Op::Add,
            Instr::Sub => Op::Sub,
            Instr::Mul => Op::Mul,
            Instr::Div => Op::Div,
            Instr::Rem => Op::Rem,
            Instr::Shl => Op::Shl,
            Instr::Shr => Op::Shr,
            Instr::BitAnd => Op::BitAnd,
            Instr::BitOr => Op::BitOr,
            Instr::BitXor => Op::BitXor,
            Instr::Neg => Op::Neg,
            Instr::Not => Op::Not,
            Instr::BitNot => Op::BitNot,
            Instr::CmpLt => Op::CmpLt,
            Instr::CmpLe => Op::CmpLe,
            Instr::CmpGt => Op::CmpGt,
            Instr::CmpGe => Op::CmpGe,
            Instr::CmpEq => Op::CmpEq,
            Instr::CmpNe => Op::CmpNe,
            Instr::I2F => Op::I2F,
            Instr::F2I => Op::F2I,
            Instr::Jump(_) => Op::Jump,
            Instr::JumpIfZero(_) => Op::JumpIfZero,
            Instr::JumpIfNotZero(_) => Op::JumpIfNotZero,
            Instr::Call(..) => Op::Call,
            Instr::CallIntrinsic(..) => Op::CallIntrinsic,
            Instr::Ret => Op::Ret,
            Instr::RetVoid => Op::RetVoid,
            Instr::Nop => Op::Nop,
        }
    }

    /// Base execution cost in core cycles (P54C-flavoured CPI model).
    /// `Load`/`Store` report only issue cost; the memory system adds the
    /// hierarchy latency.
    pub fn base_cost(self) -> u64 {
        use Instr::*;
        match self {
            PushI(_) | PushF(_) | LocalGet(_) | LocalSet(_) | LocalMemAddr(_) | Dup | Pop
            | Swap | Rot3 | Nop => 1,
            Load(_) | Store(..) => 1,
            Add | Sub | BitAnd | BitOr | BitXor | Neg | Not | BitNot | CmpLt | CmpLe | CmpGt
            | CmpGe | CmpEq | CmpNe | Shl | Shr | I2F | F2I => 1,
            Mul => 4,
            Div | Rem => 24,
            Jump(_) | JumpIfZero(_) | JumpIfNotZero(_) => 1,
            Call(..) | CallIntrinsic(..) => 4,
            Ret | RetVoid => 3,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intrinsic_resolution() {
        assert_eq!(Intrinsic::from_name("printf"), Some(Intrinsic::Printf));
        assert_eq!(Intrinsic::from_name("RCCE_ue"), Some(Intrinsic::RcceUe));
        assert_eq!(
            Intrinsic::from_name("RCCE_malloc"),
            Some(Intrinsic::RcceMpbMalloc)
        );
        assert_eq!(Intrinsic::from_name("unknown_fn"), None);
    }

    #[test]
    fn pure_intrinsics() {
        assert!(Intrinsic::Sqrt.is_pure());
        assert!(!Intrinsic::Printf.is_pure());
        assert!(!Intrinsic::RcceBarrier.is_pure());
    }

    #[test]
    fn division_is_expensive() {
        assert!(Instr::Div.base_cost() > Instr::Mul.base_cost());
        assert!(Instr::Mul.base_cost() > Instr::Add.base_cost());
    }

    #[test]
    fn opcodes_are_dense_and_complete() {
        assert_eq!(Op::ALL.len(), Op::COUNT);
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(*op as usize, i, "discriminants must be dense");
        }
    }

    #[test]
    fn every_instr_maps_to_its_opcode() {
        use crate::value::MemKind;
        // One sample instruction per variant, in Op order.
        let samples: [Instr; Op::COUNT] = [
            Instr::PushI(1),
            Instr::PushF(1.0),
            Instr::LocalGet(0),
            Instr::LocalSet(0),
            Instr::LocalMemAddr(0),
            Instr::Load(MemKind::I32),
            Instr::Store(MemKind::I32, false),
            Instr::Dup,
            Instr::Pop,
            Instr::Swap,
            Instr::Rot3,
            Instr::Add,
            Instr::Sub,
            Instr::Mul,
            Instr::Div,
            Instr::Rem,
            Instr::Shl,
            Instr::Shr,
            Instr::BitAnd,
            Instr::BitOr,
            Instr::BitXor,
            Instr::Neg,
            Instr::Not,
            Instr::BitNot,
            Instr::CmpLt,
            Instr::CmpLe,
            Instr::CmpGt,
            Instr::CmpGe,
            Instr::CmpEq,
            Instr::CmpNe,
            Instr::I2F,
            Instr::F2I,
            Instr::Jump(0),
            Instr::JumpIfZero(0),
            Instr::JumpIfNotZero(0),
            Instr::Call(0, 0),
            Instr::CallIntrinsic(Intrinsic::Printf, 0),
            Instr::Ret,
            Instr::RetVoid,
            Instr::Nop,
        ];
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.op() as usize, i, "{s:?} maps to the wrong opcode");
        }
    }
}
