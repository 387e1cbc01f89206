//! The suspendable stack-machine VM.
//!
//! A [`Vm`] executes one simulated hardware thread (a pthread, or one
//! RCCE UE). It never touches memory or the outside world itself: every
//! load, store and library call is surfaced as a [`StepOutcome`] for the
//! discrete-event engine to resolve against the simulated SCC, after which
//! the engine resumes the VM with the result. That hand-off is what lets
//! 48 cores interleave deterministically at instruction granularity.

use crate::compile::{Program, STACK_SIZE};
use crate::form::{operator_forms, sink_len, src_len, ExecForm, Slot};
use crate::instr::{Instr, Intrinsic, Op};
use crate::value::{MemKind, Value};
use std::fmt;

/// A VM runtime fault (all indicate compiler or engine bugs, not user
/// program errors — the compiler rejects invalid programs).
#[derive(Debug, Clone, PartialEq)]
pub struct VmError {
    /// Description.
    pub message: String,
}

impl VmError {
    fn new(m: impl Into<String>) -> Self {
        VmError { message: m.into() }
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm fault: {}", self.message)
    }
}

impl std::error::Error for VmError {}

/// What the VM needs from the engine before it can continue.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// Plain instructions ran for `cycles`.
    Ran {
        /// Core cycles consumed.
        cycles: u64,
    },
    /// A load was issued: the engine must resolve data + latency, then
    /// call [`Vm::provide_load`].
    Load {
        /// Effective address.
        addr: u64,
        /// Access kind.
        kind: MemKind,
        /// Issue cycles already consumed (add memory latency on top).
        cycles: u64,
    },
    /// A store was issued: the engine performs it, then calls
    /// [`Vm::store_done`].
    Store {
        /// Effective address.
        addr: u64,
        /// Access kind.
        kind: MemKind,
        /// Value to store.
        value: Value,
        /// Issue cycles already consumed.
        cycles: u64,
    },
    /// A library call the engine must service; resume with
    /// [`Vm::syscall_return`].
    Syscall {
        /// Which intrinsic.
        intrinsic: Intrinsic,
        /// Arguments, left to right.
        args: Vec<Value>,
        /// Issue cycles already consumed.
        cycles: u64,
    },
    /// The entry function returned.
    Finished {
        /// Its return value.
        exit: Value,
    },
}

/// One call record. Registers live in the [`Vm`]'s flat arena (`regs`);
/// a frame owns the suffix starting at `reg_base`, so calls never allocate
/// and returns are a truncate. `pc` is only authoritative while the frame
/// is *not* running: [`Vm::run_until_event`] keeps the running frame's
/// `pc` in a local and writes it back at calls, returns, suspension points
/// and faults.
#[derive(Debug, Clone)]
struct Frame {
    func: u32,
    pc: u32,
    reg_base: usize,
    mem_base: u64,
    mem_size: u32,
}

#[derive(Debug, Clone, PartialEq)]
enum Pending {
    Load,
    Store { repush: Option<Value> },
    Syscall,
}

/// One suspendable execution context.
#[derive(Debug, Clone)]
pub struct Vm {
    stack: Vec<Value>,
    frames: Vec<Frame>,
    /// Flat register arena: frame `i` owns `regs[frames[i].reg_base..]` up
    /// to the next frame's base.
    regs: Vec<Value>,
    pending: Option<Pending>,
    mem_sp: u64,
    stack_region_base: u64,
    finished: Option<Value>,
    retired: u64,
}

impl Vm {
    /// Creates a VM poised at `func` with `args`, using the private stack
    /// region starting at `stack_region_base`.
    pub fn new(program: &Program, func: u32, args: Vec<Value>, stack_region_base: u64) -> Self {
        let f = &program.funcs[func as usize];
        let mut regs = vec![Value::I(0); f.n_regs as usize];
        for (i, a) in args.into_iter().enumerate().take(f.n_regs as usize) {
            regs[i] = a;
        }
        let frame = Frame {
            func,
            pc: 0,
            reg_base: 0,
            mem_base: stack_region_base,
            mem_size: f.frame_mem,
        };
        Vm {
            stack: Vec::with_capacity(32),
            frames: vec![frame],
            regs,
            pending: None,
            mem_sp: u64::from(f.frame_mem),
            stack_region_base,
            finished: None,
            retired: 0,
        }
    }

    /// Total bytecode instructions retired since construction. This is a
    /// host-performance denominator (steps/sec); it plays no role in the
    /// simulated timing model.
    pub fn instructions_retired(&self) -> u64 {
        self.retired
    }

    /// Whether the entry function has returned.
    pub fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    /// Current call depth (diagnostics).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Completes a pending load.
    ///
    /// # Panics
    ///
    /// Panics if no load is pending.
    pub fn provide_load(&mut self, v: Value) {
        match self.pending.take() {
            Some(Pending::Load) => self.stack.push(v),
            other => panic!("provide_load without pending load: {other:?}"),
        }
    }

    /// Completes a pending store.
    ///
    /// # Panics
    ///
    /// Panics if no store is pending.
    pub fn store_done(&mut self) {
        match self.pending.take() {
            Some(Pending::Store { repush }) => {
                if let Some(v) = repush {
                    self.stack.push(v);
                }
            }
            other => panic!("store_done without pending store: {other:?}"),
        }
    }

    /// Completes a pending syscall, pushing its return value.
    ///
    /// # Panics
    ///
    /// Panics if no syscall is pending.
    pub fn syscall_return(&mut self, v: Value) {
        match self.pending.take() {
            Some(Pending::Syscall) => self.stack.push(v),
            other => panic!("syscall_return without pending syscall: {other:?}"),
        }
    }

    /// Runs instructions until something needs the engine (memory access,
    /// syscall, or completion), accumulating plain-instruction cycles into
    /// the returned outcome.
    ///
    /// One fetch loop over the program's [`ExecForm`], one inline arm per
    /// slot kind. The running frame's slots, `pc`, register window and
    /// memory base, `cycles` and `retired` stay in locals; `pc` and
    /// `retired` go back to memory only where someone else can see them:
    /// suspension points, calls, returns and faults.
    ///
    /// **The commit rule.** Every slot first charges and retires the
    /// instruction it stands on, exactly as that instruction alone would. A
    /// fused form then *commits* — skips the other instructions it covers,
    /// charging their cycles and retiring them — only if none of them would
    /// reach the slice valve (`cycles + rest < SLICE_CYCLES`), the stack
    /// holds the operands it takes from there, and no operator in it faults
    /// on the operands at hand. Otherwise it performs just its first
    /// instruction and the slots after it carry on, so a `Ran` slice ends,
    /// and a fault is raised with the stack and `pc`, where
    /// [`Vm::run_until_event_matched`] ends and raises them.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on stack underflow, malformed bytecode, or a
    /// run-time error of the simulated program (integer division by zero,
    /// negative effective address, simulated stack overflow).
    ///
    /// # Panics
    ///
    /// May panic if the VM was not created for `form`'s program.
    pub fn run_until_event(&mut self, form: &ExecForm<'_>) -> Result<StepOutcome, VmError> {
        use Instr::*;
        assert!(
            self.pending.is_none(),
            "resuming a VM with an unresolved pending operation"
        );
        if let Some(exit) = self.finished {
            return Ok(StepOutcome::Finished { exit });
        }
        if self.frames.is_empty() {
            return Err(VmError::new("no active frame"));
        }
        let program = form.program;
        let (mut slots, mut code, mut pc, mut mem_base, mut regs) =
            top_frame(form, &self.frames, &mut self.regs);
        let mut cycles = 0u64;
        let mut retired = self.retired;
        macro_rules! park {
            () => {
                self.retired = retired;
                if let Some(f) = self.frames.last_mut() {
                    f.pc = pc as u32;
                }
            };
        }
        macro_rules! fault {
            ($e:expr) => {{
                park!();
                return Err($e);
            }};
        }
        macro_rules! pop {
            () => {
                match self.stack.pop() {
                    Some(v) => v,
                    None => fault!(underflow(&mut self.stack)),
                }
            };
        }
        // Naming the opcode lets `binary` fold down to that one operator.
        macro_rules! binop {
            ($op:expr) => {
                if let Err(e) = binop(&mut self.stack, $op) {
                    fault!(e)
                }
            };
        }
        // Register slots of fused forms were checked when the form was built.
        macro_rules! reg {
            ($slot:expr) => {
                regs[$slot as usize]
            };
        }
        macro_rules! branch {
            ($v:expr, $t:expr, $when:expr) => {
                if $v.is_truthy() == $when {
                    pc = $t as usize;
                }
            };
        }
        // The left operand of a form that takes it from the stack.
        macro_rules! top {
            ($op:ident, $r:expr) => {
                self.stack.last().and_then(|&l| binary($op, l, $r))
            };
        }
        // An operator form by its source: how many of its operands come
        // off the stack, what its first instruction pushes, and what the
        // operator makes of the operands (`None`: it faults, or the stack
        // operand is not there).
        #[rustfmt::skip]
        macro_rules! taken {
            (RR) => { 0 };
            (RI) => { 0 };
            (SI) => { 1 };
            (SR) => { 1 };
            (RCF) => { 0 };
        }
        #[rustfmt::skip]
        macro_rules! head {
            (RR($a:ident, $b:ident)) => { reg!($a) };
            (RI($a:ident, $imm:ident)) => { reg!($a) };
            (SI($imm:ident)) => { int($imm) };
            (SR($b:ident)) => { reg!($b) };
            (RCF($a:ident, $f:ident)) => { reg!($a) };
        }
        #[rustfmt::skip]
        macro_rules! first {
            ($op:ident, RR($a:ident, $b:ident)) => { binary($op, reg!($a), reg!($b)) };
            ($op:ident, RI($a:ident, $imm:ident)) => { binary($op, reg!($a), int($imm)) };
            ($op:ident, SI($imm:ident)) => { top!($op, int($imm)) };
            ($op:ident, SR($b:ident)) => { top!($op, reg!($b)) };
            ($op:ident, RCF($a:ident, $f:ident)) => {
                binary($op, Value::F(reg!($a).as_f()), Value::F($f))
            };
        }
        // And by its sink: the value it delivers (`Then`: `under op2
        // first`, `under` being the value below the operands) and where.
        macro_rules! value {
            ($op:ident, $src:ident $s:tt, Then($op2:ident)) => {
                match (self.stack.len().checked_sub(1 + taken!($src)), first!($op, $src $s)) {
                    (Some(under), Some(v)) => binary($op2, self.stack[under], v),
                    _ => None,
                }
            };
            ($op:ident, $src:ident $s:tt, $sink:ident $k:tt) => {
                first!($op, $src $s)
            };
        }
        macro_rules! sink {
            ($v:ident, Push()) => {
                self.stack.push($v)
            };
            ($v:ident, Set($c:ident)) => {
                reg!($c) = $v
            };
            ($v:ident, SetJ($c:ident, $t:ident)) => {{
                reg!($c) = $v;
                pc = $t as usize;
            }};
            ($v:ident, Br($t:ident, $when:ident)) => {
                branch!($v, $t, $when)
            };
            // The test against zero was folded into `when` by `fuse`.
            ($v:ident, ZBr($t:ident, $when:ident)) => {
                branch!($v, $t, $when)
            };
            ($v:ident, Then($op2:ident)) => {
                if let Some(under) = self.stack.last_mut() {
                    *under = $v;
                }
            };
        }
        // An operator form: its first instruction costs a cycle; the rest
        // commit together or not at all.
        macro_rules! fused {
            ($op:ident, $rest:ident, $src:ident $s:tt, $sink:ident $k:tt) => {{
                cycles += 1;
                match value!($op, $src $s, $sink $k) {
                    Some(v) if cycles + u64::from($rest) < SLICE_CYCLES => {
                        let more = src_len!($src) + sink_len!($sink);
                        // `SetJ` then jumps, which makes this dead there.
                        #[allow(unused_assignments)]
                        {
                            pc += more;
                        }
                        retired += more as u64;
                        cycles += u64::from($rest);
                        self.stack.truncate(self.stack.len() - taken!($src));
                        sink!(v, $sink $k)
                    }
                    _ => self.stack.push(head!($src $s)),
                }
            }};
        }
        // One arm per slot kind; the operator forms' from their rows.
        macro_rules! dispatch {
            ($slot:ident; $($form:ident: $src:ident($($s:ident),*) $sink:ident($($k:ident),*);)*) => {
                match $slot {
                    Slot::Plain => {
                        let instr = code[pc - 1];
                        cycles += instr.base_cost();
                        match instr {
                            PushI(v) => self.stack.push(Value::I(v)),
                            PushF(v) => self.stack.push(Value::F(v)),
                            LocalGet(slot) => match regs.get(slot as usize) {
                                Some(&v) => self.stack.push(v),
                                None => fault!(VmError::new("register slot out of range")),
                            },
                            LocalSet(slot) => {
                                let v = pop!();
                                match regs.get_mut(slot as usize) {
                                    Some(r) => *r = v,
                                    None => fault!(VmError::new("register slot out of range")),
                                }
                            }
                            LocalMemAddr(off) => self.stack.push(local_addr(mem_base, off)),
                            Load(kind) => {
                                let addr = match address(pop!()) {
                                    Ok(a) => a,
                                    Err(e) => fault!(e),
                                };
                                self.pending = Some(Pending::Load);
                                park!();
                                return Ok(StepOutcome::Load { addr, kind, cycles });
                            }
                            Store(kind, keep) => {
                                let value = pop!();
                                let addr = match address(pop!()) {
                                    Ok(a) => a,
                                    Err(e) => fault!(e),
                                };
                                let repush = keep.then_some(value);
                                self.pending = Some(Pending::Store { repush });
                                park!();
                                #[rustfmt::skip]
                                return Ok(StepOutcome::Store { addr, kind, value, cycles });
                            }
                            Dup => match self.stack.last() {
                                Some(&v) => self.stack.push(v),
                                None => fault!(VmError::new("dup on empty stack")),
                            },
                            Pop => {
                                pop!();
                            }
                            Swap => match self.stack.as_mut_slice() {
                                [.., a, b] => std::mem::swap(a, b),
                                _ => fault!(underflow(&mut self.stack)),
                            },
                            Rot3 => match self.stack.as_mut_slice() {
                                [.., a, b, c] => (*a, *b, *c) = (*b, *c, *a),
                                _ => fault!(underflow(&mut self.stack)),
                            },
                            Add => binop!(Op::Add),
                            Sub => binop!(Op::Sub),
                            Mul => binop!(Op::Mul),
                            Div => binop!(Op::Div),
                            Rem => binop!(Op::Rem),
                            Shl | Shr | BitAnd | BitOr | BitXor => binop!(instr.op()),
                            CmpLt => binop!(Op::CmpLt),
                            CmpLe => binop!(Op::CmpLe),
                            CmpGt => binop!(Op::CmpGt),
                            CmpGe => binop!(Op::CmpGe),
                            CmpEq => binop!(Op::CmpEq),
                            CmpNe => binop!(Op::CmpNe),
                            Neg | Not | BitNot | I2F | F2I => match self.stack.last_mut() {
                                Some(top) => *top = unary(instr, *top),
                                None => fault!(underflow(&mut self.stack)),
                            },
                            Jump(t) => pc = t as usize,
                            JumpIfZero(t) => branch!(pop!(), t, false),
                            JumpIfNotZero(t) => branch!(pop!(), t, true),
                            Call(idx, nargs) => {
                                park!(); // `pc` is the return address
                                self.enter(program, idx, nargs)?;
                                (slots, code, pc, mem_base, regs) =
                                    top_frame(form, &self.frames, &mut self.regs);
                            }
                            CallIntrinsic(intrinsic, nargs) => {
                                park!();
                                let (stack, pending) = (&mut self.stack, &mut self.pending);
                                match call_intrinsic(stack, pending, intrinsic, nargs, cycles)? {
                                    Some(syscall) => return Ok(syscall),
                                    None => cycles += PURE_INTRINSIC_CYCLES,
                                }
                            }
                            Ret | RetVoid => {
                                park!();
                                if let Some(exit) = self.leave(instr == Ret)? {
                                    return Ok(StepOutcome::Finished { exit });
                                }
                                (slots, code, pc, mem_base, regs) =
                                    top_frame(form, &self.frames, &mut self.regs);
                            }
                            Nop => {}
                        }
                    }
                    $(Slot::$form { op, $($s,)* $($k,)* rest } => {
                        fused!(op, rest, $src($($s),*), $sink($($k),*))
                    })*
                    // One load event, unless the `Load` is past the valve.
                    Slot::ImmLoad(addr, kind) => {
                        cycles += 1;
                        if cycles + 1 < SLICE_CYCLES {
                            (pc, retired, cycles) = (pc + 1, retired + 1, cycles + 1);
                            self.pending = Some(Pending::Load);
                            park!();
                            return Ok(StepOutcome::Load { addr, kind, cycles });
                        }
                        self.stack.push(Value::I(addr as i64));
                    }
                }
            };
        }
        loop {
            let Some(&slot) = slots.get(pc) else {
                let name = &program.funcs[self.frames.last().expect("frame").func as usize].name;
                fault!(VmError::new(format!("pc {pc} out of bounds in `{name}`")))
            };
            pc += 1;
            retired += 1;
            operator_forms!(dispatch slot);
            // Safety valve: surface control periodically so the engine can
            // interleave cores even through long register-only stretches.
            // Tested after every slot: where a `Ran` slice ends decides
            // pthread quantum expiry and RCCE event order.
            if cycles >= SLICE_CYCLES {
                park!();
                return Ok(StepOutcome::Ran { cycles });
            }
        }
    }

    /// [`Vm::run_until_event`] as the plainest interpreter that can be
    /// written: one `match`, every access through `self`'s fields, nothing
    /// cached. It exists so `tests/vm_dispatch.rs` has something to hold
    /// the production loop against; behaviour must be identical.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Vm::run_until_event`].
    #[doc(hidden)]
    pub fn run_until_event_matched(&mut self, program: &Program) -> Result<StepOutcome, VmError> {
        use Instr::*;
        assert!(
            self.pending.is_none(),
            "resuming a VM with an unresolved pending operation"
        );
        if let Some(exit) = self.finished {
            return Ok(StepOutcome::Finished { exit });
        }
        let mut cycles = 0u64;
        loop {
            let Some(frame) = self.frames.last_mut() else {
                return Err(VmError::new("no active frame"));
            };
            let func = &program.funcs[frame.func as usize];
            let Some(&instr) = func.code.get(frame.pc as usize) else {
                let (pc, name) = (frame.pc, &func.name);
                return Err(VmError::new(format!("pc {pc} out of bounds in `{name}`")));
            };
            frame.pc += 1;
            let (reg_base, mem_base) = (frame.reg_base, frame.mem_base);
            cycles += instr.base_cost();
            self.retired += 1;
            match instr {
                PushI(v) => self.stack.push(Value::I(v)),
                PushF(v) => self.stack.push(Value::F(v)),
                LocalGet(slot) => {
                    if slot >= func.n_regs {
                        return Err(VmError::new("register slot out of range"));
                    }
                    self.stack.push(self.regs[reg_base + slot as usize]);
                }
                LocalSet(slot) => {
                    let v = pop(&mut self.stack)?;
                    if slot >= func.n_regs {
                        return Err(VmError::new("register slot out of range"));
                    }
                    self.regs[reg_base + slot as usize] = v;
                }
                LocalMemAddr(off) => self.stack.push(local_addr(mem_base, off)),
                Load(kind) => {
                    let addr = address(pop(&mut self.stack)?)?;
                    self.pending = Some(Pending::Load);
                    return Ok(StepOutcome::Load { addr, kind, cycles });
                }
                Store(kind, keep) => {
                    let value = pop(&mut self.stack)?;
                    let addr = address(pop(&mut self.stack)?)?;
                    let repush = keep.then_some(value);
                    self.pending = Some(Pending::Store { repush });
                    #[rustfmt::skip]
                    return Ok(StepOutcome::Store { addr, kind, value, cycles });
                }
                Dup => {
                    let Some(&v) = self.stack.last() else {
                        return Err(VmError::new("dup on empty stack"));
                    };
                    self.stack.push(v);
                }
                Pop => {
                    pop(&mut self.stack)?;
                }
                Swap => {
                    let b = pop(&mut self.stack)?;
                    let a = pop(&mut self.stack)?;
                    self.stack.extend([b, a]);
                }
                Rot3 => {
                    let c = pop(&mut self.stack)?;
                    let b = pop(&mut self.stack)?;
                    let a = pop(&mut self.stack)?;
                    self.stack.extend([b, c, a]);
                }
                Add | Sub | Mul | Div | Rem | Shl | Shr | BitAnd | BitOr | BitXor | CmpLt
                | CmpLe | CmpGt | CmpGe | CmpEq | CmpNe => {
                    let r = pop(&mut self.stack)?;
                    let l = pop(&mut self.stack)?;
                    self.stack
                        .push(binary(instr.op(), l, r).ok_or_else(division_by_zero)?);
                }
                Neg | Not | BitNot | I2F | F2I => {
                    let v = pop(&mut self.stack)?;
                    self.stack.push(unary(instr, v));
                }
                Jump(t) => self.frames.last_mut().expect("frame").pc = t,
                JumpIfZero(t) | JumpIfNotZero(t) => {
                    if pop(&mut self.stack)?.is_truthy() == (instr == JumpIfNotZero(t)) {
                        self.frames.last_mut().expect("frame").pc = t;
                    }
                }
                Call(idx, nargs) => self.enter(program, idx, nargs)?,
                CallIntrinsic(intrinsic, nargs) => {
                    let (stack, pending) = (&mut self.stack, &mut self.pending);
                    match call_intrinsic(stack, pending, intrinsic, nargs, cycles)? {
                        Some(syscall) => return Ok(syscall),
                        None => cycles += PURE_INTRINSIC_CYCLES,
                    }
                }
                Ret | RetVoid => {
                    if let Some(exit) = self.leave(instr == Ret)? {
                        return Ok(StepOutcome::Finished { exit });
                    }
                }
                Nop => {}
            }
            if cycles >= SLICE_CYCLES {
                return Ok(StepOutcome::Ran { cycles });
            }
        }
    }

    /// `Call`: moves the top `nargs` values into a fresh register window
    /// at the end of the arena and pushes the callee's frame. The caller's
    /// `pc` must already be written back (it is the return address).
    #[inline(never)]
    fn enter(&mut self, program: &Program, idx: u32, nargs: u8) -> Result<(), VmError> {
        let callee = program
            .funcs
            .get(idx as usize)
            .ok_or_else(|| VmError::new("call target out of range"))?;
        let reg_base = self.regs.len();
        let n_regs = callee.n_regs as usize;
        self.regs.resize(reg_base + n_regs, Value::I(0));
        for i in (0..nargs as usize).rev() {
            let Some(v) = self.stack.pop() else {
                self.regs.truncate(reg_base);
                return Err(underflow(&mut self.stack));
            };
            if i < n_regs {
                self.regs[reg_base + i] = v;
            }
        }
        if self.frames.len() >= MAX_DEPTH
            || self.regs.len() > MAX_REGS
            || self.mem_sp + u64::from(callee.frame_mem) > STACK_SIZE
        {
            self.regs.truncate(reg_base);
            return Err(VmError::new(format!(
                "simulated stack overflow calling `{}`",
                callee.name
            )));
        }
        self.frames.push(Frame {
            func: idx,
            pc: 0,
            reg_base,
            mem_base: self.stack_region_base + self.mem_sp,
            mem_size: callee.frame_mem,
        });
        self.mem_sp += u64::from(callee.frame_mem);
        Ok(())
    }

    /// `Ret`/`RetVoid`: pops the top frame and hands the return value to
    /// the caller's stack, or finishes the VM (`Some(exit)`) when the entry
    /// function returned.
    #[inline(never)]
    fn leave(&mut self, has_value: bool) -> Result<Option<Value>, VmError> {
        let ret = match has_value {
            true => pop(&mut self.stack)?,
            false => Value::I(0),
        };
        let frame = self.frames.pop().expect("frame");
        self.regs.truncate(frame.reg_base);
        self.mem_sp -= u64::from(frame.mem_size);
        if self.frames.is_empty() {
            self.finished = Some(ret);
            return Ok(Some(ret));
        }
        self.stack.push(ret);
        Ok(None)
    }
}

/// Deepest call nesting. Frame memory is handed out in 8-byte units, so no
/// chain of calls with memory-resident locals gets this far inside
/// [`STACK_SIZE`]; the bound is for the chain without any, which would
/// otherwise grow the host's frame and register arenas until the allocator
/// aborts the process.
const MAX_DEPTH: usize = (STACK_SIZE / 8) as usize;
/// Most registers live at once, over all frames: a register is a scalar
/// local, which a real frame would spend at least four bytes of
/// [`STACK_SIZE`] on. It keeps the register arena of a runaway recursion
/// in a function with many scalars to 4 MiB of host memory.
const MAX_REGS: usize = (STACK_SIZE / 4) as usize;
/// A slice of plain instructions ends once it has cost this many cycles.
const SLICE_CYCLES: u64 = 4096;
/// FP unit latency of the sqrt-class intrinsics the VM evaluates itself.
const PURE_INTRINSIC_CYCLES: u64 = 30;

/// The running frame's slots, the instructions they stand on, `pc`,
/// frame-memory base and register window.
fn top_frame<'f, 'r>(
    form: &'f ExecForm<'_>,
    frames: &[Frame],
    regs: &'r mut [Value],
) -> (&'f [Slot], &'f [Instr], usize, u64, &'r mut [Value]) {
    let frame = frames.last().expect("an active frame");
    let n_regs = form.program.funcs[frame.func as usize].n_regs as usize;
    let window = &mut regs[frame.reg_base..][..n_regs];
    let slots = &form.funcs[frame.func as usize];
    let code = &form.program.funcs[frame.func as usize].code[..slots.len()];
    (slots, code, frame.pc as usize, frame.mem_base, window)
}

/// A pop found fewer values than the instruction needs. The instruction
/// consumed what was there, so the stack ends empty.
#[cold]
fn underflow(stack: &mut Vec<Value>) -> VmError {
    stack.clear();
    VmError::new("value stack underflow")
}

fn pop(stack: &mut Vec<Value>) -> Result<Value, VmError> {
    stack.pop().ok_or_else(|| underflow(stack))
}

/// The immediate of a fused form as the value its `PushI` pushes.
#[inline(always)]
fn int(imm: i32) -> Value {
    Value::I(i64::from(imm))
}

fn local_addr(mem_base: u64, off: u32) -> Value {
    Value::I((mem_base + u64::from(off)) as i64)
}

/// The effective address of a load or store. A negative one is a run-time
/// error of the C program (`*(int *)(0 - 8)`), like its division by zero.
#[inline(always)]
fn address(v: Value) -> Result<u64, VmError> {
    let v = v.as_i();
    u64::try_from(v).map_err(|_| VmError::new(format!("negative address {v}")))
}

/// `CallIntrinsic`: pops the arguments; a pure intrinsic is evaluated in
/// place (`None`), anything else suspends on a syscall for the engine.
#[inline(never)]
fn call_intrinsic(
    stack: &mut Vec<Value>,
    pending: &mut Option<Pending>,
    intrinsic: Intrinsic,
    nargs: u8,
    cycles: u64,
) -> Result<Option<StepOutcome>, VmError> {
    let mut args = Vec::with_capacity(nargs as usize);
    for _ in 0..nargs {
        args.push(pop(stack)?);
    }
    args.reverse();
    if !intrinsic.is_pure() {
        *pending = Some(Pending::Syscall);
        #[rustfmt::skip]
        return Ok(Some(StepOutcome::Syscall { intrinsic, args, cycles }));
    }
    // `sqrt()` compiles: the call is the C program's error, not the host's.
    let Some(x) = args.first().map(|x| x.as_f()) else {
        let name = intrinsic.name();
        return Err(VmError::new(format!("`{name}` called without an argument")));
    };
    stack.push(Value::F(match intrinsic {
        Intrinsic::Sqrt => x.sqrt(),
        _ => x.abs(),
    }));
    Ok(None)
}

/// Replaces the top two values `l r` with `op(l, r)`; a fault consumes both.
#[inline(always)]
fn binop(stack: &mut Vec<Value>, op: Op) -> Result<(), VmError> {
    let n = stack.len();
    if n < 2 {
        return Err(underflow(stack));
    }
    let out = binary(op, stack[n - 2], stack[n - 1]);
    stack.truncate(n - 2);
    stack.push(out.ok_or_else(division_by_zero)?);
    Ok(())
}

/// The one fault a binary operator has.
#[cold]
fn division_by_zero() -> VmError {
    VmError::new("integer division by zero")
}

/// `Neg`, `Not`, `BitNot`, `I2F`, `F2I`.
#[inline(always)]
fn unary(instr: Instr, v: Value) -> Value {
    match (instr, v) {
        (Instr::Neg, Value::I(i)) => Value::I(i.wrapping_neg()),
        (Instr::Neg, Value::F(f)) => Value::F(-f),
        (Instr::Not, v) => Value::I(i64::from(!v.is_truthy())),
        (Instr::BitNot, v) => Value::I(!v.as_i()),
        (Instr::I2F, v) => Value::F(v.as_f()),
        (_, v) => Value::I(v.as_i()),
    }
}

/// Every two-operand instruction; `None` is integer division by zero.
/// One arm per operator, each naming it, so that a caller holding the
/// operator as data pays one switch and lands in code folded for it.
#[inline(always)]
fn binary(op: Op, l: Value, r: Value) -> Option<Value> {
    match op {
        Op::Add => arith(Op::Add, l, r),
        Op::Sub => arith(Op::Sub, l, r),
        Op::Mul => arith(Op::Mul, l, r),
        Op::Div => arith(Op::Div, l, r),
        Op::Rem => arith(Op::Rem, l, r),
        Op::Shl => Some(Value::I(l.as_i().wrapping_shl(r.as_i() as u32))),
        Op::Shr => Some(Value::I(l.as_i().wrapping_shr(r.as_i() as u32))),
        Op::BitAnd => Some(Value::I(l.as_i() & r.as_i())),
        Op::BitOr => Some(Value::I(l.as_i() | r.as_i())),
        Op::BitXor => Some(Value::I(l.as_i() ^ r.as_i())),
        Op::CmpLt => Some(compare(Op::CmpLt, l, r)),
        Op::CmpLe => Some(compare(Op::CmpLe, l, r)),
        Op::CmpGt => Some(compare(Op::CmpGt, l, r)),
        Op::CmpGe => Some(compare(Op::CmpGe, l, r)),
        Op::CmpEq => Some(compare(Op::CmpEq, l, r)),
        Op::CmpNe => Some(compare(Op::CmpNe, l, r)),
        _ => unreachable!("{op:?} is not a binary operator"),
    }
}

#[inline(always)]
fn arith(op: Op, l: Value, r: Value) -> Option<Value> {
    // Integer case first: it is what loop counters and indices are.
    let (Value::I(a), Value::I(b)) = (l, r) else {
        let (a, b) = (l.as_f(), r.as_f());
        return Some(Value::F(match op {
            Op::Add => a + b,
            Op::Sub => a - b,
            Op::Mul => a * b,
            Op::Div => a / b,
            _ => a % b,
        }));
    };
    if matches!(op, Op::Div | Op::Rem) && b == 0 {
        return None;
    }
    // Same quotient and remainder through the narrow divide, a much
    // shorter instruction on most hosts, when both operands fit.
    let narrow = u32::try_from(a).ok().zip(u32::try_from(b).ok());
    Some(Value::I(match (op, narrow) {
        (Op::Add, _) => a.wrapping_add(b),
        (Op::Sub, _) => a.wrapping_sub(b),
        (Op::Mul, _) => a.wrapping_mul(b),
        (Op::Div, Some((a, b))) => i64::from(a / b),
        (Op::Div, None) => a.wrapping_div(b),
        (_, Some((a, b))) => i64::from(a % b),
        (_, None) => a.wrapping_rem(b),
    }))
}

#[inline(always)]
fn compare(op: Op, l: Value, r: Value) -> Value {
    #[inline(always)]
    fn holds<T: PartialOrd>(op: Op, a: T, b: T) -> bool {
        match op {
            Op::CmpLt => a < b,
            Op::CmpLe => a <= b,
            Op::CmpGt => a > b,
            Op::CmpGe => a >= b,
            Op::CmpEq => a == b,
            _ => a != b,
        }
    }
    Value::I(i64::from(match (l, r) {
        (Value::I(a), Value::I(b)) => holds(op, a, b),
        _ => holds(op, l.as_f(), r.as_f()),
    }))
}

/// The narrowed per-unit interface an execution engine drives: construct a
/// context, advance it to the next event, and answer the three pending
/// event kinds (load, store, syscall).
///
/// Engines that interleave many contexts (one per thread or per core)
/// should hold `UnitVm`s rather than [`Vm`]s: the wrapper exposes exactly
/// the resume surface the scheduling loop needs, so introspection methods
/// like [`Vm::depth`] cannot leak into scheduling decisions.
#[derive(Debug, Clone)]
pub struct UnitVm(Vm);

impl UnitVm {
    /// Creates a context poised at `func` with `args`, using the private
    /// stack region starting at `stack_region_base`.
    pub fn new(program: &Program, func: u32, args: Vec<Value>, stack_region_base: u64) -> Self {
        UnitVm(Vm::new(program, func, args, stack_region_base))
    }

    /// Runs until something needs the engine (memory access, syscall, or
    /// completion). See [`Vm::run_until_event`].
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on stack underflow or malformed bytecode.
    pub fn run_until_event(&mut self, form: &ExecForm<'_>) -> Result<StepOutcome, VmError> {
        self.0.run_until_event(form)
    }

    /// Completes a pending load with the value the memory model resolved.
    ///
    /// # Panics
    ///
    /// Panics if no load is pending.
    pub fn provide_load(&mut self, v: Value) {
        self.0.provide_load(v);
    }

    /// Completes a pending store.
    ///
    /// # Panics
    ///
    /// Panics if no store is pending.
    pub fn store_done(&mut self) {
        self.0.store_done();
    }

    /// Completes a pending syscall, pushing its return value.
    ///
    /// # Panics
    ///
    /// Panics if no syscall is pending.
    pub fn syscall_return(&mut self, v: Value) {
        self.0.syscall_return(v);
    }

    /// Total bytecode instructions retired. See
    /// [`Vm::instructions_retired`].
    pub fn instructions_retired(&self) -> u64 {
        self.0.instructions_retired()
    }

    /// Whether [`run_until_event`](UnitVm::run_until_event) has anything
    /// left to run: no load, store or syscall awaits its answer and the
    /// entry function has not returned.
    pub fn is_ready(&self) -> bool {
        self.0.pending.is_none() && self.0.finished.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, STACKS_BASE};
    use crate::data::ByteMemory;
    use hsm_cir::parse;

    /// A tiny single-threaded harness: resolves loads/stores against one
    /// ByteMemory, fails on syscalls. Returns (exit value, total cycles).
    fn run(src: &str) -> (Value, u64) {
        run_with_mem(src, &mut ByteMemory::new())
    }

    fn run_with_mem(src: &str, mem: &mut ByteMemory) -> (Value, u64) {
        let program = compile(&parse(src).expect("parse")).expect("compile");
        for (addr, bytes) in &program.image {
            mem.write_bytes(*addr, bytes);
        }
        let form = ExecForm::new(&program);
        let mut vm = Vm::new(&program, program.entry, vec![], STACKS_BASE);
        let mut cycles = 0u64;
        loop {
            match vm.run_until_event(&form).expect("vm") {
                StepOutcome::Ran { cycles: c } => cycles += c,
                StepOutcome::Load {
                    addr,
                    kind,
                    cycles: c,
                } => {
                    cycles += c + 1;
                    vm.provide_load(mem.load(addr, kind));
                }
                StepOutcome::Store {
                    addr,
                    kind,
                    value,
                    cycles: c,
                } => {
                    cycles += c + 1;
                    mem.store(addr, kind, value);
                    vm.store_done();
                }
                StepOutcome::Syscall { intrinsic, .. } => {
                    panic!("unexpected syscall {intrinsic:?}");
                }
                StepOutcome::Finished { exit } => return (exit, cycles),
            }
        }
    }

    #[test]
    fn returns_constant() {
        assert_eq!(run("int main() { return 42; }").0, Value::I(42));
    }

    #[test]
    fn arithmetic_matches_c() {
        assert_eq!(run("int main() { return 7 / 2; }").0, Value::I(3));
        assert_eq!(run("int main() { return 7 % 3; }").0, Value::I(1));
        assert_eq!(run("int main() { return 2 + 3 * 4; }").0, Value::I(14));
        assert_eq!(run("int main() { return (2 + 3) * 4; }").0, Value::I(20));
        assert_eq!(run("int main() { return 1 << 5; }").0, Value::I(32));
        assert_eq!(run("int main() { return -5 + 3; }").0, Value::I(-2));
    }

    #[test]
    fn float_arithmetic() {
        let (v, _) =
            run("int main() { double x = 4.0; double y = x / 8.0; return (int)(y * 100.0); }");
        assert_eq!(v, Value::I(50));
    }

    #[test]
    fn mixed_int_float_promotes() {
        let (v, _) = run("int main() { int n = 8; double x = 4.0 / n; return (int)(x * 10.0); }");
        assert_eq!(v, Value::I(5));
    }

    #[test]
    fn locals_and_loops() {
        let (v, _) =
            run("int main() { int s = 0; int i; for (i = 1; i <= 10; i++) s += i; return s; }");
        assert_eq!(v, Value::I(55));
    }

    #[test]
    fn while_and_break_continue() {
        let (v, _) = run(
            "int main() { int s = 0; int i = 0; while (1) { i++; if (i > 10) break; if (i % 2) continue; s += i; } return s; }",
        );
        assert_eq!(v, Value::I(30)); // 2+4+6+8+10
    }

    #[test]
    fn do_while_runs_once() {
        let (v, _) = run("int main() { int i = 99; do { i = 7; } while (0); return i; }");
        assert_eq!(v, Value::I(7));
    }

    #[test]
    fn global_arrays_and_pointers() {
        let (v, _) = run(
            "int sum[3] = {0}; int *ptr; int main() { int tmp = 5; ptr = &tmp; sum[1] = *ptr + 2; return sum[1]; }",
        );
        assert_eq!(v, Value::I(7));
    }

    #[test]
    fn global_initializer_image_applies() {
        let (v, _) = run("int c[3] = {10, 20, 30}; int main() { return c[0] + c[1] + c[2]; }");
        assert_eq!(v, Value::I(60));
    }

    #[test]
    fn function_calls_and_recursion() {
        let (v, _) = run(
            "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); } int main() { return fib(10); }",
        );
        assert_eq!(v, Value::I(55));
    }

    #[test]
    fn pointer_walk() {
        let (v, _) = run(
            "double a[4]; int main() { int i; for (i = 0; i < 4; i++) a[i] = i * 1.5; double *p = a; double s = 0.0; for (i = 0; i < 4; i++) { s += *p; p = p + 1; } return (int)(s * 10.0); }",
        );
        assert_eq!(v, Value::I(90)); // (0+1.5+3+4.5)*10
    }

    #[test]
    fn post_and_pre_increment_values() {
        assert_eq!(
            run("int main() { int i = 5; int j = i++; return j * 100 + i; }").0,
            Value::I(506)
        );
        assert_eq!(
            run("int main() { int i = 5; int j = ++i; return j * 100 + i; }").0,
            Value::I(606)
        );
        // Memory-resident (array element) post-increment.
        assert_eq!(
            run("int a[2] = {3, 0}; int main() { a[1] = a[0]++; return a[1] * 10 + a[0]; }").0,
            Value::I(34)
        );
    }

    #[test]
    fn compound_assignment_on_memory() {
        let (v, _) = run("int g; int main() { g = 10; g += 5; g *= 2; g -= 3; g /= 2; return g; }");
        assert_eq!(v, Value::I(13)); // ((10+5)*2-3)/2 = 27/2 = 13
    }

    #[test]
    fn ternary_and_logical() {
        assert_eq!(
            run("int main() { int a = 5; return a > 3 ? 1 : 2; }").0,
            Value::I(1)
        );
        assert_eq!(
            run("int main() { int a = 0; return a && 1; }").0,
            Value::I(0)
        );
        assert_eq!(
            run("int main() { int a = 0; return a || 2; }").0,
            Value::I(1)
        );
    }

    #[test]
    fn short_circuit_skips_side_effects() {
        let (v, _) = run(
            "int g = 0; int bump() { g = g + 1; return 1; } int main() { int a = 0; int r = a && bump(); return g * 10 + r; }",
        );
        assert_eq!(v, Value::I(0), "bump must not run");
    }

    #[test]
    fn sqrt_is_inline() {
        let (v, _) = run("int main() { double x = sqrt(16.0); return (int)x; }");
        assert_eq!(v, Value::I(4));
    }

    #[test]
    fn division_by_zero_is_a_fault() {
        let program = compile(&parse("int main() { int z = 0; return 5 / z; }").unwrap()).unwrap();
        let form = ExecForm::new(&program);
        let mut vm = Vm::new(&program, program.entry, vec![], STACKS_BASE);
        let err = loop {
            match vm.run_until_event(&form) {
                Ok(StepOutcome::Finished { .. }) => panic!("should fault"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("division by zero"));
    }

    #[test]
    fn cycles_accumulate_and_loops_cost_more() {
        let (_, short) =
            run("int main() { int s = 0; int i; for (i = 0; i < 10; i++) s += i; return s; }");
        let (_, long) =
            run("int main() { int s = 0; int i; for (i = 0; i < 1000; i++) s += i; return s; }");
        assert!(long > short * 20, "long {long} short {short}");
    }

    #[test]
    fn deep_recursion_overflows_gracefully() {
        let src = "int f(int n) { int big[20000]; big[0] = n; if (n == 0) return 0; return f(n - 1) + big[0]; } int main() { return f(100); }";
        let program = compile(&parse(src).unwrap()).unwrap();
        let form = ExecForm::new(&program);
        let mut vm = Vm::new(&program, program.entry, vec![], STACKS_BASE);
        let mut mem = ByteMemory::new();
        let err = loop {
            match vm.run_until_event(&form) {
                Ok(StepOutcome::Finished { .. }) => panic!("should overflow"),
                Ok(StepOutcome::Load { addr, kind, .. }) => vm.provide_load(mem.load(addr, kind)),
                Ok(StepOutcome::Store {
                    addr, kind, value, ..
                }) => {
                    mem.store(addr, kind, value);
                    vm.store_done();
                }
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("stack overflow"), "{err}");
    }

    /// One register-only function as a whole program.
    fn program_of(code: Vec<Instr>, n_regs: u16) -> Program {
        Program {
            funcs: vec![crate::compile::Function {
                name: "f".to_string(),
                code,
                n_regs,
                n_params: 0,
                frame_mem: 0,
                ret: hsm_cir::CType::Int,
                frame_vars: Vec::new(),
            }],
            globals: Vec::new(),
            strings: Vec::new(),
            image: Vec::new(),
            entry: 0,
        }
    }

    /// Runs `program`, whose dynamic instruction stream is `stream`, on
    /// both interpreters and holds every `Ran` slice against the stream.
    fn check_slices(program: &Program, stream: &[Instr], expected_exit: i64) {
        let largest = Instr::Div.base_cost();
        let form = ExecForm::new(program);
        let slices_of = |production: bool| {
            let mut vm = Vm::new(program, 0, vec![], STACKS_BASE);
            let mut slices = Vec::new();
            loop {
                let before = vm.instructions_retired() as usize;
                let outcome = if production {
                    vm.run_until_event(&form)
                } else {
                    vm.run_until_event_matched(program)
                };
                let after = vm.instructions_retired() as usize;
                match outcome.expect("no faults") {
                    StepOutcome::Ran { cycles } => {
                        assert!(
                            (SLICE_CYCLES..SLICE_CYCLES + largest).contains(&cycles),
                            "slice of {cycles} cycles"
                        );
                        let billed: u64 = stream[before..after].iter().map(|i| i.base_cost()).sum();
                        assert_eq!(cycles, billed, "instructions {before}..{after}");
                        // The slice ends at the first instruction to reach
                        // the valve, not after the form it is part of.
                        let last = stream[after - 1].base_cost();
                        assert!(cycles - last < SLICE_CYCLES, "slice ran past the valve");
                        slices.push((before, after, cycles));
                    }
                    // `Finished` carries no cycles: the partial slice that
                    // ends the run is dropped, today and after this test.
                    StepOutcome::Finished { exit } => {
                        assert_eq!(exit, Value::I(expected_exit));
                        assert_eq!(after, stream.len(), "every instruction retired once");
                        return slices;
                    }
                    other => panic!("a register-only loop produced {other:?}"),
                }
            }
        };
        let production = slices_of(true);
        assert!(production.len() > 20, "{} slices", production.len());
        assert_eq!(production, slices_of(false), "reference arm slices");
    }

    /// The slice boundary is a contract: where a `Ran` slice ends decides
    /// pthread quantum expiry and RCCE event order, hence simulated cycles.
    /// A fused form has to keep exactly this: it commits only when none of
    /// the instructions it covers reaches the valve.
    #[test]
    fn ran_slices_end_at_the_first_instruction_past_the_valve() {
        use Instr::*;
        // r0 = i, r1 = acc: `for (i = 0; i < 3000; i++) acc += i % 7;`
        const ITERATIONS: i64 = 3000;
        let head = [LocalGet(0), PushI(ITERATIONS), CmpLt, JumpIfZero(17)];
        let body = [
            LocalGet(0),
            PushI(7),
            Rem,
            LocalGet(1),
            Add,
            LocalSet(1),
            LocalGet(0),
            PushI(1),
            Add,
            LocalSet(0),
            Jump(2),
        ];
        let tail = [LocalGet(1), Ret];
        let prologue = [PushI(0), LocalSet(0)];
        let code: Vec<Instr> = [&prologue[..], &head, &body, &tail].concat();
        assert_eq!(code[17], LocalGet(1), "the exit branch targets the tail");
        // The dynamic instruction stream, known without running anything.
        let mut stream = prologue.to_vec();
        for _ in 0..ITERATIONS {
            stream.extend(head);
            stream.extend(body);
        }
        stream.extend(head);
        stream.extend(tail);
        let expected: i64 = (0..ITERATIONS).map(|i| i % 7).sum();
        check_slices(&program_of(code, 2), &stream, expected);
    }

    /// The same contract on a loop in which every dispatch is a fused form
    /// (the back edge included) and the valve lands inside one almost every
    /// time: `do { t = i * i; t = t % 7; acc = acc + t; i = i + 1; } while
    /// (i < 3000);` costs 46 cycles a turn, and 4096 is not a multiple.
    #[test]
    fn ran_slices_end_inside_fused_forms_where_the_plain_loop_ends_them() {
        use Instr::*;
        const ITERATIONS: i64 = 3000;
        let prologue = [PushI(0), LocalSet(0)];
        #[rustfmt::skip]
        let body = [
            LocalGet(0), LocalGet(0), Mul, LocalSet(2),
            LocalGet(2), PushI(7), Rem, LocalSet(2),
            LocalGet(1), LocalGet(2), Add, LocalSet(1),
            LocalGet(0), PushI(1), Add, LocalSet(0),
            LocalGet(0), PushI(ITERATIONS), CmpLt, JumpIfNotZero(2),
        ];
        let tail = [LocalGet(1), Ret];
        let code: Vec<Instr> = [&prologue[..], &body, &tail].concat();
        let program = program_of(code, 3);
        let form = ExecForm::new(&program);
        for p in (2..22).step_by(4) {
            assert_eq!(
                form.funcs[0][p].covers(),
                4,
                "slot {p}: {:?}",
                form.funcs[0][p]
            );
        }
        let mut stream = prologue.to_vec();
        for _ in 0..ITERATIONS {
            stream.extend(body);
        }
        stream.extend(tail);
        let expected: i64 = (0..ITERATIONS).map(|i| (i * i) % 7).sum();
        check_slices(&program, &stream, expected);
    }

    /// Every fused form does what the plain instructions it covers do —
    /// same outcomes, same fault, same state after each — entered at every
    /// slot it spans, over operands that commit, fault (zero divisors) and
    /// underflow (shallow stacks), and with the slice valve landing on each
    /// of its instructions in turn.
    #[test]
    fn every_form_from_every_slot_equals_the_instructions_it_covers() {
        use Instr::*;
        const OPERATORS: [Instr; 16] = [
            Add, Sub, Mul, Div, Rem, Shl, Shr, BitAnd, BitOr, BitXor, CmpLt, CmpLe, CmpGt, CmpGe,
            CmpEq, CmpNe,
        ];
        // r0 = 0, r1 = 7, r2 = -3, r3 = 2.5; r4 is the `LocalSet` target;
        // r5 = 2^53 + 1, the least integer a double cannot hold.
        let regs = [
            Value::I(0),
            Value::I(7),
            Value::I(-3),
            Value::F(2.5),
            Value::I(99),
            Value::I((1 << 53) + 1),
        ];
        let stacks: [&[Value]; 5] = [
            &[],
            &[Value::I(5)],
            &[Value::I(0), Value::I(12)],
            &[Value::F(1.5), Value::I(0)],
            &[Value::I(3), Value::I(4), Value::I(-9)],
        ];
        // `RCF` over an integer, one that promotion rounds, and a double.
        let sources: [(&str, &[Instr]); 11] = [
            ("RR", &[LocalGet(1), LocalGet(2)]),
            ("RR", &[LocalGet(3), LocalGet(0)]),
            ("RI", &[LocalGet(1), PushI(3)]),
            ("RI", &[LocalGet(2), PushI(0)]),
            ("SI", &[PushI(4)]),
            ("SI", &[PushI(0)]),
            ("SR", &[LocalGet(1)]),
            ("SR", &[LocalGet(0)]),
            ("RCF", &[LocalGet(2), PushF(0.5), Swap, I2F, Swap]),
            ("RCF", &[LocalGet(5), PushF(1.0), Swap, I2F, Swap]),
            ("RCF", &[LocalGet(3), PushF(-2.0), Swap, I2F, Swap]),
        ];
        // (form, code, whether to sweep the valve over it: one operator of
        // each cost is enough there).
        let mut samples: Vec<(String, Vec<Instr>, bool)> = vec![(
            "ImmLoad".into(),
            vec![PushI(4096), Load(MemKind::I32)],
            true,
        )];
        for op in OPERATORS {
            let sweep = matches!(op, Add | Mul | Rem);
            for (src, operands) in sources {
                // Each sink jumps, if it does, over a `PushI(1)` that ends
                // its code, to the `LocalGet(4); Ret` after it.
                let n = operands.len() as u32 + 1;
                let zbr = |cmp, jump: fn(u32) -> Instr| vec![PushI(0), cmp, jump(n + 4), PushI(1)];
                let sinks: [(&str, Vec<Instr>); 10] = [
                    ("Push", vec![]),
                    ("Set", vec![LocalSet(4)]),
                    ("SetJ", vec![LocalSet(4), Jump(n + 3), PushI(1)]),
                    ("Br", vec![JumpIfZero(n + 2), PushI(1)]),
                    ("Br", vec![JumpIfNotZero(n + 2), PushI(1)]),
                    ("ZBr", zbr(CmpEq, JumpIfZero)),
                    ("ZBr", zbr(CmpEq, JumpIfNotZero)),
                    ("ZBr", zbr(CmpNe, JumpIfZero)),
                    ("ZBr", zbr(CmpNe, JumpIfNotZero)),
                    ("Then", vec![if op == Div { Rem } else { Div }]),
                ];
                for (sink, after) in sinks {
                    // `RCF` has no jumping sink: it stops short of the jump.
                    let sink = match (src, sink) {
                        ("RCF", "SetJ") => "Set",
                        ("RCF", "Br" | "ZBr") => "Push",
                        _ => sink,
                    };
                    let code = [operands, &[op], &after[..]].concat();
                    samples.push((format!("{src}{sink}"), code, sweep));
                }
            }
        }
        // 4027 cycles, then a Nop a cycle: the form starts anywhere from
        // 69 cycles short of the valve (the dearest form, `RCFThen` with
        // two divisions, costs 53) to past it.
        let burn = [&[PushI(1)][..], &[PushI(1), Div].repeat(161), &[Pop]].concat();
        let both = |program: &Program, poised: &dyn Fn() -> Vm, context: &str| {
            let form = ExecForm::new(program);
            let (mut production, mut reference) = (poised(), poised());
            loop {
                let fused = production.run_until_event(&form);
                let plain = reference.run_until_event_matched(program);
                // By rendering: NaN is a legitimate result.
                assert_eq!(format!("{fused:?}"), format!("{plain:?}"), "{context}");
                assert_eq!(
                    format!("{production:?}"),
                    format!("{reference:?}"),
                    "{context}"
                );
                match fused {
                    Ok(StepOutcome::Load { .. }) => {
                        production.provide_load(Value::I(6));
                        reference.provide_load(Value::I(6));
                    }
                    Ok(StepOutcome::Ran { .. }) => {}
                    _ => return,
                }
            }
        };
        let mut built = std::collections::BTreeSet::new();
        for (name, mut code, sweep) in samples {
            code.extend([LocalGet(4), Ret]);
            for pad in (0..=72).take_while(|_| sweep) {
                let shift = (burn.len() + pad) as u32;
                let moved = code.iter().map(|&instr| match instr {
                    Jump(t) => Jump(t + shift),
                    JumpIfZero(t) => JumpIfZero(t + shift),
                    JumpIfNotZero(t) => JumpIfNotZero(t + shift),
                    other => other,
                });
                let padded = burn.iter().copied().chain([Nop].repeat(pad)).chain(moved);
                let program = program_of(padded.collect(), regs.len() as u16);
                let poised = || {
                    let mut vm = Vm::new(&program, 0, vec![], STACKS_BASE);
                    vm.regs.copy_from_slice(&regs);
                    vm.stack.extend_from_slice(stacks[4]);
                    vm
                };
                both(&program, &poised, &format!("{code:?} after {pad} Nops"));
            }
            let program = program_of(code, regs.len() as u16);
            let form = ExecForm::new(&program);
            let head = format!("{:?}", form.funcs[0][0]);
            assert!(
                head.starts_with(&format!("{name} {{")) || head.starts_with(&format!("{name}(")),
                "{head} is not {name}"
            );
            built.insert(name);
            for entry in 0..form.funcs[0][0].covers() {
                for stack in stacks {
                    let poised = || {
                        let mut vm = Vm::new(&program, 0, vec![], STACKS_BASE);
                        vm.frames[0].pc = entry as u32;
                        vm.regs.copy_from_slice(&regs);
                        vm.stack.extend_from_slice(stack);
                        vm
                    };
                    let context = format!("{:?} from {entry} on {stack:?}", program.funcs[0].code);
                    both(&program, &poised, &context);
                }
            }
        }
        assert_eq!(built.len(), 28, "{built:?}");
    }

    /// `frame_mem` is zero when no local lives in memory, and then nothing
    /// the simulated stack pointer does stops a runaway recursion: the
    /// bounds on call depth and live registers do, with both host arenas
    /// still small.
    #[test]
    fn recursion_without_frame_memory_overflows_the_simulated_stack() {
        let locals: String = (1..64)
            .map(|i| format!("int a{i} = a{} + 1; ", i - 1))
            .collect();
        let wide = format!(
            "int f(int a0) {{ {locals}return f(a63) + a1; }} int main() {{ return f(0); }}"
        );
        for (src, deepest) in [
            ("int main() { return main(); }", MAX_DEPTH),
            (
                "int f(int n) { return f(n + 1) + n; } int main() { return f(0); }",
                MAX_DEPTH,
            ),
            (wide.as_str(), MAX_REGS / 64 + 1),
        ] {
            let program = compile(&parse(src).unwrap()).unwrap();
            assert!(program.funcs.iter().all(|f| f.frame_mem == 0));
            let form = ExecForm::new(&program);
            let mut vm = Vm::new(&program, program.entry, vec![], STACKS_BASE);
            let err = loop {
                match vm.run_until_event(&form) {
                    Ok(StepOutcome::Ran { .. }) => assert!(vm.depth() <= deepest),
                    Ok(other) => panic!("{other:?}"),
                    Err(e) => break e,
                }
            };
            assert!(
                err.message
                    .starts_with("simulated stack overflow calling `"),
                "{err}"
            );
            assert_eq!(vm.depth(), deepest);
            assert!(vm.frames.capacity() <= 2 * MAX_DEPTH);
            assert!(vm.regs.len() <= MAX_REGS && vm.regs.capacity() <= 2 * MAX_REGS + 128);
        }
    }

    #[test]
    fn a_pure_intrinsic_without_an_argument_is_a_fault() {
        for (src, name) in [
            ("int main() { double x = sqrt(); return (int)x; }", "sqrt"),
            ("int main() { double x = fabs(); return (int)x; }", "fabs"),
        ] {
            let program = compile(&parse(src).unwrap()).unwrap();
            let form = ExecForm::new(&program);
            let mut vm = Vm::new(&program, program.entry, vec![], STACKS_BASE);
            let err = vm
                .run_until_event(&form)
                .expect_err("no argument to evaluate");
            assert_eq!(err.message, format!("`{name}` called without an argument"));
        }
    }

    #[test]
    fn char_and_string_access() {
        let (v, _) = run(r#"int main() { char *s = "AB"; return s[0] + s[1]; }"#);
        assert_eq!(v, Value::I(65 + 66));
    }

    #[test]
    fn multi_function_programs_share_globals() {
        let (v, _) = run(
            "int acc; void add(int x) { acc += x; } int main() { acc = 0; add(3); add(4); return acc; }",
        );
        assert_eq!(v, Value::I(7));
    }

    #[test]
    fn switch_dispatches_to_matching_case() {
        let src = "int classify(int x) { switch (x) { case 0: return 10; case 5: return 50; default: return 99; } } int main() { return classify(5); }";
        assert_eq!(run(src).0, Value::I(50));
        let src0 = "int classify(int x) { switch (x) { case 0: return 10; case 5: return 50; default: return 99; } } int main() { return classify(0); }";
        assert_eq!(run(src0).0, Value::I(10));
        let srcd = "int classify(int x) { switch (x) { case 0: return 10; case 5: return 50; default: return 99; } } int main() { return classify(7); }";
        assert_eq!(run(srcd).0, Value::I(99));
    }

    #[test]
    fn switch_falls_through_without_break() {
        let (v, _) = run(
            "int main() { int x = 1; int acc = 0; switch (x) { case 1: acc += 1; case 2: acc += 2; case 3: acc += 4; break; case 4: acc += 8; } return acc; }",
        );
        assert_eq!(v, Value::I(7), "1 falls through 2 and 3, breaks before 4");
    }

    #[test]
    fn switch_without_default_skips_entirely() {
        let (v, _) =
            run("int main() { int acc = 5; switch (42) { case 1: acc = 0; break; } return acc; }");
        assert_eq!(v, Value::I(5));
    }

    #[test]
    fn switch_inside_loop_continue_targets_loop() {
        let (v, _) = run(
            "int main() { int s = 0; int i; for (i = 0; i < 6; i++) { switch (i % 3) { case 0: continue; case 1: s += 10; break; default: s += 1; } } return s; }",
        );
        // i: 0 skip, 1 +10, 2 +1, 3 skip, 4 +10, 5 +1 = 22
        assert_eq!(v, Value::I(22));
    }

    #[test]
    fn nested_switches() {
        let (v, _) = run(
            "int main() { int a = 1; int b = 2; int r = 0; switch (a) { case 1: switch (b) { case 2: r = 22; break; default: r = 20; } break; default: r = 9; } return r; }",
        );
        assert_eq!(v, Value::I(22));
    }
}
