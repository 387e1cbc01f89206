//! The execution form: what [`crate::vm::Vm::run_until_event`] dispatches
//! over.
//!
//! The compiler's bytecode moves every operand through the value stack
//! under a dispatch of its own: `LocalGet a; LocalGet b; CmpLt;
//! JumpIfZero t` is four fetches, two pushes and three pops to compare two
//! registers. An [`ExecForm`] holds, per function, an array parallel to
//! [`Function::code`](crate::compile::Function::code) whose slot *p* says
//! either "instruction *p* as compiled" (the loop reads it from `code`: the
//! slot carries nothing, which keeps slots at 16 bytes) or is a *fused
//! form* of the instructions starting at *p*: the operator with its operands named in place
//! (registers, a 32-bit immediate, the stack top) and its result sent where
//! the next instruction would have taken it (the stack, a register, a
//! conditional branch, a second operator).
//!
//! The array is **position-stable**: every slot is a valid entry point, so
//! a jump into the middle of a pattern lands on a slot that covers the
//! pattern's tail, and nothing has to be fenced or renumbered. A fused
//! form is also only a *shortcut*: the dispatch loop performs it whole or
//! performs just the instruction it stands on and lets the following slots
//! carry on (see the commit rule on `Vm::run_until_event`), which is what
//! keeps cycles, slice boundaries, fault messages and the stack a fault
//! leaves behind those of the plain bytecode.
//!
//! It is built once per run from the `&Program` the run was handed and
//! borrows it, so the program cannot change under it; it is never stored,
//! serialized or cached, and no optimizer pass sees it.

use crate::compile::Program;
use crate::instr::{Instr, Op};
use crate::value::MemKind;
use std::fmt::Write;

/// The operator forms, one row each: the form, where its operator finds
/// its operands and where the result goes, each with the fields it adds to
/// the variant. [`Slot`], [`Slot::covers`], the choice in [`fuse`] and the
/// dispatch arms of `Vm::run_until_event` are all generated from these
/// rows: `$with` is the macro they are handed to, after `$arg;` if one is
/// given.
///
/// Sources: `RR` two registers (`LocalGet a; LocalGet b; op`), `RI`
/// register and immediate (`LocalGet a; PushI imm; op`), `SI` stack top and
/// immediate (`PushI imm; op`), `SR` stack top and register (`LocalGet b;
/// op`). Sinks: `Push` (nothing follows), `Set` (`LocalSet c`), `Br`
/// (`JumpIfZero t` / `JumpIfNotZero t`: taken when the value's truth equals
/// `when`), `Then` (a second operator against the value under the
/// operands).
macro_rules! operator_forms {
    ($with:ident $($arg:ident)?) => {
        $with! {
            $($arg;)?
            RRPush: RR(a, b) Push();
            RRSet: RR(a, b) Set(c);
            RRBr: RR(a, b) Br(t, when);
            RRThen: RR(a, b) Then(op2);
            RIPush: RI(a, imm) Push();
            RISet: RI(a, imm) Set(c);
            RIBr: RI(a, imm) Br(t, when);
            RIThen: RI(a, imm) Then(op2);
            SIPush: SI(imm) Push();
            SISet: SI(imm) Set(c);
            SIBr: SI(imm) Br(t, when);
            SIThen: SI(imm) Then(op2);
            SRPush: SR(b) Push();
            SRSet: SR(b) Set(c);
            SRBr: SR(b) Br(t, when);
            SRThen: SR(b) Then(op2);
        }
    };
}
pub(crate) use operator_forms;

/// The type of a form's field, by its name in [`operator_forms`].
#[rustfmt::skip]
macro_rules! field {
    (a) => { u16 };
    (b) => { u16 };
    (c) => { u16 };
    (imm) => { i32 };
    (t) => { u32 };
    (when) => { bool };
    (op2) => { Op };
}

/// How many instructions a sink adds to a form.
#[rustfmt::skip]
macro_rules! sink_len {
    (Push) => { 0 };
    ($sink:ident) => { 1 };
}
pub(crate) use sink_len;

macro_rules! slot {
    ($($form:ident: $src:ident($($s:ident),*) $sink:ident($($k:ident),*);)*) => {
        /// One dispatch slot, 16 bytes like [`Instr`]: `Plain` (the
        /// instruction at this index of `Function::code`, as compiled), an
        /// operator form of [`operator_forms`] (`op` the operator, `rest`
        /// the cycle cost of every covered instruction but the first,
        /// which costs one), or `PushI addr; Load kind` as one load event.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub(crate) enum Slot {
            Plain,
            $($form { op: Op, $($s: field!($s),)* $($k: field!($k),)* rest: u8 },)*
            ImmLoad(u64, MemKind),
        }

        impl Slot {
            /// How many instructions the slot stands for: one per operand
            /// its source names, the operator, and the sink's if it has one.
            pub(crate) fn covers(self) -> usize {
                match self {
                    Slot::Plain => 1,
                    $(Slot::$form { .. } => [$(stringify!($s)),*].len() + 1 + sink_len!($sink),)*
                    Slot::ImmLoad(..) => 2,
                }
            }
        }
    };
}
operator_forms!(slot);
const _: () = assert!(std::mem::size_of::<Slot>() == 16);

#[rustfmt::skip]
fn is_binary(op: Op) -> bool {
    use Op::*;
    matches!(
        op,
        Add | Sub | Mul | Div | Rem | Shl | Shr | BitAnd | BitOr | BitXor
            | CmpLt | CmpLe | CmpGt | CmpGe | CmpEq | CmpNe
    )
}

/// Where a fused operator finds its operands / sends its result.
enum Src {
    RR(u16, u16),
    RI(u16, i32),
    SI(i32),
    SR(u16),
}
enum Sink {
    Push(),
    Set(u16),
    Br(u32, bool),
    Then(Op),
}

/// The fused form of the instructions starting at `code[0]`, if they make
/// one. A pattern whose register slots are not below `n_regs`, or whose
/// immediate does not fit 32 bits, is left to the plain instructions and
/// their faults.
fn fuse(code: &[Instr], n_regs: u16) -> Option<Slot> {
    use Instr::*;
    let at = |i: usize| code.get(i).copied().unwrap_or(Nop);
    let reg = |slot: u16| slot < n_regs;
    let operator = |i: usize| Some(at(i).op()).filter(|&op| is_binary(op));
    let narrow = |imm: i64| i32::try_from(imm).ok();
    // The dispatch loop bills the instruction a form stands on, and the
    // `Load` of an `ImmLoad`, as the one cycle each costs.
    debug_assert!([PushI(0), LocalGet(0), Load(MemKind::I32)]
        .iter()
        .all(|i| i.base_cost() == 1));
    let (src, at_op) = match (at(0), at(1)) {
        (PushI(addr), Load(kind)) => return Some(Slot::ImmLoad(u64::try_from(addr).ok()?, kind)),
        (LocalGet(a), LocalGet(b)) if reg(a) && reg(b) => (Src::RR(a, b), 2),
        (LocalGet(a), PushI(imm)) if reg(a) => (Src::RI(a, narrow(imm)?), 2),
        (PushI(imm), _) => (Src::SI(narrow(imm)?), 1),
        (LocalGet(b), _) if reg(b) => (Src::SR(b), 1),
        _ => return None,
    };
    let op = operator(at_op)?;
    let sink = match at(at_op + 1) {
        LocalSet(c) if reg(c) => Sink::Set(c),
        JumpIfZero(t) => Sink::Br(t, false),
        JumpIfNotZero(t) => Sink::Br(t, true),
        _ => operator(at_op + 1).map_or(Sink::Push(), Sink::Then),
    };
    let covered = at_op + 1 + usize::from(!matches!(sink, Sink::Push()));
    let rest = code[1..covered].iter().map(|i| i.base_cost()).sum::<u64>() as u8;
    macro_rules! form {
        ($($form:ident: $src:ident($($s:ident),*) $sink:ident($($k:ident),*);)*) => {
            match (src, sink) {
                $((Src::$src($($s),*), Sink::$sink($($k),*)) => {
                    Slot::$form { op, $($s,)* $($k,)* rest }
                })*
            }
        };
    }
    let slot = operator_forms!(form);
    debug_assert_eq!(slot.covers(), covered);
    Some(slot)
}

/// A [`Program`] in the form the VM executes. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ExecForm<'p> {
    pub(crate) program: &'p Program,
    /// `funcs[f][p]` stands for the instructions starting at
    /// `program.funcs[f].code[p]`.
    pub(crate) funcs: Vec<Vec<Slot>>,
}

impl<'p> ExecForm<'p> {
    /// Builds the execution form of `program`: one pass, a fixed look-ahead
    /// of four instructions per slot.
    pub fn new(program: &'p Program) -> Self {
        let funcs = program
            .funcs
            .iter()
            .map(|f| {
                (0..f.code.len())
                    .map(|p| fuse(&f.code[p..], f.n_regs).unwrap_or(Slot::Plain))
                    .collect()
            })
            .collect();
        ExecForm { program, funcs }
    }

    /// Lists function `func` one slot per line — index, `*` when dispatch
    /// can arrive there from slot 0, the fused form's name if it is one,
    /// the instructions the slot covers — and ends with "N instructions ->
    /// M dispatch slots reachable from slot 0", first for each innermost
    /// loop (`loop first..=last:`, followed by the fused forms among its
    /// slots), then for the function.
    ///
    /// # Panics
    ///
    /// Panics if `func` is not a function index of the program.
    pub fn disassemble(&self, func: usize) -> String {
        let (slots, code) = (&self.funcs[func], &self.program.funcs[func].code);
        let mut reached = vec![false; slots.len()];
        let mut work = vec![0];
        while let Some(p) = work.pop() {
            if p >= slots.len() || std::mem::replace(&mut reached[p], true) {
                continue;
            }
            // Control only leaves a slot through its last instruction.
            let next = p + slots[p].covers();
            match code[next - 1] {
                Instr::Jump(t) => work.push(t as usize),
                Instr::JumpIfZero(t) | Instr::JumpIfNotZero(t) => work.extend([next, t as usize]),
                Instr::Ret | Instr::RetVoid => {}
                _ => work.push(next),
            }
        }
        // A fused slot's form, `None` for a plain one.
        let name = |slot: &Slot| {
            let debug = format!("{slot:?}");
            let end = debug.find(|c: char| !c.is_alphanumeric());
            (*slot != Slot::Plain).then(|| debug[..end.unwrap_or(debug.len())].to_string())
        };
        let mut out = String::new();
        for (p, slot) in slots.iter().enumerate() {
            let mark = if reached[p] { '*' } else { ' ' };
            let _ = write!(out, "{p:>4}{mark} ");
            if let Some(name) = name(slot) {
                let _ = write!(out, "{name}: ");
            }
            let covered = &code[p..p + slot.covers()];
            let covered: Vec<String> = covered.iter().map(Instr::to_string).collect();
            let _ = writeln!(out, "{}", covered.join("; "));
        }
        let slots_in = |range: std::ops::RangeInclusive<usize>| {
            let reached = range.clone().filter(|&p| reached[p]).count();
            let total = range.count();
            format!("{total} instructions -> {reached} dispatch slots reachable from slot 0")
        };
        // Innermost loops: a backward jump with no other inside its span.
        let back_edges: Vec<(usize, usize)> = (0..code.len())
            .filter_map(|p| match code[p] {
                Instr::Jump(t) | Instr::JumpIfZero(t) | Instr::JumpIfNotZero(t) => {
                    Some((t as usize, p)).filter(|(t, p)| t <= p)
                }
                _ => None,
            })
            .collect();
        for &(t, p) in &back_edges {
            let nested = |&(t2, p2): &(usize, usize)| (t2, p2) != (t, p) && t <= t2 && p2 <= p;
            if !back_edges.iter().any(nested) {
                let forms = (t..=p)
                    .filter(|&q| reached[q])
                    .filter_map(|q| name(&slots[q]));
                let forms = forms.collect::<Vec<_>>().join(" ");
                let _ = writeln!(out, "loop {t}..={p}: {} ({forms})", slots_in(t..=p));
            }
        }
        if !code.is_empty() {
            let _ = writeln!(out, "{}", slots_in(0..=code.len() - 1));
        }
        out
    }
}
