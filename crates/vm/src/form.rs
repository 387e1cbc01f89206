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
//!
//! # Sources, sinks and the 16 bytes they share
//!
//! An operator form is a *source* (where the operator finds its operands),
//! the operator, and a *sink* (where its result goes). A slot is 16 bytes:
//! the variant tag, the operator and the `rest` cycles take three, and the
//! fields of the source and the sink share the other thirteen, each at its
//! own alignment. Those sizes decide which pairs exist:
//!
//! | source | instructions before the operator         | fields        | bytes |
//! |--------|------------------------------------------|---------------|------:|
//! | `RR`   | `LocalGet a; LocalGet b`                 | `a`, `b`      | 4     |
//! | `RI`   | `LocalGet a; PushI imm`                  | `a`, `imm`    | 6     |
//! | `SI`   | stack top, `PushI imm`                   | `imm`         | 4     |
//! | `SR`   | stack top, `LocalGet b`                  | `b`           | 2     |
//! | `RCF`  | `LocalGet a; PushF f; Swap; I2F; Swap`   | `a`, `f: f64` | 10    |
//!
//! | sink   | instructions after the operator                      | fields         | bytes |
//! |--------|------------------------------------------------------|----------------|------:|
//! | `Push` | none: the result stays on the stack                  |                | 0     |
//! | `Set`  | `LocalSet c`                                         | `c`            | 2     |
//! | `SetJ` | `LocalSet c; Jump t`                                 | `c`, `t`       | 6     |
//! | `Br`   | `JumpIfZero t` or `JumpIfNotZero t`                  | `t`, `when`    | 5     |
//! | `ZBr`  | `PushI 0; CmpEq` or `CmpNe`; `JumpIf[Not]Zero t`     | `t`, `when`    | 5     |
//! | `Then` | a second operator                                    | `op2`          | 1     |
//!
//! The four integer sources take every sink: the dearest pair, `RI` with
//! `SetJ`, needs 15 bytes. `RCF`'s `f64` has to sit at offset 8, and the
//! tag, the operator, `rest` and `a` leave three bytes before it. That is
//! room for `Set`'s `c` or `Then`'s `op2`, but not for a 4-byte jump
//! target, so `RCF` takes `Push`, `Set` and `Then` only. A `size_of`
//! assertion below pins the 16 bytes.
//!
//! `ZBr` is `Br` with the comparison against zero folded in when the form
//! is built. `v == 0` is false exactly when `v` is truthy, and `v != 0` is
//! true exactly then, for integers and doubles alike (NaN included), so
//! the sink keeps only the jump target and the truth that takes it.

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
/// op`), `RCF` a register promoted to `double` against a constant
/// (`LocalGet a; PushF f; Swap; I2F; Swap; op`: C's `i + 0.5`). Sinks:
/// `Push` (nothing follows), `Set` (`LocalSet c`), `SetJ` (`LocalSet c;
/// Jump t`: a `for` loop's step and back edge), `Br` (`JumpIfZero t` /
/// `JumpIfNotZero t`: taken when the value's truth equals `when`), `ZBr`
/// (`PushI 0; CmpEq|CmpNe; JumpIf[Not]Zero t`, the test against zero folded
/// into `when`), `Then` (a second operator against the value under the
/// operands). The [module docs](self) say why `RCF` has three sinks.
macro_rules! operator_forms {
    ($with:ident $($arg:ident)?) => {
        $with! {
            $($arg;)?
            RRPush: RR(a, b) Push();
            RRSet: RR(a, b) Set(c);
            RRSetJ: RR(a, b) SetJ(c, t);
            RRBr: RR(a, b) Br(t, when);
            RRZBr: RR(a, b) ZBr(t, when);
            RRThen: RR(a, b) Then(op2);
            RIPush: RI(a, imm) Push();
            RISet: RI(a, imm) Set(c);
            RISetJ: RI(a, imm) SetJ(c, t);
            RIBr: RI(a, imm) Br(t, when);
            RIZBr: RI(a, imm) ZBr(t, when);
            RIThen: RI(a, imm) Then(op2);
            SIPush: SI(imm) Push();
            SISet: SI(imm) Set(c);
            SISetJ: SI(imm) SetJ(c, t);
            SIBr: SI(imm) Br(t, when);
            SIZBr: SI(imm) ZBr(t, when);
            SIThen: SI(imm) Then(op2);
            SRPush: SR(b) Push();
            SRSet: SR(b) Set(c);
            SRSetJ: SR(b) SetJ(c, t);
            SRBr: SR(b) Br(t, when);
            SRZBr: SR(b) ZBr(t, when);
            SRThen: SR(b) Then(op2);
            RCFPush: RCF(a, f) Push();
            RCFSet: RCF(a, f) Set(c);
            RCFThen: RCF(a, f) Then(op2);
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
    (f) => { f64 };
}

/// How many instructions a source puts before the operator.
#[rustfmt::skip]
macro_rules! src_len {
    (RR) => { 2 };
    (RI) => { 2 };
    (SI) => { 1 };
    (SR) => { 1 };
    (RCF) => { 5 };
}
pub(crate) use src_len;

/// How many instructions a sink adds to a form.
#[rustfmt::skip]
macro_rules! sink_len {
    (Push) => { 0 };
    (SetJ) => { 2 };
    (ZBr) => { 3 };
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
            /// How many instructions the slot stands for: its source's,
            /// the operator, and its sink's.
            pub(crate) fn covers(self) -> usize {
                match self {
                    Slot::Plain => 1,
                    $(Slot::$form { .. } => src_len!($src) + 1 + sink_len!($sink),)*
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

/// Where a fused operator finds its operands / sends its result, under
/// the names the rows of [`operator_forms`] give them.
#[allow(clippy::upper_case_acronyms)]
enum Src {
    RR(u16, u16),
    RI(u16, i32),
    SI(i32),
    SR(u16),
    RCF(u16, f64),
}
enum Sink {
    Push(),
    Set(u16),
    SetJ(u16, u32),
    Br(u32, bool),
    ZBr(u32, bool),
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
        (LocalGet(a), PushF(f)) if reg(a) && matches!((at(2), at(3), at(4)), (Swap, I2F, Swap)) => {
            (Src::RCF(a, f), 5)
        }
        (PushI(imm), _) => (Src::SI(narrow(imm)?), 1),
        (LocalGet(b), _) if reg(b) => (Src::SR(b), 1),
        _ => return None,
    };
    let op = operator(at_op)?;
    let sink = match (at(at_op + 1), at(at_op + 2), at(at_op + 3)) {
        (LocalSet(c), Jump(t), _) if reg(c) => Sink::SetJ(c, t),
        (LocalSet(c), ..) if reg(c) => Sink::Set(c),
        (JumpIfZero(t), ..) => Sink::Br(t, false),
        (JumpIfNotZero(t), ..) => Sink::Br(t, true),
        (PushI(0), cmp @ (CmpEq | CmpNe), jump @ (JumpIfZero(t) | JumpIfNotZero(t))) => {
            // `v == 0` holds exactly when `v` is not truthy.
            Sink::ZBr(t, matches!(jump, JumpIfNotZero(_)) != (cmp == CmpEq))
        }
        _ => operator(at_op + 1).map_or(Sink::Push(), Sink::Then),
    };
    // An `f64` leaves `RCF` no room for a jump target (module docs): it
    // stops short of the jump and leaves it to the slots after it.
    let sink = match (&src, sink) {
        (Src::RCF(..), Sink::SetJ(c, _)) => Sink::Set(c),
        (Src::RCF(..), Sink::Br(..) | Sink::ZBr(..)) => Sink::Push(),
        (_, sink) => sink,
    };
    let sink_len = match sink {
        Sink::Push() => 0,
        Sink::Set(_) | Sink::Br(..) | Sink::Then(_) => 1,
        Sink::SetJ(..) => 2,
        Sink::ZBr(..) => 3,
    };
    let covered = at_op + 1 + sink_len;
    let rest = code[1..covered].iter().map(|i| i.base_cost()).sum::<u64>() as u8;
    macro_rules! form {
        ($($form:ident: $src:ident($($s:ident),*) $sink:ident($($k:ident),*);)*) => {
            match (src, sink) {
                $((Src::$src($($s),*), Sink::$sink($($k),*)) => {
                    Slot::$form { op, $($s,)* $($k,)* rest }
                })*
                // Taken care of above: `RCF` with a jump.
                _ => return None,
            }
        };
    }
    let slot = operator_forms!(form);
    debug_assert_eq!(slot.covers(), covered);
    Some(slot)
}

/// A [`Program`] in the form the VM executes.
#[derive(Debug, Clone)]
pub struct ExecForm<'p> {
    pub(crate) program: &'p Program,
    /// `funcs[f][p]` stands for the instructions starting at
    /// `program.funcs[f].code[p]`.
    pub(crate) funcs: Vec<Vec<Slot>>,
}

impl<'p> ExecForm<'p> {
    /// Builds the execution form of `program`: one pass, a fixed look-ahead
    /// of at most nine instructions per slot.
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
