//! The bytecode optimizer: an optional stage between [`crate::compile()`]
//! and execution.
//!
//! [`optimize`] rewrites a compiled [`Program`] at a chosen [`OptLevel`]
//! without changing anything a run can observe: program output, exit
//! codes, synchronization behaviour and sharing-oracle verdicts are
//! byte-identical across levels (the root `opt_levels.rs` differential
//! suite pins this over the whole corpus, under every execution model).
//!
//! # Passes
//!
//! | pass                  | level | what it does |
//! |-----------------------|-------|--------------|
//! | constant folding      | O1    | folds `PushI 2; PushI 3; Add` → `PushI 5` (exact VM semantics: wrapping integer ops, C float promotion), propagates block-local register constants, resolves constant branches, folds frame-address arithmetic, cancels `Dup`/`Pop` pairs |
//! | jump simplification   | O1    | threads jump-to-jump chains, deletes jumps to the next instruction, rewrites conditional jumps to the fall-through as `Pop` |
//! | dead code elimination | O1    | drops unreachable instructions, `Nop`s, and stores to registers never read |
//! | strength reduction    | O2    | `x * 2^k` → `x << k` and integer identities (`x+0`, `x*1`, `x/1`, `x<<0`), gated on a whole-function register type analysis proving the operand is an integer |
//! | common subexpressions | O2    | block-local value numbering over pure register/constant expressions; a repeated expression is captured once (`Dup; LocalSet`) and re-read (`LocalGet`) |
//! | load forwarding       | O2    | block-local reuse of loads from **non-escaping private stack slots only** — never globals, never computed addresses, never across calls or synchronization intrinsics |
//!
//! # Soundness against shared memory
//!
//! The VM interleaves up to 48 units at instruction granularity, so the
//! optimizer must assume another thread can write shared memory between
//! *any* two instructions. Every pass therefore follows three rules:
//!
//! 1. **Loads and stores through the memory system are never deleted,
//!    duplicated or reordered** — except for load forwarding, which is
//!    restricted to frame-stack slots whose address provably never
//!    escapes the function (so no other thread can hold a pointer to
//!    them) and is additionally killed at every call and non-pure
//!    intrinsic (every synchronization operation is an intrinsic).
//! 2. **Faults are preserved**: an integer division by a constant zero is
//!    left in place so the run still traps exactly where the unoptimized
//!    program would.
//! 3. **Rewrites are position-stable**: each original instruction is
//!    replaced by zero or more instructions at the same position, jump
//!    targets are remapped through the rebuilt index map, and
//!    multi-instruction patterns are only rewritten when no jump lands in
//!    their interior.
//!
//! See `docs/OPTIMIZER.md` for the worked example and the full soundness
//! argument per pass.

use crate::compile::{FrameVar, Program};
use crate::data::FastMap;
use crate::instr::{Instr, Op};
use crate::value::Value;

/// How aggressively [`optimize`] rewrites a program.
///
/// Levels are cumulative: `O1` ⊂ `O2`. `O0` returns the program
/// untouched, which keeps it the safe default everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OptLevel {
    /// No optimization: the compiler's output runs as emitted.
    #[default]
    O0,
    /// Constant folding, jump simplification and dead-code elimination.
    O1,
    /// Everything in `O1` plus strength reduction, common-subexpression
    /// elimination and private-stack load forwarding.
    O2,
}

impl OptLevel {
    /// Every level, in increasing aggressiveness.
    pub const ALL: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];

    /// Stable label used by manifests and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O2",
        }
    }

    /// Parses a label produced by [`OptLevel::label`] (case-insensitive,
    /// the bare digit is also accepted).
    pub fn parse(s: &str) -> Option<OptLevel> {
        match s {
            "O0" | "o0" | "0" => Some(OptLevel::O0),
            "O1" | "o1" | "1" => Some(OptLevel::O1),
            "O2" | "o2" | "2" => Some(OptLevel::O2),
            _ => None,
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Static before/after sizes reported by [`optimize_with_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptStats {
    /// Total instruction count before optimization.
    pub instrs_before: usize,
    /// Total instruction count after optimization.
    pub instrs_after: usize,
}

/// Bounded number of pass-pipeline rounds per function; each round runs
/// every enabled pass once and the loop stops early at a fixpoint.
const MAX_ROUNDS: usize = 6;

/// Optimizes a compiled program at `level`. `O0` is an exact copy.
pub fn optimize(program: &Program, level: OptLevel) -> Program {
    optimize_with_stats(program, level).0
}

/// [`optimize`] plus static instruction-count statistics.
pub fn optimize_with_stats(program: &Program, level: OptLevel) -> (Program, OptStats) {
    let before = program.code_len();
    let mut out = program.clone();
    if level == OptLevel::O0 {
        return (
            out,
            OptStats {
                instrs_before: before,
                instrs_after: before,
            },
        );
    }
    let mut scratch = Scratch::default();
    for func in &mut out.funcs {
        let mut code = std::mem::take(&mut func.code);
        let mut n_regs = func.n_regs;
        let s = &mut scratch;
        for _ in 0..MAX_ROUNDS {
            let mut changed = false;
            changed |= s.apply(&mut code, fold_pass);
            changed |= s.apply(&mut code, |c, _, p| jump_pass(c, p));
            changed |= s.apply(&mut code, |c, _, p| dce_pass(c, p));
            if level >= OptLevel::O2 {
                changed |= s.apply(&mut code, |c, l, p| {
                    strength_pass(c, l, func.n_params, n_regs, p)
                });
                changed |= s.apply(&mut code, |c, l, p| cse_pass(c, l, &mut n_regs, p));
                changed |= s.apply(&mut code, |c, l, p| {
                    forward_loads_pass(c, l, &func.frame_vars, &mut n_regs, p)
                });
            }
            if !changed {
                break;
            }
        }
        func.code = code;
        func.n_regs = n_regs;
    }
    let after = out.code_len();
    (
        out,
        OptStats {
            instrs_before: before,
            instrs_after: after,
        },
    )
}

// ----------------------------------------------------- infrastructure --

/// Per-index replacement plan: an index without a plan keeps its
/// instruction, a planned one is replaced by zero or more instructions.
#[derive(Default)]
struct Patch {
    /// Per index, the range of `seqs` that replaces it, if planned.
    repl: Vec<Option<(u32, u32)>>,
    /// Every planned replacement, back to back.
    seqs: Vec<Instr>,
    changed: bool,
}

impl Patch {
    /// Clears every plan, for a function of `len` instructions.
    fn reset(&mut self, len: usize) {
        self.repl.clear();
        self.repl.resize(len, None);
        self.seqs.clear();
        self.changed = false;
    }

    /// Plans a replacement. The first plan per index wins; later plans
    /// for an already-claimed index are rejected (returns `false`).
    fn set(&mut self, i: usize, seq: &[Instr]) -> bool {
        if self.repl[i].is_some() {
            return false;
        }
        let start = self.seqs.len() as u32;
        self.seqs.extend_from_slice(seq);
        self.repl[i] = Some((start, self.seqs.len() as u32));
        self.changed = true;
        true
    }

    fn is_set(&self, i: usize) -> bool {
        self.repl[i].is_some()
    }

    /// What replaces index `i`, if it is planned.
    fn replacement(&self, i: usize) -> Option<&[Instr]> {
        self.repl[i].map(|(a, b)| &self.seqs[a as usize..b as usize])
    }
}

/// The buffers one [`optimize`] call reuses across every pass it runs, so
/// a pass allocates only what it keeps for itself.
#[derive(Default)]
struct Scratch {
    leaders: Vec<bool>,
    patch: Patch,
    new_index: Vec<usize>,
    /// Where the next rebuilt function body is written; it swaps places
    /// with the body it replaces.
    spare: Vec<Instr>,
}

impl Scratch {
    /// Runs one pass and applies its patch; returns whether anything
    /// changed.
    fn apply(
        &mut self,
        code: &mut Vec<Instr>,
        pass: impl FnOnce(&[Instr], &[bool], &mut Patch),
    ) -> bool {
        leaders(code, &mut self.leaders);
        self.patch.reset(code.len());
        pass(code, &self.leaders, &mut self.patch);
        if !self.patch.changed {
            return false;
        }
        apply_patch(code, &self.patch, &mut self.new_index, &mut self.spare);
        std::mem::swap(code, &mut self.spare);
        true
    }
}

/// Jump-target leader map: `leaders[i]` is true when some jump targets
/// index `i`. Multi-instruction rewrites must not span a leader, so a
/// jump can never land in the middle of a replaced pattern.
fn leaders(code: &[Instr], l: &mut Vec<bool>) {
    l.clear();
    l.resize(code.len() + 1, false);
    for ins in code {
        if let Instr::Jump(t) | Instr::JumpIfZero(t) | Instr::JumpIfNotZero(t) = ins {
            l[*t as usize] = true;
        }
    }
}

/// Writes `code` rebuilt under `patch` into `out`, remapping every jump
/// target through the old-index → new-index map. A target whose
/// instruction was deleted maps to the next surviving position, which
/// preserves semantics because deletions are always part of a pattern
/// rewrite anchored at the target's own position.
fn apply_patch(code: &[Instr], patch: &Patch, new_index: &mut Vec<usize>, out: &mut Vec<Instr>) {
    new_index.clear();
    let mut pos = 0usize;
    for i in 0..code.len() {
        new_index.push(pos);
        pos += patch.replacement(i).map_or(1, <[Instr]>::len);
    }
    new_index.push(pos);
    let remap = |t: u32| new_index[t as usize] as u32;
    out.clear();
    out.reserve(pos);
    let mut emit = |ins: Instr| {
        out.push(match ins {
            Instr::Jump(t) => Instr::Jump(remap(t)),
            Instr::JumpIfZero(t) => Instr::JumpIfZero(remap(t)),
            Instr::JumpIfNotZero(t) => Instr::JumpIfNotZero(remap(t)),
            other => other,
        });
    };
    for (i, ins) in code.iter().enumerate() {
        match patch.replacement(i) {
            Some(seq) => seq.iter().for_each(|&x| emit(x)),
            None => emit(*ins),
        }
    }
}

/// The constant pushed for a folded value.
fn push_const(v: Value) -> Instr {
    match v {
        Value::I(i) => Instr::PushI(i),
        Value::F(f) => Instr::PushF(f),
    }
}

/// The constant an instruction pushes, if it is a constant push.
fn const_of(ins: Instr) -> Option<Value> {
    match ins {
        Instr::PushI(i) => Some(Value::I(i)),
        Instr::PushF(f) => Some(Value::F(f)),
        _ => None,
    }
}

/// Whether an instruction pushes exactly one value with no side effects
/// (so a `Pop` right after it cancels both).
fn is_pure_push(ins: Instr) -> bool {
    matches!(
        ins,
        Instr::PushI(_) | Instr::PushF(_) | Instr::LocalGet(_) | Instr::LocalMemAddr(_)
    )
}

// --------------------------------------------- constant-fold semantics --
//
// These mirror the VM's `arith`/`compare`/bitop handlers exactly
// (wrapping integer arithmetic, C float promotion, truthiness); the
// `folds_match_vm_arithmetic` test below cross-checks them against a
// running VM. Folding must be *bit-identical* to execution, or the
// differential harness across opt levels would catch the divergence.

/// Folds a binary arithmetic op; `None` when the fold must not happen
/// (integer division by zero stays in the code so the run still traps).
fn fold_arith(op: Instr, l: Value, r: Value) -> Option<Value> {
    if l.promotes_to_f(r) {
        let (a, b) = (l.as_f(), r.as_f());
        Some(Value::F(match op {
            Instr::Add => a + b,
            Instr::Sub => a - b,
            Instr::Mul => a * b,
            Instr::Div => a / b,
            Instr::Rem => a % b,
            _ => return None,
        }))
    } else {
        let (a, b) = (l.as_i(), r.as_i());
        if matches!(op, Instr::Div | Instr::Rem) && b == 0 {
            return None; // preserve the runtime fault
        }
        Some(Value::I(match op {
            Instr::Add => a.wrapping_add(b),
            Instr::Sub => a.wrapping_sub(b),
            Instr::Mul => a.wrapping_mul(b),
            Instr::Div => a.wrapping_div(b),
            Instr::Rem => a.wrapping_rem(b),
            _ => return None,
        }))
    }
}

/// Folds a comparison (C usual arithmetic conversions, result 0/1).
fn fold_compare(op: Instr, l: Value, r: Value) -> Option<Value> {
    let res = if l.promotes_to_f(r) {
        let (a, b) = (l.as_f(), r.as_f());
        match op {
            Instr::CmpLt => a < b,
            Instr::CmpLe => a <= b,
            Instr::CmpGt => a > b,
            Instr::CmpGe => a >= b,
            Instr::CmpEq => a == b,
            Instr::CmpNe => a != b,
            _ => return None,
        }
    } else {
        let (a, b) = (l.as_i(), r.as_i());
        match op {
            Instr::CmpLt => a < b,
            Instr::CmpLe => a <= b,
            Instr::CmpGt => a > b,
            Instr::CmpGe => a >= b,
            Instr::CmpEq => a == b,
            Instr::CmpNe => a != b,
            _ => return None,
        }
    };
    Some(Value::I(i64::from(res)))
}

/// Folds a bitwise op (both operands coerce to integers, shifts wrap).
fn fold_bitop(op: Instr, l: Value, r: Value) -> Option<Value> {
    let (a, b) = (l.as_i(), r.as_i());
    Some(Value::I(match op {
        Instr::Shl => a.wrapping_shl(b as u32),
        Instr::Shr => a.wrapping_shr(b as u32),
        Instr::BitAnd => a & b,
        Instr::BitOr => a | b,
        Instr::BitXor => a ^ b,
        _ => return None,
    }))
}

/// Folds any binary operator over two constants.
fn fold_binary(op: Instr, l: Value, r: Value) -> Option<Value> {
    match op {
        Instr::Add | Instr::Sub | Instr::Mul | Instr::Div | Instr::Rem => fold_arith(op, l, r),
        Instr::CmpLt | Instr::CmpLe | Instr::CmpGt | Instr::CmpGe | Instr::CmpEq | Instr::CmpNe => {
            fold_compare(op, l, r)
        }
        Instr::Shl | Instr::Shr | Instr::BitAnd | Instr::BitOr | Instr::BitXor => {
            fold_bitop(op, l, r)
        }
        _ => None,
    }
}

/// Folds a unary operator over a constant.
fn fold_unary(op: Instr, v: Value) -> Option<Value> {
    Some(match op {
        Instr::Neg => match v {
            Value::I(i) => Value::I(i.wrapping_neg()),
            Value::F(f) => Value::F(-f),
        },
        Instr::Not => Value::I(i64::from(!v.is_truthy())),
        Instr::BitNot => Value::I(!v.as_i()),
        Instr::I2F => Value::F(v.as_f()),
        Instr::F2I => Value::I(v.as_i()),
        _ => return None,
    })
}

// -------------------------------------------------------- fold pass (O1) --

/// Constant folding + block-local register constant propagation +
/// constant branches + frame-address folding + `Dup`/`Pop` cancellation.
fn fold_pass(code: &[Instr], leaders: &[bool], p: &mut Patch) {
    // Block-local register constants. Registers are strictly per-frame
    // (calls allocate fresh slots and restore on return), so calls do
    // not invalidate the map; only jump targets (unknown predecessors)
    // and non-constant stores do.
    let mut regs: FastMap<u16, Value> = FastMap::default();
    let mut i = 0;
    while i < code.len() {
        if leaders[i] {
            regs.clear();
        }
        let free2 = i + 1 < code.len() && !leaders[i + 1];
        let free3 = free2 && i + 2 < code.len() && !leaders[i + 2];

        // [c1, c2, binop] → [folded]  and  [c1, c2, Swap] → [c2, c1].
        if free3 {
            if let (Some(a), Some(b)) = (const_of(code[i]), const_of(code[i + 1])) {
                if code[i + 2] == Instr::Swap {
                    p.set(i, &[push_const(b)]);
                    p.set(i + 1, &[push_const(a)]);
                    p.set(i + 2, &[]);
                    i += 3;
                    continue;
                }
                if let Some(v) = fold_binary(code[i + 2], a, b) {
                    p.set(i, &[push_const(v)]);
                    p.set(i + 1, &[]);
                    p.set(i + 2, &[]);
                    i += 3;
                    continue;
                }
            }
            // [LocalMemAddr off, PushI c, Add] → [LocalMemAddr off+c]
            // (constant indexing into a frame array).
            if let (Instr::LocalMemAddr(off), Instr::PushI(c), Instr::Add) =
                (code[i], code[i + 1], code[i + 2])
            {
                let sum = i64::from(off) + c;
                if (0..=i64::from(u32::MAX)).contains(&sum) {
                    p.set(i, &[Instr::LocalMemAddr(sum as u32)]);
                    p.set(i + 1, &[]);
                    p.set(i + 2, &[]);
                    i += 3;
                    continue;
                }
            }
        }

        if free2 {
            // [c, unop] → [folded];  [c, JumpIf*] → [Jump] or nothing.
            if let Some(v) = const_of(code[i]) {
                if let Some(folded) = fold_unary(code[i + 1], v) {
                    p.set(i, &[push_const(folded)]);
                    p.set(i + 1, &[]);
                    i += 2;
                    continue;
                }
                match code[i + 1] {
                    Instr::JumpIfZero(t) => {
                        let jump = [Instr::Jump(t)];
                        p.set(i, if v.is_truthy() { &[] } else { &jump });
                        p.set(i + 1, &[]);
                        i += 2;
                        continue;
                    }
                    Instr::JumpIfNotZero(t) => {
                        let jump = [Instr::Jump(t)];
                        p.set(i, if v.is_truthy() { &jump } else { &[] });
                        p.set(i + 1, &[]);
                        i += 2;
                        continue;
                    }
                    _ => {}
                }
            }
            // [Dup, Pop] and [pure push, Pop] cancel.
            if code[i + 1] == Instr::Pop && (code[i] == Instr::Dup || is_pure_push(code[i])) {
                p.set(i, &[]);
                p.set(i + 1, &[]);
                i += 2;
                continue;
            }
        }

        match code[i] {
            // A register known to hold a constant reads as that constant.
            Instr::LocalGet(r) => {
                if let Some(&v) = regs.get(&r) {
                    p.set(i, &[push_const(v)]);
                }
                i += 1;
            }
            // [push c, LocalSet r] records the constant (the store itself
            // stays; DCE removes it later if the register is never read).
            ins if const_of(ins).is_some() && free2 => {
                if let Instr::LocalSet(r) = code[i + 1] {
                    regs.insert(r, const_of(ins).expect("checked const"));
                    i += 2;
                } else {
                    i += 1;
                }
            }
            Instr::LocalSet(r) => {
                regs.remove(&r);
                i += 1;
            }
            _ => i += 1,
        }
    }
}

// -------------------------------------------------------- jump pass (O1) --

/// Follows a jump-to-jump chain to its final target (bounded, so jump
/// cycles terminate harmlessly).
fn chase(code: &[Instr], mut t: u32) -> u32 {
    for _ in 0..code.len() {
        match code.get(t as usize) {
            Some(Instr::Jump(u)) if *u != t => t = *u,
            _ => break,
        }
    }
    t
}

/// Jump threading, jump-to-next deletion, and conditional-jump-to-next →
/// `Pop` (the condition still has to leave the stack).
fn jump_pass(code: &[Instr], p: &mut Patch) {
    for (i, ins) in code.iter().enumerate() {
        let next = (i + 1) as u32;
        match *ins {
            Instr::Jump(t) => {
                let t2 = chase(code, t);
                if t2 == next {
                    p.set(i, &[]);
                } else if t2 != t {
                    p.set(i, &[Instr::Jump(t2)]);
                }
            }
            Instr::JumpIfZero(t) => {
                let t2 = chase(code, t);
                if t2 == next {
                    p.set(i, &[Instr::Pop]);
                } else if t2 != t {
                    p.set(i, &[Instr::JumpIfZero(t2)]);
                }
            }
            Instr::JumpIfNotZero(t) => {
                let t2 = chase(code, t);
                if t2 == next {
                    p.set(i, &[Instr::Pop]);
                } else if t2 != t {
                    p.set(i, &[Instr::JumpIfNotZero(t2)]);
                }
            }
            _ => {}
        }
    }
}

// --------------------------------------------------------- DCE pass (O1) --

/// Unreachable-code removal, `Nop` removal, and stores to registers the
/// function never reads (`LocalSet` → `Pop`, keeping the stack effect).
fn dce_pass(code: &[Instr], p: &mut Patch) {
    // Reachability from the entry.
    let mut reachable = vec![false; code.len()];
    let mut work = vec![0usize];
    while let Some(i) = work.pop() {
        if i >= code.len() || reachable[i] {
            continue;
        }
        reachable[i] = true;
        match code[i] {
            Instr::Jump(t) => work.push(t as usize),
            Instr::JumpIfZero(t) | Instr::JumpIfNotZero(t) => {
                work.push(t as usize);
                work.push(i + 1);
            }
            Instr::Ret | Instr::RetVoid => {}
            _ => work.push(i + 1),
        }
    }
    // Registers that are ever read.
    let mut read = Vec::new();
    for ins in code {
        if let Instr::LocalGet(r) = *ins {
            let r = usize::from(r);
            if r >= read.len() {
                read.resize(r + 1, false);
            }
            read[r] = true;
        }
    }
    for (i, ins) in code.iter().enumerate() {
        if !reachable[i] {
            p.set(i, &[]);
            continue;
        }
        match *ins {
            Instr::Nop => {
                p.set(i, &[]);
            }
            Instr::LocalSet(r) if !read.get(usize::from(r)).is_some_and(|&b| b) => {
                p.set(i, &[Instr::Pop]);
            }
            _ => {}
        }
    }
}

// ------------------------------------------------ the abstract stack --

/// One instruction over an abstract operand stack: the one place the
/// optimizer spells out an instruction's stack effect. The type, value
/// number, escape and forwarding scans are each an `eval` over it.
///
/// `step` pops the instruction's operands and hands them to `eval`,
/// deepest first; `missing` stands in for an operand pushed before a jump
/// target (the scans clear their stacks there). If the instruction leaves
/// a result, `step` pushes what `eval` returns. `Dup` keeps its operand
/// and pushes `eval(&[top])`, `Swap` and `Rot3` only reorder, and `Ret`
/// and `RetVoid` empty the stack.
#[inline(always)]
fn step<T: Copy>(ins: Instr, stack: &mut Vec<T>, missing: T, eval: impl FnOnce(&[T]) -> T) {
    /// Operands taken and whether a result is pushed, per opcode; `Store`
    /// and the calls carry theirs in the instruction. A table rather than
    /// a `match`, so that the scans' own `match` is the only dispatch.
    const SHAPE: [(usize, bool); Op::COUNT] = {
        const fn shape(op: Op) -> (usize, bool) {
            match op {
                Op::PushI | Op::PushF | Op::LocalGet | Op::LocalMemAddr => (0, true),
                Op::Load | Op::Dup | Op::Neg | Op::Not | Op::BitNot | Op::I2F | Op::F2I => {
                    (1, true)
                }
                Op::Add
                | Op::Sub
                | Op::Mul
                | Op::Div
                | Op::Rem
                | Op::Shl
                | Op::Shr
                | Op::BitAnd
                | Op::BitOr
                | Op::BitXor
                | Op::CmpLt
                | Op::CmpLe
                | Op::CmpGt
                | Op::CmpGe
                | Op::CmpEq
                | Op::CmpNe => (2, true),
                Op::Swap => (2, false),
                Op::Rot3 => (3, false),
                Op::LocalSet | Op::Pop | Op::JumpIfZero | Op::JumpIfNotZero | Op::Ret => (1, false),
                Op::Jump | Op::Nop | Op::RetVoid => (0, false),
                Op::Store | Op::Call | Op::CallIntrinsic => (0, false),
            }
        }
        let mut table = [(0, false); Op::COUNT];
        let mut i = 0;
        while i < Op::COUNT {
            table[i] = shape(Op::ALL[i]);
            i += 1;
        }
        table
    };
    /// Every entry of a stack shorter than `arity` is an operand, and the
    /// missing ones are the deepest.
    #[cold]
    #[inline(never)]
    fn pad<T: Copy>(stack: &mut Vec<T>, arity: usize, missing: T) {
        let short = arity - stack.len();
        stack.resize(arity, missing);
        stack.rotate_right(short);
    }

    let (arity, result) = match ins {
        Instr::Store(_, keep) => (2, keep),
        Instr::Call(_, n) | Instr::CallIntrinsic(_, n) => (usize::from(n), true),
        _ => SHAPE[ins.op() as usize],
    };
    if stack.len() < arity {
        pad(stack, arity, missing);
    }
    let base = stack.len() - arity;
    match ins {
        Instr::Swap => stack.swap(base, base + 1),
        Instr::Rot3 => stack[base..].rotate_left(1),
        _ => {
            let value = eval(&stack[base..]);
            match ins {
                Instr::Dup => {}
                Instr::Ret | Instr::RetVoid => stack.clear(),
                _ => stack.truncate(base),
            }
            if result {
                stack.push(value);
            }
        }
    }
}

// -------------------------------------------------- type analysis (O2) --

/// Abstract value type for the strength-reduction proofs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    /// Provably `Value::I`.
    Int,
    /// Provably `Value::F`.
    Float,
    /// Could be either.
    Unknown,
}

fn meet(a: Ty, b: Ty) -> Ty {
    if a == b {
        a
    } else {
        Ty::Unknown
    }
}

/// [`step`] over the abstract type stack. Returns the register a
/// `LocalSet` writes and the type it stores.
#[inline(always)]
fn sim_types(ins: Instr, stack: &mut Vec<Ty>, reg_ty: &[Ty]) -> Option<(u16, Ty)> {
    let mut stored = None;
    step(
        ins,
        stack,
        Ty::Unknown,
        // Two scans call `sim_types`, and without the attribute its
        // `eval` stays a call per instruction of either.
        #[inline(always)]
        |ops| match ins {
            Instr::PushI(_) | Instr::LocalMemAddr(_) => Ty::Int,
            Instr::PushF(_) | Instr::I2F => Ty::Float,
            Instr::LocalGet(r) => reg_ty.get(usize::from(r)).copied().unwrap_or(Ty::Unknown),
            Instr::LocalSet(r) => {
                stored = Some((r, ops[0]));
                Ty::Unknown
            }
            Instr::Load(k) if k.is_float() => Ty::Float,
            Instr::Load(_) => Ty::Int,
            // Store(keep) re-pushes the original, pre-narrowing value.
            Instr::Store(..) => ops[1],
            Instr::Dup | Instr::Neg => ops[0],
            Instr::Add | Instr::Sub | Instr::Mul | Instr::Div | Instr::Rem => {
                match (ops[0], ops[1]) {
                    (Ty::Float, _) | (_, Ty::Float) => Ty::Float,
                    (Ty::Int, Ty::Int) => Ty::Int,
                    _ => Ty::Unknown,
                }
            }
            Instr::Shl
            | Instr::Shr
            | Instr::BitAnd
            | Instr::BitOr
            | Instr::BitXor
            | Instr::CmpLt
            | Instr::CmpLe
            | Instr::CmpGt
            | Instr::CmpGe
            | Instr::CmpEq
            | Instr::CmpNe
            | Instr::Not
            | Instr::BitNot
            | Instr::F2I => Ty::Int,
            Instr::CallIntrinsic(intr, _) if intr.is_pure() => Ty::Float,
            _ => Ty::Unknown,
        },
    );
    stored
}

/// Whole-function register typing: a register is `Int` when every value
/// ever stored into it is provably an integer. Starts optimistic (a
/// never-written register holds its `Value::I(0)` initialization) and
/// iterates the monotone meet to a fixpoint. Parameters are `Unknown` —
/// their values come from call sites or the engine.
fn register_types(code: &[Instr], leaders: &[bool], n_params: u8, n_regs: u16) -> Vec<Ty> {
    let mut ty = vec![Ty::Int; n_regs as usize];
    for slot in ty.iter_mut().take(n_params as usize) {
        *slot = Ty::Unknown;
    }
    let mut stack: Vec<Ty> = Vec::new();
    loop {
        let mut changed = false;
        stack.clear();
        for (i, ins) in code.iter().enumerate() {
            if leaders[i] {
                stack.clear();
            }
            // The instruction reads the types it starts with; its store
            // lands after it.
            let stored = sim_types(*ins, &mut stack, &ty);
            if let Some((slot, t)) = stored.and_then(|(r, t)| Some((ty.get_mut(r as usize)?, t))) {
                let m = meet(*slot, t);
                if m != *slot {
                    *slot = m;
                    changed = true;
                }
            }
        }
        if !changed {
            return ty;
        }
    }
}

// -------------------------------------------- strength reduction (O2) --

/// `x * 2^k` → `x << k`, plus integer identities (`x+0`, `x-0`, `x*1`,
/// `x/1`, `x<<0`, `x>>0`). Every rewrite needs the non-constant operand
/// proven `Int`: the VM promotes mixed arithmetic to floats, and the
/// bitwise replacement would silently truncate a float operand. No float
/// identities are ever applied (`-0.0` and NaN make them unsound), and
/// division is never turned into a shift (C truncated division of
/// negative values disagrees with an arithmetic shift).
fn strength_pass(code: &[Instr], leaders: &[bool], n_params: u8, n_regs: u16, p: &mut Patch) {
    let candidate = |i: usize| match code[i] {
        Instr::PushI(c) => code.get(i + 1).and_then(|&op| reduce(c, op)),
        _ => None,
    };
    // The type analysis is what the pass costs; without a candidate there
    // is nothing for it to prove.
    if !(0..code.len()).any(|i| candidate(i).is_some()) {
        return;
    }
    let reg_ty = register_types(code, leaders, n_params, n_regs);
    let mut stack: Vec<Ty> = Vec::new();
    for (i, ins) in code.iter().enumerate() {
        if leaders[i] {
            stack.clear();
        }
        // At this point the abstract stack top is the *left* operand of
        // the binary op at i+1 (code[i] pushes the right one).
        let left = stack.last().copied().unwrap_or(Ty::Unknown);
        let free2 = i + 1 < code.len() && !leaders[i + 1];
        if free2 && left == Ty::Int && !p.is_set(i) && !p.is_set(i + 1) {
            match candidate(i) {
                Some(Some(k)) => {
                    p.set(i, &[Instr::PushI(k)]);
                    p.set(i + 1, &[Instr::Shl]);
                }
                Some(None) => {
                    p.set(i, &[]);
                    p.set(i + 1, &[]);
                }
                None => {}
            }
        }
        // Simulate the *original* instruction: the rewrites above are
        // type-preserving, so the abstract stack stays accurate.
        sim_types(*ins, &mut stack, &reg_ty);
    }
}

/// What `PushI c; op` becomes after an integer: `Some(None)` drops both,
/// `Some(Some(k))` is `PushI k; Shl`, `None` keeps them.
fn reduce(c: i64, op: Instr) -> Option<Option<i64>> {
    match op {
        Instr::Mul if c > 1 && (c & (c - 1)) == 0 => Some(Some(i64::from(c.trailing_zeros()))),
        Instr::Mul | Instr::Div if c == 1 => Some(None),
        Instr::Add | Instr::Sub | Instr::Shl | Instr::Shr if c == 0 => Some(None),
        _ => None,
    }
}

// ------------------------------------------------------------ CSE (O2) --

/// Value-number key of a pure expression. Register operands carry a
/// generation that bumps on every store, so a reassignment retires every
/// value number built on the old contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum VnKey {
    ConstI(i64),
    ConstF(u64),
    Mem(u32),
    Reg(u16, u32),
    Un(crate::instr::Op, u32),
    Bin(crate::instr::Op, u32, u32),
}

/// One abstract stack entry of the CSE scan: the value number (if the
/// value is a pure expression) and the contiguous instruction span that
/// produced it (if it can be rewritten as a unit).
#[derive(Debug, Clone, Copy)]
struct SymVal {
    vn: Option<u32>,
    span: Option<(usize, usize)>,
}

impl SymVal {
    fn opaque() -> Self {
        SymVal {
            vn: None,
            span: None,
        }
    }
}

/// The first available occurrence of a value number in the current block.
struct FirstOcc {
    span: (usize, usize),
    scratch: Option<u16>,
}

/// Recompute cost worth eliminating: at least this many instructions, or
/// any expression containing a `Mul`/`Div`/`Rem` (4 and 24 cycles).
fn worth_caching(code: &[Instr], span: (usize, usize)) -> bool {
    let len = span.1 - span.0 + 1;
    len >= 4
        || code[span.0..=span.1]
            .iter()
            .any(|i| matches!(i, Instr::Mul | Instr::Div | Instr::Rem))
}

/// Block-local common-subexpression elimination over pure expressions
/// (constants, register reads, unary/binary combinations — never loads,
/// which another thread may race with). The first occurrence grows a
/// `Dup; LocalSet scratch` capture; later occurrences in the same block
/// collapse to `LocalGet scratch`. Register reassignments retire value
/// numbers through per-register generations; block boundaries clear the
/// availability table, so the capture dominates every reuse.
fn cse_pass(code: &[Instr], leaders: &[bool], n_regs: &mut u16, p: &mut Patch) {
    let mut vns: FastMap<VnKey, u32> = FastMap::default();
    let mut vn_of = |key: VnKey| -> u32 {
        let next = vns.len() as u32 + 1;
        *vns.entry(key).or_insert(next)
    };
    let mut gen: FastMap<u16, u32> = FastMap::default();
    let mut avail: FastMap<u32, FirstOcc> = FastMap::default();
    let mut stack: Vec<SymVal> = Vec::new();

    for (i, &ins) in code.iter().enumerate() {
        if leaders[i] {
            stack.clear();
            avail.clear();
        }
        step(ins, &mut stack, SymVal::opaque(), |ops| {
            let leaf = |vn| SymVal {
                vn: Some(vn),
                span: Some((i, i)),
            };
            let mut val = match ins {
                Instr::PushI(c) => leaf(vn_of(VnKey::ConstI(c))),
                Instr::PushF(f) => leaf(vn_of(VnKey::ConstF(f.to_bits()))),
                Instr::LocalMemAddr(off) => leaf(vn_of(VnKey::Mem(off))),
                Instr::LocalGet(r) => leaf(vn_of(VnKey::Reg(r, *gen.get(&r).unwrap_or(&0)))),
                Instr::Neg | Instr::Not | Instr::BitNot | Instr::I2F | Instr::F2I => SymVal {
                    vn: ops[0].vn.map(|v| vn_of(VnKey::Un(ins.op(), v))),
                    span: ops[0]
                        .span
                        .filter(|&(_, e)| e + 1 == i)
                        .map(|(s, _)| (s, i)),
                },
                Instr::Add
                | Instr::Sub
                | Instr::Mul
                | Instr::Div
                | Instr::Rem
                | Instr::Shl
                | Instr::Shr
                | Instr::BitAnd
                | Instr::BitOr
                | Instr::BitXor
                | Instr::CmpLt
                | Instr::CmpLe
                | Instr::CmpGt
                | Instr::CmpGe
                | Instr::CmpEq
                | Instr::CmpNe => {
                    let (a, b) = (ops[0], ops[1]);
                    SymVal {
                        vn: match (a.vn, b.vn) {
                            (Some(x), Some(y)) => Some(vn_of(VnKey::Bin(ins.op(), x, y))),
                            _ => None,
                        },
                        // Contiguous only when a's span, b's span and the
                        // op abut.
                        span: match (a.span, b.span) {
                            (Some((sa, ea)), Some((sb, eb))) if ea + 1 == sb && eb + 1 == i => {
                                Some((sa, i))
                            }
                            _ => None,
                        },
                    }
                }
                Instr::LocalSet(r) => {
                    *gen.entry(r).or_insert(0) += 1;
                    return SymVal::opaque();
                }
                // The copy shares the value but not the producing span —
                // two entries must never both claim the same indices.
                Instr::Dup => {
                    return SymVal {
                        vn: ops[0].vn,
                        span: None,
                    }
                }
                _ => return SymVal::opaque(),
            };
            // A completed pure expression worth caching: capture or reuse.
            let (Some(vn), Some(span)) = (val.vn, val.span) else {
                return val;
            };
            if !worth_caching(code, span) {
                return val;
            }
            let Some(first) = avail.get_mut(&vn) else {
                avail.insert(
                    vn,
                    FirstOcc {
                        span,
                        scratch: None,
                    },
                );
                return val;
            };
            let capture_ok =
                first.scratch.is_some() || (!p.is_set(first.span.1) && *n_regs < u16::MAX - 2);
            let range_free = (span.0..=span.1).all(|k| !p.is_set(k));
            if capture_ok && range_free {
                let scratch = match first.scratch {
                    Some(s) => s,
                    None => {
                        let s = *n_regs;
                        *n_regs += 1;
                        p.set(
                            first.span.1,
                            &[code[first.span.1], Instr::Dup, Instr::LocalSet(s)],
                        );
                        first.scratch = Some(s);
                        s
                    }
                };
                for k in span.0..span.1 {
                    p.set(k, &[]);
                }
                p.set(span.1, &[Instr::LocalGet(scratch)]);
                // The reuse site no longer owns its span.
                val.span = None;
            }
            val
        });
    }
}

// ------------------------------------------------ load forwarding (O2) --

/// Abstract tag for the escape/forwarding scans: either a frame address
/// with a known offset, or anything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    Addr(u32),
    Other,
}

/// The tag [`step`] pushes for `ins` over operands `ops`: a frame address
/// is one until something computes with it; `Dup` copies it.
fn tag_of(ins: Instr, ops: &[Tag]) -> Tag {
    match ins {
        Instr::LocalMemAddr(off) => Tag::Addr(off),
        Instr::Dup => ops[0],
        _ => Tag::Other,
    }
}

/// The frame variable covering `offset` (last match wins, mirroring
/// lexical shadowing).
pub(crate) fn var_at(frame_vars: &[FrameVar], offset: u32) -> Option<&FrameVar> {
    frame_vars
        .iter()
        .rev()
        .find(|v| offset >= v.offset && offset < v.offset + v.size)
}

/// Escape analysis over frame variables: a variable escapes when any
/// `LocalMemAddr` of it is consumed by anything other than the address
/// slot of a direct `Load`/`Store` — address arithmetic (array
/// indexing), a register store (pointer locals), a call argument
/// (`&x` handed to another function or to `pthread_create`), a stored
/// *value* (a pointer written to memory, visible to other threads), or
/// surviving to a block boundary or a return. Only non-escaping
/// variables are eligible for load forwarding: no other thread can
/// possibly hold their address.
fn escaped_vars(code: &[Instr], leaders: &[bool], frame_vars: &[FrameVar]) -> Vec<u32> {
    let mut escaped: Vec<u32> = Vec::new();
    let mut mark = |t: Tag| {
        if let Tag::Addr(off) = t {
            let key = var_at(frame_vars, off).map_or(off, |v| v.offset);
            if !escaped.contains(&key) {
                escaped.push(key);
            }
        }
    };
    let mut stack: Vec<Tag> = Vec::new();
    for (i, &ins) in code.iter().enumerate() {
        // Entries alive across a block boundary or a return lose tracking.
        if leaders[i] || matches!(ins, Instr::Ret | Instr::RetVoid) {
            stack.drain(..).for_each(&mut mark);
        }
        step(ins, &mut stack, Tag::Other, |ops| {
            let consumed = match ins {
                // A direct access's address slot, a copy and a discard
                // do not let an address out.
                Instr::Load(_) | Instr::Dup | Instr::Pop => &[][..],
                Instr::Store(..) => &ops[1..],
                _ => ops,
            };
            consumed.iter().copied().for_each(&mut mark);
            tag_of(ins, ops)
        });
    }
    stack.drain(..).for_each(&mut mark);
    escaped
}

/// One forwardable load occurrence.
struct LoadOcc {
    load_idx: usize,
    scratch: Option<u16>,
}

/// Block-local load forwarding for **non-escaping frame-stack slots**:
/// the second `LocalMemAddr off; Load kind` of the same slot in a block
/// becomes `LocalGet scratch`, with the first load capturing its value
/// (`Dup; LocalSet scratch`).
///
/// Sharing-soundness rules, in order of importance:
///
/// * Only non-escaping slots qualify ([`escaped_vars`]): nobody else —
///   no other thread, no callee, no pointer stored anywhere — can have
///   their address, so no store this pass cannot see can change them.
///   Globals (`PushI` addresses, including every pthread-shared
///   variable) and Shared-region addresses never match the pattern.
/// * Availability dies at every `Call` and every non-pure
///   `CallIntrinsic` — all synchronization operations (mutex, barrier,
///   RCCE put/get/flag) are intrinsics, so forwarding never crosses a
///   sync point even though a non-escaping slot could not be affected.
/// * A direct store into the variable kills its availability; an
///   indirect store (computed address) conservatively kills everything.
/// * Availability is block-local, so the capture dominates every reuse.
fn forward_loads_pass(
    code: &[Instr],
    leaders: &[bool],
    frame_vars: &[FrameVar],
    n_regs: &mut u16,
    p: &mut Patch,
) {
    // The escape analysis is what the pass costs; a function that never
    // loads a frame slot directly has nothing to forward.
    if !code
        .windows(2)
        .any(|w| matches!(w, [Instr::LocalMemAddr(_), Instr::Load(_)]))
    {
        return;
    }
    let escaped = escaped_vars(code, leaders, frame_vars);
    let var_key = |off: u32| var_at(frame_vars, off).map_or(off, |v| v.offset);
    // (slot offset, kind discriminator) → live occurrence.
    let mut avail: FastMap<(u32, crate::value::MemKind), LoadOcc> = FastMap::default();
    let mut stack: Vec<Tag> = Vec::new();
    for (i, &ins) in code.iter().enumerate() {
        if leaders[i] {
            stack.clear();
            avail.clear();
        }
        // Candidate pattern: LocalMemAddr(off) at i, Load(kind) at i+1.
        if let Instr::LocalMemAddr(off) = ins {
            if let Some(Instr::Load(kind)) = code.get(i + 1).copied() {
                let eligible = !leaders[i + 1]
                    && !escaped.contains(&var_key(off))
                    && !p.is_set(i)
                    && !p.is_set(i + 1);
                if eligible {
                    match avail.get_mut(&(off, kind)) {
                        Some(occ) => {
                            let scratch = match occ.scratch {
                                Some(s) => Some(s),
                                None if !p.is_set(occ.load_idx) && *n_regs < u16::MAX - 2 => {
                                    let s = *n_regs;
                                    *n_regs += 1;
                                    p.set(
                                        occ.load_idx,
                                        &[Instr::Load(kind), Instr::Dup, Instr::LocalSet(s)],
                                    );
                                    occ.scratch = Some(s);
                                    Some(s)
                                }
                                None => None,
                            };
                            if let Some(s) = scratch {
                                p.set(i, &[]);
                                p.set(i + 1, &[Instr::LocalGet(s)]);
                            }
                        }
                        None => {
                            avail.insert(
                                (off, kind),
                                LoadOcc {
                                    load_idx: i + 1,
                                    scratch: None,
                                },
                            );
                        }
                    }
                }
            }
        }
        // Kills: a store by its address operand, calls and sync points.
        step(ins, &mut stack, Tag::Other, |ops| {
            match ins {
                Instr::Store(..) => match ops[0] {
                    Tag::Addr(off) => {
                        let key = var_key(off);
                        avail.retain(|&(o, _), _| var_key(o) != key);
                    }
                    Tag::Other => avail.clear(),
                },
                Instr::Call(..) => avail.clear(),
                Instr::CallIntrinsic(intr, _) if !intr.is_pure() => avail.clear(),
                _ => {}
            }
            tag_of(ins, ops)
        });
    }
}

/// Renders a function's bytecode one instruction per line with indices —
/// the listing format `docs/OPTIMIZER.md` uses for worked examples.
pub fn disassemble(code: &[Instr]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (i, ins) in code.iter().enumerate() {
        let _ = writeln!(out, "{i:>4}  {ins}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, STACKS_BASE};
    use crate::data::ByteMemory;
    use crate::instr::Intrinsic;
    use crate::value::MemKind;
    use crate::vm::{StepOutcome, Vm};

    /// Runs one pass over `code` and applies it, as `optimize` does.
    fn apply(code: &mut Vec<Instr>, pass: impl FnOnce(&[Instr], &[bool], &mut Patch)) -> bool {
        Scratch::default().apply(code, pass)
    }

    fn leaders_of(code: &[Instr]) -> Vec<bool> {
        let mut l = Vec::new();
        leaders(code, &mut l);
        l
    }

    /// Runs a single-threaded program to completion, returning its exit
    /// value as i64 (pure-compute corpus for the fixture tests).
    fn run_to_exit(program: &Program) -> i64 {
        let form = crate::form::ExecForm::new(program);
        let mut vm = Vm::new(program, program.entry, vec![], STACKS_BASE);
        let mut mem = ByteMemory::new();
        for _ in 0..1_000_000 {
            match vm.run_until_event(&form).expect("vm step") {
                StepOutcome::Finished { exit } => return exit.as_i(),
                StepOutcome::Load { addr, kind, .. } => vm.provide_load(mem.load(addr, kind)),
                StepOutcome::Store {
                    addr, kind, value, ..
                } => {
                    mem.store(addr, kind, value);
                    vm.store_done();
                }
                StepOutcome::Syscall { .. } => panic!("fixture programs make no syscalls"),
                StepOutcome::Ran { .. } => {}
            }
        }
        panic!("program did not terminate");
    }

    fn compile_src(src: &str) -> Program {
        let tu = hsm_cir::parse(src).expect("parse");
        compile(&tu).expect("compile")
    }

    /// Every level must compute the same exit code as O0, and O2 must
    /// not be larger than the compiler's output.
    fn assert_levels_agree(src: &str) -> (usize, usize) {
        let program = compile_src(src);
        let o0 = run_to_exit(&program);
        let (o1p, _) = optimize_with_stats(&program, OptLevel::O1);
        let (o2p, stats) = optimize_with_stats(&program, OptLevel::O2);
        assert_eq!(o0, run_to_exit(&o1p), "O1 diverged");
        assert_eq!(o0, run_to_exit(&o2p), "O2 diverged");
        assert!(
            stats.instrs_after <= stats.instrs_before,
            "O2 grew the program: {stats:?}"
        );
        (stats.instrs_before, stats.instrs_after)
    }

    #[test]
    fn opt_level_labels_round_trip() {
        for level in OptLevel::ALL {
            assert_eq!(OptLevel::parse(level.label()), Some(level));
        }
        assert_eq!(OptLevel::parse("O3"), None);
        assert_eq!(OptLevel::default(), OptLevel::O0);
        assert!(OptLevel::O1 < OptLevel::O2);
    }

    #[test]
    fn o0_is_an_exact_copy() {
        let program = compile_src("int main() { return 1 + 2; }");
        let (out, stats) = optimize_with_stats(&program, OptLevel::O0);
        assert_eq!(stats.instrs_before, stats.instrs_after);
        for (a, b) in program.funcs.iter().zip(out.funcs.iter()) {
            assert_eq!(a.code, b.code);
        }
    }

    // ---------------------------------------------------- fold fixtures --

    #[test]
    fn folds_constant_binary_chains() {
        let code = vec![
            Instr::PushI(2),
            Instr::PushI(3),
            Instr::Add, // 5
            Instr::PushI(4),
            Instr::Mul, // 20
            Instr::Ret,
        ];
        let mut c = code;
        while apply(&mut c, fold_pass) {}
        assert_eq!(c, vec![Instr::PushI(20), Instr::Ret]);
    }

    #[test]
    fn never_folds_division_by_zero() {
        let code = vec![Instr::PushI(1), Instr::PushI(0), Instr::Div, Instr::Ret];
        let mut c = code.clone();
        assert!(!apply(&mut c, fold_pass), "must stay put");
        assert_eq!(c, code);
    }

    #[test]
    fn folds_mixed_float_promotion_like_the_vm() {
        let code = vec![Instr::PushI(3), Instr::PushF(0.5), Instr::Mul, Instr::Ret];
        let mut c = code;
        apply(&mut c, fold_pass);
        assert_eq!(c, vec![Instr::PushF(1.5), Instr::Ret]);
    }

    #[test]
    fn folds_constant_branches_both_ways() {
        // if (1) → unconditional fallthrough; if (0) → unconditional jump.
        let taken = vec![
            Instr::PushI(0),
            Instr::JumpIfZero(3),
            Instr::Nop,
            Instr::Ret,
        ];
        let mut c = taken;
        apply(&mut c, fold_pass);
        // The folded jump's target is remapped through the rebuild.
        assert!(
            matches!(c[0], Instr::Jump(t) if c[t as usize] == Instr::Ret),
            "{c:?}"
        );
        let fallthrough = vec![
            Instr::PushI(7),
            Instr::JumpIfZero(3),
            Instr::Nop,
            Instr::Ret,
        ];
        let mut c = fallthrough;
        apply(&mut c, fold_pass);
        assert_eq!(c, vec![Instr::Nop, Instr::Ret]);
    }

    #[test]
    fn folds_frame_address_offsets() {
        let code = vec![
            Instr::LocalMemAddr(16),
            Instr::PushI(8),
            Instr::Add,
            Instr::Load(MemKind::I32),
            Instr::Ret,
        ];
        let mut c = code;
        apply(&mut c, fold_pass);
        assert_eq!(c[0], Instr::LocalMemAddr(24));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn propagates_block_local_register_constants() {
        let code = vec![
            Instr::PushI(6),
            Instr::LocalSet(0),
            Instr::LocalGet(0),
            Instr::PushI(7),
            Instr::Mul,
            Instr::Ret,
        ];
        let mut c = code;
        while apply(&mut c, fold_pass) {}
        // The get folded to 42; the dead store remains for DCE.
        assert!(c.contains(&Instr::PushI(42)), "{c:?}");
    }

    #[test]
    fn does_not_propagate_constants_across_jump_targets() {
        // Index 2 is a jump target: the register may arrive with another
        // value, so LocalGet(0) must not fold.
        let code = vec![
            Instr::PushI(6),
            Instr::LocalSet(0),
            Instr::LocalGet(0), // leader (target of 4)
            Instr::Ret,
            Instr::Jump(2),
        ];
        let mut c = code.clone();
        apply(&mut c, fold_pass);
        assert_eq!(c, code);
    }

    #[test]
    fn multi_instruction_folds_respect_interior_leaders() {
        // `PushI 2; PushI 3; Add` where the PushI 3 is a jump target:
        // folding would break the jump-in path.
        let code = vec![
            Instr::PushI(2),
            Instr::PushI(3), // leader (target of 4)
            Instr::Add,
            Instr::Ret,
            Instr::Jump(1),
        ];
        let mut c = code.clone();
        apply(&mut c, fold_pass);
        assert_eq!(c, code);
    }

    // ---------------------------------------------------- jump fixtures --

    #[test]
    fn threads_jump_chains_and_drops_jumps_to_next() {
        let code = vec![
            Instr::JumpIfZero(3), // → 3 which is Jump(5): thread to 5
            Instr::Jump(2),       // jump-to-next: delete
            Instr::PushI(1),
            Instr::Jump(5),
            Instr::PushI(2),
            Instr::Ret,
        ];
        let mut c = code;
        apply(&mut c, |x, _, p| jump_pass(x, p));
        let mut c2 = c.clone();
        // One application threads + deletes; indices remap.
        assert!(c2.iter().all(|i| *i != Instr::Jump(2)));
        assert!(
            matches!(c[0], Instr::JumpIfZero(t) if c[t as usize] == Instr::Ret),
            "{c:?}"
        );
        while apply(&mut c2, |x, _, p| jump_pass(x, p)) {}
    }

    #[test]
    fn conditional_jump_to_next_becomes_pop() {
        let code = vec![
            Instr::PushI(1),
            Instr::JumpIfNotZero(2),
            Instr::PushI(9),
            Instr::Ret,
        ];
        let mut c = code;
        apply(&mut c, |x, _, p| jump_pass(x, p));
        assert_eq!(c[1], Instr::Pop);
    }

    // ----------------------------------------------------- DCE fixtures --

    #[test]
    fn removes_unreachable_code_and_dead_register_stores() {
        let code = vec![
            Instr::PushI(3),
            Instr::LocalSet(1), // never read → Pop
            Instr::Jump(4),
            Instr::PushI(99), // unreachable
            Instr::PushI(7),
            Instr::Ret,
        ];
        let mut c = code;
        while apply(&mut c, |x, _, p| dce_pass(x, p))
            || apply(&mut c, fold_pass)
            || apply(&mut c, |x, _, p| jump_pass(x, p))
        {}
        // push 3 + LocalSet→Pop cancel; unreachable push gone.
        assert_eq!(c, vec![Instr::PushI(7), Instr::Ret]);
    }

    // ------------------------------------------------ strength fixtures --

    #[test]
    fn strength_reduces_proven_integer_multiplies() {
        // Register 0 only ever holds integers (never a parameter here).
        let code = vec![
            Instr::PushI(5),
            Instr::LocalSet(0),
            Instr::LocalGet(0),
            Instr::PushI(8),
            Instr::Mul,
            Instr::Ret,
        ];
        let mut c = code;
        apply(&mut c, |x, l, p| strength_pass(x, l, 0, 1, p));
        assert!(c.contains(&Instr::Shl), "{c:?}");
        assert!(c.contains(&Instr::PushI(3)), "shift amount: {c:?}");
    }

    #[test]
    fn strength_reduction_skips_unproven_operands() {
        // Register 0 is a parameter: its type is unknown, so `x * 8`
        // must stay a multiply (a float argument would promote).
        let code = vec![Instr::LocalGet(0), Instr::PushI(8), Instr::Mul, Instr::Ret];
        let mut c = code.clone();
        assert!(!apply(&mut c, |x, l, p| strength_pass(x, l, 1, 1, p)));
        assert_eq!(c, code);
    }

    #[test]
    fn strength_reduction_skips_float_registers() {
        let code = vec![
            Instr::PushF(1.5),
            Instr::LocalSet(0),
            Instr::LocalGet(0),
            Instr::PushI(8),
            Instr::Mul,
            Instr::Ret,
        ];
        let mut c = code.clone();
        assert!(!apply(&mut c, |x, l, p| strength_pass(x, l, 0, 1, p)));
        assert_eq!(c, code);
    }

    #[test]
    fn integer_identities_are_removed() {
        let code = vec![
            Instr::PushI(5),
            Instr::LocalSet(0),
            Instr::LocalGet(0),
            Instr::PushI(0),
            Instr::Add,
            Instr::PushI(1),
            Instr::Div,
            Instr::Ret,
        ];
        let mut c = code;
        apply(&mut c, |x, l, p| strength_pass(x, l, 0, 1, p));
        assert_eq!(
            c,
            vec![
                Instr::PushI(5),
                Instr::LocalSet(0),
                Instr::LocalGet(0),
                Instr::Ret
            ]
        );
    }

    #[test]
    fn loop_counters_type_as_integers_through_the_fixpoint() {
        // i = 0; i = i + 1 — the self-referential store still proves Int.
        let code = vec![
            Instr::PushI(0),
            Instr::LocalSet(0),
            Instr::LocalGet(0), // leader (loop head)
            Instr::PushI(1),
            Instr::Add,
            Instr::LocalSet(0),
            Instr::LocalGet(0),
            Instr::PushI(10),
            Instr::CmpLt,
            Instr::JumpIfNotZero(2),
            Instr::LocalGet(0),
            Instr::PushI(4),
            Instr::Mul,
            Instr::Ret,
        ];
        let l = leaders_of(&code);
        let ty = register_types(&code, &l, 0, 1);
        assert_eq!(ty[0], Ty::Int);
        let mut c = code;
        apply(&mut c, |x, l, p| strength_pass(x, l, 0, 1, p));
        assert!(c.contains(&Instr::Shl), "{c:?}");
    }

    // ----------------------------------------------------- CSE fixtures --

    #[test]
    fn cse_captures_repeated_pure_expressions() {
        // (r0 * r1 + r2) computed twice in one block.
        let expr = [
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::Mul,
            Instr::LocalGet(2),
            Instr::Add,
        ];
        let mut code: Vec<Instr> = expr.to_vec();
        code.extend_from_slice(&expr);
        code.push(Instr::Add);
        code.push(Instr::Ret);
        let mut n_regs = 3u16;
        let mut c = code;
        assert!(apply(&mut c, |x, l, p| cse_pass(x, l, &mut n_regs, p)));
        assert_eq!(n_regs, 4, "one scratch register allocated");
        assert!(c.contains(&Instr::LocalGet(3)), "{c:?}");
        assert!(c.contains(&Instr::LocalSet(3)), "{c:?}");
        // The second occurrence collapsed: only one Mul remains.
        assert_eq!(c.iter().filter(|i| **i == Instr::Mul).count(), 1);
    }

    #[test]
    fn cse_respects_register_reassignment() {
        let mut n_regs = 2u16;
        let code = vec![
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::Mul,
            Instr::PushI(9),
            Instr::LocalSet(0), // r0 changes: the VN is stale
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::Mul,
            Instr::Add,
            Instr::Ret,
        ];
        let mut c = code.clone();
        assert!(!apply(&mut c, |x, l, p| cse_pass(x, l, &mut n_regs, p)));
        assert_eq!(c, code);
    }

    #[test]
    fn cse_never_crosses_block_boundaries() {
        let mut n_regs = 2u16;
        let code = vec![
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::Mul,
            Instr::Pop,
            Instr::LocalGet(0), // leader: jumped to from 9
            Instr::LocalGet(1),
            Instr::Mul,
            Instr::Ret,
            Instr::PushI(1),
            Instr::Jump(4),
        ];
        let mut c = code.clone();
        assert!(!apply(&mut c, |x, l, p| cse_pass(x, l, &mut n_regs, p)));
        assert_eq!(c, code);
    }

    #[test]
    fn cse_never_caches_loads() {
        // Two identical global loads must both stay: another thread can
        // write the location between them.
        let mut n_regs = 0u16;
        let code = vec![
            Instr::PushI(0x1000_0000),
            Instr::Load(MemKind::I32),
            Instr::PushI(0x1000_0000),
            Instr::Load(MemKind::I32),
            Instr::Add,
            Instr::Ret,
        ];
        let mut c = code.clone();
        assert!(!apply(&mut c, |x, l, p| cse_pass(x, l, &mut n_regs, p)));
        assert_eq!(c, code);
        assert_eq!(n_regs, 0);
    }

    // ----------------------------------------- load-forwarding fixtures --

    fn scalar_var(offset: u32, size: u32) -> FrameVar {
        FrameVar {
            name: format!("v{offset}"),
            offset,
            size,
        }
    }

    #[test]
    fn forwards_repeated_loads_of_private_slots() {
        let vars = [scalar_var(0, 4)];
        let code = vec![
            Instr::LocalMemAddr(0),
            Instr::Load(MemKind::I32),
            Instr::LocalMemAddr(0),
            Instr::Load(MemKind::I32),
            Instr::Add,
            Instr::Ret,
        ];
        let mut n_regs = 0u16;
        let mut c = code;
        assert!(apply(&mut c, |x, l, p| forward_loads_pass(
            x,
            l,
            &vars,
            &mut n_regs,
            p
        )));
        assert_eq!(
            c,
            vec![
                Instr::LocalMemAddr(0),
                Instr::Load(MemKind::I32),
                Instr::Dup,
                Instr::LocalSet(0),
                Instr::LocalGet(0),
                Instr::Add,
                Instr::Ret,
            ]
        );
    }

    #[test]
    fn never_forwards_escaping_slots() {
        // The slot's address is passed to a call: another thread may
        // write it, every load must go to memory.
        let vars = [scalar_var(0, 4)];
        let code = vec![
            Instr::LocalMemAddr(0),
            Instr::CallIntrinsic(Intrinsic::PthreadCreate, 1),
            Instr::Pop,
            Instr::LocalMemAddr(0),
            Instr::Load(MemKind::I32),
            Instr::LocalMemAddr(0),
            Instr::Load(MemKind::I32),
            Instr::Add,
            Instr::Ret,
        ];
        let mut n_regs = 0u16;
        let mut c = code.clone();
        assert!(!apply(&mut c, |x, l, p| forward_loads_pass(
            x,
            l,
            &vars,
            &mut n_regs,
            p
        )));
        assert_eq!(c, code);
    }

    #[test]
    fn forwarding_dies_at_sync_intrinsics() {
        let vars = [scalar_var(0, 4)];
        let code = vec![
            Instr::LocalMemAddr(0),
            Instr::Load(MemKind::I32),
            Instr::Pop,
            Instr::PushI(0),
            Instr::CallIntrinsic(Intrinsic::RcceBarrier, 1),
            Instr::Pop,
            Instr::LocalMemAddr(0),
            Instr::Load(MemKind::I32),
            Instr::Ret,
        ];
        let mut n_regs = 0u16;
        let mut c = code.clone();
        assert!(!apply(&mut c, |x, l, p| forward_loads_pass(
            x,
            l,
            &vars,
            &mut n_regs,
            p
        )));
        assert_eq!(c, code);
    }

    #[test]
    fn forwarding_dies_at_direct_stores() {
        let vars = [scalar_var(0, 4)];
        let code = vec![
            Instr::LocalMemAddr(0),
            Instr::Load(MemKind::I32),
            Instr::Pop,
            Instr::LocalMemAddr(0),
            Instr::PushI(5),
            Instr::Store(MemKind::I32, false),
            Instr::LocalMemAddr(0),
            Instr::Load(MemKind::I32),
            Instr::Ret,
        ];
        let mut n_regs = 0u16;
        let mut c = code.clone();
        assert!(!apply(&mut c, |x, l, p| forward_loads_pass(
            x,
            l,
            &vars,
            &mut n_regs,
            p
        )));
        assert_eq!(c, code);
    }

    #[test]
    fn pointer_escapes_via_register_and_memory_are_detected() {
        let vars = [scalar_var(0, 4), scalar_var(4, 8)];
        // &v0 stored into a register (pointer local): v0 escapes.
        let via_reg = vec![Instr::LocalMemAddr(0), Instr::LocalSet(0), Instr::RetVoid];
        let l = leaders_of(&via_reg);
        assert_eq!(escaped_vars(&via_reg, &l, &vars), vec![0]);
        // &v0 stored *as a value* into memory: v0 escapes.
        let via_mem = vec![
            Instr::PushI(0x1000_0000),
            Instr::LocalMemAddr(0),
            Instr::Store(MemKind::I64, false),
            Instr::RetVoid,
        ];
        let l = leaders_of(&via_mem);
        assert_eq!(escaped_vars(&via_mem, &l, &vars), vec![0]);
        // Indexing arithmetic escapes the array var.
        let via_arith = vec![
            Instr::LocalMemAddr(4),
            Instr::PushI(0),
            Instr::Add,
            Instr::Load(MemKind::I64),
            Instr::Pop,
            Instr::RetVoid,
        ];
        let l = leaders_of(&via_arith);
        assert_eq!(escaped_vars(&via_arith, &l, &vars), vec![4]);
    }

    // --------------------------------------------- end-to-end fixtures --

    #[test]
    fn folds_match_vm_arithmetic() {
        // Cross-check the fold semantics against the running VM on a
        // grid of operand pairs, including negatives and floats.
        let ops = [
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
            Instr::CmpLt,
            Instr::CmpLe,
            Instr::CmpGt,
            Instr::CmpGe,
            Instr::CmpEq,
            Instr::CmpNe,
        ];
        let operands = [
            Value::I(0),
            Value::I(1),
            Value::I(-7),
            Value::I(i64::MAX),
            Value::F(2.5),
            Value::F(-0.0),
        ];
        let mut program = compile_src("int main() { return 0; }");
        for op in ops {
            for l in operands {
                for r in operands {
                    let Some(folded) = fold_binary(op, l, r) else {
                        continue;
                    };
                    program.funcs[program.entry as usize].code =
                        vec![push_const(l), push_const(r), op, Instr::F2I, Instr::Ret];
                    let vm_result = run_to_exit(&program);
                    assert_eq!(
                        vm_result,
                        folded.as_i(),
                        "fold of {op:?} {l:?} {r:?} diverged from the VM"
                    );
                }
            }
        }
    }

    #[test]
    fn whole_programs_agree_across_levels() {
        let before_after = assert_levels_agree(
            r#"
int main() {
    int a[4];
    int i;
    int s = 0;
    for (i = 0; i < 4; i++) a[i] = i * 8 + 3;
    for (i = 0; i < 4; i++) s = s + a[i];
    s = s + a[0] + a[3];
    s = s + 2 * 3;
    return s;
}
"#,
        );
        assert!(
            before_after.1 < before_after.0,
            "O2 should shrink this program: {before_after:?}"
        );
    }

    #[test]
    fn switch_and_division_programs_agree_across_levels() {
        assert_levels_agree(
            r#"
int classify(int x) {
    switch (x % 3) {
        case 0: return 10;
        case 1: return 20;
        default: return 30;
    }
}
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 9; i++) s = s + classify(i) / 1 + i * 1 + 0;
    return s;
}
"#,
        );
    }

    #[test]
    fn float_programs_agree_across_levels() {
        assert_levels_agree(
            r#"
int main() {
    double x = 0.5;
    double y = x * 2.0 + 1.5 * 4.0;
    int i;
    for (i = 0; i < 3; i++) y = y + 0.25;
    return (int)(y * 10.0);
}
"#,
        );
    }

    #[test]
    fn optimizer_reaches_a_fixpoint() {
        let program = compile_src(
            r#"
int main() {
    int i; int s = 0;
    for (i = 0; i < 10; i++) s = s + i * 4 + 2 * 2;
    return s;
}
"#,
        );
        let once = optimize(&program, OptLevel::O2);
        let twice = optimize(&once, OptLevel::O2);
        for (a, b) in once.funcs.iter().zip(twice.funcs.iter()) {
            assert_eq!(a.code, b.code, "second optimize must be a no-op");
        }
    }

    // ------------------------------------------------ the abstract stack --

    /// `step` over `stack` with an `eval` that records its operands and
    /// returns 9; 0 stands for a missing operand.
    fn step_u8(ins: Instr, stack: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let mut stack = stack.to_vec();
        let mut operands = Vec::new();
        step(ins, &mut stack, 0, |ops| {
            operands = ops.to_vec();
            9
        });
        (stack, operands)
    }

    #[test]
    fn step_shapes_the_stack_where_a_plain_pop_and_push_would_not() {
        // Operands pushed before a jump target are missing, and they are
        // the deepest: `Swap` over one entry, `Rot3` over two, `Dup` over
        // none.
        assert_eq!(step_u8(Instr::Swap, &[1]), (vec![1, 0], vec![]));
        assert_eq!(step_u8(Instr::Rot3, &[1, 2]), (vec![1, 2, 0], vec![]));
        assert_eq!(step_u8(Instr::Dup, &[]), (vec![0, 9], vec![0]));
        assert_eq!(step_u8(Instr::Sub, &[1]), (vec![9], vec![0, 1]));
        assert_eq!(step_u8(Instr::Swap, &[1, 2, 3]), (vec![1, 3, 2], vec![]));
        assert_eq!(step_u8(Instr::Rot3, &[1, 2, 3]), (vec![2, 3, 1], vec![]));
        assert_eq!(step_u8(Instr::Dup, &[1, 2]), (vec![1, 2, 9], vec![2]));
        // A store hands over address then value; only `keep` pushes.
        let kept = Instr::Store(MemKind::F64, true);
        assert_eq!(step_u8(kept, &[5, 1, 2]), (vec![5, 9], vec![1, 2]));
        let dropped = Instr::Store(MemKind::F64, false);
        assert_eq!(step_u8(dropped, &[5, 1, 2]), (vec![5], vec![1, 2]));
        // The type scan's `eval` re-pushes the stored value's type.
        let mut types = vec![Ty::Int, Ty::Float];
        sim_types(kept, &mut types, &[]);
        assert_eq!(types, vec![Ty::Float]);
        // A return empties the stack.
        assert_eq!(step_u8(Instr::Ret, &[1, 2, 3]), (vec![], vec![3]));
        assert_eq!(step_u8(Instr::RetVoid, &[1, 2]), (vec![], vec![]));
        // A call takes its arguments, deepest first, and pushes a result.
        assert_eq!(
            step_u8(Instr::Call(0, 3), &[7, 1, 2, 3]),
            (vec![7, 9], vec![1, 2, 3])
        );
    }

    /// One instruction of each opcode, or `None` where it transfers
    /// control. A jump to the next instruction does not.
    fn sample(op: Op) -> Option<Instr> {
        let next = 5; // after four pushes and the sample itself
        Some(match op {
            Op::PushI => Instr::PushI(8),
            Op::PushF => Instr::PushF(0.5),
            Op::LocalGet => Instr::LocalGet(0),
            Op::LocalSet => Instr::LocalSet(0),
            Op::LocalMemAddr => Instr::LocalMemAddr(0),
            Op::Load => Instr::Load(MemKind::I32),
            Op::Store => Instr::Store(MemKind::I32, true),
            Op::Dup => Instr::Dup,
            Op::Pop => Instr::Pop,
            Op::Swap => Instr::Swap,
            Op::Rot3 => Instr::Rot3,
            Op::Add => Instr::Add,
            Op::Sub => Instr::Sub,
            Op::Mul => Instr::Mul,
            Op::Div => Instr::Div,
            Op::Rem => Instr::Rem,
            Op::Shl => Instr::Shl,
            Op::Shr => Instr::Shr,
            Op::BitAnd => Instr::BitAnd,
            Op::BitOr => Instr::BitOr,
            Op::BitXor => Instr::BitXor,
            Op::Neg => Instr::Neg,
            Op::Not => Instr::Not,
            Op::BitNot => Instr::BitNot,
            Op::CmpLt => Instr::CmpLt,
            Op::CmpLe => Instr::CmpLe,
            Op::CmpGt => Instr::CmpGt,
            Op::CmpGe => Instr::CmpGe,
            Op::CmpEq => Instr::CmpEq,
            Op::CmpNe => Instr::CmpNe,
            Op::I2F => Instr::I2F,
            Op::F2I => Instr::F2I,
            Op::Jump => Instr::Jump(next),
            Op::JumpIfZero => Instr::JumpIfZero(next),
            Op::JumpIfNotZero => Instr::JumpIfNotZero(next),
            Op::CallIntrinsic => Instr::CallIntrinsic(Intrinsic::Printf, 2),
            Op::Nop => Instr::Nop,
            Op::Call | Op::Ret | Op::RetVoid => return None,
        })
    }

    #[test]
    fn step_moves_the_stack_as_the_reference_interpreter_does() {
        let mut program = compile_src("int main() { int a; a = 1; return a; }");
        let entry = program.entry as usize;
        for op in Op::ALL {
            let Some(ins) = sample(op) else { continue };
            // Four operands, the sample, then a syscall that takes none:
            // the VM stops there with the sample's stack.
            let mut code = vec![Instr::PushI(8); 4];
            code.extend([ins, Instr::CallIntrinsic(Intrinsic::RcceUe, 0)]);
            program.funcs[entry].code = code;
            let mut vm = Vm::new(&program, program.entry, vec![], STACKS_BASE);
            loop {
                match vm.run_until_event_matched(&program).expect("runs") {
                    StepOutcome::Load { .. } => vm.provide_load(Value::I(1)),
                    StepOutcome::Store { .. } => vm.store_done(),
                    StepOutcome::Syscall {
                        intrinsic: Intrinsic::RcceUe,
                        ..
                    } => break,
                    StepOutcome::Syscall { .. } => vm.syscall_return(Value::I(0)),
                    StepOutcome::Ran { .. } => {}
                    StepOutcome::Finished { .. } => panic!("{ins:?}: returned"),
                }
            }
            let mut stack = vec![0u8; 4];
            step(ins, &mut stack, 0, |_| 0);
            assert_eq!(stack.len(), vm.stack_depth(), "{ins:?}");
        }
    }
}
