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
use crate::instr::Instr;
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

/// Simulates one instruction over the abstract type stack. `set` observes
/// every `LocalSet`'s stored type.
fn sim_types(ins: Instr, stack: &mut Vec<Ty>, reg_ty: &[Ty], mut set: impl FnMut(u16, Ty)) {
    let pop = |stack: &mut Vec<Ty>| stack.pop().unwrap_or(Ty::Unknown);
    match ins {
        Instr::PushI(_) | Instr::LocalMemAddr(_) => stack.push(Ty::Int),
        Instr::PushF(_) => stack.push(Ty::Float),
        Instr::LocalGet(r) => stack.push(reg_ty.get(r as usize).copied().unwrap_or(Ty::Unknown)),
        Instr::LocalSet(r) => {
            let t = pop(stack);
            set(r, t);
        }
        Instr::Load(k) => {
            pop(stack);
            stack.push(if k.is_float() { Ty::Float } else { Ty::Int });
        }
        Instr::Store(_, keep) => {
            let v = pop(stack);
            pop(stack);
            if keep {
                // Store(keep) re-pushes the original, pre-narrowing value.
                stack.push(v);
            }
        }
        Instr::Dup => {
            let t = stack.last().copied().unwrap_or(Ty::Unknown);
            stack.push(t);
        }
        Instr::Pop => {
            pop(stack);
        }
        Instr::Swap => {
            let b = pop(stack);
            let a = pop(stack);
            stack.push(b);
            stack.push(a);
        }
        Instr::Rot3 => {
            let c = pop(stack);
            let b = pop(stack);
            let a = pop(stack);
            stack.push(b);
            stack.push(c);
            stack.push(a);
        }
        Instr::Add | Instr::Sub | Instr::Mul | Instr::Div | Instr::Rem => {
            let b = pop(stack);
            let a = pop(stack);
            stack.push(match (a, b) {
                (Ty::Float, _) | (_, Ty::Float) => Ty::Float,
                (Ty::Int, Ty::Int) => Ty::Int,
                _ => Ty::Unknown,
            });
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
        | Instr::CmpNe => {
            pop(stack);
            pop(stack);
            stack.push(Ty::Int);
        }
        Instr::Not | Instr::BitNot | Instr::F2I => {
            pop(stack);
            stack.push(Ty::Int);
        }
        Instr::Neg => {
            let t = pop(stack);
            stack.push(t);
        }
        Instr::I2F => {
            pop(stack);
            stack.push(Ty::Float);
        }
        Instr::Jump(_) | Instr::Nop => {}
        Instr::JumpIfZero(_) | Instr::JumpIfNotZero(_) => {
            pop(stack);
        }
        Instr::Call(_, n) => {
            for _ in 0..n {
                pop(stack);
            }
            stack.push(Ty::Unknown);
        }
        Instr::CallIntrinsic(intr, n) => {
            for _ in 0..n {
                pop(stack);
            }
            stack.push(if intr.is_pure() {
                Ty::Float
            } else {
                Ty::Unknown
            });
        }
        Instr::Ret => {
            pop(stack);
            stack.clear();
        }
        Instr::RetVoid => stack.clear(),
    }
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
    loop {
        let mut changed = false;
        let mut stack: Vec<Ty> = Vec::new();
        for (i, ins) in code.iter().enumerate() {
            if leaders[i] {
                stack.clear();
            }
            // The instruction reads the types it starts with; its store
            // lands after it.
            let mut stored = None;
            sim_types(*ins, &mut stack, &ty, |r, t| stored = Some((r, t)));
            if let Some(slot) = stored.and_then(|(r, t)| Some((ty.get_mut(r as usize)?, t))) {
                let m = meet(*slot.0, slot.1);
                if m != *slot.0 {
                    *slot.0 = m;
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
    let reg_ty = register_types(code, leaders, n_params, n_regs);
    let mut stack: Vec<Ty> = Vec::new();
    for (i, ins) in code.iter().enumerate() {
        if leaders[i] {
            stack.clear();
        }
        let free2 = i + 1 < code.len() && !leaders[i + 1];
        if free2 {
            // At this point the abstract stack top is the *left* operand
            // of the binary op at i+1 (code[i] pushes the right one).
            let left = stack.last().copied().unwrap_or(Ty::Unknown);
            if let Instr::PushI(c) = *ins {
                if left == Ty::Int && !p.is_set(i) && !p.is_set(i + 1) {
                    match code[i + 1] {
                        Instr::Mul if c == 1 => {
                            p.set(i, &[]);
                            p.set(i + 1, &[]);
                        }
                        Instr::Mul if c > 1 && (c & (c - 1)) == 0 => {
                            p.set(i, &[Instr::PushI(i64::from(c.trailing_zeros()))]);
                            p.set(i + 1, &[Instr::Shl]);
                        }
                        Instr::Add | Instr::Sub if c == 0 => {
                            p.set(i, &[]);
                            p.set(i + 1, &[]);
                        }
                        Instr::Div if c == 1 => {
                            p.set(i, &[]);
                            p.set(i + 1, &[]);
                        }
                        Instr::Shl | Instr::Shr if c == 0 => {
                            p.set(i, &[]);
                            p.set(i + 1, &[]);
                        }
                        _ => {}
                    }
                }
            }
        }
        // Simulate the *original* instruction: the rewrites above are
        // type-preserving, so the abstract stack stays accurate.
        sim_types(*ins, &mut stack, &reg_ty, |_, _| {});
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
    let mut next_vn = 0u32;
    let mut vn_of = |key: VnKey, vns: &mut FastMap<VnKey, u32>| -> u32 {
        *vns.entry(key).or_insert_with(|| {
            next_vn += 1;
            next_vn
        })
    };
    let mut gen: FastMap<u16, u32> = FastMap::default();
    let mut avail: FastMap<u32, FirstOcc> = FastMap::default();
    let mut stack: Vec<SymVal> = Vec::new();

    for (i, ins) in code.iter().enumerate() {
        if leaders[i] {
            stack.clear();
            avail.clear();
        }
        let produced: Option<SymVal> = match *ins {
            Instr::PushI(c) => Some(SymVal {
                vn: Some(vn_of(VnKey::ConstI(c), &mut vns)),
                span: Some((i, i)),
            }),
            Instr::PushF(f) => Some(SymVal {
                vn: Some(vn_of(VnKey::ConstF(f.to_bits()), &mut vns)),
                span: Some((i, i)),
            }),
            Instr::LocalMemAddr(off) => Some(SymVal {
                vn: Some(vn_of(VnKey::Mem(off), &mut vns)),
                span: Some((i, i)),
            }),
            Instr::LocalGet(r) => Some(SymVal {
                vn: Some(vn_of(VnKey::Reg(r, *gen.get(&r).unwrap_or(&0)), &mut vns)),
                span: Some((i, i)),
            }),
            Instr::Neg | Instr::Not | Instr::BitNot | Instr::I2F | Instr::F2I => {
                let a = stack.pop().unwrap_or_else(SymVal::opaque);
                let vn = a.vn.map(|v| vn_of(VnKey::Un(ins.op(), v), &mut vns));
                let span = a.span.filter(|&(_, e)| e + 1 == i).map(|(s, _)| (s, i));
                Some(SymVal { vn, span })
            }
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
                let b = stack.pop().unwrap_or_else(SymVal::opaque);
                let a = stack.pop().unwrap_or_else(SymVal::opaque);
                let vn = match (a.vn, b.vn) {
                    (Some(x), Some(y)) => Some(vn_of(VnKey::Bin(ins.op(), x, y), &mut vns)),
                    _ => None,
                };
                // Contiguous only when a's span, b's span and the op abut.
                let span = match (a.span, b.span) {
                    (Some((sa, ea)), Some((sb, eb))) if ea + 1 == sb && eb + 1 == i => {
                        Some((sa, i))
                    }
                    _ => None,
                };
                Some(SymVal { vn, span })
            }
            Instr::LocalSet(r) => {
                stack.pop();
                *gen.entry(r).or_insert(0) += 1;
                None
            }
            Instr::Load(_) => {
                stack.pop();
                Some(SymVal::opaque())
            }
            Instr::Store(_, keep) => {
                stack.pop();
                stack.pop();
                if keep {
                    Some(SymVal::opaque())
                } else {
                    None
                }
            }
            Instr::Dup => {
                // The copy shares the value but not the producing span —
                // two entries must never both claim the same indices.
                let top = stack.last().copied().unwrap_or_else(SymVal::opaque);
                Some(SymVal {
                    vn: top.vn,
                    span: None,
                })
            }
            Instr::Pop => {
                stack.pop();
                None
            }
            Instr::Swap => {
                let b = stack.pop().unwrap_or_else(SymVal::opaque);
                let a = stack.pop().unwrap_or_else(SymVal::opaque);
                stack.push(b);
                stack.push(a);
                None
            }
            Instr::Rot3 => {
                let c = stack.pop().unwrap_or_else(SymVal::opaque);
                let b = stack.pop().unwrap_or_else(SymVal::opaque);
                let a = stack.pop().unwrap_or_else(SymVal::opaque);
                stack.push(b);
                stack.push(c);
                stack.push(a);
                None
            }
            Instr::Jump(_) | Instr::Nop => None,
            Instr::JumpIfZero(_) | Instr::JumpIfNotZero(_) => {
                stack.pop();
                None
            }
            Instr::Call(_, n) => {
                for _ in 0..n {
                    stack.pop();
                }
                Some(SymVal::opaque())
            }
            Instr::CallIntrinsic(_, n) => {
                for _ in 0..n {
                    stack.pop();
                }
                Some(SymVal::opaque())
            }
            Instr::Ret | Instr::RetVoid => {
                stack.clear();
                None
            }
        };
        let Some(mut val) = produced else { continue };
        // A completed pure expression worth caching: capture or reuse.
        if let (Some(vn), Some(span)) = (val.vn, val.span) {
            if span.1 == i && worth_caching(code, span) {
                match avail.get_mut(&vn) {
                    Some(first) => {
                        let capture_ok = first.scratch.is_some()
                            || (!p.is_set(first.span.1) && *n_regs < u16::MAX - 2);
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
                    }
                    None => {
                        avail.insert(
                            vn,
                            FirstOcc {
                                span,
                                scratch: None,
                            },
                        );
                    }
                }
            }
        }
        stack.push(val);
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
/// surviving to a block boundary. Only non-escaping variables are
/// eligible for load forwarding: no other thread can possibly hold
/// their address.
fn escaped_vars(code: &[Instr], leaders: &[bool], frame_vars: &[FrameVar]) -> Vec<u32> {
    let mut escaped: Vec<u32> = Vec::new();
    let mark = |escaped: &mut Vec<u32>, off: u32| {
        let key = var_at(frame_vars, off).map_or(off, |v| v.offset);
        if !escaped.contains(&key) {
            escaped.push(key);
        }
    };
    let mut stack: Vec<Tag> = Vec::new();
    let flush = |stack: &mut Vec<Tag>, escaped: &mut Vec<u32>| {
        for t in stack.drain(..) {
            if let Tag::Addr(off) = t {
                mark(escaped, off);
            }
        }
    };
    for (i, ins) in code.iter().enumerate() {
        if leaders[i] {
            // Entries alive across a block boundary lose tracking.
            flush(&mut stack, &mut escaped);
        }
        let pop = |stack: &mut Vec<Tag>| stack.pop().unwrap_or(Tag::Other);
        let consume = |stack: &mut Vec<Tag>, escaped: &mut Vec<u32>| {
            if let Tag::Addr(off) = pop(stack) {
                mark(escaped, off);
            }
        };
        match *ins {
            Instr::LocalMemAddr(off) => stack.push(Tag::Addr(off)),
            Instr::PushI(_) | Instr::PushF(_) | Instr::LocalGet(_) => stack.push(Tag::Other),
            Instr::Load(_) => {
                pop(&mut stack); // address slot of a direct load: fine
                stack.push(Tag::Other);
            }
            Instr::Store(_, keep) => {
                // A frame address stored *as the value* escapes.
                consume(&mut stack, &mut escaped);
                pop(&mut stack); // address slot of a direct store: fine
                if keep {
                    stack.push(Tag::Other);
                }
            }
            Instr::Dup => {
                let t = stack.last().copied().unwrap_or(Tag::Other);
                stack.push(t);
            }
            Instr::Pop => {
                pop(&mut stack);
            }
            Instr::Swap => {
                let b = pop(&mut stack);
                let a = pop(&mut stack);
                stack.push(b);
                stack.push(a);
            }
            Instr::Rot3 => {
                let c = pop(&mut stack);
                let b = pop(&mut stack);
                let a = pop(&mut stack);
                stack.push(b);
                stack.push(c);
                stack.push(a);
            }
            Instr::LocalSet(_) => consume(&mut stack, &mut escaped),
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
                consume(&mut stack, &mut escaped);
                consume(&mut stack, &mut escaped);
                stack.push(Tag::Other);
            }
            Instr::Neg | Instr::Not | Instr::BitNot | Instr::I2F | Instr::F2I => {
                consume(&mut stack, &mut escaped);
                stack.push(Tag::Other);
            }
            Instr::Jump(_) | Instr::Nop => {}
            Instr::JumpIfZero(_) | Instr::JumpIfNotZero(_) => {
                consume(&mut stack, &mut escaped);
            }
            Instr::Call(_, n) | Instr::CallIntrinsic(_, n) => {
                for _ in 0..n {
                    consume(&mut stack, &mut escaped);
                }
                stack.push(Tag::Other);
            }
            Instr::Ret => {
                consume(&mut stack, &mut escaped);
                flush(&mut stack, &mut escaped);
            }
            Instr::RetVoid => flush(&mut stack, &mut escaped),
        }
    }
    flush(&mut stack, &mut escaped);
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
    let escaped = escaped_vars(code, leaders, frame_vars);
    let var_key = |off: u32| var_at(frame_vars, off).map_or(off, |v| v.offset);
    // (slot offset, kind discriminator) → live occurrence.
    let mut avail: FastMap<(u32, crate::value::MemKind), LoadOcc> = FastMap::default();
    let mut stack: Vec<Tag> = Vec::new();
    for (i, ins) in code.iter().enumerate() {
        if leaders[i] {
            stack.clear();
            avail.clear();
        }
        // Candidate pattern: LocalMemAddr(off) at i, Load(kind) at i+1.
        if let Instr::LocalMemAddr(off) = *ins {
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
        // Kills, tracked over the same tag stack as the escape scan.
        match *ins {
            Instr::Store(_, _) => {
                // Peek the address slot (below the value) before the
                // generic simulation pops it.
                let addr = stack
                    .len()
                    .checked_sub(2)
                    .and_then(|k| stack.get(k))
                    .copied()
                    .unwrap_or(Tag::Other);
                match addr {
                    Tag::Addr(off) => {
                        let key = var_key(off);
                        avail.retain(|&(o, _), _| var_key(o) != key);
                    }
                    Tag::Other => avail.clear(),
                }
            }
            Instr::Call(..) => avail.clear(),
            Instr::CallIntrinsic(intr, _) if !intr.is_pure() => avail.clear(),
            _ => {}
        }
        sim_tags(*ins, &mut stack);
    }
}

/// Tag-stack simulation shared by the forwarding scan (escape analysis
/// runs its own copy because it also marks consumers).
fn sim_tags(ins: Instr, stack: &mut Vec<Tag>) {
    let pop = |stack: &mut Vec<Tag>| stack.pop().unwrap_or(Tag::Other);
    match ins {
        Instr::LocalMemAddr(off) => stack.push(Tag::Addr(off)),
        Instr::PushI(_) | Instr::PushF(_) | Instr::LocalGet(_) => stack.push(Tag::Other),
        Instr::Load(_) => {
            pop(stack);
            stack.push(Tag::Other);
        }
        Instr::Store(_, keep) => {
            pop(stack);
            pop(stack);
            if keep {
                stack.push(Tag::Other);
            }
        }
        Instr::Dup => {
            let t = stack.last().copied().unwrap_or(Tag::Other);
            stack.push(t);
        }
        Instr::Pop | Instr::LocalSet(_) | Instr::JumpIfZero(_) | Instr::JumpIfNotZero(_) => {
            pop(stack);
        }
        Instr::Swap => {
            let b = pop(stack);
            let a = pop(stack);
            stack.push(b);
            stack.push(a);
        }
        Instr::Rot3 => {
            let c = pop(stack);
            let b = pop(stack);
            let a = pop(stack);
            stack.push(b);
            stack.push(c);
            stack.push(a);
        }
        Instr::Neg | Instr::Not | Instr::BitNot | Instr::I2F | Instr::F2I => {
            pop(stack);
            stack.push(Tag::Other);
        }
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
            pop(stack);
            pop(stack);
            stack.push(Tag::Other);
        }
        Instr::Jump(_) | Instr::Nop => {}
        Instr::Call(_, n) | Instr::CallIntrinsic(_, n) => {
            for _ in 0..n {
                pop(stack);
            }
            stack.push(Tag::Other);
        }
        Instr::Ret => {
            pop(stack);
            stack.clear();
        }
        Instr::RetVoid => stack.clear(),
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
}
