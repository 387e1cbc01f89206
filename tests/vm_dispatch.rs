//! Differential property: the production dispatch loop ≡ the plain
//! reference interpreter.
//!
//! `Vm::run_until_event` dispatches over the program's `ExecForm` —
//! fused forms that name an operator's operands in place — keeps the
//! running frame's state in locals and writes it back only at suspension
//! points, calls, returns and faults; `Vm::run_until_event_matched` is the
//! instruction set itself as one plain `match` over `self`'s fields. A
//! form that commits when it must not, a stale write-back, an in-place
//! stack edit that leaves the wrong value, or a slice that ends one
//! instruction early or late shows up here as a divergence in outcomes,
//! faults, or final VM state on a generated instruction corpus —
//! including deliberately malformed programs, because fault messages are
//! part of the contract.
//!
//! Two generators. The uniform one draws every opcode alike and is pinned
//! to emit all of them, so the property cannot silently stop covering part
//! of the instruction set; it produces a fusable pattern about once per
//! hundred slots. The weighted one writes what the compiler writes —
//! operands, operator, sink — so that nearly every slot is a fused form,
//! then breaks it the ways bytecode can be broken: register slots out of
//! range, immediates either side of `i32::MAX`, zero divisors, shallow
//! stacks, jumps into the middle of a pattern, and counted loops long
//! enough for the slice valve to land inside a form.
//!
//! A third source is no generator at all: the bytecode the compiler emits
//! for the six paper kernels and the corpus, at `O0` and `O2`, run function
//! by function over a real memory.

use hsm_core::api::{OptLevel, Pipeline, Scenario};
use hsm_vm::ByteMemory;
use hsm_vm::MemKind;
use hsm_vm::Op;
use hsm_vm::{ExecForm, Instr, Intrinsic, Value};
use hsm_vm::{Function, Program, STACKS_BASE};
use hsm_vm::{StepOutcome, Vm};
use hsm_workloads::{Bench, Params};
use std::collections::HashSet;
use std::sync::Arc;
use testkit::SplitMix64;

const KINDS: [MemKind; 6] = [
    MemKind::I8,
    MemKind::I16,
    MemKind::I32,
    MemKind::I64,
    MemKind::F32,
    MemKind::F64,
];

/// One random instruction. Payloads are drawn small so programs exercise
/// both the happy paths and every fault path (bad slots, wild jumps,
/// out-of-range call targets, intrinsics short of arguments).
fn gen_instr(rng: &mut SplitMix64, code_len: u32) -> Instr {
    match Op::ALL[rng.gen_range_usize(0, Op::COUNT)] {
        Op::PushI => Instr::PushI(rng.gen_range_i64(-64, 64)),
        Op::PushF => Instr::PushF(rng.gen_range_i64(-16, 16) as f64 / 2.0),
        Op::LocalGet => Instr::LocalGet(rng.gen_range_usize(0, 6) as u16),
        Op::LocalSet => Instr::LocalSet(rng.gen_range_usize(0, 6) as u16),
        Op::LocalMemAddr => Instr::LocalMemAddr(rng.gen_range_usize(0, 64) as u32),
        Op::Load => Instr::Load(*rng.choose(&KINDS)),
        Op::Store => Instr::Store(*rng.choose(&KINDS), rng.gen_bool()),
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
        Op::Jump => Instr::Jump(rng.gen_range_usize(0, code_len as usize + 4) as u32),
        Op::JumpIfZero => Instr::JumpIfZero(rng.gen_range_usize(0, code_len as usize + 4) as u32),
        Op::JumpIfNotZero => {
            Instr::JumpIfNotZero(rng.gen_range_usize(0, code_len as usize + 4) as u32)
        }
        Op::Call => Instr::Call(
            rng.gen_range_usize(0, 3) as u32, // index 2 is out of range
            rng.gen_range_usize(0, 3) as u8,
        ),
        Op::CallIntrinsic => {
            let intr = *rng.choose(&[
                Intrinsic::Sqrt,
                Intrinsic::Fabs,
                Intrinsic::Printf,
                Intrinsic::Malloc,
                Intrinsic::Wtime,
                Intrinsic::RcceBarrier,
                Intrinsic::Exit,
            ]);
            Instr::CallIntrinsic(intr, rng.gen_range_usize(0, 3) as u8)
        }
        Op::Ret => Instr::Ret,
        Op::RetVoid => Instr::RetVoid,
        Op::Nop => Instr::Nop,
    }
}

fn gen_code(rng: &mut SplitMix64, len: usize) -> Vec<Instr> {
    (0..len).map(|_| gen_instr(rng, len as u32)).collect()
}

/// Registers of the entry function.
const MAIN_REGS: u16 = 4;

/// A synthetic two-function program over generated bytecode. Function 0
/// is the entry; function 1 is a callable sibling (and calls can recurse
/// into either, bounded by the simulated stack).
fn gen_program(rng: &mut SplitMix64) -> Program {
    let main_len = rng.gen_range_usize(6, 28);
    let helper_len = rng.gen_range_usize(4, 16);
    program_of(gen_code(rng, main_len), gen_code(rng, helper_len))
}

fn program_of(main: Vec<Instr>, helper: Vec<Instr>) -> Program {
    let func = |name: &str, code: Vec<Instr>, n_regs: u16, n_params: u8, frame_mem: u32| Function {
        name: name.to_string(),
        code,
        n_regs,
        n_params,
        frame_mem,
        ret: hsm_cir::CType::Int,
        frame_vars: Vec::new(),
    };
    Program {
        funcs: vec![
            func("gen_main", main, MAIN_REGS, 0, 64),
            func("gen_helper", helper, 2, 2, 32),
        ],
        globals: Vec::new(),
        strings: Vec::new(),
        image: Vec::new(),
        entry: 0,
    }
}

/// Deterministic stand-in for the engine's memory/syscall answers, so both
/// interpreters observe identical resumption values.
fn pseudo_load(addr: u64, kind: MemKind) -> Value {
    if kind.is_float() {
        Value::F((addr % 251) as f64 / 4.0)
    } else {
        Value::I(((addr as i64).wrapping_mul(0x9E37)) % 1000)
    }
}

/// Drives one VM to completion (or `max_events`), recording every outcome
/// plus the final `Debug` state — the full observable surface.
fn drive(vm: &mut Vm, program: &Program, production: bool, max_events: usize) -> Vec<String> {
    let form = ExecForm::new(program);
    let mut trail = Vec::new();
    for _ in 0..max_events {
        let step = if production {
            vm.run_until_event(&form)
        } else {
            vm.run_until_event_matched(program)
        };
        trail.push(format!("{step:?}"));
        match step {
            Ok(StepOutcome::Ran { .. }) => {}
            Ok(StepOutcome::Load { addr, kind, .. }) => vm.provide_load(pseudo_load(addr, kind)),
            Ok(StepOutcome::Store { .. }) => vm.store_done(),
            Ok(StepOutcome::Syscall { ref args, .. }) => {
                vm.syscall_return(Value::I(args.len() as i64));
            }
            Ok(StepOutcome::Finished { .. }) | Err(_) => break,
        }
    }
    trail.push(format!("final: {vm:?}"));
    trail
}

/// Both interpreters over `program`; returns the trail they agree on.
fn agreed_trail(program: &Program, max_events: usize) -> Vec<String> {
    let mut production_vm = Vm::new(program, 0, vec![], STACKS_BASE);
    let mut reference_vm = Vm::new(program, 0, vec![], STACKS_BASE);
    let production_trail = drive(&mut production_vm, program, true, max_events);
    let reference_trail = drive(&mut reference_vm, program, false, max_events);
    assert_eq!(
        production_trail, reference_trail,
        "interpreters diverged on {:?}",
        program.funcs[0].code
    );
    production_trail
}

#[test]
fn production_loop_agrees_with_reference_interpreter() {
    testkit::check("production_vs_reference", 48, |rng| {
        agreed_trail(&gen_program(rng), 60);
    });
}

const OPERATORS: [Instr; 16] = [
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

/// The twenty-eight fused forms, as `ExecForm::disassemble` names them.
const FORMS: [&str; 28] = [
    "RRPush", "RRSet", "RRSetJ", "RRBr", "RRZBr", "RRThen", "RIPush", "RISet", "RISetJ", "RIBr",
    "RIZBr", "RIThen", "SIPush", "SISet", "SISetJ", "SIBr", "SIZBr", "SIThen", "SRPush", "SRSet",
    "SRSetJ", "SRBr", "SRZBr", "SRThen", "RCFPush", "RCFSet", "RCFThen", "ImmLoad",
];

/// A register slot: now and then one past the window.
fn gen_slot(rng: &mut SplitMix64) -> u16 {
    match rng.gen_range_usize(0, 96) {
        0 => MAIN_REGS + rng.gen_range_usize(0, 2) as u16,
        _ => rng.gen_range_usize(0, MAIN_REGS as usize) as u16,
    }
}

/// An immediate: mostly small, zero often enough to divide by, and now and
/// then either side of what a fused form's 32-bit field holds.
fn gen_imm(rng: &mut SplitMix64) -> i64 {
    match rng.gen_range_usize(0, 24) {
        0 => 0,
        1 => i64::from(i32::MAX) + rng.gen_range_i64(-2, 3),
        2 => i64::from(i32::MIN) + rng.gen_range_i64(-2, 3),
        3 => rng.gen_range_i64(i64::MIN / 2, i64::MAX / 2),
        _ => rng.gen_range_i64(-4, 40),
    }
}

/// Division is a sixteenth of the operators drawn, not an eighth: a loop
/// has to survive its divisors for a few hundred turns to reach the valve.
fn gen_operator(rng: &mut SplitMix64) -> Instr {
    let op = *rng.choose(&OPERATORS);
    match op {
        Instr::Div | Instr::Rem if rng.gen_bool() => *rng.choose(&OPERATORS),
        _ => op,
    }
}

/// Appends an expression the way the compiler lowers one: it leaves one
/// value on the stack — unless it is the rare broken one whose left
/// operand is missing.
fn gen_expr(rng: &mut SplitMix64, code: &mut Vec<Instr>, depth: u32) {
    use Instr::*;
    let leaf = depth >= 2;
    match rng.gen_range_usize(0, if leaf { 3 } else { 8 }) {
        // `a op b`, `a op imm`: both operands named.
        0 => code.extend([LocalGet(gen_slot(rng)), LocalGet(gen_slot(rng))]),
        1 | 2 => code.extend([LocalGet(gen_slot(rng)), PushI(gen_imm(rng))]),
        // `(expr) op imm`, `(expr) op b`: the left operand is on the stack.
        3 | 4 => {
            if rng.gen_range_usize(0, 16) > 0 {
                gen_expr(rng, code, depth + 1);
            }
            code.push(if rng.gen_bool() {
                PushI(gen_imm(rng))
            } else {
                LocalGet(gen_slot(rng))
            });
        }
        // `x op2 (expr)`: the first result feeds a second operator.
        5 | 6 => {
            if rng.gen_range_usize(0, 16) > 0 {
                code.push(LocalGet(gen_slot(rng)));
            }
            gen_expr(rng, code, depth + 1);
        }
        // A register and a double: stack to stack, or promoted first the
        // way the compiler converts `i + 0.5`.
        _ => {
            code.extend([
                LocalGet(gen_slot(rng)),
                PushF(rng.gen_range_i64(-8, 8) as f64 / 2.0),
            ]);
            if rng.gen_bool() {
                code.extend([Swap, I2F, Swap]);
            }
        }
    }
    code.push(gen_operator(rng));
}

/// Appends one statement: an expression and where its value goes, a
/// register move, a constant, or a load from a constant address. A jump is
/// left aimed just past the statement; the caller re-aims most of them past
/// the next one (`if (expr) statement`, `x = expr; goto`).
fn gen_piece(rng: &mut SplitMix64, code: &mut Vec<Instr>) {
    use Instr::*;
    match rng.gen_range_usize(0, 12) {
        0 => return code.extend([LocalGet(gen_slot(rng)), LocalSet(gen_slot(rng))]),
        1 => return code.extend([PushI(gen_imm(rng)), LocalSet(gen_slot(rng))]),
        2 => {
            let kind = *rng.choose(&KINDS);
            let addr = rng.gen_range_i64(-2, 1 << 20);
            return code.extend([PushI(addr), Load(kind), LocalSet(gen_slot(rng))]);
        }
        _ => gen_expr(rng, code, 0),
    }
    let jump = |rng: &mut SplitMix64, past: usize| -> Instr {
        let past = past as u32;
        if rng.gen_bool() {
            JumpIfZero(past)
        } else {
            JumpIfNotZero(past)
        }
    };
    let end = code.len();
    let sink: Vec<Instr> = match rng.gen_range_usize(0, 12) {
        0..=3 => vec![LocalSet(gen_slot(rng))],
        4..=6 => vec![jump(rng, end + 1)],
        // `x = expr;` then a jump: a `for` loop's step and back edge.
        7 | 8 => vec![LocalSet(gen_slot(rng)), Jump(end as u32 + 2)],
        // `if (expr == 0)`, `if (expr != 0)`.
        9 | 10 => {
            let cmp = if rng.gen_bool() { CmpEq } else { CmpNe };
            vec![PushI(0), cmp, jump(rng, end + 3)]
        }
        _ => return,
    };
    code.extend(sink);
}

/// Compiler-shaped bytecode: a run of pieces, for every other program
/// inside a counted loop on r0 (which the pieces mostly leave alone), with
/// a sprinkling of uniformly drawn instructions and retargeted jumps. The
/// loop is a `do … while` or a `for`, whose step jumps back to its test.
fn gen_weighted_code(rng: &mut SplitMix64) -> Vec<Instr> {
    use Instr::*;
    let looped = rng.gen_bool();
    let test_first = looped && rng.gen_bool();
    let turns = rng.gen_range_i64(60, 2000);
    let mut code = Vec::new();
    if looped {
        code.extend([PushI(0), LocalSet(0)]);
    }
    let top = code.len() as u32;
    if test_first {
        // The exit is aimed once the body's length is known.
        code.extend([LocalGet(0), PushI(turns), CmpLt, JumpIfZero(0)]);
    }
    let body = code.len();
    for _ in 0..rng.gen_range_usize(1, 7) {
        let guard = code
            .len()
            .checked_sub(1)
            .filter(|&at| at >= body && rng.gen_range_usize(0, 8) > 0);
        let start = code.len();
        gen_piece(rng, &mut code);
        let end = code.len() as u32;
        if let Some(JumpIfZero(t) | JumpIfNotZero(t) | Jump(t)) = guard.map(|at| &mut code[at]) {
            *t = end;
        }
        if looped {
            // A piece that writes the counter usually ends the loop early
            // or never: keep most loops counting.
            for instr in &mut code[start..] {
                if let LocalSet(c @ 0) = instr {
                    *c = rng.gen_range_usize(0, 12).min(3) as u16;
                }
            }
        }
    }
    if test_first {
        code.extend([LocalGet(0), PushI(1), Add, LocalSet(0), Jump(top)]);
        let exit = code.len() as u32;
        code[body - 1] = JumpIfZero(exit);
    } else if looped {
        #[rustfmt::skip]
        code.extend([
            LocalGet(0), PushI(1), Add, LocalSet(0),
            LocalGet(0), PushI(turns), CmpLt, JumpIfNotZero(top),
        ]);
    }
    code.extend([LocalGet(gen_slot(rng)), Ret]);
    let len = code.len();
    for _ in 0..rng.gen_range_usize(0, 3) {
        let at = rng.gen_range_usize(0, len);
        match rng.gen_range_usize(0, 3) {
            // Noise: any instruction at all, anywhere.
            0 => code[at] = gen_instr(rng, len as u32),
            // A jump to anywhere, the middle of a pattern included.
            _ => {
                if let Jump(t) | JumpIfZero(t) | JumpIfNotZero(t) = &mut code[at] {
                    *t = rng.gen_range_usize(0, len + 2) as u32;
                }
            }
        }
    }
    code
}

/// What a weighted sweep saw: how its runs ended and which forms its
/// programs were built from.
#[derive(Debug, Default)]
struct Tally {
    programs: u32,
    ran_slices: u32,
    faults: u32,
    finishes: u32,
    forms: HashSet<String>,
}

fn weighted_sweep(name: &str, cases: u32) -> Tally {
    let mut tally = Tally::default();
    testkit::check(name, cases, |rng| {
        let helper_len = rng.gen_range_usize(4, 16);
        let program = program_of(gen_weighted_code(rng), gen_code(rng, helper_len));
        for line in ExecForm::new(&program).disassemble(0).lines() {
            // "  12* RIBr: LocalGet(0); PushI(7); CmpLt; JumpIfZero(20)"
            let slot_line = line.trim_start().starts_with(|c: char| c.is_ascii_digit());
            let form = line
                .split_once(':')
                .filter(|_| slot_line)
                .and_then(|(head, _)| head.split(' ').next_back());
            tally.forms.extend(form.map(str::to_string));
        }
        // Twelve events: long enough for a counted loop to end, short
        // enough that one that never ends costs a dozen slices.
        let trail = agreed_trail(&program, 12);
        tally.programs += 1;
        tally.ran_slices += trail.iter().filter(|l| l.starts_with("Ok(Ran")).count() as u32;
        tally.faults += trail.iter().filter(|l| l.starts_with("Err(")).count() as u32;
        tally.finishes += trail
            .iter()
            .filter(|l| l.starts_with("Ok(Finished"))
            .count() as u32;
    });
    tally
}

/// The floors a sweep of at least the tier-1 budget must reach, so the
/// property cannot quietly stop exercising the valve, the fault paths or a
/// form (`TESTKIT_CASES` may shrink a sweep below the budget; then only
/// agreement is checked).
fn assert_floors(tally: &Tally) {
    if tally.programs < TIER1_CASES {
        return;
    }
    let per_thousand = |n: u32| u64::from(n) * 1000 / u64::from(tally.programs);
    assert!(per_thousand(tally.ran_slices) >= 800, "{tally:?}");
    assert!(per_thousand(tally.faults) >= 200, "{tally:?}");
    assert!(per_thousand(tally.finishes) >= 200, "{tally:?}");
    let missing: Vec<&str> = FORMS
        .iter()
        .copied()
        .filter(|f| !tally.forms.contains(*f))
        .collect();
    assert!(missing.is_empty(), "never built: {missing:?}");
    assert_eq!(
        tally.forms.len(),
        FORMS.len(),
        "unlisted form in {:?}",
        tally.forms
    );
}

const TIER1_CASES: u32 = 3000;

/// `tests/pipeline_equivalence.rs`'s sizes: small enough for a debug build,
/// large enough that every kernel's loops turn hundreds of times.
fn tiny(bench: Bench) -> Params {
    let (size, reps) = match bench {
        Bench::CountPrimes => (800, 1),
        Bench::PiApprox => (8_000, 1),
        Bench::Sum35 => (12_000, 1),
        Bench::DotProduct => (512, 1),
        Bench::LuDecomp => (6, 8),
        Bench::Stream => (512, 1),
    };
    Params {
        threads: 8,
        size,
        reps,
    }
}

/// What the compiler makes of `source` on `cores`: the pthread program and,
/// where Stage 5 translates it, the RCCE one, each at `O0` and `O2`.
fn compiled(name: &str, source: &str, cores: usize) -> Vec<(String, Arc<Program>)> {
    let mut out = Vec::new();
    for level in [OptLevel::O0, OptLevel::O2] {
        let session = Pipeline::new(source)
            .cores(cores)
            .scenario(Scenario::default().opt_level(level));
        let baseline = session.baseline_program().expect("the corpus compiles");
        out.push((format!("{name} pthread {level:?}"), baseline));
        if let Ok(translated) = session.program() {
            out.push((format!("{name} RCCE {level:?}"), translated));
        }
    }
    out
}

/// How the runs of [`lockstep`] ended.
#[derive(Debug, Default)]
struct Endings {
    runs: u32,
    finished: u32,
    faulted: u32,
    events: u64,
    slices: u64,
}

/// Runs function `func` of `program` on both interpreters in lock step,
/// each over its own copy of the program image, with every argument 0 and
/// every syscall answered 1 (a core count, a pointer and a success code
/// alike), and asserts that every outcome, and the state they end in,
/// agree.
fn lockstep(program: &Program, func: u32, context: &str, endings: &mut Endings) {
    const MAX_EVENTS: u32 = 200_000;
    let form = ExecForm::new(program);
    let args = vec![Value::I(0); usize::from(program.funcs[func as usize].n_params)];
    let side = || {
        let mut memory = ByteMemory::new();
        for (addr, bytes) in &program.image {
            memory.write_bytes(*addr, bytes);
        }
        (Vm::new(program, func, args.clone(), STACKS_BASE), memory)
    };
    let ((mut production, mut p_mem), (mut reference, mut r_mem)) = (side(), side());
    endings.runs += 1;
    for event in 0..MAX_EVENTS {
        let fused = production.run_until_event(&form);
        let plain = reference.run_until_event_matched(program);
        // By rendering: NaN is a legitimate result.
        let (fused_text, plain_text) = (format!("{fused:?}"), format!("{plain:?}"));
        assert_eq!(fused_text, plain_text, "{context}, event {event}");
        endings.events += 1;
        endings.slices += u64::from(fused_text.starts_with("Ok(Ran"));
        let resume = |vm: &mut Vm, memory: &mut ByteMemory, step| match step {
            StepOutcome::Ran { .. } => {}
            StepOutcome::Load { addr, kind, .. } => vm.provide_load(memory.load(addr, kind)),
            StepOutcome::Store {
                addr, kind, value, ..
            } => {
                memory.store(addr, kind, value);
                vm.store_done();
            }
            StepOutcome::Syscall { .. } => vm.syscall_return(Value::I(1)),
            StepOutcome::Finished { .. } => unreachable!("handled below"),
        };
        match (fused, plain) {
            (Ok(StepOutcome::Finished { .. }), _) => {
                endings.finished += 1;
                break;
            }
            (Err(_), _) => {
                endings.faulted += 1;
                break;
            }
            (Ok(fused), Ok(plain)) => {
                resume(&mut production, &mut p_mem, fused);
                resume(&mut reference, &mut r_mem, plain);
            }
            (Ok(_), Err(_)) => unreachable!("the renderings were equal"),
        }
    }
    assert_eq!(
        format!("{production:?}"),
        format!("{reference:?}"),
        "{context}: final state"
    );
}

/// Real compiler output, fused the way the paper kernels' loops are: every
/// function of every kernel and corpus program, at `O0` and `O2`, as the
/// pthread program and as its RCCE translation, agrees event by event.
#[test]
fn compiled_kernels_and_corpus_agree_with_reference() {
    let mut sources: Vec<(String, String, usize)> = Bench::all()
        .into_iter()
        .map(|b| (b.name().to_string(), hsm_workloads::source(b, &tiny(b)), 8))
        .collect();
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    for dir in [corpus.clone(), corpus.join("adversarial")] {
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("corpus directory")
            .map(|entry| entry.expect("corpus entry").path())
            .filter(|path| path.extension().is_some_and(|e| e == "c"))
            .collect();
        files.sort();
        for path in files {
            let source = std::fs::read_to_string(&path).expect("corpus program");
            sources.push((path.display().to_string(), source, 4));
        }
    }
    assert_eq!(sources.len(), 6 + 11, "six kernels, eleven corpus programs");
    let mut endings = Endings::default();
    for (name, source, cores) in &sources {
        for (what, program) in compiled(name, source, *cores) {
            for (func, f) in program.funcs.iter().enumerate() {
                let context = format!("{what}, fn {}", f.name);
                lockstep(&program, func as u32, &context, &mut endings);
            }
        }
    }
    println!("{endings:?}");
    // Nearly every function runs to its end: the kernels' loops turn in
    // full, and the rest of a trail is not cut short by the budget.
    assert!(endings.finished * 10 >= endings.runs * 9, "{endings:?}");
    assert!(endings.events >= 40_000, "{endings:?}");
    assert!(endings.slices >= 250, "{endings:?}");
}

#[test]
fn execution_form_agrees_with_reference_on_compiler_shaped_code() {
    assert_floors(&weighted_sweep("form_vs_reference", TIER1_CASES));
}

/// The same property at twenty times the budget, for CI's release leg: a
/// failure means a simulated cycle or a fault message moved.
#[test]
#[ignore = "60 000 cases: run in release, `-- --ignored`"]
fn execution_form_agrees_with_reference_at_a_larger_budget() {
    let tally = weighted_sweep("form_vs_reference_large", 20 * TIER1_CASES);
    println!("{tally:?}");
    assert_floors(&tally);
}

/// Pins the corpus generator itself: a fixed-seed sweep must emit every
/// opcode, independent of `TESTKIT_SEED`, so the differential property
/// above always exercises the whole instruction set.
#[test]
fn generator_covers_every_opcode() {
    let mut rng = SplitMix64::new(0x0DD5_7ACC_ED15_7AC0);
    let mut seen: HashSet<Op> = HashSet::new();
    for _ in 0..4000 {
        seen.insert(gen_instr(&mut rng, 16).op());
    }
    let missing: Vec<Op> = Op::ALL
        .iter()
        .copied()
        .filter(|o| !seen.contains(o))
        .collect();
    assert!(missing.is_empty(), "generator never emitted {missing:?}");
}

/// The deterministic proxy a dispatch change is gated on, DESIGN.md §10's
/// table: per innermost loop of each paper kernel's thread function at 32
/// threads and `O0`, its instructions and the dispatch slots reachable in
/// it (`cargo run --release --example dump_opt paper:all` prints the same
/// lines). A change that un-fuses a kernel fails here, before any timing.
#[test]
fn paper_kernel_loops_dispatch_the_pinned_slot_counts() {
    let pinned: [(Bench, &[(usize, usize)]); 6] = [
        (Bench::PiApprox, &[(28, 11)]),
        (Bench::Sum35, &[(29, 9)]),
        (Bench::CountPrimes, &[(18, 6)]),
        (Bench::Stream, &[(23, 8), (25, 10), (31, 12), (33, 14)]),
        (Bench::DotProduct, &[(27, 12)]),
        (Bench::LuDecomp, &[(51, 23), (25, 11)]),
    ];
    for (bench, rows) in pinned {
        let source = hsm_workloads::source(bench, &bench.default_params(32));
        let program = Pipeline::new(source)
            .cores(32)
            .program()
            .expect("the kernel compiles");
        let tf = program
            .funcs
            .iter()
            .position(|f| f.name == "tf")
            .expect("a thread function");
        let listing = ExecForm::new(&program).disassemble(tf);
        // "loop 38..=55: 18 instructions -> 6 dispatch slots reachable ..."
        let loops: Vec<(usize, usize)> = listing
            .lines()
            .filter_map(|line| line.strip_prefix("loop "))
            .map(|line| {
                let words: Vec<&str> = line.split_whitespace().collect();
                (words[1].parse().unwrap(), words[4].parse().unwrap())
            })
            .collect();
        assert_eq!(loops, rows, "{}:\n{listing}", bench.name());
    }
}
