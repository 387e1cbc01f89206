//! Differential property: the production dispatch loop ≡ the plain
//! reference interpreter.
//!
//! `Vm::run_until_event` keeps the running frame's state in locals and
//! writes it back only at suspension points, calls, returns and faults;
//! `Vm::run_until_event_matched` is the same instruction set as one plain
//! `match` over `self`'s fields. A stale write-back, an in-place stack
//! edit that leaves the wrong value, or a slice that ends one instruction
//! early or late shows up here as a divergence in outcomes, faults, or
//! final VM state on a generated instruction corpus — including
//! deliberately malformed programs, because fault messages are part of
//! the contract.
//!
//! The corpus generator is itself pinned: a fixed-seed sweep asserts it
//! emits every opcode, so the differential property cannot silently stop
//! covering part of the instruction set.

use hsm_vm::compile::{Function, Program, STACKS_BASE};
use hsm_vm::instr::Op;
use hsm_vm::value::MemKind;
use hsm_vm::vm::{StepOutcome, Vm};
use hsm_vm::{Instr, Intrinsic, Value};
use std::collections::HashSet;
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
/// out-of-range call targets); pure intrinsics always get at least one
/// argument because evaluating them with zero arguments is a (shared)
/// index panic, not a `VmError`.
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
            let (intr, min_args) = *rng.choose(&[
                (Intrinsic::Sqrt, 1u8),
                (Intrinsic::Fabs, 1),
                (Intrinsic::Printf, 0),
                (Intrinsic::Malloc, 1),
                (Intrinsic::Wtime, 0),
                (Intrinsic::RcceBarrier, 0),
                (Intrinsic::Exit, 1),
            ]);
            Instr::CallIntrinsic(intr, min_args + rng.gen_range_usize(0, 2) as u8)
        }
        Op::Ret => Instr::Ret,
        Op::RetVoid => Instr::RetVoid,
        Op::Nop => Instr::Nop,
    }
}

fn gen_code(rng: &mut SplitMix64, len: usize) -> Vec<Instr> {
    (0..len).map(|_| gen_instr(rng, len as u32)).collect()
}

/// A synthetic two-function program over generated bytecode. Function 0
/// is the entry; function 1 is a callable sibling (and calls can recurse
/// into either, bounded by the simulated stack).
fn gen_program(rng: &mut SplitMix64) -> Program {
    let func = |name: &str, code: Vec<Instr>, n_regs: u16, n_params: u8, frame_mem: u32| Function {
        name: name.to_string(),
        code,
        n_regs,
        n_params,
        frame_mem,
        ret: hsm_cir::types::CType::Int,
        frame_vars: Vec::new(),
    };
    let main_len = rng.gen_range_usize(6, 28);
    let helper_len = rng.gen_range_usize(4, 16);
    Program {
        funcs: vec![
            func("gen_main", gen_code(rng, main_len), 4, 0, 64),
            func("gen_helper", gen_code(rng, helper_len), 2, 2, 32),
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

/// Drives one VM to completion (or an event cap), recording every outcome
/// plus the final `Debug` state — the full observable surface.
fn drive(vm: &mut Vm, program: &Program, production: bool) -> Vec<String> {
    let mut trail = Vec::new();
    for _ in 0..60 {
        let step = if production {
            vm.run_until_event(program)
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

#[test]
fn production_loop_agrees_with_reference_interpreter() {
    testkit::check("production_vs_reference", 48, |rng| {
        let program = gen_program(rng);
        let mut production_vm = Vm::new(&program, 0, vec![], STACKS_BASE);
        let mut reference_vm = Vm::new(&program, 0, vec![], STACKS_BASE);
        let production_trail = drive(&mut production_vm, &program, true);
        let reference_trail = drive(&mut reference_vm, &program, false);
        assert_eq!(
            production_trail, reference_trail,
            "interpreters diverged on {:?}",
            program.funcs[0].code
        );
    });
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
