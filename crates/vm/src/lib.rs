//! # hsm-vm — bytecode compiler and suspendable VM for the C subset
//!
//! The role the Intel C compiler plays in the paper: it turns (original or
//! translated) C programs into something the experimental platform can
//! execute. Here that is a stack bytecode executed by a **suspendable** VM:
//! every memory access and library call is surfaced to the caller as a
//! [`vm::StepOutcome`], so the `hsm-exec` discrete-event engine can charge
//! simulated-SCC latencies and interleave up to 48 cores deterministically.
//!
//! * [`compile()`] — CIR → bytecode ([`compile::Program`]), register
//!   allocation for scalar locals, memory residence for arrays and
//!   address-taken locals, constant global images.
//! * [`opt`] — the optional bytecode optimizer ([`optimize`] at an
//!   [`OptLevel`]), run between compilation and execution.
//! * [`form`] — the execution form ([`ExecForm`]): per function, a
//!   position-stable array parallel to the bytecode whose slots name an
//!   operator's operands in place instead of moving them through the value
//!   stack. Built once per run from a `&Program`; not an optimization
//!   level — cycles and retired-instruction counts are those of the
//!   bytecode it stands for.
//! * [`vm`] — the interpreter ([`vm::Vm`]), which dispatches over an
//!   [`ExecForm`].
//! * [`data`] — byte-addressable simulated memory contents.
//! * [`value`] / [`instr`] — runtime values and the instruction set.
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use hsm_vm::{compile::compile, compile::STACKS_BASE, data::ByteMemory, vm::{StepOutcome, Vm}, ExecForm};
//!
//! let tu = hsm_cir::parse("int main() { int s = 0; int i; for (i = 1; i <= 4; i++) s += i; return s; }")?;
//! let program = compile(&tu)?;
//! let form = ExecForm::new(&program);
//! let mut vm = Vm::new(&program, program.entry, vec![], STACKS_BASE);
//! let mut mem = ByteMemory::new();
//! loop {
//!     match vm.run_until_event(&form)? {
//!         StepOutcome::Finished { exit } => {
//!             assert_eq!(exit.as_i(), 10);
//!             break;
//!         }
//!         StepOutcome::Load { addr, kind, .. } => vm.provide_load(mem.load(addr, kind)),
//!         StepOutcome::Store { addr, kind, value, .. } => {
//!             mem.store(addr, kind, value);
//!             vm.store_done();
//!         }
//!         _ => {}
//!     }
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod compile;
pub mod data;
pub mod form;
pub mod instr;
pub mod opt;
pub mod serial;
pub mod value;
pub mod vm;

pub use compile::{compile, CompileError, Program};
pub use form::ExecForm;
pub use instr::{Instr, Intrinsic, Op};
pub use opt::{optimize, optimize_with_stats, OptLevel, OptStats};
pub use serial::{parse_program, serialize_program, SerialError};
pub use value::{MemKind, Value};
pub use vm::{StepOutcome, UnitVm, Vm, VmError};
