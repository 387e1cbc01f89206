//! Disassembles a program at `O0` and `O2` side by side, and the `O0`
//! bytecode's execution form: what the VM dispatches over.
//!
//! The before/after listings in `docs/OPTIMIZER.md` and the dispatch-count
//! table in DESIGN.md §10 were produced with this tool. Usage (from the
//! repo root):
//!
//! ```text
//! cargo run --release --example dump_opt [FILE [CORES [FUNC]]]
//! # e.g. cargo run --release --example dump_opt example_4_1.c 3 RCCE_APP
//! #      cargo run --release --example dump_opt paper:primes 32 tf
//! #      cargo run --release --example dump_opt paper:all
//! ```
//!
//! `FILE` is relative to `corpus/` (default `example_4_1.c`), or
//! `paper:NAME` for the paper workload whose name contains `NAME`
//! (`pi`, `3-5`, `primes`, `stream`, `dot`, `lu`) at its default
//! parameters for `CORES` threads; `CORES` is the translation core count
//! (default 3), and an optional `FUNC` restricts the dump to one function
//! by name. In the execution-form listing a `*` marks the slots dispatch
//! reaches from slot 0; each innermost loop and the function end with
//! "N instructions -> M dispatch slots reachable from slot 0", a loop's
//! line also with the fused forms among those slots.
//!
//! `paper:all` prints only those loop lines, one per innermost loop of
//! every paper workload's `FUNC` (default `tf`) at `CORES` threads
//! (default 32), each after the workload's name: DESIGN.md §10's table,
//! which `tests/vm_dispatch.rs` pins.

use hsm_core::api::{OptLevel, Pipeline, Scenario};
use hsm_workloads::Bench;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "example_4_1.c".into());
    let cores = std::env::args().nth(2).and_then(|s| s.parse().ok());
    let func = std::env::args().nth(3);
    if name == "paper:all" {
        return loop_table(cores.unwrap_or(32), func.as_deref().unwrap_or("tf"));
    }
    let cores = cores.unwrap_or(3);
    let src = match name.strip_prefix("paper:") {
        Some(which) => {
            let bench = Bench::all()
                .into_iter()
                .find(|b| b.name().to_lowercase().contains(&which.to_lowercase()))
                .expect("a paper workload of that name");
            hsm_workloads::source(bench, &bench.default_params(cores))
        }
        None => std::fs::read_to_string(format!("corpus/{name}")).expect("read corpus program"),
    };
    let o0 = Pipeline::new(src.clone())
        .cores(cores)
        .program()
        .expect("compile at O0");
    let o2 = Pipeline::new(src)
        .cores(cores)
        .scenario(Scenario::default().opt_level(OptLevel::O2))
        .program()
        .expect("compile at O2");
    let form = hsm_vm::ExecForm::new(&o0);
    for (index, (f0, f2)) in o0.funcs.iter().zip(o2.funcs.iter()).enumerate() {
        if let Some(want) = &func {
            if &f0.name != want {
                continue;
            }
        }
        println!(
            "==== fn {} ({} -> {} instrs) ====",
            f0.name,
            f0.code.len(),
            f2.code.len()
        );
        println!("---- O0 ----");
        println!("{}", hsm_vm::disassemble(&f0.code));
        println!("---- O2 ----");
        println!("{}", hsm_vm::disassemble(&f2.code));
        println!("---- O0, execution form ----");
        println!("{}", form.disassemble(index));
    }
    println!("total static: {} -> {}", o0.code_len(), o2.code_len());
}

/// The innermost-loop lines of function `func` of every paper workload.
fn loop_table(cores: usize, func: &str) {
    for bench in Bench::all() {
        let src = hsm_workloads::source(bench, &bench.default_params(cores));
        let program = Pipeline::new(src)
            .cores(cores)
            .program()
            .expect("compile at O0");
        let index = program
            .funcs
            .iter()
            .position(|f| f.name == func)
            .expect("a function of that name");
        let listing = hsm_vm::ExecForm::new(&program).disassemble(index);
        for line in listing.lines().filter(|l| l.starts_with("loop ")) {
            println!("{}: {line}", bench.name());
        }
    }
}
