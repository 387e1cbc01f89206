//! Counts the heap allocations of the compile path: what a point touched
//! for the first time pays before it simulates. Usage (from the repo
//! root):
//!
//! ```text
//! cargo run --release --example alloc_census [-- --max-allocs N]
//! ```
//!
//! For each of the six corpus barrier programs, at the core count the
//! benchmark's `corpus_grid` runs it at, it takes the source to O2
//! bytecode the way a first-touch HSM point does (parse, Stages 1–3,
//! the Stage 4 plan, Stage 5 with its print-and-re-parse check, compile,
//! O2; the analysis and the plan are shared as the artifact cache shares
//! them) and prints the allocations and bytes each stage asked the
//! allocator for. An allocation is a call to `alloc`, `alloc_zeroed` or
//! `realloc`; its bytes are the size it asked for. The count is
//! deterministic: it does not depend on the host, only on the code.
//!
//! With `--max-allocs N` it exits 1 when the total allocation count is
//! above `N`: CI's ratchet on the compile path's allocation budget.

use hsm_analysis::ProgramAnalysis;
use hsm_partition::{MemorySpec, Policy};
use hsm_translate::TranslateOptions;
use hsm_vm::OptLevel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// The system allocator, counting what it is asked for.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters have no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The barrier programs of the benchmark's `corpus_grid` and their cores.
const PROGRAMS: [(&str, usize); 6] = [
    ("example_4_1", 3),
    ("matrix_vector", 4),
    ("mutex_histogram", 4),
    ("switch_classifier", 2),
    ("escaping_local", 4),
    ("dot_product", 8),
];

const STAGES: [&str; 6] = ["parse", "analysis", "plan", "translate", "compile", "O2"];

/// Runs `f` and returns its value with the allocations and bytes it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, [u64; 2]) {
    let (a, b) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    let value = f();
    (value, [ALLOCS.load(Relaxed) - a, BYTES.load(Relaxed) - b])
}

/// The allocations and bytes of each stage for one program.
fn census(src: &str, cores: usize) -> [[u64; 2]; 6] {
    let policy = Policy::SizeAscending;
    let (unit, parse) = counted(|| hsm_cir::parse(src).expect("corpus parses"));
    let (analysis, analyze) = counted(|| Arc::new(ProgramAnalysis::analyze(&unit)));
    let (plan, plan_cost) = counted(|| {
        let shared = hsm_partition::shared_vars_from_analysis(&analysis);
        Arc::new(hsm_partition::partition(
            &shared,
            &MemorySpec::scc(cores),
            policy,
        ))
    });
    let (translation, translate) = counted(|| {
        let options = TranslateOptions { cores, policy };
        hsm_translate::translate_with_plan(&unit, &analysis, &plan, options)
            .expect("corpus translates")
    });
    let (program, compile) =
        counted(|| hsm_vm::compile(&translation.unit).expect("translation compiles"));
    let (_, o2) = counted(|| hsm_vm::optimize(&program, OptLevel::O2));
    [parse, analyze, plan_cost, translate, compile, o2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let max_allocs: Option<u64> = match args.as_slice() {
        [] => None,
        [flag, n] if flag == "--max-allocs" => Some(n.parse().expect("--max-allocs takes a count")),
        _ => {
            eprintln!("usage: alloc_census [--max-allocs N]");
            std::process::exit(2);
        }
    };
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    print!("{:<18}", "allocs (bytes)");
    for stage in STAGES {
        print!(" {stage:>17}");
    }
    println!(" {:>17}", "total");
    let mut totals = [[0u64; 2]; 7];
    for (name, cores) in PROGRAMS {
        let src = std::fs::read_to_string(root.join(format!("{name}.c"))).expect("read corpus");
        let row = census(&src, cores);
        print!("{:<18}", format!("{name}@{cores}"));
        let mut sum = [0u64; 2];
        for (i, [allocs, bytes]) in row.into_iter().enumerate() {
            print!(" {:>17}", format!("{allocs} ({bytes})"));
            sum = [sum[0] + allocs, sum[1] + bytes];
            totals[i] = [totals[i][0] + allocs, totals[i][1] + bytes];
        }
        totals[6] = [totals[6][0] + sum[0], totals[6][1] + sum[1]];
        println!(" {:>17}", format!("{} ({})", sum[0], sum[1]));
    }
    print!("{:<18}", "total");
    for [allocs, bytes] in totals {
        print!(" {:>17}", format!("{allocs} ({bytes})"));
    }
    println!();
    let [allocs, bytes] = totals[6];
    println!("census: {allocs} allocations, {bytes} bytes");
    if let Some(max) = max_allocs {
        if allocs > max {
            eprintln!("census: {allocs} allocations, over the --max-allocs {max} ratchet");
            std::process::exit(1);
        }
    }
}
