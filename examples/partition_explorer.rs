//! Explores Stage 4 (Algorithm 3) placement decisions interactively-ish:
//! shows how the partition plan changes as the on-chip budget shrinks and
//! how the ablation policies differ — first on a hand-written profile,
//! then on the real Stream benchmark through a `Pipeline` session whose
//! `.spec()` overrides the memory budget while parse and analysis are
//! computed once and reused from the session cache.
//!
//! ```text
//! cargo run --example partition_explorer
//! ```

use hsm_core::api::{Pipeline, Stage};
use hsm_partition::{partition, partition_with_split, MemorySpec, Policy, SharedVar};
use hsm_workloads::Bench;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The shared-variable profile of the Stream benchmark at 32 threads,
    // as stages 1-3 would report it.
    let vars = vec![
        SharedVar::array("a", 12_288 * 8, 1_200_000, 8),
        SharedVar::array("b", 12_288 * 8, 800_000, 8),
        SharedVar::array("c", 12_288 * 8, 1_200_000, 8),
        SharedVar::new("partial", 32 * 8, 2_000),
    ];

    for budget_kb in [384usize, 256, 128, 64] {
        let spec = MemorySpec::with_on_chip(budget_kb * 1024);
        let plan = partition(&vars, &spec, Policy::SizeAscending);
        println!("== Algorithm 3, {budget_kb} KB on-chip budget ==");
        println!("{}", plan.to_text());
    }

    println!("== policy comparison at 128 KB ==");
    let spec = MemorySpec::with_on_chip(128 * 1024);
    for policy in [
        Policy::SizeAscending,
        Policy::FrequencyDensity,
        Policy::SizeDescending,
    ] {
        let plan = partition(&vars, &spec, policy);
        println!(
            "{:<18} -> {:>6.1}% of accesses served on-chip",
            format!("{policy:?}"),
            plan.on_chip_access_fraction() * 100.0
        );
    }

    println!("\n== array splitting (the LU refinement of §6) ==");
    let matrix = vec![SharedVar::array("mats", 460 * 1024, 5_000_000, 8)];
    let spec = MemorySpec::with_on_chip(384 * 1024);
    let whole = partition(&matrix, &spec, Policy::SizeAscending);
    let split = partition_with_split(&matrix, &spec, Policy::SizeAscending, true);
    println!("without splitting: {}", whole.to_text());
    println!("with splitting:    {}", split.to_text());

    // The same budget exploration on the real Stream benchmark, end to
    // end: one base session parses and analyzes the source; the budget
    // variants override `.spec()` but share its artifact cache, so only
    // the partition stage recomputes per budget.
    println!("\n== the real Stream benchmark through Pipeline::spec ==");
    let params = Bench::Stream.default_params(32);
    let src = hsm_workloads::source(Bench::Stream, &params);
    let session = Pipeline::new(src.as_str()).cores(params.threads);
    for budget_kb in [384usize, 128, 64] {
        let plan = session
            .clone()
            .spec(MemorySpec::with_on_chip(budget_kb * 1024))
            .plan()?;
        println!(
            "{budget_kb:>4} KB budget -> {:>6.1}% of accesses on-chip",
            plan.on_chip_access_fraction() * 100.0
        );
    }
    let stats = session.cache_handle().stats();
    println!(
        "session cache: parse {} hit(s)/{} miss(es), analyze {} hit(s)/{} miss(es), partition {} miss(es)",
        stats[Stage::Parse].hits,
        stats[Stage::Parse].misses,
        stats[Stage::Analyze].hits,
        stats[Stage::Analyze].misses,
        stats[Stage::Partition].misses
    );
    Ok(())
}
