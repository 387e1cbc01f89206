//! Running the three in-process workloads (`paper_compute`,
//! `paper_memory`, `corpus_grid`): the timed untraced run and the traced
//! run that splits the same passes by layer.

use crate::adapter::{run_staged, run_sweep, ArtifactCache};
use crate::metrics::{RunRecord, Values};
use crate::probes;
use crate::stats::{median, percentile, OpTimes};
use crate::trace::{totals_by_name, SpanTotals, Tracer};
use crate::workloads::{check_pass, PassCheck, PointSet};
use std::collections::BTreeMap;
use std::time::Instant;

/// The in-process workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dispatch-bound paper benchmarks.
    PaperCompute,
    /// Memory-bound paper benchmarks.
    PaperMemory,
    /// The corpus across every axis.
    CorpusGrid,
}

impl Workload {
    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCompute => "paper_compute",
            Workload::PaperMemory => "paper_memory",
            Workload::CorpusGrid => "corpus_grid",
        }
    }

    fn points(self) -> PointSet {
        match self {
            Workload::PaperCompute => crate::workloads::paper_compute(),
            Workload::PaperMemory => crate::workloads::paper_memory(),
            Workload::CorpusGrid => crate::workloads::corpus_grid(),
        }
    }

    /// How many times set-up (input generation + the warm-up pass) is
    /// repeated so `setup_s` can be a median. A paper-scale warm-up pass
    /// takes seconds, long enough to be steady on its own.
    fn setup_rounds(self) -> usize {
        match self {
            Workload::PaperCompute | Workload::PaperMemory => 1,
            Workload::CorpusGrid => 7,
        }
    }
}

/// One executed pass: host timings plus the checked results.
struct Pass {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    check: PassCheck,
}

/// Waits until this process is down to its main thread. `sweep` returns
/// when its workers have finished their work, not when their OS threads
/// have exited, and a worker that starts while the previous one is still
/// exiting gets a second malloc arena instead of the first one back:
/// `peak_rss_mb` then reads 20 MB or 12 MB by the luck of that race.
/// Letting the thread exit between passes (outside every timed region)
/// makes the footprint the one-arena one, every time.
fn settle_threads() {
    let threads = || {
        crate::proc_status("Threads:")
            .and_then(|n| n.parse::<u32>().ok())
            .unwrap_or(1)
    };
    let started = Instant::now();
    while threads() > 1 && started.elapsed().as_millis() < 100 {
        std::thread::yield_now();
    }
}

/// One untraced pass: the points through `sweep` on one worker over a
/// fresh cache.
fn sweep_pass(set: &PointSet) -> Pass {
    settle_threads();
    let started = Instant::now();
    let outcomes = run_sweep(&set.points, &ArtifactCache::shared(), 1);
    let wall_s = started.elapsed().as_secs_f64();
    let latencies_ms = outcomes.iter().map(|o| o.latency_ns as f64 / 1e6).collect();
    let results: Vec<_> = outcomes.into_iter().map(|o| o.result).collect();
    Pass {
        wall_s,
        latencies_ms,
        check: check_pass(set, &results),
    }
}

/// What one traced pass yields.
struct StagedPass {
    wall_s: f64,
    check: PassCheck,
    cache_hits: u64,
    cache_misses: u64,
}

/// One traced pass: the same points in the same order, each driven stage
/// by stage under spans, over a fresh cache.
fn staged_pass(set: &PointSet, tracer: &Tracer, op_base: u64) -> StagedPass {
    let cache = ArtifactCache::shared();
    let started = Instant::now();
    let results: Vec<_> = set
        .points
        .iter()
        .enumerate()
        .map(|(n, point)| {
            tracer.set_op(op_base + n as u64);
            tracer.span("op", || run_staged(point, &cache, tracer))
        })
        .collect();
    let wall_s = started.elapsed().as_secs_f64();
    let stats = cache.stats();
    StagedPass {
        wall_s,
        check: check_pass(set, &results),
        cache_hits: stats.total_hits(),
        cache_misses: stats.total_misses(),
    }
}

/// Whether another pass fits: passes are whole, so the loop stops at the
/// pass boundary nearest to `seconds`.
pub fn another_pass(started: Instant, seconds: f64, pass_walls: &[f64]) -> bool {
    pass_walls.is_empty() || started.elapsed().as_secs_f64() + 0.5 * median(pass_walls) < seconds
}

/// Set-up: builds the inputs (the points in the order `seed` draws) and
/// runs the untimed warm-up pass, `setup_rounds` times over. Returns the
/// points, the warm-up's check (the reference every later pass must
/// equal) and the median set-up time.
fn set_up(grid: Workload, seed: u64) -> (PointSet, PassCheck, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..grid.setup_rounds() {
        let started = Instant::now();
        let set = grid.points().shuffled(seed);
        let warm = sweep_pass(&set);
        times.push(started.elapsed().as_secs_f64());
        last = Some((set, warm.check));
    }
    let (set, warm) = last.expect("at least one set-up round");
    (set, warm, median(&times))
}

/// Folds a pass's verdict into the run's totals: its own failed ops,
/// plus one failure if its fingerprint departs from the reference.
fn account(pass: &PassCheck, reference: &PassCheck, what: &str, failed: &mut u64) {
    *failed += pass.failed;
    for why in &pass.failures {
        eprintln!("FAILED {what}: {why}");
    }
    if pass.fingerprint != reference.fingerprint {
        *failed += 1;
        eprintln!(
            "FAILED {what}: fingerprint {:?} differs from the warm-up's {:?}",
            pass.fingerprint, reference.fingerprint
        );
    }
}

/// The timed run: whole untraced passes for `seconds`.
pub fn run_untraced(grid: Workload, seed: u64, seconds: f64) -> RunRecord {
    let (set, warm, setup_s) = set_up(grid, seed);
    let mut failed = 0;
    account(&warm, &warm, "warm-up", &mut failed);
    let mut walls = Vec::new();
    let mut times = OpTimes::default();
    let started = Instant::now();
    while another_pass(started, seconds, &walls) {
        let pass = sweep_pass(&set);
        account(&pass.check, &warm, "pass", &mut failed);
        walls.push(pass.wall_s);
        times.push(pass.latencies_ms);
    }
    let attempted = times.samples();
    let fastest = times.fastest();
    let wall_s = times.pass_wall_s();
    let mut values = Values::default();
    values.set("wall_s", wall_s);
    values.set(
        "sim_mips",
        warm.fingerprint.instructions as f64 / wall_s / 1e6,
    );
    values.set("op_p50_ms", percentile(&fastest, 50.0));
    values.set("op_p90_ms", percentile(&fastest, 90.0));
    values.set("setup_s", setup_s);
    values.set("peak_rss_mb", crate::peak_rss_mb());
    values.set("sim_cycles", warm.fingerprint.timed_cycles as f64);
    values.set("failed_share", failed as f64 / attempted.max(1) as f64);
    values.set("fig61_err_pct", warm.fig61_err_pct);
    RunRecord {
        workload: grid.name(),
        seed,
        traced: false,
        attempted,
        failed,
        op_samples: attempted,
        pass_walls: walls,
        values,
    }
}

/// Mean µs per call of the spans named `name`.
fn mean_us(totals: &BTreeMap<&'static str, SpanTotals>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, SpanTotals::mean_us)
}

/// Σ self time of the spans named `name`, in ns.
fn self_ns(totals: &BTreeMap<&'static str, SpanTotals>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.self_ns as f64)
}

/// The span names that make up the frontend.
pub const FRONTEND_SPANS: [&str; 7] = [
    "cir.parse",
    "cir.print",
    "analysis.analyze",
    "partition.plan",
    "translate.translate",
    "vm.compile",
    "vm.opt",
];

/// Per-layer values every staged trace yields, whatever the workload:
/// frontend per-call times and IR sizes, the shares of the traced wall,
/// cache self time, and the execution split.
pub fn staged_metrics(
    tracer: &Tracer,
    dispatch_ns: f64,
    instructions: f64,
    events: f64,
    values: &mut Values,
) {
    let spans = tracer.spans();
    let totals = totals_by_name(&spans);
    let op_ns = totals.get("op").map_or(0.0, |t| t.total_ns as f64).max(1.0);
    for (metric, span) in [
        ("cir.parse_us", "cir.parse"),
        ("cir.print_us", "cir.print"),
        ("analysis.analyze_us", "analysis.analyze"),
        ("partition.plan_us", "partition.plan"),
        ("translate.translate_us", "translate.translate"),
        ("vm.compile_us", "vm.compile"),
        ("vm.opt_us", "vm.opt"),
        ("exec.run_us", "exec.run"),
    ] {
        values.set(metric, mean_us(&totals, span));
    }
    for name in [
        "cir.src_bytes",
        "analysis.vars",
        "translate.out_bytes",
        "vm.static_instrs",
        "partition.onchip_access_fraction",
    ] {
        values.set(name, tracer.count_mean(name));
    }
    let before = tracer.count_sum("vm.opt_static_before");
    if before > 0.0 {
        values.set(
            "vm.opt_static_ratio",
            tracer.count_sum("vm.opt_static_after") / before,
        );
    }
    let frontend: f64 = FRONTEND_SPANS.iter().map(|s| self_ns(&totals, s)).sum();
    values.set("core.pipeline.frontend_share", frontend / op_ns);
    values.set("core.cache.share", self_ns(&totals, "core.cache") / op_ns);
    // A lookup that hit ran no stage: it is a `core.cache` span without
    // children, so its duration is the cache's own cost.
    let mut has_child = vec![false; spans.len()];
    for s in &spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    let hits: Vec<f64> = spans
        .iter()
        .zip(&has_child)
        .filter(|(s, &parent)| s.name == "core.cache" && !parent)
        .map(|(s, _)| s.duration_ns() as f64 / 1e3)
        .collect();
    values.set("core.cache.hit_us", crate::stats::mean(&hits));
    let run_ns = totals.get("exec.run").map_or(0.0, |t| t.total_ns as f64);
    values.set("vm.dispatch_ns_per_instr", dispatch_ns);
    if instructions > 0.0 {
        values.set("exec.events_per_kinstr", events / instructions * 1e3);
    }
    if events > 0.0 {
        values.set(
            "exec.ns_per_event",
            (run_ns - instructions * dispatch_ns) / events,
        );
    }
    values.set("bench.spans", spans.len() as f64);
}

/// The simulated-side counts of one pass.
pub fn memory_metrics(check: &PassCheck, values: &mut Values) {
    let m = &check.mem;
    let private = (m.l1_hits + m.l2_hits + m.private_dram).max(1) as f64;
    values.set("sccsim.l1_hit_ratio", m.l1_hits as f64 / private);
    values.set(
        "sccsim.l2_hit_ratio",
        m.l2_hits as f64 / (m.l2_hits + m.private_dram).max(1) as f64,
    );
    values.set("sccsim.shared_dram_accesses", m.shared_dram as f64);
    values.set("sccsim.mpb_accesses", m.mpb as f64);
    values.set("sccsim.mc_queue_cycles", m.mc_queue_cycles as f64);
    values.set("sccsim.mpb_high_water_bytes", m.mpb_high_water as f64);
    for (name, (count, cycles)) in [
        "sccsim.mean_lat_cycles.private",
        "sccsim.mean_lat_cycles.shared_dram",
        "sccsim.mean_lat_cycles.mpb",
    ]
    .into_iter()
    .zip(m.region_lat)
    {
        values.set(name, cycles as f64 / count.max(1) as f64);
    }
    values.set("model.fig61_err_pct", check.fig61_err_pct);
}

/// The traced run: untraced and staged passes in alternation (their
/// walls give the tracing overhead), the staged result held equal to the
/// untraced one op by op, then the workload's probes.
pub fn run_traced(grid: Workload, seed: u64, seconds: f64) -> (RunRecord, Tracer) {
    let (set, warm, _) = set_up(grid, seed);
    let mut failed = 0;
    account(&warm, &warm, "warm-up", &mut failed);
    let tracer = Tracer::default();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let (mut hits, mut misses) = (0, 0);
    let mut traced_ops = 0u64;
    // Passes take about half the budget; the probes need the rest.
    let started = Instant::now();
    while another_pass(started, seconds * 0.5, &traced_walls) {
        let plain = sweep_pass(&set);
        account(&plain.check, &warm, "untraced pass", &mut failed);
        plain_walls.push(plain.wall_s);
        let staged = staged_pass(&set, &tracer, traced_ops);
        account(&staged.check, &warm, "traced pass", &mut failed);
        for (i, (a, b)) in staged
            .check
            .facts
            .iter()
            .zip(&plain.check.facts)
            .enumerate()
        {
            if a != b {
                failed += 1;
                eprintln!(
                    "FAILED {}: staged {a:?} differs from sweep {b:?}",
                    set.points[i].name
                );
            }
        }
        traced_walls.push(staged.wall_s);
        traced_ops += set.points.len() as u64;
        (hits, misses) = (staged.cache_hits, staged.cache_misses);
    }
    let passes = traced_walls.len() as f64;
    let mut values = Values::default();
    let dispatch_ns = probes::dispatch_ns_per_instr();
    staged_metrics(
        &tracer,
        dispatch_ns,
        warm.fingerprint.instructions as f64 * passes,
        warm.fingerprint.events as f64 * passes,
        &mut values,
    );
    memory_metrics(&warm, &mut values);
    values.set("core.cache.hits", hits as f64);
    values.set("core.cache.misses", misses as f64);
    // Fastest against fastest: with a handful of passes on each side the
    // medians differ by more than the spans cost.
    let fastest = |walls: &[f64]| percentile(walls, 0.0);
    values.set(
        "bench.trace_overhead_pct",
        (fastest(&traced_walls) / fastest(&plain_walls) - 1.0) * 100.0,
    );
    values.set("bench.traced_ops", traced_ops as f64);
    match grid {
        Workload::PaperCompute => {}
        Workload::PaperMemory => {
            probes::memory_model(seed, &mut values);
            probes::ablations(&set, &mut values);
        }
        Workload::CorpusGrid => {
            let setup_us = probes::run_setup(&set, &mut values);
            values.set(
                "exec.setup_share",
                setup_us / 1e6 / median(&plain_walls).max(1e-9),
            );
            dyn_ratio(&set, &warm, &mut values);
            probes::sweep_engine(&set, &mut values);
        }
    }
    let record = RunRecord {
        workload: grid.name(),
        seed,
        traced: true,
        attempted: traced_ops,
        failed,
        op_samples: traced_ops,
        pass_walls: traced_walls,
        values,
    };
    (record, tracer)
}

/// `vm.opt_dyn_ratio`: retired instructions of the O2 points over those
/// of their O0 twins.
fn dyn_ratio(set: &PointSet, check: &PassCheck, values: &mut Values) {
    let (mut o0, mut o2) = (0u64, 0u64);
    for (point, facts) in set.points.iter().zip(&check.facts) {
        let Some(facts) = facts else { continue };
        match point.scenario.opt_level {
            crate::adapter::OptLevel::O0 => o0 += facts.instructions,
            _ => o2 += facts.instructions,
        }
    }
    if o0 > 0 && o2 > 0 {
        values.set("vm.opt_dyn_ratio", o2 as f64 / o0 as f64);
    }
}
