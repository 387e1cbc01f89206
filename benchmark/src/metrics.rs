//! The metric and workload registry — the harness's copy of what
//! `BENCHMARK.json` declares (a unit test holds the two equal) — and the
//! result record one run emits.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The name results are keyed by.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// How far the median may worsen, as a share of the base median,
    /// before `compare` calls it a regression. 0.0 marks a deterministic
    /// metric that must be equal.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The four workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["paper_compute", "paper_memory", "corpus_grid", "serve_mix"];

/// End-to-end metrics every workload emits with tracing off (the set
/// `BENCHMARK.json` declares: defined and non-zero on all four).
pub const END_TO_END: [MetricDef; 7] = [
    e2e("wall_s", "s", Better::Lower, 0.20),
    e2e("sim_mips", "Minstr/s", Better::Higher, 0.20),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("op_p90_ms", "ms", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("sim_cycles", "cycles", Better::Lower, 0.0),
];

/// End-to-end metrics the harness also reports and `compare` also
/// judges, but which `BENCHMARK.json` cannot list: `failed_share` is 0 on
/// a correct run and `fig61_err_pct` exists only where the paper states a
/// bar. Both are deterministic and must be equal between two commits
/// unless the change is meant to move them.
pub const END_TO_END_EXTRA: [MetricDef; 2] = [
    e2e("failed_share", "share", Better::Lower, 0.0),
    e2e("fig61_err_pct", "%", Better::Lower, 0.0),
];

/// Per-layer metrics, emitted by the traced run. A metric reads 0 on a
/// workload whose traced run does not enter that layer or run that probe.
pub const PER_LAYER: [MetricDef; 76] = [
    // Frontend stages: mean host time per call and the IR size after it.
    layer("cir.parse_us", "us", Better::Lower),
    layer("cir.print_us", "us", Better::Lower),
    layer("cir.src_bytes", "bytes", Better::Lower),
    layer("analysis.analyze_us", "us", Better::Lower),
    layer("analysis.vars", "count", Better::Lower),
    layer("partition.plan_us", "us", Better::Lower),
    layer("translate.translate_us", "us", Better::Lower),
    layer("translate.out_bytes", "bytes", Better::Lower),
    layer("vm.compile_us", "us", Better::Lower),
    layer("vm.static_instrs", "count", Better::Lower),
    layer("vm.opt_us", "us", Better::Lower),
    layer("core.pipeline.frontend_share", "share", Better::Lower),
    // What the optimizer and the partitioner buy in simulated work.
    layer("vm.opt_static_ratio", "ratio", Better::Lower),
    layer("vm.opt_dyn_ratio", "ratio", Better::Lower),
    layer("partition.onchip_access_fraction", "share", Better::Higher),
    // Execution: dispatch, scheduler, memory model.
    layer("vm.dispatch_ns_per_instr", "ns", Better::Lower),
    layer("exec.run_us", "us", Better::Lower),
    layer("exec.events_per_kinstr", "1/kinstr", Better::Lower),
    layer("exec.ns_per_event", "ns", Better::Lower),
    layer("sccsim.access_ns.private_hit", "ns", Better::Lower),
    layer("sccsim.access_ns.private_stream", "ns", Better::Lower),
    layer("sccsim.access_ns.shared_dram", "ns", Better::Lower),
    layer("sccsim.access_ns.mpb", "ns", Better::Lower),
    layer("exec.flat_ratio", "ratio", Better::Higher),
    layer("exec.wb_ratio", "ratio", Better::Lower),
    layer("exec.profile_ratio", "ratio", Better::Lower),
    layer("exec.sched_ratio_32v1", "ratio", Better::Lower),
    layer("exec.setup_us.pthread", "us", Better::Lower),
    layer("exec.setup_us.rcce32", "us", Better::Lower),
    layer("exec.setup_us.task32", "us", Better::Lower),
    layer("exec.setup_share", "share", Better::Lower),
    // Simulated-side counts; a simulator speed-up leaves them identical.
    layer("sccsim.l1_hit_ratio", "ratio", Better::Higher),
    layer("sccsim.l2_hit_ratio", "ratio", Better::Higher),
    layer("sccsim.shared_dram_accesses", "count", Better::Lower),
    layer("sccsim.mpb_accesses", "count", Better::Higher),
    layer("sccsim.mc_queue_cycles", "cycles", Better::Lower),
    layer("sccsim.mpb_high_water_bytes", "bytes", Better::Lower),
    layer("sccsim.mean_lat_cycles.private", "cycles", Better::Lower),
    layer(
        "sccsim.mean_lat_cycles.shared_dram",
        "cycles",
        Better::Lower,
    ),
    layer("sccsim.mean_lat_cycles.mpb", "cycles", Better::Lower),
    layer("model.fig61_err_pct", "%", Better::Lower),
    // In-memory cache and the sweep engine.
    layer("core.cache.hit_us", "us", Better::Lower),
    layer("core.cache.hits", "count", Better::Higher),
    layer("core.cache.misses", "count", Better::Lower),
    layer("core.cache.share", "share", Better::Lower),
    layer("core.sweep.overhead_us_per_point", "us", Better::Lower),
    layer("core.sweep.par_eff_2w", "ratio", Better::Higher),
    // Persistent store and its codecs.
    layer("core.store.save_us", "us", Better::Lower),
    layer("core.store.load_us", "us", Better::Lower),
    layer("core.store.writes", "count", Better::Lower),
    layer("core.store.loads", "count", Better::Higher),
    layer("core.store.misses", "count", Better::Lower),
    layer("core.store.corrupt", "count", Better::Lower),
    layer("core.store.bytes", "bytes", Better::Lower),
    layer("vm.serial_encode_us", "us", Better::Lower),
    layer("vm.serial_decode_us", "us", Better::Lower),
    layer("vm.serial_bytes", "bytes", Better::Lower),
    layer("core.store.warm_ratio", "ratio", Better::Lower),
    layer("core.cache.hot_ratio", "ratio", Better::Lower),
    // Wire protocol and the job server.
    layer("core.protocol.encode_us", "us", Better::Lower),
    layer("core.protocol.parse_us", "us", Better::Lower),
    layer("core.protocol.row_bytes", "bytes", Better::Lower),
    layer("core.json.parse_mb_s", "MB/s", Better::Higher),
    layer("core.server.ping_rtt_us", "us", Better::Lower),
    layer("core.server.job_overhead_us", "us", Better::Lower),
    layer("core.server.translate_p50_ms", "ms", Better::Lower),
    layer("core.server.simulate_p50_ms", "ms", Better::Lower),
    layer("core.server.profile_p50_ms", "ms", Better::Lower),
    layer("core.server.sweep_p50_ms", "ms", Better::Lower),
    layer("core.server.cold_p50_ms", "ms", Better::Lower),
    layer("core.server.diskwarm_p50_ms", "ms", Better::Lower),
    layer("core.server.hot_p50_ms", "ms", Better::Lower),
    layer("core.server.job_p99_ms", "ms", Better::Lower),
    // The harness itself.
    layer("bench.trace_overhead_pct", "%", Better::Lower),
    layer("bench.traced_ops", "count", Better::Higher),
    layer("bench.spans", "count", Better::Higher),
];

/// Looks a metric up in any of the three tables.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(END_TO_END_EXTRA.iter())
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The numbers one run produced, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets a metric. Panics on an undeclared name: every emitted name
    /// must be in the registry (and so in `BENCHMARK.json`).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "metric `{name}` is not declared");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` over `defs`, in table
    /// order; a declared metric the run did not set reads 0.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let fields: Vec<String> = defs
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    self.get(d.name).unwrap_or(0.0),
                    d.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Workload name.
    pub workload: &'static str,
    /// The seed inputs were drawn from.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Ops attempted in the measured passes.
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// Op latency samples taken (ops per pass × passes); the timing
    /// metrics use each op's fastest.
    pub op_samples: u64,
    /// Wall seconds of each measured pass, in order (logged so a noisy
    /// run can be told from a noisy machine).
    pub pass_walls: Vec<f64>,
    /// The metric values.
    pub values: Values,
}

impl RunRecord {
    /// True when no op failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics the driver's contract asks of this run.
    fn defs(&self) -> Vec<MetricDef> {
        if self.traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.to_vec()
        }
    }

    /// Those plus, on an untraced run, the two end-to-end metrics only
    /// the harness's own log and table carry.
    fn all_defs(&self) -> Vec<MetricDef> {
        let mut defs = self.defs();
        if !self.traced {
            defs.extend(END_TO_END_EXTRA);
        }
        defs
    }

    /// The result line of the driver contract: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.values.to_json(&self.defs())
        )
    }

    /// The fuller line appended to `benchmark/out/runs.jsonl` for
    /// `benchmark compare`: the contract line's content plus identity,
    /// sample counts and the two extra end-to-end metrics.
    pub fn log_line(&self) -> String {
        let defs = self.all_defs();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"pass_wall_s\": {:?}, \"op_samples\": {}, \"metrics\": {}}}",
            self.workload,
            self.seed,
            u8::from(self.traced),
            self.correct(),
            self.attempted,
            self.failed,
            self.pass_walls,
            self.op_samples,
            self.values.to_json(&defs)
        )
    }

    /// A human-readable table of every metric with its unit.
    pub fn table(&self) -> String {
        let defs = self.all_defs();
        let mut out = format!(
            "workload {}  seed {}  {}  passes {}  ops {} (failed {})  latency samples {}\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.pass_walls.len(),
            self.attempted,
            self.failed,
            self.op_samples
        );
        for d in defs {
            out.push_str(&format!(
                "  {:<36} {:>16.6} {:<9} ({} is better)\n",
                d.name,
                self.values.get(d.name).unwrap_or(0.0),
                d.unit,
                d.better.label()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minijson::{parse, Value};
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn declared(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` array"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    /// The names, units and directions the harness emits are exactly the
    /// ones `BENCHMARK.json` declares, in order, and all are well-formed.
    #[test]
    fn registry_equals_benchmark_json() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let mine = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.label().into()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), mine(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), mine(&PER_LAYER));
        let workloads: Vec<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(END_TO_END_EXTRA.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name))
        {
            assert!(name_ok(name), "malformed name `{name}`");
            assert!(seen.insert(name), "name `{name}` is used twice");
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        // Bounds agree too. A deterministic metric (0 here: `compare`
        // demands equality) is declared with a token 1 % bound, since the
        // driver's bound is a share of a median and 0 may be refused.
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("end_to_end")
            .iter()
            .map(|m| m.get("bound").and_then(Value::as_f64).expect("bound"))
            .collect();
        for (def, declared) in END_TO_END.iter().zip(bounds) {
            let expected = if def.bound == 0.0 { 0.01 } else { def.bound };
            assert_eq!(declared, expected, "bound of {}", def.name);
            assert!(declared <= 0.25);
        }
    }

    /// What a run prints is what the registry declares: the contract line
    /// carries exactly the table for its trace flag.
    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        for traced in [false, true] {
            let record = RunRecord {
                workload: WORKLOADS[0],
                seed: 1,
                traced,
                attempted: 9,
                failed: 0,
                op_samples: 9,
                pass_walls: vec![0.5],
                values: Values::default(),
            };
            let doc = parse(&record.result_line()).expect("result line parses");
            let top = doc.as_obj().expect("result line is an object");
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = doc
                .get("metrics")
                .and_then(Value::as_obj)
                .expect("metrics is an object");
            let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let expected: Vec<&str> = if traced {
                PER_LAYER.iter().map(|d| d.name).collect()
            } else {
                END_TO_END.iter().map(|d| d.name).collect()
            };
            assert_eq!(emitted, expected);
            assert!(parse(&record.log_line()).is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_cannot_be_emitted() {
        Values::default().set("cir.made_up", 1.0);
    }
}
