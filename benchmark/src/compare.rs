//! `benchmark compare A B`: two sets of runs, judged metric by metric.
//!
//! Each argument is a run log (`runs.jsonl`, one line per run). For every
//! (end-to-end metric, workload) the command prints both medians with
//! their quartiles and sample counts, the change as a share of A's
//! median, and a verdict: *within bound*, *regressed*, or *unresolved*
//! when the run-to-run spread is wider than the bound (unless every run
//! of B reads better than every run of A). Deterministic metrics must be
//! *equal*. The exit code is 0 only if every row is within bound or
//! equal.

use crate::metrics::{Better, MetricDef, END_TO_END, END_TO_END_EXTRA, WORKLOADS};
use crate::minijson::{parse, Value};
use crate::stats::{quartiles, spread};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// The verdict on one (metric, workload) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deterministic metric, same value in every run of both sets.
    Equal,
    /// Deterministic metric that differs.
    Different,
    /// B's median is no worse than A's by more than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The spread of A or B exceeds the bound, so the row decides nothing.
    Unresolved,
    /// One of the sets has no run of this workload.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Equal => "equal",
            Verdict::Different => "DIFFERENT",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }

    fn passes(self) -> bool {
        matches!(self, Verdict::Equal | Verdict::WithinBound)
    }
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// direction (negative = better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judges one row from the two sample sets.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Missing;
    }
    if def.bound == 0.0 {
        let first = a[0];
        return if a.iter().chain(b).all(|&x| x == first) {
            Verdict::Equal
        } else {
            Verdict::Different
        };
    }
    let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
    if spread(a).max(spread(b)) > def.bound {
        let all_better = a
            .iter()
            .all(|&x| b.iter().all(|&y| worsening(def, x, y) < 0.0));
        return if all_better {
            Verdict::WithinBound
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(def, ma, mb) > def.bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

/// (workload, metric) → samples, from the untraced runs of one log.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &Path) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut samples = Samples::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        if doc.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), n + 1))?;
        let metrics = doc.get("metrics").and_then(Value::as_obj).unwrap_or(&[]);
        for (name, metric) in metrics {
            if let Some(v) = metric.get("value").and_then(Value::as_f64) {
                samples
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(samples)
}

fn describe(samples: &[f64]) -> String {
    if samples.is_empty() {
        return "-".into();
    }
    let [q1, q2, q3] = quartiles(samples);
    format!("{q2:.6} [{q1:.6}, {q3:.6}] n={}", samples.len())
}

/// Entry point of the subcommand.
pub fn main(a: &Path, b: &Path) -> ExitCode {
    let (sa, sb) = match (load(a), load(b)) {
        (Ok(sa), Ok(sb)) => (sa, sb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!("A = {}\nB = {}", a.display(), b.display());
    println!("median [q1, q3] n; change and spread as shares of A's median\n");
    let mut all_pass = true;
    for def in END_TO_END.iter().chain(END_TO_END_EXTRA.iter()) {
        for workload in WORKLOADS {
            let key = (workload.to_string(), def.name.to_string());
            let empty = Vec::new();
            let (va, vb) = (
                sa.get(&key).unwrap_or(&empty),
                sb.get(&key).unwrap_or(&empty),
            );
            let verdict = judge(def, va, vb);
            all_pass &= verdict.passes();
            let change = match (va.is_empty(), vb.is_empty()) {
                (false, false) => {
                    let (ma, mb) = (quartiles(va)[1], quartiles(vb)[1]);
                    let rel = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
                    format!(
                        "{:+.2}% (spread A {:.2}% B {:.2}%, bound {:.0}%)",
                        rel * 100.0,
                        spread(va) * 100.0,
                        spread(vb) * 100.0,
                        def.bound * 100.0
                    )
                }
                _ => "-".into(),
            };
            println!(
                "{:<14} {:<14} {:<13} A {}  |  B {}  |  {}  [{}]",
                def.name,
                workload,
                verdict.label(),
                describe(va),
                describe(vb),
                change,
                def.unit
            );
        }
    }
    if all_pass {
        println!("\nevery row is within its bound or equal");
        ExitCode::SUCCESS
    } else {
        println!("\nat least one row regressed, differs, is unresolved or is missing");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let wall = find("wall_s").expect("declared");
        let steady = [1.00, 1.01, 0.99, 1.00, 1.01, 0.99, 1.00, 1.00, 1.01, 0.99];
        let shifted = |by: f64| steady.map(|x| x * by);
        let half = 1.0 + wall.bound / 2.0;
        let beyond = 1.0 + wall.bound * 1.5;
        assert_eq!(judge(wall, &steady, &shifted(half)), Verdict::WithinBound);
        assert_eq!(judge(wall, &steady, &shifted(beyond)), Verdict::Regressed);
        assert_eq!(judge(wall, &steady, &shifted(0.5)), Verdict::WithinBound);
        let noisy = [1.0, 1.4, 0.7, 1.2, 0.8, 1.5, 0.6, 1.1, 0.9, 1.3];
        assert_eq!(judge(wall, &noisy, &noisy), Verdict::Unresolved);
        // Noisy, but every run of B beats every run of A.
        assert_eq!(
            judge(wall, &noisy, &noisy.map(|x| x * 0.3)),
            Verdict::WithinBound
        );
        assert_eq!(judge(wall, &steady, &[]), Verdict::Missing);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let mips = find("sim_mips").expect("declared");
        let base = [70.0, 71.0, 69.0, 70.0, 70.5];
        assert_eq!(
            judge(mips, &base, &base.map(|x| x * (1.0 - mips.bound * 1.5))),
            Verdict::Regressed
        );
        assert_eq!(
            judge(mips, &base, &base.map(|x| x * 1.3)),
            Verdict::WithinBound
        );
    }

    #[test]
    fn deterministic_metrics_must_be_equal() {
        let cycles = find("sim_cycles").expect("declared");
        assert_eq!(judge(cycles, &[5.0, 5.0], &[5.0, 5.0, 5.0]), Verdict::Equal);
        assert_eq!(judge(cycles, &[5.0, 5.0], &[5.0, 6.0]), Verdict::Different);
        let failed = find("failed_share").expect("declared");
        assert_eq!(judge(failed, &[0.0], &[0.0]), Verdict::Equal);
    }
}
