//! Text-table rendering of the analysis results (Tables 4.1 and 4.2).

use crate::ProgramAnalysis;
use std::fmt::Write;

/// Renders Table 4.1: one row per variable with name, type, size,
/// read/write counts and use/def sets.
pub(crate) fn table_4_1(analysis: &ProgramAnalysis) -> String {
    let mut rows = vec![[
        "Name".to_string(),
        "Type".to_string(),
        "Size".to_string(),
        "Rd".to_string(),
        "Wr".to_string(),
        "Use In".to_string(),
        "Def In".to_string(),
    ]];
    for v in &analysis.scope.variables {
        let fmt_set = |s: &[String]| {
            if s.is_empty() {
                "null".to_string()
            } else {
                s.join(", ")
            }
        };
        rows.push([
            v.key.name.clone(),
            v.ty.decay_for_display(),
            v.size.to_string(),
            v.counts.reads.to_string(),
            v.counts.writes.to_string(),
            fmt_set(&v.used_in),
            fmt_set(&v.defined_in),
        ]);
    }
    render(&rows)
}

/// Renders Table 4.2: sharing status after each of the three stages.
pub(crate) fn table_4_2(analysis: &ProgramAnalysis) -> String {
    let mut rows = vec![[
        "Variable".to_string(),
        "Stage 1".to_string(),
        "Stage 2".to_string(),
        "Stage 3".to_string(),
    ]];
    for v in &analysis.scope.variables {
        let name = &v.key.name;
        rows.push([
            name.clone(),
            analysis.status_after_stage(name, 1).to_string(),
            analysis.status_after_stage(name, 2).to_string(),
            analysis.status_after_stage(name, 3).to_string(),
        ]);
    }
    render(&rows)
}

/// Aligns rows into a monospace table.
fn render<const N: usize>(rows: &[[String; N]]) -> String {
    let mut widths = [0usize; N];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (r, row) in rows.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "{:<w$}", cell, w = widths[i] + 2);
        }
        out.push('\n');
        if r == 0 {
            let total: usize = widths.iter().map(|w| w + 2).sum();
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

/// Extension: display types the way Table 4.1 does (arrays decay to
/// pointers, pthread types shown verbatim).
trait DecayDisplay {
    fn decay_for_display(&self) -> String;
}

impl DecayDisplay for hsm_cir::CType {
    fn decay_for_display(&self) -> String {
        match self {
            hsm_cir::CType::Array(inner, _) => format!("{inner}*"),
            other => other.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ProgramAnalysis;
    use hsm_cir::parse;

    const EXAMPLE_4_1: &str = r#"
int global;
int *ptr;
int sum[3] = {0};

void *tf(void * tid) {
    int tLocal = (int)tid;
    sum[tLocal] += tLocal;
    sum[tLocal] += *ptr;
    pthread_exit(NULL);
}

int main() {
    int local = 0;
    int tmp = 1;
    ptr = &tmp;
    pthread_t threads[3];
    int rc;
    for(local = 0; local < 3; local++) {
        rc = pthread_create(&threads[local], NULL, tf, (void *) local);
    }
    for(local = 0; local < 3; local++) {
        pthread_join(threads[local], NULL);
        printf("Sum Array: %d\n", sum[local]);
    }
    return 0;
}
"#;

    #[test]
    fn table_4_1_contains_all_variables() {
        let tu = parse(EXAMPLE_4_1).unwrap();
        let a = ProgramAnalysis::analyze(&tu);
        let t = super::table_4_1(&a);
        for name in [
            "global", "ptr", "sum", "tLocal", "tid", "local", "tmp", "threads", "rc",
        ] {
            assert!(t.contains(name), "missing {name} in:\n{t}");
        }
        // Arrays display decayed, as in the paper.
        assert!(
            t.lines()
                .any(|l| l.starts_with("sum") && l.contains("int*")),
            "{t}"
        );
    }

    #[test]
    fn table_4_2_statuses_render() {
        let tu = parse(EXAMPLE_4_1).unwrap();
        let a = ProgramAnalysis::analyze(&tu);
        let t = super::table_4_2(&a);
        // tmp's row must show the null -> false -> true trajectory.
        let tmp_row = t.lines().find(|l| l.starts_with("tmp")).unwrap();
        assert!(tmp_row.contains("null"), "{tmp_row}");
        assert!(tmp_row.contains("false"), "{tmp_row}");
        assert!(tmp_row.contains("true"), "{tmp_row}");
    }
}
