//! Discovery of the program's thread structure.
//!
//! Finds every `pthread_create` call, extracts the executed function (third
//! argument) and its argument (fourth argument), and records whether the
//! launch site sits inside a loop — the facts Algorithm 1 and the Stage 5
//! thread-to-process conversion (Algorithm 4) both need.

use hsm_cir::find_calls;
use hsm_cir::TranslationUnit;
use hsm_cir::{Expr, ExprKind};
use std::collections::BTreeSet;

/// One `pthread_create(...)` launch site.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadLaunch {
    /// Name of the thread-entry function (3rd argument).
    pub entry: String,
    /// The 4th argument passed to the entry function, printed as source.
    pub arg_src: String,
    /// Whether the 4th argument is (a cast of) the loop induction /
    /// thread-id variable, i.e. a per-thread identifier.
    pub arg_is_thread_id: bool,
    /// The name of the variable passed as the thread id, when
    /// `arg_is_thread_id` is true.
    pub thread_id_var: Option<String>,
    /// Function containing the call.
    pub in_function: String,
    /// Whether the call is lexically inside a loop.
    pub in_loop: bool,
}

/// The thread structure of a pthread program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadModel {
    /// All launch sites in source order.
    pub launches: Vec<ThreadLaunch>,
}

impl ThreadModel {
    /// Scans `tu` for `pthread_create` calls.
    ///
    /// The set of candidate thread-id variables `thread_id_vars` corresponds
    /// to the user-supplied set `T` of Algorithm 4; pass the loop induction
    /// variables of thread-launch loops (or leave empty to auto-detect:
    /// any bare local variable passed through a cast counts).
    pub(crate) fn discover(tu: &TranslationUnit, thread_id_vars: &BTreeSet<String>) -> Self {
        let mut launches = Vec::new();
        for site in find_calls(tu, "pthread_create") {
            let ExprKind::Call(_, args) = &site.expr.kind else {
                continue;
            };
            if args.len() < 4 {
                continue;
            }
            let Some(entry) = extract_entry_name(&args[2]) else {
                continue;
            };
            let arg = &args[3];
            let core = arg.peel_casts();
            let (arg_is_thread_id, thread_id_var) = match core.as_ident() {
                Some(name) => {
                    let is_tid = thread_id_vars.is_empty() || thread_id_vars.contains(name);
                    (is_tid && site.in_loop, is_tid.then(|| name.to_string()))
                }
                None => (false, None),
            };
            launches.push(ThreadLaunch {
                entry,
                arg_src: hsm_cir::print_expr(arg),
                arg_is_thread_id,
                thread_id_var,
                in_function: site.in_function.clone(),
                in_loop: site.in_loop,
            });
        }
        ThreadModel { launches }
    }

    /// Names of all thread-entry functions, deduplicated, in launch order.
    pub(crate) fn entry_functions(&self) -> Vec<&str> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for l in &self.launches {
            if seen.insert(l.entry.as_str()) {
                out.push(l.entry.as_str());
            }
        }
        out
    }

    /// How many times `entry` appears across launch sites.
    pub(crate) fn launch_count(&self, entry: &str) -> usize {
        self.launches.iter().filter(|l| l.entry == entry).count()
    }

    /// Whether `entry` is launched from inside a loop anywhere.
    pub(crate) fn launched_in_loop(&self, entry: &str) -> bool {
        self.launches.iter().any(|l| l.entry == entry && l.in_loop)
    }

    /// Algorithm 1's classification: is `entry` executed by multiple
    /// threads? True when launched in a loop or at more than one site.
    pub(crate) fn runs_in_multiple_threads(&self, entry: &str) -> bool {
        self.launched_in_loop(entry) || self.launch_count(entry) > 1
    }
}

/// Extracts the function name from the third `pthread_create` argument,
/// peeling casts and an optional leading `&`.
fn extract_entry_name(arg: &Expr) -> Option<String> {
    let core = arg.peel_casts();
    match &core.kind {
        ExprKind::Ident(name) => Some(name.clone()),
        ExprKind::Unary(hsm_cir::UnaryOp::Addr, inner) => {
            inner.peel_casts().as_ident().map(str::to_string)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_cir::parse;

    const LOOPED: &str = r#"
void *tf(void *tid) { return tid; }
int main() {
    pthread_t threads[3];
    int local;
    for (local = 0; local < 3; local++) {
        pthread_create(&threads[local], NULL, tf, (void *) local);
    }
    return 0;
}
"#;

    #[test]
    fn discovers_looped_launch() {
        let tu = parse(LOOPED).unwrap();
        let model = ThreadModel::discover(&tu, &BTreeSet::new());
        assert_eq!(model.launches.len(), 1);
        let l = &model.launches[0];
        assert_eq!(l.entry, "tf");
        assert!(l.in_loop);
        assert!(l.arg_is_thread_id);
        assert_eq!(l.thread_id_var.as_deref(), Some("local"));
        assert!(model.runs_in_multiple_threads("tf"));
    }

    #[test]
    fn single_launch_outside_loop() {
        let src = r#"
void *worker(void *arg) { return arg; }
int main() {
    pthread_t t;
    pthread_create(&t, NULL, worker, NULL);
    return 0;
}
"#;
        let tu = parse(src).unwrap();
        let model = ThreadModel::discover(&tu, &BTreeSet::new());
        assert_eq!(model.launches.len(), 1);
        assert!(!model.launches[0].in_loop);
        assert!(!model.runs_in_multiple_threads("worker"));
    }

    #[test]
    fn two_sites_same_entry_is_multiple_threads() {
        let src = r#"
void *w(void *a) { return a; }
int main() {
    pthread_t t1, t2;
    pthread_create(&t1, NULL, w, NULL);
    pthread_create(&t2, NULL, w, NULL);
    return 0;
}
"#;
        let tu = parse(src).unwrap();
        let model = ThreadModel::discover(&tu, &BTreeSet::new());
        assert_eq!(model.launch_count("w"), 2);
        assert!(model.runs_in_multiple_threads("w"));
        assert_eq!(model.entry_functions(), vec!["w"]);
    }

    #[test]
    fn entry_through_address_of() {
        let src = r#"
void *w(void *a) { return a; }
int main() {
    pthread_t t;
    pthread_create(&t, NULL, &w, NULL);
    return 0;
}
"#;
        let tu = parse(src).unwrap();
        let model = ThreadModel::discover(&tu, &BTreeSet::new());
        assert_eq!(model.launches[0].entry, "w");
    }

    #[test]
    fn explicit_thread_id_set_restricts_detection() {
        let tu = parse(LOOPED).unwrap();
        let mut tids = BTreeSet::new();
        tids.insert("other".to_string());
        let model = ThreadModel::discover(&tu, &tids);
        assert!(!model.launches[0].arg_is_thread_id);
    }

    #[test]
    fn distinct_entries_listed_in_order() {
        let src = r#"
void *a(void *x) { return x; }
void *b(void *x) { return x; }
int main() {
    pthread_t t1, t2;
    pthread_create(&t1, NULL, b, NULL);
    pthread_create(&t2, NULL, a, NULL);
    return 0;
}
"#;
        let tu = parse(src).unwrap();
        let model = ThreadModel::discover(&tu, &BTreeSet::new());
        assert_eq!(model.entry_functions(), vec!["b", "a"]);
    }
}
