//! The host threads a run takes its free units ahead on are the run's own:
//! started inside it, joined before it returns, at any helper count,
//! under either rule that starts them and however the run ends.
//!
//! One test in a file of its own, because the thread count of the process
//! is what it reads: a second test on a second harness thread would be
//! counted too.

use hsm_exec::{run, ExecModel, NullSink, RunSpec, Units};
use scc_sim::SccConfig;
use std::time::{Duration, Instant};

/// `Threads:` of `/proc/self/status`, or `None` where there is no such
/// file.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    line.trim().parse().ok()
}

/// The thread count once it is back at `expected`, or what it still reads
/// after two seconds: a joined thread leaves the kernel's table an instant
/// after `join` returns.
fn settled(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let now = threads().expect("read a moment ago");
        if now == expected || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn helper_threads_are_joined_when_the_run_returns() {
    let Some(before) = threads() else {
        return;
    };
    // Every core runs well past the engine's floor between two barriers,
    // twice; the second program ends in core 2's fault instead.
    let src = |tail: &str| {
        format!(
            r#"
int RCCE_APP(int *argc, char **argv) {{
    RCCE_init(&argc, &argv);
    int me;
    me = RCCE_ue();
    int i;
    int acc = 0;
    int zero = 0;
    for (i = 0; i < 9000; i++) acc = acc + i % 3;
    RCCE_barrier(&RCCE_COMM_WORLD);
    for (i = 0; i < 9000 + 100 * me; i++) acc = acc + i % 5;
    {tail}
    RCCE_barrier(&RCCE_COMM_WORLD);
    return acc % 7;
}}
"#
        )
    };
    let model = ExecModel::Coherent;
    // The production path, as the reference, and on `helpers` host threads.
    let spec = |units| RunSpec::new(SccConfig::table_6_1(), units, model);
    let reference_of = |units| RunSpec {
        reference: true,
        ..spec(units)
    };
    let on = |helpers, units| RunSpec {
        helpers: Some(helpers),
        ..spec(units)
    };
    let rcce = Units::Rcce { cores: 8 };
    for (tail, fails) in [("", false), ("if (me == 2) return acc / zero;", true)] {
        let unit = hsm_cir::parse(&src(tail)).expect("parse");
        let program = hsm_vm::compile(&unit).expect("compile");
        let reference = run(&program, &reference_of(rcce), &mut NullSink);
        assert_eq!(reference.is_err(), fails, "{reference:?}");
        for helpers in [3, 1, 0] {
            let phases = hsm_exec::phases_on_this_thread();
            let outcome = run(&program, &on(helpers, rcce), &mut NullSink);
            assert_eq!(outcome, reference, "{helpers} helpers");
            assert!(hsm_exec::phases_on_this_thread() > phases, "no phase ran");
            assert_eq!(settled(before), before, "after a run on {helpers} helpers");
        }
        // As many helpers as the host has to spare.
        assert_eq!(run(&program, &spec(rcce), &mut NullSink), reference);
        assert_eq!(settled(before), before, "after a production run");
    }

    // The pthread baseline's threads compute ahead on helper threads too:
    // four of them spin past the engine's floor beside `main`, which joins
    // them, meets thread 2's fault doing so, or leaves while they still
    // hold what they computed.
    let src = |tail: &str, end: &str| {
        format!(
            r#"
int out[4];
void *spin(void *tid) {{
    int id = (int)tid;
    int i;
    int acc = 0;
    int zero = 0;
    for (i = 0; i < 75000; i++) acc = acc + i % 3;
    {tail}
    out[id] = acc;
    return tid;
}}
int main() {{
    pthread_t t[4];
    int i;
    int acc = 0;
    for (i = 0; i < 4; i++) pthread_create(&t[i], NULL, spin, (void *)i);
    for (i = 0; i < 60000; i++) acc = acc + i % 5;
    {end}
    return acc % 7;
}}
"#
        )
    };
    let join = "for (i = 0; i < 4; i++) pthread_join(t[i], NULL);";
    let fault = "if (id == 2) acc = acc / zero;";
    for (name, tail, end, fails) in [
        ("joined", "", join, false),
        ("fault", fault, join, true),
        ("exit", "", "exit(3);", false),
    ] {
        let unit = hsm_cir::parse(&src(tail, end)).expect("parse");
        let program = hsm_vm::compile(&unit).expect("compile");
        let reference = run(&program, &reference_of(Units::Pthread), &mut NullSink);
        assert_eq!(reference.is_err(), fails, "{name}: {reference:?}");
        for helpers in [3, 1, 0] {
            let phases = hsm_exec::phases_on_this_thread();
            let outcome = run(&program, &on(helpers, Units::Pthread), &mut NullSink);
            assert_eq!(outcome, reference, "{name} on {helpers} helpers");
            assert!(
                hsm_exec::phases_on_this_thread() > phases,
                "{name}: no phase ran"
            );
            assert_eq!(settled(before), before, "after {name} on {helpers} helpers");
        }
        assert_eq!(
            run(&program, &spec(Units::Pthread), &mut NullSink),
            reference
        );
        assert_eq!(settled(before), before, "after a production run of {name}");
    }
}
