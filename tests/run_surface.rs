//! The run surface's one invariant: a run is (program, scenario, sink),
//! and a sink never perturbs the run it watches.
//!
//! `Pipeline::run_traced` is the single run path; `run_scenario`,
//! `profile` and `check_sharing` are that call with nothing, the
//! profile collector or the sharing oracle attached. For every corpus
//! program under every mode it supports, all four must report the same
//! run. A second test drives the same path from the far end — a
//! `simulate` job through an in-process `hsmd` with a disk store — and
//! requires the wire row to equal the in-process sweep's.

use hsm_core::api::{
    encode_job, parse_response, sweep, Job, JobRequest, JobResponse, Mode, Pipeline, Scenario,
    Server, ServerOptions, SpecProgram, SweepRow, SweepSpec,
};
use hsm_exec::{NullSink, ProfileCollector, RunResult};
use scc_sim::SccConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

const BARRIER: [Mode; 3] = [Mode::PthreadBaseline, Mode::RcceOffChip, Mode::RcceHsm];

/// Every corpus program with its core count and the modes it supports:
/// pthread programs run as the baseline and translated, the adversarial
/// ones only as written, the task ports only under the task runtime.
const CORPUS: [(&str, usize, &[Mode]); 11] = [
    ("example_4_1", 3, &BARRIER),
    ("matrix_vector", 4, &BARRIER),
    ("mutex_histogram", 4, &BARRIER),
    ("switch_classifier", 2, &BARRIER),
    ("escaping_local", 4, &BARRIER),
    ("dot_product", 8, &BARRIER),
    ("adversarial/escaping_arg", 2, &[Mode::PthreadBaseline]),
    ("adversarial/unlocked_counter", 2, &[Mode::PthreadBaseline]),
    ("task_matrix_vector", 4, &[Mode::TaskDataflow]),
    ("task_histogram", 4, &[Mode::TaskDataflow]),
    ("task_dot_product", 8, &[Mode::TaskDataflow]),
];

fn read(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join(format!("{name}.c"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// What a sink must leave alone.
fn facts(r: &RunResult) -> (i64, u64, u64, u64, u64, Vec<String>) {
    (
        r.exit_code,
        r.timed_cycles,
        r.total_cycles,
        r.instructions,
        r.events,
        r.output_sorted(),
    )
}

#[test]
fn sinks_never_perturb_a_run() {
    for (name, cores, modes) in CORPUS {
        let session = Pipeline::new(read(name)).cores(cores);
        for &mode in modes {
            let tag = format!("{name}/{}", mode.label());
            let s = session.clone().scenario(mode.into());
            let plain = s
                .run_scenario()
                .unwrap_or_else(|e| panic!("{tag}: run_scenario: {e}"));
            let traced = s
                .run_traced(&mut NullSink)
                .unwrap_or_else(|e| panic!("{tag}: run_traced: {e}"));
            let mut collector = ProfileCollector::new(s.chip().line_bytes);
            let profiled = s
                .run_traced(&mut collector)
                .unwrap_or_else(|e| panic!("{tag}: profiled run_traced: {e}"));
            let profile = collector.into_profile(profiled);
            let checked = s
                .check_sharing()
                .unwrap_or_else(|e| panic!("{tag}: check_sharing: {e}"));
            assert_eq!(facts(&plain), facts(&traced), "{tag}: NullSink");
            assert_eq!(
                facts(&plain),
                facts(&profile.run),
                "{tag}: profile collector"
            );
            assert_eq!(facts(&plain), facts(&checked.result), "{tag}: oracle");
            assert!(
                checked.report.data_accesses > 0,
                "{tag}: oracle saw the run"
            );
        }
    }
}

#[test]
fn simulate_job_row_equals_the_in_process_row() {
    let dir = std::env::temp_dir().join(format!("hsm-run-surface-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let source = read("matrix_vector");
    let scenario = Scenario::new(Mode::RcceHsm);

    let spec = SweepSpec {
        programs: vec![SpecProgram::inline("matrix_vector", 4, source.clone())],
        scenarios: vec![scenario],
        workers: 1,
        ..SweepSpec::default()
    };
    let matrix = spec.to_matrix(&SccConfig::table_6_1()).expect("matrix");
    let local = SweepRow::from_outcome(&sweep(&matrix).outcomes[0]);
    assert_eq!(local.error, None);

    let options = ServerOptions {
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServerOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", options).expect("bind");
    let addr = server.local_addr();
    let cache = server.cache();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());

    let stream = TcpStream::connect(addr).expect("connect");
    let job = Job {
        id: 7,
        timeout_ms: None,
        request: JobRequest::Simulate {
            name: "matrix_vector".to_string(),
            source,
            cores: 4,
            scenario,
        },
    };
    assert_eq!(ask(&stream, &job), JobResponse::Row(local));

    let store = cache.stats().store.expect("server cache has a store");
    assert!(store.total_writes() > 0, "artifacts written through");
    handle.stop();
    thread.join().expect("server thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A load and a store whose effective address is negative: run-time errors
/// of the C program, not of the tool.
const NEGATIVE_LOAD: &str = "int main() { int *p = (int *)(0 - 8); return *p; }";
const NEGATIVE_STORE: &str =
    "int a[4]; int main() { int i = 0 - 2000000000; a[i] = 1; return a[0]; }";

#[test]
fn a_negative_address_is_a_run_error_not_a_host_panic() {
    for (what, source) in [("load", NEGATIVE_LOAD), ("store", NEGATIVE_STORE)] {
        for mode in BARRIER {
            let err = Pipeline::new(source)
                .cores(2)
                .scenario(mode.into())
                .run_scenario()
                .expect_err("a negative address cannot succeed");
            let tag = format!("{what}/{}", mode.label());
            assert_eq!(err.stage(), "exec", "{tag}: {err}");
            assert!(
                err.to_string().contains("negative address -"),
                "{tag}: {err}"
            );
        }
    }
}

/// A negative pointer handed to a library call instead of dereferenced:
/// one call per sync model that takes its argument as an address, and the
/// `printf` path all three share.
const NEGATIVE_MUTEX: &str = "\
int main() { pthread_mutex_lock((pthread_mutex_t *)(0 - 8)); return 0; }";
const NEGATIVE_PUT: &str = "\
int main() { int x[1]; RCCE_put((char *)(0 - 8), (char *)x, 4, 0); return 0; }";
const NEGATIVE_REGION: &str = "\
void work(int id) { }
int main() { task_spawn(work, 0, (int *)(0 - 8), 4, 0, 0, 0, 0); task_wait_all(); return 0; }";
const NEGATIVE_FORMAT: &str = "int main() { printf((char *)(0 - 8)); return 0; }";

#[test]
fn a_negative_syscall_pointer_is_a_run_error_not_a_host_panic() {
    let cases: [(&str, &str, &[Mode]); 4] = [
        ("mutex", NEGATIVE_MUTEX, &[Mode::PthreadBaseline]),
        ("put", NEGATIVE_PUT, &[Mode::RcceOffChip, Mode::RcceHsm]),
        ("region", NEGATIVE_REGION, &[Mode::TaskDataflow]),
        ("format", NEGATIVE_FORMAT, &EVERY_MODE),
    ];
    for (what, source, modes) in cases {
        for &mode in modes {
            let err = Pipeline::new(source)
                .cores(2)
                .scenario(mode.into())
                .run_scenario()
                .expect_err("a negative address cannot succeed");
            let tag = format!("{what}/{}", mode.label());
            assert_eq!(err.stage(), "exec", "{tag}: {err}");
            assert!(
                err.to_string().contains("negative address -8"),
                "{tag}: {err}"
            );
        }
    }
}

const EVERY_MODE: [Mode; 4] = [
    Mode::PthreadBaseline,
    Mode::RcceOffChip,
    Mode::RcceHsm,
    Mode::TaskDataflow,
];

/// `sqrt()` and `fabs()` compile (the frontend does not know their arity)
/// and the VM evaluates them itself: with no argument there is nothing to
/// evaluate, which is the program's error.
const BARE_SQRT: &str = "int main() { double x = sqrt(); return (int)x; }";
const BARE_FABS: &str = "int main() { double x = fabs(); return (int)x; }";

#[test]
fn a_pure_intrinsic_without_an_argument_is_a_run_error_not_a_host_panic() {
    for (name, source) in [("sqrt", BARE_SQRT), ("fabs", BARE_FABS)] {
        for mode in EVERY_MODE {
            let err = Pipeline::new(source)
                .cores(2)
                .scenario(mode.into())
                .run_scenario()
                .expect_err("there is nothing to take the root of");
            let tag = format!("{name}/{}", mode.label());
            assert_eq!(err.stage(), "exec", "{tag}: {err}");
            let expected = format!("`{name}` called without an argument");
            assert!(err.to_string().contains(&expected), "{tag}: {err}");
        }
    }
}

/// Recursion that never returns, in functions none of whose locals live in
/// memory: the simulated stack pointer never moves, so only the call-depth
/// bound stands between this and the host's allocator aborting the process.
const RUNAWAY_MAIN: &str = "int main() { return main(); }";
const RUNAWAY_HELPER: &str = "\
int f(int n) { return f(n + 1) + n; }
int main() { return f(0); }";

#[test]
fn runaway_recursion_without_frame_memory_is_a_stack_overflow_in_bounded_time() {
    // The translator renames `main`, so a translated `main` cannot call
    // itself; the helper recursion runs in all four modes.
    let untranslated = [Mode::PthreadBaseline, Mode::TaskDataflow];
    // Sixty-four scalar locals a frame: here the bound on live registers
    // (262 144 of them, 4 MiB) is reached first, 4 096 calls deep.
    let locals: String = (1..64)
        .map(|i| format!("int a{i} = a{} + 1; ", i - 1))
        .collect();
    let wide =
        format!("int f(int a0) {{ {locals}return f(a63) + a1; }}\nint main() {{ return f(0); }}");
    let cases: [(&str, &str, &[Mode]); 3] = [
        ("main", RUNAWAY_MAIN, &untranslated),
        ("helper", RUNAWAY_HELPER, &EVERY_MODE),
        ("wide", &wide, &EVERY_MODE),
    ];
    for (what, source, modes) in cases {
        for &mode in modes {
            let started = std::time::Instant::now();
            let err = Pipeline::new(source)
                .cores(2)
                .scenario(mode.into())
                .run_scenario()
                .expect_err("the recursion has no base case");
            let tag = format!("{what}/{}", mode.label());
            assert_eq!(err.stage(), "exec", "{tag}: {err}");
            assert!(
                err.to_string()
                    .contains("simulated stack overflow calling `"),
                "{tag}: {err}"
            );
            // At most 131 072 frames and 262 144 registers: milliseconds
            // and under 16 MiB (`hsm-vm`'s unit test of the same bound
            // measures the arenas). Unbounded, this doubled the arenas
            // until the allocator gave up, seconds and gigabytes later.
            let took = started.elapsed();
            assert!(took.as_secs() < 20, "{tag}: {took:?}");
        }
    }
}

/// Each call that takes a transfer's length from the program, asked for
/// 2⁴⁰ bytes: `n` is built at run time, so only the runtime can refuse it.
const HUGE: &str = "int n = 1 << 20; n = n * n;";

fn huge_region() -> String {
    format!(
        "char data[64];
void work(int id) {{ }}
int main() {{ {HUGE} task_spawn(work, 0, data, n, 0, 0, 0, 0); task_wait_all(); return 0; }}"
    )
}

fn huge_rcce(call: &str) -> String {
    let (zero, one) = match call {
        "RCCE_put" => ("RCCE_put(a, b, n, 1)", "RCCE_put(a, b, 8, 0)"),
        "RCCE_get" => ("RCCE_get(a, b, n, 1)", "RCCE_get(a, b, 8, 0)"),
        "RCCE_send" => ("RCCE_send(a, n, 1)", "RCCE_recv(a, 8, 0)"),
        _ => ("RCCE_send(a, 8, 1)", "RCCE_recv(a, n, 0)"),
    };
    format!(
        "int main() {{ char a[8]; char b[8]; {HUGE}
    if (RCCE_ue() == 0) {zero}; else {one};
    return 0; }}"
    )
}

/// A transfer sized by the program is bounded before a byte moves: under
/// every memory model, each call ends in an error that names it and the
/// length, in milliseconds. Unbounded, the task region alone cost 6 ms a
/// MiB and a page of host memory per 4 KiB: hours and all of the host's
/// memory for this one.
#[test]
fn a_transfer_the_program_sizes_is_bounded_before_a_byte_moves() {
    use hsm_exec::ExecModel;
    let cases = [
        ("task_spawn", huge_region(), Mode::TaskDataflow),
        ("RCCE_put", huge_rcce("RCCE_put"), Mode::RcceOffChip),
        ("RCCE_get", huge_rcce("RCCE_get"), Mode::RcceHsm),
        ("RCCE_send", huge_rcce("RCCE_send"), Mode::RcceHsm),
        ("RCCE_recv", huge_rcce("RCCE_recv"), Mode::RcceOffChip),
    ];
    for (call, source, mode) in cases {
        for model in ExecModel::ALL {
            let session = Pipeline::new(source.as_str())
                .cores(2)
                .scenario(Scenario::new(mode).exec_model(model));
            // The frontend's share of the time is not what is bounded here.
            match mode {
                Mode::TaskDataflow => drop(session.baseline_program().expect("compiles")),
                _ => drop(session.program().expect("translates")),
            }
            let started = std::time::Instant::now();
            let err = session.run_scenario().expect_err("2^40 bytes cannot move");
            let took = started.elapsed();
            let tag = format!("{call}/{}", model.label());
            assert_eq!(err.stage(), "exec", "{tag}: {err}");
            let expected = format!("`{call}` of 1099511627776 bytes exceeds");
            assert!(err.to_string().contains(&expected), "{tag}: {err}");
            assert!(took.as_millis() < 100, "{tag}: {took:?}");
        }
    }
}

/// Sends one job and reads its single answer off the same connection.
fn ask(stream: &TcpStream, job: &Job) -> JobResponse {
    (&*stream)
        .write_all(format!("{}\n", encode_job(job)).as_bytes())
        .expect("send");
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("receive");
    let (id, response) = parse_response(line.trim_end()).expect("response parses");
    assert_eq!(id, job.id);
    response
}

#[test]
fn a_faulting_simulate_job_leaves_its_connection_usable() {
    let server = Server::bind("127.0.0.1:0", ServerOptions::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let stream = TcpStream::connect(addr).expect("connect");
    let simulate = |id, source: &str| Job {
        id,
        timeout_ms: None,
        request: JobRequest::Simulate {
            name: "inline".to_string(),
            source: source.to_string(),
            cores: 2,
            scenario: Scenario::new(Mode::PthreadBaseline),
        },
    };

    // A fault the VM raises, one a syscall argument raises, the two that
    // used to be host panics inside the worker, and the one that used to
    // abort the whole process.
    let faults = [
        (1, NEGATIVE_LOAD, "negative address -8"),
        (3, NEGATIVE_MUTEX, "negative address -8"),
        (5, BARE_SQRT, "`sqrt` called without an argument"),
        (7, BARE_FABS, "`fabs` called without an argument"),
        (9, RUNAWAY_MAIN, "simulated stack overflow calling `main`"),
    ];
    for (id, source, expected) in faults {
        let JobResponse::Row(faulted) = ask(&stream, &simulate(id, source)) else {
            panic!("a simulate job answers with its row");
        };
        let error = faulted.error.expect("the row carries the run error");
        assert!(error.contains(expected), "{error}");

        let next = simulate(id + 1, "int main() { return 7; }");
        let JobResponse::Row(next) = ask(&stream, &next) else {
            panic!("the next job on the same connection is answered");
        };
        assert_eq!((next.error, next.exit_code), (None, Some(7)));
    }

    // More cores than the chip has: refused by the protocol, as an error
    // response under the job's own id, before anything is parsed.
    let mut wide = simulate(11, "int main() { return 7; }");
    let JobRequest::Simulate { cores, .. } = &mut wide.request else {
        unreachable!("built above");
    };
    *cores = 49;
    let JobResponse::Error { message } = ask(&stream, &wide) else {
        panic!("a job on 49 cores is an error, not a row");
    };
    assert!(
        message.contains("`simulate` job: core count 49 outside 1..=48"),
        "{message}"
    );
    let JobResponse::Row(next) = ask(&stream, &simulate(12, "int main() { return 7; }")) else {
        panic!("the next job on the same connection is answered");
    };
    assert_eq!((next.error, next.exit_code), (None, Some(7)));

    // A task region of 2⁴⁰ bytes, which used to pin the worker for hours:
    // refused by the runtime before the task exists.
    let mut region = simulate(13, &huge_region());
    let JobRequest::Simulate { scenario, .. } = &mut region.request else {
        unreachable!("built above");
    };
    *scenario = Scenario::new(Mode::TaskDataflow);
    let JobResponse::Row(faulted) = ask(&stream, &region) else {
        panic!("a simulate job answers with its row");
    };
    let error = faulted.error.expect("the row carries the run error");
    assert!(
        error.contains("`task_spawn` of 1099511627776 bytes exceeds"),
        "{error}"
    );
    let JobResponse::Row(next) = ask(&stream, &simulate(14, "int main() { return 7; }")) else {
        panic!("the next job on the same connection is answered");
    };
    assert_eq!((next.error, next.exit_code), (None, Some(7)));

    handle.stop();
    thread.join().expect("server thread").expect("clean exit");
}
