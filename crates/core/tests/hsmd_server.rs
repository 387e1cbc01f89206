//! Integration tests of the `hsmd` job server over a real socket:
//! ping/translate round-trips, two concurrent clients streaming sweeps
//! of overlapping corpora, a repeated `simulate` job answered from each
//! cache tier, malformed-line, over-long-line, over-size-program,
//! over-size-matrix, over-deep-nesting and retired-key handling, per-job
//! deadlines, graceful shutdown, and a fresh server's first connection.

use hsm_core::api::{
    encode_job, ArtifactCache, Client, Job, JobRequest, Mode, Scenario, Server, ServerOptions,
    SpecProgram, Stage, SweepSpec, MAX_LINE_BYTES, MAX_POINTS, MAX_PROGRAM_BYTES,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const TINY_SRC: &str = r#"
int shared[2];
void *tf(void *tid) { shared[(int)tid] = (int)tid + 10; return tid; }
int main() {
    pthread_t t[2];
    int i;
    for (i = 0; i < 2; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 2; i++) pthread_join(t[i], NULL);
    printf("%d %d\n", shared[0], shared[1]);
    return 0;
}
"#;

/// Binds a server on an ephemeral port, runs it on its own thread, and
/// returns the address string plus the run-loop join handle.
fn start_server(options: ServerOptions) -> (String, Server, std::sync::Arc<ArtifactCache>) {
    let server = Server::bind("127.0.0.1:0", options).expect("bind");
    let addr = server.local_addr().to_string();
    let cache = server.cache();
    (addr, server, cache)
}

fn spec_for(programs: Vec<SpecProgram>) -> SweepSpec {
    SweepSpec {
        programs,
        scenarios: vec![
            Scenario::new(Mode::PthreadBaseline),
            Scenario::new(Mode::RcceHsm),
        ],
        workers: 2,
        ..SweepSpec::default()
    }
}

#[test]
fn ping_and_translate_round_trip() {
    let (addr, server, _cache) = start_server(ServerOptions::default());
    let run = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("pong");
    let rcce = client
        .translate("tiny", TINY_SRC, 2, None)
        .expect("translated");
    assert!(rcce.contains("RCCE_init"), "RCCE C source:\n{rcce}");
    client.shutdown().expect("shutdown ack");
    run.join().expect("run thread").expect("clean exit");
}

#[test]
fn two_concurrent_clients_stream_identical_ordered_rows() {
    let (addr, server, cache) = start_server(ServerOptions::default());
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run());

    // Both clients sweep the same overlapping spec: one corpus program
    // plus one inline program, two modes each.
    let spec = spec_for(vec![
        SpecProgram::corpus("example_4_1", 3),
        SpecProgram::inline("tiny", 2, TINY_SRC),
    ]);
    let expected_names = [
        "example_4_1/baseline",
        "example_4_1/hsm",
        "tiny/baseline",
        "tiny/hsm",
    ];

    let sweeps: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let spec = spec.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mut streamed = Vec::new();
                let rows = client
                    .sweep_streaming(&spec, None, |row| streamed.push(row.name.clone()))
                    .expect("sweep");
                (streamed, rows)
            })
        })
        .collect();
    let results: Vec<_> = sweeps
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    for (streamed, rows) in &results {
        // Rows arrive in matrix order, one per point.
        assert_eq!(streamed, &expected_names);
        for row in rows {
            assert_eq!(row.error, None, "point {} failed", row.name);
            assert_eq!(row.exit_code, Some(0), "point {}", row.name);
            assert!(row.output_fnv.is_some(), "point {}", row.name);
        }
    }
    // Determinism across clients: every simulated field matches.
    assert_eq!(results[0].1, results[1].1, "clients observed the same rows");

    // The shared cache parsed each distinct source once even though two
    // clients swept concurrently (the pending-slot discipline).
    let stats = cache.stats();
    assert_eq!(
        stats[Stage::Parse].misses,
        2,
        "two distinct sources: {stats:?}"
    );
    assert!(
        stats[Stage::Parse].hits >= 2,
        "the second client hit: {stats:?}"
    );

    handle.stop();
    run.join().expect("run thread").expect("clean exit");
}

#[test]
fn malformed_job_line_reports_an_error_and_keeps_the_connection() {
    let (addr, server, _cache) = start_server(ServerOptions::default());
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run());

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.write_all(b"this is not json\n").expect("write");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("error line");
    assert!(line.contains("\"error\""), "error response: {line}");
    assert!(line.contains("\"id\":0"), "no-job id: {line}");

    // The connection survives: a well-formed ping still answers.
    stream
        .write_all(b"{\"id\": 7, \"op\": \"ping\"}\n")
        .expect("write ping");
    line.clear();
    reader.read_line(&mut line).expect("pong line");
    assert!(line.contains("\"pong\""), "pong response: {line}");

    handle.stop();
    run.join().expect("run thread").expect("clean exit");
}

/// An inline program over `MAX_PROGRAM_BYTES` — a job's own or one of a
/// sweep spec's — and a spec that expands past `MAX_POINTS` are each one
/// `error` response, and the connection serves the next job.
#[test]
fn over_size_programs_and_matrices_are_errors_and_the_connection_serves_on() {
    let (addr, server, _cache) = start_server(ServerOptions::default());
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run());
    let stream = TcpStream::connect(&addr).expect("connect");

    let padding = " ".repeat(MAX_PROGRAM_BYTES + 1 - TINY_SRC.len());
    let too_big = format!("{TINY_SRC}{padding}");
    let translate = encode_job(&Job {
        id: 1,
        timeout_ms: None,
        request: JobRequest::Translate {
            name: "big".to_string(),
            source: too_big.clone(),
            cores: 2,
        },
    });
    let sweep_of_big = encode_job(&Job {
        id: 2,
        timeout_ms: None,
        request: JobRequest::Sweep {
            spec: spec_for(vec![
                SpecProgram::inline("tiny", 2, TINY_SRC),
                SpecProgram::inline("big", 2, too_big),
            ]),
        },
    });
    for (job, what) in [(translate, "`source`"), (sweep_of_big, "program `big`")] {
        let answer = ask_raw(&stream, &job);
        assert!(answer.contains("\"error\""), "{answer}");
        let limit = format!(
            "{what} is {} bytes, over the {MAX_PROGRAM_BYTES}-byte limit",
            MAX_PROGRAM_BYTES + 1
        );
        assert!(answer.contains(&limit), "{answer}");
    }

    let mut wide = spec_for(vec![SpecProgram::inline("tiny", 2, TINY_SRC); 257]);
    wide.scenarios = vec![Scenario::new(Mode::RcceHsm); MAX_POINTS / 256];
    let sweep_of_many = encode_job(&Job {
        id: 3,
        timeout_ms: None,
        request: JobRequest::Sweep { spec: wide },
    });
    let answer = ask_raw(&stream, &sweep_of_many);
    assert!(answer.contains("\"error\""), "{answer}");
    assert!(answer.contains("\"id\":3"), "the job's id: {answer}");
    assert!(
        answer.contains(&format!("over the {MAX_POINTS}-point limit")),
        "{answer}"
    );

    // A program exactly at the cap is served, on the same connection.
    let at_the_cap = format!("{TINY_SRC}{}", &padding[1..]);
    assert_eq!(at_the_cap.len(), MAX_PROGRAM_BYTES);
    let translate = encode_job(&Job {
        id: 4,
        timeout_ms: None,
        request: JobRequest::Translate {
            name: "full".to_string(),
            source: at_the_cap,
            cores: 2,
        },
    });
    let answer = ask_raw(&stream, &translate);
    assert!(answer.contains("\"id\":4"), "{answer}");
    assert!(answer.contains("RCCE_init"), "{answer}");

    drop(stream);
    handle.stop();
    run.join().expect("run thread").expect("clean exit");
}

/// A job line nested deeper than the JSON parser's bound is one `error`
/// response, and the connection answers the next job. Unbounded, the
/// parser recursed once per `[` and overflowed the connection thread's
/// stack, which aborts the whole server.
#[test]
fn a_deeply_nested_line_is_an_error_and_the_connection_serves_on() {
    let (addr, server, _cache) = start_server(ServerOptions::default());
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run());
    let stream = TcpStream::connect(&addr).expect("connect");

    let deep = format!(
        "{{\"id\": 1, \"op\": \"ping\", \"pad\": {}}}",
        "[".repeat(100_000)
    );
    let answer = ask_raw(&stream, &deep);
    assert!(answer.contains("\"error\""), "{answer}");
    assert!(answer.contains("nested deeper than 64 levels"), "{answer}");
    let answer = ask_raw(&stream, "{\"id\": 2, \"op\": \"ping\"}");
    assert!(answer.contains("\"pong\""), "{answer}");

    drop(stream);
    handle.stop();
    run.join().expect("run thread").expect("clean exit");
}

/// A `simulate` job whose program nests deeper than the C parser's bound
/// fails in the parse stage, and the server serves on. Unbounded, the
/// parser and every stage after it recursed once per level and
/// overflowed the connection thread's stack.
#[test]
fn a_deeply_nested_program_is_a_parse_error_and_the_server_serves_on() {
    let (addr, server, _cache) = start_server(ServerOptions::default());
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run());
    let stream = TcpStream::connect(&addr).expect("connect");

    let nested = format!(
        "int main() {{ return {}0{}; }}",
        "(".repeat(3_000),
        ")".repeat(3_000)
    );
    let simulate = encode_job(&Job {
        id: 1,
        timeout_ms: None,
        request: JobRequest::Simulate {
            name: "nested".to_string(),
            source: nested,
            cores: 2,
            scenario: Scenario::new(Mode::RcceHsm),
        },
    });
    let answer = ask_raw(&stream, &simulate);
    assert!(answer.contains("\"error\""), "{answer}");
    assert!(answer.contains("parse stage"), "{answer}");
    assert!(answer.contains("nested deeper than 128 levels"), "{answer}");

    let mut client = Client::connect(&addr).expect("a second connection");
    client.ping().expect("pong");
    let answer = ask_raw(&stream, "{\"id\": 2, \"op\": \"ping\"}");
    assert!(answer.contains("\"pong\""), "{answer}");

    drop(stream);
    handle.stop();
    run.join().expect("run thread").expect("clean exit");
}

/// A client that never sends a newline is cut off at `MAX_LINE_BYTES`:
/// one `error` response, then EOF — and nobody else notices.
#[test]
fn an_over_long_line_costs_one_error_and_only_that_connection() {
    let (addr, server, _cache) = start_server(ServerOptions::default());
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run());

    let mut bystander = Client::connect(&addr).expect("connect");
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
        .expect("write");
    let mut answer = String::new();
    stream.read_to_string(&mut answer).expect("error, then EOF");
    assert_eq!(answer.lines().count(), 1, "{answer}");
    assert!(answer.contains("\"error\""), "{answer}");
    assert!(answer.contains("\"id\":0"), "no-job id: {answer}");
    assert!(
        answer.contains(&format!("exceeds {MAX_LINE_BYTES} bytes")),
        "{answer}"
    );

    bystander
        .ping()
        .expect("the other connection still answers");
    handle.stop();
    run.join().expect("run thread").expect("clean exit");
}

/// A spec from a pre-ISSUE-17 client: `"predict_first": true` is a typed
/// error on that job, and the same connection then serves a `simulate`.
#[test]
fn a_retired_predict_first_spec_is_an_error_and_the_connection_serves_on() {
    let (addr, server, _cache) = start_server(ServerOptions::default());
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run());

    let sweep = encode_job(&Job {
        id: 4,
        timeout_ms: None,
        request: JobRequest::Sweep {
            spec: spec_for(vec![SpecProgram::inline("tiny", 2, TINY_SRC)]),
        },
    });
    let old = sweep.replacen("\"spec\":{", "\"spec\":{\"predict_first\":true,", 1);
    assert_ne!(old, sweep, "key injected");
    let stream = TcpStream::connect(&addr).expect("connect");
    let answer = ask_raw(&stream, &old);
    assert!(answer.contains("\"error\""), "{answer}");
    assert!(answer.contains("\"id\":4"), "the job's id: {answer}");
    assert!(answer.contains("retired in ISSUE 17"), "{answer}");

    let simulate = encode_job(&Job {
        id: 5,
        timeout_ms: None,
        request: JobRequest::Simulate {
            name: "tiny".to_string(),
            source: TINY_SRC.to_string(),
            cores: 2,
            scenario: Scenario::new(Mode::RcceHsm),
        },
    });
    let row = ask_raw(&stream, &simulate);
    assert!(row.contains("\"id\":5"), "{row}");
    assert!(row.contains("\"exit_code\":0"), "{row}");

    drop(stream);
    handle.stop();
    run.join().expect("run thread").expect("clean exit");
}

#[test]
fn expired_deadline_cancels_remaining_sweep_points() {
    let (addr, server, _cache) = start_server(ServerOptions::default());
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run());

    // A program slow enough (in simulated work) that the 1ms deadline
    // has long expired by the time its first point finishes.
    let busy = r#"
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 200000; i++) s += i;
    return s != 0;
}
"#;
    let mut spec = spec_for(vec![SpecProgram::inline("busy", 2, busy)]);
    spec.workers = 1;
    let mut client = Client::connect(&addr).expect("connect");
    let rows = client.sweep(&spec, Some(1)).expect("sweep completes");
    assert_eq!(rows.len(), 2);
    // The deadline check runs before each point: the second point (and
    // possibly the first, depending on scheduling) is cancelled.
    assert_eq!(rows[1].error.as_deref(), Some("run cancelled"), "{rows:?}");
    for row in &rows {
        match row.error.as_deref() {
            None => assert!(row.exit_code.is_some(), "{row:?}"),
            Some("run cancelled") => assert_eq!(row.exit_code, None, "{row:?}"),
            Some(other) => panic!("unexpected error `{other}`: {row:?}"),
        }
    }

    // The same connection still serves an undeadlined sweep afterwards.
    let rows = client.sweep(&spec, None).expect("second sweep");
    assert!(rows.iter().all(|r| r.error.is_none()), "{rows:?}");

    handle.stop();
    run.join().expect("run thread").expect("clean exit");
}

#[test]
fn shutdown_job_stops_the_accept_loop() {
    let (addr, server, _cache) = start_server(ServerOptions::default());
    let run = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("pong");
    client.shutdown().expect("shutdown ack");
    run.join().expect("run thread").expect("clean exit");
    // The listener is gone: a fresh connection cannot complete a ping.
    std::thread::sleep(Duration::from_millis(100));
    let refused = match Client::connect(&addr) {
        Err(_) => true,
        Ok(mut client) => client.ping().is_err(),
    };
    assert!(refused, "server kept serving after shutdown");
}

/// Sends one raw job line and returns the raw answer line.
fn ask_raw(stream: &TcpStream, line: &str) -> String {
    (&*stream)
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut answer = String::new();
    BufReader::new(stream)
        .read_line(&mut answer)
        .expect("receive");
    answer
}

/// The same `simulate` job three times: on a fresh server over an empty
/// store (simulated and written), on a restarted server over the same
/// directory (loaded from disk), and again on that server (memory). The
/// three answers are byte-identical and only the first one simulated.
#[test]
fn a_repeated_simulate_job_is_a_lookup() {
    let dir = std::env::temp_dir().join(format!("hsm-hsmd-repeat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = ServerOptions {
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServerOptions::default()
    };
    let job = encode_job(&Job {
        id: 3,
        timeout_ms: None,
        request: JobRequest::Simulate {
            name: "tiny".to_string(),
            source: TINY_SRC.to_string(),
            cores: 2,
            scenario: Scenario::new(Mode::RcceHsm),
        },
    });
    // (memory hits, memory misses, store loads, store misses, store writes)
    let run_counters = |cache: &ArtifactCache| {
        let stats = cache.stats();
        let (memory, disk) = (stats[Stage::Run], stats.store.expect("store")[Stage::Run]);
        (
            memory.hits,
            memory.misses,
            disk.loads,
            disk.misses,
            disk.writes,
        )
    };

    let (addr, server, cache) = start_server(options.clone());
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run());
    let stream = TcpStream::connect(&addr).expect("connect");
    let cold = ask_raw(&stream, &job);
    assert!(cold.contains("\"exit_code\":0"), "{cold}");
    assert_eq!(
        run_counters(&cache),
        (0, 1, 0, 1, 1),
        "simulated and stored"
    );
    drop(stream);
    handle.stop();
    run.join().expect("run thread").expect("clean exit");

    let (addr, server, cache) = start_server(options);
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run());
    let stream = TcpStream::connect(&addr).expect("connect");
    let disk_warm = ask_raw(&stream, &job);
    assert_eq!(
        run_counters(&cache),
        (0, 1, 1, 0, 0),
        "loaded, not simulated"
    );
    let hot = ask_raw(&stream, &job);
    assert_eq!(
        run_counters(&cache),
        (1, 1, 1, 0, 0),
        "answered from memory"
    );
    assert_eq!(disk_warm, cold);
    assert_eq!(hot, cold);
    drop(stream);
    handle.stop();
    run.join().expect("run thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh server answers its first client as soon as it connects: the
/// accept loop waits in `accept`, not on a polling timer.
#[test]
fn a_fresh_server_answers_its_first_connection_at_once() {
    let mut waits = Vec::new();
    for _ in 0..5 {
        let (addr, server, _cache) = start_server(ServerOptions::default());
        let handle = server.handle();
        let run = std::thread::spawn(move || server.run());
        std::thread::sleep(Duration::from_millis(60));
        let start = Instant::now();
        let mut client = Client::connect(&addr).expect("connect");
        client.ping().expect("pong");
        waits.push(start.elapsed());
        drop(client);
        handle.stop();
        run.join().expect("run thread").expect("clean exit");
    }
    waits.sort();
    assert!(waits[2] < Duration::from_millis(25), "{waits:?}");
}

/// `stop()` wakes an accept loop that no client keeps busy.
#[test]
fn stop_returns_while_no_client_is_connected() {
    let (_addr, server, _cache) = start_server(ServerOptions::default());
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run());
    std::thread::sleep(Duration::from_millis(20));
    handle.stop();
    run.join().expect("run thread").expect("clean exit");
}
