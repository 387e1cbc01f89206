//! An `hsmd` job leaves no host thread behind: the helpers a `simulate`
//! run advances its cores on are joined inside the run, deadline or not,
//! and a `profile` job that missed its deadline leaks only the one worker
//! `run_with_deadline` abandons, for as long as that worker runs.
//!
//! One test in a file of its own, because the thread count of the process
//! is what it reads.

use hsm_core::api::{encode_job, Job, JobRequest, Mode, Scenario, Server, ServerOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Four threads that each retire a few hundred thousand instructions
/// without touching memory: translated, four cores that all run far past
/// the engine's floor between two syscalls.
const BUSY_SRC: &str = r#"
int sums[4];
void *tf(void *tid) {
    int id = (int)tid;
    int i;
    int acc = 0;
    for (i = 0; i < 40000; i++) acc = acc + i % 3;
    sums[id] = acc;
    return tid;
}
int main() {
    pthread_t t[4];
    int i;
    for (i = 0; i < 4; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 4; i++) pthread_join(t[i], NULL);
    return sums[3] != 39999;
}
"#;

/// `Threads:` of `/proc/self/status`, or `None` where there is no such
/// file.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    line.trim().parse().ok()
}

/// The thread count once it is back at `expected`, or what it still reads
/// after a minute (an abandoned worker finishes its debug-build run).
fn settled(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let now = threads().expect("read a moment ago");
        if now == expected || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

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

#[test]
fn a_job_past_its_deadline_leaves_no_thread_behind() {
    if threads().is_none() {
        return;
    }
    let server = Server::bind("127.0.0.1:0", ServerOptions::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run());
    let stream = TcpStream::connect(&addr).expect("connect");
    let ping = encode_job(&Job {
        id: 1,
        timeout_ms: None,
        request: JobRequest::Ping,
    });
    let pong = ask_raw(&stream, &ping);
    assert!(pong.contains("pong"), "{pong}");
    // The accept loop, this connection's thread, the harness.
    let before = threads().expect("checked above");

    let job = |id, request| {
        encode_job(&Job {
            id,
            timeout_ms: Some(2),
            request,
        })
    };
    let (name, source) = ("busy".to_string(), BUSY_SRC.to_string());
    // The deadline is looked at between points, and the one point there is
    // has started by then: the run goes on past it and is answered.
    let simulate = JobRequest::Simulate {
        name: name.clone(),
        source: source.clone(),
        cores: 4,
        scenario: Scenario::new(Mode::RcceHsm),
    };
    let row = ask_raw(&stream, &job(2, simulate));
    assert!(row.contains("\"exit_code\":0"), "{row}");
    assert_eq!(settled(before), before, "after the simulate job");

    // A `profile` job is abandoned at its deadline and keeps running.
    let profile = JobRequest::Profile {
        name,
        source,
        cores: 4,
        scenario: Scenario::new(Mode::RcceOffChip),
    };
    let answer = ask_raw(&stream, &job(3, profile));
    assert!(answer.contains("exceeded its 2ms deadline"), "{answer}");
    assert_eq!(settled(before), before, "once the abandoned worker is done");

    drop(stream);
    handle.stop();
    run.join().expect("run thread").expect("clean exit");
}
