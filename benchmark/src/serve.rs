//! `serve_mix`: a closed loop of one client against an in-process `hsmd`
//! server with a persistent store, speaking line-JSON.
//!
//! The job *multiset* is fixed — 30 % `translate`, 55 % `simulate`, 10 %
//! `profile`, 5 % six-point `sweep`, Zipf-distributed over 40 (program,
//! cores, scenario) keys — and the seed draws the *order*. So the work a
//! pass does, and every simulated number in it, is the same for every
//! seed; what the seed moves is which job meets which cache state. The
//! server receives only the generated jobs, never the seed.
//!
//! A pass has three phases over the same sequence: **A** a fresh server
//! on an empty store (store writes), **B** a new server on the same
//! directory (memory cold, disk warm: store reads and decodes), **C**
//! the same server again, three times over (memory hits; runs still
//! re-simulate).

use crate::adapter::{
    compile_point, encode_job, fnv1a_bytes, parse_response, parse_serialized, profile_direct,
    run_direct, run_staged, translate_direct, ArtifactCache, Bench, Conn, ExecModel, Job,
    JobRequest, JobResponse, Json, Mode, OptLevel, Params, Point, RunFacts, Scenario, ServerProc,
    SpecProgram, StoreProbe, SweepSpec,
};
use crate::grid::{another_pass, memory_metrics, staged_metrics};
use crate::metrics::{RunRecord, Values};
use crate::probes::{dispatch_ns_per_instr, time_s};
use crate::seed::Rng;
use crate::stats::{mean, median, percentile, OpTimes};
use crate::trace::{totals_by_name, Tracer};
use crate::workloads::{
    check_pass, Fingerprint, PointSet, BARRIER_PROGRAMS, PAPER_MODES, TASK_PROGRAMS,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Jobs in one sequence (phase A and B run it once, phase C three times).
pub const SEQUENCE_JOBS: usize = 240;

/// Set-up (inputs, in-process reference rows, a server start and a short
/// warm-up) is repeated this many times; `setup_s` is the median.
const SETUP_ROUNDS: usize = 3;

/// The four job kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobKind {
    /// Translate to RCCE C.
    Translate,
    /// Run one scenario, one row back.
    Simulate,
    /// Profiled run, `hsmprofile` text back.
    Profile,
    /// Six-point sweep on one worker, six rows and a `sweep_done` back.
    Sweep,
}

/// Twenty consecutive slots of the multiset carry these kinds: 6
/// translate, 11 simulate, 2 profile, 1 sweep. A sweep answers with
/// several lines, and the server's socket (no `TCP_NODELAY`) holds the
/// second until the client's delayed ACK, about 40 ms later; at one job
/// in twenty that stall is a visible part of a pass without drowning the
/// layers the workload is there to load, and p90 falls among `simulate`
/// jobs instead of on the edge between the two populations.
const KIND_PATTERN: [JobKind; 20] = [
    JobKind::Simulate,
    JobKind::Translate,
    JobKind::Simulate,
    JobKind::Profile,
    JobKind::Simulate,
    JobKind::Translate,
    JobKind::Simulate,
    JobKind::Sweep,
    JobKind::Translate,
    JobKind::Simulate,
    JobKind::Simulate,
    JobKind::Translate,
    JobKind::Simulate,
    JobKind::Profile,
    JobKind::Simulate,
    JobKind::Translate,
    JobKind::Simulate,
    JobKind::Simulate,
    JobKind::Translate,
    JobKind::Simulate,
];

/// One (program, cores, scenario) key of the mix.
#[derive(Debug, Clone)]
pub struct Key {
    /// The program under the key's scenario.
    pub point: Point,
    /// The six scenarios a `sweep` job on this key runs.
    pub sweep: Vec<Scenario>,
}

/// One job of a sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// What to ask for.
    pub kind: JobKind,
    /// Index into [`keys`].
    pub key: usize,
}

/// The six paper benchmarks at about 1/50 of their paper-scale work.
fn small_params(bench: Bench, threads: usize) -> Params {
    let (size, reps) = match bench {
        Bench::PiApprox => (8_000, 1),
        Bench::Sum35 => (20_000, 1),
        Bench::CountPrimes => (600, 1),
        Bench::DotProduct => (320, 3),
        Bench::LuDecomp => (8, 8),
        Bench::Stream => (256, 2),
    };
    Params {
        threads,
        size,
        reps,
    }
}

/// The 40 keys, in Zipf rank order (rank 0 is the hottest). The order
/// interleaves corpus and paper programs so the head of the distribution
/// holds both.
pub fn keys() -> Vec<Key> {
    let paper_sweep: Vec<Scenario> = PAPER_MODES
        .iter()
        .flat_map(|&m| [OptLevel::O0, OptLevel::O2].map(|o| Scenario::new(m).opt_level(o)))
        .collect();
    let task_sweep: Vec<Scenario> = ExecModel::ALL
        .iter()
        .flat_map(|&model| {
            [OptLevel::O0, OptLevel::O2].map(|o| {
                Scenario::new(Mode::TaskDataflow)
                    .exec_model(model)
                    .opt_level(o)
            })
        })
        .collect();
    let mut keys = Vec::new();
    let mut key =
        |name: String, src: Arc<str>, cores, scenario: Scenario, exit, sweep: &[Scenario]| {
            keys.push(Key {
                point: Point {
                    name: format!(
                        "{name}@{cores}/{}/{}",
                        scenario.mode.label(),
                        scenario.opt_level.label()
                    ),
                    group: keys.len(),
                    src,
                    cores,
                    scenario,
                    expect_exit: exit,
                },
                sweep: sweep.to_vec(),
            });
        };
    for program in &BARRIER_PROGRAMS {
        let src: Arc<str> = program.src.into();
        for mode in PAPER_MODES {
            key(
                program.name.into(),
                Arc::clone(&src),
                program.cores,
                Scenario::new(mode),
                program.exit,
                &paper_sweep,
            );
        }
    }
    for program in &TASK_PROGRAMS {
        key(
            program.name.into(),
            program.src.into(),
            program.cores,
            Scenario::new(Mode::TaskDataflow),
            program.exit,
            &task_sweep,
        );
    }
    for (b, bench) in Bench::all().into_iter().enumerate() {
        for (t, threads) in [2usize, 4, 8].into_iter().enumerate() {
            let params = small_params(bench, threads);
            let opt = if b % 2 == 1 {
                OptLevel::O2
            } else {
                OptLevel::O0
            };
            key(
                bench.name().replace(' ', "_"),
                crate::adapter::paper_source(bench, &params).into(),
                threads,
                Scenario::new(PAPER_MODES[t]).opt_level(opt),
                crate::adapter::paper_reference_exit(bench, &params),
                &paper_sweep,
            );
        }
    }
    let dot = &BARRIER_PROGRAMS[5];
    key(
        dot.name.into(),
        dot.src.into(),
        dot.cores,
        Scenario::new(Mode::RcceHsm).opt_level(OptLevel::O2),
        dot.exit,
        &paper_sweep,
    );
    let n = keys.len();
    (0..n).map(|rank| keys[rank * 17 % n].clone()).collect()
}

/// How many of the `jobs` slots each of `n` keys gets under Zipf(1):
/// proportional to 1/(rank+1), at least one each, summing to `jobs`
/// exactly (largest remainders take the leftover slots).
pub fn zipf_counts(n: usize, jobs: usize) -> Vec<usize> {
    assert!(jobs >= n && n > 0);
    let harmonic: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let spare = (jobs - n) as f64;
    let ideal: Vec<f64> = (1..=n).map(|k| spare / (k as f64 * harmonic)).collect();
    let mut counts: Vec<usize> = ideal.iter().map(|x| 1 + x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        let frac = |i: usize| ideal[i] - ideal[i].floor();
        frac(b)
            .partial_cmp(&frac(a))
            .expect("finite")
            .then(a.cmp(&b))
    });
    let assigned: usize = counts.iter().sum();
    for &i in by_remainder.iter().take(jobs - assigned) {
        counts[i] += 1;
    }
    counts
}

/// The fixed job multiset: keys by Zipf count, kinds by the 6:11:2:1
/// pattern over consecutive slots.
pub fn job_multiset(n_keys: usize) -> Vec<JobSpec> {
    let mut jobs = Vec::with_capacity(SEQUENCE_JOBS);
    for (key, count) in zipf_counts(n_keys, SEQUENCE_JOBS).into_iter().enumerate() {
        for _ in 0..count {
            jobs.push(JobSpec {
                kind: KIND_PATTERN[jobs.len() % KIND_PATTERN.len()],
                key,
            });
        }
    }
    jobs
}

/// The sequence `seed` draws: a seeded shuffle of the fixed multiset.
pub fn job_sequence(seed: u64, n_keys: usize) -> Vec<JobSpec> {
    let mut jobs = job_multiset(n_keys);
    Rng::new(seed, 3).shuffle(&mut jobs);
    jobs
}

/// The wire job for `spec` with id `id`. Everything in it comes from the
/// key; the seed is not an input.
pub fn wire_job(spec: JobSpec, keys: &[Key], id: u64) -> Job {
    let key = &keys[spec.key];
    let p = &key.point;
    let (name, source, cores) = (p.name.clone(), p.src.to_string(), p.cores);
    let request = match spec.kind {
        JobKind::Translate => JobRequest::Translate {
            name,
            source,
            cores,
        },
        JobKind::Simulate => JobRequest::Simulate {
            name,
            source,
            cores,
            scenario: p.scenario,
        },
        JobKind::Profile => JobRequest::Profile {
            name,
            source,
            cores,
            scenario: p.scenario,
        },
        JobKind::Sweep => JobRequest::Sweep {
            spec: SweepSpec {
                programs: vec![SpecProgram::inline(name, cores, source)],
                scenarios: key.sweep.clone(),
                workers: 1,
                cache_dir: None,
                predict_first: false,
            },
        },
    };
    Job {
        id,
        timeout_ms: None,
        request,
    }
}

/// What the server must answer for one key, computed in-process. A
/// `None` is a reference that itself failed (counted at set-up); no
/// answer can match it.
#[derive(Debug, Clone)]
struct Expected {
    simulate: Option<RunFacts>,
    translated_fnv: Option<u64>,
    profile_fnv: Option<u64>,
    sweep: Vec<Option<RunFacts>>,
}

/// The point a key's `i`-th sweep scenario runs.
fn sweep_point(key: &Key, i: usize) -> Point {
    Point {
        name: format!("{}#{i}", key.point.name),
        scenario: key.sweep[i],
        ..key.point.clone()
    }
}

/// Computes every key's reference answers in-process (one cache per key,
/// as a fresh server would start) and checks them against the pinned
/// exits. Returns the answers and the number of reference runs that
/// failed their own check.
fn expected_answers(keys: &[Key]) -> (Vec<Expected>, u64) {
    let mut failed = 0;
    let answers = keys
        .iter()
        .map(|key| {
            let cache = ArtifactCache::shared();
            let mut facts_of = |point: &Point| match run_direct(point, &cache) {
                Ok(r) if r.exit_code == point.expect_exit => {
                    Some(RunFacts::of(&r).without_events())
                }
                Ok(r) => {
                    failed += 1;
                    eprintln!("FAILED reference {}: exit {}", point.name, r.exit_code);
                    None
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("FAILED reference {}: {e}", point.name);
                    None
                }
            };
            let simulate = facts_of(&key.point);
            let sweep = (0..key.sweep.len())
                .map(|i| facts_of(&sweep_point(key, i)))
                .collect();
            let mut text_fnv = |text: Result<String, String>| match text {
                Ok(t) => Some(fnv1a_bytes(t.as_bytes())),
                Err(e) => {
                    failed += 1;
                    eprintln!("FAILED reference {}: {e}", key.point.name);
                    None
                }
            };
            Expected {
                simulate,
                translated_fnv: text_fnv(translate_direct(&key.point, &cache)),
                profile_fnv: text_fnv(profile_direct(&key.point, &cache)),
                sweep,
            }
        })
        .collect();
    (answers, failed)
}

/// One job as the client saw it.
#[derive(Debug, Clone, Copy)]
struct JobSample {
    kind: JobKind,
    latency_ms: f64,
    /// First job on its key since this server started.
    first_touch: bool,
}

/// One phase's results.
#[derive(Debug, Default)]
struct Phase {
    wall_s: f64,
    samples: Vec<JobSample>,
    failed: u64,
    fingerprint: Fingerprint,
    response_bytes: Vec<f64>,
}

/// The client side of one connection plus the optional tracer.
struct Client<'a> {
    conn: Conn,
    next_id: u64,
    tracer: Option<&'a Tracer>,
}

/// Times `f` as a span when a tracer is attached.
fn spanned<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

impl Client<'_> {
    /// Receives and parses one response line for job `id`.
    fn receive(&mut self, id: u64, bytes: &mut Vec<f64>) -> Result<JobResponse, String> {
        let tracer = self.tracer;
        let line = spanned(tracer, "core.server.roundtrip", || self.conn.receive())
            .map_err(|e| e.to_string())?;
        bytes.push(line.len() as f64);
        let (rid, response) = spanned(tracer, "core.protocol.parse", || parse_response(&line))
            .map_err(|e| e.to_string())?;
        if rid != id {
            return Err(format!("response for job {rid}, expected {id}"));
        }
        match response {
            JobResponse::Error { message } => Err(message),
            other => Ok(other),
        }
    }

    /// Runs one job to completion and checks every answer against the
    /// in-process one. `Ok` carries the rows' facts for the fingerprint.
    fn job(
        &mut self,
        spec: JobSpec,
        keys: &[Key],
        expected: &[Expected],
        bytes: &mut Vec<f64>,
    ) -> Result<Vec<RunFacts>, String> {
        let id = self.next_id;
        self.next_id += 1;
        let job = wire_job(spec, keys, id);
        let tracer = self.tracer;
        let line = spanned(tracer, "core.protocol.encode", || encode_job(&job));
        spanned(tracer, "core.server.roundtrip", || self.conn.send(&line))
            .map_err(|e| e.to_string())?;
        let want = &expected[spec.key];
        let text_check = |got: &str, fnv: Option<u64>, what: &str| {
            if Some(fnv1a_bytes(got.as_bytes())) == fnv {
                Ok(Vec::new())
            } else {
                Err(format!("{what} differs from the in-process one"))
            }
        };
        let row_check = |response: JobResponse, want: &Option<RunFacts>| match response {
            JobResponse::Row(row) => match RunFacts::of_row(&row) {
                Some(facts) if Some(facts) == *want => Ok(facts),
                Some(facts) => Err(format!("row {facts:?} differs from in-process {want:?}")),
                None => Err(format!("row without a run: {:?}", row.error)),
            },
            other => Err(format!("unexpected `{}` response", other.kind())),
        };
        match spec.kind {
            JobKind::Translate => match self.receive(id, bytes)? {
                JobResponse::Translated { source, .. } => {
                    text_check(&source, want.translated_fnv, "translation")
                }
                other => Err(format!("unexpected `{}` response", other.kind())),
            },
            JobKind::Profile => match self.receive(id, bytes)? {
                JobResponse::Profile { profile, .. } => {
                    text_check(&profile, want.profile_fnv, "profile")
                }
                other => Err(format!("unexpected `{}` response", other.kind())),
            },
            JobKind::Simulate => {
                let response = self.receive(id, bytes)?;
                row_check(response, &want.simulate).map(|f| vec![f])
            }
            JobKind::Sweep => {
                let mut rows = Vec::with_capacity(want.sweep.len());
                for w in &want.sweep {
                    let response = self.receive(id, bytes)?;
                    rows.push(row_check(response, w)?);
                }
                match self.receive(id, bytes)? {
                    JobResponse::SweepDone { rows: n } if n as usize == rows.len() => Ok(rows),
                    other => Err(format!("sweep closed with `{}`", other.kind())),
                }
            }
        }
    }

    /// Runs `jobs` back to back (closed loop: the next job is sent when
    /// the previous one's last response has been read).
    fn phase(&mut self, jobs: &[JobSpec], keys: &[Key], expected: &[Expected]) -> Phase {
        let mut phase = Phase::default();
        let mut touched = vec![false; keys.len()];
        let started = Instant::now();
        for (n, &spec) in jobs.iter().enumerate() {
            if let Some(t) = self.tracer {
                t.set_op(self.next_id);
            }
            let job_started = Instant::now();
            let outcome = spanned(self.tracer, "op", || {
                self.job(spec, keys, expected, &mut phase.response_bytes)
            });
            phase.samples.push(JobSample {
                kind: spec.kind,
                latency_ms: job_started.elapsed().as_secs_f64() * 1e3,
                first_touch: !std::mem::replace(&mut touched[spec.key], true),
            });
            match outcome {
                Ok(rows) => {
                    for (i, facts) in rows.iter().enumerate() {
                        phase
                            .fingerprint
                            .add(&format!("{}#{i}", keys[spec.key].point.name), facts);
                    }
                }
                Err(why) => {
                    phase.failed += 1;
                    if phase.failed <= 8 {
                        eprintln!(
                            "FAILED job {n} ({:?} on {}): {why}",
                            spec.kind, keys[spec.key].point.name
                        );
                    }
                }
            }
        }
        phase.wall_s = started.elapsed().as_secs_f64();
        phase
    }
}

/// A scratch directory under the run's output directory, removed when
/// dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(label: &str) -> io::Result<Self> {
        let dir = crate::out_dir().join(format!("{label}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// Total bytes of the files below the directory.
    fn bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            std::fs::read_dir(dir).map_or(0, |entries| {
                entries
                    .flatten()
                    .map(|e| match e.metadata() {
                        Ok(m) if m.is_dir() => walk(&e.path()),
                        Ok(m) => m.len(),
                        Err(_) => 0,
                    })
                    .sum()
            })
        }
        walk(&self.0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The persistent store's counters as the phases left them.
#[derive(Debug, Default, Clone, Copy)]
struct StoreCounts {
    writes: u64,
    loads: u64,
    misses: u64,
    corrupt: u64,
    bytes: u64,
}

/// One pass: phases A, B and C.
struct ServePass {
    a: Phase,
    b: Phase,
    c: Phase,
    store: StoreCounts,
}

impl ServePass {
    fn wall_s(&self) -> f64 {
        self.a.wall_s + self.b.wall_s + self.c.wall_s
    }

    fn failed(&self) -> u64 {
        self.a.failed + self.b.failed + self.c.failed
    }

    fn samples(&self) -> impl Iterator<Item = &JobSample> {
        self.a
            .samples
            .iter()
            .chain(&self.b.samples)
            .chain(&self.c.samples)
    }

    /// The pass's fingerprint: phase A's, which B must equal and C must
    /// equal three times over.
    fn consistent(&self) -> bool {
        let tripled = |f: &Fingerprint| Fingerprint {
            timed_cycles: f.timed_cycles * 3,
            total_cycles: f.total_cycles * 3,
            instructions: f.instructions * 3,
            events: f.events * 3,
            outputs: f.outputs.wrapping_mul(3),
        };
        self.b.fingerprint == self.a.fingerprint
            && self.c.fingerprint == tripled(&self.a.fingerprint)
    }
}

/// Everything set-up prepares.
struct Prepared {
    keys: Vec<Key>,
    jobs: Vec<JobSpec>,
    expected: Vec<Expected>,
    reference_failures: u64,
}

/// One set-up round: inputs, in-process answers, and a server started on
/// a scratch store, pinged, warmed with the head of the sequence, and
/// stopped.
fn set_up_once(seed: u64) -> io::Result<Prepared> {
    let keys = keys();
    let jobs = job_sequence(seed, keys.len());
    let (expected, reference_failures) = expected_answers(&keys);
    let dir = ScratchDir::create("serve-warmup")?;
    let server = ServerProc::start(Some(&dir.0))?;
    let mut client = Client {
        conn: Conn::connect(&server.addr)?,
        next_id: 1,
        tracer: None,
    };
    ping(&mut client.conn)?;
    let warm = client.phase(&jobs[..jobs.len() / 4], &keys, &expected);
    drop(client);
    server.stop()?;
    Ok(Prepared {
        keys,
        jobs,
        expected,
        reference_failures: reference_failures + warm.failed,
    })
}

/// Set-up, `SETUP_ROUNDS` times; returns the last round's state and the
/// median time.
fn set_up(seed: u64) -> io::Result<(Prepared, f64)> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_ROUNDS {
        let (s, prepared) = time_s(|| set_up_once(seed));
        times.push(s);
        last = Some(prepared?);
    }
    Ok((last.expect("at least one set-up round"), median(&times)))
}

/// One ping round trip.
fn ping(conn: &mut Conn) -> io::Result<()> {
    conn.send(&encode_job(&Job {
        id: 0,
        timeout_ms: None,
        request: JobRequest::Ping,
    }))?;
    match parse_response(&conn.receive()?) {
        Ok((0, JobResponse::Pong)) => Ok(()),
        other => Err(io::Error::other(format!("ping answered with {other:?}"))),
    }
}

/// Runs one pass.
fn pass(prepared: &Prepared, tracer: Option<&Tracer>, n: usize) -> io::Result<ServePass> {
    let Prepared {
        keys,
        jobs,
        expected,
        ..
    } = prepared;
    let dir = ScratchDir::create(&format!("serve-store-{n}"))?;
    let connect = |server: &ServerProc| -> io::Result<Client<'_>> {
        Ok(Client {
            conn: Conn::connect(&server.addr)?,
            next_id: 1,
            tracer,
        })
    };
    let mut store = StoreCounts::default();
    let mut tally = |server: &ServerProc| {
        if let Some(s) = server.cache.stats().store {
            store.writes += s.total_writes();
            store.loads += s.total_loads();
            store.misses += s.total_misses();
            store.corrupt += s.total_corrupt();
        }
    };
    let server = ServerProc::start(Some(&dir.0))?;
    let mut client = connect(&server)?;
    let a = client.phase(jobs, keys, expected);
    drop(client);
    tally(&server);
    server.stop()?;
    store.bytes = dir.bytes();
    let server = ServerProc::start(Some(&dir.0))?;
    let mut client = connect(&server)?;
    let b = client.phase(jobs, keys, expected);
    let thrice: Vec<JobSpec> = jobs.iter().chain(jobs).chain(jobs).copied().collect();
    let c = client.phase(&thrice, keys, expected);
    drop(client);
    tally(&server);
    server.stop()?;
    Ok(ServePass { a, b, c, store })
}

/// Folds a pass's verdict into the run's failure count.
fn account(pass: &ServePass, reference: &Fingerprint, failed: &mut u64) {
    *failed += pass.failed();
    if !pass.consistent() || pass.a.fingerprint != *reference {
        *failed += 1;
        eprintln!(
            "FAILED pass: fingerprints A {:?} B {:?} C {:?} vs in-process {reference:?}",
            pass.a.fingerprint, pass.b.fingerprint, pass.c.fingerprint
        );
    }
}

/// The fingerprint one run of the sequence must produce, from the
/// in-process answers.
fn reference_fingerprint(prepared: &Prepared) -> Fingerprint {
    let mut fingerprint = Fingerprint::default();
    for spec in &prepared.jobs {
        let want = &prepared.expected[spec.key];
        let name = &prepared.keys[spec.key].point.name;
        let rows: &[Option<RunFacts>] = match spec.kind {
            JobKind::Simulate => std::slice::from_ref(&want.simulate),
            JobKind::Sweep => &want.sweep,
            JobKind::Translate | JobKind::Profile => &[],
        };
        for (i, facts) in rows.iter().enumerate() {
            if let Some(facts) = facts {
                fingerprint.add(&format!("{name}#{i}"), facts);
            }
        }
    }
    fingerprint
}

/// The timed run: whole passes for `seconds`.
pub fn run_untraced(seed: u64, seconds: f64) -> io::Result<RunRecord> {
    let (prepared, setup_s) = set_up(seed)?;
    let reference = reference_fingerprint(&prepared);
    let mut failed = prepared.reference_failures;
    let mut walls = Vec::new();
    let mut times = OpTimes::default();
    let started = Instant::now();
    while another_pass(started, seconds, &walls) {
        let pass = pass(&prepared, None, walls.len())?;
        account(&pass, &reference, &mut failed);
        walls.push(pass.wall_s());
        times.push(pass.samples().map(|s| s.latency_ms).collect());
    }
    let fastest = times.fastest();
    let wall_s = times.pass_wall_s();
    let mut values = Values::default();
    values.set("wall_s", wall_s);
    values.set(
        "sim_mips",
        5.0 * reference.instructions as f64 / wall_s / 1e6,
    );
    values.set("op_p50_ms", percentile(&fastest, 50.0));
    values.set("op_p90_ms", percentile(&fastest, 90.0));
    values.set("setup_s", setup_s);
    values.set("peak_rss_mb", crate::peak_rss_mb());
    values.set("sim_cycles", 5.0 * reference.timed_cycles as f64);
    let attempted = times.samples();
    values.set("failed_share", failed as f64 / attempted.max(1) as f64);
    values.set("fig61_err_pct", 0.0);
    Ok(RunRecord {
        workload: "serve_mix",
        seed,
        traced: false,
        attempted,
        failed,
        op_samples: attempted,
        pass_walls: walls,
        values,
    })
}

/// The traced run: one untraced and one traced pass (client-side spans
/// around encode, round trip and parse), a staged in-process pass over
/// every key for the frontend split, then the store, codec, protocol and
/// server probes.
pub fn run_traced(seed: u64) -> io::Result<(RunRecord, Tracer)> {
    let (prepared, _) = set_up(seed)?;
    let reference = reference_fingerprint(&prepared);
    let mut failed = prepared.reference_failures;
    let plain = pass(&prepared, None, 0)?;
    account(&plain, &reference, &mut failed);
    let tracer = Tracer::default();
    let traced = pass(&prepared, Some(&tracer), 1)?;
    account(&traced, &reference, &mut failed);
    let attempted = traced.samples().count() as u64;

    let mut values = Values::default();
    let client_totals = totals_by_name(&tracer.spans());
    let mean_us = |name: &str| client_totals.get(name).map_or(0.0, |t| t.mean_us());
    let (encode_us, parse_us) = (
        mean_us("core.protocol.encode"),
        mean_us("core.protocol.parse"),
    );
    let client_spans = tracer.len();

    // The frontend split of the programs this workload serves: every
    // key's point and sweep scenarios, staged in-process.
    let staged_tracer = Tracer::default();
    let mut staged_set = PointSet {
        points: Vec::new(),
        fig61: Vec::new(),
    };
    for key in &prepared.keys {
        staged_set.points.push(key.point.clone());
        staged_set
            .points
            .extend((0..key.sweep.len()).map(|i| sweep_point(key, i)));
    }
    let cache = ArtifactCache::shared();
    let staged: Vec<_> = staged_set
        .points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            staged_tracer.set_op(i as u64);
            staged_tracer.span("op", || run_staged(p, &cache, &staged_tracer))
        })
        .collect();
    let check = check_pass(&staged_set, &staged);
    failed += check.failed;
    for why in &check.failures {
        eprintln!("FAILED staged reference: {why}");
    }
    staged_metrics(
        &staged_tracer,
        dispatch_ns_per_instr(),
        check.fingerprint.instructions as f64,
        check.fingerprint.events as f64,
        &mut values,
    );
    memory_metrics(&check, &mut values);
    let stats = cache.stats();
    values.set("core.cache.hits", stats.total_hits() as f64);
    values.set("core.cache.misses", stats.total_misses() as f64);
    values.set("bench.spans", (client_spans + staged_tracer.len()) as f64);

    values.set("core.protocol.encode_us", encode_us);
    values.set("core.protocol.parse_us", parse_us);
    let row_bytes: Vec<f64> = [&traced.a, &traced.b, &traced.c]
        .iter()
        .flat_map(|p| p.response_bytes.iter().copied())
        .collect();
    values.set("core.protocol.row_bytes", mean(&row_bytes));
    let p50 = |pick: &dyn Fn(&JobSample) -> bool, phases: &[&Phase]| {
        let v: Vec<f64> = phases
            .iter()
            .flat_map(|p| p.samples.iter())
            .filter(|s| pick(s))
            .map(|s| s.latency_ms)
            .collect();
        percentile(&v, 50.0)
    };
    let all = [&traced.a, &traced.b, &traced.c];
    for (name, kind) in [
        ("core.server.translate_p50_ms", JobKind::Translate),
        ("core.server.simulate_p50_ms", JobKind::Simulate),
        ("core.server.profile_p50_ms", JobKind::Profile),
        ("core.server.sweep_p50_ms", JobKind::Sweep),
    ] {
        values.set(name, p50(&|s| s.kind == kind, &all));
    }
    values.set(
        "core.server.cold_p50_ms",
        p50(&|s| s.first_touch, &[&traced.a]),
    );
    values.set(
        "core.server.diskwarm_p50_ms",
        p50(&|s| s.first_touch, &[&traced.b]),
    );
    values.set("core.server.hot_p50_ms", p50(&|_| true, &[&traced.c]));
    let every: Vec<f64> = traced.samples().map(|s| s.latency_ms).collect();
    values.set("core.server.job_p99_ms", percentile(&every, 99.0));
    values.set("core.store.warm_ratio", traced.b.wall_s / traced.a.wall_s);
    values.set(
        "core.cache.hot_ratio",
        traced.c.wall_s / 3.0 / traced.a.wall_s,
    );
    values.set("core.store.writes", traced.store.writes as f64);
    values.set("core.store.loads", traced.store.loads as f64);
    values.set("core.store.misses", traced.store.misses as f64);
    values.set("core.store.corrupt", traced.store.corrupt as f64);
    values.set("core.store.bytes", traced.store.bytes as f64);
    values.set(
        "bench.trace_overhead_pct",
        (traced.wall_s() / plain.wall_s() - 1.0) * 100.0,
    );
    values.set("bench.traced_ops", attempted as f64);

    codec_probes(&prepared, &mut values)?;
    server_probes(&prepared, &mut values)?;

    let record = RunRecord {
        workload: "serve_mix",
        seed,
        traced: true,
        attempted,
        failed,
        op_samples: attempted,
        pass_walls: vec![traced.wall_s()],
        values,
    };
    Ok((record, tracer))
}

/// `vm.serial_*`, `core.store.save_us` / `load_us` and
/// `core.json.parse_mb_s`: each key's compiled program through the
/// bytecode codec and the store, and every request line of the sequence
/// through the JSON parser.
fn codec_probes(prepared: &Prepared, values: &mut Values) -> io::Result<()> {
    const REPS: usize = 5;
    let dir = ScratchDir::create("serve-probe")?;
    let mut store = StoreProbe::open(&dir.0)?;
    let (mut encode, mut decode, mut save, mut load, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, key) in prepared.keys.iter().enumerate() {
        let compiled = compile_point(&key.point).map_err(io::Error::other)?;
        let text = compiled.serialize();
        bytes.push(text.len() as f64);
        store.select(i as u64);
        let per_key = |f: &mut dyn FnMut()| {
            let samples: Vec<f64> = (0..REPS).map(|_| time_s(&mut *f).0 * 1e6).collect();
            median(&samples)
        };
        encode.push(per_key(&mut || {
            std::hint::black_box(compiled.serialize());
        }));
        decode.push(per_key(&mut || {
            std::hint::black_box(parse_serialized(&text)).expect("a serialized program decodes");
        }));
        save.push(per_key(&mut || {
            store
                .save(text.as_bytes())
                .expect("the probe store accepts writes");
        }));
        load.push(per_key(&mut || {
            assert_eq!(store.load().map(|b| b.len()), Some(text.len()));
        }));
    }
    values.set("vm.serial_encode_us", mean(&encode));
    values.set("vm.serial_decode_us", mean(&decode));
    values.set("vm.serial_bytes", mean(&bytes));
    values.set("core.store.save_us", mean(&save));
    values.set("core.store.load_us", mean(&load));
    let lines: Vec<String> = prepared
        .jobs
        .iter()
        .enumerate()
        .map(|(i, &spec)| encode_job(&wire_job(spec, &prepared.keys, i as u64 + 1)))
        .collect();
    let total_bytes: usize = lines.iter().map(String::len).sum();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            time_s(|| {
                for line in &lines {
                    std::hint::black_box(Json::parse(line)).expect("a job line is JSON");
                }
            })
            .0
        })
        .collect();
    values.set(
        "core.json.parse_mb_s",
        total_bytes as f64 / 1e6 / median(&samples),
    );
    Ok(())
}

/// `core.server.ping_rtt_us` and `core.server.job_overhead_us`: the
/// hottest key's `simulate` over the socket against the same point run
/// in-process on a warm cache.
fn server_probes(prepared: &Prepared, values: &mut Values) -> io::Result<()> {
    const PINGS: usize = 2_000;
    const JOBS: usize = 300;
    let server = ServerProc::start(None)?;
    let mut client = Client {
        conn: Conn::connect(&server.addr)?,
        next_id: 1,
        tracer: None,
    };
    let pings: Vec<f64> = (0..PINGS)
        .map(|_| time_s(|| ping(&mut client.conn)))
        .map(|(s, r)| r.map(|()| s * 1e6))
        .collect::<io::Result<_>>()?;
    values.set("core.server.ping_rtt_us", median(&pings));
    let hot = JobSpec {
        kind: JobKind::Simulate,
        key: 0,
    };
    let mut sink = Vec::new();
    let socket: Vec<f64> = (0..JOBS)
        .map(|_| {
            let (s, r) = time_s(|| client.job(hot, &prepared.keys, &prepared.expected, &mut sink));
            r.map(|_| s * 1e6).map_err(io::Error::other)
        })
        .collect::<io::Result<_>>()?;
    drop(client);
    server.stop()?;
    let cache = ArtifactCache::shared();
    let point = &prepared.keys[0].point;
    let direct: Vec<f64> = (0..JOBS)
        .map(|_| {
            let (s, r) = time_s(|| run_direct(point, &cache));
            r.map(|_| s * 1e6).map_err(io::Error::other)
        })
        .collect::<io::Result<_>>()?;
    values.set(
        "core.server.job_overhead_us",
        median(&socket) - median(&direct),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_counts_sum_and_decrease() {
        let counts = zipf_counts(40, SEQUENCE_JOBS);
        assert_eq!(counts.iter().sum::<usize>(), SEQUENCE_JOBS);
        assert!(counts.iter().all(|&c| c >= 1));
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        assert!(counts[0] > 10 * counts[39]);
    }

    #[test]
    fn the_mix_has_the_stated_shares() {
        let jobs = job_multiset(40);
        let share = |kind| jobs.iter().filter(|j| j.kind == kind).count() * 100 / jobs.len();
        assert_eq!(share(JobKind::Translate), 30);
        assert_eq!(share(JobKind::Simulate), 55);
        assert_eq!(share(JobKind::Profile), 10);
        assert_eq!(share(JobKind::Sweep), 5);
    }

    #[test]
    fn forty_distinct_keys_with_six_point_sweeps() {
        let keys = keys();
        assert_eq!(keys.len(), 40);
        let mut names: Vec<&str> = keys.iter().map(|k| k.point.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 40);
        assert!(keys.iter().all(|k| k.sweep.len() == 6));
    }

    /// Same seed, same sequence; another seed, another order of the same
    /// jobs; and the wire lines carry nothing of the seed — with ids
    /// aside, two seeds send the same multiset of bytes.
    #[test]
    fn the_seed_draws_the_order_and_never_reaches_the_server() {
        let keys = keys();
        let a = job_sequence(11, keys.len());
        assert_eq!(a, job_sequence(11, keys.len()));
        let b = job_sequence(12, keys.len());
        assert_ne!(a, b);
        let wire = |jobs: &[JobSpec]| {
            let mut lines: Vec<String> = jobs
                .iter()
                .map(|&spec| encode_job(&wire_job(spec, &keys, 0)))
                .collect();
            lines.sort_unstable();
            lines
        };
        assert_eq!(wire(&a), wire(&b));
    }
}
