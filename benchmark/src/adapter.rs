//! The one file that imports the crates under test.
//!
//! Every `use hsm_*` / `scc_sim` in the harness lives here, so a change
//! to the measured API (ROADMAP item 2 collapses the run surface) needs a
//! one-file follow-up. The rest of the harness speaks in the types this
//! module re-exports and the plain functions below; `hsm_core::api`
//! re-exports are preferred where they exist.

use crate::trace::Tracer;
use hsm_analysis::ProgramAnalysis;
use hsm_core::api::{
    source_hash, sweep_with, ArtifactKey, DiskStore, LoadOutcome, MemorySpec, Pipeline, Server,
    ServerHandle, ServerOptions, SweepMatrix, SweepOptions, SweepOutcome, SweepTask,
};
use hsm_translate::TranslateOptions;
use scc_sim::{MemorySystem, SccConfig};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use hsm_core::api::{
    encode_job, fnv1a_bytes, parse_response, ArtifactCache, ExecModel, Job, JobRequest,
    JobResponse, Json, Mode, OptLevel, Scenario, SpecProgram, SweepRow, SweepSpec,
};
pub use hsm_core::experiment::outputs_equivalent;
pub use hsm_exec::RunResult;
pub use hsm_workloads::{Bench, Params};

/// One executable point: a program under one scenario at one core count.
#[derive(Debug, Clone)]
pub struct Point {
    /// Display name, unique within a workload.
    pub name: String,
    /// Points of one group run the same program and must produce
    /// equivalent outputs.
    pub group: usize,
    /// The C source.
    pub src: Arc<str>,
    /// Participating core count.
    pub cores: usize,
    /// Mode × memory model × opt level.
    pub scenario: Scenario,
    /// The exit code a correct run returns.
    pub expect_exit: i64,
}

impl Point {
    /// The point's session over `cache`, as `sweep` would configure it.
    fn pipeline(&self, cache: &Arc<ArtifactCache>) -> Pipeline {
        Pipeline::new(Arc::clone(&self.src))
            .cores(self.cores)
            .scenario(self.scenario)
            .cache(Arc::clone(cache))
    }
}

/// The deterministic face of a run result: what must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFacts {
    /// Exit code.
    pub exit_code: i64,
    /// The benchmark's own timed interval, in simulated cycles.
    pub timed_cycles: u64,
    /// Makespan in simulated cycles.
    pub total_cycles: u64,
    /// Retired bytecode instructions.
    pub instructions: u64,
    /// Scheduler events (0 when the source of the facts does not carry
    /// them, as wire rows do not).
    pub events: u64,
    /// FNV-1a of the sorted program output.
    pub output_fnv: u64,
}

impl RunFacts {
    /// Facts of an in-process run.
    pub fn of(result: &RunResult) -> Self {
        RunFacts {
            exit_code: result.exit_code,
            timed_cycles: result.timed_cycles,
            total_cycles: result.total_cycles,
            instructions: result.instructions,
            events: result.events,
            output_fnv: SweepRow::output_hash(result),
        }
    }

    /// Facts of a wire row; `None` for an error or predicted-only row.
    pub fn of_row(row: &SweepRow) -> Option<Self> {
        Some(RunFacts {
            exit_code: row.exit_code?,
            timed_cycles: row.timed_cycles?,
            total_cycles: row.total_cycles?,
            instructions: row.instructions?,
            events: 0,
            output_fnv: row.output_fnv?,
        })
    }

    /// The same facts without the event count, for comparison with wire
    /// rows.
    pub fn without_events(self) -> Self {
        RunFacts { events: 0, ..self }
    }
}

/// Source and parameters of one paper benchmark at `threads` units and
/// its default (paper-scale) size.
pub fn paper_program(bench: Bench, threads: usize) -> (String, Params) {
    let params = bench.default_params(threads);
    (hsm_workloads::source(bench, &params), params)
}

/// Source of one paper benchmark at explicit parameters.
pub fn paper_source(bench: Bench, params: &Params) -> String {
    hsm_workloads::source(bench, params)
}

/// The exit code the reference model computes for a paper benchmark.
pub fn paper_reference_exit(bench: Bench, params: &Params) -> i64 {
    hsm_workloads::reference_exit(bench, params)
}

/// Runs one point through `Pipeline::run_scenario` — the direct,
/// sweep-less path.
///
/// # Errors
///
/// The pipeline failure, rendered.
pub fn run_direct(point: &Point, cache: &Arc<ArtifactCache>) -> Result<RunResult, String> {
    point
        .pipeline(cache)
        .run_scenario()
        .map_err(|e| e.to_string())
}

/// The translated RCCE source of a point's program under the default
/// placement — what a `translate` job, which carries no scenario, asks
/// for.
///
/// # Errors
///
/// The pipeline failure, rendered.
pub fn translate_direct(point: &Point, cache: &Arc<ArtifactCache>) -> Result<String, String> {
    Pipeline::new(Arc::clone(&point.src))
        .cores(point.cores)
        .cache(Arc::clone(cache))
        .translation()
        .map(|t| t.to_source())
        .map_err(|e| e.to_string())
}

/// The `hsmprofile` text of a point's profiled run.
///
/// # Errors
///
/// The pipeline failure, rendered.
pub fn profile_direct(point: &Point, cache: &Arc<ArtifactCache>) -> Result<String, String> {
    point
        .pipeline(cache)
        .profile()
        .map(|p| p.to_text())
        .map_err(|e| e.to_string())
}

/// One executed op of a pass: the result and its latency as seen from
/// outside.
#[derive(Debug)]
pub struct OpOutcome {
    /// The run, or the rendered failure.
    pub result: Result<RunResult, String>,
    /// Nanoseconds from the previous op's completion to this one's.
    pub latency_ns: u64,
}

/// Executes `points` in order through `sweep_with` on `workers` worker
/// threads over `cache`. With one worker, ops complete in order and each
/// op's latency is the gap between consecutive row callbacks — timed
/// here, not read from the report.
pub fn run_sweep(points: &[Point], cache: &Arc<ArtifactCache>, workers: usize) -> Vec<OpOutcome> {
    let mut matrix = SweepMatrix::new(SccConfig::table_6_1())
        .workers(workers)
        .cache(Arc::clone(cache));
    for p in points {
        matrix = matrix.point(
            p.name.clone(),
            Arc::clone(&p.src),
            SweepTask::Run(p.scenario),
            p.cores,
        );
    }
    let stamps: Mutex<Vec<Instant>> = Mutex::new(Vec::with_capacity(points.len()));
    let on_row = |_: usize, _: &SweepOutcome| {
        stamps.lock().expect("stamp lock").push(Instant::now());
    };
    let started = Instant::now();
    let report = sweep_with(
        &matrix,
        SweepOptions {
            cancel: None,
            on_row: Some(&on_row),
            predict_first: false,
        },
    );
    let stamps = stamps.into_inner().expect("stamp lock");
    let mut previous = started;
    report
        .outcomes
        .into_iter()
        .zip(stamps)
        .map(|(outcome, at)| {
            let latency_ns = at.duration_since(previous).as_nanos() as u64;
            previous = at;
            OpOutcome {
                result: outcome.into_run().map_err(|e| e.to_string()),
                latency_ns,
            }
        })
        .collect()
}

/// Compiles `unit` at `level` under spans, recording the static sizes.
fn compile_staged(
    unit: &hsm_cir::TranslationUnit,
    level: OptLevel,
    t: &Tracer,
) -> Result<hsm_vm::Program, String> {
    let program = t
        .span("vm.compile", || hsm_vm::compile(unit))
        .map_err(|e| e.to_string())?;
    t.count("vm.static_instrs", program.code_len() as f64);
    if level == OptLevel::O0 {
        return Ok(program);
    }
    let (optimized, stats) = t.span("vm.opt", || hsm_vm::optimize_with_stats(&program, level));
    t.count("vm.opt_static_before", stats.instrs_before as f64);
    t.count("vm.opt_static_after", stats.instrs_after as f64);
    Ok(optimized)
}

/// Runs one point stage by stage through the layer crates' public
/// functions — the calls `Pipeline::run_scenario` makes, in its order and
/// through the same `ArtifactCache` shelves — with every call wrapped in
/// a span. Cache lookups are `core.cache` spans whose children are the
/// stage computations, so a lookup's self time is the cache's own cost.
///
/// # Errors
///
/// The failing stage's error, rendered.
pub fn run_staged(
    point: &Point,
    cache: &Arc<ArtifactCache>,
    t: &Tracer,
) -> Result<RunResult, String> {
    let config = SccConfig::table_6_1();
    let src = source_hash(&point.src);
    let Scenario {
        mode,
        exec_model,
        opt_level,
    } = point.scenario;
    let unit = t.span("core.cache", || {
        cache.unit_with(src, &point.src, || {
            t.count("cir.src_bytes", point.src.len() as f64);
            t.span("cir.parse", || hsm_cir::parse(&point.src))
                .map_err(|e| e.to_string())
        })
    })?;
    let program = match mode {
        Mode::PthreadBaseline | Mode::TaskDataflow => t.span("core.cache", || {
            cache.program_with(
                ArtifactKey::BaselineProgram {
                    src,
                    opt: opt_level,
                },
                || compile_staged(&unit, opt_level, t),
            )
        })?,
        Mode::RcceOffChip | Mode::RcceHsm => {
            let policy = mode.policy();
            let spec = MemorySpec::scc(point.cores);
            let analysis = t.span("core.cache", || {
                cache.analysis_with(src, &unit, || {
                    let a = t.span("analysis.analyze", || ProgramAnalysis::analyze(&unit));
                    t.count("analysis.vars", a.sharing.variables().count() as f64);
                    Ok::<_, String>(a)
                })
            })?;
            let plan = t.span("core.cache", || {
                cache.plan_with(ArtifactKey::Plan { src, policy, spec }, || {
                    let plan = t.span("partition.plan", || {
                        let shared = hsm_partition::shared_vars_from_analysis(&analysis);
                        hsm_partition::partition(&shared, &spec, policy)
                    });
                    if mode == Mode::RcceHsm {
                        t.count(
                            "partition.onchip_access_fraction",
                            plan.on_chip_access_fraction(),
                        );
                    }
                    Ok::<_, String>(plan)
                })
            })?;
            let cores = point.cores;
            let translation = t.span("core.cache", || {
                cache.translation_with(
                    ArtifactKey::Translation {
                        src,
                        cores,
                        policy,
                        spec,
                    },
                    &analysis,
                    &plan,
                    || {
                        let translation = t
                            .span("translate.translate", || {
                                hsm_translate::translate_with_plan(
                                    &unit,
                                    &analysis,
                                    &plan,
                                    TranslateOptions { cores, policy },
                                )
                            })
                            .map_err(|e| e.to_string())?;
                        let out = t.span("cir.print", || hsm_cir::print_unit(&translation.unit));
                        t.count("translate.out_bytes", out.len() as f64);
                        Ok::<_, String>(translation)
                    },
                )
            })?;
            t.span("core.cache", || {
                cache.program_with(
                    ArtifactKey::TranslatedProgram {
                        src,
                        cores,
                        policy,
                        spec,
                        opt: opt_level,
                    },
                    || compile_staged(&translation.unit, opt_level, t),
                )
            })?
        }
    };
    t.span("exec.run", || match mode {
        Mode::PthreadBaseline => hsm_exec::run_pthread_model(&program, &config, exec_model),
        Mode::RcceOffChip | Mode::RcceHsm => {
            hsm_exec::run_rcce_model(&program, point.cores, &config, exec_model)
        }
        Mode::TaskDataflow => hsm_exec::run_task_model(&program, point.cores, &config, exec_model),
    })
    .map_err(|e| e.to_string())
}

/// A compiled program plus how to run it: what the run-only probes
/// (ablations, setup cost, dispatch calibration) execute repeatedly
/// without touching the frontend.
#[derive(Debug, Clone)]
pub struct Compiled {
    program: Arc<hsm_vm::Program>,
    mode: Mode,
    cores: usize,
}

/// Compiles a point's program once (through a private cache).
///
/// # Errors
///
/// The pipeline failure, rendered.
pub fn compile_point(point: &Point) -> Result<Compiled, String> {
    let pipeline = point.pipeline(&ArtifactCache::shared());
    let program = match point.scenario.mode {
        Mode::PthreadBaseline | Mode::TaskDataflow => pipeline.baseline_program(),
        Mode::RcceOffChip | Mode::RcceHsm => pipeline.program(),
    }
    .map_err(|e| e.to_string())?;
    Ok(Compiled {
        program,
        mode: point.scenario.mode,
        cores: point.cores,
    })
}

impl Compiled {
    /// Runs under `model`, optionally with the profile collector
    /// attached.
    ///
    /// # Errors
    ///
    /// The execution failure, rendered.
    pub fn run(&self, model: ExecModel, profiled: bool) -> Result<RunResult, String> {
        let config = SccConfig::table_6_1();
        let cores = self.cores;
        let p = &self.program;
        match (self.mode, profiled) {
            (Mode::PthreadBaseline, false) => hsm_exec::run_pthread_model(p, &config, model),
            (Mode::PthreadBaseline, true) => {
                hsm_exec::run_pthread_model_profiled(p, &config, model).map(|(r, _)| r)
            }
            (Mode::RcceOffChip | Mode::RcceHsm, false) => {
                hsm_exec::run_rcce_model(p, cores, &config, model)
            }
            (Mode::RcceOffChip | Mode::RcceHsm, true) => {
                hsm_exec::run_rcce_model_profiled(p, cores, &config, model).map(|(r, _)| r)
            }
            (Mode::TaskDataflow, false) => hsm_exec::run_task_model(p, cores, &config, model),
            (Mode::TaskDataflow, true) => {
                hsm_exec::run_task_model_profiled(p, cores, &config, model).map(|(r, _)| r)
            }
        }
        .map_err(|e| e.to_string())
    }

    /// The `hsm_vm::serial` text of the program.
    pub fn serialize(&self) -> String {
        hsm_vm::serialize_program(&self.program)
    }
}

/// Decodes a `hsm_vm::serial` text, returning the decoded code length.
///
/// # Errors
///
/// The codec failure, rendered.
pub fn parse_serialized(text: &str) -> Result<usize, String> {
    hsm_vm::parse_program(text)
        .map(|p| p.code_len())
        .map_err(|e| e.to_string())
}

/// Simulated-side memory statistics of one run, flattened to numbers.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemCounts {
    /// Private accesses served by L1.
    pub l1_hits: u64,
    /// Private accesses served by L2.
    pub l2_hits: u64,
    /// Private accesses that reached DRAM.
    pub private_dram: u64,
    /// Shared off-chip accesses.
    pub shared_dram: u64,
    /// MPB accesses.
    pub mpb: u64,
    /// Cycles queued at memory controllers.
    pub mc_queue_cycles: u64,
    /// Largest MPB high-water mark seen, bytes.
    pub mpb_high_water: u64,
    /// Per region (private, shared DRAM, MPB): accesses and summed
    /// latency cycles.
    pub region_lat: [(u64, u64); 3],
}

impl MemCounts {
    /// Adds one run's statistics.
    pub fn add(&mut self, r: &RunResult) {
        self.l1_hits += r.mem_stats.l1_hits;
        self.l2_hits += r.mem_stats.l2_hits;
        self.private_dram += r.mem_stats.private_dram;
        self.shared_dram += r.mem_stats.shared_dram;
        self.mpb += r.mem_stats.mpb;
        self.mc_queue_cycles += r.mem_stats.mc_queue_cycles;
        self.mpb_high_water = self.mpb_high_water.max(r.mpb_high_water as u64);
        for (slot, region) in self.region_lat.iter_mut().zip(scc_sim::Region::ALL) {
            let h = r.stats_matrix.region_histogram(region);
            slot.0 += h.count;
            slot.1 += h.total_cycles;
        }
    }
}

/// The address streams the memory-model probe replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessStream {
    /// A small private working set that stays in L1.
    PrivateHit,
    /// A private stream far larger than L2 (every line misses).
    PrivateStream,
    /// Uncacheable shared off-chip DRAM.
    SharedDram,
    /// The on-chip message-passing buffer.
    Mpb,
}

/// Replays `addrs` (offsets into the stream's region) straight into
/// `MemorySystem::access`, 32 cores round-robin, and returns host
/// nanoseconds per access plus the summed simulated latency (a checksum
/// that must repeat for a given address list).
pub fn replay_accesses(stream: AccessStream, offsets: &[u64]) -> (f64, u64) {
    let base = match stream {
        AccessStream::PrivateHit | AccessStream::PrivateStream => 0x10_0000,
        AccessStream::SharedDram => scc_sim::memory::SHARED_DRAM_BASE,
        AccessStream::Mpb => scc_sim::memory::MPB_BASE,
    };
    let mut system = MemorySystem::new(SccConfig::table_6_1());
    let mut now = 0u64;
    let mut cycles = 0u64;
    let started = Instant::now();
    for (i, off) in offsets.iter().enumerate() {
        let latency = system.access(i % 32, base + off, i % 4 == 0, now);
        now += latency / 32 + 1;
        cycles += latency;
    }
    let ns = started.elapsed().as_nanos() as f64 / offsets.len().max(1) as f64;
    (ns, std::hint::black_box(cycles))
}

/// Bytes of MPB the access probe may address.
pub fn mpb_span_bytes() -> u64 {
    let config = SccConfig::table_6_1();
    (config.cores * config.mpb_bytes_per_core) as u64
}

/// A persistent store in `dir`, driven directly for the save/load probe.
pub struct StoreProbe {
    store: DiskStore,
    key: ArtifactKey,
}

impl StoreProbe {
    /// Opens a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path) -> io::Result<Self> {
        Ok(StoreProbe {
            store: DiskStore::open(dir)?,
            key: ArtifactKey::BaselineProgram {
                src: 0,
                opt: OptLevel::O0,
            },
        })
    }

    /// Points the probe at the entry for source hash `src`.
    pub fn select(&mut self, src: u64) {
        self.key = ArtifactKey::BaselineProgram {
            src,
            opt: OptLevel::O0,
        };
    }

    /// Writes the selected entry.
    ///
    /// # Errors
    ///
    /// Propagates the store's I/O failure.
    pub fn save(&self, payload: &[u8]) -> io::Result<()> {
        self.store.save(&self.key, payload)
    }

    /// Reads and verifies the selected entry; `None` on a miss or a
    /// corrupt entry.
    pub fn load(&self) -> Option<Vec<u8>> {
        match self.store.load(&self.key) {
            LoadOutcome::Hit(bytes) => Some(bytes),
            LoadOutcome::Miss | LoadOutcome::Corrupt => None,
        }
    }
}

/// An in-process `hsmd` server on an ephemeral loopback port.
pub struct ServerProc {
    /// `host:port` to connect to.
    pub addr: String,
    /// The server's shared cache, for reading its counters.
    pub cache: Arc<ArtifactCache>,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl ServerProc {
    /// Binds `127.0.0.1:0` with a persistent store in `cache_dir` (or an
    /// in-memory cache) and serves on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates bind and store-directory failures.
    pub fn start(cache_dir: Option<&Path>) -> io::Result<Self> {
        let options = ServerOptions {
            cache_dir: cache_dir.map(|d| d.to_string_lossy().into_owned()),
            ..ServerOptions::default()
        };
        let server = Server::bind("127.0.0.1:0", options)?;
        let addr = server.local_addr().to_string();
        let cache = server.cache();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(ServerProc {
            addr,
            cache,
            handle,
            thread,
        })
    }

    /// Stops the accept loop and waits for the server thread to drain.
    ///
    /// # Errors
    ///
    /// Propagates the accept loop's failure; a panicked server thread is
    /// reported as an error too.
    pub fn stop(self) -> io::Result<()> {
        self.handle.stop();
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// One client connection speaking raw protocol lines.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Sends one protocol line.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        // One write per line: with TCP_NODELAY two writes would be two
        // segments and the server would see a partial line first.
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)?;
        self.writer.flush()
    }

    /// Receives one protocol line (without its newline).
    ///
    /// # Errors
    ///
    /// Propagates transport failures; a closed connection is
    /// `UnexpectedEof`.
    pub fn receive(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }
}
