//! The `hsmd` job server and its blocking client.
//!
//! [`Server`] listens on a TCP socket for line-delimited JSON jobs (see
//! [`crate::protocol`]) and serves each connection on its own thread.
//! All connections share one [`ArtifactCache`] — optionally backed by a
//! persistent store — so two clients sweeping overlapping corpora
//! translate and compile each program, and simulate each point, once
//! between them: a repeated `simulate` or `sweep` query is answered from
//! the cache's run shelf. Sweep jobs fan
//! their points out over the sweep engine's worker pool and stream one
//! row back per point, in matrix order, as points complete; a per-job
//! deadline cancels a sweep's remaining points cooperatively.
//!
//! Shutdown is graceful: a `shutdown` job (or [`ServerHandle::stop`])
//! stops the accept loop, and [`Server::run`] returns once every
//! connection thread has drained. The accept loop waits in `accept`; a
//! stop request sets the flag and then connects once to wake it.
//!
//! [`Client`] is the matching blocking client used by `figures --client`
//! and the integration tests.

use crate::cache::ArtifactCache;
use crate::pipeline::{Pipeline, PipelineError, STAGE_STACK_BYTES};
use crate::protocol::{
    encode_job, encode_response, parse_job, parse_response, Job, JobRequest, JobResponse,
    ProtocolError, SweepRow, MAX_LINE_BYTES,
};
use crate::spec::SweepSpec;
use crate::sweep::{sweep_with, SweepOptions};
use scc_sim::SccConfig;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How often a connection's blocked read re-checks the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// A server's stop flag, and the address that wakes its accept loop.
#[derive(Debug)]
struct Stop {
    requested: AtomicBool,
    wake: SocketAddr,
}

impl Stop {
    /// A flag for a server listening on `addr`; a listener bound to an
    /// unspecified address is woken over loopback.
    fn new(addr: SocketAddr) -> Self {
        let mut wake = addr;
        if addr.ip().is_unspecified() {
            wake.set_ip(match addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        Stop {
            requested: AtomicBool::new(false),
            wake,
        }
    }

    fn requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }

    /// Sets the flag, then connects once so that an accept loop waiting
    /// for a client returns and sees it.
    fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }
}

/// Job-server configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Persistent artifact-store directory shared by every connection;
    /// `None` = in-memory cache only.
    pub cache_dir: Option<String>,
    /// Default per-job deadline in milliseconds when a job names none
    /// (0 = no deadline).
    pub default_timeout_ms: u64,
    /// The simulated chip jobs run on.
    pub config: SccConfig,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            cache_dir: None,
            default_timeout_ms: 0,
            config: SccConfig::table_6_1(),
        }
    }
}

/// A handle for stopping a running [`Server`] from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    stop: Arc<Stop>,
}

impl ServerHandle {
    /// Asks the server to stop accepting connections and return from
    /// [`Server::run`] once active connections drain.
    pub fn stop(&self) {
        self.stop.request();
    }
}

/// The `hsmd` job server. See the module docs for the protocol and
/// sharing semantics.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    options: ServerOptions,
    cache: Arc<ArtifactCache>,
    stop: Arc<Stop>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds the server to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port) and opens the shared cache.
    ///
    /// # Errors
    ///
    /// Propagates bind and store-directory failures.
    pub fn bind(addr: &str, options: ServerOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let cache = match &options.cache_dir {
            Some(dir) => ArtifactCache::persistent(dir)?,
            None => ArtifactCache::shared(),
        };
        Ok(Server {
            listener,
            addr,
            options,
            cache,
            stop: Arc::new(Stop::new(addr)),
        })
    }

    /// The bound address (read the actual port after binding to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared artifact cache (to read its stats).
    pub fn cache(&self) -> Arc<ArtifactCache> {
        Arc::clone(&self.cache)
    }

    /// A handle that stops this server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: Arc::clone(&self.stop),
        }
    }

    /// Serves connections until a `shutdown` job arrives or the handle
    /// stops the server, then drains active connections and returns.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures.
    pub fn run(self) -> io::Result<()> {
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let (stream, _) = self.listener.accept()?;
            // A stop request connects to wake this loop; that connection,
            // and any that raced it, is dropped unserved.
            if self.stop.requested() {
                break;
            }
            let cache = Arc::clone(&self.cache);
            let options = self.options.clone();
            let stop = Arc::clone(&self.stop);
            let serve = move || serve_connection(stream, &cache, &options, &stop);
            workers.push(
                std::thread::Builder::new()
                    .stack_size(STAGE_STACK_BYTES)
                    .spawn(serve)
                    .expect("spawn a connection thread"),
            );
            workers.retain(|w| !w.is_finished());
        }
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Writes one response line (errors mean the client hung up; the
/// connection loop notices on its next read).
fn send(writer: &Mutex<TcpStream>, id: u64, response: &JobResponse) {
    let mut line = encode_response(id, response);
    line.push('\n');
    if let Ok(mut stream) = writer.lock() {
        let _ = stream.write_all(line.as_bytes());
        let _ = stream.flush();
    }
}

/// One `read_line` against what is left of `line`'s [`MAX_LINE_BYTES`]
/// allowance plus the one byte that proves it was exceeded, so a peer
/// that never sends a newline cannot grow `line` without bound.
fn read_line_bounded(reader: &mut BufReader<TcpStream>, line: &mut String) -> io::Result<usize> {
    let allowance = (MAX_LINE_BYTES + 1).saturating_sub(line.len());
    reader.by_ref().take(allowance as u64).read_line(line)
}

/// Whether `line` used its whole allowance without reaching a newline.
fn too_long(line: &str) -> bool {
    line.len() > MAX_LINE_BYTES && !line.ends_with('\n')
}

/// Serves one connection: read a job line, execute, respond, repeat.
fn serve_connection(
    stream: TcpStream,
    cache: &Arc<ArtifactCache>,
    options: &ServerOptions,
    stop: &Stop,
) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    // Answers are small lines written one `write_all` each; without
    // TCP_NODELAY every line after the first of a multi-line answer
    // (`row`… `sweep_done`) waits out the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => Mutex::new(w),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if stop.requested() {
            return;
        }
        match read_line_bounded(&mut reader, &mut line) {
            Ok(0) => return, // client closed the connection
            Ok(_) if too_long(&line) => {
                // No id to echo and no way to find the next job in the
                // stream: answer once and hang up on this client only.
                let message = ProtocolError::line_too_long().to_string();
                send(&writer, 0, &JobResponse::Error { message });
                return;
            }
            Ok(_) if line.ends_with('\n') => {
                let trimmed = line.trim();
                if !trimmed.is_empty() && !handle_line(trimmed, &writer, cache, options, stop) {
                    return;
                }
                line.clear();
            }
            Ok(_) => {} // partial line, keep accumulating
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return,
        }
    }
}

/// Executes one job line. Returns false when the connection should end
/// (after a `shutdown` job).
fn handle_line(
    line: &str,
    writer: &Mutex<TcpStream>,
    cache: &Arc<ArtifactCache>,
    options: &ServerOptions,
    stop: &Stop,
) -> bool {
    let job = match parse_job(line) {
        Ok(job) => job,
        Err(e) => {
            // The id is unknown for an unparsable line; 0 is the
            // documented "no job" id.
            send(
                writer,
                0,
                &JobResponse::Error {
                    message: e.to_string(),
                },
            );
            return true;
        }
    };
    if let Err(e) = job.request.check_cores(&options.config) {
        let message = e.to_string();
        send(writer, job.id, &JobResponse::Error { message });
        return true;
    }
    let timeout_ms = job.timeout_ms.unwrap_or(options.default_timeout_ms);
    match job.request {
        JobRequest::Ping => send(writer, job.id, &JobResponse::Pong),
        JobRequest::Shutdown => {
            send(writer, job.id, &JobResponse::ShuttingDown);
            stop.request();
            return false;
        }
        JobRequest::Translate {
            name,
            source,
            cores,
        } => {
            let cache = Arc::clone(cache);
            let response = run_with_deadline(timeout_ms, move || {
                Pipeline::new(source)
                    .cores(cores)
                    .cache(cache)
                    .translation()
                    .map(|t| JobResponse::Translated {
                        name,
                        source: t.source().to_string(),
                    })
            });
            send(writer, job.id, &response);
        }
        JobRequest::Simulate {
            name,
            source,
            cores,
            scenario,
        } => {
            let spec = SweepSpec {
                programs: vec![crate::spec::SpecProgram::inline(name, cores, source)],
                scenarios: vec![scenario],
                workers: 1,
                ..SweepSpec::default()
            };
            run_sweep_job(job.id, &spec, timeout_ms, writer, cache, options, false);
        }
        JobRequest::Sweep { spec } => {
            run_sweep_job(job.id, &spec, timeout_ms, writer, cache, options, true);
        }
        JobRequest::Profile {
            name,
            source,
            cores,
            scenario,
        } => {
            let cache = Arc::clone(cache);
            let config = options.config.clone();
            let response = run_with_deadline(timeout_ms, move || {
                Pipeline::new(source)
                    .cores(cores)
                    .scenario(scenario)
                    .config(config)
                    .cache(cache)
                    .profile()
                    .map(|profile| JobResponse::Profile {
                        name,
                        profile: profile.to_text(),
                    })
            });
            send(writer, job.id, &response);
        }
    }
    true
}

/// Runs `work` on its own thread, converting a missed deadline into an
/// error response (0 = no deadline). The worker keeps running after a
/// timeout — artifacts it produces still land in the shared cache — but
/// its response is dropped.
fn run_with_deadline(
    timeout_ms: u64,
    work: impl FnOnce() -> Result<JobResponse, PipelineError> + Send + 'static,
) -> JobResponse {
    let finish = |result: Result<JobResponse, PipelineError>| match result {
        Ok(response) => response,
        Err(e) => JobResponse::Error {
            message: e.to_string(),
        },
    };
    if timeout_ms == 0 {
        return finish(work());
    }
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .stack_size(STAGE_STACK_BYTES)
        .spawn(move || {
            let _ = tx.send(work());
        })
        .expect("spawn a deadline worker");
    match rx.recv_timeout(Duration::from_millis(timeout_ms)) {
        Ok(result) => finish(result),
        Err(_) => JobResponse::Error {
            message: format!("job exceeded its {timeout_ms}ms deadline"),
        },
    }
}

/// Executes a sweep job: builds the matrix, attaches the server's shared
/// cache, streams one row per point in matrix order, and closes with
/// `sweep_done`. A deadline cancels remaining points cooperatively —
/// cancelled points stream as rows with a `cancelled` error.
fn run_sweep_job(
    id: u64,
    spec: &SweepSpec,
    timeout_ms: u64,
    writer: &Mutex<TcpStream>,
    cache: &Arc<ArtifactCache>,
    options: &ServerOptions,
    sweep_done: bool,
) {
    // The server's cache (and store) is authoritative for every job;
    // a spec-side `cache_dir` only applies to local runs.
    let matrix = match spec.to_matrix(&options.config) {
        Ok(matrix) => matrix.cache(Arc::clone(cache)),
        Err(e) => {
            send(
                writer,
                id,
                &JobResponse::Error {
                    message: e.to_string(),
                },
            );
            return;
        }
    };
    let deadline = (timeout_ms > 0).then(|| Instant::now() + Duration::from_millis(timeout_ms));
    let cancel = move || deadline.is_some_and(|d| Instant::now() >= d);
    let rows = AtomicU64::new(0);
    let on_row = |_: usize, outcome: &crate::sweep::SweepOutcome| {
        let row = SweepRow::from_outcome(outcome);
        send(writer, id, &JobResponse::Row(row));
        rows.fetch_add(1, Ordering::Relaxed);
    };
    sweep_with(
        &matrix,
        SweepOptions {
            cancel: Some(&cancel),
            on_row: Some(&on_row),
            ..SweepOptions::default()
        },
    );
    if sweep_done {
        send(
            writer,
            id,
            &JobResponse::SweepDone {
                rows: rows.load(Ordering::Relaxed),
            },
        );
    }
}

/// A client-side failure: transport, protocol, or a server-reported
/// error.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed.
    Io(io::Error),
    /// The server sent a line the protocol cannot parse, or an
    /// unexpected response kind.
    Protocol(ProtocolError),
    /// The server answered with an error response.
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client io: {e}"),
            ClientError::Protocol(e) => write!(f, "client {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// A blocking `hsmd` client over one connection.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            next_id: 1,
        })
    }

    /// Sends one job and returns its id.
    fn submit(&mut self, timeout_ms: Option<u64>, request: JobRequest) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = encode_job(&Job {
            id,
            timeout_ms,
            request,
        });
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Reads the next response line.
    fn receive(&mut self) -> Result<(u64, JobResponse), ClientError> {
        let mut line = String::new();
        if read_line_bounded(&mut self.reader, &mut line)? == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        if too_long(&line) {
            return Err(ProtocolError::line_too_long().into());
        }
        Ok(parse_response(line.trim())?)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let id = self.submit(None, JobRequest::Ping)?;
        match self.receive()? {
            (rid, JobResponse::Pong) if rid == id => Ok(()),
            (_, other) => Err(unexpected(&other)),
        }
    }

    /// Translates one program to RCCE C on the server.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server-side failures.
    pub fn translate(
        &mut self,
        name: &str,
        source: &str,
        cores: usize,
        timeout_ms: Option<u64>,
    ) -> Result<String, ClientError> {
        let id = self.submit(
            timeout_ms,
            JobRequest::Translate {
                name: name.to_string(),
                source: source.to_string(),
                cores,
            },
        )?;
        match self.receive()? {
            (rid, JobResponse::Translated { source, .. }) if rid == id => Ok(source),
            (_, JobResponse::Error { message }) => Err(ClientError::Server(message)),
            (_, other) => Err(unexpected(&other)),
        }
    }

    /// Runs a sweep on the server, invoking `on_row` for every streamed
    /// row (in matrix order) and returning all rows once the sweep
    /// completes.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server-side failures.
    pub fn sweep_streaming(
        &mut self,
        spec: &SweepSpec,
        timeout_ms: Option<u64>,
        mut on_row: impl FnMut(&SweepRow),
    ) -> Result<Vec<SweepRow>, ClientError> {
        let id = self.submit(timeout_ms, JobRequest::Sweep { spec: clean(spec) })?;
        let mut rows = Vec::new();
        loop {
            match self.receive()? {
                (rid, JobResponse::Row(row)) if rid == id => {
                    on_row(&row);
                    rows.push(row);
                }
                (rid, JobResponse::SweepDone { rows: n }) if rid == id => {
                    if n as usize != rows.len() {
                        return Err(ClientError::Protocol(protocol_error(format!(
                            "sweep_done reports {n} rows, received {}",
                            rows.len()
                        ))));
                    }
                    return Ok(rows);
                }
                (_, JobResponse::Error { message }) => return Err(ClientError::Server(message)),
                (_, other) => return Err(unexpected(&other)),
            }
        }
    }

    /// [`Client::sweep_streaming`] without a streaming hook.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server-side failures.
    pub fn sweep(
        &mut self,
        spec: &SweepSpec,
        timeout_ms: Option<u64>,
    ) -> Result<Vec<SweepRow>, ClientError> {
        self.sweep_streaming(spec, timeout_ms, |_| {})
    }

    /// Asks the server to shut down.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let id = self.submit(None, JobRequest::Shutdown)?;
        match self.receive()? {
            (rid, JobResponse::ShuttingDown) if rid == id => Ok(()),
            (_, other) => Err(unexpected(&other)),
        }
    }
}

/// Strips client-local knobs a server must not act on.
fn clean(spec: &SweepSpec) -> SweepSpec {
    let mut spec = spec.clone();
    spec.cache_dir = None;
    spec
}

fn protocol_error(message: String) -> ProtocolError {
    // ProtocolError's fields are public; build one directly.
    ProtocolError { message }
}

fn unexpected(response: &JobResponse) -> ClientError {
    ClientError::Protocol(protocol_error(format!(
        "unexpected `{}` response",
        response.kind()
    )))
}
