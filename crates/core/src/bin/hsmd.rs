//! `hsmd` — the sweep-as-a-service job server.
//!
//! ```text
//! hsmd                                  # listen on 127.0.0.1:7411
//! hsmd --listen 127.0.0.1:0            # ephemeral port (printed on stdout)
//! hsmd --cache-dir /var/tmp/hsm-store  # persistent artifact store
//! hsmd --timeout-ms 60000              # default per-job deadline
//! ```
//!
//! The server accepts line-delimited JSON jobs (`ping`, `translate`,
//! `simulate`, `sweep`, `shutdown`) on a TCP socket; see
//! `hsm_core::protocol` for the wire format and DESIGN.md §12 for the
//! protocol walkthrough. All connections share one artifact cache, so
//! concurrent clients sweeping overlapping corpora parse, translate,
//! compile and simulate each point once between them (with
//! `--cache-dir`, once across restarts too). It prints
//! `hsmd listening on <addr>` once ready and exits cleanly on a
//! `shutdown` job.

use hsm_core::api::{Server, ServerOptions};
use hsm_core::spec::take_flag;
use std::process::ExitCode;

/// The default listen address.
const DEFAULT_LISTEN: &str = "127.0.0.1:7411";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen = DEFAULT_LISTEN.to_string();
    let mut options = ServerOptions::default();
    if let Some(value) = match take_flag(&mut args, "--listen") {
        Ok(v) => v,
        Err(e) => return usage(&e.message),
    } {
        listen = value;
    }
    match take_flag(&mut args, "--cache-dir") {
        Ok(v) => options.cache_dir = v,
        Err(e) => return usage(&e.message),
    }
    if let Some(value) = match take_flag(&mut args, "--timeout-ms") {
        Ok(v) => v,
        Err(e) => return usage(&e.message),
    } {
        match value.parse() {
            Ok(ms) => options.default_timeout_ms = ms,
            Err(_) => return usage("--timeout-ms needs a number"),
        }
    }
    if let Some(unknown) = args.first() {
        return usage(&format!("unknown argument `{unknown}`"));
    }
    let server = match Server::bind(&listen, options) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("hsmd: binding {listen} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("hsmd listening on {}", server.local_addr());
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hsmd: accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a usage error.
fn usage(message: &str) -> ExitCode {
    eprintln!("hsmd: {message}");
    eprintln!("usage: hsmd [--listen ADDR] [--cache-dir DIR] [--timeout-ms N]");
    ExitCode::FAILURE
}
