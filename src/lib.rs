//! # hsm-repro — reproduction of "Enabling Multi-threaded Applications on
//! Hybrid Shared Memory Manycore Architectures" (Rawat, DATE 2015)
//!
//! This package hosts the workspace's root integration tests and
//! examples; it exports nothing. Start with `hsm_core::api` for the
//! end-to-end flow, or the individual layers:
//!
//! | crate | role |
//! |---|---|
//! | `hsm-cir` | C-subset frontend (the CETUS substitute) |
//! | `hsm-analysis` | Stages 1–3: scope, inter-thread, points-to |
//! | `hsm-partition` | Stage 4: on-/off-chip shared-data placement |
//! | `hsm-translate` | Stage 5: pthread → RCCE source-to-source |
//! | `scc-sim` | the Intel SCC hardware model |
//! | `hsm-vm` | C bytecode compiler + suspendable VM |
//! | `hsm-exec` | discrete-event execution (pthread, RCCE and task modes) |
//! | `hsm-workloads` | the six evaluation benchmarks |
//! | `hsm-core` | the pipeline session, sweeps, `hsmd` and the store |
//!
//! See `examples/quickstart.rs` and the `figures` binary in `crates/bench`.
