//! # hsm-repro — reproduction of "Enabling Multi-threaded Applications on
//! Hybrid Shared Memory Manycore Architectures" (Rawat, DATE 2015)
//!
//! This umbrella crate re-exports the whole pipeline. Start with
//! [`pipeline`] ([`hsm_core`]) for the end-to-end flow, or the individual
//! layers:
//!
//! | crate | role |
//! |---|---|
//! | [`cir`] | C-subset frontend (the CETUS substitute) |
//! | [`analysis`] | Stages 1–3: scope, inter-thread, points-to |
//! | [`partition`] | Stage 4: on-/off-chip shared-data placement |
//! | [`translate`] | Stage 5: pthread → RCCE source-to-source |
//! | [`sccsim`] | the Intel SCC hardware model |
//! | [`vm`] | C bytecode compiler + suspendable VM |
//! | [`exec`] | discrete-event execution (pthread & RCCE modes) |
//! | [`workloads`] | the six evaluation benchmarks |
//!
//! See `examples/quickstart.rs` and the `figures` binary in `crates/bench`.

#![warn(missing_docs)]

pub use hsm_analysis as analysis;
pub use hsm_cir as cir;
pub use hsm_core as pipeline;
pub use hsm_exec as exec;
pub use hsm_partition as partition;
pub use hsm_translate as translate;
pub use hsm_vm as vm;
pub use hsm_workloads as workloads;
pub use scc_sim as sccsim;
