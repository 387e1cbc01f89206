//! The one-stop public API surface.
//!
//! Everything a cache, pipeline, sweep, spec or job-server caller needs,
//! re-exported from one module so downstream code (the `figures` CLI,
//! the `hsmd` binary, integration tests, external tooling) imports from
//! `hsm_core::api` instead of chasing the individual modules:
//!
//! ```
//! use hsm_core::api::{ArtifactCache, Pipeline, SweepSpec};
//!
//! let cache = ArtifactCache::shared();
//! let run = Pipeline::new("int main() { return 7; }")
//!     .cache(cache)
//!     .run_scenario()
//!     .expect("runs");
//! assert_eq!(run.exit_code, 7);
//! let _ = SweepSpec::default();
//! ```

pub use crate::cache::{
    source_hash, ArtifactCache, ArtifactKey, CacheStats, StageCounters, StoreCounters, StoreStats,
};
pub use crate::experiment::{
    sweep, sweep_with, Mode, Scenario, SweepMatrix, SweepOptions, SweepOutcome, SweepPayload,
    SweepPoint, SweepReport, SweepTask,
};
pub use crate::json::{Json, JsonError};
pub use crate::metrics::{PipelineMetrics, Stage, StageMetric};
pub use crate::protocol::{
    encode_job, encode_response, parse_job, parse_response, Job, JobRequest, JobResponse,
    ProtocolError, SweepRow, MAX_LINE_BYTES, MAX_PROGRAM_BYTES,
};
pub use crate::server::{Client, ClientError, Server, ServerHandle, ServerOptions};
pub use crate::spec::{corpus_dir, SpecError, SpecProgram, SweepSpec, MAX_POINTS};
pub use crate::store::{fnv1a_bytes, DiskStore, LoadOutcome};
pub use crate::{ExecModel, MemorySpec, OptLevel, Pipeline, PipelineError, Policy, SharingCheck};
