//! hsm-core's public API: the one path to every public item but the
//! figure drivers in [`experiment`](crate::experiment).
//!
//! Everything a cache, pipeline, sweep, spec or job-server caller needs,
//! in one list, so downstream code (the `figures` CLI, the `hsmd`
//! binary, integration tests, external tooling) imports from
//! `hsm_core::api`:
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
pub use crate::json::{Json, JsonError};
pub use crate::metrics::{PipelineMetrics, Stage, StageMetric};
pub use crate::pipeline::{Pipeline, PipelineError, SharingCheck};
pub use crate::protocol::{
    encode_job, parse_response, Job, JobRequest, JobResponse, ProtocolError, SweepRow,
    MAX_LINE_BYTES, MAX_PROGRAM_BYTES,
};
pub use crate::scenario::{Mode, Scenario};
pub use crate::server::{Client, ClientError, Server, ServerHandle, ServerOptions};
pub use crate::spec::{
    corpus_dir, take_bool_flag, take_flag, SpecError, SpecProgram, SweepSpec, MAX_POINTS,
};
pub use crate::store::{fnv1a_bytes, DiskStore, LoadOutcome};
pub use crate::sweep::{
    sweep, sweep_with, SweepMatrix, SweepOptions, SweepOutcome, SweepPayload, SweepPoint,
    SweepReport, SweepTask,
};
pub use hsm_exec::{ExecModel, Profile};
pub use hsm_partition::{MemorySpec, Policy};
pub use hsm_vm::OptLevel;
