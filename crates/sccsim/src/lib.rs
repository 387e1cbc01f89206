//! # scc-sim — a cycle-approximate model of the Intel Single-chip Cloud
//! Computer
//!
//! The hardware substrate for the HSM reproduction: the paper evaluates on
//! real SCC silicon, which no longer exists outside museums, so this crate
//! models the architectural features its results depend on:
//!
//! * a 6×4 tile mesh with X-Y routing, two P54C cores per tile
//!   ([`Mesh`], Figure 5.1);
//! * private, non-coherent L1/L2 caches — only private pages are
//!   cacheable ([`Cache`]);
//! * four DDR3 memory controllers at the die corners with FIFO queuing
//!   contention ([`DramBank`]);
//! * the 384 KB Message Passing Buffer, 8 KB per core ([`Mpb`]).
//!
//! [`MemorySystem`] ties these together behind a single
//! `access(core, addr, write, now) -> latency` interface that the
//! `hsm-exec` discrete-event engine drives. Every access is attributed
//! to a per-core × per-region counter matrix ([`StatsMatrix`]) with latency
//! histograms — the substrate of the run manifests the `figures` binary
//! emits.
//!
//! ```
//! use scc_sim::{memory::SHARED_DRAM_BASE, MemorySystem, Region, SccConfig};
//!
//! let mut chip = MemorySystem::new(SccConfig::table_6_1());
//! let cold = chip.access(0, 0x1000, false, 0);          // private, cold
//! let warm = chip.access(0, 0x1000, false, 100);        // L1 hit
//! let shared = chip.access(0, SHARED_DRAM_BASE, false, 200); // uncacheable
//! assert!(warm < cold);
//! assert!(warm < shared);
//! let matrix = chip.stats_matrix();
//! assert_eq!(matrix.per_core[0].region_accesses(Region::Private), 2);
//! assert_eq!(matrix.per_core[0].region_accesses(Region::SharedDram), 1);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cache;
mod config;
mod dram;
pub mod memory;
mod mesh;
mod mpb;
mod stats;

pub use cache::{Cache, CacheOutcome};
pub use config::SccConfig;
pub use dram::{DramBank, DramResponse};
pub use memory::{CoreLane, MemStats, MemorySystem, Region};
pub use mesh::{Mesh, Tile};
pub use mpb::Mpb;
pub use stats::{line_index, CoreStats, LatencyHistogram, StatsMatrix, REGION_COUNT};
