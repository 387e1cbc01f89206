//! The RCCE library's global tables and costs over the simulated SCC: the
//! two allocators and what a barrier and a `put`/`get` take. The RCCE and
//! the task sync model keep one each; locks, flags and `RCCE_wtime` are the
//! sync model's own.

use crate::machine::ExecError;
use scc_sim::memory::{MPB_BASE, SHARED_DRAM_BASE};
use scc_sim::MemorySystem;

/// Per-run RCCE state shared by all UEs.
#[derive(Debug, Clone)]
pub(crate) struct RcceRuntime {
    num_ues: usize,
    sh_brk: u64,
    sh_limit: u64,
}

impl RcceRuntime {
    /// Initializes the runtime for `num_ues` units of execution
    /// (`RCCE_init`); UE *i* runs on core *i*.
    pub(crate) fn new(num_ues: usize) -> Self {
        RcceRuntime {
            num_ues,
            sh_brk: SHARED_DRAM_BASE,
            sh_limit: MPB_BASE,
        }
    }

    /// `RCCE_shmalloc(bytes)`: carves an uncacheable off-chip shared
    /// region. Returns the address.
    ///
    /// # Errors
    ///
    /// Fails when the shared window is exhausted.
    pub(crate) fn shmalloc(&mut self, bytes: usize) -> Result<u64, ExecError> {
        let aligned = ((bytes + 31) & !31) as u64;
        if self.sh_brk + aligned > self.sh_limit {
            return Err(refused("shared DRAM", bytes));
        }
        let addr = self.sh_brk;
        self.sh_brk += aligned;
        Ok(addr)
    }

    /// `RCCE_malloc(bytes)`: allocates linearly-addressed MPB space whose
    /// *ownership* is blocked across the participating UEs (participant
    /// `i`'s chunk lives in its own slice). Returns the address.
    ///
    /// # Errors
    ///
    /// Fails when the chip's 384 KB MPB is exhausted.
    pub(crate) fn mpb_malloc(
        &mut self,
        chip: &mut MemorySystem,
        bytes: usize,
    ) -> Result<u64, ExecError> {
        // Capacity spans the whole 384 KB MPB; ownership blocks across
        // the participating UEs so each core's partition chunk is local.
        match chip.mpb.alloc_shared(self.num_ues, bytes) {
            Some(linear) => Ok(MPB_BASE + linear as u64),
            None => Err(refused("MPB", bytes)),
        }
    }

    /// The cost in core cycles of one `RCCE_barrier(&RCCE_COMM_WORLD)`
    /// *after* the last participant arrives.
    ///
    /// The real implementation gathers one flag per UE through the MPB and
    /// broadcasts a release: O(n) MPB round trips at the master.
    pub(crate) fn barrier_cost(&self, chip: &MemorySystem) -> u64 {
        let per_flag = chip.config.mpb_access_cycles + chip.config.hop_cycles * 4;
        self.num_ues as u64 * per_flag
    }

    /// The cost in core cycles for UE `from` to move `bytes` to/from the
    /// MPB slice of `to` (the `RCCE_put`/`RCCE_get` primitives). Transfers
    /// move one 32-byte line per round trip, pipelined after the first.
    pub(crate) fn put_get_cost(
        &self,
        chip: &MemorySystem,
        from: usize,
        to: usize,
        bytes: usize,
    ) -> u64 {
        let lines = bytes.div_ceil(32).max(1) as u64;
        let trip = chip.mesh.mpb_round_trip(from, to) + chip.config.mpb_access_cycles;
        trip + (lines - 1) * 8 + lines
    }
}

/// The error of an allocator that cannot serve `bytes`.
fn refused(which: &str, bytes: usize) -> ExecError {
    ExecError::new(format!("{which} allocation of {bytes} bytes failed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sim::{Region, SccConfig};

    fn fixture(ues: usize) -> (RcceRuntime, MemorySystem) {
        let chip = MemorySystem::new(SccConfig::table_6_1());
        (RcceRuntime::new(ues), chip)
    }

    #[test]
    fn shmalloc_returns_shared_region_addresses() {
        let (mut rt, _) = fixture(32);
        let a = rt.shmalloc(100).unwrap();
        let b = rt.shmalloc(100).unwrap();
        assert_eq!(MemorySystem::region_of(a), Region::SharedDram);
        assert_eq!(b - a, 128, "line-aligned bump");
    }

    #[test]
    fn shmalloc_exhaustion_errors() {
        let (mut rt, _) = fixture(32);
        let err = rt.shmalloc(2 * 1024 * 1024 * 1024).unwrap_err();
        assert!(err.to_string().contains("shared DRAM"), "{err}");
    }

    #[test]
    fn mpb_malloc_returns_mpb_addresses() {
        let (mut rt, mut chip) = fixture(32);
        let a = rt.mpb_malloc(&mut chip, 4096).unwrap();
        assert_eq!(MemorySystem::region_of(a), Region::Mpb);
    }

    #[test]
    fn mpb_malloc_respects_capacity() {
        let (mut rt, mut chip) = fixture(32);
        // 32 UEs × 8 KB = 256 KB of stripeable space.
        assert!(rt.mpb_malloc(&mut chip, 200 * 1024).is_ok());
        let err = rt.mpb_malloc(&mut chip, 200 * 1024).unwrap_err();
        assert!(err.to_string().contains("MPB"), "{err}");
    }

    #[test]
    fn barrier_cost_scales_with_ues() {
        let (rt8, chip) = fixture(8);
        let (rt32, _) = fixture(32);
        assert!(rt32.barrier_cost(&chip) > rt8.barrier_cost(&chip));
    }

    #[test]
    fn put_get_cost_scales_with_bytes_and_distance() {
        let (rt, chip) = fixture(32);
        let small_near = rt.put_get_cost(&chip, 0, 1, 32);
        let big_near = rt.put_get_cost(&chip, 0, 1, 4096);
        let small_far = rt.put_get_cost(&chip, 0, 47, 32);
        assert!(big_near > small_near);
        assert!(small_far > small_near);
    }
}
