//! The Message Passing Buffer: 8 KB of on-die SRAM per core, globally
//! addressable, non-coherent.

use crate::config::SccConfig;
use crate::mesh::Mesh;

/// The chip-wide MPB: address mapping, latency, and the linear shared
/// allocator behind `RCCE_malloc`.
#[derive(Debug, Clone)]
pub struct Mpb {
    bytes_per_core: usize,
    cores: usize,
    access_cycles: u64,
    /// Watermark of the linear shared allocator (grows from the start of
    /// the flat MPB address space).
    linear_brk: usize,
    /// Shared allocations: (start, size, participants). Ownership inside
    /// an allocation is blocked — participant `i` owns the `i`-th chunk —
    /// matching how HSM programs partition arrays across cores.
    shared_allocs: Vec<(usize, usize, usize)>,
    /// Total accesses per owner core.
    accesses: Vec<u64>,
    /// Bytes currently allocated.
    allocated: usize,
    /// Largest `allocated` ever observed — the occupancy high-water mark
    /// reported in the run manifest.
    high_water: usize,
}

/// A chip-wide MPB address: (owner core, offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MpbAddr {
    /// The core whose MPB slice holds the data.
    pub owner: usize,
    /// Byte offset within that slice.
    pub offset: usize,
}

impl Mpb {
    /// Builds the MPB from the chip configuration.
    pub(crate) fn new(config: &SccConfig) -> Self {
        Mpb {
            bytes_per_core: config.mpb_bytes_per_core,
            cores: config.cores,
            access_cycles: config.mpb_access_cycles,
            linear_brk: 0,
            shared_allocs: Vec::new(),
            accesses: vec![0; config.cores],
            allocated: 0,
            high_water: 0,
        }
    }

    /// Decomposes a linear MPB offset into (owner, offset).
    pub(crate) fn addr_of(&self, linear: usize) -> MpbAddr {
        MpbAddr {
            owner: (linear / self.bytes_per_core).min(self.cores - 1),
            offset: linear % self.bytes_per_core,
        }
    }

    /// Allocates `bytes` of *linearly addressed* shared MPB space, capped
    /// at the combined capacity contributed by `participants` cores
    /// (`participants × 8 KB`). The range naturally spans consecutive
    /// cores' physical slices, so big arrays are striped across owners for
    /// latency purposes while staying contiguous in the address space the
    /// program indexes.
    pub fn alloc_shared(&mut self, participants: usize, bytes: usize) -> Option<usize> {
        let aligned = (bytes + 31) & !31;
        // The whole chip's MPB is addressable regardless of how many
        // cores participate; `participants` only sets the ownership
        // blocking of the allocation.
        let capacity = self.cores * self.bytes_per_core;
        if self.linear_brk + aligned > capacity {
            return None;
        }
        let offset = self.linear_brk;
        self.linear_brk += aligned;
        self.allocated += aligned;
        self.high_water = self.high_water.max(self.allocated);
        self.shared_allocs
            .push((offset, aligned, participants.min(self.cores).max(1)));
        Some(offset)
    }

    /// The core whose slice effectively serves a linear offset: inside a
    /// shared allocation, ownership is blocked across its participants
    /// (core *i* owns the *i*-th contiguous chunk — the layout a
    /// locality-aware RCCE program uses); elsewhere it is the physical
    /// 8 KB slice.
    pub(crate) fn owner_of(&self, linear: usize) -> usize {
        for (start, size, participants) in &self.shared_allocs {
            if linear >= *start && linear < start + size {
                let within = linear - start;
                return (within * participants / size).min(participants - 1);
            }
        }
        self.addr_of(linear).owner
    }

    /// Peak bytes ever allocated — the MPB occupancy high-water mark.
    pub(crate) fn high_water(&self) -> usize {
        self.high_water
    }

    /// Latency in core cycles for `core` to access data owned by `owner`.
    pub fn access(&mut self, mesh: &Mesh, core: usize, owner: usize) -> u64 {
        self.accesses[owner] += 1;
        self.access_cycles + mesh.mpb_round_trip(core, owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Mpb, Mesh) {
        let cfg = SccConfig::table_6_1();
        (Mpb::new(&cfg), Mesh::new(&cfg))
    }

    #[test]
    fn shared_alloc_is_linear_and_non_overlapping() {
        let (mut mpb, _) = fixture();
        let a = mpb.alloc_shared(32, 64 * 1024).unwrap();
        let b = mpb.alloc_shared(32, 100).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 64 * 1024, "ranges must not overlap");
        // 512 KB exceeds the chip's 384 KB.
        let mut fresh = Mpb::new(&SccConfig::table_6_1());
        assert!(fresh.alloc_shared(32, 512 * 1024).is_none());
    }

    #[test]
    fn shared_alloc_capacity_is_whole_chip() {
        let (mut mpb, _) = fixture();
        // Even 2 participants may use the full 384 KB.
        assert!(mpb.alloc_shared(2, 300 * 1024).is_some());
        assert!(mpb.alloc_shared(2, 100 * 1024).is_none());
    }

    #[test]
    fn blocked_ownership_is_local_to_participants() {
        let (mut mpb, _) = fixture();
        // 32 participants share a 32 KB allocation: 1 KB chunks.
        let start = mpb.alloc_shared(32, 32 * 1024).unwrap();
        assert_eq!(mpb.owner_of(start), 0);
        assert_eq!(mpb.owner_of(start + 5 * 1024), 5);
        assert_eq!(mpb.owner_of(start + 31 * 1024 + 512), 31);
        // Outside any allocation: physical slice ownership.
        assert_eq!(mpb.owner_of(33 * 1024 + 100), 33 * 1024 / 8192);
    }

    #[test]
    fn local_access_is_cheapest() {
        let (mut mpb, mesh) = fixture();
        let local = mpb.access(&mesh, 0, 0);
        let remote = mpb.access(&mesh, 0, 47);
        assert!(local < remote, "local {local} vs remote {remote}");
        assert_eq!(local, SccConfig::table_6_1().mpb_access_cycles);
    }

    #[test]
    fn mpb_is_faster_than_uncontended_dram_for_far_cores() {
        // Core 21 (middle of the die): MPB access to a neighbour must beat
        // shared-DRAM (mesh + service + overhead).
        let cfg = SccConfig::table_6_1();
        let (mut mpb, mesh) = fixture();
        let mpb_lat = mpb.access(&mesh, 21, 20);
        let (_, mc_trip) = mesh.home_mc(21);
        let dram_lat = mc_trip + cfg.dram_service_cycles + cfg.shared_dram_overhead_cycles;
        assert!(
            mpb_lat < dram_lat,
            "mpb {mpb_lat} should beat dram {dram_lat}"
        );
    }

    #[test]
    fn addr_decomposition() {
        let (mpb, _) = fixture();
        let a = mpb.addr_of(0);
        assert_eq!((a.owner, a.offset), (0, 0));
        let b = mpb.addr_of(8 * 1024 + 100);
        assert_eq!((b.owner, b.offset), (1, 100));
    }
}
