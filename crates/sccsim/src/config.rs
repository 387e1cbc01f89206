//! Simulator configuration (Table 6.1 of the paper).

use std::fmt;

/// Clock and latency configuration of the simulated SCC.
///
/// Defaults follow the paper's experimental setup (Table 6.1): 800 MHz
/// cores, 1600 MHz mesh, 1066 MHz DDR3. All latencies are expressed in
/// **core cycles**.
#[derive(Debug, Clone, PartialEq)]
pub struct SccConfig {
    /// Number of cores on the chip.
    pub cores: usize,
    /// Mesh grid width in tiles (6 on the SCC).
    pub mesh_cols: usize,
    /// Mesh grid height in tiles (4 on the SCC).
    pub mesh_rows: usize,
    /// Core clock in MHz.
    pub core_freq_mhz: u32,
    /// Mesh clock in MHz.
    pub mesh_freq_mhz: u32,
    /// Off-chip DDR3 clock in MHz.
    pub dram_freq_mhz: u32,
    /// L1 data cache size in bytes (16 KB on the P54C-based SCC core).
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L2 cache size in bytes (256 KB per core).
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// L1 hit latency (core cycles).
    pub l1_hit_cycles: u64,
    /// L2 hit latency (core cycles).
    pub l2_hit_cycles: u64,
    /// DRAM access latency at the memory controller (core cycles) — what
    /// one isolated request waits.
    pub dram_service_cycles: u64,
    /// Controller occupancy per request (core cycles) — the bandwidth
    /// limit under contention. DDR3-1066 streams a 32-byte line in a few
    /// core cycles at the 800 MHz core clock, so this is much smaller
    /// than the latency.
    pub dram_occupancy_cycles: u64,
    /// Controller occupancy of one *uncached shared* access (core
    /// cycles): a word-sized access still occupies a full DRAM burst, so
    /// shared traffic consumes far more controller time per useful byte
    /// than cacheline fills — the paper's "8 cores in contention per
    /// memory controller" effect.
    pub shared_dram_occupancy_cycles: u64,
    /// Core stall for a *posted* shared-DRAM write: stores drain through
    /// the mesh interface's write-combining buffer, so the core only pays
    /// the buffer hand-off, not the DRAM round trip. Loads pay in full.
    pub posted_write_cycles: u64,
    /// Extra fixed latency of an uncacheable shared-DRAM access beyond the
    /// mesh trip and MC service (page-table walk and bypass overheads).
    pub shared_dram_overhead_cycles: u64,
    /// Latency of one router hop, one direction (core cycles; the SCC
    /// router takes 4 mesh cycles = 2 core cycles at the 2:1 clock ratio).
    pub hop_cycles: u64,
    /// Fixed MPB access cost excluding mesh hops (core cycles).
    pub mpb_access_cycles: u64,
    /// Per-core MPB capacity in bytes.
    pub mpb_bytes_per_core: usize,
    /// Number of memory controllers (4 on the SCC).
    pub memory_controllers: usize,
    /// OS scheduling quantum for the single-core pthread baseline, in core
    /// cycles (100 µs at 800 MHz = 80 000).
    pub sched_quantum_cycles: u64,
    /// Context switch cost for the pthread baseline, in core cycles.
    pub context_switch_cycles: u64,
}

impl SccConfig {
    /// The paper's Table 6.1 configuration.
    pub fn table_6_1() -> Self {
        SccConfig {
            cores: 48,
            mesh_cols: 6,
            mesh_rows: 4,
            core_freq_mhz: 800,
            mesh_freq_mhz: 1600,
            dram_freq_mhz: 1066,
            l1_bytes: 16 * 1024,
            l1_ways: 4,
            l2_bytes: 256 * 1024,
            l2_ways: 4,
            line_bytes: 32,
            l1_hit_cycles: 1,
            l2_hit_cycles: 18,
            dram_service_cycles: 100,
            dram_occupancy_cycles: 6,
            shared_dram_occupancy_cycles: 10,
            posted_write_cycles: 10,
            shared_dram_overhead_cycles: 8,
            hop_cycles: 2,
            mpb_access_cycles: 8,
            mpb_bytes_per_core: 8 * 1024,
            memory_controllers: 4,
            sched_quantum_cycles: 80_000,
            context_switch_cycles: 2_000,
        }
    }

    /// Rescales the configuration to a different core clock (the SCC's
    /// DVFS knob). Memory-side latencies are physical times: expressed in
    /// core cycles they scale with the core clock, while cache hits (which
    /// run at core speed) do not. This reproduces the "memory wall"
    /// effect: at a slower core clock, memory looks relatively faster.
    pub fn with_core_freq(&self, mhz: u32) -> SccConfig {
        let ratio = f64::from(mhz) / f64::from(self.core_freq_mhz);
        let scale = |v: u64| ((v as f64 * ratio).round() as u64).max(1);
        SccConfig {
            core_freq_mhz: mhz,
            hop_cycles: scale(self.hop_cycles),
            mpb_access_cycles: scale(self.mpb_access_cycles),
            dram_service_cycles: scale(self.dram_service_cycles),
            dram_occupancy_cycles: scale(self.dram_occupancy_cycles),
            shared_dram_occupancy_cycles: scale(self.shared_dram_occupancy_cycles),
            posted_write_cycles: scale(self.posted_write_cycles),
            shared_dram_overhead_cycles: scale(self.shared_dram_overhead_cycles),
            sched_quantum_cycles: scale(self.sched_quantum_cycles),
            context_switch_cycles: self.context_switch_cycles,
            ..self.clone()
        }
    }

    /// Cores per tile (2 on the SCC).
    pub(crate) fn cores_per_tile(&self) -> usize {
        self.cores / (self.mesh_cols * self.mesh_rows)
    }

    /// Renders the Table 6.1 comparison block (RCCE vs Pthreads columns are
    /// identical by design: same silicon, different software stack).
    pub fn render_table_6_1(&self, rcce_units: usize, pthread_units: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<24}{:>14}{:>14}\n", "", "RCCE", "Pthreads"));
        out.push_str(&"-".repeat(52));
        out.push('\n');
        out.push_str(&format!(
            "{:<24}{:>10} MHz{:>10} MHz\n",
            "Core Frequency", self.core_freq_mhz, self.core_freq_mhz
        ));
        out.push_str(&format!(
            "{:<24}{:>10} MHz{:>10} MHz\n",
            "Communication Network", self.mesh_freq_mhz, self.mesh_freq_mhz
        ));
        out.push_str(&format!(
            "{:<24}{:>10} MHz{:>10} MHz\n",
            "Off-chip Memory", self.dram_freq_mhz, self.dram_freq_mhz
        ));
        out.push_str(&format!(
            "{:<24}{:>9} cores{:>8} threads\n",
            "Execution Units", rcce_units, pthread_units
        ));
        out
    }
}

impl Default for SccConfig {
    fn default() -> Self {
        SccConfig::table_6_1()
    }
}

impl fmt::Display for SccConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SCC {} cores @ {} MHz, mesh {}x{} @ {} MHz, DDR3 {} MHz, {} MCs",
            self.cores,
            self.core_freq_mhz,
            self.mesh_cols,
            self.mesh_rows,
            self.mesh_freq_mhz,
            self.dram_freq_mhz,
            self.memory_controllers
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_6_1_values() {
        let c = SccConfig::table_6_1();
        assert_eq!(c.core_freq_mhz, 800);
        assert_eq!(c.mesh_freq_mhz, 1600);
        assert_eq!(c.dram_freq_mhz, 1066);
        assert_eq!(c.cores, 48);
        assert_eq!(c.cores_per_tile(), 2);
        assert_eq!(c.cores * c.mpb_bytes_per_core, 384 * 1024);
    }

    #[test]
    fn render_matches_paper_rows() {
        let c = SccConfig::table_6_1();
        let t = c.render_table_6_1(32, 32);
        assert!(t.contains("Core Frequency"));
        assert!(t.contains("800 MHz"));
        assert!(t.contains("1600 MHz"));
        assert!(t.contains("1066 MHz"));
        assert!(t.contains("32 cores"));
        assert!(t.contains("32 threads"));
    }

    #[test]
    fn dvfs_rescales_memory_latencies() {
        let base = SccConfig::table_6_1();
        let slow = base.with_core_freq(400);
        assert_eq!(slow.core_freq_mhz, 400);
        // Half the clock: memory waits half as many core cycles.
        assert_eq!(slow.dram_service_cycles, 50);
        assert_eq!(slow.hop_cycles, 1);
        // Cache hit latencies stay in core cycles.
        assert_eq!(slow.l1_hit_cycles, base.l1_hit_cycles);
        assert_eq!(slow.l2_hit_cycles, base.l2_hit_cycles);
        // Round trip: rescaling back is identity-ish.
        let back = slow.with_core_freq(800);
        assert_eq!(back.dram_service_cycles, 100);
    }

    #[test]
    fn display_is_informative() {
        let s = SccConfig::default().to_string();
        assert!(s.contains("48 cores"));
        assert!(s.contains("6x4"));
    }
}
