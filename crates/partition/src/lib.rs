//! # hsm-partition — Stage 4: shared-data partitioning (Algorithm 3)
//!
//! Decides, for every shared variable identified by stages 1–3, whether it
//! lives in the small fast **on-chip** shared SRAM (the SCC's Message
//! Passing Buffer) or in the large slow **off-chip** shared DRAM.
//!
//! The paper's Algorithm 3: if everything fits on-chip, put everything
//! on-chip; otherwise sort the variables by size ascending and greedily
//! fill the remaining on-chip space, spilling what does not fit to DRAM.
//! Alternative policies (access-frequency density, descending size,
//! forced off-chip) are provided for the ablation study. A variable is
//! placed whole: the translator allocates each one with a single
//! `RCCE_malloc` or `RCCE_shmalloc`, so §6's refinement of putting a few
//! rows of a matrix on the MPB is not modelled.
//!
//! ```
//! use hsm_partition::{partition, MemorySpec, Policy, SharedVar};
//!
//! let vars = vec![
//!     SharedVar::new("big", 6000, 10),
//!     SharedVar::new("small", 100, 500),
//! ];
//! let spec = MemorySpec::with_on_chip(4096);
//! let plan = partition(&vars, &spec, Policy::SizeAscending);
//! assert!(plan.is_on_chip("small"));
//! assert!(!plan.is_on_chip("big"));
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::fmt;

/// Per-core MPB capacity on the Intel SCC, in bytes.
const SCC_MPB_BYTES_PER_CORE: usize = 8 * 1024;

/// The memory resources Algorithm 3 partitions into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemorySpec {
    /// Usable on-chip shared SRAM in bytes.
    pub on_chip_capacity: usize,
    /// Usable off-chip shared DRAM in bytes (effectively unbounded on the
    /// SCC: up to 64 GB).
    pub off_chip_capacity: usize,
}

impl MemorySpec {
    /// The SCC configuration for a run using `cores` cores: 8 KB of MPB
    /// per participating core, 64 GB DRAM.
    pub fn scc(cores: usize) -> Self {
        MemorySpec {
            on_chip_capacity: cores * SCC_MPB_BYTES_PER_CORE,
            off_chip_capacity: 64 * 1024 * 1024 * 1024,
        }
    }

    /// A spec with an explicit on-chip capacity (off-chip unbounded).
    pub fn with_on_chip(bytes: usize) -> Self {
        MemorySpec {
            on_chip_capacity: bytes,
            off_chip_capacity: usize::MAX / 2,
        }
    }
}

impl Default for MemorySpec {
    fn default() -> Self {
        MemorySpec::scc(48)
    }
}

/// One shared variable as seen by the partitioner.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedVar {
    /// Variable name.
    pub name: String,
    /// Total footprint in bytes (`mem_size`: Size × Type size).
    pub mem_size: usize,
    /// Estimated (loop-weighted) total access count across all threads.
    pub access_weight: u64,
}

impl SharedVar {
    /// Creates a shared variable.
    pub fn new(name: impl Into<String>, mem_size: usize, access_weight: u64) -> Self {
        SharedVar {
            name: name.into(),
            mem_size,
            access_weight,
        }
    }

    /// Access density: weighted accesses per byte.
    pub(crate) fn density(&self) -> f64 {
        if self.mem_size == 0 {
            0.0
        } else {
            self.access_weight as f64 / self.mem_size as f64
        }
    }
}

/// Where a variable was placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// In the on-chip shared SRAM (MPB).
    OnChip,
    /// In the off-chip shared DRAM.
    OffChip,
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Placement::OnChip => write!(f, "on-chip"),
            Placement::OffChip => write!(f, "off-chip"),
        }
    }
}

/// Partitioning policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Policy {
    /// Algorithm 3 as written: everything on-chip if it fits; otherwise
    /// sort ascending by size and greedily fill.
    #[default]
    SizeAscending,
    /// Greedy by access density (accesses per byte), highest first — the
    /// "further granularity provided by frequency of access" refinement.
    FrequencyDensity,
    /// Greedy by size descending (ablation baseline).
    SizeDescending,
    /// Everything off-chip (the Figure 6.1 configuration).
    OffChipOnly,
}

impl Policy {
    /// Every policy, in ablation-report order.
    pub const ALL: [Policy; 4] = [
        Policy::SizeAscending,
        Policy::FrequencyDensity,
        Policy::SizeDescending,
        Policy::OffChipOnly,
    ];

    /// A short stable label, used in manifests, sweep specs and the
    /// persistent artifact store's on-disk paths.
    pub fn label(self) -> &'static str {
        match self {
            Policy::SizeAscending => "size_ascending",
            Policy::FrequencyDensity => "frequency_density",
            Policy::SizeDescending => "size_descending",
            Policy::OffChipOnly => "off_chip_only",
        }
    }
}

/// One variable's placement decision.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedVar {
    /// The variable.
    pub var: SharedVar,
    /// Where it went.
    pub placement: Placement,
}

/// The output of Stage 4.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    /// Placement decisions in input order.
    pub placements: Vec<PlacedVar>,
    /// Bytes of on-chip memory consumed.
    pub on_chip_used: usize,
    /// The spec partitioned against.
    pub spec: MemorySpec,
    /// The policy used.
    pub policy: Policy,
}

impl PartitionPlan {
    /// The placement of `name`, if the variable is in the plan.
    pub fn placement(&self, name: &str) -> Option<Placement> {
        self.placements
            .iter()
            .find(|p| p.var.name == name)
            .map(|p| p.placement)
    }

    /// Whether `name` is entirely on-chip.
    pub fn is_on_chip(&self, name: &str) -> bool {
        matches!(self.placement(name), Some(Placement::OnChip))
    }

    /// Bytes of on-chip capacity left unused.
    pub fn on_chip_free(&self) -> usize {
        self.spec.on_chip_capacity.saturating_sub(self.on_chip_used)
    }

    /// Fraction of weighted accesses served on-chip (placement quality
    /// metric used by the policy ablation).
    pub fn on_chip_access_fraction(&self) -> f64 {
        let total: f64 = self
            .placements
            .iter()
            .map(|p| p.var.access_weight as f64)
            .sum();
        if total == 0.0 {
            return 0.0;
        }
        let on_chip: f64 = self
            .placements
            .iter()
            .filter(|p| p.placement == Placement::OnChip)
            .map(|p| p.var.access_weight as f64)
            .sum();
        on_chip / total
    }

    /// A rendered table of the plan.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "partition plan ({:?}, on-chip {} B, used {} B)\n",
            self.policy, self.spec.on_chip_capacity, self.on_chip_used
        );
        for p in &self.placements {
            out.push_str(&format!(
                "  {:<16} {:>10} B  w={:<10} -> {}\n",
                p.var.name, p.var.mem_size, p.var.access_weight, p.placement
            ));
        }
        out
    }
}

/// Runs Algorithm 3 (or an ablation variant) over the shared variable set.
///
/// Placement is deterministic: ties in the sort order are broken by input
/// order.
pub fn partition(vars: &[SharedVar], spec: &MemorySpec, policy: Policy) -> PartitionPlan {
    let total: usize = vars.iter().map(|v| v.mem_size).sum();

    let mut on_chip: Vec<bool> = vec![false; vars.len()];
    let mut used = 0usize;

    if policy != Policy::OffChipOnly {
        if total <= spec.on_chip_capacity {
            // Best case: everything fits on-chip.
            on_chip.iter_mut().for_each(|b| *b = true);
            used = total;
        } else {
            let mut order: Vec<usize> = (0..vars.len()).collect();
            match policy {
                Policy::SizeAscending => {
                    order.sort_by_key(|&i| (vars[i].mem_size, i));
                }
                Policy::SizeDescending => {
                    order.sort_by_key(|&i| (usize::MAX - vars[i].mem_size, i));
                }
                Policy::FrequencyDensity => {
                    order.sort_by(|&a, &b| {
                        vars[b]
                            .density()
                            .partial_cmp(&vars[a].density())
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.cmp(&b))
                    });
                }
                Policy::OffChipOnly => unreachable!(),
            }
            let mut remaining = spec.on_chip_capacity;
            for &i in &order {
                if vars[i].mem_size <= remaining {
                    on_chip[i] = true;
                    remaining -= vars[i].mem_size;
                    used += vars[i].mem_size;
                }
            }
        }
    }

    let placements = vars
        .iter()
        .enumerate()
        .map(|(i, v)| PlacedVar {
            var: v.clone(),
            placement: if on_chip[i] {
                Placement::OnChip
            } else {
                Placement::OffChip
            },
        })
        .collect();

    PartitionPlan {
        placements,
        on_chip_used: used,
        spec: *spec,
        policy,
    }
}

/// Builds the partitioner's input from the analysis results: every shared
/// variable with its footprint and loop-weighted access weight.
pub fn shared_vars_from_analysis(analysis: &hsm_analysis::ProgramAnalysis) -> Vec<SharedVar> {
    analysis
        .shared_variables()
        .into_iter()
        // Pthread bookkeeping objects (mutexes, thread handles) are
        // translated away by Stage 5, never placed in shared memory.
        .filter(|v| !v.ty.is_pthread_type())
        .map(|v| {
            let weight = analysis.scope.weighted_counts(&v.key).total();
            SharedVar::new(v.key.name.clone(), v.mem_size, weight)
        })
        .collect()
}

/// Copies a plan's placement decisions into a classification manifest's
/// region column (the Stage 4 step of building the oracle's input).
/// Variables absent from the plan keep their default region.
pub fn annotate_manifest(
    plan: &PartitionPlan,
    manifest: &mut hsm_analysis::ClassificationManifest,
) {
    use hsm_analysis::RegionVerdict;
    for p in &plan.placements {
        let region = match p.placement {
            Placement::OnChip => RegionVerdict::SharedOnChip,
            Placement::OffChip => RegionVerdict::SharedOffChip,
        };
        manifest.set_region(&p.var.name, region);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str, size: usize, w: u64) -> SharedVar {
        SharedVar::new(name, size, w)
    }

    #[test]
    fn annotate_manifest_copies_placements() {
        use hsm_analysis::RegionVerdict;
        let tu = hsm_cir::parse(
            r#"
int big[4096];
int small;
void *tf(void *x) { big[0] = small; return x; }
int main() {
    pthread_t t;
    small = 1;
    pthread_create(&t, NULL, tf, NULL);
    pthread_join(t, NULL);
    return 0;
}
"#,
        )
        .unwrap();
        let analysis = hsm_analysis::ProgramAnalysis::analyze(&tu);
        let vars = shared_vars_from_analysis(&analysis);
        let plan = partition(&vars, &MemorySpec::with_on_chip(64), Policy::SizeAscending);
        let mut manifest = hsm_analysis::ClassificationManifest::from_analysis(&analysis);
        annotate_manifest(&plan, &mut manifest);
        assert_eq!(
            manifest.entry("small", None).unwrap().region,
            RegionVerdict::SharedOnChip,
            "fits in the 64-byte on-chip budget"
        );
        assert_eq!(
            manifest.entry("big", None).unwrap().region,
            RegionVerdict::SharedOffChip,
            "exceeds the on-chip capacity"
        );
    }

    #[test]
    fn everything_fits_goes_on_chip() {
        let vars = vec![v("a", 100, 1), v("b", 200, 1), v("c", 300, 1)];
        let plan = partition(
            &vars,
            &MemorySpec::with_on_chip(1000),
            Policy::SizeAscending,
        );
        assert!(plan
            .placements
            .iter()
            .all(|p| p.placement == Placement::OnChip));
        assert_eq!(plan.on_chip_used, 600);
        assert_eq!(plan.on_chip_free(), 400);
    }

    #[test]
    fn overflow_sorts_ascending_and_spills_largest() {
        let vars = vec![v("large", 800, 1), v("small", 100, 1), v("mid", 300, 1)];
        let plan = partition(&vars, &MemorySpec::with_on_chip(500), Policy::SizeAscending);
        assert!(plan.is_on_chip("small"));
        assert!(plan.is_on_chip("mid"));
        assert_eq!(plan.placement("large"), Some(Placement::OffChip));
        assert_eq!(plan.on_chip_used, 400);
    }

    #[test]
    fn greedy_skips_non_fitting_but_continues() {
        let vars = vec![v("c", 480, 1), v("a", 100, 1), v("b", 450, 1)];
        let plan = partition(
            &vars,
            &MemorySpec::with_on_chip(1000),
            Policy::SizeAscending,
        );
        assert!(plan.is_on_chip("a"));
        assert!(plan.is_on_chip("b"));
        assert!(!plan.is_on_chip("c"));
    }

    #[test]
    fn off_chip_only_places_nothing_on_chip() {
        let vars = vec![v("a", 1, 1000)];
        let plan = partition(&vars, &MemorySpec::with_on_chip(1000), Policy::OffChipOnly);
        assert_eq!(plan.placement("a"), Some(Placement::OffChip));
        assert_eq!(plan.on_chip_used, 0);
        assert_eq!(plan.on_chip_access_fraction(), 0.0);
    }

    #[test]
    fn frequency_density_prefers_hot_small_data() {
        let vars = vec![v("cold", 400, 10), v("hot", 400, 10000)];
        let plan = partition(
            &vars,
            &MemorySpec::with_on_chip(400),
            Policy::FrequencyDensity,
        );
        assert!(plan.is_on_chip("hot"));
        assert!(!plan.is_on_chip("cold"));
        assert!(plan.on_chip_access_fraction() > 0.99);
    }

    #[test]
    fn size_descending_fills_big_first() {
        let vars = vec![v("a", 100, 1), v("b", 900, 1)];
        let plan = partition(
            &vars,
            &MemorySpec::with_on_chip(950),
            Policy::SizeDescending,
        );
        assert!(plan.is_on_chip("b"));
        assert!(!plan.is_on_chip("a"));
    }

    #[test]
    fn never_exceeds_capacity() {
        let vars: Vec<SharedVar> = (0..50)
            .map(|i| v(&format!("v{i}"), 97 * (i + 1), 1))
            .collect();
        for cap in [0usize, 100, 1000, 5000] {
            for policy in [
                Policy::SizeAscending,
                Policy::SizeDescending,
                Policy::FrequencyDensity,
            ] {
                let plan = partition(&vars, &MemorySpec::with_on_chip(cap), policy);
                assert!(plan.on_chip_used <= cap, "{policy:?} cap={cap}");
            }
        }
    }

    #[test]
    fn scc_spec_scales_with_cores() {
        assert_eq!(MemorySpec::scc(32).on_chip_capacity, 32 * 8192);
        assert_eq!(
            MemorySpec::default().on_chip_capacity,
            48 * SCC_MPB_BYTES_PER_CORE
        );
    }

    #[test]
    fn example_4_1_shared_set_fits_on_chip() {
        let tu = hsm_cir::parse(
            r#"
int *ptr;
int sum[3] = {0};
void *tf(void *tid) { sum[(int)tid] += *ptr; return tid; }
int main() {
    int tmp = 1;
    pthread_t t;
    ptr = &tmp;
    pthread_create(&t, NULL, tf, (void *)0);
    return 0;
}
"#,
        )
        .unwrap();
        let analysis = hsm_analysis::ProgramAnalysis::analyze(&tu);
        let vars = shared_vars_from_analysis(&analysis);
        let names: Vec<_> = vars.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, vec!["ptr", "sum", "tmp"]);
        let plan = partition(&vars, &MemorySpec::scc(32), Policy::SizeAscending);
        assert!(plan
            .placements
            .iter()
            .all(|p| p.placement == Placement::OnChip));
    }

    #[test]
    fn empty_input_produces_empty_plan() {
        let plan = partition(&[], &MemorySpec::default(), Policy::SizeAscending);
        assert!(plan.placements.is_empty());
        assert_eq!(plan.on_chip_used, 0);
    }
}
