//! The on-die 2D mesh: tile coordinates, deterministic X-Y routing, and
//! core/tile/memory-controller geometry (Figure 5.1 of the paper).

use crate::config::SccConfig;

/// A tile coordinate on the mesh (column, row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tile {
    /// Column (0 = west edge).
    pub x: usize,
    /// Row (0 = south edge).
    pub y: usize,
}

impl Tile {
    /// Manhattan distance to `other` (the hop count of X-Y routing).
    pub(crate) fn hops_to(self, other: Tile) -> usize {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

/// Geometry helper for a configured mesh.
#[derive(Debug, Clone)]
pub struct Mesh {
    cols: usize,
    cores_per_tile: usize,
    hop_cycles: u64,
    /// Memory controller tile positions.
    mc_tiles: Vec<Tile>,
    /// One [`Route`] per configured core. The geometry never changes
    /// after construction, and the memory system asks for it on every
    /// uncached access.
    routes: Vec<Route>,
}

/// What the mesh knows about one core.
#[derive(Debug, Clone, Copy)]
struct Route {
    tile: Tile,
    /// The memory controller serving the core.
    mc: usize,
    /// Round trip to that controller, in core cycles.
    mc_trip: u64,
}

impl Mesh {
    /// Builds the mesh for `config`. The four memory controllers sit at the
    /// corners of the grid, as on the SCC die (tiles (0,0), (5,0), (0,3),
    /// (5,3)).
    pub fn new(config: &SccConfig) -> Self {
        let cols = config.mesh_cols;
        let rows = config.mesh_rows;
        let mc_tiles = match config.memory_controllers {
            1 => vec![Tile { x: 0, y: 0 }],
            2 => vec![
                Tile { x: 0, y: 0 },
                Tile {
                    x: cols - 1,
                    y: rows - 1,
                },
            ],
            4 => vec![
                Tile { x: 0, y: 0 },
                Tile { x: cols - 1, y: 0 },
                Tile { x: 0, y: rows - 1 },
                Tile {
                    x: cols - 1,
                    y: rows - 1,
                },
            ],
            n => (0..n)
                .map(|i| Tile {
                    x: (i * cols / n).min(cols - 1),
                    y: if i % 2 == 0 { 0 } else { rows - 1 },
                })
                .collect(),
        };
        let mut mesh = Mesh {
            cols,
            cores_per_tile: config.cores_per_tile(),
            hop_cycles: config.hop_cycles,
            mc_tiles,
            routes: Vec::new(),
        };
        mesh.routes = (0..config.cores).map(|c| mesh.compute_route(c)).collect();
        mesh
    }

    /// The geometry of `core` from first principles: what the table holds
    /// for a configured core, and the answer for any other index.
    fn compute_route(&self, core: usize) -> Route {
        let tile_index = core / self.cores_per_tile;
        let tile = Tile {
            x: tile_index % self.cols,
            y: tile_index / self.cols,
        };
        let (mc, mc_tile) = self
            .mc_tiles
            .iter()
            .enumerate()
            .min_by_key(|(i, mc)| (tile.hops_to(**mc), *i))
            .expect("at least one memory controller");
        Route {
            tile,
            mc,
            mc_trip: 2 * self.latency(tile, *mc_tile),
        }
    }

    #[inline]
    fn route(&self, core: usize) -> Route {
        match self.routes.get(core) {
            Some(route) => *route,
            None => self.compute_route(core),
        }
    }

    /// The tile hosting `core`.
    ///
    /// Cores are numbered row-major, two per tile: cores 0 and 1 share tile
    /// (0,0), cores 2 and 3 tile (1,0), and so on.
    #[inline]
    pub fn tile_of(&self, core: usize) -> Tile {
        self.route(core).tile
    }

    /// The memory controller serving `core` together with the round trip
    /// to it: what every uncached access of `core` needs.
    #[inline]
    pub(crate) fn home_mc(&self, core: usize) -> (usize, u64) {
        let route = self.route(core);
        (route.mc, route.mc_trip)
    }

    /// One-way mesh latency in core cycles from `core` to `to` (X-Y route).
    pub fn latency(&self, from: Tile, to: Tile) -> u64 {
        from.hops_to(to) as u64 * self.hop_cycles
    }

    /// Round-trip latency from `core` to the MPB owned by `owner`.
    pub fn mpb_round_trip(&self, core: usize, owner: usize) -> u64 {
        2 * self.latency(self.tile_of(core), self.tile_of(owner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(&SccConfig::table_6_1())
    }

    /// Round-trip core→MC→core latency in core cycles.
    fn mc_round_trip(m: &Mesh, core: usize, mc: usize) -> u64 {
        2 * m.latency(m.tile_of(core), m.mc_tiles[mc])
    }

    /// Cores served by each MC among cores `0..total_cores`.
    fn cores_per_mc(m: &Mesh, total_cores: usize) -> Vec<usize> {
        let mut counts = vec![0usize; m.mc_tiles.len()];
        for c in 0..total_cores {
            counts[m.home_mc(c).0] += 1;
        }
        counts
    }

    #[test]
    fn tiles_are_row_major_two_cores_each() {
        let m = mesh();
        assert_eq!(m.tile_of(0), Tile { x: 0, y: 0 });
        assert_eq!(m.tile_of(1), Tile { x: 0, y: 0 });
        assert_eq!(m.tile_of(2), Tile { x: 1, y: 0 });
        assert_eq!(m.tile_of(12), Tile { x: 0, y: 1 });
        assert_eq!(m.tile_of(47), Tile { x: 5, y: 3 });
    }

    #[test]
    fn xy_hops_are_manhattan() {
        let a = Tile { x: 0, y: 0 };
        let b = Tile { x: 5, y: 3 };
        assert_eq!(a.hops_to(b), 8);
        assert_eq!(b.hops_to(a), 8);
        assert_eq!(a.hops_to(a), 0);
    }

    #[test]
    fn four_mcs_at_corners() {
        let m = mesh();
        assert_eq!(m.mc_tiles.len(), 4);
        // Core 0 (tile 0,0) is served by MC 0 at (0,0).
        assert_eq!(m.home_mc(0).0, 0);
        // Core 47 (tile 5,3) by the MC at (5,3).
        let mc47 = m.home_mc(47).0;
        assert_eq!(mc_round_trip(&m, 47, mc47), 0);
    }

    #[test]
    fn each_mc_serves_a_quadrant_of_twelve() {
        let m = mesh();
        let counts = cores_per_mc(&m, 48);
        assert_eq!(counts, vec![12, 12, 12, 12]);
        // With cores 0–31 active, 32/4 = 8 cores contend per MC on
        // average (the paper's Dot Product / LU observation); the lower
        // quadrants are even busier.
        let counts32 = cores_per_mc(&m, 32);
        assert_eq!(counts32.iter().sum::<usize>(), 32);
        assert!(counts32.iter().any(|&c| c >= 8), "{counts32:?}");
    }

    #[test]
    fn latency_scales_with_hops() {
        let m = mesh();
        // Core 0 at (0,0); MC 3 at (5,3): 8 hops, 2 cycles each, round trip.
        assert_eq!(mc_round_trip(&m, 0, 3), 32);
        assert_eq!(mc_round_trip(&m, 0, 0), 0);
    }

    #[test]
    fn mpb_round_trip_symmetry() {
        let m = mesh();
        for (a, b) in [(0usize, 47usize), (3, 21), (10, 11)] {
            assert_eq!(m.mpb_round_trip(a, b), m.mpb_round_trip(b, a));
        }
        // Same tile = free mesh-wise.
        assert_eq!(m.mpb_round_trip(0, 1), 0);
    }

    #[test]
    fn route_table_equals_the_computed_geometry() {
        for controllers in [1, 2, 4, 6] {
            let mut cfg = SccConfig::table_6_1();
            cfg.memory_controllers = controllers;
            let m = Mesh::new(&cfg);
            assert_eq!(m.routes.len(), cfg.cores);
            // One index past the table takes the computed path.
            for core in 0..=cfg.cores {
                let want = m.compute_route(core);
                assert_eq!(m.tile_of(core), want.tile, "{controllers} MCs, core {core}");
                assert_eq!(m.home_mc(core).0, want.mc, "{controllers} MCs, core {core}");
                assert_eq!(m.home_mc(core), (want.mc, want.mc_trip));
                assert_eq!(mc_round_trip(&m, core, want.mc), want.mc_trip);
                let nearest = (0..controllers)
                    .min_by_key(|&mc| (mc_round_trip(&m, core, mc), mc))
                    .expect("controllers");
                assert_eq!(want.mc, nearest, "{controllers} MCs, core {core}");
            }
            let past = m.tile_of(cfg.cores);
            assert_eq!((past.x, past.y), (0, cfg.mesh_rows));
        }
    }

    #[test]
    fn alternative_mc_counts() {
        let mut cfg = SccConfig::table_6_1();
        cfg.memory_controllers = 1;
        let m1 = Mesh::new(&cfg);
        assert_eq!(m1.mc_tiles.len(), 1);
        assert!(cores_per_mc(&m1, 48)[0] == 48);
        cfg.memory_controllers = 2;
        let m2 = Mesh::new(&cfg);
        assert_eq!(m2.mc_tiles.len(), 2);
        assert_eq!(cores_per_mc(&m2, 48).iter().sum::<usize>(), 48);
    }
}
