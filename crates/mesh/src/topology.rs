//! 2-D mesh topology and deterministic dimension-order routing.
//!
//! Processors are numbered row-major. Each node has up to four outgoing
//! unidirectional channels (East, West, South, North). A packet routes
//! X-first (along its row) then Y — the deterministic wormhole routing
//! CBS simulates; dimension-order routing is deadlock-free on a mesh.

/// Node identifier, `0..rows*cols`, row-major.
pub(crate) type NodeId = usize;

/// Directions of the four outgoing channels of a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Dir {
    /// +x (toward higher column).
    East = 0,
    /// −x.
    West = 1,
    /// +row (toward higher row index).
    South = 2,
    /// −row.
    North = 3,
}

/// Mesh shape plus routing helpers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Mesh rows.
    pub rows: usize,
    /// Mesh columns.
    pub cols: usize,
}

impl Topology {
    /// Creates a `rows × cols` mesh.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "mesh dimensions must be nonzero");
        Topology { rows, cols }
    }

    /// The near-square mesh that holds `n` processors: rows is the
    /// largest divisor of `n` that is ≤ √n (so 16 → 4×4, 12 → 3×4,
    /// primes degrade to 1×n). Matches the region-tiling factorization
    /// the shared-memory router uses, so memory backends price hops over
    /// the same machine shape.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn for_procs(n: usize) -> Self {
        assert!(n > 0, "mesh must hold at least one processor");
        let mut rows = (n as f64).sqrt() as usize;
        while rows > 1 && !n.is_multiple_of(rows) {
            rows -= 1;
        }
        let rows = rows.max(1);
        Topology::new(rows, n / rows)
    }

    /// Number of nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.rows * self.cols
    }

    /// Number of directed channel slots (4 per node; edge channels exist
    /// as slots but are never used by in-bounds routes).
    #[inline]
    pub(crate) fn n_channels(&self) -> usize {
        self.n_nodes() * 4
    }

    /// Mesh coordinates of `n`.
    #[inline]
    pub(crate) fn coords(&self, n: NodeId) -> (usize, usize) {
        debug_assert!(n < self.n_nodes());
        (n / self.cols, n % self.cols)
    }

    /// Node at `(row, col)`.
    #[inline]
    pub(crate) fn node_at(&self, row: usize, col: usize) -> NodeId {
        debug_assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    /// Directed channel id leaving `n` in direction `dir`.
    #[inline]
    pub(crate) fn channel(&self, n: NodeId, dir: Dir) -> usize {
        n * 4 + dir as usize
    }

    /// Hop count of the dimension-order route from `src` to `dst`.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        let (sr, sc) = self.coords(src);
        let (dr, dc) = self.coords(dst);
        (sr.abs_diff(dr) + sc.abs_diff(dc)) as u32
    }

    /// The directed channels traversed by the dimension-order (X then Y)
    /// route from `src` to `dst`, in order. Nothing for `src == dst`.
    /// Yielded one by one: the kernel walks this for every packet it
    /// injects.
    pub fn route(&self, src: NodeId, dst: NodeId) -> impl Iterator<Item = usize> {
        let topo = *self;
        let (mut r, mut c) = self.coords(src);
        let (dr, dc) = self.coords(dst);
        std::iter::from_fn(move || {
            let here = topo.node_at(r, c);
            // X dimension first, then Y.
            let dir = if c < dc {
                c += 1;
                Dir::East
            } else if c > dc {
                c -= 1;
                Dir::West
            } else if r < dr {
                r += 1;
                Dir::South
            } else if r > dr {
                r -= 1;
                Dir::North
            } else {
                return None;
            };
            Some(topo.channel(here, dir))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_procs_matches_region_tiling() {
        assert_eq!(Topology::for_procs(1), Topology::new(1, 1));
        assert_eq!(Topology::for_procs(4), Topology::new(2, 2));
        assert_eq!(Topology::for_procs(6), Topology::new(2, 3));
        assert_eq!(Topology::for_procs(12), Topology::new(3, 4));
        assert_eq!(Topology::for_procs(16), Topology::new(4, 4));
        assert_eq!(Topology::for_procs(7), Topology::new(1, 7));
        for n in 1..=64 {
            assert_eq!(Topology::for_procs(n).n_nodes(), n);
        }
    }

    #[test]
    fn coords_roundtrip() {
        let t = Topology::new(4, 4);
        for n in 0..16 {
            let (r, c) = t.coords(n);
            assert_eq!(t.node_at(r, c), n);
        }
    }

    #[test]
    fn hops_are_manhattan() {
        let t = Topology::new(4, 4);
        assert_eq!(t.hops(0, 15), 6);
        assert_eq!(t.hops(5, 5), 0);
        assert_eq!(t.hops(0, 3), 3);
        assert_eq!(t.hops(0, 12), 3);
    }

    #[test]
    fn route_length_equals_hops() {
        let t = Topology::new(4, 4);
        for src in 0..16 {
            for dst in 0..16 {
                assert_eq!(t.route(src, dst).count() as u32, t.hops(src, dst));
            }
        }
    }

    #[test]
    fn route_is_x_first() {
        let t = Topology::new(4, 4);
        // 0 (0,0) -> 15 (3,3): 3 east channels then 3 south channels.
        let r: Vec<usize> = t.route(0, 15).collect();
        assert_eq!(r.len(), 6);
        // First three leave nodes 0,1,2 eastward.
        assert_eq!(r[0], t.channel(0, Dir::East));
        assert_eq!(r[1], t.channel(1, Dir::East));
        assert_eq!(r[2], t.channel(2, Dir::East));
        // Remaining three go south from column 3.
        assert_eq!(r[3], t.channel(3, Dir::South));
        assert_eq!(r[4], t.channel(7, Dir::South));
        assert_eq!(r[5], t.channel(11, Dir::South));
    }

    #[test]
    fn route_westward_and_northward() {
        let t = Topology::new(3, 3);
        // 8 (2,2) -> 0 (0,0): west, west, north, north.
        let r: Vec<usize> = t.route(8, 0).collect();
        assert_eq!(r[0], t.channel(8, Dir::West));
        assert_eq!(r[1], t.channel(7, Dir::West));
        assert_eq!(r[2], t.channel(6, Dir::North));
        assert_eq!(r[3], t.channel(3, Dir::North));
    }

    #[test]
    fn self_route_is_empty() {
        let t = Topology::new(2, 2);
        assert_eq!(t.route(3, 3).count(), 0);
    }

    #[test]
    fn channel_ids_unique() {
        let t = Topology::new(3, 3);
        let mut seen = std::collections::BTreeSet::new();
        for n in 0..t.n_nodes() {
            for dir in [Dir::East, Dir::West, Dir::South, Dir::North] {
                assert!(seen.insert(t.channel(n, dir)));
            }
        }
        assert_eq!(seen.len(), t.n_channels());
    }

    #[test]
    fn deterministic_routes_share_channels() {
        // Dimension-order routing: 0->5 and 0->6 share the first east hop.
        let t = Topology::new(4, 4);
        assert_eq!(t.route(0, 5).next(), t.route(0, 6).next());
    }
}
