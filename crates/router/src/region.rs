//! Division of the cost array into per-processor owned regions (§4.1).
//!
//! "The cost array is divided into sections, and each processor is the
//! owner of one section. However, each processor has a view of the whole
//! cost array." The processors themselves sit on a 2-D mesh; regions are
//! assigned so that mesh-adjacent processors own adjacent regions
//! (Figure 2), which is what makes the *send only to N/S/E/W neighbours*
//! optimization of `SendLocData` meaningful.

use locus_circuit::{GridCell, Rect};

/// Processor identifier, `0..n_procs`, row-major over the processor mesh.
pub type ProcId = usize;

/// Chooses the processor-mesh shape for `p` processors: the factoring
/// `rows × cols = p` with `rows ≤ cols` and `rows` as close to `√p` as
/// possible (16 → 4×4, 9 → 3×3, 4 → 2×2, 2 → 1×2, 6 → 2×3).
pub fn mesh_dims(p: usize) -> (usize, usize) {
    assert!(p >= 1, "need at least one processor");
    let mut rows = (p as f64).sqrt() as usize;
    while rows > 1 && !p.is_multiple_of(rows) {
        rows -= 1;
    }
    (rows.max(1), p / rows.max(1))
}

/// The partition of a `channels × grids` cost array among a
/// `proc_rows × proc_cols` processor mesh.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionMap {
    channels: u16,
    grids: u16,
    proc_rows: usize,
    proc_cols: usize,
    /// `channel_starts[i]` is the first channel of processor-row `i`;
    /// one extra sentinel entry equal to `channels`.
    channel_starts: Vec<u16>,
    /// Likewise for grid columns.
    grid_starts: Vec<u16>,
    /// `row_of[c]` is the processor-mesh row owning channel `c`.
    row_of: Vec<u16>,
    /// `col_of[x]` is the processor-mesh column owning grid column `x`.
    col_of: Vec<u16>,
}

impl RegionMap {
    /// Partitions a surface among `n_procs` processors using
    /// [`mesh_dims`].
    ///
    /// # Panics
    /// Panics where [`Self::try_new`] returns an error.
    pub fn new(channels: u16, grids: u16, n_procs: usize) -> Self {
        Self::try_new(channels, grids, n_procs).unwrap_or_else(|msg| panic!("{msg}"))
    }

    /// Partitions a surface among `n_procs` processors using
    /// [`mesh_dims`], or says why it cannot: the surface is smaller than
    /// the processor mesh in either dimension, so a processor would own an
    /// empty region.
    ///
    /// # Panics
    /// Panics if `n_procs` is 0.
    pub fn try_new(channels: u16, grids: u16, n_procs: usize) -> Result<Self, String> {
        // Checked before `mesh_dims`, whose search for a factor takes
        // about √n_procs steps: billions for a 64-bit prime.
        if n_procs > channels as usize * grids as usize {
            return Err(format!(
                "surface {channels}x{grids} is too small for n_procs {n_procs}: a processor \
                 would own no cell"
            ));
        }
        let (proc_rows, proc_cols) = mesh_dims(n_procs);
        if (channels as usize) < proc_rows || (grids as usize) < proc_cols {
            return Err(format!(
                "surface {channels}x{grids} is too small for the {proc_rows}x{proc_cols} \
                 processor mesh of n_procs {n_procs}: a processor would own no cell"
            ));
        }
        let channel_starts = even_splits(channels, proc_rows);
        let grid_starts = even_splits(grids, proc_cols);
        let (row_of, col_of) = (band_of(&channel_starts), band_of(&grid_starts));
        Ok(RegionMap {
            channels,
            grids,
            proc_rows,
            proc_cols,
            channel_starts,
            grid_starts,
            row_of,
            col_of,
        })
    }

    /// Number of processors.
    #[inline]
    pub fn n_procs(&self) -> usize {
        self.proc_rows * self.proc_cols
    }

    /// Mesh coordinates of processor `p`.
    #[inline]
    pub(crate) fn coords(&self, p: ProcId) -> (usize, usize) {
        debug_assert!(p < self.n_procs());
        (p / self.proc_cols, p % self.proc_cols)
    }

    /// Processor at mesh coordinates `(row, col)`.
    #[inline]
    pub(crate) fn proc_at(&self, row: usize, col: usize) -> ProcId {
        debug_assert!(row < self.proc_rows && col < self.proc_cols);
        row * self.proc_cols + col
    }

    /// Manhattan distance between two processors on the mesh — the hop
    /// count used by the locality measure (§5.3.3).
    pub fn mesh_distance(&self, a: ProcId, b: ProcId) -> u32 {
        let (ar, ac) = self.coords(a);
        let (br, bc) = self.coords(b);
        (ar.abs_diff(br) + ac.abs_diff(bc)) as u32
    }

    /// The owned region of processor `p`.
    pub fn region(&self, p: ProcId) -> Rect {
        let (row, col) = self.coords(p);
        Rect::new(
            self.channel_starts[row],
            self.channel_starts[row + 1] - 1,
            self.grid_starts[col],
            self.grid_starts[col + 1] - 1,
        )
    }

    /// The processor owning `cell`.
    pub fn owner_of(&self, cell: GridCell) -> ProcId {
        self.proc_at(self.row(cell.channel), self.col(cell.x))
    }

    /// The N/S/E/W mesh neighbours of `p` (2–4 entries).
    ///
    /// `SendLocData` packets are sent only to these processors (§4.3.2).
    pub fn neighbors(&self, p: ProcId) -> Vec<ProcId> {
        let (row, col) = self.coords(p);
        let mut out = Vec::with_capacity(4);
        if row > 0 {
            out.push(self.proc_at(row - 1, col));
        }
        if row + 1 < self.proc_rows {
            out.push(self.proc_at(row + 1, col));
        }
        if col > 0 {
            out.push(self.proc_at(row, col - 1));
        }
        if col + 1 < self.proc_cols {
            out.push(self.proc_at(row, col + 1));
        }
        out
    }

    /// Every processor whose owned region intersects `rect`, ascending.
    ///
    /// The regions tile the surface, so the intersecting owners form a
    /// contiguous sub-grid of the processor mesh: look up its corner
    /// rows/columns instead of testing all P regions. This sits on the
    /// per-wire update path of the message-passing router.
    pub fn owners_intersecting(&self, rect: Rect) -> Vec<ProcId> {
        if rect.c_lo >= self.channels || rect.x_lo >= self.grids {
            return Vec::new();
        }
        let (row_lo, row_hi) = (self.row(rect.c_lo), self.row(rect.c_hi.min(self.channels - 1)));
        let (col_lo, col_hi) = (self.col(rect.x_lo), self.col(rect.x_hi.min(self.grids - 1)));
        let mut out = Vec::with_capacity((row_hi + 1 - row_lo) * (col_hi + 1 - col_lo));
        for row in row_lo..=row_hi {
            for col in col_lo..=col_hi {
                out.push(self.proc_at(row, col));
            }
        }
        out
    }

    /// Splits the run of columns `x_lo..=x_hi` in `channel` among the
    /// processors that own it: `(owner, x_lo, x_hi)` pieces, left to
    /// right.
    pub fn split_run(
        &self,
        channel: u16,
        x_lo: u16,
        x_hi: u16,
    ) -> impl Iterator<Item = (ProcId, u16, u16)> + '_ {
        debug_assert!(x_lo <= x_hi && x_hi < self.grids);
        let row = self.row(channel);
        (self.col(x_lo)..=self.col(x_hi)).map(move |col| {
            let (lo, hi) = (self.grid_starts[col], self.grid_starts[col + 1] - 1);
            (self.proc_at(row, col), x_lo.max(lo), x_hi.min(hi))
        })
    }

    /// The processor-mesh row owning channel `c`.
    #[inline]
    fn row(&self, c: u16) -> usize {
        usize::from(self.row_of[usize::from(c)])
    }

    /// The processor-mesh column owning grid column `x`.
    #[inline]
    fn col(&self, x: u16) -> usize {
        usize::from(self.col_of[usize::from(x)])
    }

    /// Surface dimensions `(channels, grids)`.
    pub fn surface(&self) -> (u16, u16) {
        (self.channels, self.grids)
    }
}

/// `parts + 1` boundaries splitting `0..total` as evenly as possible.
fn even_splits(total: u16, parts: usize) -> Vec<u16> {
    (0..=parts).map(|i| ((i as u64 * total as u64) / parts as u64) as u16).collect()
}

/// For each of `0..total`, the part of [`even_splits`]' `starts` it falls
/// in. There are at most `total` parts, so a part's number fits a `u16`.
fn band_of(starts: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(usize::from(starts[starts.len() - 1]));
    for (i, w) in starts.windows(2).enumerate() {
        out.resize(usize::from(w[1]), i as u16);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_dims_match_paper_configs() {
        assert_eq!(mesh_dims(2), (1, 2));
        assert_eq!(mesh_dims(4), (2, 2));
        assert_eq!(mesh_dims(9), (3, 3));
        assert_eq!(mesh_dims(16), (4, 4));
        assert_eq!(mesh_dims(1), (1, 1));
        assert_eq!(mesh_dims(6), (2, 3));
        assert_eq!(mesh_dims(7), (1, 7));
    }

    #[test]
    fn regions_tile_the_surface_exactly() {
        let m = RegionMap::new(10, 341, 16);
        let mut covered = 0u64;
        for p in 0..m.n_procs() {
            covered += m.region(p).area();
        }
        assert_eq!(covered, 10 * 341);
        // Every cell is owned by exactly the region that contains it.
        for c in 0..10u16 {
            for x in 0..341u16 {
                let cell = GridCell::new(c, x);
                let owner = m.owner_of(cell);
                assert!(m.region(owner).contains(cell), "{cell} not in region of {owner}");
            }
        }
    }

    #[test]
    fn owner_lookup_matches_region_scan() {
        let m = RegionMap::new(12, 386, 9);
        for c in (0..12).step_by(3) {
            for x in (0..386).step_by(17) {
                let cell = GridCell::new(c, x);
                let by_lookup = m.owner_of(cell);
                let by_scan = (0..m.n_procs()).find(|&p| m.region(p).contains(cell)).unwrap();
                assert_eq!(by_lookup, by_scan);
            }
        }
    }

    #[test]
    fn coords_roundtrip() {
        let m = RegionMap::new(10, 341, 16);
        for p in 0..16 {
            let (r, c) = m.coords(p);
            assert_eq!(m.proc_at(r, c), p);
        }
    }

    #[test]
    fn mesh_distance_is_manhattan() {
        let m = RegionMap::new(10, 341, 16);
        // 4x4 mesh: proc 0 at (0,0), proc 15 at (3,3).
        assert_eq!(m.mesh_distance(0, 15), 6);
        assert_eq!(m.mesh_distance(5, 5), 0);
        assert_eq!(m.mesh_distance(0, 1), 1);
        assert_eq!(m.mesh_distance(0, 4), 1);
    }

    #[test]
    fn neighbors_are_adjacent_and_correct_count() {
        let m = RegionMap::new(10, 341, 16);
        assert_eq!(m.neighbors(0).len(), 2); // corner
        assert_eq!(m.neighbors(1).len(), 3); // edge
        assert_eq!(m.neighbors(5).len(), 4); // interior
        for p in 0..16 {
            for n in m.neighbors(p) {
                assert_eq!(m.mesh_distance(p, n), 1);
            }
        }
    }

    #[test]
    fn owners_intersecting_finds_spanning_rect() {
        let m = RegionMap::new(10, 340, 4); // 2x2 mesh
        let all = m.owners_intersecting(Rect::new(0, 9, 0, 339));
        assert_eq!(all, vec![0, 1, 2, 3]);
        let region0 = m.region(0);
        assert_eq!(m.owners_intersecting(region0), vec![0]);
    }

    #[test]
    fn owners_intersecting_matches_full_scan() {
        for n_procs in [1, 2, 4, 6, 9, 16] {
            let m = RegionMap::new(10, 97, n_procs);
            for c_lo in (0..10u16).step_by(3) {
                for c_hi in c_lo..10 {
                    for x_lo in (0..97u16).step_by(13) {
                        for x_hi in (x_lo..97).step_by(11) {
                            let rect = Rect::new(c_lo, c_hi, x_lo, x_hi);
                            let scan: Vec<ProcId> = (0..m.n_procs())
                                .filter(|&p| m.region(p).intersects(&rect))
                                .collect();
                            assert_eq!(m.owners_intersecting(rect), scan, "{rect} P={n_procs}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn split_run_matches_owner_of_every_cell() {
        for n_procs in [1, 2, 6, 16] {
            let m = RegionMap::new(10, 97, n_procs);
            for c in [0u16, 4, 9] {
                for x_lo in (0..97u16).step_by(7) {
                    for x_hi in (x_lo..97).step_by(5) {
                        let by_cell: Vec<ProcId> = (x_lo..=x_hi)
                            .map(|x| {
                                let cell = GridCell::new(c, x);
                                (0..m.n_procs()).find(|&p| m.region(p).contains(cell)).unwrap()
                            })
                            .collect();
                        let by_piece: Vec<ProcId> = m
                            .split_run(c, x_lo, x_hi)
                            .flat_map(|(p, a, b)| (a..=b).map(move |_| p))
                            .collect();
                        assert_eq!(by_piece, by_cell, "channel {c} columns {x_lo}..={x_hi}");
                        let ends: Vec<(u16, u16)> =
                            m.split_run(c, x_lo, x_hi).map(|(_, a, b)| (a, b)).collect();
                        assert_eq!(ends[0].0, x_lo);
                        assert_eq!(ends[ends.len() - 1].1, x_hi);
                        assert!(ends.windows(2).all(|w| w[0].1 + 1 == w[1].0));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_surface_smaller_than_mesh() {
        let err = RegionMap::try_new(2, 341, 16).expect_err("needs 4 channel bands");
        assert!(
            err.contains("n_procs 16") && err.contains("4x4") && err.contains("2x341"),
            "{err}"
        );
        let _ = RegionMap::new(2, 341, 16);
    }

    #[test]
    fn two_proc_split_is_horizontal() {
        // 1x2 mesh: the array splits into left/right halves.
        let m = RegionMap::new(10, 341, 2);
        assert_eq!(m.region(0), Rect::new(0, 9, 0, 169));
        assert_eq!(m.region(1), Rect::new(0, 9, 170, 340));
    }
}
