//! Halo grids in one, two, and three dimensions.
//!
//! A grid stores an `interior` region surrounded by a fixed-width `halo`
//! (ghost zone). Stencil executors read the full padded array and update
//! the interior; halo cells hold boundary data (Dirichlet by default).
//!
//! Interior coordinates are 0-based; padded coordinates are interior
//! coordinates shifted by `halo`. All storage is row-major f64.

use serde::{Deserialize, Serialize};

/// One-dimensional halo grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid1D {
    n: usize,
    halo: usize,
    data: Vec<f64>,
}

impl Grid1D {
    /// Zero-filled grid with `n` interior cells and `halo` ghost cells on
    /// each side.
    pub fn new(n: usize, halo: usize) -> Self {
        Self {
            n,
            halo,
            data: vec![0.0; n + 2 * halo],
        }
    }

    /// Build from a function of the interior coordinate (halo stays zero).
    pub fn from_fn(n: usize, halo: usize, mut f: impl FnMut(usize) -> f64) -> Self {
        let mut g = Self::new(n, halo);
        for i in 0..n {
            g.set(i, f(i));
        }
        g
    }

    /// Interior length.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Padded length (`n + 2*halo`).
    pub fn padded_len(&self) -> usize {
        self.data.len()
    }

    /// Interior read.
    pub fn get(&self, i: usize) -> f64 {
        self.data[i + self.halo]
    }

    /// Interior write.
    pub fn set(&mut self, i: usize, v: f64) {
        self.data[i + self.halo] = v;
    }

    /// Read relative to interior cell `i` with signed offset `di`
    /// (`|di| <= halo` reaches into the halo).
    pub fn get_rel(&self, i: usize, di: isize) -> f64 {
        let idx = (i + self.halo) as isize + di;
        self.data[idx as usize]
    }

    /// Full padded storage.
    pub fn padded(&self) -> &[f64] {
        &self.data
    }

    pub fn padded_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Interior values as a fresh vector.
    pub fn interior(&self) -> Vec<f64> {
        self.data[self.halo..self.halo + self.n].to_vec()
    }

    /// Re-allocate with a different halo width, preserving interior values
    /// (new halo cells are zero).
    pub fn with_halo(&self, halo: usize) -> Self {
        let mut g = Self::new(self.n, halo);
        for i in 0..self.n {
            g.set(i, self.get(i));
        }
        g
    }
}

/// Two-dimensional halo grid: `m` interior rows x `n` interior columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid2D {
    m: usize,
    n: usize,
    halo: usize,
    /// Row-major padded storage, `(m + 2h) x (n + 2h)`.
    data: Vec<f64>,
}

impl Grid2D {
    pub fn new(m: usize, n: usize, halo: usize) -> Self {
        Self {
            m,
            n,
            halo,
            data: vec![0.0; (m + 2 * halo) * (n + 2 * halo)],
        }
    }

    /// Build from a function of interior coordinates (row, col).
    pub fn from_fn(
        m: usize,
        n: usize,
        halo: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut g = Self::new(m, n, halo);
        for x in 0..m {
            for y in 0..n {
                g.set(x, y, f(x, y));
            }
        }
        g
    }

    /// Interior rows.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Interior columns.
    pub fn cols(&self) -> usize {
        self.n
    }

    pub fn halo(&self) -> usize {
        self.halo
    }

    pub fn padded_rows(&self) -> usize {
        self.m + 2 * self.halo
    }

    pub fn padded_cols(&self) -> usize {
        self.n + 2 * self.halo
    }

    /// Number of interior points.
    pub fn points(&self) -> usize {
        self.m * self.n
    }

    /// Flat index of padded coordinate (px, py).
    #[inline]
    pub fn padded_idx(&self, px: usize, py: usize) -> usize {
        px * self.padded_cols() + py
    }

    /// Interior read.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f64 {
        self.data[(x + self.halo) * self.padded_cols() + y + self.halo]
    }

    /// Interior write.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f64) {
        let idx = (x + self.halo) * self.padded_cols() + y + self.halo;
        self.data[idx] = v;
    }

    /// Read relative to interior cell (x, y) with signed offsets.
    #[inline]
    pub fn get_rel(&self, x: usize, y: usize, dx: isize, dy: isize) -> f64 {
        let px = (x + self.halo) as isize + dx;
        let py = (y + self.halo) as isize + dy;
        self.data[px as usize * self.padded_cols() + py as usize]
    }

    pub fn padded(&self) -> &[f64] {
        &self.data
    }

    pub fn padded_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Interior values, row-major, as a fresh vector.
    pub fn interior(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.m * self.n);
        for x in 0..self.m {
            let base = (x + self.halo) * self.padded_cols() + self.halo;
            out.extend_from_slice(&self.data[base..base + self.n]);
        }
        out
    }

    /// Copy with a different halo width, preserving interior values.
    pub fn with_halo(&self, halo: usize) -> Self {
        let mut g = Self::new(self.m, self.n, halo);
        for x in 0..self.m {
            for y in 0..self.n {
                g.set(x, y, self.get(x, y));
            }
        }
        g
    }
}

/// Three-dimensional halo grid: `d` planes x `m` rows x `n` columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid3D {
    d: usize,
    m: usize,
    n: usize,
    halo: usize,
    data: Vec<f64>,
}

impl Grid3D {
    pub fn new(d: usize, m: usize, n: usize, halo: usize) -> Self {
        let len = (d + 2 * halo) * (m + 2 * halo) * (n + 2 * halo);
        Self {
            d,
            m,
            n,
            halo,
            data: vec![0.0; len],
        }
    }

    pub fn from_fn(
        d: usize,
        m: usize,
        n: usize,
        halo: usize,
        mut f: impl FnMut(usize, usize, usize) -> f64,
    ) -> Self {
        let mut g = Self::new(d, m, n, halo);
        for z in 0..d {
            for x in 0..m {
                for y in 0..n {
                    g.set(z, x, y, f(z, x, y));
                }
            }
        }
        g
    }

    pub fn depth(&self) -> usize {
        self.d
    }

    pub fn rows(&self) -> usize {
        self.m
    }

    pub fn cols(&self) -> usize {
        self.n
    }

    pub fn halo(&self) -> usize {
        self.halo
    }

    pub fn padded_depth(&self) -> usize {
        self.d + 2 * self.halo
    }

    pub fn padded_rows(&self) -> usize {
        self.m + 2 * self.halo
    }

    pub fn padded_cols(&self) -> usize {
        self.n + 2 * self.halo
    }

    pub fn points(&self) -> usize {
        self.d * self.m * self.n
    }

    #[inline]
    fn plane_stride(&self) -> usize {
        self.padded_rows() * self.padded_cols()
    }

    /// Flat index of a padded coordinate.
    #[inline]
    pub fn padded_idx(&self, pz: usize, px: usize, py: usize) -> usize {
        pz * self.plane_stride() + px * self.padded_cols() + py
    }

    #[inline]
    pub fn get(&self, z: usize, x: usize, y: usize) -> f64 {
        self.data[self.padded_idx(z + self.halo, x + self.halo, y + self.halo)]
    }

    #[inline]
    pub fn set(&mut self, z: usize, x: usize, y: usize, v: f64) {
        let idx = self.padded_idx(z + self.halo, x + self.halo, y + self.halo);
        self.data[idx] = v;
    }

    #[inline]
    pub fn get_rel(&self, z: usize, x: usize, y: usize, dz: isize, dx: isize, dy: isize) -> f64 {
        let pz = (z + self.halo) as isize + dz;
        let px = (x + self.halo) as isize + dx;
        let py = (y + self.halo) as isize + dy;
        self.data[self.padded_idx(pz as usize, px as usize, py as usize)]
    }

    pub fn padded(&self) -> &[f64] {
        &self.data
    }

    pub fn padded_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    pub fn interior(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.points());
        for z in 0..self.d {
            for x in 0..self.m {
                let base = self.padded_idx(z + self.halo, x + self.halo, self.halo);
                out.extend_from_slice(&self.data[base..base + self.n]);
            }
        }
        out
    }

    pub fn with_halo(&self, halo: usize) -> Self {
        let mut g = Self::new(self.d, self.m, self.n, halo);
        for z in 0..self.d {
            for x in 0..self.m {
                for y in 0..self.n {
                    g.set(z, x, y, self.get(z, x, y));
                }
            }
        }
        g
    }
}

/// Deterministic pseudo-random fill used across tests and benches
/// (xorshift64*; no external RNG needed in library code).
pub fn fill_pseudorandom(data: &mut [f64], seed: u64) {
    let mut state = seed.wrapping_mul(2685821657736338717).max(1);
    for v in data.iter_mut() {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let bits = state.wrapping_mul(0x2545F4914F6CDD1D);
        // Map to [0, 1).
        *v = (bits >> 11) as f64 / (1u64 << 53) as f64;
    }
}

impl Grid1D {
    /// Fill interior *and halo* with deterministic pseudo-random values.
    pub fn fill_random(&mut self, seed: u64) {
        fill_pseudorandom(&mut self.data, seed);
    }
}

impl Grid2D {
    pub fn fill_random(&mut self, seed: u64) {
        fill_pseudorandom(&mut self.data, seed);
    }
}

impl Grid3D {
    pub fn fill_random(&mut self, seed: u64) {
        fill_pseudorandom(&mut self.data, seed);
    }
}

/// What dimension-generic code needs from a halo grid: its extent, halo
/// and storage. Implemented by [`Grid1D`], [`Grid2D`] and [`Grid3D`].
pub trait HaloGrid: Clone + std::fmt::Debug {
    /// Zero-filled grid with interior extent `dims` (one entry per axis).
    fn zeros(dims: &[usize], halo: usize) -> Self;
    /// Interior extent, one entry per axis.
    fn dims(&self) -> Vec<usize>;
    fn halo(&self) -> usize;
    fn padded(&self) -> &[f64];
    fn padded_mut(&mut self) -> &mut [f64];
    fn interior(&self) -> Vec<f64>;
    fn with_halo(&self, halo: usize) -> Self;
    /// Overwrite the interior with `src`'s (same extent, any halo).
    fn copy_interior(&mut self, src: &Self);
    /// Move the padded storage out, lending the values without a copy;
    /// the grid holds no storage until [`HaloGrid::restore_padded`].
    fn take_padded(&mut self) -> Vec<f64>;
    /// Give back storage taken by [`HaloGrid::take_padded`]. Panics
    /// unless it has the grid's padded length.
    fn restore_padded(&mut self, data: Vec<f64>);
}

/// The [`HaloGrid`] methods every grid implements alike: forwards to its
/// inherent ones and moves of its storage.
macro_rules! halo_grid_forwards {
    () => {
        fn halo(&self) -> usize {
            self.halo
        }
        fn padded(&self) -> &[f64] {
            &self.data
        }
        fn padded_mut(&mut self) -> &mut [f64] {
            &mut self.data
        }
        fn interior(&self) -> Vec<f64> {
            Self::interior(self)
        }
        fn with_halo(&self, halo: usize) -> Self {
            Self::with_halo(self, halo)
        }
        fn take_padded(&mut self) -> Vec<f64> {
            std::mem::take(&mut self.data)
        }
        fn restore_padded(&mut self, data: Vec<f64>) {
            let len: usize = self.dims().iter().map(|d| d + 2 * self.halo).product();
            assert_eq!(data.len(), len, "restored storage has the wrong length");
            self.data = data;
        }
    };
}

impl HaloGrid for Grid1D {
    fn zeros(dims: &[usize], halo: usize) -> Self {
        Self::new(dims[0], halo)
    }
    fn dims(&self) -> Vec<usize> {
        vec![self.n]
    }
    fn copy_interior(&mut self, src: &Self) {
        (0..self.n).for_each(|i| self.set(i, src.get(i)));
    }
    halo_grid_forwards!();
}

impl HaloGrid for Grid2D {
    fn zeros(dims: &[usize], halo: usize) -> Self {
        Self::new(dims[0], dims[1], halo)
    }
    fn dims(&self) -> Vec<usize> {
        vec![self.m, self.n]
    }
    fn copy_interior(&mut self, src: &Self) {
        for x in 0..self.m {
            (0..self.n).for_each(|y| self.set(x, y, src.get(x, y)));
        }
    }
    halo_grid_forwards!();
}

impl HaloGrid for Grid3D {
    fn zeros(dims: &[usize], halo: usize) -> Self {
        Self::new(dims[0], dims[1], dims[2], halo)
    }
    fn dims(&self) -> Vec<usize> {
        vec![self.d, self.m, self.n]
    }
    fn copy_interior(&mut self, src: &Self) {
        for z in 0..self.d {
            for x in 0..self.m {
                (0..self.n).for_each(|y| self.set(z, x, y, src.get(z, x, y)));
            }
        }
    }
    halo_grid_forwards!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid1d_halo_layout() {
        let mut g = Grid1D::new(4, 2);
        assert_eq!(g.padded_len(), 8);
        g.set(0, 1.0);
        assert_eq!(g.padded()[2], 1.0);
        assert_eq!(g.get_rel(0, -1), 0.0);
        assert_eq!(g.interior(), vec![1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn grid2d_indexing_roundtrip() {
        let mut g = Grid2D::new(3, 5, 2);
        g.set(2, 4, 7.5);
        assert_eq!(g.get(2, 4), 7.5);
        assert_eq!(g.get_rel(2, 4, 0, 0), 7.5);
        assert_eq!(g.get_rel(1, 4, 1, 0), 7.5);
        assert_eq!(g.padded()[g.padded_idx(4, 6)], 7.5);
    }

    #[test]
    fn grid2d_interior_extraction() {
        let g = Grid2D::from_fn(2, 3, 1, |x, y| (x * 3 + y) as f64);
        assert_eq!(g.interior(), vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn grid2d_with_halo_preserves_interior() {
        let g = Grid2D::from_fn(4, 4, 1, |x, y| (x + 10 * y) as f64);
        let g2 = g.with_halo(3);
        assert_eq!(g.interior(), g2.interior());
        assert_eq!(g2.halo(), 3);
    }

    #[test]
    fn pseudorandom_fill_is_deterministic_and_in_range() {
        let mut a = vec![0.0; 100];
        let mut b = vec![0.0; 100];
        fill_pseudorandom(&mut a, 7);
        fill_pseudorandom(&mut b, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| (0.0..1.0).contains(&v)));
        let mut c = vec![0.0; 100];
        fill_pseudorandom(&mut c, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn grid3d_interior_count() {
        let g = Grid3D::new(2, 3, 4, 2);
        assert_eq!(g.points(), 24);
        assert_eq!(g.interior().len(), 24);
        assert_eq!(g.padded().len(), 6 * 7 * 8);
    }

    #[test]
    fn lent_storage_comes_back_unchanged() {
        let mut g = Grid2D::new(3, 5, 1);
        g.fill_random(4);
        let before = g.clone();
        let data = g.take_padded();
        assert_eq!(data, before.padded());
        assert!(g.padded().is_empty());
        g.restore_padded(data);
        assert_eq!(g, before);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn restoring_storage_of_another_shape_panics() {
        let mut g = Grid1D::new(4, 1);
        let _ = g.take_padded();
        g.restore_padded(vec![0.0; 5]);
    }
}
