//! Cartesian virtual topologies (`MPI_Cart_*`).
//!
//! The MPI-1 standard the paper implements includes "process group
//! management and virtual topology management"; this module provides the
//! Cartesian half: grid creation, coordinate↔rank mapping, neighbour
//! shifts, and grid slicing.

use crate::error::{MpiError, MpiResult};
use crate::mpi::Communicator;
use crate::types::Rank;

/// A communicator with Cartesian grid structure attached.
#[derive(Clone)]
pub struct CartComm {
    comm: Communicator,
    dims: Vec<usize>,
    periods: Vec<bool>,
}

/// `MPI_Dims_create`: factor `nnodes` into `ndims` balanced dimensions
/// (largest first).
pub fn dims_create(nnodes: usize, ndims: usize) -> Vec<usize> {
    assert!(ndims > 0, "need at least one dimension");
    let mut dims = vec![1usize; ndims];
    let mut n = nnodes;
    let mut f = 2;
    let mut factors = Vec::new();
    while f * f <= n {
        while n.is_multiple_of(f) {
            factors.push(f);
            n /= f;
        }
        f += 1;
    }
    if n > 1 {
        factors.push(n);
    }
    // Distribute factors largest-first onto the currently smallest dim.
    for &p in factors.iter().rev() {
        let i = (0..ndims).min_by_key(|&i| dims[i]).expect("ndims > 0");
        dims[i] *= p;
    }
    dims.sort_unstable_by(|a, b| b.cmp(a));
    dims
}

impl CartComm {
    /// `MPI_Cart_create`: attach a `dims` grid with per-dimension
    /// periodicity to `comm`. Collective; ranks beyond the grid get
    /// `None`. (`reorder` is accepted for API parity and ignored — the
    /// simulated fabrics are distance-uniform.)
    pub fn create(
        comm: &Communicator,
        dims: &[usize],
        periods: &[bool],
        _reorder: bool,
    ) -> MpiResult<Option<CartComm>> {
        if dims.is_empty() || dims.len() != periods.len() {
            return Err(MpiError::CollectiveMismatch(format!(
                "cart_create: {} dims vs {} periods",
                dims.len(),
                periods.len()
            )));
        }
        let cells: usize = dims.iter().product();
        if cells == 0 || cells > comm.size() {
            return Err(MpiError::CollectiveMismatch(format!(
                "cart_create: grid of {cells} cells on {} ranks",
                comm.size()
            )));
        }
        let me = comm.rank();
        let color = (me < cells).then_some(0u64);
        let sub = comm.split(color, me as u64)?;
        Ok(sub.map(|comm| CartComm {
            comm,
            dims: dims.to_vec(),
            periods: periods.to_vec(),
        }))
    }

    /// The underlying communicator (rank order is grid row-major order).
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// Grid extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Per-dimension periodicity.
    pub fn periods(&self) -> &[bool] {
        &self.periods
    }

    /// `MPI_Cart_coords`: the grid coordinates of `rank` (row-major).
    pub fn coords_of(&self, rank: Rank) -> MpiResult<Vec<usize>> {
        let cells: usize = self.dims.iter().product();
        if rank >= cells {
            return Err(MpiError::RankOutOfRange { rank, size: cells });
        }
        let mut rem = rank;
        let mut coords = vec![0; self.dims.len()];
        for (i, &d) in self.dims.iter().enumerate().rev() {
            coords[i] = rem % d;
            rem /= d;
        }
        Ok(coords)
    }

    /// This rank's grid coordinates.
    pub fn my_coords(&self) -> Vec<usize> {
        self.coords_of(self.comm.rank()).expect("own rank in grid")
    }

    /// `MPI_Cart_rank`: the rank at `coords`. Periodic dimensions wrap;
    /// out-of-range coordinates on non-periodic dimensions are an error.
    pub fn rank_at(&self, coords: &[isize]) -> MpiResult<Rank> {
        if coords.len() != self.dims.len() {
            return Err(MpiError::CollectiveMismatch(format!(
                "cart rank_at: {} coords for {} dims",
                coords.len(),
                self.dims.len()
            )));
        }
        let mut rank = 0usize;
        for ((&c, &d), &p) in coords.iter().zip(&self.dims).zip(&self.periods) {
            let c = if p {
                c.rem_euclid(d as isize) as usize
            } else {
                if c < 0 || c as usize >= d {
                    return Err(MpiError::RankOutOfRange {
                        rank: c.unsigned_abs(),
                        size: d,
                    });
                }
                c as usize
            };
            rank = rank * d + c;
        }
        Ok(rank)
    }

    /// `MPI_Cart_shift`: source and destination ranks for a displacement
    /// of `disp` along `dim`. `None` marks an off-grid neighbour
    /// (`MPI_PROC_NULL`) on non-periodic dimensions.
    pub fn shift(&self, dim: usize, disp: isize) -> MpiResult<(Option<Rank>, Option<Rank>)> {
        if dim >= self.dims.len() {
            return Err(MpiError::RankOutOfRange {
                rank: dim,
                size: self.dims.len(),
            });
        }
        let me: Vec<isize> = self.my_coords().iter().map(|&c| c as isize).collect();
        let neighbour = |delta: isize| -> Option<Rank> {
            let mut c = me.clone();
            c[dim] += delta;
            self.rank_at(&c).ok()
        };
        Ok((neighbour(-disp), neighbour(disp)))
    }

    /// `MPI_Cart_sub`: slice the grid, keeping the dimensions flagged in
    /// `keep`. Every rank lands in exactly one sub-grid.
    pub fn sub(&self, keep: &[bool]) -> MpiResult<CartComm> {
        if keep.len() != self.dims.len() {
            return Err(MpiError::CollectiveMismatch(format!(
                "cart sub: {} flags for {} dims",
                keep.len(),
                self.dims.len()
            )));
        }
        let me = self.my_coords();
        // Color = the dropped coordinates; key = position within the slice.
        let mut color = 0u64;
        let mut key = 0u64;
        for ((&c, &k), &d) in me.iter().zip(keep).zip(&self.dims) {
            if k {
                key = key * d as u64 + c as u64;
            } else {
                color = color * d as u64 + c as u64;
            }
        }
        let comm = self
            .comm
            .split(Some(color), key)?
            .expect("every rank keeps a slice");
        let dims: Vec<usize> = self
            .dims
            .iter()
            .zip(keep)
            .filter(|(_, &k)| k)
            .map(|(&d, _)| d)
            .collect();
        let periods: Vec<bool> = self
            .periods
            .iter()
            .zip(keep)
            .filter(|(_, &k)| k)
            .map(|(&p, _)| p)
            .collect();
        Ok(CartComm {
            comm,
            dims: if dims.is_empty() { vec![1] } else { dims },
            periods: if periods.is_empty() {
                vec![false]
            } else {
                periods
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_create_balances() {
        assert_eq!(dims_create(12, 2), vec![4, 3]);
        assert_eq!(dims_create(8, 3), vec![2, 2, 2]);
        assert_eq!(dims_create(7, 2), vec![7, 1]);
        assert_eq!(dims_create(1, 2), vec![1, 1]);
        assert_eq!(dims_create(16, 2), vec![4, 4]);
        let d = dims_create(24, 3);
        assert_eq!(d.iter().product::<usize>(), 24);
        assert!(
            d.windows(2).all(|w| w[0] >= w[1]),
            "{d:?} sorted descending"
        );
    }

    // Grid math is testable without a live communicator via a fabricated
    // CartComm? The methods need `comm`; cover coordinate math through the
    // row-major helpers indirectly in the integration tests. Here, cover
    // the pure pieces.
    #[test]
    fn row_major_roundtrip_math() {
        // Simulate coords_of/rank_at arithmetic for a 3x4 grid.
        let dims = [3usize, 4];
        for rank in 0..12 {
            let coords = [(rank / 4) % 3, rank % 4];
            let back = coords[0] * 4 + coords[1];
            assert_eq!(back, rank);
            let _ = dims;
        }
    }
}
