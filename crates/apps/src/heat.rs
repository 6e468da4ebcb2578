//! 1-D heat diffusion with halo exchange: a nearest-neighbour stencil in
//! the same communication style as the paper's ring application, used as
//! an additional example workload.

use lmpi_core::{Communicator, MpiResult};

/// One explicit Euler step of `u_t = α u_xx` on a fixed-boundary rod.
fn step(u: &[f64], next: &mut [f64], alpha: f64, left: f64, right: f64) {
    let n = u.len();
    for i in 0..n {
        let ul = if i == 0 { left } else { u[i - 1] };
        let ur = if i == n - 1 { right } else { u[i + 1] };
        next[i] = u[i] + alpha * (ul - 2.0 * u[i] + ur);
    }
}

/// Serial reference: `steps` iterations over the whole rod (boundary
/// values clamped to 0).
pub fn heat_serial(initial: &[f64], alpha: f64, steps: usize) -> Vec<f64> {
    let mut u = initial.to_vec();
    let mut next = vec![0.0; u.len()];
    for _ in 0..steps {
        step(&u, &mut next, alpha, 0.0, 0.0);
        std::mem::swap(&mut u, &mut next);
    }
    u
}

/// Distributed version: the rod is split into contiguous blocks; each step
/// exchanges one halo cell with each neighbour via `sendrecv`. Returns this
/// rank's block after `steps` iterations.
///
/// `initial.len()` must divide evenly over the communicator.
pub fn heat_distributed(
    world: &Communicator,
    initial: &[f64],
    alpha: f64,
    steps: usize,
) -> MpiResult<Vec<f64>> {
    let p = world.size();
    let me = world.rank();
    let n = initial.len();
    assert!(n.is_multiple_of(p), "{n} cells must divide over {p} ranks");
    let block = n / p;
    let mut u = initial[me * block..(me + 1) * block].to_vec();
    let mut next = vec![0.0; block];

    for _ in 0..steps {
        // Halo exchange: boundary ranks clamp to 0.
        let mut left_halo = [0.0f64];
        let mut right_halo = [0.0f64];
        if me > 0 {
            world.sendrecv(&[u[0]], me - 1, 0, &mut left_halo, me - 1, 1)?;
        }
        if me + 1 < p {
            world.sendrecv(&[u[block - 1]], me + 1, 1, &mut right_halo, me + 1, 0)?;
        }
        step(&u, &mut next, alpha, left_halo[0], right_halo[0]);
        world.compute_flops(4 * block as u64);
        std::mem::swap(&mut u, &mut next);
    }
    Ok(u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heat_diffuses_toward_zero() {
        let initial = vec![0.0, 0.0, 100.0, 0.0, 0.0];
        let u = heat_serial(&initial, 0.25, 50);
        assert!(u[2] < 100.0, "peak must decay");
        assert!(u.iter().all(|&v| v >= 0.0), "no undershoot at this alpha");
        let total: f64 = u.iter().sum();
        assert!(total < 100.0, "energy leaks through the boundaries");
    }

    #[test]
    fn symmetric_initial_stays_symmetric() {
        let initial = vec![1.0, 2.0, 3.0, 2.0, 1.0];
        let u = heat_serial(&initial, 0.2, 9);
        assert!((u[0] - u[4]).abs() < 1e-12);
        assert!((u[1] - u[3]).abs() < 1e-12);
    }

    #[test]
    fn zero_steps_is_identity() {
        let initial = vec![3.0, 1.0, 4.0];
        assert_eq!(heat_serial(&initial, 0.25, 0), initial);
    }
}
