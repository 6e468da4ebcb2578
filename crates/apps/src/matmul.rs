//! Distributed matrix multiplication.
//!
//! The paper: "We also implemented matrix multiplication; the performance
//! results are similar to that of the linear equation solver" — it is the
//! same communication shape: broadcast one operand, partition the other,
//! gather the product.

use lmpi_core::{Communicator, MpiResult};

/// Serial reference: `C = A·B` for `n`×`n` row-major matrices.
pub fn matmul_serial(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c
}

/// Distributed `C = A·B`: rank 0 holds `A` and `B`, broadcasts `B`,
/// scatters block rows of `A`, gathers block rows of `C`. Rank 0 returns
/// `Some(C)`; other ranks pass empty slices for `a`/`b` and get `None`.
///
/// `n` must be divisible by the communicator size.
pub fn matmul_distributed(
    world: &Communicator,
    a: &[f64],
    b: &[f64],
    n: usize,
) -> MpiResult<Option<Vec<f64>>> {
    let p = world.size();
    let me = world.rank();
    assert!(n.is_multiple_of(p), "n={n} must be divisible by {p} ranks");
    let rows = n / p;

    // Broadcast B to everyone.
    let mut my_b = if me == 0 {
        b.to_vec()
    } else {
        vec![0.0; n * n]
    };
    world.bcast(&mut my_b, 0)?;

    // Scatter block rows of A.
    let mut my_a = vec![0.0; rows * n];
    world.scatter(if me == 0 { Some(a) } else { None }, &mut my_a, 0)?;

    // Local block multiply.
    let mut my_c = vec![0.0; rows * n];
    for i in 0..rows {
        for k in 0..n {
            let aik = my_a[i * n + k];
            for j in 0..n {
                my_c[i * n + j] += aik * my_b[k * n + j];
            }
        }
    }
    world.compute_flops(2 * (rows * n * n) as u64);

    // Gather block rows of C at the initiator.
    world.gather(&my_c, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_identity() {
        let n = 3;
        let mut eye = vec![0.0; 9];
        for i in 0..3 {
            eye[i * 3 + i] = 1.0;
        }
        let a: Vec<f64> = (0..9).map(|x| x as f64).collect();
        assert_eq!(matmul_serial(&a, &eye, n), a);
        assert_eq!(matmul_serial(&eye, &a, n), a);
    }

    #[test]
    fn serial_small_known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        assert_eq!(matmul_serial(&a, &b, 2), vec![19.0, 22.0, 43.0, 50.0]);
    }
}
