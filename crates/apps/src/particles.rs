//! Particle pairwise interactions (Figs. 8 and 9): the paper's molecular
//! dynamics kernel.
//!
//! > "Each processor is in charge of calculating the interactions of P/N
//! > particles ... The processes communicate in P−1 phases, passing a
//! > partition of the particles around in the ring. ... To allow concurrent
//! > sending and receiving at the communication phase of each round,
//! > nonblocking sends are posted to send to the next processor in the
//! > ring, then a blocking receive is performed, followed by a wait
//! > operation to complete the send."
//!
//! We keep exactly that communication structure (isend → recv → wait) and
//! a softened-gravity pairwise force, computing real forces that the tests
//! check against an all-pairs serial reference.

use lmpi_core::{Communicator, MpiResult};

/// Flops charged per pairwise interaction (distance, softening, inverse
/// square root, accumulate — a 1996-style operation count).
pub const FLOPS_PER_INTERACTION: u64 = 20;

/// Softening length, avoids singular forces for coincident particles.
const SOFTENING: f64 = 1e-3;

/// A particle: 2-D position and mass, flattened as `[x, y, m]` triples on
/// the wire.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Particle {
    /// Position.
    pub x: f64,
    /// Position.
    pub y: f64,
    /// Mass.
    pub m: f64,
}

/// Deterministically generate `p` particles.
pub fn generate_particles(p: usize, seed: u64) -> Vec<Particle> {
    let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..p)
        .map(|_| Particle {
            x: next() * 10.0 - 5.0,
            y: next() * 10.0 - 5.0,
            m: next() + 0.5,
        })
        .collect()
}

/// Force of `other` acting on `target` (softened inverse-square).
fn pair_force(target: Particle, other: Particle) -> (f64, f64) {
    let dx = other.x - target.x;
    let dy = other.y - target.y;
    let r2 = dx * dx + dy * dy + SOFTENING;
    let inv_r = 1.0 / r2.sqrt();
    let f = target.m * other.m * inv_r * inv_r * inv_r;
    (f * dx, f * dy)
}

/// Serial all-pairs reference: force on each particle from every other.
pub fn forces_serial(particles: &[Particle]) -> Vec<(f64, f64)> {
    let n = particles.len();
    let mut out = vec![(0.0, 0.0); n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let (fx, fy) = pair_force(particles[i], particles[j]);
            out[i].0 += fx;
            out[i].1 += fy;
        }
    }
    out
}

fn flatten(ps: &[Particle]) -> Vec<f64> {
    ps.iter().flat_map(|p| [p.x, p.y, p.m]).collect()
}

fn unflatten(xs: &[f64]) -> Vec<Particle> {
    xs.chunks_exact(3)
        .map(|c| Particle {
            x: c[0],
            y: c[1],
            m: c[2],
        })
        .collect()
}

/// Distributed ring computation of the forces on *this rank's* block of
/// particles. `particles` is the full (replicated, deterministic) set;
/// the block of rank `r` is the `r`-th contiguous chunk. Returns the
/// forces on the local block.
///
/// `particles.len()` must be divisible by the communicator size.
pub fn forces_ring(world: &Communicator, particles: &[Particle]) -> MpiResult<Vec<(f64, f64)>> {
    let n = world.size();
    let me = world.rank();
    let p = particles.len();
    assert!(
        p.is_multiple_of(n),
        "{p} particles must divide over {n} ranks"
    );
    let block = p / n;

    let mine: Vec<Particle> = particles[me * block..(me + 1) * block].to_vec();
    let mut forces = vec![(0.0, 0.0); block];
    // The travelling partition starts as my own block.
    let mut visiting = mine.clone();
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;

    for phase in 0..n {
        // Interactions between my permanent particles and the visiting
        // partition (skip self-pairs in the phase where it is my own).
        let own_block = phase == 0;
        for (i, &tgt) in mine.iter().enumerate() {
            for (j, &src) in visiting.iter().enumerate() {
                if own_block && i == j {
                    continue;
                }
                let (fx, fy) = pair_force(tgt, src);
                forces[i].0 += fx;
                forces[i].1 += fy;
            }
        }
        world.compute_flops(FLOPS_PER_INTERACTION * (block * block) as u64);

        if phase + 1 == n {
            break; // every partition has visited
        }
        // Paper's pattern: isend to the right, blocking recv from the
        // left, wait to complete the send.
        let outgoing = flatten(&visiting);
        let req = world.isend(&outgoing, right, 0)?;
        let mut incoming = vec![0.0f64; 3 * block];
        world.recv(&mut incoming, left, 0)?;
        req.wait()?;
        visiting = unflatten(&incoming);
    }
    Ok(forces)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_force_is_antisymmetric() {
        let a = Particle {
            x: 0.0,
            y: 0.0,
            m: 2.0,
        };
        let b = Particle {
            x: 1.0,
            y: 2.0,
            m: 3.0,
        };
        let (fx1, fy1) = pair_force(a, b);
        let (fx2, fy2) = pair_force(b, a);
        assert!((fx1 + fx2).abs() < 1e-12);
        assert!((fy1 + fy2).abs() < 1e-12);
    }

    #[test]
    fn force_points_toward_the_other_particle() {
        let a = Particle {
            x: 0.0,
            y: 0.0,
            m: 1.0,
        };
        let b = Particle {
            x: 1.0,
            y: 0.0,
            m: 1.0,
        };
        let (fx, fy) = pair_force(a, b);
        assert!(fx > 0.0);
        assert_eq!(fy, 0.0);
    }

    #[test]
    fn serial_net_force_sums_to_zero() {
        let ps = generate_particles(24, 1);
        let fs = forces_serial(&ps);
        let (sx, sy) = fs
            .iter()
            .fold((0.0, 0.0), |(ax, ay), (fx, fy)| (ax + fx, ay + fy));
        assert!(sx.abs() < 1e-9, "net x force {sx}");
        assert!(sy.abs() < 1e-9, "net y force {sy}");
    }

    #[test]
    fn flatten_roundtrip() {
        let ps = generate_particles(7, 2);
        assert_eq!(unflatten(&flatten(&ps)), ps);
    }

    #[test]
    fn generation_deterministic() {
        assert_eq!(generate_particles(10, 3), generate_particles(10, 3));
    }
}
