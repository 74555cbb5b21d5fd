//! Randomness for lattice cryptography: uniform, ternary and discrete
//! Gaussian polynomial sampling.
//!
//! CKKS key generation draws the secret from a ternary distribution and
//! errors from a discrete Gaussian with standard deviation σ ≈ 3.2 (the
//! HomomorphicEncryption.org standard used by the parameter sets the paper
//! adopts).

use crate::modops::signed_to_mod;
use crate::poly::{Domain, RnsPoly};
use rand::Rng;

/// Standard error deviation of the HE standard (σ = 3.2).
pub const STANDARD_SIGMA: f64 = 3.2;

/// Samples a polynomial with residues uniform in `[0, q_i)` for every
/// prime, declared to live in `domain`: the NTT is a bijection, so a
/// uniform polynomial is uniform in either domain and a caller that
/// needs evaluation form samples it there instead of transforming.
pub fn sample_uniform<R: Rng + ?Sized>(
    n: usize,
    moduli: &[u64],
    domain: Domain,
    rng: &mut R,
) -> RnsPoly {
    let residues = moduli
        .iter()
        .map(|&q| (0..n).map(|_| rng.gen_range(0..q)).collect())
        .collect();
    RnsPoly::from_residues(residues, domain)
}

/// Samples small signed coefficients uniformly from `{-1, 0, 1}`.
pub fn sample_ternary<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<i64> {
    (0..n).map(|_| rng.gen_range(-1i64..=1)).collect()
}

/// Samples small signed coefficients from a rounded Gaussian with
/// standard deviation `sigma`, truncated at `±6σ`.
pub fn sample_gaussian<R: Rng + ?Sized>(n: usize, sigma: f64, rng: &mut R) -> Vec<i64> {
    assert!(sigma > 0.0, "sigma must be positive");
    let bound = (6.0 * sigma).ceil() as i64;
    (0..n)
        .map(|_| {
            // Box-Muller; rejection keeps the tail bounded for worst-case
            // noise analysis.
            loop {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let v = (g * sigma).round() as i64;
                if v.abs() <= bound {
                    return v;
                }
            }
        })
        .collect()
}

/// Lifts small signed coefficients into an RNS polynomial (coefficient
/// domain), reducing each value modulo every prime.
pub fn small_to_rns(values: &[i64], moduli: &[u64]) -> RnsPoly {
    let residues = moduli
        .iter()
        .map(|&q| values.iter().map(|&v| signed_to_mod(v, q)).collect())
        .collect();
    RnsPoly::from_residues(residues, Domain::Coeff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_ntt_primes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_sample_in_range_and_varied() {
        let moduli = generate_ntt_primes(30, 64, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let p = sample_uniform(64, &moduli, Domain::Coeff, &mut rng);
        assert_eq!(p.level_count(), 2);
        for (i, &q) in moduli.iter().enumerate() {
            assert!(p.component(i).iter().all(|&x| x < q));
        }
        // Overwhelmingly unlikely to be all equal.
        let c = p.component(0);
        assert!(c.iter().any(|&x| x != c[0]));
    }

    #[test]
    fn ternary_values_bounded() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = sample_ternary(4096, &mut rng);
        assert!(s.iter().all(|&v| (-1..=1).contains(&v)));
        // All three values should occur in a 4096-draw sample.
        for target in [-1i64, 0, 1] {
            assert!(s.contains(&target), "missing value {target}");
        }
    }

    #[test]
    fn gaussian_statistics_plausible() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = sample_gaussian(20_000, STANDARD_SIGMA, &mut rng);
        let mean: f64 = s.iter().map(|&v| v as f64).sum::<f64>() / s.len() as f64;
        let var: f64 =
            s.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / s.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean} too far from 0");
        assert!(
            (var - STANDARD_SIGMA * STANDARD_SIGMA).abs() < 1.5,
            "variance {var} too far from sigma^2"
        );
        let bound = (6.0 * STANDARD_SIGMA).ceil() as i64;
        assert!(s.iter().all(|&v| v.abs() <= bound));
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn gaussian_rejects_non_positive_sigma() {
        let mut rng = StdRng::seed_from_u64(4);
        sample_gaussian(8, 0.0, &mut rng);
    }

    #[test]
    fn small_to_rns_reduces_consistently() {
        let moduli = generate_ntt_primes(30, 8, 2);
        let vals = [-3i64, -1, 0, 1, 2, 5, -7, 9];
        let p = small_to_rns(&vals, &moduli);
        for (i, &q) in moduli.iter().enumerate() {
            for (j, &v) in vals.iter().enumerate() {
                assert_eq!(p.component(i)[j], signed_to_mod(v, q));
            }
        }
    }
}
