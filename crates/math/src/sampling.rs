//! Randomness for lattice cryptography: uniform, ternary and discrete
//! Gaussian polynomial sampling.
//!
//! CKKS key generation draws the secret from a ternary distribution and
//! errors from a discrete Gaussian with standard deviation σ ≈ 3.2 (the
//! HomomorphicEncryption.org standard used by the parameter sets the paper
//! adopts).

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
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // Box-Muller yields two independent variates per pair of
        // uniforms; both are used. Rejection keeps the tail bounded for
        // worst-case noise analysis.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let radius = (-2.0 * u1.ln()).sqrt() * sigma;
        let (sin, cos) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        for g in [radius * cos, radius * sin] {
            let v = g.round() as i64;
            if v.abs() <= bound && out.len() < n {
                out.push(v);
            }
        }
    }
    out
}

/// Lifts small signed coefficients into an RNS polynomial (coefficient
/// domain): a non-negative value is its own residue and a negative one
/// is `q − |v|`, with no division.
///
/// # Panics
///
/// Panics if a coefficient's magnitude reaches a modulus — the values
/// are secrets and errors, orders of magnitude below any prime.
pub fn small_to_rns(values: &[i64], moduli: &[u64]) -> RnsPoly {
    let bound = values.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
    assert!(
        moduli.iter().all(|&q| bound < q),
        "coefficient magnitude {bound} is not small against the moduli"
    );
    let residues = moduli
        .iter()
        .map(|&q| {
            values
                .iter()
                .map(|&v| if v >= 0 { v as u64 } else { q - v.unsigned_abs() })
                .collect()
        })
        .collect();
    RnsPoly::from_residues(residues, Domain::Coeff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modops::signed_to_mod;
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
    fn gaussian_fills_odd_lengths_from_variate_pairs() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [0usize, 1, 2, 7] {
            assert_eq!(sample_gaussian(n, STANDARD_SIGMA, &mut rng).len(), n);
        }
    }

    #[test]
    #[should_panic(expected = "not small against the moduli")]
    fn small_to_rns_rejects_values_that_reach_a_modulus() {
        small_to_rns(&[0, -17], &[97, 17]);
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
