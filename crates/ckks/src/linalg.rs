//! Higher-level homomorphic linear algebra built on the evaluator:
//! slot sums, plaintext inner products, and the Halevi–Shoup diagonal
//! matrix–vector product.
//!
//! The FxHENN networks use LoLa's row-major packing (see `fxhenn-nn`),
//! but the diagonal method is the other classic way to evaluate
//! `y = W·x` under CKKS — `d` rotations for a `d×d` matrix, no masking —
//! and is provided here both as library functionality and as a reference
//! point for packing-strategy comparisons.

use crate::cipher::Ciphertext;
use crate::eval::Evaluator;
use crate::keys::GaloisKeys;

/// Sums the first `count` slots of a ciphertext into slot 0 (and every
/// slot `j` receives the sum of slots `j..j+p` cyclically, where `p` is
/// `count` rounded up to a power of two).
///
/// Slots beyond `count` must be zero for the result to be exact —
/// callers typically guarantee this by a preceding plaintext
/// multiplication whose encoding zeroes the tail.
///
/// Requires Galois keys for the power-of-two rotations below `count`.
///
/// # Panics
///
/// Panics if `count` is zero, exceeds the slot count, or a Galois key is
/// missing.
pub fn sum_slots(
    ev: &mut Evaluator<'_>,
    ct: &Ciphertext,
    count: usize,
    gks: &GaloisKeys,
) -> Ciphertext {
    let slots = ev.context().degree() / 2;
    assert!(count >= 1 && count <= slots, "count out of range");
    let padded = count.next_power_of_two();
    let mut acc = ct.clone();
    let mut shift = 1usize;
    while shift < padded {
        let rot = ev
            .rotate(&acc, shift, gks)
            .expect("slot-sum rotation key");
        acc = ev.add(&acc, &rot).expect("rotation preserves level/scale");
        shift <<= 1;
    }
    acc
}

/// Homomorphic inner product with a plaintext vector: returns a
/// ciphertext whose slot 0 holds `Σ_i weights[i] · x_i`, consuming one
/// level.
///
/// # Panics
///
/// Panics if `weights` is empty or longer than the slot count, the
/// ciphertext is below level 2, or a rotation key is missing.
pub fn inner_product_plain(
    ev: &mut Evaluator<'_>,
    ct: &Ciphertext,
    weights: &[f64],
    gks: &GaloisKeys,
) -> Ciphertext {
    assert!(!weights.is_empty(), "weights must be non-empty");
    let pw = ev
        .encode_for_mul(weights, ct.level())
        .expect("weights fit the slot count");
    let prod = ev.mul_plain(ct, &pw).expect("encoded at the operand level");
    let scaled = ev.rescale(&prod).expect("PCmult output is linear");
    sum_slots(ev, &scaled, weights.len(), gks)
}

/// The rotation steps [`matvec_diagonal`] needs Galois keys for, given
/// the (power-of-two padded) dimension.
pub fn diagonal_rotations(dim: usize) -> Vec<usize> {
    (1..dim.next_power_of_two()).collect()
}

/// Halevi–Shoup diagonal matrix–vector product: computes `y = W·x` for a
/// square row-major `dim × dim` matrix, with `x` in slots `0..dim` of
/// the ciphertext (zero elsewhere) and `y` landing in slots `0..dim`.
///
/// `y_j = Σ_k diag_k[j] · x_{(j+k) mod dim}` where
/// `diag_k[j] = W[j][(j+k) mod dim]`: one rotation + one plaintext
/// multiplication per diagonal, one level consumed overall.
///
/// The dimension must be a power of two (the rotation group acts on
/// power-of-two strides; pad the matrix with zeros otherwise), and
/// `2·dim` must not exceed the slot count.
///
/// # Panics
///
/// Panics if `matrix.len() != dim²`, `dim` is not a power of two,
/// `dim > slots / 2`, or a rotation key is missing.
pub fn matvec_diagonal(
    ev: &mut Evaluator<'_>,
    ct: &Ciphertext,
    matrix: &[f64],
    dim: usize,
    gks: &GaloisKeys,
) -> Ciphertext {
    assert_eq!(matrix.len(), dim * dim, "matrix must be dim x dim");
    assert!(dim.is_power_of_two(), "dimension must be a power of two");
    let slots = ev.context().degree() / 2;
    assert!(2 * dim <= slots, "2·dim must fit the slot count");

    // Replicate x into slots dim..2·dim so the wrap-around of the cyclic
    // diagonal indexing is covered by a plain (non-cyclic) left shift:
    // slot j+k of (x || x) is x_{(j+k) mod dim} for j+k < 2·dim.
    let shifted_copy = ev
        .rotate(ct, slots - dim, gks) // right-rotate by dim
        .expect("replication rotation key");
    let doubled = ev
        .add(ct, &shifted_copy)
        .expect("rotation preserves level/scale");

    // Every diagonal rotates the same doubled input: decompose it once.
    let hoisted = ev.hoist(&doubled).expect("rotation output is linear");
    let mut acc: Option<Ciphertext> = None;
    for k in 0..dim {
        // diag_k[j] = W[j][(j+k) mod dim], nonzero only in slots 0..dim.
        let mut diag = vec![0.0; dim];
        for j in 0..dim {
            diag[j] = matrix[j * dim + (j + k) % dim];
        }
        let rotated = ev
            .rotate_hoisted(&hoisted, k, gks)
            .expect("diagonal rotation key");
        let pw = ev
            .encode_for_mul(&diag, rotated.level())
            .expect("diagonal fits the slot count");
        let prod = ev
            .mul_plain(&rotated, &pw)
            .expect("encoded at the operand level");
        acc = Some(match acc {
            None => prod,
            Some(a) => ev.add(&a, &prod).expect("uniform diagonal levels"),
        });
    }
    ev.rescale(&acc.expect("dim >= 1"))
        .expect("PCmult output is linear")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct Rig {
        ctx: CkksContext,
    }

    fn setup(rotations: &[usize]) -> (Rig, crate::keys::PublicKey, crate::keys::SecretKey, GaloisKeys)
    {
        let ctx = CkksContext::new(CkksParams::insecure_toy(3));
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(51));
        let pk = kg.public_key();
        let sk = kg.secret_key();
        let gks = kg.galois_keys(rotations);
        (Rig { ctx }, pk, sk, gks)
    }

    #[test]
    fn sum_slots_totals_a_prefix() {
        let rots: Vec<usize> = (0..9).map(|t| 1usize << t).collect();
        let (rig, pk, sk, gks) = setup(&rots);
        let mut enc = Encryptor::new(&rig.ctx, pk, StdRng::seed_from_u64(52));
        let dec = Decryptor::new(&rig.ctx, sk);
        let mut ev = Evaluator::new(&rig.ctx);
        let values: Vec<f64> = (1..=20).map(|v| v as f64).collect();
        let ct = enc.encrypt(&values);
        let summed = sum_slots(&mut ev, &ct, 20, &gks);
        let out = dec.decrypt(&summed);
        assert!((out[0] - 210.0).abs() < 0.1, "sum = {}", out[0]);
    }

    #[test]
    fn inner_product_matches_plaintext_dot() {
        let rots: Vec<usize> = (0..9).map(|t| 1usize << t).collect();
        let (rig, pk, sk, gks) = setup(&rots);
        let mut enc = Encryptor::new(&rig.ctx, pk, StdRng::seed_from_u64(53));
        let dec = Decryptor::new(&rig.ctx, sk);
        let mut ev = Evaluator::new(&rig.ctx);
        let x = [1.5, -2.0, 0.5, 3.0, 1.0];
        let w = [0.2, 0.4, -1.0, 0.5, 2.0];
        let expected: f64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
        let ct = enc.encrypt(&x);
        let ip = inner_product_plain(&mut ev, &ct, &w, &gks);
        let out = dec.decrypt(&ip);
        assert!(
            (out[0] - expected).abs() < 0.05,
            "{} vs {expected}",
            out[0]
        );
        assert_eq!(ip.level(), ct.level() - 1, "one level consumed");
    }

    #[test]
    fn diagonal_matvec_matches_plaintext() {
        let dim = 8usize;
        let mut rots = diagonal_rotations(dim);
        let slots = 512;
        rots.push(slots - dim); // the replication right-rotate
        let (rig, pk, sk, gks) = setup(&rots);
        let mut enc = Encryptor::new(&rig.ctx, pk, StdRng::seed_from_u64(54));
        let dec = Decryptor::new(&rig.ctx, sk);
        let mut ev = Evaluator::new(&rig.ctx);

        let mut rng = StdRng::seed_from_u64(55);
        let matrix: Vec<f64> = (0..dim * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let x: Vec<f64> = (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let expected: Vec<f64> = (0..dim)
            .map(|j| (0..dim).map(|i| matrix[j * dim + i] * x[i]).sum())
            .collect();

        let ct = enc.encrypt(&x);
        let y = matvec_diagonal(&mut ev, &ct, &matrix, dim, &gks);
        let out = dec.decrypt(&y);
        for j in 0..dim {
            assert!(
                (out[j] - expected[j]).abs() < 0.05,
                "slot {j}: {} vs {}",
                out[j],
                expected[j]
            );
        }
    }

    #[test]
    fn diagonal_matvec_identity_matrix() {
        let dim = 4usize;
        let mut rots = diagonal_rotations(dim);
        rots.push(512 - dim);
        let (rig, pk, sk, gks) = setup(&rots);
        let mut enc = Encryptor::new(&rig.ctx, pk, StdRng::seed_from_u64(56));
        let dec = Decryptor::new(&rig.ctx, sk);
        let mut ev = Evaluator::new(&rig.ctx);
        let mut eye = vec![0.0; dim * dim];
        for j in 0..dim {
            eye[j * dim + j] = 1.0;
        }
        let x = [2.0, -1.0, 0.5, 4.0];
        let ct = enc.encrypt(&x);
        let y = matvec_diagonal(&mut ev, &ct, &eye, dim, &gks);
        let out = dec.decrypt(&y);
        for j in 0..dim {
            assert!((out[j] - x[j]).abs() < 0.05, "slot {j}");
        }
    }

    #[test]
    fn diagonal_rotation_requirements_are_minimal() {
        assert_eq!(diagonal_rotations(8), vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(diagonal_rotations(1), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_dim_rejected() {
        let (rig, pk, _sk, gks) = setup(&[1]);
        let mut enc = Encryptor::new(&rig.ctx, pk, StdRng::seed_from_u64(57));
        let mut ev = Evaluator::new(&rig.ctx);
        let ct = enc.encrypt(&[1.0; 6]);
        matvec_diagonal(&mut ev, &ct, &vec![0.0; 36], 6, &gks);
    }
}
