//! Higher-level homomorphic linear algebra built on the evaluator:
//! slot sums, plaintext inner products, and [`LinearTransform`] — the
//! one baby-step/giant-step evaluator of plaintext diagonals behind the
//! Halevi–Shoup matrix–vector product here and the dense layers of
//! `fxhenn-nn`'s optimized lowering (DESIGN.md §16).

use crate::cipher::{Ciphertext, Plaintext};
use crate::error::EvalError;
use crate::eval::Evaluator;
use crate::keys::GaloisKeys;
use crate::trace::{HeOpKind, OpTrace};

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

/// The rotation schedule of a baby-step/giant-step plaintext linear
/// transform `y = Σ_i D_i ⊙ rot(x, i)` over the diagonals
/// `i = g·stride + b`, `b < babies`, `g < giants`, followed by
/// rotate-and-add folds. It holds no weights, so the analytic lowering
/// can price a transform ([`record`](Self::record)) and list its keys
/// ([`rotation_steps`](Self::rotation_steps)) without encoding one.
///
/// Baby rotations `rot(x, b)` are composed from power-of-two hops
/// (`b` from `b − lowbit(b)`), so every step a schedule needs is a
/// power of two below `babies`, `stride`, or a fold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearSchedule {
    /// Baby steps: the input is rotated by `0..babies` (a power of two).
    pub babies: usize,
    /// Giant-step groups, combined Horner-style.
    pub giants: usize,
    /// Left rotation between consecutive giant-step groups.
    pub stride: usize,
    /// Rotate-and-add shifts applied to the sum, before the rescale.
    pub folds: Vec<usize>,
}

impl LinearSchedule {
    /// `diagonals` consecutive diagonals (a power of two) split so the
    /// giant stride is the baby count; babies get the larger half of an
    /// odd split because they share hoisted digits.
    ///
    /// # Panics
    ///
    /// Panics if `diagonals` is not a power of two.
    pub fn bsgs(diagonals: usize, folds: Vec<usize>) -> Self {
        assert!(diagonals.is_power_of_two(), "diagonal count must be a power of two");
        let babies = 1usize << diagonals.trailing_zeros().div_ceil(2);
        Self {
            babies,
            giants: diagonals / babies,
            stride: babies,
            folds,
        }
    }

    /// `groups` unrotated products packed `stride` slots apart:
    /// `y = Σ_g rot(D_g ⊙ x, g·stride)`.
    pub fn packed(groups: usize, stride: usize, folds: Vec<usize>) -> Self {
        Self {
            babies: 1,
            giants: groups,
            stride,
            folds,
        }
    }

    /// Number of plaintext diagonals.
    pub fn term_count(&self) -> usize {
        self.babies * self.giants
    }

    /// Baby `b`'s parent and the power-of-two hop that reaches it.
    fn hop(b: usize) -> (usize, usize) {
        let low = b & b.wrapping_neg();
        (b - low, low)
    }

    /// The babies reached from `parent` by one hop, ascending.
    fn children(&self, parent: usize) -> impl Iterator<Item = usize> + '_ {
        (1..self.babies).filter(move |&b| Self::hop(b).0 == parent)
    }

    /// Distinct left-rotation steps this schedule needs Galois keys for.
    pub fn rotation_steps(&self) -> Vec<usize> {
        let hops = (0..self.babies.trailing_zeros()).map(|t| 1usize << t);
        let giant = (self.giants > 1).then_some(self.stride);
        let mut steps: Vec<usize> = hops.chain(giant).chain(self.folds.iter().copied()).collect();
        steps.sort_unstable();
        steps.dedup();
        steps
    }

    /// The plaintext map the schedule computes on slot vector `x` —
    /// `fold(Σ D_{g,b} ⊙ rot(x, g·stride + b))` with `diagonal(g, b)` as
    /// [`LinearTransform::new`] takes it: the reference encrypted
    /// transforms (and the slot algebra of their callers) are tested
    /// against.
    pub fn apply_plain(
        &self,
        x: &[f64],
        mut diagonal: impl FnMut(usize, usize) -> Vec<f64>,
    ) -> Vec<f64> {
        let slots = x.len();
        let mut y = vec![0.0; slots];
        for g in 0..self.giants {
            for b in 0..self.babies {
                let shift = g * self.stride + b;
                for (j, d) in diagonal(g, b).into_iter().enumerate() {
                    y[j] += d * x[(j + shift) % slots];
                }
            }
        }
        for &fold in &self.folds {
            let before = y.clone();
            for (j, out) in y.iter_mut().enumerate() {
                *out += before[(j + fold) % slots];
            }
        }
        y
    }

    /// Appends the operations [`LinearTransform::apply`] executes on an
    /// input at `level`, in execution order.
    pub fn record(&self, level: usize, trace: &mut OpTrace) {
        trace.record_many(HeOpKind::Rotate, level, self.babies - 1);
        for g in 0..self.giants {
            trace.record(HeOpKind::PcMult, level);
            for _ in 1..self.babies {
                trace.record(HeOpKind::PcMult, level);
                trace.record(HeOpKind::CcAdd, level);
            }
            if g > 0 {
                trace.record(HeOpKind::Rotate, level);
                trace.record(HeOpKind::CcAdd, level);
            }
        }
        for _ in &self.folds {
            trace.record(HeOpKind::Rotate, level);
            trace.record(HeOpKind::CcAdd, level);
        }
        trace.record(HeOpKind::Rescale, level);
    }
}

/// A plaintext linear transform with its diagonals encoded once, at a
/// fixed level and at the scale of the prime its single rescale drops.
///
/// [`apply`](Self::apply) takes the baby rotations from hoisted digits
/// of the input (children of one parent share one [`Evaluator::hoist`]),
/// multiplies and sums each giant-step group at scale `Δ²`, chains the
/// groups Horner-style — `acc = group_g + rot(acc, stride)`, one key —
/// applies the folds and rescales once, last: every key switch after the
/// multiplication adds its noise at scale `Δ²`, where the rescale divides
/// it away. Diagonals are stored rotated right by `g·stride`, which is
/// what lets the giant rotation act on the partial sums instead of on
/// the input.
#[derive(Debug)]
pub struct LinearTransform {
    schedule: LinearSchedule,
    level: usize,
    /// Encoded diagonals, giant-major: index `g·babies + b`.
    terms: Vec<Plaintext>,
}

impl LinearTransform {
    /// Encodes a transform for inputs at `level`. `diagonal(g, b)` is the
    /// slot vector multiplying `rot(x, g·stride + b)`.
    ///
    /// # Errors
    ///
    /// Fails if `level` leaves no prime to rescale by, or as
    /// [`Evaluator::encode_for_mul`] does on a diagonal.
    pub fn new(
        ev: &Evaluator<'_>,
        schedule: LinearSchedule,
        level: usize,
        mut diagonal: impl FnMut(usize, usize) -> Vec<f64>,
    ) -> Result<Self, EvalError> {
        if level < 2 {
            return Err(EvalError::LevelExhausted { have: level, need: 2 });
        }
        let slots = ev.context().degree() / 2;
        let mut terms = Vec::with_capacity(schedule.term_count());
        for g in 0..schedule.giants {
            for b in 0..schedule.babies {
                let mut values = diagonal(g, b);
                if values.len() > slots {
                    return Err(EvalError::TooManyValues {
                        count: values.len(),
                        slots,
                    });
                }
                values.resize(slots, 0.0);
                values.rotate_right(g * schedule.stride % slots);
                terms.push(ev.encode_for_mul(&values, level)?);
            }
        }
        Ok(Self {
            schedule,
            level,
            terms,
        })
    }

    /// The rotation schedule.
    pub fn schedule(&self) -> &LinearSchedule {
        &self.schedule
    }

    /// Evaluates the transform on `ct`, consuming one level.
    ///
    /// # Errors
    ///
    /// Fails — before any arithmetic — if `ct` is not at the encoded
    /// level or a Galois key of the schedule is missing or cut below that
    /// level; otherwise as the evaluator operations it is made of do.
    pub fn apply(
        &self,
        ev: &mut Evaluator<'_>,
        ct: &Ciphertext,
        gks: &GaloisKeys,
    ) -> Result<Ciphertext, EvalError> {
        if ct.level() != self.level {
            return Err(EvalError::LevelMismatch {
                op: "LinearTransform",
                left: ct.level(),
                right: self.level,
            });
        }
        // Every rotation of the transform acts at the input level.
        for steps in self.schedule.rotation_steps() {
            gks.rotation_key(ev.context(), steps, self.level)?;
        }

        let sched = &self.schedule;
        let mut babies: Vec<Option<Ciphertext>> = vec![None; sched.babies];
        babies[0] = Some(ct.clone());
        for parent in 0..sched.babies {
            let children: Vec<usize> = sched.children(parent).collect();
            let src = babies[parent].as_ref().expect("parents precede children");
            let rotated: Vec<Ciphertext> = match children[..] {
                [] => continue,
                [child] => vec![ev.rotate(src, child - parent, gks)?],
                _ => {
                    let hoisted = ev.hoist(src)?;
                    children
                        .iter()
                        .map(|&c| ev.rotate_hoisted(&hoisted, c - parent, gks))
                        .collect::<Result<_, _>>()?
                }
            };
            for (child, rot) in children.into_iter().zip(rotated) {
                babies[child] = Some(rot);
            }
        }

        let mut acc: Option<Ciphertext> = None;
        for group in self.terms.chunks(sched.babies).rev() {
            let mut inner: Option<Ciphertext> = None;
            for (baby, term) in babies.iter().zip(group) {
                let baby = baby.as_ref().expect("every baby was rotated above");
                let prod = ev.mul_plain(baby, term)?;
                inner = Some(match inner {
                    None => prod,
                    Some(sum) => ev.add(&sum, &prod)?,
                });
            }
            let inner = inner.expect("babies >= 1");
            acc = Some(match acc {
                None => inner,
                Some(later) => {
                    let shifted = ev.rotate(&later, sched.stride, gks)?;
                    ev.add(&inner, &shifted)?
                }
            });
        }
        let mut out = acc.expect("giants >= 1");
        for &shift in &sched.folds {
            let rot = ev.rotate(&out, shift, gks)?;
            out = ev.add(&out, &rot)?;
        }
        ev.rescale(&out)
    }
}

/// The rotation steps [`matvec_diagonal`] needs Galois keys for, given
/// the (power-of-two padded) dimension; the replication rotation by
/// `slots − dim` comes on top.
pub fn diagonal_rotations(dim: usize) -> Vec<usize> {
    LinearSchedule::bsgs(dim.next_power_of_two(), Vec::new()).rotation_steps()
}

/// Halevi–Shoup diagonal matrix–vector product: computes `y = W·x` for a
/// square row-major `dim × dim` matrix, with `x` in slots `0..dim` of
/// the ciphertext (zero elsewhere) and `y` landing in slots `0..dim`.
///
/// `y_j = Σ_k diag_k[j] · x_{(j+k) mod dim}` where
/// `diag_k[j] = W[j][(j+k) mod dim]`, evaluated as one baby-step/
/// giant-step [`LinearTransform`]: `O(√dim)` rotations, one level
/// consumed overall.
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

    let schedule = LinearSchedule::bsgs(dim, Vec::new());
    let stride = schedule.stride;
    let transform = LinearTransform::new(ev, schedule, doubled.level(), |g, b| {
        // diag_k[j] = W[j][(j+k) mod dim], nonzero only in slots 0..dim.
        let k = g * stride + b;
        (0..dim).map(|j| matrix[j * dim + (j + k) % dim]).collect()
    })
    .expect("diagonals fit the slot count");
    transform
        .apply(ev, &doubled, gks)
        .expect("diagonal rotation keys")
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
        // 8 diagonals = 4 babies (hops 1, 2) x 2 giants (stride 4).
        assert_eq!(diagonal_rotations(8), vec![1, 2, 4]);
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
