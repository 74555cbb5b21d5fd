//! Blocked ciphertext×ciphertext matrix multiply in the
//! Jiang–Kim–Lauter–Song style, adapted to tiled slot packing.
//!
//! A `d × d` block is packed row-major into a `d²`-slot pattern and
//! replicated across all `slots / d²` tiles, so every full-ring
//! rotation acts on the pattern *modulo `d²`* — in particular row
//! shifts (`ψ`) become pure rotations with the wraparound absorbed by
//! the neighbouring tile, needing no mask at all.
//!
//! The product `C = A·B` is evaluated as
//!
//! ```text
//!   C = Σ_{k=0}^{d-1} φᵏ(σ(A)) ⊙ ψᵏ(τ(B))
//! ```
//!
//! where `σ(A)[i][j] = A[i][(i+j) mod d]` (2d−1 masked diagonals,
//! evaluated with baby-step/giant-step rotations), `τ(B)[i][j] =
//! B[(i+j) mod d][j]` (d masked diagonals with stride-`d` shifts, also
//! BSGS), `φᵏ` shifts columns by `k` (two masked rotations) and `ψᵏ`
//! shifts rows by `k` (one pure rotation). The `d` shifted products
//! accumulate in un-relinearised 3-poly form; a single relinearize +
//! rescale closes the block.
//!
//! Depth is exactly three levels per block (σ/τ mask rescale, φ mask
//! rescale, product rescale), booked as one [`HeOpKind::CtMatmul`]
//! macro record at the entry level — the unit the noise planner, the
//! lowering and the hardware cost model all reason in.

use crate::cipher::Ciphertext;
use crate::error::EvalError;
use crate::eval::{Evaluator, HoistedDigits};
use crate::keys::{GaloisKeys, RelinKey, RotationSet};
use crate::trace::HeOpKind;

/// Multiplicative depth of one ct×ct matmul block.
pub const MATMUL_DEPTH: usize = 3;

/// An arithmetic progression of rotation shifts `start + idx·stride`
/// with a slot mask per shift, evaluated as one BSGS masked-rotation
/// sum.  The mask vectors are already tiled to the full slot count.
struct MaskedProg {
    start: i64,
    stride: i64,
    masks: Vec<Vec<f64>>,
}

fn norm_shift(s: i64, slots: usize) -> usize {
    (s.rem_euclid(slots as i64)) as usize
}

fn bsgs_baby_count(count: usize) -> usize {
    (count as f64).sqrt().ceil() as usize
}

/// Tiles one `d²`-slot pattern across the whole slot vector.
fn tile(pattern: &[f64], slots: usize) -> Vec<f64> {
    (0..slots).map(|t| pattern[t % pattern.len()]).collect()
}

/// The σ transform program: diagonal `s ∈ [−(d−1), d−1]` carries the
/// entries whose in-pattern source offset is exactly `s` —
/// `mask_s[i·d+j] = 1` iff `(i·d + (i+j) mod d) − (i·d+j) = s`.
fn sigma_prog(d: usize, slots: usize) -> MaskedProg {
    let dd = d * d;
    let masks = (-(d as i64 - 1)..=(d as i64 - 1))
        .map(|s| {
            let mut pattern = vec![0.0f64; dd];
            for (t, slot) in pattern.iter_mut().enumerate() {
                let (i, j) = (t / d, t % d);
                let src = i * d + (i + j) % d;
                if src as i64 - t as i64 == s {
                    *slot = 1.0;
                }
            }
            tile(&pattern, slots)
        })
        .collect();
    MaskedProg {
        start: -(d as i64 - 1),
        stride: 1,
        masks,
    }
}

/// The τ transform program: column `j` moves by exactly `j·d` on the
/// tiled ring (the `i+j ≥ d` wraparound lands in the next tile, which
/// holds the same pattern), so the masks are column indicators.
fn tau_prog(d: usize, slots: usize) -> MaskedProg {
    let dd = d * d;
    let masks = (0..d)
        .map(|col| {
            let mut pattern = vec![0.0f64; dd];
            for (t, slot) in pattern.iter_mut().enumerate() {
                if t % d == col {
                    *slot = 1.0;
                }
            }
            tile(&pattern, slots)
        })
        .collect();
    MaskedProg {
        start: 0,
        stride: d as i64,
        masks,
    }
}

/// Evaluates `Σ_idx mask_idx ⊙ rot_{start+idx·stride}(ct)` with
/// baby-step/giant-step rotations: `rot_{G+B}(x)` masked by `m` equals
/// `rot_G(rot_{−G}(m) ⊙ rot_B(x))`, so each giant group shares its baby
/// rotations and pays one giant rotation.  One rescale closes the sum
/// (one level); output returns to the input scale.
fn bsgs_masked_sum(
    ev: &mut Evaluator<'_>,
    ct: &Ciphertext,
    prog: &MaskedProg,
    gks: &GaloisKeys,
) -> Result<Ciphertext, EvalError> {
    let slots = ev.context().degree() / 2;
    let count = prog.masks.len();
    let level = ct.level();
    let bs = bsgs_baby_count(count);
    // Every baby step rotates the one input: decompose it once (and
    // free the digits before the giant steps).
    let babies: Vec<Ciphertext> = {
        let hoisted = ev.hoist(ct)?;
        (0..bs.min(count))
            .map(|b| {
                let steps = norm_shift(b as i64 * prog.stride, slots);
                ev.rotate_hoisted(&hoisted, steps, gks)
            })
            .collect::<Result<_, _>>()?
    };
    let mut acc: Option<Ciphertext> = None;
    for g in 0..count.div_ceil(bs) {
        let gshift = prog.start + (g * bs) as i64 * prog.stride;
        let mut inner: Option<Ciphertext> = None;
        for (b, baby) in babies.iter().enumerate() {
            let idx = g * bs + b;
            if idx >= count {
                break;
            }
            let mask = &prog.masks[idx];
            // The giant rotation moves the masked term by `gshift`, so
            // the mask pre-rotates the other way.
            let pre: Vec<f64> = (0..slots)
                .map(|t| mask[norm_shift(t as i64 - gshift, slots)])
                .collect();
            let pt = ev.encode_for_mul(&pre, level)?;
            let term = ev.mul_plain(baby, &pt)?;
            inner = Some(match inner {
                None => term,
                Some(sum) => ev.add(&sum, &term)?,
            });
        }
        let inner = inner.ok_or(EvalError::LevelExhausted { have: 0, need: 1 })?;
        let steps = norm_shift(gshift, slots);
        let moved = if steps == 0 {
            inner
        } else {
            ev.rotate(&inner, steps, gks)?
        };
        acc = Some(match acc {
            None => moved,
            Some(sum) => ev.add(&sum, &moved)?,
        });
    }
    let acc = acc.ok_or(EvalError::LevelExhausted { have: 0, need: 1 })?;
    ev.rescale(&acc)
}

/// `φᵏ`: shifts the columns of an already-σ-transformed block left by
/// `k` — two masked rotations (shift `k` for columns `j < d−k`, shift
/// `k−d` for the wraparound columns) and one rescale.
fn phi_shift(
    ev: &mut Evaluator<'_>,
    sa: &HoistedDigits<'_>,
    k: usize,
    d: usize,
    gks: &GaloisKeys,
) -> Result<Ciphertext, EvalError> {
    let slots = ev.context().degree() / 2;
    let level = sa.ciphertext().level();
    let dd = d * d;
    let mut keep = vec![0.0f64; dd];
    let mut wrap = vec![0.0f64; dd];
    for t in 0..dd {
        if t % d < d - k {
            keep[t] = 1.0;
        } else {
            wrap[t] = 1.0;
        }
    }
    let r1 = ev.rotate_hoisted(sa, norm_shift(k as i64, slots), gks)?;
    let p1 = ev.encode_for_mul(&tile(&keep, slots), level)?;
    let t1 = ev.mul_plain(&r1, &p1)?;
    let r2 = ev.rotate_hoisted(sa, norm_shift(k as i64 - d as i64, slots), gks)?;
    let p2 = ev.encode_for_mul(&tile(&wrap, slots), level)?;
    let t2 = ev.mul_plain(&r2, &p2)?;
    let s = ev.add(&t1, &t2)?;
    ev.rescale(&s)
}

/// Every rotation step a `d × d` block multiply needs (σ and τ BSGS
/// babies and giants, φ column shifts, ψ row shifts), deduplicated and
/// sorted — generate Galois keys for exactly this set.
pub fn required_rotations(d: usize, slots: usize) -> Vec<usize> {
    let entry = MATMUL_DEPTH + 2;
    rotation_levels(d, slots, entry, entry).to_vec()
}

/// The steps of [`required_rotations`], each at the highest level a
/// block multiply of `A` at `a_level` and `B` at `b_level` applies it
/// at: σ's at `a_level`, τ's at `b_level`, the φ and ψ shifts one level
/// further down, on the transformed blocks.
fn rotation_levels(d: usize, slots: usize, a_level: usize, b_level: usize) -> RotationSet {
    let mut steps = Vec::new();
    let mut add_bsgs = |start: i64, stride: i64, count: usize, level: usize| {
        let bs = bsgs_baby_count(count);
        for b in 0..bs.min(count) {
            steps.push((norm_shift(b as i64 * stride, slots), level));
        }
        for g in 0..count.div_ceil(bs) {
            steps.push((norm_shift(start + (g * bs) as i64 * stride, slots), level));
        }
    };
    add_bsgs(-(d as i64 - 1), 1, 2 * d - 1, a_level);
    add_bsgs(0, d as i64, d, b_level);
    for k in 1..d {
        steps.push((norm_shift(k as i64, slots), a_level - 1));
        steps.push((norm_shift(k as i64 - d as i64, slots), a_level - 1));
        steps.push((norm_shift((k * d) as i64, slots), b_level - 1));
    }
    steps.into_iter().filter(|&(step, _)| step != 0).collect()
}

/// Packs a row-major `d × d` matrix into a slot vector, replicating the
/// `d²`-slot pattern across every tile.
///
/// # Panics
///
/// Panics unless `values` has `d²` entries fitting the slot count.
pub fn encode_block(values: &[f64], d: usize, slots: usize) -> Vec<f64> {
    assert_eq!(values.len(), d * d, "block is d×d row-major");
    assert!(d * d <= slots, "block tile must fit the slot count");
    tile(values, slots)
}

/// Reads the first tile of a decrypted slot vector back as a row-major
/// `d × d` matrix.
///
/// # Panics
///
/// Panics if the slot vector is shorter than one tile.
pub fn decode_block(slot_values: &[f64], d: usize) -> Vec<f64> {
    assert!(slot_values.len() >= d * d, "need at least one tile");
    slot_values[..d * d].to_vec()
}

/// Plaintext reference product of two row-major `d × d` matrices.
///
/// # Panics
///
/// Panics unless both inputs have `d²` entries.
pub fn matmul_reference(a: &[f64], b: &[f64], d: usize) -> Vec<f64> {
    assert_eq!(a.len(), d * d);
    assert_eq!(b.len(), d * d);
    let mut c = vec![0.0f64; d * d];
    for i in 0..d {
        for j in 0..d {
            let mut acc = 0.0;
            for k in 0..d {
                acc += a[i * d + k] * b[k * d + j];
            }
            c[i * d + j] = acc;
        }
    }
    c
}

/// Homomorphic `C = A·B` over one `d × d` block (both matrices packed
/// with [`encode_block`] at the same level and scale), consuming
/// [`MATMUL_DEPTH`] levels and booking one [`HeOpKind::CtMatmul`] macro
/// record.  The result decrypts to the row-major product in every tile.
///
/// `d` must be a power of two with `d² ≤ slots` — use
/// [`crate::trace::matmul_block_dim`] for the canonical dimension at a
/// given ring degree, or any smaller power of two.
///
/// # Errors
///
/// Fails with [`EvalError::LevelExhausted`] when fewer than
/// `MATMUL_DEPTH + 2` levels remain (the closing `Δ²`-scale product
/// needs modulus headroom at level ≥ 3, see `sgn`),
/// [`EvalError::MissingGaloisKey`] or [`EvalError::GaloisKeyTooShallow`]
/// when `gks` lacks a step of [`required_rotations`] or has it cut below
/// the level the block applies it at — all before any arithmetic — and
/// as the constituent ops do.
///
/// # Panics
///
/// Panics if `d` is not a power of two fitting the slot count.
pub fn ct_matmul(
    ev: &mut Evaluator<'_>,
    a: &Ciphertext,
    b: &Ciphertext,
    rk: &RelinKey,
    gks: &GaloisKeys,
    d: usize,
) -> Result<Ciphertext, EvalError> {
    let slots = ev.context().degree() / 2;
    assert!(
        d >= 1 && d.is_power_of_two() && d * d <= slots,
        "block dim {d} must be a power of two with d² ≤ {slots} slots"
    );
    let need = MATMUL_DEPTH + 2;
    if a.level() < need || b.level() < need {
        return Err(EvalError::LevelExhausted {
            have: a.level().min(b.level()),
            need,
        });
    }
    for (steps, level) in rotation_levels(d, slots, a.level(), b.level()).with_levels() {
        gks.rotation_key(ev.context(), steps, level)?;
    }
    let entry = a.level();
    let out = ev.record_macro(HeOpKind::CtMatmul, entry, |ev| {
        // σ/τ transforms: one level.
        let sa = bsgs_masked_sum(ev, a, &sigma_prog(d, slots), gks)?;
        let tb = bsgs_masked_sum(ev, b, &tau_prog(d, slots), gks)?;
        // Shifted products, all at the φ output level, accumulated
        // without intermediate relinearisation.
        let target = sa.level() - 1;
        let sa0 = ev.mod_switch_to(&sa, target)?;
        let tb0 = ev.mod_switch_to(&tb, target)?;
        let mut acc = ev.mul(&sa0, &tb0)?;
        // All 2(d−1) φ rotations act on σ(A) and all d−1 ψ rotations on
        // τ(B): two decompositions serve the whole loop.
        let (sa_digits, tb_digits) = (ev.hoist(&sa)?, ev.hoist(&tb)?);
        for k in 1..d {
            let phi = phi_shift(ev, &sa_digits, k, d, gks)?;
            let psi = ev.rotate_hoisted(&tb_digits, norm_shift((k * d) as i64, slots), gks)?;
            let psi = ev.mod_switch_to(&psi, target)?;
            let term = ev.mul(&phi, &psi)?;
            acc = ev.add(&acc, &term)?;
        }
        // One closing relinearize + rescale for the whole block.
        let acc = ev.relinearize(&acc, rk)?;
        ev.rescale(&acc)
    })?;
    // The masked-rotation sums track interval bounds that grow with the
    // diagonal count; the mathematical bound on a product entry is the
    // inner-product length times the operand bounds.
    let std = out.noise_std();
    let tight = out
        .msg_bound()
        .min(d as f64 * a.msg_bound() * b.msg_bound());
    Ok(out.with_noise(std, tight))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use crate::trace::matmul_block_dim;
    use fxhenn_math::par::{with_dispatch_threshold, with_parallelism, Parallelism};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn block_values(d: usize, seed: u64) -> Vec<f64> {
        // Deterministic pseudo-values in [-1, 1].
        (0..d * d)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(seed.wrapping_mul(0xD1B5_4A32_D192_ED03));
                ((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    fn run_block(n: usize, levels: usize, d: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let params = CkksParams::new(n, levels, 30, 45).expect("params");
        let ctx = CkksContext::new(params);
        let slots = ctx.degree() / 2;
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(seed));
        let pk = kg.public_key();
        let sk = kg.secret_key();
        let rk = kg.relin_key();
        let gks = kg.galois_keys(&required_rotations(d, slots));
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(seed + 1));
        let dec = Decryptor::new(&ctx, sk);
        let a = block_values(d, seed + 2);
        let b = block_values(d, seed + 3);
        let ca = enc.encrypt(&encode_block(&a, d, slots));
        let cb = enc.encrypt(&encode_block(&b, d, slots));
        let mut ev = Evaluator::new(&ctx);
        let cc = ct_matmul(&mut ev, &ca, &cb, &rk, &gks, d).expect("ct_matmul");
        assert_eq!(cc.level(), levels - MATMUL_DEPTH);
        let got = decode_block(&dec.decrypt(&cc), d);
        let want = matmul_reference(&a, &b, d);
        (got, want)
    }

    fn assert_close(got: &[f64], want: &[f64], tol: f64, label: &str) {
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                (g - w).abs() < tol,
                "{label}: entry {i} decrypted {g}, reference {w}"
            );
        }
    }

    #[test]
    fn matmul_matches_reference_at_three_parameter_points() {
        // Three (N, L) points, as the workload matrix promises.
        for (n, levels, d, seed) in [
            (1024usize, 5usize, 8usize, 101u64),
            (1024, 6, 16, 103),
            (2048, 5, 16, 105),
        ] {
            let (got, want) = run_block(n, levels, d, seed);
            assert_close(&got, &want, 1e-2, &format!("N={n} L={levels} d={d}"));
        }
    }

    #[test]
    fn matmul_is_consistent_serial_and_threaded() {
        let serial = with_parallelism(Parallelism::Serial, || run_block(1024, 5, 8, 107));
        let threaded = with_dispatch_threshold(0, || {
            with_parallelism(Parallelism::Threads(3), || run_block(1024, 5, 8, 107))
        });
        assert_eq!(
            serial.0, threaded.0,
            "thread count must not change a single decoded value"
        );
        assert_close(&serial.0, &serial.1, 1e-2, "serial");
    }

    #[test]
    fn matmul_books_one_macro_record() {
        let ctx = CkksContext::new(CkksParams::insecure_toy(5));
        let slots = ctx.degree() / 2;
        let d = 4;
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(109));
        let pk = kg.public_key();
        let rk = kg.relin_key();
        let gks = kg.galois_keys(&required_rotations(d, slots));
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(110));
        let a = block_values(d, 1);
        let ca = enc.encrypt(&encode_block(&a, d, slots));
        let cb = enc.encrypt(&encode_block(&a, d, slots));
        let mut ev = Evaluator::new(&ctx);
        ev.start_trace();
        let _ = ct_matmul(&mut ev, &ca, &cb, &rk, &gks, d).expect("ct_matmul");
        let trace = ev.take_trace().expect("trace");
        assert_eq!(trace.hop_count(), 1, "one macro record per block");
        assert_eq!(trace.count_of(HeOpKind::CtMatmul), 1);
        assert_eq!(trace.records()[0].level, 5);
    }

    #[test]
    fn matmul_rejects_shallow_ciphertexts() {
        let ctx = CkksContext::new(CkksParams::insecure_toy(3));
        let slots = ctx.degree() / 2;
        let d = 4;
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(111));
        let pk = kg.public_key();
        let rk = kg.relin_key();
        let gks = kg.galois_keys(&required_rotations(d, slots));
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(112));
        let a = block_values(d, 1);
        let ca = enc.encrypt(&encode_block(&a, d, slots));
        let cb = enc.encrypt(&encode_block(&a, d, slots));
        let mut ev = Evaluator::new(&ctx);
        match ct_matmul(&mut ev, &ca, &cb, &rk, &gks, d) {
            Err(EvalError::LevelExhausted { have: 3, need: 5 }) => {}
            other => panic!("expected LevelExhausted, got {other:?}"),
        }
    }

    #[test]
    fn matmul_runs_on_keys_cut_to_the_levels_it_rotates_at() {
        // σ and τ rotate at the entry level, φ and ψ one level down: keys
        // cut exactly there suffice, keys a level lower are refused.
        let ctx = CkksContext::new(CkksParams::insecure_toy(5));
        let slots = ctx.degree() / 2;
        let d = 4;
        let rotations = rotation_levels(d, slots, 5, 5);
        assert_eq!(*rotations, required_rotations(d, slots));
        assert!(rotations.with_levels().any(|(_, level)| level == 4));
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(113));
        let pk = kg.public_key();
        let sk = kg.secret_key();
        let rk = kg.relin_key();
        let gks = kg.galois_keys_at(&rotations);
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(114));
        let (a, b) = (block_values(d, 5), block_values(d, 6));
        let ca = enc.encrypt(&encode_block(&a, d, slots));
        let cb = enc.encrypt(&encode_block(&b, d, slots));
        let mut ev = Evaluator::new(&ctx);
        let cc = ct_matmul(&mut ev, &ca, &cb, &rk, &gks, d).expect("keys reach every rotation");
        let got = decode_block(&Decryptor::new(&ctx, sk).decrypt(&cc), d);
        assert_close(&got, &matmul_reference(&a, &b, d), 1e-2, "cut keys");

        let shallow = kg.galois_keys_at(&rotation_levels(d, slots, 4, 4));
        match ct_matmul(&mut ev, &ca, &cb, &rk, &shallow, d) {
            Err(EvalError::GaloisKeyTooShallow {
                key_level: 4,
                level: 5,
                ..
            }) => {}
            other => panic!("expected GaloisKeyTooShallow, got {other:?}"),
        }
    }

    #[test]
    fn required_rotations_cover_the_canonical_dim() {
        for n in [1024usize, 8192] {
            let slots = n / 2;
            let d = matmul_block_dim(n);
            let rots = required_rotations(d, slots);
            assert!(!rots.is_empty());
            assert!(rots.iter().all(|&r| r > 0 && r < slots));
            // ψ row shifts are always present.
            for k in 1..d.min(4) {
                assert!(rots.contains(&(k * d)), "missing ψ shift {}", k * d);
            }
        }
    }
}
