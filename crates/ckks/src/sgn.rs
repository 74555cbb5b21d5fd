//! Encrypted sign evaluation by composite minimax polynomials, and the
//! comparison workloads built on it: `relu_approx`, `max_pool2`, and
//! `encrypted_argmax`.
//!
//! CKKS has no native comparison, so `sgn(x)` is approximated by a
//! composition of low-degree odd polynomials in the style of Cheon,
//! Kim and Kim's f/g minimax iteration: each stage is the cubic
//! `x · (a + b·x²)`, where the *g* stage `g(x) ≈ x(2.0762 − 1.3271·x²)`
//! compresses the valid input band toward ±1 and the *f* stage
//! `f(x) = x(1.5 − 0.5·x²)` converges values near ±1 onto ±1.  Deeper
//! compositions buy accuracy with levels: each stage consumes exactly
//! three (square, coefficient fold, closing product — all rescaled).
//!
//! The evaluator books each stage as a single [`HeOpKind::Sign`] macro
//! record at its entry level (via `record_macro`): traces and span logs
//! describe workload structure in the same units the analytic lowering
//! and the hardware cost model use, while the always-on global
//! telemetry still counts every constituent primitive.
//!
//! All inputs must carry values in `[-bound, bound]`; the bound folds
//! into the first stage's coefficients for free (`x → x/c` rewrites
//! `x(a + b·x²)` as `x(a/c + (b/c³)·x²)`), so normalisation costs no
//! extra level.
//!
//! Every entry point demands **two guard levels** beyond its
//! multiplicative depth: with the encoding scale `Δ ≈ q` (one prime per
//! level), a `Δ²`-scale intermediate only has modulus headroom at
//! level ≥ 3, so the deepest product of each circuit must not land
//! below that — admission rejects shallower inputs with
//! [`EvalError::LevelExhausted`] instead of silently wrapping.

use crate::cipher::Ciphertext;
use crate::error::EvalError;
use crate::eval::Evaluator;
use crate::keys::RelinKey;
use crate::trace::{HeOpKind, OpTrace};

/// The convergence stage `f(x) = x·(1.5 − 0.5·x²)`: fixes ±1, pulls
/// everything in `(0, 1]` monotonically toward 1.
const STAGE_F: (f64, f64) = (1.5, -0.5);

/// The band-compression stage `g(x) ≈ x·(2.0762 − 1.3271·x²)` (the
/// degree-3 minimax pair of `f` from the composite-iteration
/// construction): maps `[δ, 1]` much closer to 1 than `f` does, at the
/// cost of not being a contraction near 0.
const STAGE_G: (f64, f64) = (2126.0 / 1024.0, -1359.0 / 1024.0);

/// Precision presets for the sign composition, trading multiplicative
/// depth (three levels per stage) for approximation error.
///
/// The error bounds are measured over `input_floor ≤ |x| ≤ 1` — like
/// every polynomial sign approximation, the composition is unreliable
/// inside the dead band `|x| < input_floor`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignPreset {
    /// `f ∘ g` — 2 stages, 6 levels, max error ≤ 0.20 for |x| ≥ 0.35.
    Low,
    /// `f ∘ f ∘ g` — 3 stages, 9 levels, max error ≤ 0.06 for |x| ≥ 0.35.
    Medium,
    /// `f ∘ f ∘ g ∘ g` — 4 stages, 12 levels, max error ≤ 0.02 for
    /// |x| ≥ 0.20.
    High,
}

impl SignPreset {
    /// All presets, in increasing composition degree.
    pub const ALL: [SignPreset; 3] = [SignPreset::Low, SignPreset::Medium, SignPreset::High];

    /// The stage coefficients `(a, b)` applied innermost-first: each
    /// stage evaluates `x · (a + b·x²)`.
    pub fn stages(self) -> &'static [(f64, f64)] {
        match self {
            SignPreset::Low => &[STAGE_G, STAGE_F],
            SignPreset::Medium => &[STAGE_G, STAGE_F, STAGE_F],
            SignPreset::High => &[STAGE_G, STAGE_G, STAGE_F, STAGE_F],
        }
    }

    /// Multiplicative depth of the composition: three levels per stage.
    pub fn depth(self) -> usize {
        3 * self.stages().len()
    }

    /// Smallest |x|/bound for which the preset's error bound holds.
    pub fn input_floor(self) -> f64 {
        match self {
            SignPreset::Low | SignPreset::Medium => 0.35,
            SignPreset::High => 0.20,
        }
    }

    /// Guaranteed max |sgn(x) − p(x)| over `input_floor ≤ |x|/bound ≤ 1`
    /// (verified by the accuracy property tests).
    pub fn error_bound(self) -> f64 {
        match self {
            SignPreset::Low => 0.20,
            SignPreset::Medium => 0.06,
            SignPreset::High => 0.02,
        }
    }
}

/// Plaintext reference of the composite sign polynomial on `x/bound`.
/// This is the function the encrypted path computes (up to HE noise),
/// and what the property tests compare presets against.
pub fn sign_reference_with_bound(x: f64, preset: SignPreset, bound: f64) -> f64 {
    let mut y = x / bound;
    for &(a, b) in preset.stages() {
        y *= a + b * y * y;
    }
    y
}

/// Plaintext reference of the composite sign polynomial on `[-1, 1]`.
pub fn sign_reference(x: f64, preset: SignPreset) -> f64 {
    sign_reference_with_bound(x, preset, 1.0)
}

/// Multiplicative depth of [`relu_approx`]: the sign composition plus
/// the selector halving and the closing product.
pub fn relu_depth(preset: SignPreset) -> usize {
    preset.depth() + 2
}

/// The lowest level [`relu_approx`] accepts: its depth plus the two
/// guard levels.
pub fn relu_min_level(preset: SignPreset) -> usize {
    relu_depth(preset) + 2
}

/// Multiplicative depth of [`max_pool2`]: the sign composition plus the
/// halved-difference product (the aligned average rides in parallel).
pub fn max_pool2_depth(preset: SignPreset) -> usize {
    preset.depth() + 1
}

/// Multiplicative depth of [`encrypted_argmax`] over `count` entries:
/// `⌈log₂ count⌉` tournament rounds, each a sign composition plus
/// selector and blend products.
pub fn argmax_depth(count: usize, preset: SignPreset) -> usize {
    let mut remaining = count.max(1);
    let mut rounds = 0usize;
    while remaining > 1 {
        remaining = remaining.div_ceil(2);
        rounds += 1;
    }
    rounds * (preset.depth() + 2)
}

/// One composition stage `y = x · (a + b·x²)` at the ciphertext's
/// scale, consuming exactly three levels:
///
/// 1. `s = rescale(relin(x²))` — one level;
/// 2. `w = rescale(b ⊙ s) + a` — one level, coefficients folded at the
///    exact scales that keep `w` on the working scale;
/// 3. `y = rescale(relin(mod_switch(x) · w))` — one level.
fn sign_stage(
    ev: &mut Evaluator<'_>,
    x: &Ciphertext,
    rk: &RelinKey,
    a: f64,
    b: f64,
) -> Result<Ciphertext, EvalError> {
    let sq = ev.square(x)?;
    let sq = ev.relinearize(&sq, rk)?;
    let s = ev.rescale(&sq)?;
    let w = ev.mul_scalar(&s, b)?;
    let w = ev.rescale(&w)?;
    let w = ev.add_scalar(&w, a)?;
    let xd = ev.mod_switch_to(x, w.level())?;
    let y = ev.mul(&xd, &w)?;
    let y = ev.relinearize(&y, rk)?;
    ev.rescale(&y)
}

/// Approximates `sgn(x)` for slot values in `[-bound, bound]`,
/// consuming [`SignPreset::depth`] levels.  Output slots hold values in
/// `[-1, 1]`, within [`SignPreset::error_bound`] of the true sign
/// wherever `|x| ≥ input_floor · bound`.
///
/// # Errors
///
/// Fails with [`EvalError::LevelExhausted`] when the ciphertext does
/// not carry enough levels for the composition, with
/// [`EvalError::NonFiniteValue`] for a non-positive or non-finite
/// bound, and as the constituent evaluator ops do.
pub fn sign_with_bound(
    ev: &mut Evaluator<'_>,
    x: &Ciphertext,
    rk: &RelinKey,
    preset: SignPreset,
    bound: f64,
) -> Result<Ciphertext, EvalError> {
    if !(bound.is_finite() && bound > 0.0) {
        return Err(EvalError::NonFiniteValue { index: 0 });
    }
    let need = preset.depth() + 2;
    if x.level() < need {
        return Err(EvalError::LevelExhausted {
            have: x.level(),
            need,
        });
    }
    let mut cur = x.clone();
    for (i, &(a, b)) in preset.stages().iter().enumerate() {
        // Fold the input bound into the innermost stage:
        // (x/c)(a + b(x/c)²) = x(a/c + (b/c³)x²).
        let (a, b) = if i == 0 {
            (a / bound, b / (bound * bound * bound))
        } else {
            (a, b)
        };
        let entry = cur.level();
        let next = ev.record_macro(HeOpKind::Sign, entry, |ev| sign_stage(ev, &cur, rk, a, b))?;
        // Every stage maps the valid band into [-1, 1] (a property the
        // reference tests pin down), so the interval-arithmetic message
        // bound the generic ops track — which squares per stage and
        // would explode the noise admission across compositions — is
        // tightened back to the mathematical bound.
        let std = next.noise_std();
        let tight = next.msg_bound().min(1.0);
        cur = next.with_noise(std, tight);
    }
    Ok(cur)
}

/// [`sign_with_bound`] for inputs already normalised to `[-1, 1]`.
///
/// # Errors
///
/// Fails as [`sign_with_bound`] does.
pub fn sign(
    ev: &mut Evaluator<'_>,
    x: &Ciphertext,
    rk: &RelinKey,
    preset: SignPreset,
) -> Result<Ciphertext, EvalError> {
    sign_with_bound(ev, x, rk, preset, 1.0)
}

/// Brings `ct` to exactly (`target_level`, `target_scale`), multiplying
/// slot values by `factor` on the way: a plaintext product by `factor`
/// encoded at the scale that makes the following rescale land on the
/// target, costing one level above the target.
///
/// This is the glue that lets ciphertexts from different circuit depths
/// (whose scales have drifted apart by ratios of dropped primes) be
/// added together again.
///
/// # Errors
///
/// Fails if `ct` sits below `target_level + 1`, or as `mod_switch_to`,
/// `encode_at`, `mul_plain` and `rescale` do.
pub fn align_scale(
    ev: &mut Evaluator<'_>,
    ct: &Ciphertext,
    target_level: usize,
    target_scale: f64,
    factor: f64,
) -> Result<Ciphertext, EvalError> {
    let x = ev.mod_switch_to(ct, target_level + 1)?;
    let q = ev.context().dropped_prime_at(x.level()) as f64;
    let pt_scale = target_scale * q / x.scale();
    let slots = ev.context().degree() / 2;
    let pt = ev.encode_at(&vec![factor; slots], pt_scale, x.level())?;
    let y = ev.mul_plain(&x, &pt)?;
    ev.rescale(&y)
}

/// Approximate ReLU: `x · (1 + sgn(x)) / 2`, consuming
/// [`relu_depth`] levels.  Accurate to `bound · error_bound / 2`
/// outside the sign dead band; inside it the output is bounded by the
/// band itself.
///
/// # Errors
///
/// Fails as [`sign_with_bound`] and the constituent ops do.
pub fn relu_approx(
    ev: &mut Evaluator<'_>,
    x: &Ciphertext,
    rk: &RelinKey,
    preset: SignPreset,
    bound: f64,
) -> Result<Ciphertext, EvalError> {
    let need = relu_min_level(preset);
    if x.level() < need {
        return Err(EvalError::LevelExhausted {
            have: x.level(),
            need,
        });
    }
    let s = sign_with_bound(ev, x, rk, preset, bound)?;
    let h = ev.mul_scalar(&s, 0.5)?;
    let h = ev.rescale(&h)?;
    let h = ev.add_scalar(&h, 0.5)?;
    let xd = ev.mod_switch_to(x, h.level())?;
    let y = ev.mul(&xd, &h)?;
    let y = ev.relinearize(&y, rk)?;
    let y = ev.rescale(&y)?;
    // |x · (1 + s)/2| ≤ |x| ≤ bound.
    let std = y.noise_std();
    let tight = y.msg_bound().min(bound);
    Ok(y.with_noise(std, tight))
}

/// Appends the records [`relu_approx`] leaves in a trace for an input
/// at `level` ≥ [`relu_min_level`], in execution order: the sign stages,
/// the halving product and its rescale, the `+ 1/2`, the input's
/// mod-switch (recorded at its own level), the closing product.
pub fn record_relu_approx(preset: SignPreset, level: usize, trace: &mut OpTrace) {
    let mut lv = level;
    for _ in preset.stages() {
        trace.record(HeOpKind::Sign, lv);
        lv -= 3;
    }
    trace.record(HeOpKind::PcMult, lv);
    trace.record(HeOpKind::Rescale, lv);
    trace.record(HeOpKind::PcAdd, lv - 1);
    trace.record(HeOpKind::ModSwitch, level);
    trace.record(HeOpKind::CcMult, lv - 1);
    trace.record(HeOpKind::Relinearize, lv - 1);
    trace.record(HeOpKind::Rescale, lv - 1);
}

/// Encrypted pairwise max: `(a + b)/2 + ((a − b)/2) · sgn(a − b)`,
/// consuming [`max_pool2_depth`] levels.  Both inputs must share level
/// and scale and carry values in `[-bound, bound]`.
///
/// # Errors
///
/// Fails as [`sign_with_bound`], [`align_scale`] and the constituent
/// ops do.
pub fn max_pool2(
    ev: &mut Evaluator<'_>,
    a: &Ciphertext,
    b: &Ciphertext,
    rk: &RelinKey,
    preset: SignPreset,
    bound: f64,
) -> Result<Ciphertext, EvalError> {
    let need = max_pool2_depth(preset) + 2;
    if a.level() < need || b.level() < need {
        return Err(EvalError::LevelExhausted {
            have: a.level().min(b.level()),
            need,
        });
    }
    let diff = ev.sub(a, b)?;
    let sum = ev.add(a, b)?;
    // sgn(d/2) = sgn(d): the difference bound 2·bound folds into the
    // composition for free.
    let s = sign_with_bound(ev, &diff, rk, preset, 2.0 * bound)?;
    // (a − b)/2 brought next to the sign output, then the product.
    let dh = ev.mul_scalar(&diff, 0.5)?;
    let dh = ev.rescale(&dh)?;
    let dh = ev.mod_switch_to(&dh, s.level())?;
    let p = ev.mul(&dh, &s)?;
    let p = ev.relinearize(&p, rk)?;
    let p = ev.rescale(&p)?;
    // (a + b)/2 aligned to the product's exact level and scale.
    let half_sum = align_scale(ev, &sum, p.level(), p.scale(), 0.5)?;
    let out = ev.add(&p, &half_sum)?;
    // max(a, b) stays inside the input band.
    let std = out.noise_std();
    let tight = out.msg_bound().min(bound);
    Ok(out.with_noise(std, tight))
}

/// A tournament entry: an encrypted score and an encrypted class index
/// that travels with it through [`encrypted_argmax`], so the winning
/// index never exists in plaintext on the server.
#[derive(Clone)]
pub struct ScoredClass {
    /// Encrypted classification score, values in `[-bound, bound]`.
    pub score: Ciphertext,
    /// Encrypted class index (any real value; typically `0..k`).
    pub index: Ciphertext,
}

/// One tournament round between two entries: the selector
/// `sel = (1 + sgn(a.score − b.score)) / 2` blends both the scores and
/// the indices, so the winner's pair advances under encryption.
fn argmax_round(
    ev: &mut Evaluator<'_>,
    a: &ScoredClass,
    b: &ScoredClass,
    rk: &RelinKey,
    preset: SignPreset,
    bound: f64,
) -> Result<ScoredClass, EvalError> {
    let d = ev.sub(&a.score, &b.score)?;
    let di = ev.sub(&a.index, &b.index)?;
    let s = sign_with_bound(ev, &d, rk, preset, 2.0 * bound)?;
    let sel = ev.mul_scalar(&s, 0.5)?;
    let sel = ev.rescale(&sel)?;
    let sel = ev.add_scalar(&sel, 0.5)?;
    let blend = |ev: &mut Evaluator<'_>, delta: &Ciphertext, base: &Ciphertext, sel: &Ciphertext|
     -> Result<Ciphertext, EvalError> {
        let dl = ev.mod_switch_to(delta, sel.level())?;
        let p = ev.mul(&dl, sel)?;
        let p = ev.relinearize(&p, rk)?;
        let p = ev.rescale(&p)?;
        let base = align_scale(ev, base, p.level(), p.scale(), 1.0)?;
        ev.add(&p, &base)
    };
    let score = blend(ev, &d, &b.score, &sel)?;
    // The blended winner score interpolates between the two input
    // scores, so it stays inside the score band.
    let std = score.noise_std();
    let tight = score.msg_bound().min(bound);
    let score = score.with_noise(std, tight);
    let index = blend(ev, &di, &b.index, &sel)?;
    Ok(ScoredClass { score, index })
}

/// Encrypted argmax over scored classes by tournament reduction:
/// `⌈log₂ k⌉` rounds of pairwise [`max_pool2`]-style selection carrying
/// the class indices along, consuming [`argmax_depth`] levels.  The
/// returned `index` ciphertext decrypts (client-side) to the winning
/// class index; the server never sees a plaintext comparison result.
///
/// All entries must share level and scale; scores must lie in
/// `[-bound, bound]` and be separated by at least the sign dead band
/// (`2 · bound · input_floor`) for the selection to be reliable.
///
/// # Errors
///
/// Fails as [`sign_with_bound`], [`align_scale`] and the constituent
/// ops do.
///
/// # Panics
///
/// Panics if `classes` is empty.
pub fn encrypted_argmax(
    ev: &mut Evaluator<'_>,
    classes: &[ScoredClass],
    rk: &RelinKey,
    preset: SignPreset,
    bound: f64,
) -> Result<ScoredClass, EvalError> {
    assert!(!classes.is_empty(), "argmax over an empty class list");
    let need = argmax_depth(classes.len(), preset) + 2;
    let have = classes
        .iter()
        .map(|c| c.score.level().min(c.index.level()))
        .min()
        .unwrap_or(0);
    if have < need {
        return Err(EvalError::LevelExhausted { have, need });
    }
    let mut round: Vec<ScoredClass> = classes.to_vec();
    while round.len() > 1 {
        let mut next = Vec::with_capacity(round.len().div_ceil(2));
        for pair in round.chunks(2) {
            if let [a, b] = pair {
                next.push(argmax_round(ev, a, b, rk, preset, bound)?);
            }
        }
        if round.len() % 2 == 1 {
            // The bye advances, aligned to the winners' level and scale
            // so the next round's subtractions stay well-formed.
            let bye = round.last().expect("odd round is non-empty");
            let template = next.last().expect("odd round of ≥3 has a pair");
            let score = align_scale(
                ev,
                &bye.score,
                template.score.level(),
                template.score.scale(),
                1.0,
            )?;
            let index = align_scale(
                ev,
                &bye.index,
                template.index.level(),
                template.index.scale(),
                1.0,
            )?;
            next.push(ScoredClass { score, index });
        }
        round = next;
    }
    Ok(round.swap_remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::{KeyGenerator, PublicKey, SecretKey};
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keys(ctx: &CkksContext, seed: u64) -> (PublicKey, SecretKey, RelinKey) {
        let mut kg = KeyGenerator::new(ctx, StdRng::seed_from_u64(seed));
        let pk = kg.public_key();
        let sk = kg.secret_key();
        let rk = kg.relin_key();
        (pk, sk, rk)
    }

    fn sample_band(floor: f64, count: usize) -> Vec<f64> {
        // Both signs, magnitudes sweeping [floor, 1].
        (0..count)
            .map(|i| {
                let t = floor + (1.0 - floor) * (i as f64) / (count - 1) as f64;
                if i % 2 == 0 {
                    t
                } else {
                    -t
                }
            })
            .collect()
    }

    #[test]
    fn reference_accuracy_within_preset_bounds() {
        for preset in SignPreset::ALL {
            let xs = sample_band(preset.input_floor(), 4001);
            let worst = xs
                .iter()
                .map(|&x| (sign_reference(x, preset) - x.signum()).abs())
                .fold(0.0f64, f64::max);
            assert!(
                worst <= preset.error_bound(),
                "{preset:?}: measured {worst} > bound {}",
                preset.error_bound()
            );
        }
    }

    #[test]
    fn reference_accuracy_monotone_in_composition_degree() {
        // Over the common band [0.35, 1], deeper compositions are
        // strictly more accurate.
        let xs = sample_band(0.35, 4001);
        let worst = |preset: SignPreset| {
            xs.iter()
                .map(|&x| (sign_reference(x, preset) - x.signum()).abs())
                .fold(0.0f64, f64::max)
        };
        let low = worst(SignPreset::Low);
        let medium = worst(SignPreset::Medium);
        let high = worst(SignPreset::High);
        assert!(low > medium, "low {low} vs medium {medium}");
        assert!(medium > high, "medium {medium} vs high {high}");
    }

    #[test]
    fn reference_output_stays_in_unit_interval() {
        for preset in SignPreset::ALL {
            for i in 0..=1000 {
                let x = -1.0 + 2.0 * (i as f64) / 1000.0;
                let y = sign_reference(x, preset);
                assert!(y.abs() <= 1.0 + 1e-9, "{preset:?}: |p({x})| = {}", y.abs());
            }
        }
    }

    fn setup(levels: usize) -> (CkksContext, Vec<f64>) {
        let ctx = CkksContext::new(CkksParams::insecure_toy(levels));
        let slots = ctx.degree() / 2;
        let values: Vec<f64> = (0..slots)
            .map(|i| {
                let t = 0.4 + 0.6 * (i as f64) / (slots - 1) as f64;
                if i % 2 == 0 {
                    t
                } else {
                    -t
                }
            })
            .collect();
        (ctx, values)
    }

    #[test]
    fn encrypted_sign_matches_plaintext_reference() {
        let (ctx, values) = setup(8);
        let (pk, sk, rk) = keys(&ctx, 71);
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(72));
        let dec = Decryptor::new(&ctx, sk);
        let ct = enc.encrypt(&values);
        let mut ev = Evaluator::new(&ctx);
        let out = sign_with_bound(&mut ev, &ct, &rk, SignPreset::Low, 1.0).expect("sign");
        assert_eq!(out.level(), 8 - SignPreset::Low.depth());
        let got = dec.decrypt(&out);
        for (i, (&x, &y)) in values.iter().zip(got.iter()).enumerate() {
            let want = sign_reference(x, SignPreset::Low);
            assert!(
                (y - want).abs() < 0.02,
                "slot {i}: sign({x}) decrypted {y}, reference {want}"
            );
        }
    }

    #[test]
    fn sign_records_one_macro_op_per_stage() {
        let (ctx, values) = setup(8);
        let (pk, _sk, rk) = keys(&ctx, 73);
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(74));
        let ct = enc.encrypt(&values);
        let mut ev = Evaluator::new(&ctx);
        ev.start_trace();
        let _ = sign_with_bound(&mut ev, &ct, &rk, SignPreset::Low, 1.0).expect("sign");
        let trace = ev.take_trace().expect("trace");
        assert_eq!(trace.hop_count(), 2, "one macro record per stage");
        assert_eq!(trace.count_of(HeOpKind::Sign), 2);
        let levels: Vec<usize> = trace.records().iter().map(|r| r.level).collect();
        assert_eq!(levels, vec![8, 5], "stages entered at 8 and 5");
    }

    #[test]
    fn sign_rejects_shallow_ciphertexts() {
        let (ctx, values) = setup(4);
        let (pk, _sk, rk) = keys(&ctx, 75);
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(76));
        let ct = enc.encrypt(&values);
        let mut ev = Evaluator::new(&ctx);
        match sign_with_bound(&mut ev, &ct, &rk, SignPreset::Medium, 1.0) {
            Err(EvalError::LevelExhausted { have: 4, need: 11 }) => {}
            other => panic!("expected LevelExhausted, got {other:?}"),
        }
    }

    #[test]
    fn relu_approx_tracks_reference() {
        let (ctx, values) = setup(10);
        let (pk, sk, rk) = keys(&ctx, 77);
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(78));
        let dec = Decryptor::new(&ctx, sk);
        let ct = enc.encrypt(&values);
        let mut ev = Evaluator::new(&ctx);
        let out = relu_approx(&mut ev, &ct, &rk, SignPreset::Low, 1.0).expect("relu");
        assert_eq!(out.level(), 10 - relu_depth(SignPreset::Low));
        let got = dec.decrypt(&out);
        for (i, (&x, &y)) in values.iter().zip(got.iter()).enumerate() {
            let want = x * (1.0 + sign_reference(x, SignPreset::Low)) / 2.0;
            assert!(
                (y - want).abs() < 0.02,
                "slot {i}: relu({x}) decrypted {y}, circuit reference {want}"
            );
            // Semantically: close to max(x, 0) within the preset bound.
            assert!(
                (y - x.max(0.0)).abs() < SignPreset::Low.error_bound(),
                "slot {i}: relu({x}) = {y} strays from max(x, 0)"
            );
        }
    }

    #[test]
    fn relu_record_is_relu_approx_trace() {
        for preset in [SignPreset::Low, SignPreset::Medium] {
            let need = relu_min_level(preset);
            for level in [need, need + 1, need + 2] {
                let (ctx, values) = setup(level);
                let (pk, _sk, rk) = keys(&ctx, 83);
                let ct = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(84)).encrypt(&values);
                let mut ev = Evaluator::new(&ctx);
                ev.start_trace();
                relu_approx(&mut ev, &ct, &rk, preset, 1.0).expect("deep enough");
                let mut recorded = OpTrace::new();
                record_relu_approx(preset, level, &mut recorded);
                assert_eq!(ev.take_trace(), Some(recorded), "{preset:?} at level {level}");
            }
            let (ctx, values) = setup(need - 1);
            let (pk, _sk, rk) = keys(&ctx, 85);
            let ct = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(86)).encrypt(&values);
            let refused = relu_approx(&mut Evaluator::new(&ctx), &ct, &rk, preset, 1.0);
            assert!(matches!(refused, Err(EvalError::LevelExhausted { .. })), "{preset:?}");
        }
    }

    #[test]
    fn max_pool2_selects_the_larger_input() {
        let (ctx, _) = setup(9);
        let slots = ctx.degree() / 2;
        let (pk, sk, rk) = keys(&ctx, 79);
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(80));
        let dec = Decryptor::new(&ctx, sk);
        // Pairs separated beyond the dead band (|a−b| ≥ 2·0.35 here).
        let a_vals: Vec<f64> = (0..slots)
            .map(|i| if i % 2 == 0 { 0.8 } else { -0.9 })
            .collect();
        let b_vals: Vec<f64> = (0..slots)
            .map(|i| if i % 2 == 0 { -0.1 } else { 0.3 })
            .collect();
        let ca = enc.encrypt(&a_vals);
        let cb = enc.encrypt(&b_vals);
        let mut ev = Evaluator::new(&ctx);
        let out = max_pool2(&mut ev, &ca, &cb, &rk, SignPreset::Low, 1.0).expect("max_pool2");
        assert_eq!(out.level(), 9 - max_pool2_depth(SignPreset::Low));
        let got = dec.decrypt(&out);
        for i in 0..slots {
            let want = a_vals[i].max(b_vals[i]);
            assert!(
                (got[i] - want).abs() < 0.15,
                "slot {i}: max({}, {}) decrypted {}, want {want}",
                a_vals[i],
                b_vals[i],
                got[i]
            );
        }
    }

    #[test]
    fn encrypted_argmax_finds_the_best_class() {
        // Four classes, one tournament bracket: depth 2·(6+2) = 16.
        let levels = argmax_depth(4, SignPreset::Low) + 2;
        let ctx = CkksContext::new(CkksParams::insecure_toy(levels));
        let slots = ctx.degree() / 2;
        let (pk, sk, rk) = keys(&ctx, 81);
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(82));
        let dec = Decryptor::new(&ctx, sk);
        let scores = [0.1f64, 0.9, -0.4, -0.8];
        let classes: Vec<ScoredClass> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| ScoredClass {
                score: enc.encrypt(&vec![s; slots]),
                index: enc.encrypt(&vec![i as f64; slots]),
            })
            .collect();
        let mut ev = Evaluator::new(&ctx);
        let winner =
            encrypted_argmax(&mut ev, &classes, &rk, SignPreset::Low, 1.0).expect("argmax");
        let idx = dec.decrypt(&winner.index);
        let score = dec.decrypt(&winner.score);
        assert!(
            (idx[0] - 1.0).abs() < 0.2,
            "argmax index decrypted {} want 1",
            idx[0]
        );
        assert!(
            (score[0] - 0.9).abs() < 0.2,
            "argmax score decrypted {} want 0.9",
            score[0]
        );
    }
}
