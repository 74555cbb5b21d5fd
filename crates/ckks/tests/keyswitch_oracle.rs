//! An independent oracle for the key-switch core.
//!
//! The evaluator's Galois/key-switch path stays in the evaluation
//! domain wherever the arithmetic allows it: the automorphism is a slot
//! permutation, only the key-switch input is inverse-transformed, a
//! digit's residue on its own prime is the input limb itself, the inner
//! products accumulate unreduced in `u128`, and mod-down / rescale
//! inverse-transform only the limb they remove. This file rebuilds the
//! same operations the textbook way from public `fxhenn_math` and
//! `CkksContext` pieces — every limb to the coefficient domain, lifts
//! and divisions by `%`, the coefficient-domain automorphism, an eager
//! Barrett multiply-accumulate — and requires **limb-for-limb equality**
//! with `relinearize`, `rotate`, `conjugate` and `rescale`, serial and
//! threaded, with single- and multi-prime digits.
//!
//! Hoisted rotations are *not* bit-identical to plain ones (their
//! digits are `σ_g` of the canonical digits); they are held to
//! decrypt-equivalence inside the tracked noise estimate, checked
//! through the canary.
//!
//! Keys cut to a level are held to the full keys they were cut from:
//! every rotation a cut key accepts is byte-identical to the full key's.

use fxhenn_ckks::wire::{AlignedBytes, V2_HEADER_LEN};
use fxhenn_ckks::{
    decode_galois_keys_v2, encode_ciphertext_v2, encode_galois_keys_v2, Canary, Ciphertext,
    CkksContext, CkksParams, Decryptor, Encryptor, EvalError, Evaluator, GaloisKeys,
    KeyGenerator, KeySwitchKey, LinearSchedule, LinearTransform, RotationSet,
    DEFAULT_CANARY_MARGIN, DEFAULT_CANARY_SLOTS,
};
use fxhenn_math::modops::mul_mod;
use fxhenn_math::par::{with_dispatch_threshold, with_parallelism, Parallelism};
use fxhenn_math::poly::{Domain, RnsPoly};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Canonical residue modulo `m` of `c ∈ [0, p)` read as its centred
/// representative in `(−p/2, p/2]`.
fn centred_rem(c: u64, p: u64, m: u64) -> u64 {
    if c > p / 2 {
        (m - (p - c) % m) % m
    } else {
        c % m
    }
}

/// `(x − [x]_p) / p` on every remaining limb of coefficient-domain `x`,
/// whose last limb (removed here) is modulo `p`; `moduli` and `invs`
/// (`p^{-1}` per remaining modulus) describe the remaining limbs.
fn divide_out_last(x: &mut RnsPoly, p: u64, moduli: &[u64], invs: &[u64]) {
    let removed = x.drop_last_component();
    for (pos, (&m, &inv)) in moduli.iter().zip(invs).enumerate() {
        for (v, &c) in x.component_mut(pos).iter_mut().zip(&removed) {
            let diff = (*v + m - centred_rem(c, p, m)) % m;
            *v = mul_mod(diff, inv % m, m);
        }
    }
}

/// Textbook rescale of one polynomial: all limbs to coefficients, exact
/// division by the dropped prime, back to the evaluation domain.
fn oracle_rescale(ctx: &CkksContext, p: &RnsPoly, l: usize) -> RnsPoly {
    let mut x = p.clone();
    x.to_coeff(&ctx.tables_at(l));
    divide_out_last(
        &mut x,
        ctx.dropped_prime_at(l),
        ctx.moduli_at(l - 1),
        ctx.rescale_inv_at(l),
    );
    x.to_ntt(&ctx.tables_at(l - 1));
    x
}

/// Textbook mod-down by `P`: all `l + s` limbs to coefficients, one
/// exact division per special prime, back to the evaluation domain.
fn oracle_mod_down(ctx: &CkksContext, mut acc: RnsPoly, l: usize) -> RnsPoly {
    acc.to_coeff(&ctx.extended_tables_at(l));
    let specials = ctx.special_moduli();
    let big_l = ctx.max_level();
    for k in (0..specials.len()).rev() {
        let all_invs = ctx.moddown_inv(k);
        let moduli: Vec<u64> = ctx
            .moduli_at(l)
            .iter()
            .chain(&specials[..k])
            .copied()
            .collect();
        let invs: Vec<u64> = all_invs[..l]
            .iter()
            .chain(&all_invs[big_l..])
            .copied()
            .collect();
        divide_out_last(&mut acc, specials[k], &moduli, &invs);
    }
    acc.to_ntt(&ctx.tables_at(l));
    acc
}

/// Textbook hybrid key switch of NTT-domain `d` at level `l`: every
/// digit lifted in the coefficient domain into every extended-basis
/// modulus (its own primes included), forward-transformed, and
/// multiply-accumulated eagerly against the key limb of the same prime
/// (the key's own primes, then its specials).
fn oracle_key_switch(
    ctx: &CkksContext,
    d: &RnsPoly,
    ksk: &KeySwitchKey,
    l: usize,
) -> (RnsPoly, RnsPoly) {
    let n = ctx.degree();
    let qs = ctx.coeff_moduli();
    let ext_moduli = ctx.extended_moduli_at(l);
    let ext_tables = ctx.extended_tables_at(l);
    let key_level = ksk.level(ctx);
    let key_idx: Vec<usize> = (0..ext_moduli.len())
        .map(|t| if t < l { t } else { key_level + t - l })
        .collect();
    let mut coeffs = d.clone();
    coeffs.to_coeff(&ctx.tables_at(l));

    let mut acc0 = RnsPoly::zero(n, ext_moduli.len(), Domain::Ntt);
    let mut acc1 = acc0.clone();
    for j in 0..ksk.digit_count() {
        let lift = ctx.digit_lift(l, j);
        if lift.indices.is_empty() {
            continue;
        }
        let residues = ext_moduli
            .iter()
            .enumerate()
            .map(|(t, &m)| {
                (0..n)
                    .map(|k| match lift.indices[..] {
                        [i] => coeffs.component(i)[k] % m,
                        _ => {
                            // y = Σ_i [x_i·(D/q_i)^{-1}]_{q_i} · (D/q_i)
                            let sum: u128 = lift
                                .indices
                                .iter()
                                .enumerate()
                                .map(|(u, &i)| {
                                    let f =
                                        mul_mod(coeffs.component(i)[k], lift.ghat_inv[u], qs[i]);
                                    f as u128 * lift.ghat_mod[u][t] as u128
                                })
                                .sum();
                            (sum % m as u128) as u64
                        }
                    })
                    .collect()
            })
            .collect();
        let mut digit = RnsPoly::from_residues(residues, Domain::Coeff);
        digit.to_ntt(&ext_tables);
        let (b, a) = ksk.digit(j);
        acc0.add_mul_pointwise_select(&digit, b, &key_idx, &ext_moduli);
        acc1.add_mul_pointwise_select(&digit, a, &key_idx, &ext_moduli);
    }
    (oracle_mod_down(ctx, acc0, l), oracle_mod_down(ctx, acc1, l))
}

/// Textbook Galois op: both polynomials through the coefficient-domain
/// automorphism, then the key switch of `σ_g(c1)`.
fn oracle_galois(ctx: &CkksContext, ct: &Ciphertext, g: usize, ksk: &KeySwitchKey) -> [RnsPoly; 2] {
    let l = ct.level();
    let (moduli, tables) = (ctx.moduli_at(l), ctx.tables_at(l));
    let sigma = |p: &RnsPoly| {
        let mut x = p.clone();
        x.to_coeff(&tables);
        let mut y = x.automorphism(g, moduli);
        y.to_ntt(&tables);
        y
    };
    let (mut ks0, ks1) = oracle_key_switch(ctx, &sigma(ct.poly(1)), ksk, l);
    ks0.add_assign(&sigma(ct.poly(0)), moduli);
    [ks0, ks1]
}

fn oracle_relinearize(ctx: &CkksContext, ct: &Ciphertext, ksk: &KeySwitchKey) -> [RnsPoly; 2] {
    let moduli = ctx.moduli_at(ct.level());
    let (mut ks0, mut ks1) = oracle_key_switch(ctx, ct.poly(2), ksk, ct.level());
    ks0.add_assign(ct.poly(0), moduli);
    ks1.add_assign(ct.poly(1), moduli);
    [ks0, ks1]
}

const STEPS: [usize; 2] = [1, 5];

/// Drives relinearize / rescale / rotate / conjugate down the level
/// chain (so partially filled and empty digits occur) and checks every
/// output polynomial against the oracle's, limb for limb.
fn check_against_oracle(params: CkksParams, seed: u64) {
    let ctx = CkksContext::new(params);
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(seed));
    let pk = kg.public_key();
    let rk = kg.relin_key();
    let rk_digits =
        fxhenn_ckks::decode_relin_key_v2(fxhenn_ckks::encode_relin_key_v2(&rk).as_bytes())
            .expect("relin key round trip")
            .ksk()
            .to_owned_key();
    let gks = kg.galois_keys(&STEPS);
    let cjk = kg.conjugation_key();
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(seed + 1));
    let slots = ctx.degree() / 2;
    let a = enc.encrypt(
        &(0..slots)
            .map(|i| ((i % 37) as f64 - 18.0) / 23.0)
            .collect::<Vec<_>>(),
    );
    let b = enc.encrypt(
        &(0..slots)
            .map(|i| ((i % 29) as f64 - 14.0) / 31.0)
            .collect::<Vec<_>>(),
    );

    let mut ev = Evaluator::new(&ctx);
    // Only the arithmetic is under test: the operands are never
    // decrypted, so their noise budget is irrelevant.
    ev.set_noise_floor_bits(-1.0e6);
    let same = |what: &str, got: &Ciphertext, want: &[RnsPoly]| {
        assert_eq!(got.size(), want.len(), "{what}: size");
        for (i, w) in want.iter().enumerate() {
            assert_eq!(
                got.poly(i),
                w,
                "{what}: polynomial {i} at level {}",
                got.level()
            );
        }
    };

    let mut ct = a;
    let mut other = b;
    while ct.level() >= 2 {
        let l = ct.level();
        let tri = ev.mul(&ct, &other).unwrap();
        let lin = ev.relinearize(&tri, &rk).unwrap();
        same(
            "relinearize",
            &lin,
            &oracle_relinearize(&ctx, &tri, &rk_digits),
        );
        for steps in STEPS {
            let g = ctx.galois_exponent(steps);
            let rot = ev.rotate(&lin, steps, &gks).unwrap();
            same(
                "rotate",
                &rot,
                &oracle_galois(&ctx, &lin, g, gks.key(g).unwrap()),
            );
        }
        let conj = ev.conjugate(&lin, &cjk).unwrap();
        same(
            "conjugate",
            &conj,
            &oracle_galois(&ctx, &lin, ctx.conjugation_exponent(), &cjk),
        );
        let rs = ev.rescale(&conj).unwrap();
        let want: Vec<RnsPoly> = conj
            .polys()
            .iter()
            .map(|p| oracle_rescale(&ctx, p, l))
            .collect();
        same("rescale", &rs, &want);
        other = ev.mod_switch_to(&other, l - 1).unwrap();
        ct = rs;
    }
    // Level 1: the key switch with a single live digit.
    let rot = ev.rotate(&ct, 1, &gks).unwrap();
    let g = ctx.galois_exponent(1);
    same(
        "rotate",
        &rot,
        &oracle_galois(&ctx, &ct, g, gks.key(g).unwrap()),
    );
}

/// The three (N, L) points, with `dnum = L` (single-prime digits, one
/// special prime) or `dnum = 2` (two-prime digits, two special primes).
fn points(grouped: bool) -> Vec<CkksParams> {
    [(256usize, 3usize), (512, 4), (1024, 4)]
        .into_iter()
        .map(|(n, levels)| {
            let p = CkksParams::new(n, levels, 30, 45).expect("valid params");
            if grouped {
                let p = p.with_key_switch_digits(2).expect("valid dnum");
                assert_eq!(p.digit_group_size(), 2);
                p
            } else {
                p
            }
        })
        .collect()
}

fn check_all(grouped: bool, mode: Parallelism) {
    for (i, params) in points(grouped).into_iter().enumerate() {
        // Threshold 0 makes `Threads(2)` genuinely spawn at these sizes.
        with_dispatch_threshold(0, || {
            with_parallelism(mode, || check_against_oracle(params, 40 + i as u64));
        });
    }
}

#[test]
fn single_prime_digits_match_the_oracle_serial() {
    check_all(false, Parallelism::Serial);
}

#[test]
fn single_prime_digits_match_the_oracle_threaded() {
    check_all(false, Parallelism::Threads(2));
}

#[test]
fn two_prime_digits_match_the_oracle_serial() {
    check_all(true, Parallelism::Serial);
}

#[test]
fn two_prime_digits_match_the_oracle_threaded() {
    check_all(true, Parallelism::Threads(2));
}

#[test]
fn lazy_inner_product_cannot_overflow_at_60_bit_primes() {
    // The widest primes the parameters admit: L products of two 60-bit
    // residues pile up unreduced in one u128 accumulator per slot.
    let params = CkksParams::new(256, 4, 60, 60)
        .and_then(|p| p.with_scale(2f64.powi(40)))
        .expect("valid params");
    check_against_oracle(params, 50);
}

/// Rotates a decrypted slot vector right by `steps` (undoing a
/// homomorphic left rotation).
fn unrotate(values: &[f64], steps: usize) -> Vec<f64> {
    let slots = values.len();
    (0..slots)
        .map(|i| values[(i + slots - steps % slots) % slots])
        .collect()
}

#[test]
fn hoisted_rotations_decrypt_like_plain_ones_within_the_noise_estimate() {
    for (n, levels, seed) in [(512usize, 3usize, 60u64), (1024, 5, 61), (2048, 4, 62)] {
        let ctx = CkksContext::new(CkksParams::new(n, levels, 30, 45).expect("valid params"));
        let slots = n / 2;
        let steps = [1usize, 7, slots - 3];
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(seed));
        let pk = kg.public_key();
        let gks = kg.galois_keys(&steps);
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(seed + 1));
        let dec = Decryptor::new(&ctx, kg.secret_key());

        let mut values: Vec<f64> = (0..slots / 2)
            .map(|i| ((i % 41) as f64 - 20.0) / 25.0)
            .collect();
        let canary =
            Canary::seed_into(&mut values, slots, DEFAULT_CANARY_SLOTS, seed).expect("fits");
        let ct = enc.encrypt(&values);

        let mut ev = Evaluator::new(&ctx);
        ev.start_trace();
        let hoisted = ev.hoist(&ct).unwrap();
        assert_eq!(ev.ops_done(), 0, "a hoist is not a HOP");
        for s in steps {
            let plain = ev.rotate(&ct, s, &gks).unwrap();
            let fast = ev.rotate_hoisted(&hoisted, s, &gks).unwrap();
            assert_eq!(fast.level(), plain.level());
            assert_eq!(fast.scale(), plain.scale());
            assert_eq!(fast.noise_std(), plain.noise_std(), "same tracked estimate");
            assert_eq!(fast.msg_bound(), plain.msg_bound());

            let est = fast.noise_estimate();
            let (got_fast, got_plain) = (dec.decrypt(&fast), dec.decrypt(&plain));
            for got in [&got_fast, &got_plain] {
                canary
                    .verify(&unrotate(got, s), &est, &ctx, DEFAULT_CANARY_MARGIN)
                    .unwrap_or_else(|e| panic!("N={n} L={levels} steps={s}: {e}"));
            }
            // The two outputs differ by key-switch noise only — well
            // inside one predicted slot error — and both sit within a
            // small multiple of it from the message.
            let err = est.slot_error(&ctx);
            for (i, (f, p)) in got_fast.iter().zip(&got_plain).enumerate() {
                assert!(
                    (f - p).abs() < err,
                    "N={n} steps={s} slot {i}: {f} vs {p} (±{err})"
                );
                let want = values[(i + s) % slots];
                assert!(
                    (f - want).abs() < 8.0 * err,
                    "N={n} steps={s} slot {i}: {f} vs {want}"
                );
            }
        }
        let trace = ev.take_trace().unwrap();
        assert_eq!(
            trace.count_of(fxhenn_ckks::HeOpKind::Rotate),
            2 * steps.len(),
            "one Rotate record per rotation, hoisted or not"
        );
        assert_eq!(trace.hop_count(), 2 * steps.len());
    }
}

/// Re-frames a v2 Galois-key frame of full keys with every key cut to
/// `level`: its first `active_digits(level)` digits, each keeping the
/// limbs of primes `0..level` and of the special primes. Per key the
/// frame holds `exponent, digits, n, limbs, domain`, then `b_j` and `a_j`
/// of each digit, limb-major.
fn truncate_frame(ctx: &CkksContext, frame: &[u8], level: usize) -> AlignedBytes {
    let words: Vec<u64> = frame[V2_HEADER_LEN..]
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte word")))
        .collect();
    let n = ctx.degree();
    let keep: Vec<usize> = (0..level + ctx.special_moduli().len())
        .map(|pos| ctx.extended_index(level, pos))
        .collect();
    let digits = ctx.active_digits(level);
    let mut out = AlignedBytes::new();
    out.extend_from_slice(&frame[..V2_HEADER_LEN]);
    out.push_word(words[0]);
    let mut at = 1;
    for _ in 0..words[0] {
        let limbs = words[at + 3] as usize;
        let header = [words[at], digits as u64, words[at + 2], keep.len() as u64, words[at + 4]];
        for w in header {
            out.push_word(w);
        }
        let body = at + 5;
        for poly in 0..2 * digits {
            for &limb in &keep {
                let start = body + (poly * limbs + limb) * n;
                for &w in &words[start..start + n] {
                    out.push_word(w);
                }
            }
        }
        at = body + 2 * words[at + 1] as usize * limbs * n;
    }
    out
}

const CUT_STEPS: [usize; 4] = [1, 2, 4, 5];

/// Cuts a full key set to every level `k` in turn and requires plain
/// rotations, hoisted rotations and a linear transform at every level
/// `l ≤ k` to come out byte for byte as with the full keys — and the
/// level above `k` to be refused. Keys *generated* at level `k` are held
/// to the textbook oracle at the same levels.
fn check_truncation(params: CkksParams, seed: u64) {
    let ctx = CkksContext::new(params);
    let big_l = ctx.max_level();
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(seed));
    let pk = kg.public_key();
    let full = kg.galois_keys(&CUT_STEPS);
    let frame = encode_galois_keys_v2(&full);
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(seed + 1));
    let slots = ctx.degree() / 2;
    let top = enc.encrypt(
        &(0..slots)
            .map(|i| ((i % 19) as f64 - 9.0) / 11.0)
            .collect::<Vec<_>>(),
    );
    let schedule = LinearSchedule::bsgs(4, vec![4]);
    let diagonal = |g: usize, b: usize| vec![0.25 * (1 + g * 2 + b) as f64; slots];

    let mut ev = Evaluator::new(&ctx);
    ev.set_noise_floor_bits(-1.0e6);
    let bytes = |ct: Result<Ciphertext, EvalError>| {
        encode_ciphertext_v2(&ct.expect("the key reaches this level")).as_bytes().to_vec()
    };
    for k in 1..=big_l {
        let cut: GaloisKeys = decode_galois_keys_v2(truncate_frame(&ctx, frame.as_bytes(), k).as_bytes())
            .expect("a well-formed frame")
            .to_owned_galois_keys();
        ctx.validate_galois_keys(&cut).expect("a cut key validates");
        let generated = kg.galois_keys_at(&RotationSet::at_level(CUT_STEPS, k));
        for l in 1..=k {
            let ct = ev.mod_switch_to(&top, l).expect("in range");
            for steps in CUT_STEPS {
                let g = ctx.galois_exponent(steps);
                let key = generated.key(g).expect("generated");
                assert_eq!(key.level(&ctx), k);
                let rot = ev.rotate(&ct, steps, &generated).expect("the key reaches this level");
                assert_eq!(rot.polys(), oracle_galois(&ctx, &ct, g, key), "generated k={k} l={l}");
            }
            let hoisted = ev.hoist(&ct).expect("linear");
            for steps in CUT_STEPS {
                let what = format!("k={k} l={l} steps={steps}");
                assert_eq!(bytes(ev.rotate(&ct, steps, &cut)), bytes(ev.rotate(&ct, steps, &full)), "rotate {what}");
                assert_eq!(
                    bytes(ev.rotate_hoisted(&hoisted, steps, &cut)),
                    bytes(ev.rotate_hoisted(&hoisted, steps, &full)),
                    "rotate_hoisted {what}"
                );
            }
            if l >= 2 {
                let lt = LinearTransform::new(&ev, schedule.clone(), l, diagonal).expect("encodes");
                assert_eq!(
                    bytes(lt.apply(&mut ev, &ct, &cut)),
                    bytes(lt.apply(&mut ev, &ct, &full)),
                    "LinearTransform k={k} l={l}"
                );
            }
        }
        if k < big_l {
            let above = ev.mod_switch_to(&top, k + 1).expect("in range");
            assert!(matches!(
                ev.rotate(&above, 1, &cut),
                Err(EvalError::GaloisKeyTooShallow { key_level, level, .. }) if key_level == k && level == k + 1
            ));
        }
    }
}

fn check_truncation_all(mode: Parallelism) {
    for grouped in [false, true] {
        for (i, params) in points(grouped).into_iter().enumerate() {
            with_dispatch_threshold(0, || {
                with_parallelism(mode, || check_truncation(params, 70 + i as u64));
            });
        }
    }
}

#[test]
fn cut_keys_rotate_byte_for_byte_like_full_keys_serial() {
    check_truncation_all(Parallelism::Serial);
}

#[test]
fn cut_keys_rotate_byte_for_byte_like_full_keys_threaded() {
    check_truncation_all(Parallelism::Threads(2));
}
