//! `LinearTransform` against the plaintext map it encodes:
//! `y = fold(Σ_i D_i ⊙ rot(x, i))` over random diagonals, at three
//! (N, L), serial and threaded, with baby steps that need composed hops,
//! the packed (single-baby) shape, the executed trace, and the typed
//! refusal of an incomplete key set.

use fxhenn_ckks::{
    CkksContext, CkksParams, Decryptor, Encryptor, EvalError, Evaluator, GaloisKeys, KeyGenerator,
    LinearSchedule, LinearTransform, OpTrace,
};
use fxhenn_math::par::{with_parallelism, Parallelism};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Rig {
    ctx: CkksContext,
    enc_seed: u64,
    pk: fxhenn_ckks::PublicKey,
    dec_key: fxhenn_ckks::SecretKey,
    kg_seed: u64,
}

impl Rig {
    fn new(n: usize, levels: usize) -> Self {
        let ctx = CkksContext::new(CkksParams::new(n, levels, 30, 45).expect("valid params"));
        let kg_seed = 71;
        let kg = &mut KeyGenerator::new(&ctx, StdRng::seed_from_u64(kg_seed));
        let (pk, dec_key) = (kg.public_key(), kg.secret_key());
        Self {
            ctx,
            enc_seed: 72,
            pk,
            dec_key,
            kg_seed,
        }
    }

    /// Galois keys for exactly `steps`, under the rig's secret.
    fn keys(&self, steps: &[usize]) -> GaloisKeys {
        KeyGenerator::new(&self.ctx, StdRng::seed_from_u64(self.kg_seed)).galois_keys(steps)
    }
}

/// Builds, applies and checks one transform; returns the executed trace.
fn check(rig: &Rig, schedule: LinearSchedule, seed: u64) -> OpTrace {
    let slots = rig.ctx.degree() / 2;
    let mut rng = StdRng::seed_from_u64(seed);
    let diagonals: Vec<Vec<f64>> = (0..schedule.term_count())
        .map(|_| (0..slots).map(|_| rng.gen_range(-0.5..0.5)).collect())
        .collect();
    let x: Vec<f64> = (0..slots).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let babies = schedule.babies;
    let expected = schedule.apply_plain(&x, |g, b| diagonals[g * babies + b].clone());

    let gks = rig.keys(&schedule.rotation_steps());
    let mut enc = Encryptor::new(&rig.ctx, rig.pk.clone(), StdRng::seed_from_u64(rig.enc_seed));
    let ct = enc.encrypt(&x);
    let mut ev = Evaluator::new(&rig.ctx);
    let transform = LinearTransform::new(&ev, schedule, ct.level(), |g, b| {
        diagonals[g * babies + b].clone()
    })
    .expect("diagonals encode");
    ev.start_trace();
    let y = transform.apply(&mut ev, &ct, &gks).expect("all keys present");
    assert_eq!(y.level(), ct.level() - 1, "one level consumed");
    assert!((y.scale() / ct.scale() - 1.0).abs() < 1e-9, "back on the input scale");

    let got = Decryptor::new(&rig.ctx, rig.dec_key.clone()).decrypt(&y);
    let worst = got
        .iter()
        .zip(&expected)
        .map(|(g, e)| (g - e).abs())
        .fold(0.0f64, f64::max);
    let terms = transform.schedule().term_count() << transform.schedule().folds.len();
    assert!(worst < 2e-4 * (terms as f64).sqrt(), "max slot error {worst:e}");
    ev.take_trace().expect("trace started")
}

#[test]
fn transform_matches_plaintext_map_at_three_parameter_points() {
    for (n, levels) in [(1024usize, 3usize), (4096, 5), (8192, 7)] {
        let rig = Rig::new(n, levels);
        let slots = n / 2;
        for mode in [Parallelism::Serial, Parallelism::Threads(2)] {
            with_parallelism(mode, || {
                // 16 diagonals = 4 babies x 4 giants: baby 3 is reached
                // by a hop from baby 2, babies 1 and 2 share one hoist.
                let bsgs = LinearSchedule::bsgs(16, vec![slots / 2, slots / 4]);
                assert_eq!((bsgs.babies, bsgs.giants, bsgs.stride), (4, 4, 4));
                let executed = check(&rig, bsgs.clone(), 5);
                let mut planned = OpTrace::new();
                bsgs.record(levels, &mut planned);
                assert_eq!(executed, planned, "N={n}: executed trace = recorded schedule");
                // 3 baby + 3 giant + 2 fold rotations.
                assert_eq!(executed.key_switch_count(), 8);
            });
        }
    }
}

#[test]
fn uneven_split_gives_the_babies_the_larger_half() {
    let rig = Rig::new(1024, 3);
    // 32 diagonals = 8 babies x 4 giants: hops 1, 2, 4 from the input
    // and 5, 6 from baby 4 are hoisted; 3 and 7 are single hops.
    let schedule = LinearSchedule::bsgs(32, Vec::new());
    assert_eq!((schedule.babies, schedule.giants, schedule.stride), (8, 4, 8));
    assert_eq!(schedule.rotation_steps(), vec![1, 2, 4, 8]);
    let trace = check(&rig, schedule, 6);
    assert_eq!(trace.key_switch_count(), 7 + 3);
}

#[test]
fn packed_products_land_a_stride_apart() {
    let rig = Rig::new(1024, 3);
    // Five unrotated products, packed 8 slots apart, folded within the
    // 8-wide windows: needs the keys 8 and 1, 2, 4 and no other.
    let schedule = LinearSchedule::packed(5, 8, vec![1, 2, 4]);
    assert_eq!(schedule.rotation_steps(), vec![1, 2, 4, 8]);
    let trace = check(&rig, schedule, 7);
    assert_eq!(trace.key_switch_count(), 4 + 3);
}

#[test]
fn missing_key_fails_typed_before_any_arithmetic() {
    let rig = Rig::new(1024, 3);
    let schedule = LinearSchedule::bsgs(16, vec![64]);
    // Everything but the fold's key.
    let gks = rig.keys(&[1, 2, 4]);
    let mut enc = Encryptor::new(&rig.ctx, rig.pk.clone(), StdRng::seed_from_u64(9));
    let ct = enc.encrypt(&[1.0; 8]);
    let mut ev = Evaluator::new(&rig.ctx);
    let transform = LinearTransform::new(&ev, schedule, ct.level(), |_, _| vec![0.25; 8])
        .expect("diagonals encode");
    ev.start_trace();
    let err = transform.apply(&mut ev, &ct, &gks).expect_err("key 64 is missing");
    assert!(matches!(err, EvalError::MissingGaloisKey { steps: 64 }), "{err:?}");
    assert_eq!(ev.ops_done(), 0, "refused before the first operation");
    assert!(ev.take_trace().expect("trace started").is_empty());

    // The wrong level is refused the same way.
    let lower = ev.mod_switch_to(&ct, 2).expect("level in range");
    let err = transform
        .apply(&mut ev, &lower, &rig.keys(&[1, 2, 4, 64]))
        .expect_err("encoded for level 3");
    assert!(matches!(err, EvalError::LevelMismatch { .. }), "{err:?}");
}
