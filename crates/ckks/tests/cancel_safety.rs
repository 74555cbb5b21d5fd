//! Cancel-safety of the evaluator: a cancellation observed at an op
//! boundary must leave the evaluator fully reusable.
//!
//! The evaluator checks its budget *before* touching the scratch pool
//! (see the `# Cancellation` note on `Evaluator`), so a cancelled call
//! performs no work and cannot poison pooled state. These tests prove
//! that property end to end: cancel a mul → relinearize → rescale →
//! rotate → conjugate → hoist + hoisted-rotate chain at every op
//! boundary, then rerun the full chain on the *same* evaluator and
//! require bit-identical results to a fresh evaluator — under both the
//! serial and the multithreaded schedule.

use fxhenn_ckks::{
    Ciphertext, CkksContext, CkksParams, Encryptor, EvalError, Evaluator, GaloisKeys,
    KeyGenerator, KeySwitchKey, RelinKey,
};
use fxhenn_math::budget::{with_budget, Budget, CancelToken, StopCause};
use fxhenn_math::par::{with_parallelism, Parallelism};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Rig {
    ctx: CkksContext,
    rk: RelinKey,
    gks: GaloisKeys,
    cjk: KeySwitchKey,
    ct_a: Ciphertext,
    ct_b: Ciphertext,
}

fn rig(n: usize, levels: usize, seed: u64) -> Rig {
    let params = CkksParams::new(n, levels, 30, 45).expect("valid params");
    let ctx = CkksContext::new(params);
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(seed));
    let pk = kg.public_key();
    let rk = kg.relin_key();
    let gks = kg.galois_keys(&[1]);
    let cjk = kg.conjugation_key();
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(seed + 1));
    let values_a: Vec<f64> = (0..n / 2).map(|i| ((i % 37) as f64 - 18.0) / 23.0).collect();
    let values_b: Vec<f64> = (0..n / 2).map(|i| ((i % 29) as f64 - 14.0) / 31.0).collect();
    let ct_a = enc.encrypt(&values_a);
    let ct_b = enc.encrypt(&values_b);
    Rig {
        ctx,
        rk,
        gks,
        cjk,
        ct_a,
        ct_b,
    }
}

const CHAIN_LEN: usize = 6;

/// Runs op `i` of the linear chain, appending its output: each step
/// consumes the previous step's ciphertext, so cancelling step `k`
/// leaves a well-defined prefix.
fn run_step(
    ev: &mut Evaluator,
    r: &Rig,
    outs: &mut Vec<Ciphertext>,
    i: usize,
) -> Result<(), EvalError> {
    let next = match i {
        0 => ev.mul(&r.ct_a, &r.ct_b)?,
        1 => ev.relinearize(&outs[0], &r.rk)?,
        2 => ev.rescale(&outs[1])?,
        3 => ev.rotate(&outs[2], 1, &r.gks)?,
        4 => ev.conjugate(&outs[3], &r.cjk)?,
        // A stop here lands on `hoist`'s own gate: it takes scratch
        // like an op although it books none.
        5 => {
            let digits = ev.hoist(&outs[2])?;
            ev.rotate_hoisted(&digits, 1, &r.gks)?
        }
        _ => unreachable!("chain has {CHAIN_LEN} ops"),
    };
    outs.push(next);
    Ok(())
}

fn full_chain(ev: &mut Evaluator, r: &Rig) -> Vec<Ciphertext> {
    let mut outs = Vec::new();
    for i in 0..CHAIN_LEN {
        run_step(ev, r, &mut outs, i).expect("unbudgeted chain succeeds");
    }
    outs
}

/// Cancels the chain at op boundary `cancel_at` and proves the same
/// evaluator then reproduces the fresh-evaluator results exactly.
fn cancel_then_reuse(r: &Rig, expected: &[Ciphertext], cancel_at: usize) {
    let mut ev = Evaluator::new(&r.ctx);
    let token = CancelToken::new();
    let budget = Budget::unlimited().with_cancel(token.clone());
    let mut outs = Vec::new();
    let err = with_budget(&budget, || {
        for i in 0..cancel_at {
            run_step(&mut ev, r, &mut outs, i).expect("ops before the cancel succeed");
        }
        let ops_before = ev.ops_done();
        token.cancel();
        let err = run_step(&mut ev, r, &mut outs, cancel_at)
            .expect_err("op at the cancelled boundary must stop");
        assert_eq!(
            ev.ops_done(),
            ops_before,
            "a cancelled op must perform no work"
        );
        err
    });
    match &err {
        EvalError::Cancelled(stop) => {
            assert_eq!(stop.cause, StopCause::CancelRequested);
            assert_eq!(stop.phase, "he-op");
        }
        other => panic!("cancel at op {cancel_at}: expected Cancelled, got {other}"),
    }
    // The same evaluator, after the cancel, must be bit-identical to a
    // fresh one across the whole chain.
    let again = full_chain(&mut ev, r);
    assert_eq!(
        again, expected,
        "evaluator reused after a cancel at op {cancel_at} diverged"
    );
}

fn cancel_at_every_boundary(mode: Parallelism) {
    let r = rig(512, 4, 20);
    with_parallelism(mode, || {
        let expected = full_chain(&mut Evaluator::new(&r.ctx), &r);
        for cancel_at in 0..CHAIN_LEN {
            cancel_then_reuse(&r, &expected, cancel_at);
        }
    });
}

#[test]
fn cancelled_evaluator_is_reusable_serial() {
    cancel_at_every_boundary(Parallelism::Serial);
}

#[test]
fn cancelled_evaluator_is_reusable_threaded() {
    // Threshold 0 forces the dispatcher to genuinely spawn workers for
    // work below the fixed spawn floor.
    fxhenn_math::par::with_dispatch_threshold(0, || {
        cancel_at_every_boundary(Parallelism::Threads(2));
    });
}

#[test]
fn cancel_at_a_seeded_random_boundary() {
    // The boundary itself drawn pseudo-randomly (seeded, so the run
    // reproduces): the property must hold wherever the cancel lands.
    use rand::Rng;
    let r = rig(512, 4, 21);
    let expected = full_chain(&mut Evaluator::new(&r.ctx), &r);
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..4 {
        let cancel_at = rng.gen_range(0..CHAIN_LEN);
        cancel_then_reuse(&r, &expected, cancel_at);
    }
}

#[test]
fn deadline_mid_chain_also_leaves_the_evaluator_reusable() {
    // Same property via the deadline path: an already-expired deadline
    // stops the very first op; the evaluator still works afterwards.
    let r = rig(512, 4, 22);
    let expected = full_chain(&mut Evaluator::new(&r.ctx), &r);
    let mut ev = Evaluator::new(&r.ctx);
    let expired = Budget::with_deadline(std::time::Duration::ZERO);
    let err = with_budget(&expired, || {
        ev.mul(&r.ct_a, &r.ct_b)
            .expect_err("expired deadline stops the op")
    });
    assert!(matches!(err, EvalError::Cancelled(_)), "{err}");
    assert_eq!(full_chain(&mut ev, &r), expected);
}
