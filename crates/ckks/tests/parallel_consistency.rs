//! Serial-vs-parallel bit-identity of the evaluator hot path.
//!
//! The limb-parallel kernels in `fxhenn-math::par` promise that the
//! thread count never changes a single bit of any ciphertext: each limb
//! is an independent residue channel and every closure writes only its
//! own output. These tests drive the full mul → relinearize → rescale →
//! rotate chain under a forced-serial and a forced-multithreaded
//! schedule at several parameter sets and require exact equality —
//! including on single-core hosts, where `Threads(k)` still spawns real
//! worker threads.

use fxhenn_ckks::{
    Ciphertext, CkksContext, CkksParams, Encryptor, Evaluator, GaloisKeys, KeyGenerator,
    KeySwitchKey, RelinKey,
};
use fxhenn_math::par::{with_dispatch_threshold, with_parallelism, Parallelism};
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
    let gks = kg.galois_keys(&[1, 3]);
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

/// Runs the hot chain once and returns every intermediate ciphertext.
fn run_chain(r: &Rig) -> Vec<Ciphertext> {
    let mut ev = Evaluator::new(&r.ctx);
    let tri = ev.mul(&r.ct_a, &r.ct_b).unwrap();
    let lin = ev.relinearize(&tri, &r.rk).unwrap();
    let rs = ev.rescale(&lin).unwrap();
    let rot = ev.rotate(&rs, 1, &r.gks).unwrap();
    let conj = ev.conjugate(&rs, &r.cjk).unwrap();
    vec![tri, lin, rs, rot, conj]
}

#[test]
fn serial_and_threaded_chains_are_bit_identical() {
    for (n, levels) in [(512usize, 3usize), (1024, 4), (2048, 5)] {
        let r = rig(n, levels, 7 + n as u64);
        let serial = with_parallelism(Parallelism::Serial, || run_chain(&r));
        // Threshold 0 forces the dispatcher to actually spawn workers even
        // for work far below the fixed spawn floor of these small rings.
        let threaded = with_parallelism(Parallelism::Threads(3), || {
            with_dispatch_threshold(0, || run_chain(&r))
        });
        assert_eq!(
            serial, threaded,
            "N={n} L={levels}: thread count must not change any bit"
        );
    }
}

/// The dispatcher picks inline or Threads(k) per call site from the
/// fixed spawn rule (`items × grain` against the spawn floor); whatever
/// it picks must never change a single bit of any ciphertext. Drives
/// the full chain under every dispatch policy — forced serial, forced
/// spawn, the rule under Threads(3) ("adaptive"), and Auto — at three
/// (N, L) points and requires exact equality.
#[test]
fn dispatch_choice_never_changes_results() {
    for (n, levels) in [(512usize, 3usize), (1024, 4), (2048, 5)] {
        let r = rig(n, levels, 41 + n as u64);
        let forced_serial = with_parallelism(Parallelism::Serial, || {
            with_dispatch_threshold(u64::MAX, || run_chain(&r))
        });
        let forced_spawn = with_parallelism(Parallelism::Threads(3), || {
            with_dispatch_threshold(0, || run_chain(&r))
        });
        let adaptive = with_parallelism(Parallelism::Threads(3), || run_chain(&r));
        let auto = with_parallelism(Parallelism::Auto, || run_chain(&r));
        assert_eq!(
            forced_serial, forced_spawn,
            "N={n} L={levels}: forced spawn must match forced serial"
        );
        assert_eq!(
            forced_serial, adaptive,
            "N={n} L={levels}: adaptive dispatch must match forced serial"
        );
        assert_eq!(
            forced_serial, auto,
            "N={n} L={levels}: Auto must match forced serial"
        );
    }
}

#[test]
fn thread_count_does_not_matter() {
    let r = rig(512, 3, 99);
    let two = with_parallelism(Parallelism::Threads(2), || {
        with_dispatch_threshold(0, || run_chain(&r))
    });
    let five = with_parallelism(Parallelism::Threads(5), || {
        with_dispatch_threshold(0, || run_chain(&r))
    });
    assert_eq!(two, five, "2 and 5 workers must agree exactly");
}

#[test]
fn scratch_reuse_is_deterministic() {
    // A second pass over the same evaluator draws its temporaries from
    // the scratch pool populated by the first pass; the results must be
    // exactly the ones computed with fresh allocations.
    let r = rig(512, 3, 123);
    let mut ev = Evaluator::new(&r.ctx);
    let first: Vec<Ciphertext> = (0..2)
        .map(|_| {
            let tri = ev.mul(&r.ct_a, &r.ct_b).unwrap();
            let lin = ev.relinearize(&tri, &r.rk).unwrap();
            let rs = ev.rescale(&lin).unwrap();
            ev.rotate(&rs, 1, &r.gks).unwrap()
        })
        .collect();
    assert_eq!(first[0], first[1], "pooled scratch must not leak state");
    let fresh = {
        let mut ev2 = Evaluator::new(&r.ctx);
        let tri = ev2.mul(&r.ct_a, &r.ct_b).unwrap();
        let lin = ev2.relinearize(&tri, &r.rk).unwrap();
        let rs = ev2.rescale(&lin).unwrap();
        ev2.rotate(&rs, 1, &r.gks).unwrap()
    };
    assert_eq!(first[0], fresh, "fresh and pooled evaluators must agree");
}
