//! DESIGN.md §15's transform table as an identity over the always-on
//! counters: what a rotation, a hoist and a hoisted rotation cost in
//! forward NTTs, inverse NTTs and digit decompositions at level `l`
//! (single-prime digits, one special prime).
//!
//! One test in its own integration-test binary (own process, own global
//! collector), so nothing else advances the counters between snapshots.

use fxhenn_ckks::{
    register_he_metrics, CkksContext, CkksParams, Encryptor, Evaluator, KeyGenerator,
};
use fxhenn_math::par::{with_parallelism, Parallelism};
use fxhenn_obs::global;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// (forward NTTs, inverse NTTs, decompositions) so far.
fn counts() -> [u64; 3] {
    let counters = global().counters();
    [
        "fxhenn_math_ntt_forward_total",
        "fxhenn_math_ntt_inverse_total",
        "fxhenn_ckks_decompositions_total",
    ]
    .map(|name| {
        let found = counters.iter().find(|(n, _)| n == name);
        found.unwrap_or_else(|| panic!("{name} is registered")).1
    })
}

/// What `f` added to the three counters.
fn cost_of(f: impl FnOnce()) -> [u64; 3] {
    let before = counts();
    f();
    let after = counts();
    [0, 1, 2].map(|i| after[i] - before[i])
}

#[test]
fn rotation_costs_match_the_design_table() {
    register_he_metrics();
    for (n, levels) in [(1024usize, 3usize), (4096, 5), (8192, 7)] {
        let ctx = CkksContext::new(CkksParams::new(n, levels, 30, 45).expect("valid params"));
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(3));
        let pk = kg.public_key();
        let gks = kg.galois_keys(&[1, 2]);
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(4));
        let fresh = enc.encrypt(&[1.0, -2.0, 0.5]);
        let mut ev = Evaluator::new(&ctx);

        for l in (2..=levels).rev() {
            let ct = ev.mod_switch_to(&fresh, l).expect("level in range");
            let l = l as u64;
            for mode in [Parallelism::Serial, Parallelism::Threads(2)] {
                with_parallelism(mode, || {
                    let rotate = cost_of(|| {
                        ev.rotate(&ct, 1, &gks).expect("key present");
                    });
                    assert_eq!(rotate, [l * l + 2 * l, l + 2, 1], "rotate, N={n} l={l}");

                    let mut hoisted = None;
                    let hoist = cost_of(|| hoisted = Some(ev.hoist(&ct).expect("linear")));
                    assert_eq!(hoist, [l * l, l, 1], "hoist, N={n} l={l}");
                    let hoisted = hoisted.expect("set above");
                    for steps in [1, 2] {
                        let rot = cost_of(|| {
                            ev.rotate_hoisted(&hoisted, steps, &gks).expect("key present");
                        });
                        assert_eq!(rot, [2 * l, 2, 0], "hoisted rotate, N={n} l={l}");
                    }
                });
            }
        }
    }
}
