//! The Galois keys a `ModelCache` generates are cut to the level each
//! rotation step is applied at, over both lowering profiles: every
//! built-in network that fits the toy ring runs under either executor
//! profile on exactly those keys — as does one built network whose two
//! profiles need some keys at different levels — and FxHENN-MNIST's key
//! frame is pinned at its cut size.

use fxhenn::ckks::wire::encoded_len_galois_keys_v2;
use fxhenn::ckks::{CkksContext, CkksParams, Encryptor, KeyGenerator};
use fxhenn::nn::executor::{encrypt_input, try_encrypt_input_for, HeCnnExecutor};
use fxhenn::nn::{
    fxhenn_mnist, fxhenn_mnist_pooled, lower_network, synthetic_input, toy_cryptonets_like,
    toy_mnist_like, LoweringProfile, Network, NetworkBuilder,
};
use fxhenn::{ModelCache, VerifiedModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 5;

/// Keys for `net` the way a serving worker gets them: generated from the
/// program's rotation set into a cache, then verified out of it.
fn cached_keys(net: &Network, params: &CkksParams) -> VerifiedModel {
    let program = lower_network(net, params.degree(), params.levels());
    let mut cache = ModelCache::new();
    cache.generate(
        net.name(),
        params.clone(),
        &program.required_rotations(),
        SEED,
    );
    cache
        .verify(net.name())
        .expect("fresh key material verifies")
}

#[test]
fn every_builtin_network_runs_on_its_level_cut_keys() {
    let toy = CkksParams::insecure_toy;
    // FxHENN-CIFAR10 is left out: its packed input does not fit the 512
    // slots of N = 1024, and at its own N = 16 384 it needs 2 812 keys.
    let networks = [
        (toy_mnist_like(1), toy(7)),
        (toy_cryptonets_like(1), toy(7)),
        (fxhenn_mnist(1), toy(7)),
        (fxhenn_mnist_pooled(1), toy(9)),
        // Not built in: a network whose profiles part ways at the toy
        // ring, as pooled MNIST's do at N = 8192. The faithful Fc1
        // consolidates its 200 outputs and the optimized one does not, so
        // the optimized Fc2 — a linear transform, rotating at its entry
        // level — folds by step 128 a level above the faithful Fc2, and
        // nothing earlier takes that step: the key set must record it
        // there.
        (
            NetworkBuilder::new("profiles-apart", [1, 9, 9], 3)
                .conv(4, 5, 1)
                .square()
                .dense(200)
                .square()
                .dense(2)
                .build(7)
                .expect("a valid architecture"),
            toy(7),
        ),
    ];
    for (net, params) in networks {
        let keys = cached_keys(&net, &params);
        let ctx = CkksContext::new(params);
        let image = synthetic_input(&net, 3);
        let mut enc = Encryptor::new(&ctx, keys.public_key.clone(), StdRng::seed_from_u64(6));
        for profile in [LoweringProfile::Optimized, LoweringProfile::PaperFaithful] {
            let input = try_encrypt_input_for(&net, &image, &mut enc, ctx.degree() / 2, profile)
                .expect("the image packs");
            let mut exec =
                HeCnnExecutor::with_profile(&ctx, &keys.relin_key, &keys.galois_keys, profile);
            // Only the keys are under test here, not the noise budget.
            exec.set_noise_floor_bits(-1.0e6);
            if let Err(e) = exec.try_run(&net, &input) {
                panic!("{} {profile:?} refused on its cut keys: {e}", net.name());
            }
        }
        let below_top = keys
            .galois_keys
            .exponents()
            .into_iter()
            .filter(|&g| keys.galois_keys.key(g).expect("listed").level(&ctx) < ctx.max_level())
            .count();
        assert!(below_top > 0, "{}: no key was cut", net.name());
    }
}

#[test]
fn executor_new_runs_the_optimized_profile() {
    // `HeCnnExecutor::new` is what serving workers call; it must accept
    // the cache's keys exactly as `with_profile(Optimized)` does.
    let net = toy_mnist_like(2);
    let params = CkksParams::insecure_toy(7);
    let keys = cached_keys(&net, &params);
    let ctx = CkksContext::new(params);
    let secret = KeyGenerator::new(&ctx, StdRng::seed_from_u64(SEED)).secret_key();
    let image = synthetic_input(&net, 4);
    let mut enc = Encryptor::new(&ctx, keys.public_key.clone(), StdRng::seed_from_u64(7));
    let input = encrypt_input(&net, &image, &mut enc, ctx.degree() / 2);
    let mut exec = HeCnnExecutor::new(&ctx, &keys.relin_key, &keys.galois_keys);
    let out = exec.try_run(&net, &input).expect("runs on the cut keys");
    let logits = out.decrypt(&fxhenn::ckks::Decryptor::new(&ctx, secret));
    let want = net.forward(&image);
    for (got, want) in logits.iter().zip(want.data()) {
        assert!((got - want).abs() < 0.05, "{got} vs {want}");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "paper scale (N = 8192): a fraction of a second in release, a minute in a debug build"
)]
fn mnist_key_frame_is_cut_to_792_limb_vectors() {
    // 10 steps at level 5 (5 digits × 2 × 6 limbs), the tap-block fold's
    // 2048 and 3072 at level 6 (6 × 2 × 7) and step 1024 at level 3
    // (3 × 2 × 4): 792 limb vectors of 8192 words, plus 536 header
    // bytes. Every key at the top level was 95 420 952 bytes.
    let keys = cached_keys(&fxhenn_mnist(1), &CkksParams::fxhenn_mnist());
    assert_eq!(keys.galois_keys.len(), 13);
    assert_eq!(
        encoded_len_galois_keys_v2(&keys.galois_keys),
        792 * 8192 * 8 + 536
    );
}
