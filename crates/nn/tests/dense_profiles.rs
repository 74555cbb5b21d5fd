//! The two lowering profiles against each other and against the
//! plaintext network: same logits, each executed trace equal to its own
//! lowered trace record for record, the optimized schedule on the
//! paper-faithful key set, and the optimized executor's operands encoded
//! once per network and context.
//!
//! The tests share one process-global encode counter and the larger ones
//! hold hundreds of megabytes of keys, so they take turns.

use fxhenn_ckks::{
    register_he_metrics, CkksContext, CkksParams, Decryptor, Encryptor, GaloisKeys, KeyGenerator,
    OpTrace, PublicKey, RelinKey, RotationSet, SecretKey,
};
use fxhenn_nn::executor::{try_encrypt_input_for, EncryptedInput, HeCnnExecutor};
use fxhenn_nn::{
    fxhenn_cifar10, fxhenn_mnist, fxhenn_mnist_pooled, lower_network, synthetic_input,
    toy_cryptonets_like, toy_mnist_like, try_lower_network_with, LoweringProfile, Network,
    NetworkBuilder,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard, PoisonError};

const PROFILES: [LoweringProfile; 2] = [LoweringProfile::PaperFaithful, LoweringProfile::Optimized];

fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Plaintexts the evaluator has encoded in this process so far.
fn encodes() -> u64 {
    register_he_metrics();
    let counters = fxhenn_obs::global().counters();
    let found = counters
        .iter()
        .find(|(name, _)| name == "fxhenn_ckks_plain_encodes_total");
    found.expect("registered above").1
}

struct Rig {
    ctx: CkksContext,
    pk: PublicKey,
    sk: SecretKey,
    rk: RelinKey,
    gks: GaloisKeys,
}

impl Rig {
    /// Keys for `net` generated the way every caller does: from the
    /// paper-faithful program's rotation steps.
    fn new(net: &Network, params: CkksParams) -> Self {
        let ctx = CkksContext::new(params);
        let steps = lower_network(net, ctx.degree(), ctx.max_level()).required_rotations();
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(31));
        let (pk, sk, rk) = (kg.public_key(), kg.secret_key(), kg.relin_key());
        let gks = kg.galois_keys(&steps);
        Self {
            ctx,
            pk,
            sk,
            rk,
            gks,
        }
    }

    /// `net`'s synthetic image of `image_seed`, packed for `profile`.
    fn encrypt(&self, net: &Network, image_seed: u64, profile: LoweringProfile) -> EncryptedInput {
        let image = synthetic_input(net, image_seed);
        let mut enc = Encryptor::new(&self.ctx, self.pk.clone(), StdRng::seed_from_u64(32));
        try_encrypt_input_for(net, &image, &mut enc, self.ctx.degree() / 2, profile)
            .expect("the image packs")
    }
}

struct Run {
    logits: Vec<f64>,
    trace: OpTrace,
    /// The evaluator's own bound on a decrypted slot's error.
    slot_error: f64,
}

fn run(rig: &Rig, net: &Network, input: &EncryptedInput, profile: LoweringProfile, floor: f64) -> Run {
    let mut exec = HeCnnExecutor::with_profile(&rig.ctx, &rig.rk, &rig.gks, profile);
    exec.set_noise_floor_bits(floor);
    exec.start_trace();
    let out = exec.try_run(net, input).expect("the network runs");
    let slot_error = out
        .cts
        .iter()
        .map(|ct| ct.noise_estimate().slot_error(&rig.ctx))
        .fold(0.0f64, f64::max);
    Run {
        logits: out.decrypt(&Decryptor::new(&rig.ctx, rig.sk.clone())),
        trace: exec.take_trace().expect("trace started"),
        slot_error,
    }
}

fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0f64, f64::max)
}

/// Both profiles on one input: logits against `Network::forward` and
/// against each other, each executed trace equal to its profile's
/// lowered program, record for record. `all_linear` says every dense
/// layer of the optimized program is a linear transform.
fn check_profiles(net: &Network, params: CkksParams, floor: f64, tol: f64, all_linear: bool) {
    let rig = Rig::new(net, params);
    let expected = net.forward(&synthetic_input(net, 7)).into_data();

    let runs = PROFILES.map(|profile| {
        let r = run(&rig, net, &rig.encrypt(net, 7, profile), profile, floor);
        let err = max_diff(&r.logits, &expected);
        assert!(err < tol, "{} {profile:?}: logit error {err:e}", net.name());

        let planned = try_lower_network_with(net, rig.ctx.degree(), rig.ctx.max_level(), profile)
            .expect("the network lowers")
            .total_trace();
        assert_eq!(r.trace, planned, "{} {profile:?}: record for record", net.name());
        r
    });

    let [faithful, optimized] = &runs;
    let between = max_diff(&faithful.logits, &optimized.logits);
    assert!(
        between <= faithful.slot_error + optimized.slot_error && between < tol,
        "{}: profiles differ by {between:e}",
        net.name()
    );
    // A linear layer never rotates more than the rounds it replaces; a
    // per-output layer behind a blocked input does (log2 m more per
    // output), so only the all-linear programs are held to this.
    assert!(
        !all_linear || optimized.trace.key_switch_count() <= faithful.trace.key_switch_count(),
        "{}: the linear schedule switches keys more often",
        net.name()
    );
}

#[test]
fn toy_networks_agree_across_profiles() {
    let _turn = serial();
    check_profiles(&toy_mnist_like(14), CkksParams::insecure_toy(7), 0.0, 0.05, true);
    check_profiles(&toy_cryptonets_like(31), CkksParams::insecure_toy(7), 0.0, 0.05, true);
}

#[test]
fn blocked_output_too_wide_to_window_falls_back_per_output() {
    let _turn = serial();
    // Pool1 leaves 18 values in 8-wide blocks of a 128-slot segment;
    // 20 outputs x 8 exceed the segment, so Fc1 runs once per output.
    let net = NetworkBuilder::new("toy-pooled", [1, 9, 9], 5)
        .conv(2, 3, 1)
        .square()
        .avg_pool(2, 2)
        .dense(20)
        .square()
        .dense(3)
        .build(7)
        .expect("a valid architecture");
    check_profiles(&net, CkksParams::insecure_toy(7), -30.0, 0.05, false);
}

#[test]
#[ignore = "paper scale (N = 8192): seconds in release, minutes in a debug build"]
fn paper_networks_agree_across_profiles() {
    let _turn = serial();
    check_profiles(&fxhenn_mnist(1), CkksParams::fxhenn_mnist(), -16.0, 1e-3, true);
    let deeper = CkksParams::new(8192, 9, 30, 45).expect("valid params");
    check_profiles(&fxhenn_mnist_pooled(1), deeper, -40.0, 1e-3, false);
}

#[test]
fn paper_lowering_and_key_set_are_what_they_were() {
    let prog = lower_network(&fxhenn_mnist(1), 8192, 7);
    assert_eq!(prog.hop_count(), 1282);
    assert_eq!(prog.key_switch_count(), 298);
    // Fc1 (entered at level 5) rotates by 1..512, 2048 and 3072; Fc2
    // (level 3) by 1024 and 2048; the optimized Cnv1 folds its tap
    // blocks by 3072 and 2048 at its exit level 6 — 13 keys: 10 cut to
    // level 5, 2 to level 6, 1 to level 3.
    let level = |s: usize| match s {
        1024 => 3,
        2048 | 3072 => 6,
        _ => 5,
    };
    let pow2 = (0..12).map(|t| 1usize << t);
    let expected: RotationSet = pow2.chain([3072]).map(|s| (s, level(s))).collect();
    assert_eq!(prog.required_rotations(), expected);

    let fast = try_lower_network_with(&fxhenn_mnist(1), 8192, 7, LoweringProfile::Optimized)
        .expect("the network lowers");
    // 25 taps in four-tap blocks: 7 input ciphertexts instead of 25.
    assert_eq!((prog.layers[0].input_cts, fast.layers[0].input_cts), (25, 7));
    assert_eq!((fast.hop_count(), fast.key_switch_count()), (154, 35));
    assert_eq!(fast.required_rotations(), expected);

    // Key sets of the other built-in networks, as before the optimized
    // profile existed: it adds no step to any of them.
    let key_counts = [
        (fxhenn_cifar10(1), 16384, 7, 2812),
        (toy_mnist_like(1), 1024, 7, 12),
        (fxhenn_mnist_pooled(1), 8192, 9, 112),
        (toy_cryptonets_like(1), 1024, 7, 10),
    ];
    for (net, degree, levels, keys) in key_counts {
        let steps = lower_network(&net, degree, levels).required_rotations();
        assert_eq!(steps.len(), keys, "{}", net.name());
    }
}

#[test]
fn operands_are_encoded_once_per_network_and_context() {
    let _turn = serial();
    let mut net = toy_mnist_like(14);
    let rig = Rig::new(&net, CkksParams::insecure_toy(7));
    let fast = LoweringProfile::Optimized;
    let input = rig.encrypt(&net, 7, fast);

    let before = encodes();
    let first = run(&rig, &net, &input, fast, 0.0);
    let built = encodes() - before;
    assert!(built > 0, "the first run encodes the operands");
    assert_eq!(net.plaintext_cache().cached_layers(), 3, "Cnv1, Fc1, Fc2");

    let before = encodes();
    let second = run(&rig, &net, &input, fast, 0.0);
    assert_eq!(encodes() - before, 0, "a second run encodes nothing");
    assert_eq!(first.logits, second.logits, "same operands, same arithmetic");

    // Another context (a different special prime): the set is rebuilt,
    // not reused, and rebuilt again on the way back.
    let other = Rig::new(&net, CkksParams::new(1024, 7, 30, 50).expect("valid params"));
    let other_input = other.encrypt(&net, 7, fast);
    let expected = net.forward(&synthetic_input(&net, 7)).into_data();
    for (rig, input) in [(&other, &other_input), (&rig, &input)] {
        let before = encodes();
        let r = run(rig, &net, input, fast, 0.0);
        assert_eq!(encodes() - before, built, "rebuilt under a changed context");
        assert!(max_diff(&r.logits, &expected) < 0.05);
    }

    // The cache is derived state: not cloned, not compared, dropped when
    // the layers may change.
    let copy = net.clone();
    assert_eq!(copy.plaintext_cache().cached_layers(), 0);
    assert_eq!(copy, net);
    let _ = net.layers_mut();
    assert_eq!(net.plaintext_cache().cached_layers(), 0);

    // The faithful path encodes per request and leaves the cache alone.
    let faithful = LoweringProfile::PaperFaithful;
    let input = rig.encrypt(&net, 7, faithful);
    let before = encodes();
    let _ = run(&rig, &net, &input, faithful, 0.0);
    assert!(encodes() - before > built);
    assert_eq!(net.plaintext_cache().cached_layers(), 0);
}
