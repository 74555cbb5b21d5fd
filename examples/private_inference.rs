//! The full privacy-preserving ML story on one page: train an
//! HE-friendly network on a synthetic task (plaintext, offline), budget
//! the noise analytically, serialize the client's keys and ciphertexts
//! over a simulated wire, run encrypted inference, and check the
//! decrypted classification against the plaintext network.
//!
//! Run with: `cargo run --release --example private_inference`

use fxhenn::ckks::noise::{square_step, NoiseEstimate};
use fxhenn::ckks::wire::{decode_ciphertext_v2, encode_ciphertext_v2};
use fxhenn::ckks::{CkksContext, CkksParams, Decryptor, Encryptor, KeyGenerator};
use fxhenn::nn::executor::{encrypt_input, HeCnnExecutor};
use fxhenn::nn::{
    accuracy, train, try_lower_network_with, LoweringProfile, SyntheticTask, TrainConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. Train (plaintext, offline — the server's job in MLaaS).
    println!("== 1. training an HE-friendly network on a synthetic task ==");
    let mut net = fxhenn::nn::toy_mnist_like(21);
    let task = SyntheticTask::new(net.input_shape(), 4, 0.15, 5);
    let before = accuracy(&net, &task, 300, 1);
    // Plain SGD on this square-activated net diverges at the default
    // learning rate of 0.02; half of it converges.
    let config = TrainConfig {
        learning_rate: 0.01,
        ..TrainConfig::default()
    };
    let loss = train(&mut net, &task, &config);
    let after = accuracy(&net, &task, 300, 1);
    println!("accuracy: {before:.1}% -> {after:.1}% (final loss {loss:.3})",
        before = before * 100.0, after = after * 100.0);

    // 2. Budget the noise before spending any compute.
    println!();
    println!("== 2. analytic noise budget (L = 7 toy parameters) ==");
    let params = CkksParams::insecure_toy(7);
    let ctx = CkksContext::new(params);
    let mut est = NoiseEstimate::fresh(&ctx);
    println!("fresh: {:.1} budget bits", est.budget_bits());
    for d in 1..=2 {
        est = square_step(&est, 2.0, &ctx).expect("depth 2 fits the L = 7 budget");
        println!("after square #{d}: {:.1} budget bits (level {})", est.budget_bits(), est.level);
    }

    // 3. Client side: keys + encrypted input over the wire.
    println!();
    println!("== 3. encrypt, serialize, ship ==");
    // The executor runs the optimized schedule; lower that one so the
    // plan below is the program actually executed.
    let prog =
        try_lower_network_with(&net, ctx.degree(), ctx.max_level(), LoweringProfile::Optimized)
            .expect("the toy network lowers");
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(33));
    let pk = kg.public_key();
    let sk = kg.secret_key();
    let rk = kg.relin_key();
    let gks = kg.galois_keys(&prog.required_rotations());

    let mut rng = StdRng::seed_from_u64(77);
    let (image, label) = task.sample(&mut rng);
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(34));
    let input = encrypt_input(&net, &image, &mut enc, ctx.degree() / 2);
    let wire_bytes: usize = input
        .groups
        .iter()
        .flatten()
        .map(|ct| encode_ciphertext_v2(ct).len())
        .sum();
    println!(
        "{} input ciphertexts, {:.1} KB on the wire (true label: class {label})",
        input.groups.iter().map(|g| g.len()).sum::<usize>(),
        wire_bytes as f64 / 1024.0
    );
    // Round-trip one ciphertext through the wire format.
    let sample = &input.groups[0][0];
    let frame = encode_ciphertext_v2(sample);
    assert_eq!(
        decode_ciphertext_v2(frame.as_bytes())
            .expect("wire format")
            .to_owned_ciphertext(),
        *sample
    );

    // 4. Server side: blind inference.
    println!();
    println!("== 4. encrypted inference ==");
    let mut exec = HeCnnExecutor::new(&ctx, &rk, &gks);
    exec.start_trace();
    let out = exec.run(&net, &input);
    let trace = exec.take_trace().expect("traced");
    println!(
        "executed {} HOPs ({} KeySwitches) — plan said {} HOPs",
        trace.hop_count(),
        trace.key_switch_count(),
        prog.hop_count()
    );

    // 5. Client decrypts.
    println!();
    println!("== 5. decrypt & verify ==");
    let dec = Decryptor::new(&ctx, sk);
    let logits = out.decrypt(&dec);
    let he_class = logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("non-empty");
    let plain_class = net.forward(&image).argmax();
    println!("HE logits: {logits:.3?}");
    println!("HE class = {he_class}, plaintext class = {plain_class}, true = {label}");
    assert_eq!(he_class, plain_class, "encrypted inference must agree");
    println!("encrypted and plaintext inference agree ✔");
}
