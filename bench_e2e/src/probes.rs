//! Probes of the `math` and `ckks` layers' public functions at the
//! `mnist_paper` parameters, top level: the per-op numbers a traced run
//! reports beside the workload's own spans.

use crate::infer::Model;
use crate::trace::median;
use crate::workload::{put, Metrics, Shape};
use fxhenn::ckks::wire::{decode_ciphertext_v2, encode_ciphertext_v2, encoded_len_galois_keys_v2};
use fxhenn::ckks::{Decryptor, Encryptor, Evaluator, KeyGenerator};
use fxhenn::math::par::{self, Parallelism};
use fxhenn::obs::global;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Median wall time of `reps` separately timed calls, in nanoseconds.
fn time_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

pub fn math_and_ckks(model: &Model, seed: u64, shape: Shape, out: &mut Metrics) {
    let ctx = &model.ctx;
    let top = ctx.max_level();
    let (heavy, light) = match shape {
        Shape::Full => (5, 25),
        Shape::Tiny => (2, 4),
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x70_72_6f_62_65);

    // math: one forward and one inverse NTT over the first prime.
    let table = ctx.tables_at(1)[0];
    let q = table.modulus();
    let mut poly: Vec<u64> = (0..ctx.degree()).map(|_| rng.gen_range(0..q)).collect();
    put(
        out,
        "math.ntt_fwd_n8192_ns",
        time_ns(light * 8, || table.forward(&mut poly)),
        "ns",
        light * 8,
    );
    put(
        out,
        "math.ntt_inv_n8192_ns",
        time_ns(light * 8, || table.inverse(&mut poly)),
        "ns",
        light * 8,
    );
    // The threads `Auto` may fan out to, and whether this process's
    // one-shot calibration would let it spawn at all: the coin the
    // benchmark takes out of the measurement.
    let (threads, threshold) = par::with_parallelism(Parallelism::Auto, || {
        (par::effective_threads(), par::dispatch_threshold())
    });
    put(out, "math.threads", threads as f64, "count", 1);
    put(
        out,
        "math.auto_would_spawn",
        f64::from(u8::from(threshold != u64::MAX)),
        "count",
        1,
    );

    // ckks: key generation as the set-up pays it (the cache does the
    // same work and then seals it).
    let rotations = model.program.required_rotations();
    let started = Instant::now();
    let mut kg = KeyGenerator::new(ctx, StdRng::seed_from_u64(seed));
    let pk = kg.public_key();
    let rk = kg.relin_key();
    let gks = kg.galois_keys(&rotations);
    put(
        out,
        "ckks.keygen_s",
        started.elapsed().as_secs_f64(),
        "s",
        1,
    );
    put(
        out,
        "ckks.galois_keys_bytes",
        encoded_len_galois_keys_v2(&gks) as f64,
        "B",
        1,
    );
    let conj = kg.conjugation_key();

    let values: Vec<f64> = (0..ctx.degree() / 2)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let mut enc = Encryptor::new(ctx, pk, StdRng::seed_from_u64(seed ^ 1));
    let dec = Decryptor::new(ctx, kg.secret_key());
    let mut ev = Evaluator::new(ctx);
    let scale = ctx.params().scale();
    put(
        out,
        "ckks.encode_ns",
        time_ns(light, || ev.encode_at(&values, scale, top)),
        "ns",
        light,
    );
    put(
        out,
        "ckks.encrypt_ns",
        time_ns(light, || enc.encrypt(&values)),
        "ns",
        light,
    );
    let a = enc.encrypt(&values);
    let b = enc.encrypt(&values);
    put(
        out,
        "ckks.decrypt_ns",
        time_ns(light, || dec.decrypt(&a)),
        "ns",
        light,
    );
    put(
        out,
        "ckks.add_ns",
        time_ns(light, || ev.add(&a, &b)),
        "ns",
        light,
    );
    let pt = ev
        .encode_for_mul(&values, top)
        .expect("top level is in range");
    put(
        out,
        "ckks.mul_plain_ns",
        time_ns(light, || ev.mul_plain(&a, &pt)),
        "ns",
        light,
    );
    put(
        out,
        "ckks.mul_ns",
        time_ns(light, || ev.mul(&a, &b)),
        "ns",
        light,
    );
    let scaled = ev.mul_plain(&a, &pt).expect("plaintext product");
    put(
        out,
        "ckks.rescale_ns",
        time_ns(light, || ev.rescale(&scaled)),
        "ns",
        light,
    );
    let product = ev.mul(&a, &b).expect("ciphertext product");
    put(
        out,
        "ckks.relinearize_ns",
        time_ns(heavy, || ev.relinearize(&product, &rk)),
        "ns",
        heavy,
    );
    let step = rotations[0];
    put(
        out,
        "ckks.rotate_ns",
        time_ns(heavy, || ev.rotate(&a, step, &gks)),
        "ns",
        heavy,
    );
    put(
        out,
        "ckks.conjugate_ns",
        time_ns(heavy, || ev.conjugate(&a, &conj)),
        "ns",
        heavy,
    );
    // Eight rotations of one ciphertext: what hoisting the digit
    // decomposition would share.
    let steps: Vec<usize> = rotations.iter().copied().cycle().take(8).collect();
    let x8 = time_ns(heavy.min(3), || {
        for &s in &steps {
            black_box(
                ev.rotate(&a, s, &gks)
                    .expect("key was generated for this step"),
            );
        }
    });
    put(out, "ckks.rotate_x8_same_ct_ns", x8, "ns", heavy.min(3));

    // math: the mul → relinearize → rescale → rotate chain under the
    // library's default thread policy against the same chain inline
    // (1.0 by construction when `math.auto_would_spawn` is 0).
    let chain = |ev: &mut Evaluator<'_>| {
        let product = ev.mul(&a, &b)?;
        let lin = ev.relinearize(&product, &rk)?;
        let rs = ev.rescale(&lin)?;
        ev.rotate(&rs, step, &gks)
    };
    let reps = heavy.min(3);
    let (mut auto, mut serial) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        for (mode, samples) in [
            (Parallelism::Auto, &mut auto),
            (Parallelism::Serial, &mut serial),
        ] {
            samples.push(par::with_parallelism(mode, || {
                time_ns(1, || chain(&mut ev).expect("chain"))
            }));
        }
    }
    put(
        out,
        "math.auto_over_serial_chain",
        median(&auto) / median(&serial),
        "1",
        reps,
    );

    // ckks wire: one ciphertext out and back in, in place.
    put(
        out,
        "ckks.wire_encode_ct_ns",
        time_ns(light, || encode_ciphertext_v2(&a)),
        "ns",
        light,
    );
    let frame = encode_ciphertext_v2(&a);
    let copied = global().counter("fxhenn_wire_copied_bytes_total");
    let before = copied.value();
    let decode = time_ns(light, || {
        decode_ciphertext_v2(frame.as_bytes()).map(|view| view.level())
    });
    put(out, "ckks.wire_decode_ct_ns", decode, "ns", light);
    put(
        out,
        "ckks.wire_copied_bytes",
        (copied.value() - before) as f64,
        "B",
        light,
    );
}
