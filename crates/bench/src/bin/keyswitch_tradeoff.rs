//! Key-switching digit trade-off study (beyond the paper): the hybrid
//! scheme's `dnum` knob trades evaluation-key size against special-prime
//! overhead — the design space HEAX (the paper's module reference)
//! navigates. Measured on the real software implementation: key bytes on
//! the wire, rotate wall-clock, and decryption error.
//!
//! Run with: `cargo run --release -p fxhenn-bench --bin keyswitch_tradeoff`

use fxhenn::ckks::wire::encoded_len_relin_key_v2;
use fxhenn::ckks::{CkksContext, CkksParams, Decryptor, Encryptor, Evaluator, KeyGenerator};
use fxhenn_bench::header;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    header(
        "Hybrid key-switching digit trade-off (N=1024, L=6, software)",
        "Sec. II-A / HEAX design space",
    );
    println!(
        "{:>6} {:>10} {:>14} {:>14} {:>14} {:>12}",
        "dnum", "specials", "relin key(KB)", "rotate(ms)", "relin(ms)", "max err"
    );

    for dnum in [6usize, 3, 2, 1] {
        let params = CkksParams::insecure_toy(6)
            .with_key_switch_digits(dnum)
            .expect("valid");
        let ctx = CkksContext::new(params);
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(9));
        let pk = kg.public_key();
        let sk = kg.secret_key();
        let rk = kg.relin_key();
        let gks = kg.galois_keys(&[1]);
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(10));
        let dec = Decryptor::new(&ctx, sk);
        let mut ev = Evaluator::new(&ctx);

        let key_kb = encoded_len_relin_key_v2(&rk) as f64 / 1024.0;

        let values = [1.5f64, -2.0, 3.0, 0.5];
        let ct = enc.encrypt(&values);

        let t0 = Instant::now();
        let mut rot = ct.clone();
        for _ in 0..10 {
            rot = ev.rotate(&ct, 1, &gks).expect("bench rotate");
        }
        let rotate_ms = t0.elapsed().as_secs_f64() * 100.0; // per op

        let tri = ev.mul(&ct, &ct).expect("bench mul");
        let t1 = Instant::now();
        let mut lin = ev.relinearize(&tri, &rk).expect("bench relinearize");
        for _ in 0..9 {
            lin = ev.relinearize(&tri, &rk).expect("bench relinearize");
        }
        let relin_ms = t1.elapsed().as_secs_f64() * 100.0;

        let out = ev.rescale(&lin).expect("bench rescale");
        let got = dec.decrypt(&out);
        let err = values
            .iter()
            .zip(&got)
            .map(|(&v, &g)| (v * v - g).abs())
            .fold(0.0f64, f64::max);
        let _ = rot;
        println!(
            "{:>6} {:>10} {:>14.1} {:>14.3} {:>14.3} {:>12.2e}",
            dnum,
            ctx.special_moduli().len(),
            key_kb,
            rotate_ms,
            relin_ms,
            err
        );
    }
    println!();
    println!(
        "Fewer digits shrink the evaluation keys (fewer, larger components) at the \
         cost of more special primes in the extended basis; correctness holds at \
         every configuration (grouped_digits tests)."
    );
}
