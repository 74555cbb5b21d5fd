//! Two performance guards. They time things, so they are `#[ignore]`d
//! and meant for an optimised build:
//!
//! ```sh
//! cargo test --release -p fxhenn --test perf_guards -- --ignored
//! ```
//!
//! * Telemetry is effectively free: the mul → relinearize → rescale →
//!   rotate chain at the paper's MNIST ring degree costs at most 3 % more
//!   with tracing and span timing on than with both off.
//! * Threads cost no more than they save: that chain and a toy HE-CNN
//!   inference under `Threads(3)` cost at most 1.25× their `Serial`
//!   time, and both of the chain's key switches really spawn.
//!
//! Each guard reads the median of paired ratios: the two sides' calls
//! alternate, so both see the same state of the host, and a stall that
//! slows a few calls cannot move the verdict. The telemetry guard runs
//! both sides `Serial`: thread-spawn jitter on a shared host would
//! otherwise swamp a 3 % bound.

use fxhenn::ckks::{
    Ciphertext, CkksContext, CkksParams, Encryptor, Evaluator, GaloisKeys, KeyGenerator, RelinKey,
};
use fxhenn::math::par::{self, Parallelism};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Each guard times one configuration against another; a second guard
/// running at the same time would load one side and not the other.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The chain's ring degree (FxHENN-MNIST's) and level count.
const N: usize = 8192;
const L: usize = 4;

struct Chain {
    ctx: CkksContext,
    a: Ciphertext,
    b: Ciphertext,
    rk: RelinKey,
    gks: GaloisKeys,
}

fn chain() -> Chain {
    let ctx = CkksContext::new(CkksParams::new(N, L, 30, 45).expect("valid parameters"));
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(5));
    let pk = kg.public_key();
    let rk = kg.relin_key();
    let gks = kg.galois_keys(&[1]);
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(6));
    let values: Vec<f64> = (0..64).map(|i| f64::from(i) / 17.0).collect();
    let a = enc.encrypt(&values);
    let b = enc.encrypt(&values);
    Chain { ctx, a, b, rk, gks }
}

/// One mul → relinearize → rescale → rotate pass.
fn run_chain(ev: &mut Evaluator, c: &Chain) {
    let tri = ev.mul(&c.a, &c.b).expect("mul");
    let lin = ev.relinearize(&tri, &c.rk).expect("relinearize");
    let rs = ev.rescale(&lin).expect("rescale");
    black_box(ev.rotate(&rs, 1, &c.gks).expect("rotate"));
}

/// Seconds taken by one call of `f`.
fn seconds(f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// The median over `pairs` pairs of calls of `b`'s time over `a`'s,
/// after one untimed call of each. The two calls of a pair run back to
/// back, in turn first, so both see the same state of the host; a stall
/// that slows one pair moves the median by at most one rank.
fn median_ratio(pairs: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> f64 {
    a();
    b();
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|i| {
            if i % 2 == 0 {
                let ta = seconds(&mut a);
                seconds(&mut b) / ta
            } else {
                let tb = seconds(&mut b);
                tb / seconds(&mut a)
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[pairs / 2]
}

#[test]
#[ignore = "timing guard: run in release with --ignored"]
fn telemetry_costs_at_most_three_percent_on_the_hot_chain() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let c = chain();
    // One evaluator serves both sides, so both run on the same scratch
    // buffers; the instrumented side switches tracing and spans on for
    // its call and off again.
    let ev = RefCell::new(Evaluator::new(&c.ctx));
    let ratio = par::with_parallelism(Parallelism::Serial, || {
        median_ratio(
            31,
            || run_chain(&mut ev.borrow_mut(), &c),
            || {
                let mut ev = ev.borrow_mut();
                ev.start_trace();
                ev.start_spans();
                run_chain(&mut ev, &c);
                black_box((ev.take_trace(), ev.take_spans()));
            },
        )
    });
    println!("chain (N={N}, L={L}): traced over plain, median {ratio:.4}");
    assert!(
        ratio <= 1.03,
        "telemetry overhead {:.2} % exceeds 3 %",
        (ratio - 1.0) * 100.0
    );
}

#[cfg(feature = "parallel")]
#[test]
#[ignore = "timing guard: run in release with --ignored"]
fn threads_cost_at_most_a_quarter_more_than_serial() {
    use fxhenn::nn::executor::{encrypt_input, HeCnnExecutor};
    use fxhenn::nn::{synthetic_input, toy_mnist_like, try_lower_network_with, LoweringProfile};

    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let threads = Parallelism::Threads(3);

    // The chain's key switches (relinearize at level L, rotate at L − 1)
    // fan their target limbs out at the grain `inner_product_mod_down`
    // plans with; both must spawn, or the guard compares inline code with
    // inline code.
    let c = chain();
    for level in [L, L - 1] {
        let limbs = level + c.ctx.special_moduli().len();
        let grain = c.ctx.active_digits(level) * par::grain_ntt(N);
        let width = par::with_parallelism(threads, || par::planned_threads(limbs, grain));
        assert!(
            width >= 2,
            "the level-{level} key switch plans {width} thread(s)"
        );
    }
    let ev = RefCell::new(Evaluator::new(&c.ctx));
    let run = |mode| par::with_parallelism(mode, || run_chain(&mut ev.borrow_mut(), &c));
    let chain = median_ratio(31, || run(Parallelism::Serial), || run(threads));

    let net = toy_mnist_like(15);
    let ctx = CkksContext::new(CkksParams::insecure_toy(7));
    let program = try_lower_network_with(
        &net,
        ctx.degree(),
        ctx.max_level(),
        LoweringProfile::Optimized,
    )
    .expect("the toy network lowers");
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(31));
    let pk = kg.public_key();
    let rk = kg.relin_key();
    let gks = kg.galois_keys(&program.required_rotations());
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(32));
    let input = encrypt_input(&net, &synthetic_input(&net, 7), &mut enc, ctx.degree() / 2);
    let infer = |mode| {
        par::with_parallelism(mode, || {
            let mut exec = HeCnnExecutor::new(&ctx, &rk, &gks);
            black_box(exec.run(&net, &input));
        })
    };
    let inference = median_ratio(9, || infer(Parallelism::Serial), || infer(threads));

    for (what, ratio) in [
        (format!("chain (N={N}, L={L})"), chain),
        ("toy MNIST inference".into(), inference),
    ] {
        println!("{what}: Threads(3) over Serial, median {ratio:.3}");
        assert!(
            ratio <= 1.25,
            "{what} is {ratio:.3}× slower under Threads(3) than serial"
        );
    }
}
