//! `ct_matmul` and `sign_relu`: the two composite HE kernels. Both lean
//! on the key-switch core, in different ways — rotations of one
//! ciphertext against relinearisation at falling levels — so a change
//! to that core must show on one and leave the other flat.

use crate::trace::{median, Tracer};
use crate::workload::{max_abs_diff, put, Metrics, OpMeter, OpReport, Shape, Workload};
use fxhenn::ckks::{
    ct_matmul, decode_block, encode_block, matmul_block_dim, matmul_reference, relu_approx,
    relu_depth, required_rotations, sign_reference, Ciphertext, CkksContext, CkksParams, Decryptor,
    Encryptor, Evaluator, GaloisKeys, HeOpKind, KeyGenerator, PublicKey, RelinKey, SecretKey,
    SignPreset, MATMUL_DEPTH,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Context and keys of one kernel workload.
struct Rig {
    ctx: CkksContext,
    public: PublicKey,
    secret: SecretKey,
    relin: RelinKey,
    galois: GaloisKeys,
    seed: u64,
}

impl Rig {
    fn new(degree: usize, levels: usize, rotations: &[usize], seed: u64) -> Result<Self, String> {
        let params = CkksParams::new(degree, levels, 30, 45).map_err(|e| e.to_string())?;
        let ctx = CkksContext::new(params);
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(seed));
        let public = kg.public_key();
        let relin = kg.relin_key();
        let galois = kg.galois_keys(rotations);
        let secret = kg.secret_key();
        Ok(Self {
            ctx,
            public,
            secret,
            relin,
            galois,
            seed,
        })
    }

    fn slots(&self) -> usize {
        self.ctx.degree() / 2
    }

    /// Inputs of operation `index`: a value generator and an encryptor,
    /// both seeded from the run's seed and the index.
    fn inputs(&self, index: u64) -> (StdRng, Encryptor<'_, StdRng>) {
        let mix = self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (
            StdRng::seed_from_u64(mix),
            Encryptor::new(&self.ctx, self.public.clone(), StdRng::seed_from_u64(!mix)),
        )
    }

    fn decrypt(&self, ct: &Ciphertext) -> Vec<f64> {
        Decryptor::new(&self.ctx, self.secret.clone()).decrypt(ct)
    }
}

/// Busy time and count of one op kind, summed over traced operations.
#[derive(Default)]
struct KindTotals {
    ops: u64,
    busy_s: f64,
}

impl KindTotals {
    fn add(&mut self, (ops, busy_s): (u64, f64)) {
        self.ops += ops;
        self.busy_s += busy_s;
    }
}

/// Largest entry error a block product may show against
/// `matmul_reference`.
const MATMUL_MAX_ERR: f64 = 1e-2;

pub struct CtMatmul {
    rig: Rig,
    dim: usize,
    traced_ops: u64,
    rotate: KindTotals,
}

impl CtMatmul {
    pub fn setup(seed: u64, shape: Shape) -> Result<Self, String> {
        let degree = match shape {
            Shape::Full => 4096,
            Shape::Tiny => 512,
        };
        let dim = matmul_block_dim(degree);
        let rig = Rig::new(
            degree,
            MATMUL_DEPTH + 2,
            &required_rotations(dim, degree / 2),
            seed,
        )?;
        Ok(Self {
            rig,
            dim,
            traced_ops: 0,
            rotate: KindTotals::default(),
        })
    }
}

impl Workload for CtMatmul {
    fn warmup(&self) -> u64 {
        2
    }

    fn op(&mut self, index: u64, tr: &mut Tracer) -> OpReport {
        let (d, slots) = (self.dim, self.rig.slots());
        let (mut rng, mut enc) = self.rig.inputs(index);
        let mut matrix = || -> Vec<f64> { (0..d * d).map(|_| rng.gen_range(-0.5..0.5)).collect() };
        let (a, b) = (matrix(), matrix());
        let ct_a = enc.encrypt(&encode_block(&a, d, slots));
        let ct_b = enc.encrypt(&encode_block(&b, d, slots));
        let mut ev = Evaluator::new(&self.rig.ctx);

        let meter = tr.enabled().then(OpMeter::start);
        let started = Instant::now();
        let span = tr.enter("ckks.ct_matmul", index);
        let product = ct_matmul(&mut ev, &ct_a, &ct_b, &self.rig.relin, &self.rig.galois, d);
        tr.exit(span);
        let wall_s = started.elapsed().as_secs_f64();
        if let Some(meter) = meter {
            self.traced_ops += 1;
            self.rotate.add(meter.delta(HeOpKind::Rotate));
        }

        let verdict = product.map_err(|e| e.to_string()).and_then(|ct| {
            let got = decode_block(&self.rig.decrypt(&ct), d);
            let err = max_abs_diff(&got, &matmul_reference(&a, &b, d));
            if err < MATMUL_MAX_ERR {
                Ok(())
            } else {
                Err(format!(
                    "max entry error {err:.3e} is not below {MATMUL_MAX_ERR}"
                ))
            }
        });
        OpReport::single(wall_s, verdict, "ct_matmul op")
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("ring_degree", self.rig.ctx.degree() as f64),
            ("levels", self.rig.ctx.max_level() as f64),
            ("block_dim", self.dim as f64),
            ("galois_keys", self.rig.galois.len() as f64),
        ]
    }

    fn layer_metrics(&mut self, tr: &mut Tracer, out: &mut Metrics) {
        let ops = tr.seconds_of("ckks.ct_matmul");
        let n = self.traced_ops.max(1) as f64;
        put(out, "ckks.ct_matmul_s", median(&ops), "s", ops.len());
        put(
            out,
            "ckks.ct_matmul.rotations",
            self.rotate.ops as f64 / n,
            "count",
            ops.len(),
        );
        put(
            out,
            "ckks.ct_matmul.rotate_busy_s",
            self.rotate.busy_s / n,
            "s",
            ops.len(),
        );
    }
}

const RELU_PRESET: SignPreset = SignPreset::Low;

pub struct SignRelu {
    rig: Rig,
    traced_ops: u64,
    relinearize: KindTotals,
    rescale: KindTotals,
}

impl SignRelu {
    pub fn setup(seed: u64, shape: Shape) -> Result<Self, String> {
        let degree = match shape {
            Shape::Full => 4096,
            Shape::Tiny => 512,
        };
        // `relu_approx` wants two levels of headroom under its depth.
        let rig = Rig::new(degree, relu_depth(RELU_PRESET) + 2, &[], seed)?;
        Ok(Self {
            rig,
            traced_ops: 0,
            relinearize: KindTotals::default(),
            rescale: KindTotals::default(),
        })
    }
}

impl Workload for SignRelu {
    fn warmup(&self) -> u64 {
        5
    }

    fn op(&mut self, index: u64, tr: &mut Tracer) -> OpReport {
        let (mut rng, mut enc) = self.rig.inputs(index);
        // Values outside the sign approximation's dead band, where the
        // preset's error bound holds.
        let floor = RELU_PRESET.input_floor();
        let values: Vec<f64> = (0..self.rig.slots())
            .map(|_| {
                let magnitude = rng.gen_range(floor..1.0);
                if rng.gen::<bool>() {
                    magnitude
                } else {
                    -magnitude
                }
            })
            .collect();
        let ct = enc.encrypt(&values);
        let mut ev = Evaluator::new(&self.rig.ctx);

        let meter = tr.enabled().then(OpMeter::start);
        let started = Instant::now();
        let span = tr.enter("ckks.relu_approx", index);
        let activated = relu_approx(&mut ev, &ct, &self.rig.relin, RELU_PRESET, 1.0);
        tr.exit(span);
        let wall_s = started.elapsed().as_secs_f64();
        if let Some(meter) = meter {
            self.traced_ops += 1;
            self.relinearize.add(meter.delta(HeOpKind::Relinearize));
            self.rescale.add(meter.delta(HeOpKind::Rescale));
        }

        let verdict = activated.map_err(|e| e.to_string()).and_then(|ct| {
            let got = self.rig.decrypt(&ct);
            let circuit: Vec<f64> = values
                .iter()
                .map(|&x| x * (1.0 + sign_reference(x, RELU_PRESET)) / 2.0)
                .collect();
            let relu: Vec<f64> = values.iter().map(|&x| x.max(0.0)).collect();
            let (vs_circuit, vs_relu) = (max_abs_diff(&got, &circuit), max_abs_diff(&got, &relu));
            if vs_circuit >= RELU_CIRCUIT_MAX_ERR {
                Err(format!(
                    "strays {vs_circuit:.3e} from the plaintext circuit"
                ))
            } else if vs_relu >= RELU_PRESET.error_bound() {
                Err(format!("strays {vs_relu:.3e} from max(x, 0)"))
            } else {
                Ok(())
            }
        });
        OpReport::single(wall_s, verdict, "sign_relu op")
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("ring_degree", self.rig.ctx.degree() as f64),
            ("levels", self.rig.ctx.max_level() as f64),
            ("sign_depth", RELU_PRESET.depth() as f64),
        ]
    }

    fn layer_metrics(&mut self, tr: &mut Tracer, out: &mut Metrics) {
        let ops = tr.seconds_of("ckks.relu_approx");
        let n = self.traced_ops.max(1) as f64;
        put(out, "ckks.relu_approx_s", median(&ops), "s", ops.len());
        put(
            out,
            "ckks.relu.relinearizations",
            self.relinearize.ops as f64 / n,
            "count",
            ops.len(),
        );
        put(
            out,
            "ckks.relu.relinearize_busy_s",
            self.relinearize.busy_s / n,
            "s",
            ops.len(),
        );
        put(
            out,
            "ckks.relu.rescale_busy_s",
            self.rescale.busy_s / n,
            "s",
            ops.len(),
        );
    }
}

/// Largest slot error `relu_approx` may show against the same
/// polynomial evaluated in plaintext (what the HE noise adds).
const RELU_CIRCUIT_MAX_ERR: f64 = 0.02;
