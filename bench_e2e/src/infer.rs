//! One encrypted inference, split where a deployment splits it: the
//! client encrypts and frames, the server ingests the frames in place,
//! runs the network and frames the result, the client decrypts.
//! `mnist_paper` runs both halves on one thread; `serve_toy` runs the
//! server half inside the batch driver's workers.

use fxhenn::ckks::wire::{encode_ciphertext_v2, AlignedBytes};
use fxhenn::ckks::{
    CkksContext, CkksParams, Decryptor, Encryptor, KeyGenerator, OpSpanLog, OpTrace, SecretKey,
};
use fxhenn::nn::executor::{try_encrypt_input, EncryptedInput, EncryptedOutput, HeCnnExecutor};
use fxhenn::nn::{
    lower_network, synthetic_input, CtLayout, HeCnnProgram, LayerSpanLog, Network, Tensor,
};
use fxhenn::{ingest_ciphertext, push_frame, FrameCursor, ModelCache, VerifiedModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Everything both halves of an inference need. The server half reads
/// only `net`, `ctx` and `keys`; `secret` stays with the client.
pub struct Model {
    pub net: Network,
    pub ctx: CkksContext,
    pub keys: VerifiedModel,
    pub secret: SecretKey,
    pub program: HeCnnProgram,
    /// Noise floor handed to the executor, in budget bits.
    pub noise_floor_bits: f64,
}

/// How long the two `ModelCache` calls of a set-up took.
pub struct CacheTimes {
    pub generate_s: f64,
    pub verify_s: f64,
}

impl Model {
    /// Lowers `net`, generates its keys into a [`ModelCache`], and loads
    /// them back through the cache's integrity checks — the path a
    /// serving worker is built from.
    pub fn build(
        net: Network,
        params: CkksParams,
        key_seed: u64,
        noise_floor_bits: f64,
    ) -> Result<(Self, CacheTimes), String> {
        let program = lower_network(&net, params.degree(), params.levels());
        let mut cache = ModelCache::new();
        let started = Instant::now();
        cache.generate(
            net.name(),
            params.clone(),
            &program.required_rotations(),
            key_seed,
        );
        let generate_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let keys = cache.verify(net.name())?;
        let verify_s = started.elapsed().as_secs_f64();
        let ctx = CkksContext::new(params);
        // The cache seeds its key generator the same way, so this is the
        // secret its public keys belong to.
        let secret = KeyGenerator::new(&ctx, StdRng::seed_from_u64(key_seed)).secret_key();
        Ok((
            Self {
                net,
                ctx,
                keys,
                secret,
                program,
                noise_floor_bits,
            },
            CacheTimes {
                generate_s,
                verify_s,
            },
        ))
    }

    pub fn slots(&self) -> usize {
        self.ctx.degree() / 2
    }

    /// Client: the input image of request `stream`. Images whose two best
    /// plaintext logits lie within [`MIN_CLASS_MARGIN`] are passed over:
    /// the random-weight networks put all logits close together, and a
    /// near-tie makes "same class" a coin toss under any HE noise.
    pub fn image(&self, stream: u64) -> Tensor {
        (0u64..)
            .map(|retry| {
                synthetic_input(
                    &self.net,
                    stream ^ retry.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
            })
            .find(|image| {
                let mut logits = self.net.forward(image).data().to_vec();
                logits.sort_by(|a, b| b.total_cmp(a));
                logits.len() < 2 || logits[0] - logits[1] >= MIN_CLASS_MARGIN
            })
            .expect("the retry stream is unbounded")
    }

    /// Client: encrypts `image` with the network's input packing.
    pub fn encrypt(&self, image: &Tensor, rng_seed: u64) -> Result<EncryptedInput, String> {
        let mut enc = Encryptor::new(
            &self.ctx,
            self.keys.public_key.clone(),
            StdRng::seed_from_u64(rng_seed),
        );
        try_encrypt_input(&self.net, image, &mut enc, self.slots()).map_err(|e| e.to_string())
    }

    /// Client: frames an encrypted input for the wire. The first frame
    /// lists the group sizes, then one v2 frame per ciphertext.
    pub fn frame_request(input: &EncryptedInput) -> AlignedBytes {
        let mut shape = Vec::with_capacity(8 * (1 + input.groups.len()));
        shape.extend_from_slice(&(input.groups.len() as u64).to_le_bytes());
        for group in &input.groups {
            shape.extend_from_slice(&(group.len() as u64).to_le_bytes());
        }
        let mut out = AlignedBytes::new();
        push_frame(&mut out, &shape);
        for ct in input.groups.iter().flatten() {
            push_frame(&mut out, encode_ciphertext_v2(ct).as_bytes());
        }
        out
    }

    /// Server: ingests a framed request in place, runs the network and
    /// frames the result. Touches no tracer, so it can run on any
    /// thread; the caller turns the returned stamps into spans.
    pub fn serve(&self, request: &[u8], record_ops: bool) -> Result<Served, String> {
        let start = Instant::now();
        let mut frames = FrameCursor::new(request);
        let shape = frames
            .next()
            .ok_or("empty request stream")?
            .map_err(|e| e.to_string())?;
        let mut sizes = shape
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")) as usize);
        let group_count = sizes.next().ok_or("request shape frame is empty")?;
        // A bad shape frame must not drive allocation: every ciphertext
        // it promises has to be present in the stream.
        let mut groups = Vec::new();
        for _ in 0..group_count {
            let len = sizes.next().ok_or("request shape frame is truncated")?;
            let mut group = Vec::new();
            for _ in 0..len {
                let payload = frames
                    .next()
                    .ok_or("request stream ended early")?
                    .map_err(|e| e.to_string())?;
                let view = ingest_ciphertext(&self.ctx, payload).map_err(|e| e.to_string())?;
                group.push(view.to_owned_ciphertext());
            }
            groups.push(group);
        }
        let ingested = Instant::now();

        let mut exec = HeCnnExecutor::new(&self.ctx, &self.keys.relin_key, &self.keys.galois_keys);
        exec.set_noise_floor_bits(self.noise_floor_bits);
        if record_ops {
            exec.start_trace();
            exec.start_spans();
            exec.start_layer_spans();
        }
        let output = exec
            .try_run(&self.net, &EncryptedInput { groups })
            .map_err(|e| e.to_string())?;
        let ran = Instant::now();

        let mut response = AlignedBytes::new();
        for ct in &output.cts {
            push_frame(&mut response, encode_ciphertext_v2(ct).as_bytes());
        }
        let end_budget_bits = output
            .cts
            .iter()
            .map(|ct| ct.budget_bits())
            .fold(f64::INFINITY, f64::min);
        Ok(Served {
            response,
            layout: output.layout,
            end_budget_bits,
            start,
            ingested,
            ran,
            done: Instant::now(),
            op_trace: exec.take_trace(),
            op_spans: exec.take_spans(),
            layer_spans: exec.take_layer_spans(),
        })
    }

    /// Client: ingests the framed result and decrypts the logits.
    pub fn decrypt(&self, response: &[u8], layout: &CtLayout) -> Result<Vec<f64>, String> {
        let mut cts = Vec::new();
        for payload in FrameCursor::new(response) {
            let payload = payload.map_err(|e| e.to_string())?;
            let view = ingest_ciphertext(&self.ctx, payload).map_err(|e| e.to_string())?;
            cts.push(view.to_owned_ciphertext());
        }
        if cts.len() < layout.ct_count() {
            return Err(format!(
                "response holds {} ciphertexts, layout needs {}",
                cts.len(),
                layout.ct_count()
            ));
        }
        let dec = Decryptor::new(&self.ctx, self.secret.clone());
        let output = EncryptedOutput {
            cts,
            layout: layout.clone(),
        };
        Ok(output.decrypt(&dec))
    }

    /// Compares decrypted logits with the plaintext network: max logit
    /// error below 0.05 and the same class.
    pub fn check(&self, got: &[f64], image: &Tensor) -> Result<f64, String> {
        let want = self.net.forward(image);
        if got.len() != want.data().len() {
            return Err(format!(
                "{} logits, expected {}",
                got.len(),
                want.data().len()
            ));
        }
        let err = crate::workload::max_abs_diff(got, want.data());
        if err >= MAX_LOGIT_ERR {
            return Err(format!(
                "max logit error {err:.3e} is not below {MAX_LOGIT_ERR}"
            ));
        }
        if crate::workload::argmax(got) != want.argmax() {
            return Err("decrypted class differs from the plaintext network's".into());
        }
        Ok(err)
    }
}

/// Largest logit error an inference may show against `Network::forward`.
pub const MAX_LOGIT_ERR: f64 = 0.05;
/// Smallest gap between the two best plaintext logits of a generated
/// input: a hundred times the logit error a correct run shows.
pub const MIN_CLASS_MARGIN: f64 = 1e-3;

/// What the server half hands back, with the stamps of its stages.
pub struct Served {
    pub response: AlignedBytes,
    pub layout: CtLayout,
    /// The evaluator's own estimate of the noise budget left in the
    /// output, in bits (the smallest over the output ciphertexts).
    pub end_budget_bits: f64,
    pub start: Instant,
    pub ingested: Instant,
    pub ran: Instant,
    pub done: Instant,
    pub op_trace: Option<OpTrace>,
    pub op_spans: Option<OpSpanLog>,
    pub layer_spans: Option<LayerSpanLog>,
}
