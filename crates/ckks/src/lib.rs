//! # fxhenn-ckks
//!
//! A from-scratch implementation of the RNS-CKKS fully homomorphic
//! encryption scheme (Cheon–Kim–Kim–Song with the full-RNS variant of
//! Cheon–Han–Kim–Kim–Song), providing every HE operation the FxHENN
//! accelerator implements in hardware: CCadd/PCadd (OP1), PCmult (OP2),
//! CCmult (OP3), Rescale (OP4) and KeySwitch — Relinearize and Rotate —
//! (OP5).
//!
//! Key switching uses the hybrid construction with per-prime digits and a
//! single special prime, so one key serves ciphertexts at every level up
//! to its own — the property behind the paper's inter-layer KeySwitch
//! module reuse, and the reason a Galois key need only reach the highest
//! level it is used at.
//!
//! ## Example
//!
//! ```
//! use fxhenn_ckks::{CkksContext, CkksParams, Decryptor, Encryptor, Evaluator, KeyGenerator};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let ctx = CkksContext::new(CkksParams::insecure_toy(3));
//! let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(7));
//! let pk = kg.public_key();
//! let sk = kg.secret_key();
//!
//! let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(8));
//! let dec = Decryptor::new(&ctx, sk);
//! let mut ev = Evaluator::new(&ctx);
//!
//! let ct = enc.encrypt(&[1.0, 2.0, 3.0]);
//! let doubled = ev.add(&ct, &ct).expect("matching scales");
//! let out = dec.decrypt(&doubled);
//! assert!((out[1] - 4.0).abs() < 1e-2);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod canary;
pub mod cipher;
pub mod error;
pub mod context;
pub mod encoding;
pub mod encrypt;
pub mod eval;
pub mod keys;
pub mod linalg;
pub mod matmul;
pub mod noise;
pub mod params;
pub mod security;
pub mod sgn;
pub mod telemetry;
pub mod trace;
pub mod wire;

pub use canary::{Canary, DEFAULT_CANARY_MARGIN, DEFAULT_CANARY_SLOTS};
pub use cipher::{Ciphertext, Plaintext};
pub use context::CkksContext;
pub use encoding::CkksEncoder;
pub use encrypt::{Decryptor, Encryptor, SymmetricEncryptor};
pub use error::EvalError;
pub use eval::{EvalOps, Evaluator, HoistedDigits};
pub use linalg::{LinearSchedule, LinearTransform};
pub use matmul::{
    ct_matmul, decode_block, encode_block, matmul_reference, required_rotations, MATMUL_DEPTH,
};
pub use keys::{
    GaloisKeys, KeyGenerator, KeySwitchKey, PublicKey, RelinKey, RotationSet, SecretKey,
};
pub use noise::{NoiseEstimate, NoiseModel};
pub use params::{CkksParams, ParamsError};
pub use security::{estimate_security, SecurityLevel};
pub use telemetry::{
    register_he_metrics, register_noise_metrics, register_wire_metrics, OpSpanLog,
};
pub use sgn::{
    align_scale, argmax_depth, encrypted_argmax, max_pool2, max_pool2_depth, record_relu_approx,
    relu_approx, relu_depth, relu_min_level, sign, sign_reference, sign_reference_with_bound,
    sign_with_bound, ScoredClass, SignPreset,
};
pub use trace::{
    bsgs_rotations, matmul_block_dim, ntt_mults, HeOpKind, HeOpRecord, OpSpec, OpTrace,
    OP_REGISTRY,
};
pub use wire::{
    content_checksum, copy_fallback_forced, decode_ciphertext_v2, decode_galois_keys_checksummed,
    decode_galois_keys_v2, decode_plaintext_v2, decode_public_key_checksummed,
    decode_public_key_v2, decode_relin_key_checksummed, decode_relin_key_v2,
    encode_ciphertext_v2, encode_galois_keys_v2, encode_plaintext_v2, encode_public_key_v2,
    encode_relin_key_v2, open_checksummed, seal_checksummed_v2, AlignedBytes, CiphertextView,
    DecodeError, GaloisKeysView, KskRef, LimbsRef, MappedFrame, PlaintextView, PublicKeyView,
    RelinKeyView,
};
