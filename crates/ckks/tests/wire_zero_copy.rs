//! The zero-copy claim of the v2 wire layout, held by the process-global
//! wire counters: an aligned ciphertext frame decodes without copying a
//! residue byte, a misaligned one (or any frame under
//! `FXHENN_WIRE_FORCE_COPY=1`) copies exactly its body once, and every
//! encode adds its frame length to `fxhenn_wire_encoded_bytes_total`.
//!
//! The counters are process-wide, so this file holds one test and no
//! other wire traffic: each delta it reads is its own.

use fxhenn_ckks::wire::{
    decode_ciphertext_v2, encode_ciphertext_v2, encoded_len_ciphertext_v2, V2_HEADER_LEN,
};
use fxhenn_ckks::{
    copy_fallback_forced, register_wire_metrics, CkksContext, CkksParams, Encryptor, KeyGenerator,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A toy ring, a mid one, and the MNIST ring at serving depth.
const POINTS: [(usize, usize); 3] = [(1024, 2), (4096, 3), (8192, 4)];

/// How far `name` moved while `f` ran, and what `f` returned.
fn delta<T>(name: &str, f: impl FnOnce() -> T) -> (u64, T) {
    let counter = fxhenn_obs::global().counter(name);
    let before = counter.value();
    let out = f();
    (counter.value() - before, out)
}

#[test]
fn aligned_decodes_copy_nothing_and_encodes_count_their_frames() {
    register_wire_metrics();
    let forced = copy_fallback_forced();
    for (n, levels) in POINTS {
        let ctx = CkksContext::new(CkksParams::new(n, levels, 30, 45).expect("valid point"));
        let pk = KeyGenerator::new(&ctx, StdRng::seed_from_u64(n as u64)).public_key();
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(levels as u64));
        let ct = enc.encrypt(&[0.5, -1.25, 3.0]);

        let (encoded, frame) =
            delta("fxhenn_wire_encoded_bytes_total", || encode_ciphertext_v2(&ct));
        assert_eq!(frame.len(), encoded_len_ciphertext_v2(&ct));
        assert_eq!(encoded, frame.len() as u64, "(N={n}, L={levels}) encode");
        let body = (frame.len() - V2_HEADER_LEN) as u64;

        let (copied, ()) = delta("fxhenn_wire_copied_bytes_total", || {
            let view = decode_ciphertext_v2(frame.as_bytes()).expect("valid frame");
            assert_eq!(view.is_zero_copy(), !forced);
            assert_eq!(view.to_owned_ciphertext(), ct);
        });
        let expected = if forced { body } else { 0 };
        assert_eq!(copied, expected, "(N={n}, L={levels}) aligned decode");

        // One byte past a word boundary: the borrowed path is impossible.
        let mut shifted = vec![0u8; frame.len() + 1];
        shifted[1..].copy_from_slice(frame.as_bytes());
        let (copied, ()) = delta("fxhenn_wire_copied_bytes_total", || {
            let view = decode_ciphertext_v2(&shifted[1..]).expect("valid frame");
            assert!(!view.is_zero_copy());
        });
        assert_eq!(copied, body, "(N={n}, L={levels}) misaligned decode");
    }
}
