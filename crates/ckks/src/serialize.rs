//! Wire format for ciphertexts, plaintexts and key material.
//!
//! In the paper's deployment model the client encrypts locally and ships
//! ciphertexts (and one-time evaluation keys) to the accelerator host, so
//! a stable byte format is part of the system. The format is deliberately
//! simple: a 4-byte magic, a version byte, a type tag, then little-endian
//! integers — no external dependencies, fully self-describing for the
//! shapes involved.

use crate::cipher::{Ciphertext, Plaintext};
use crate::keys::{GaloisKeys, KeySwitchKey, PublicKey, RelinKey};
use fxhenn_math::poly::{Domain, RnsPoly};

pub(crate) const MAGIC: &[u8; 4] = b"FXHE";
const VERSION: u8 = 1;

/// Type tags of the serializable objects (shared with the v2 layout in
/// [`crate::wire`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tag {
    Ciphertext = 1,
    Plaintext = 2,
    PublicKey = 3,
    RelinKey = 4,
    GaloisKeys = 5,
}

/// Errors while decoding serialized material.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// The type tag does not match the requested object.
    WrongTag {
        /// Tag found in the buffer.
        found: u8,
        /// Tag required by the decoder that was called.
        expected: u8,
    },
    /// The buffer ended prematurely or carries inconsistent lengths.
    Truncated,
    /// A decoded field had an invalid value (e.g. zero degree).
    InvalidField(&'static str),
    /// A checksummed frame's content checksum did not match its payload.
    ChecksumMismatch {
        /// Checksum recorded in the frame.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => f.write_str("bad magic bytes"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::WrongTag { found, expected } => {
                write!(f, "wrong type tag {found}, expected {expected}")
            }
            DecodeError::Truncated => f.write_str("buffer truncated"),
            DecodeError::InvalidField(what) => write!(f, "invalid field: {what}"),
            DecodeError::ChecksumMismatch { stored, computed } => write!(
                f,
                "content checksum mismatch: frame says {stored:#018x}, payload hashes to {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// v1 header length in bytes: magic + version + tag.
const V1_HEADER_LEN: usize = 6;

fn poly_encoded_len(p: &RnsPoly) -> usize {
    3 * 8 + 8 * p.level_count() * p.degree()
}

fn ksk_encoded_len(ksk: &KeySwitchKey) -> usize {
    8 + ksk
        .digits
        .iter()
        .map(|(b, a)| poly_encoded_len(b) + poly_encoded_len(a))
        .sum::<usize>()
}

/// Exact v1 encoding size of a ciphertext in bytes.
pub fn encoded_len_ciphertext(ct: &Ciphertext) -> usize {
    V1_HEADER_LEN + 2 * 8 + ct.polys().iter().map(poly_encoded_len).sum::<usize>()
}

/// Exact v1 encoding size of a plaintext in bytes.
pub fn encoded_len_plaintext(pt: &Plaintext) -> usize {
    V1_HEADER_LEN + 8 + poly_encoded_len(pt.poly())
}

/// Exact v1 encoding size of a public key in bytes.
pub fn encoded_len_public_key(pk: &PublicKey) -> usize {
    V1_HEADER_LEN + poly_encoded_len(&pk.b) + poly_encoded_len(&pk.a)
}

/// Exact v1 encoding size of a relinearization key in bytes.
pub fn encoded_len_relin_key(rk: &RelinKey) -> usize {
    V1_HEADER_LEN + ksk_encoded_len(&rk.0)
}

/// Exact v1 encoding size of a Galois key set in bytes.
pub fn encoded_len_galois_keys(gks: &GaloisKeys) -> usize {
    V1_HEADER_LEN
        + 8
        + gks
            .exponents()
            .iter()
            .map(|&g| 8 + ksk_encoded_len(gks.key(g).expect("listed exponent")))
            .sum::<usize>()
}

struct Writer {
    buf: Vec<u8>,
    cap0: usize,
    expected_len: usize,
}

impl Writer {
    /// Starts a frame pre-sized to the exact `encoded_len` of the object
    /// being written, so serialization never reallocates (debug-asserted
    /// in [`Writer::finish`]).
    fn new(tag: Tag, total_len: usize) -> Self {
        let mut buf = Vec::with_capacity(total_len);
        let cap0 = buf.capacity();
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION);
        buf.push(tag as u8);
        Self {
            buf,
            cap0,
            expected_len: total_len,
        }
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn poly(&mut self, p: &RnsPoly) {
        self.u64(p.degree() as u64);
        self.u64(p.level_count() as u64);
        self.u64(match p.domain() {
            Domain::Coeff => 0,
            Domain::Ntt => 1,
        });
        for i in 0..p.level_count() {
            for &c in p.component(i) {
                self.u64(c);
            }
        }
    }

    fn finish(self) -> Vec<u8> {
        debug_assert_eq!(self.buf.len(), self.expected_len, "encoded_len was inexact");
        debug_assert_eq!(
            self.buf.capacity(),
            self.cap0,
            "encode buffer reallocated despite exact pre-sizing"
        );
        crate::telemetry::wire_metrics()
            .encoded_bytes
            .add(self.buf.len() as u64);
        self.buf
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], expected: Tag) -> Result<Self, DecodeError> {
        if buf.len() < 6 {
            return Err(DecodeError::Truncated);
        }
        if &buf[..4] != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        if buf[4] != VERSION {
            return Err(DecodeError::BadVersion(buf[4]));
        }
        if buf[5] != expected as u8 {
            return Err(DecodeError::WrongTag {
                found: buf[5],
                expected: expected as u8,
            });
        }
        Ok(Self { buf, pos: 6 })
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let end = self.pos.checked_add(8).ok_or(DecodeError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn poly(&mut self) -> Result<RnsPoly, DecodeError> {
        let n = self.u64()? as usize;
        if n == 0 || !n.is_power_of_two() || n > (1 << 20) {
            return Err(DecodeError::InvalidField("degree"));
        }
        let levels = self.u64()? as usize;
        if levels == 0 || levels > 64 {
            return Err(DecodeError::InvalidField("level count"));
        }
        let domain = match self.u64()? {
            0 => Domain::Coeff,
            1 => Domain::Ntt,
            _ => return Err(DecodeError::InvalidField("domain")),
        };
        let mut residues = Vec::with_capacity(levels);
        for _ in 0..levels {
            let mut comp = Vec::with_capacity(n);
            for _ in 0..n {
                comp.push(self.u64()?);
            }
            residues.push(comp);
        }
        Ok(RnsPoly::from_residues(residues, domain))
    }

    fn done(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::InvalidField("trailing bytes"))
        }
    }
}

/// True when `buf` carries a well-formed magic and the v2 version byte:
/// the public v1 decoders dispatch such buffers to the aligned layout in
/// [`crate::wire`] and upgrade the resulting view into owned objects, so
/// existing callers transparently read both versions.
fn is_v2_frame(buf: &[u8]) -> bool {
    buf.len() >= V1_HEADER_LEN && &buf[..4] == MAGIC && buf[4] == crate::wire::VERSION_V2
}

/// Records an owned (v1-style) decode: every byte of the frame was
/// materialized into fresh allocations.
fn note_owned_decode(bytes: usize) {
    let m = crate::telemetry::wire_metrics();
    m.decoded_bytes.add(bytes as u64);
    m.copied_bytes.add(bytes as u64);
}

/// Serializes a ciphertext.
pub fn encode_ciphertext(ct: &Ciphertext) -> Vec<u8> {
    let mut w = Writer::new(Tag::Ciphertext, encoded_len_ciphertext(ct));
    w.f64(ct.scale());
    w.u64(ct.size() as u64);
    for p in ct.polys() {
        w.poly(p);
    }
    w.finish()
}

/// Deserializes a ciphertext.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input.
pub fn decode_ciphertext(buf: &[u8]) -> Result<Ciphertext, DecodeError> {
    if is_v2_frame(buf) {
        return Ok(crate::wire::decode_ciphertext_v2(buf)?.to_owned_ciphertext());
    }
    let mut r = Reader::new(buf, Tag::Ciphertext)?;
    let scale = r.f64()?;
    if !(scale.is_finite() && scale > 0.0) {
        return Err(DecodeError::InvalidField("scale"));
    }
    let size = r.u64()? as usize;
    if !(2..=3).contains(&size) {
        return Err(DecodeError::InvalidField("polynomial count"));
    }
    let polys = (0..size).map(|_| r.poly()).collect::<Result<Vec<_>, _>>()?;
    // Structural invariants `Ciphertext::new` would otherwise assert on:
    // a malformed buffer must decode to an error, never a panic.
    for p in &polys {
        if p.domain() != Domain::Ntt {
            return Err(DecodeError::InvalidField("ciphertext domain"));
        }
        if p.degree() != polys[0].degree() || p.level_count() != polys[0].level_count() {
            return Err(DecodeError::InvalidField("component shape"));
        }
    }
    r.done()?;
    note_owned_decode(buf.len());
    Ok(Ciphertext::new(polys, scale))
}

/// Serializes a plaintext.
pub fn encode_plaintext(pt: &Plaintext) -> Vec<u8> {
    let mut w = Writer::new(Tag::Plaintext, encoded_len_plaintext(pt));
    w.f64(pt.scale());
    w.poly(pt.poly());
    w.finish()
}

/// Deserializes a plaintext.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input.
pub fn decode_plaintext(buf: &[u8]) -> Result<Plaintext, DecodeError> {
    if is_v2_frame(buf) {
        return Ok(crate::wire::decode_plaintext_v2(buf)?.to_owned_plaintext());
    }
    let mut r = Reader::new(buf, Tag::Plaintext)?;
    let scale = r.f64()?;
    if !(scale.is_finite() && scale > 0.0) {
        return Err(DecodeError::InvalidField("scale"));
    }
    let poly = r.poly()?;
    if poly.domain() != Domain::Ntt {
        return Err(DecodeError::InvalidField("plaintext domain"));
    }
    r.done()?;
    note_owned_decode(buf.len());
    Ok(Plaintext::new(poly, scale))
}

/// Serializes a public key.
pub fn encode_public_key(pk: &PublicKey) -> Vec<u8> {
    let mut w = Writer::new(Tag::PublicKey, encoded_len_public_key(pk));
    w.poly(&pk.b);
    w.poly(&pk.a);
    w.finish()
}

/// Deserializes a public key.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input.
pub fn decode_public_key(buf: &[u8]) -> Result<PublicKey, DecodeError> {
    if is_v2_frame(buf) {
        return Ok(crate::wire::decode_public_key_v2(buf)?.to_owned_public_key());
    }
    let mut r = Reader::new(buf, Tag::PublicKey)?;
    let b = r.poly()?;
    let a = r.poly()?;
    r.done()?;
    note_owned_decode(buf.len());
    Ok(PublicKey { b, a })
}

fn write_ksk(w: &mut Writer, ksk: &KeySwitchKey) {
    w.u64(ksk.digits.len() as u64);
    for (b, a) in &ksk.digits {
        w.poly(b);
        w.poly(a);
    }
}

fn read_ksk(r: &mut Reader<'_>) -> Result<KeySwitchKey, DecodeError> {
    let n = r.u64()? as usize;
    if n == 0 || n > 64 {
        return Err(DecodeError::InvalidField("digit count"));
    }
    let mut digits = Vec::with_capacity(n);
    for _ in 0..n {
        let b = r.poly()?;
        let a = r.poly()?;
        digits.push((b, a));
    }
    Ok(KeySwitchKey { digits })
}

/// Serializes a relinearization key.
pub fn encode_relin_key(rk: &RelinKey) -> Vec<u8> {
    let mut w = Writer::new(Tag::RelinKey, encoded_len_relin_key(rk));
    write_ksk(&mut w, &rk.0);
    w.finish()
}

/// Deserializes a relinearization key.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input.
pub fn decode_relin_key(buf: &[u8]) -> Result<RelinKey, DecodeError> {
    if is_v2_frame(buf) {
        return Ok(crate::wire::decode_relin_key_v2(buf)?.to_owned_relin_key());
    }
    let mut r = Reader::new(buf, Tag::RelinKey)?;
    let ksk = read_ksk(&mut r)?;
    r.done()?;
    note_owned_decode(buf.len());
    Ok(RelinKey(ksk))
}

/// Serializes a set of Galois keys.
pub fn encode_galois_keys(gks: &GaloisKeys) -> Vec<u8> {
    let mut w = Writer::new(Tag::GaloisKeys, encoded_len_galois_keys(gks));
    let exps = gks.exponents();
    w.u64(exps.len() as u64);
    for g in exps {
        w.u64(g as u64);
        write_ksk(&mut w, gks.key(g).expect("listed exponent"));
    }
    w.finish()
}

/// Deserializes a set of Galois keys.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input.
pub fn decode_galois_keys(buf: &[u8]) -> Result<GaloisKeys, DecodeError> {
    if is_v2_frame(buf) {
        return Ok(crate::wire::decode_galois_keys_v2(buf)?.to_owned_galois_keys());
    }
    let mut r = Reader::new(buf, Tag::GaloisKeys)?;
    let n = r.u64()? as usize;
    if n > 4096 {
        return Err(DecodeError::InvalidField("key count"));
    }
    let mut keys = std::collections::HashMap::new();
    for _ in 0..n {
        let g = r.u64()? as usize;
        let ksk = read_ksk(&mut r)?;
        keys.insert(g, ksk);
    }
    r.done()?;
    note_owned_decode(buf.len());
    Ok(GaloisKeys::from_map(keys))
}

/// FNV-1a-style 64-bit content checksum, folding the buffer a
/// little-endian 64-bit word at a time (every v2 payload is a word
/// stream) and any tail bytewise. Each step is a bijection of the
/// running sum, so any change confined to one word changes the result.
/// Key frames run to ~100 MB and are summed on every model load; the
/// byte-at-a-time form was six times slower over them.
///
/// Not cryptographic — the threat model is transport corruption and
/// stale-cache bugs, not an adversary forging key material. A client
/// that needs authenticity must sign the frame separately.
pub fn content_checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    let mut h = OFFSET;
    for w in words {
        h ^= u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in tail {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Wraps an encoded buffer in a checksummed frame: the payload followed
/// by its 8-byte little-endian FNV-1a checksum. The inner v1 encoding is
/// unchanged, so existing decoders keep reading unframed buffers.
pub fn seal_checksummed(payload: Vec<u8>) -> Vec<u8> {
    let sum = content_checksum(&payload);
    let mut framed = payload;
    framed.extend_from_slice(&sum.to_le_bytes());
    framed
}

/// Opens a checksummed frame: verifies the trailing checksum and
/// returns the payload slice.
///
/// # Errors
///
/// [`DecodeError::Truncated`] when the frame is too short to carry a
/// checksum, [`DecodeError::ChecksumMismatch`] when the payload does not
/// hash to the stored value.
pub fn open_checksummed(buf: &[u8]) -> Result<&[u8], DecodeError> {
    let split = buf.len().checked_sub(8).ok_or(DecodeError::Truncated)?;
    let (payload, tail) = buf.split_at(split);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    let computed = content_checksum(payload);
    if stored != computed {
        return Err(DecodeError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

/// Serializes a relinearization key inside a checksummed frame.
pub fn encode_relin_key_checksummed(rk: &RelinKey) -> Vec<u8> {
    seal_checksummed(encode_relin_key(rk))
}

/// Deserializes a checksummed relinearization key frame.
///
/// # Errors
///
/// Returns a [`DecodeError`] on a checksum mismatch or malformed input.
pub fn decode_relin_key_checksummed(buf: &[u8]) -> Result<RelinKey, DecodeError> {
    decode_relin_key(open_checksummed(buf)?)
}

/// Serializes a set of Galois keys inside a checksummed frame.
pub fn encode_galois_keys_checksummed(gks: &GaloisKeys) -> Vec<u8> {
    seal_checksummed(encode_galois_keys(gks))
}

/// Deserializes a checksummed Galois key frame.
///
/// # Errors
///
/// Returns a [`DecodeError`] on a checksum mismatch or malformed input.
pub fn decode_galois_keys_checksummed(buf: &[u8]) -> Result<GaloisKeys, DecodeError> {
    decode_galois_keys(open_checksummed(buf)?)
}

/// Serializes a public key inside a checksummed frame.
pub fn encode_public_key_checksummed(pk: &PublicKey) -> Vec<u8> {
    seal_checksummed(encode_public_key(pk))
}

/// Deserializes a checksummed public key frame.
///
/// # Errors
///
/// Returns a [`DecodeError`] on a checksum mismatch or malformed input.
pub fn decode_public_key_checksummed(buf: &[u8]) -> Result<PublicKey, DecodeError> {
    decode_public_key(open_checksummed(buf)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::eval::Evaluator;
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams::insecure_toy(3))
    }

    #[test]
    fn ciphertext_roundtrips_and_still_decrypts() {
        let ctx = ctx();
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(1));
        let pk = kg.public_key();
        let sk = kg.secret_key();
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(2));
        let dec = Decryptor::new(&ctx, sk);

        let values = [1.25, -3.5, 0.75];
        let ct = enc.encrypt(&values);
        let bytes = encode_ciphertext(&ct);
        let back = decode_ciphertext(&bytes).expect("valid buffer");
        assert_eq!(back, ct);
        let out = dec.decrypt(&back);
        assert!((out[0] - 1.25).abs() < 1e-2);
        assert!((out[1] + 3.5).abs() < 1e-2);
    }

    #[test]
    fn plaintext_roundtrips() {
        let ctx = ctx();
        let ev = Evaluator::new(&ctx);
        let pt = ev.encode_at(&[2.5, -1.0], 1024.0, 2).unwrap();
        let bytes = encode_plaintext(&pt);
        assert_eq!(decode_plaintext(&bytes).expect("valid"), pt);
    }

    #[test]
    fn keys_roundtrip_and_still_work() {
        let ctx = ctx();
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(3));
        let pk = kg.public_key();
        let sk = kg.secret_key();
        let rk = kg.relin_key();
        let gks = kg.galois_keys(&[1, 2]);

        let pk2 = decode_public_key(&encode_public_key(&pk)).expect("valid");
        let rk2 = decode_relin_key(&encode_relin_key(&rk)).expect("valid");
        let gks2 = decode_galois_keys(&encode_galois_keys(&gks)).expect("valid");
        assert_eq!(gks2.exponents(), gks.exponents());

        // The decoded keys must actually evaluate correctly.
        let mut enc = Encryptor::new(&ctx, pk2, StdRng::seed_from_u64(4));
        let dec = Decryptor::new(&ctx, sk);
        let mut ev = Evaluator::new(&ctx);
        let ct = enc.encrypt(&[1.5, 2.0, 3.0]);
        let sq = ev.square(&ct).unwrap();
        let lin = ev.relinearize(&sq, &rk2).unwrap();
        let out = ev.rescale(&lin).unwrap();
        let got = dec.decrypt(&out);
        assert!((got[0] - 2.25).abs() < 0.1, "{}", got[0]);
        let rot = ev.rotate(&ct, 1, &gks2).unwrap();
        let got_rot = dec.decrypt(&rot);
        assert!((got_rot[0] - 2.0).abs() < 0.1);
    }

    #[test]
    fn wrong_tag_is_rejected() {
        let ctx = ctx();
        let ev = Evaluator::new(&ctx);
        let pt = ev.encode_at(&[1.0], 1024.0, 2).unwrap();
        let bytes = encode_plaintext(&pt);
        assert_eq!(
            decode_ciphertext(&bytes).unwrap_err(),
            DecodeError::WrongTag {
                found: Tag::Plaintext as u8,
                expected: Tag::Ciphertext as u8
            }
        );
    }

    #[test]
    fn corrupted_buffers_are_rejected_not_panicking() {
        let ctx = ctx();
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(5));
        let pk = kg.public_key();
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(6));
        let bytes = encode_ciphertext(&enc.encrypt(&[1.0]));

        // Truncation at every prefix must fail cleanly.
        for cut in [0usize, 3, 5, 6, 10, bytes.len() - 1] {
            assert!(decode_ciphertext(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Magic corruption.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode_ciphertext(&bad).unwrap_err(), DecodeError::BadMagic);
        // Version corruption.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert_eq!(
            decode_ciphertext(&bad).unwrap_err(),
            DecodeError::BadVersion(99)
        );
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(decode_ciphertext(&bad).is_err());
    }

    #[test]
    fn content_checksum_sees_every_byte_of_words_and_tail() {
        // Two whole words and a five-byte tail.
        let base: Vec<u8> = (0..21u8).collect();
        let sum = content_checksum(&base);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x80;
            assert_ne!(content_checksum(&flipped), sum, "byte {i}");
        }
        assert_ne!(content_checksum(&base[..20]), sum, "length");
    }

    #[test]
    fn checksummed_key_frames_roundtrip_and_catch_bit_flips() {
        let ctx = ctx();
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(9));
        let rk = kg.relin_key();
        let gks = kg.galois_keys(&[1]);
        let pk = kg.public_key();

        let frame = encode_relin_key_checksummed(&rk);
        let back = decode_relin_key_checksummed(&frame).expect("intact frame");
        ctx.validate_relin_key(&back).expect("valid key material");
        assert!(decode_galois_keys_checksummed(&encode_galois_keys_checksummed(&gks)).is_ok());
        assert!(decode_public_key_checksummed(&encode_public_key_checksummed(&pk)).is_ok());

        // A single bit flip anywhere in the payload must be caught by
        // the checksum, before structural decoding even runs.
        for pos in [6usize, frame.len() / 2, frame.len() - 9] {
            let mut bad = frame.clone();
            bad[pos] ^= 0x40;
            assert!(
                matches!(
                    decode_relin_key_checksummed(&bad).unwrap_err(),
                    DecodeError::ChecksumMismatch { .. }
                ),
                "flip at {pos} must be a checksum mismatch"
            );
        }
        // A flipped checksum byte is also a mismatch, and a frame too
        // short to carry a checksum is Truncated.
        let mut bad = frame.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            decode_relin_key_checksummed(&bad).unwrap_err(),
            DecodeError::ChecksumMismatch { .. }
        ));
        assert_eq!(open_checksummed(&frame[..4]).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn key_material_range_checks_catch_out_of_range_residues() {
        let ctx = ctx();
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(10));
        let rk = kg.relin_key();
        ctx.validate_relin_key(&rk).expect("fresh keys are valid");
        ctx.validate_galois_keys(&kg.galois_keys(&[1, 2]))
            .expect("fresh keys are valid");

        // Corrupt one residue word past its modulus: the checksummed
        // frame catches it, and so does the range check if the frame
        // layer is bypassed (decode the raw payload directly).
        let mut corrupt = rk.clone();
        let (b, _) = &mut corrupt.0.digits[0];
        b.component_mut(0)[0] = u64::MAX;
        let err = ctx.validate_relin_key(&corrupt).unwrap_err();
        assert!(err.to_string().contains("not reduced"), "{err}");
    }

    #[test]
    fn sizes_match_payload_expectations() {
        let ctx = ctx();
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(7));
        let pk = kg.public_key();
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(8));
        let ct = enc.encrypt(&[1.0]);
        let bytes = encode_ciphertext(&ct);
        // header 6 + scale 8 + count 8 + 2 polys x (24 + 3*1024*8)
        assert_eq!(bytes.len(), 6 + 8 + 8 + 2 * (24 + 3 * 1024 * 8));
    }
}
