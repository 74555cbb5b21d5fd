//! Wire format for ciphertexts, plaintexts and key material: aligned
//! frames, borrowed views and mmap'd key frames.
//!
//! In the paper's deployment model the client encrypts locally and ships
//! ciphertexts (and one-time evaluation keys) to the accelerator host, so
//! the byte format is part of the system. The layout makes the wire image
//! *be* the in-memory image: an 8-byte header keeps every subsequent
//! field on an 8-byte boundary, and residue words are stored limb-major
//! in evaluation order — exactly the layout
//! [`fxhenn_math::BorrowedRnsPoly`] reads. Decode then *validates in
//! place* over the receive buffer and hands out views; no residue word
//! is copied unless the buffer is misaligned (or the host is
//! big-endian), in which case a single one-time copy into an aligned
//! word buffer restores the invariant.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! offset 0..4   magic "FXHE"
//! offset 4      version = 2
//! offset 5      type tag
//! offset 6..8   reserved, must be zero   <- pads the header to 8 bytes
//! offset 8..    u64 words: object header fields, then residue words
//! ```
//!
//! Version 2 is the only format. A buffer carrying any other version
//! byte — the retired field-by-field version 1 among them — is refused
//! as [`DecodeError::BadVersion`].
//!
//! Word layouts after the header:
//!
//! * ciphertext: `scale_bits, size, n, L, domain, size·L·n` residue words
//! * plaintext: `scale_bits, n, L, domain, L·n` residue words
//! * public key: `n, L, domain, 2·L·n` words (`b` then `a`)
//! * key-switch key: `digits, n, L, domain, digits·2·L·n` words
//!   (digit `j`: `b_j` then `a_j`)
//! * galois keys: `count`, then per key `exponent` + a key-switch body
//!
//! Key material at rest travels in a checksummed frame: the payload
//! followed by its [`content_checksum`] word ([`seal_checksummed_v2`],
//! [`open_checksummed`]).
//!
//! Safety note: the only `unsafe` in this crate lives in the two cast
//! helpers here ([`bytes_as_words`] / [`words_as_bytes`]) and in the
//! `mmap-keys` OS shim. `u64` and `u8` tolerate every bit pattern, so
//! reinterpreting initialized memory is sound once alignment and length
//! are checked — which both helpers do before casting. The borrowed path
//! is compiled out on big-endian hosts (word values would be
//! byte-swapped); those hosts always take the copy fallback, which
//! parses words with `from_le_bytes`.

use crate::cipher::{Ciphertext, Plaintext};
use crate::keys::{GaloisKeys, KeySwitchKey, PublicKey, RelinKey};
use crate::telemetry::wire_metrics;
use fxhenn_math::poly::{BorrowedRnsPoly, Domain, RnsPoly};
use std::sync::OnceLock;

const MAGIC: &[u8; 4] = b"FXHE";

/// Type tags of the serializable objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
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

/// Version byte of the aligned layout.
pub const VERSION_V2: u8 = 2;

/// Byte length of the v2 frame header (magic + version + tag + padding).
pub const V2_HEADER_LEN: usize = 8;

/// True when `FXHENN_WIRE_FORCE_COPY` is set (CI's misalignment-injection
/// job): every decode takes the copy-fallback path and [`MappedFrame`]
/// skips mmap, so the fallback code stays exercised suite-wide.
pub fn copy_fallback_forced() -> bool {
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var_os("FXHENN_WIRE_FORCE_COPY").is_some_and(|v| v != "0" && !v.is_empty())
    })
}

/// Reinterprets `bytes` as native `u64` words without copying.
///
/// Returns `None` unless the slice is 8-byte aligned, a whole number of
/// words long, and the host is little-endian (wire order) — the callers
/// fall back to a parsed copy in that case.
fn bytes_as_words(bytes: &[u8]) -> Option<&[u64]> {
    if !cfg!(target_endian = "little") || !bytes.len().is_multiple_of(8) {
        return None;
    }
    // SAFETY: every initialized byte pattern is a valid `u64`; `align_to`
    // puts words only in `mid`, where the 8-byte alignment requirement
    // holds, and we require `head`/`tail` empty so `mid` covers the input
    // exactly. The little-endian check above guarantees the reinterpreted
    // values equal the wire's LE encoding.
    let (head, mid, tail) = unsafe { bytes.align_to::<u64>() };
    if head.is_empty() && tail.is_empty() {
        Some(mid)
    } else {
        None
    }
}

/// Reinterprets words as their in-memory byte image.
pub(crate) fn words_as_bytes(words: &[u64]) -> &[u8] {
    // SAFETY: any initialized memory is valid as `u8`, the byte length is
    // exactly `words.len() * 8`, and `u8`'s alignment (1) is always met.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 8) }
}

/// A growable byte buffer whose storage is always 8-byte aligned, so a
/// v2 frame assembled (or received) into it can be decoded borrowed.
/// The in-memory byte image *is* the wire image on every host.
#[derive(Debug, Clone, Default)]
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with room for `bytes` bytes before reallocating.
    pub fn with_byte_capacity(bytes: usize) -> Self {
        Self {
            words: Vec::with_capacity(bytes.div_ceil(8)),
            len: 0,
        }
    }

    /// Current length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bytes have been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity in bytes (for the no-realloc debug check).
    #[inline]
    pub fn byte_capacity(&self) -> usize {
        self.words.capacity() * 8
    }

    /// The buffer contents; the base pointer is 8-byte aligned.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &words_as_bytes(&self.words)[..self.len]
    }

    /// Empties the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    fn push_byte(&mut self, b: u8) {
        let (idx, off) = (self.len / 8, self.len % 8);
        if off == 0 {
            self.words.push(0);
        }
        let mut arr = self.words[idx].to_ne_bytes();
        arr[off] = b;
        self.words[idx] = u64::from_ne_bytes(arr);
        self.len += 1;
    }

    /// Appends a word whose wire image is `v`'s little-endian bytes.
    /// Word pushes are only meaningful on 8-byte boundaries.
    ///
    /// # Panics
    ///
    /// Panics if the current length is not a multiple of 8.
    pub fn push_word(&mut self, v: u64) {
        assert_eq!(self.len % 8, 0, "word push off an 8-byte boundary");
        self.words.push(v.to_le());
        self.len += 8;
    }

    /// Appends every word of `vals` (see [`AlignedBytes::push_word`]).
    ///
    /// # Panics
    ///
    /// Panics if the current length is not a multiple of 8.
    pub fn extend_words(&mut self, vals: &[u64]) {
        assert_eq!(self.len % 8, 0, "word push off an 8-byte boundary");
        self.words.extend(vals.iter().map(|v| v.to_le()));
        self.len += 8 * vals.len();
    }

    /// Appends raw bytes (a receive buffer filling from a stream).
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while !self.len.is_multiple_of(8) && !rest.is_empty() {
            self.push_byte(rest[0]);
            rest = &rest[1..];
        }
        let mut chunks = rest.chunks_exact(8);
        for c in &mut chunks {
            self.push_word(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        for &b in chunks.remainder() {
            self.push_byte(b);
        }
    }
}

/// Residue words of a decoded v2 frame: borrowed straight from the
/// receive buffer when it was aligned, or the one-time aligned copy
/// otherwise — the `LimbsRef` abstraction the evaluator-facing views
/// are built on.
#[derive(Debug)]
pub enum LimbsRef<'a> {
    /// Zero-copy: the words are the caller's buffer, reinterpreted.
    Borrowed(&'a [u64]),
    /// Fallback: words parsed into a fresh aligned allocation.
    Copied(Box<[u64]>),
}

impl LimbsRef<'_> {
    /// The word region (object header fields first, then residues).
    #[inline]
    pub fn words(&self) -> &[u64] {
        match self {
            LimbsRef::Borrowed(w) => w,
            LimbsRef::Copied(w) => w,
        }
    }

    /// True when decode did not copy the residue words.
    #[inline]
    pub fn is_borrowed(&self) -> bool {
        matches!(self, LimbsRef::Borrowed(_))
    }
}

/// Checks the 8-byte v2 header and hands back the word region — borrowed
/// when possible, copied otherwise. Bumps the wire decode metrics.
fn open_v2<'a>(buf: &'a [u8], expected: Tag) -> Result<LimbsRef<'a>, DecodeError> {
    if buf.len() < V2_HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    if &buf[..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    if buf[4] != VERSION_V2 {
        return Err(DecodeError::BadVersion(buf[4]));
    }
    if buf[5] != expected as u8 {
        return Err(DecodeError::WrongTag {
            found: buf[5],
            expected: expected as u8,
        });
    }
    if buf[6] != 0 || buf[7] != 0 {
        return Err(DecodeError::InvalidField("reserved header bytes"));
    }
    let body = &buf[V2_HEADER_LEN..];
    if !body.len().is_multiple_of(8) {
        return Err(DecodeError::Truncated);
    }
    let m = wire_metrics();
    m.decoded_bytes.add(buf.len() as u64);
    if !copy_fallback_forced() {
        if let Some(words) = bytes_as_words(body) {
            m.zero_copy_decodes.inc();
            return Ok(LimbsRef::Borrowed(words));
        }
    }
    let words: Box<[u64]> = body
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    m.fallback_decodes.inc();
    m.copied_bytes.add(body.len() as u64);
    Ok(LimbsRef::Copied(words))
}

fn parse_degree(w: u64) -> Result<usize, DecodeError> {
    let n = w as usize;
    if w > (1 << 20) || n == 0 || !n.is_power_of_two() {
        return Err(DecodeError::InvalidField("degree"));
    }
    Ok(n)
}

fn parse_levels(w: u64) -> Result<usize, DecodeError> {
    let l = w as usize;
    if l == 0 || l > 64 {
        return Err(DecodeError::InvalidField("level count"));
    }
    Ok(l)
}

fn parse_domain(w: u64) -> Result<Domain, DecodeError> {
    match w {
        0 => Ok(Domain::Coeff),
        1 => Ok(Domain::Ntt),
        _ => Err(DecodeError::InvalidField("domain")),
    }
}

fn parse_scale(w: u64) -> Result<f64, DecodeError> {
    let scale = f64::from_bits(w);
    if !(scale.is_finite() && scale > 0.0) {
        return Err(DecodeError::InvalidField("scale"));
    }
    Ok(scale)
}

fn word_at(words: &[u64], i: usize) -> Result<u64, DecodeError> {
    words.get(i).copied().ok_or(DecodeError::Truncated)
}

fn residue_span(count: usize, levels: usize, n: usize) -> Result<usize, DecodeError> {
    count
        .checked_mul(levels)
        .and_then(|v| v.checked_mul(n))
        .ok_or(DecodeError::InvalidField("shape overflow"))
}

fn expect_len(words: &[u64], expected: usize) -> Result<(), DecodeError> {
    match words.len().cmp(&expected) {
        std::cmp::Ordering::Less => Err(DecodeError::Truncated),
        std::cmp::Ordering::Greater => Err(DecodeError::InvalidField("trailing bytes")),
        std::cmp::Ordering::Equal => Ok(()),
    }
}

// ---------------------------------------------------------------------
// Ciphertext
// ---------------------------------------------------------------------

/// Exact v2 encoding size of a ciphertext in bytes.
pub fn encoded_len_ciphertext_v2(ct: &Ciphertext) -> usize {
    V2_HEADER_LEN + 8 * (5 + ct.size() * ct.level() * ct.poly(0).degree())
}

/// Writer over [`AlignedBytes`] that pre-sizes exactly and debug-asserts
/// the buffer never reallocated.
struct WireWriter {
    out: AlignedBytes,
    cap0: usize,
}

impl WireWriter {
    fn new(tag: Tag, byte_len: usize) -> Self {
        let mut out = AlignedBytes::with_byte_capacity(byte_len);
        let cap0 = out.byte_capacity();
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(MAGIC);
        header[4] = VERSION_V2;
        header[5] = tag as u8;
        out.push_word(u64::from_le_bytes(header));
        Self { out, cap0 }
    }

    fn word(&mut self, v: u64) {
        self.out.push_word(v);
    }

    fn poly(&mut self, p: &RnsPoly) {
        for i in 0..p.level_count() {
            self.out.extend_words(p.component(i));
        }
    }

    fn finish(self, expected_len: usize) -> AlignedBytes {
        debug_assert_eq!(self.out.len(), expected_len, "encoded_len was inexact");
        debug_assert_eq!(
            self.out.byte_capacity(),
            self.cap0,
            "encode buffer reallocated despite exact pre-sizing"
        );
        wire_metrics().encoded_bytes.add(self.out.len() as u64);
        self.out
    }
}

fn domain_word(d: Domain) -> u64 {
    match d {
        Domain::Coeff => 0,
        Domain::Ntt => 1,
    }
}

/// Serializes a ciphertext in the aligned v2 layout.
pub fn encode_ciphertext_v2(ct: &Ciphertext) -> AlignedBytes {
    let len = encoded_len_ciphertext_v2(ct);
    let mut w = WireWriter::new(Tag::Ciphertext, len);
    w.word(ct.scale().to_bits());
    w.word(ct.size() as u64);
    w.word(ct.poly(0).degree() as u64);
    w.word(ct.level() as u64);
    w.word(domain_word(Domain::Ntt));
    for p in ct.polys() {
        w.poly(p);
    }
    w.finish(len)
}

/// A ciphertext decoded in place over a v2 frame: header fields parsed,
/// residue words left where they are (borrowed when the buffer allowed
/// it). Evaluator read paths accept the component polys directly via
/// [`fxhenn_math::PolyLimbs`].
#[derive(Debug)]
pub struct CiphertextView<'a> {
    scale: f64,
    size: usize,
    n: usize,
    levels: usize,
    words: LimbsRef<'a>,
}

const CT_BODY: usize = 5;

impl<'a> CiphertextView<'a> {
    /// Encoding scale Δ.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Number of component polynomials (2 or 3).
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Ciphertext level (active RNS components).
    #[inline]
    pub fn level(&self) -> usize {
        self.levels
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.n
    }

    /// True if the ciphertext has 2 polynomials.
    #[inline]
    pub fn is_linear(&self) -> bool {
        self.size == 2
    }

    /// True when decode borrowed the frame instead of copying it.
    #[inline]
    pub fn is_zero_copy(&self) -> bool {
        self.words.is_borrowed()
    }

    /// Component polynomial `i` as a borrowed limb view.
    ///
    /// # Panics
    ///
    /// Panics if `i >= size()`.
    pub fn poly(&self, i: usize) -> BorrowedRnsPoly<'_> {
        assert!(i < self.size, "poly index out of range");
        let span = self.levels * self.n;
        let start = CT_BODY + i * span;
        BorrowedRnsPoly::new(
            &self.words.words()[start..start + span],
            self.n,
            self.levels,
            Domain::Ntt,
        )
    }

    /// Upgrades the view into an owned [`Ciphertext`] (the compat path).
    pub fn to_owned_ciphertext(&self) -> Ciphertext {
        let polys = (0..self.size).map(|i| self.poly(i).to_owned_poly()).collect();
        Ciphertext::new(polys, self.scale)
    }
}

/// Decodes a v2 ciphertext frame as a borrowed view, validating the
/// structure in place. No residue word is copied on aligned input.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input.
pub fn decode_ciphertext_v2(buf: &[u8]) -> Result<CiphertextView<'_>, DecodeError> {
    let words = open_v2(buf, Tag::Ciphertext)?;
    let w = words.words();
    let scale = parse_scale(word_at(w, 0)?)?;
    let size = word_at(w, 1)? as usize;
    if !(2..=3).contains(&size) {
        return Err(DecodeError::InvalidField("polynomial count"));
    }
    let n = parse_degree(word_at(w, 2)?)?;
    let levels = parse_levels(word_at(w, 3)?)?;
    if parse_domain(word_at(w, 4)?)? != Domain::Ntt {
        return Err(DecodeError::InvalidField("ciphertext domain"));
    }
    expect_len(w, CT_BODY + residue_span(size, levels, n)?)?;
    Ok(CiphertextView {
        scale,
        size,
        n,
        levels,
        words,
    })
}

// ---------------------------------------------------------------------
// Plaintext
// ---------------------------------------------------------------------

/// Exact v2 encoding size of a plaintext in bytes.
pub fn encoded_len_plaintext_v2(pt: &Plaintext) -> usize {
    V2_HEADER_LEN + 8 * (4 + pt.level() * pt.poly().degree())
}

/// Serializes a plaintext in the aligned v2 layout.
pub fn encode_plaintext_v2(pt: &Plaintext) -> AlignedBytes {
    let len = encoded_len_plaintext_v2(pt);
    let mut w = WireWriter::new(Tag::Plaintext, len);
    w.word(pt.scale().to_bits());
    w.word(pt.poly().degree() as u64);
    w.word(pt.level() as u64);
    w.word(domain_word(Domain::Ntt));
    w.poly(pt.poly());
    w.finish(len)
}

/// A plaintext decoded in place over a v2 frame.
#[derive(Debug)]
pub struct PlaintextView<'a> {
    scale: f64,
    n: usize,
    levels: usize,
    words: LimbsRef<'a>,
}

const PT_BODY: usize = 4;

impl<'a> PlaintextView<'a> {
    /// Encoding scale Δ.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Level (active RNS components).
    #[inline]
    pub fn level(&self) -> usize {
        self.levels
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.n
    }

    /// True when decode borrowed the frame instead of copying it.
    #[inline]
    pub fn is_zero_copy(&self) -> bool {
        self.words.is_borrowed()
    }

    /// The polynomial as a borrowed limb view.
    pub fn poly(&self) -> BorrowedRnsPoly<'_> {
        BorrowedRnsPoly::new(
            &self.words.words()[PT_BODY..],
            self.n,
            self.levels,
            Domain::Ntt,
        )
    }

    /// Upgrades the view into an owned [`Plaintext`].
    pub fn to_owned_plaintext(&self) -> Plaintext {
        Plaintext::new(self.poly().to_owned_poly(), self.scale)
    }
}

/// Decodes a v2 plaintext frame as a borrowed view.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input.
pub fn decode_plaintext_v2(buf: &[u8]) -> Result<PlaintextView<'_>, DecodeError> {
    let words = open_v2(buf, Tag::Plaintext)?;
    let w = words.words();
    let scale = parse_scale(word_at(w, 0)?)?;
    let n = parse_degree(word_at(w, 1)?)?;
    let levels = parse_levels(word_at(w, 2)?)?;
    if parse_domain(word_at(w, 3)?)? != Domain::Ntt {
        return Err(DecodeError::InvalidField("plaintext domain"));
    }
    expect_len(w, PT_BODY + residue_span(1, levels, n)?)?;
    Ok(PlaintextView {
        scale,
        n,
        levels,
        words,
    })
}

// ---------------------------------------------------------------------
// Public key
// ---------------------------------------------------------------------

/// Exact v2 encoding size of a public key in bytes.
pub fn encoded_len_public_key_v2(pk: &PublicKey) -> usize {
    V2_HEADER_LEN + 8 * (3 + 2 * pk.b.level_count() * pk.b.degree())
}

/// Serializes a public key in the aligned v2 layout.
pub fn encode_public_key_v2(pk: &PublicKey) -> AlignedBytes {
    let len = encoded_len_public_key_v2(pk);
    let mut w = WireWriter::new(Tag::PublicKey, len);
    w.word(pk.b.degree() as u64);
    w.word(pk.b.level_count() as u64);
    w.word(domain_word(pk.b.domain()));
    w.poly(&pk.b);
    w.poly(&pk.a);
    w.finish(len)
}

/// A public key decoded in place over a v2 frame.
#[derive(Debug)]
pub struct PublicKeyView<'a> {
    n: usize,
    levels: usize,
    domain: Domain,
    words: LimbsRef<'a>,
}

const PK_BODY: usize = 3;

impl<'a> PublicKeyView<'a> {
    /// True when decode borrowed the frame instead of copying it.
    #[inline]
    pub fn is_zero_copy(&self) -> bool {
        self.words.is_borrowed()
    }

    /// The `b = -a·s + e` polynomial.
    pub fn b(&self) -> BorrowedRnsPoly<'_> {
        let span = self.levels * self.n;
        BorrowedRnsPoly::new(
            &self.words.words()[PK_BODY..PK_BODY + span],
            self.n,
            self.levels,
            self.domain,
        )
    }

    /// The uniform `a` polynomial.
    pub fn a(&self) -> BorrowedRnsPoly<'_> {
        let span = self.levels * self.n;
        BorrowedRnsPoly::new(
            &self.words.words()[PK_BODY + span..PK_BODY + 2 * span],
            self.n,
            self.levels,
            self.domain,
        )
    }

    /// Upgrades the view into an owned [`PublicKey`].
    pub fn to_owned_public_key(&self) -> PublicKey {
        PublicKey {
            b: self.b().to_owned_poly(),
            a: self.a().to_owned_poly(),
        }
    }
}

/// Decodes a v2 public-key frame as a borrowed view.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input.
pub fn decode_public_key_v2(buf: &[u8]) -> Result<PublicKeyView<'_>, DecodeError> {
    let words = open_v2(buf, Tag::PublicKey)?;
    let w = words.words();
    let n = parse_degree(word_at(w, 0)?)?;
    let levels = parse_levels(word_at(w, 1)?)?;
    let domain = parse_domain(word_at(w, 2)?)?;
    expect_len(w, PK_BODY + residue_span(2, levels, n)?)?;
    Ok(PublicKeyView {
        n,
        levels,
        domain,
        words,
    })
}

// ---------------------------------------------------------------------
// Key-switch / relin / galois keys
// ---------------------------------------------------------------------

/// Parsed shape of one key-switch body inside a word region.
#[derive(Debug, Clone, Copy)]
struct KskShape {
    digits: usize,
    n: usize,
    levels: usize,
    domain: Domain,
    /// Word offset of the first residue word.
    body: usize,
}

const KSK_HEADER: usize = 4;

/// Parses a ksk body starting at word offset `at`; returns the shape and
/// the offset one past the body.
fn parse_ksk(words: &[u64], at: usize) -> Result<(KskShape, usize), DecodeError> {
    let digits = word_at(words, at)? as usize;
    if digits == 0 || digits > 64 {
        return Err(DecodeError::InvalidField("digit count"));
    }
    let n = parse_degree(word_at(words, at + 1)?)?;
    let levels = parse_levels(word_at(words, at + 2)?)?;
    let domain = parse_domain(word_at(words, at + 3)?)?;
    let span = residue_span(digits * 2, levels, n)?;
    let body = at + KSK_HEADER;
    let end = body.checked_add(span).ok_or(DecodeError::Truncated)?;
    if end > words.len() {
        return Err(DecodeError::Truncated);
    }
    Ok((
        KskShape {
            digits,
            n,
            levels,
            domain,
            body,
        },
        end,
    ))
}

fn ksk_words(ksk: &KeySwitchKey) -> usize {
    let (b0, _) = &ksk.digits[0];
    KSK_HEADER + ksk.digits.len() * 2 * b0.level_count() * b0.degree()
}

fn write_ksk_v2(w: &mut WireWriter, ksk: &KeySwitchKey) {
    let (b0, _) = &ksk.digits[0];
    w.word(ksk.digits.len() as u64);
    w.word(b0.degree() as u64);
    w.word(b0.level_count() as u64);
    w.word(domain_word(b0.domain()));
    for (b, a) in &ksk.digits {
        w.poly(b);
        w.poly(a);
    }
}

/// A key-switch key addressed inside a decoded frame: digit pairs are
/// borrowed limb views over the shared word region.
#[derive(Debug, Clone, Copy)]
pub struct KskRef<'v> {
    shape: KskShape,
    words: &'v [u64],
}

impl<'v> KskRef<'v> {
    /// Number of digits.
    #[inline]
    pub fn digit_count(&self) -> usize {
        self.shape.digits
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.shape.n
    }

    /// Residue components per digit polynomial (the extended basis).
    #[inline]
    pub fn level_count(&self) -> usize {
        self.shape.levels
    }

    /// Digit `j` as `(b_j, a_j)` borrowed limb views.
    ///
    /// # Panics
    ///
    /// Panics if `j >= digit_count()`.
    pub fn digit(&self, j: usize) -> (BorrowedRnsPoly<'v>, BorrowedRnsPoly<'v>) {
        assert!(j < self.shape.digits, "digit index out of range");
        let span = self.shape.levels * self.shape.n;
        let start = self.shape.body + j * 2 * span;
        let b = BorrowedRnsPoly::new(
            &self.words[start..start + span],
            self.shape.n,
            self.shape.levels,
            self.shape.domain,
        );
        let a = BorrowedRnsPoly::new(
            &self.words[start + span..start + 2 * span],
            self.shape.n,
            self.shape.levels,
            self.shape.domain,
        );
        (b, a)
    }

    /// Upgrades into an owned [`KeySwitchKey`].
    pub fn to_owned_key(&self) -> KeySwitchKey {
        let digits = (0..self.shape.digits)
            .map(|j| {
                let (b, a) = self.digit(j);
                (b.to_owned_poly(), a.to_owned_poly())
            })
            .collect();
        KeySwitchKey { digits }
    }
}

/// Exact v2 encoding size of a relinearization key in bytes.
pub fn encoded_len_relin_key_v2(rk: &RelinKey) -> usize {
    V2_HEADER_LEN + 8 * ksk_words(&rk.0)
}

/// Serializes a relinearization key in the aligned v2 layout.
pub fn encode_relin_key_v2(rk: &RelinKey) -> AlignedBytes {
    let len = encoded_len_relin_key_v2(rk);
    let mut w = WireWriter::new(Tag::RelinKey, len);
    write_ksk_v2(&mut w, &rk.0);
    w.finish(len)
}

/// A relinearization key decoded in place over a v2 frame.
#[derive(Debug)]
pub struct RelinKeyView<'a> {
    shape: KskShape,
    words: LimbsRef<'a>,
}

impl<'a> RelinKeyView<'a> {
    /// True when decode borrowed the frame instead of copying it.
    #[inline]
    pub fn is_zero_copy(&self) -> bool {
        self.words.is_borrowed()
    }

    /// The underlying key-switch key.
    pub fn ksk(&self) -> KskRef<'_> {
        KskRef {
            shape: self.shape,
            words: self.words.words(),
        }
    }

    /// Upgrades the view into an owned [`RelinKey`].
    pub fn to_owned_relin_key(&self) -> RelinKey {
        RelinKey(self.ksk().to_owned_key())
    }
}

/// Decodes a v2 relinearization-key frame as a borrowed view.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input.
pub fn decode_relin_key_v2(buf: &[u8]) -> Result<RelinKeyView<'_>, DecodeError> {
    let words = open_v2(buf, Tag::RelinKey)?;
    let w = words.words();
    let (shape, end) = parse_ksk(w, 0)?;
    expect_len(w, end)?;
    Ok(RelinKeyView { shape, words })
}

/// Exact v2 encoding size of a Galois key set in bytes.
pub fn encoded_len_galois_keys_v2(gks: &GaloisKeys) -> usize {
    let words: usize = gks
        .exponents()
        .iter()
        .map(|&g| 1 + ksk_words(gks.key(g).expect("listed exponent")))
        .sum();
    V2_HEADER_LEN + 8 * (1 + words)
}

/// Serializes a Galois key set in the aligned v2 layout.
pub fn encode_galois_keys_v2(gks: &GaloisKeys) -> AlignedBytes {
    let len = encoded_len_galois_keys_v2(gks);
    let mut w = WireWriter::new(Tag::GaloisKeys, len);
    let exps = gks.exponents();
    w.word(exps.len() as u64);
    for g in exps {
        w.word(g as u64);
        write_ksk_v2(&mut w, gks.key(g).expect("listed exponent"));
    }
    w.finish(len)
}

/// A Galois key set decoded in place over a v2 frame.
#[derive(Debug)]
pub struct GaloisKeysView<'a> {
    entries: Vec<(usize, KskShape)>,
    words: LimbsRef<'a>,
}

impl<'a> GaloisKeysView<'a> {
    /// True when decode borrowed the frame instead of copying it.
    #[inline]
    pub fn is_zero_copy(&self) -> bool {
        self.words.is_borrowed()
    }

    /// Number of keys held.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no keys are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Galois exponents with keys available, in frame order.
    pub fn exponents(&self) -> Vec<usize> {
        self.entries.iter().map(|&(g, _)| g).collect()
    }

    /// The key for Galois exponent `g`, if present.
    pub fn key(&self, g: usize) -> Option<KskRef<'_>> {
        self.entries
            .iter()
            .find(|&&(e, _)| e == g)
            .map(|&(_, shape)| KskRef {
                shape,
                words: self.words.words(),
            })
    }

    /// Upgrades the view into an owned [`GaloisKeys`].
    pub fn to_owned_galois_keys(&self) -> GaloisKeys {
        let map = self
            .entries
            .iter()
            .map(|&(g, shape)| {
                (
                    g,
                    KskRef {
                        shape,
                        words: self.words.words(),
                    }
                    .to_owned_key(),
                )
            })
            .collect();
        GaloisKeys::from_map(map)
    }
}

/// Decodes a v2 Galois-key frame as a borrowed view.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input.
pub fn decode_galois_keys_v2(buf: &[u8]) -> Result<GaloisKeysView<'_>, DecodeError> {
    let words = open_v2(buf, Tag::GaloisKeys)?;
    let w = words.words();
    let count = word_at(w, 0)? as usize;
    if count > 4096 {
        return Err(DecodeError::InvalidField("key count"));
    }
    let mut entries = Vec::with_capacity(count);
    let mut at = 1usize;
    for _ in 0..count {
        let g = word_at(w, at)? as usize;
        let (shape, end) = parse_ksk(w, at + 1)?;
        entries.push((g, shape));
        at = end;
    }
    expect_len(w, at)?;
    Ok(GaloisKeysView { entries, words })
}

// ---------------------------------------------------------------------
// Checksummed frames (ModelCache key material)
// ---------------------------------------------------------------------

/// FNV-1a-style 64-bit content checksum, folding the buffer a
/// little-endian 64-bit word at a time (every frame is a word stream)
/// and any tail bytewise. Each step is a bijection of the running sum,
/// so any change confined to one word changes the result. Key frames
/// run to ~100 MB and are summed on every model load; the
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

/// Seals an aligned v2 buffer in a checksummed frame: payload followed by
/// its 8-byte FNV-1a checksum, staying 8-byte aligned throughout.
pub fn seal_checksummed_v2(payload: AlignedBytes) -> AlignedBytes {
    let sum = content_checksum(payload.as_bytes());
    let mut framed = payload;
    framed.push_word(sum);
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

/// Deserializes a checksummed public key frame.
///
/// # Errors
///
/// Returns a [`DecodeError`] on a checksum mismatch or malformed input.
pub fn decode_public_key_checksummed(buf: &[u8]) -> Result<PublicKey, DecodeError> {
    Ok(decode_public_key_v2(open_checksummed(buf)?)?.to_owned_public_key())
}

/// Deserializes a checksummed relinearization key frame.
///
/// # Errors
///
/// Returns a [`DecodeError`] on a checksum mismatch or malformed input.
pub fn decode_relin_key_checksummed(buf: &[u8]) -> Result<RelinKey, DecodeError> {
    Ok(decode_relin_key_v2(open_checksummed(buf)?)?.to_owned_relin_key())
}

/// Deserializes a checksummed Galois key frame.
///
/// # Errors
///
/// Returns a [`DecodeError`] on a checksum mismatch or malformed input.
pub fn decode_galois_keys_checksummed(buf: &[u8]) -> Result<GaloisKeys, DecodeError> {
    Ok(decode_galois_keys_v2(open_checksummed(buf)?)?.to_owned_galois_keys())
}

// ---------------------------------------------------------------------
// mmap'd key frames
// ---------------------------------------------------------------------

#[cfg(all(feature = "mmap-keys", unix))]
mod mmap_os {
    //! Minimal private read-only mmap without the `libc` crate: `std`
    //! already links the platform C library on unix, so the two symbols
    //! are declared directly.

    use crate::telemetry::wire_metrics;
    use std::ffi::c_void;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    pub(super) struct Mapping {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ and never mutated; sharing the
    // pointer across threads is sound.
    unsafe impl Send for Mapping {}
    // SAFETY: as above — read-only memory.
    unsafe impl Sync for Mapping {}

    impl Mapping {
        pub(super) fn map(file: &File, len: usize) -> io::Result<Self> {
            if len == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "cannot map an empty file",
                ));
            }
            // SAFETY: a fresh private read-only mapping of `len` bytes of
            // an open file descriptor; the kernel picks the address. The
            // result is checked against MAP_FAILED before use.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr.is_null() || ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            let m = wire_metrics();
            m.mmap_maps.inc();
            m.mmap_active.add(1);
            Ok(Self { ptr, len })
        }

        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr..ptr+len` is a live PROT_READ mapping owned by
            // `self`; page alignment satisfies `u8`'s requirement.
            unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            wire_metrics().mmap_active.add(-1);
            // SAFETY: `ptr`/`len` came from a successful `mmap` and are
            // unmapped exactly once.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[derive(Debug)]
enum FrameBacking {
    #[cfg(all(feature = "mmap-keys", unix))]
    Mapped(mmap_os::Mapping),
    Owned(AlignedBytes),
}

#[cfg(all(feature = "mmap-keys", unix))]
impl std::fmt::Debug for mmap_os::Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mapping({} bytes)", self.bytes().len())
    }
}

/// A key frame loaded from disk: a private read-only mmap when the
/// `mmap-keys` feature is enabled (pages are faulted in on first touch
/// and the base address is page- hence 8-byte aligned, so v2 decode is
/// zero-copy), otherwise a read into an [`AlignedBytes`] buffer — same
/// alignment guarantee, one copy.
#[derive(Debug)]
pub struct MappedFrame {
    backing: FrameBacking,
}

impl MappedFrame {
    /// Loads `path`, preferring mmap when compiled in (and not disabled
    /// via `FXHENN_WIRE_FORCE_COPY`), falling back to an aligned read.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be read.
    pub fn open(path: &std::path::Path) -> std::io::Result<Self> {
        #[cfg(all(feature = "mmap-keys", unix))]
        if !copy_fallback_forced() {
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            if let Ok(mapping) = mmap_os::Mapping::map(&file, len as usize) {
                return Ok(Self {
                    backing: FrameBacking::Mapped(mapping),
                });
            }
        }
        let raw = std::fs::read(path)?;
        let mut buf = AlignedBytes::with_byte_capacity(raw.len());
        buf.extend_from_slice(&raw);
        wire_metrics().mmap_fallback.inc();
        Ok(Self {
            backing: FrameBacking::Owned(buf),
        })
    }

    /// The frame contents; 8-byte aligned in both backings.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(all(feature = "mmap-keys", unix))]
            FrameBacking::Mapped(m) => m.bytes(),
            FrameBacking::Owned(b) => b.as_bytes(),
        }
    }

    /// True when the frame is memory-mapped (zero-copy from disk).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(all(feature = "mmap-keys", unix))]
            FrameBacking::Mapped(_) => true,
            FrameBacking::Owned(_) => false,
        }
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// True when the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use crate::encrypt::Encryptor;
    use crate::eval::Evaluator;
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams::insecure_toy(3))
    }

    fn sample_ct(ctx: &CkksContext) -> Ciphertext {
        let mut kg = KeyGenerator::new(ctx, StdRng::seed_from_u64(1));
        let pk = kg.public_key();
        let mut enc = Encryptor::new(ctx, pk, StdRng::seed_from_u64(2));
        enc.encrypt(&[1.0, -2.0, 3.5])
    }

    #[test]
    fn aligned_bytes_mixed_appends_roundtrip() {
        let mut b = AlignedBytes::new();
        b.extend_from_slice(&[1, 2, 3]);
        b.extend_from_slice(&[4, 5, 6, 7, 8, 9, 10, 11, 12]);
        assert_eq!(b.len(), 12);
        assert_eq!(b.as_bytes(), &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        let mut c = AlignedBytes::new();
        c.push_word(0x0807_0605_0403_0201);
        assert_eq!(c.as_bytes(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(c.as_bytes().as_ptr() as usize % 8, 0);
    }

    #[test]
    fn v2_rejects_malformed_headers() {
        let ctx = ctx();
        let ct = sample_ct(&ctx);
        let buf = encode_ciphertext_v2(&ct);
        let bytes = buf.as_bytes();
        assert_eq!(
            decode_ciphertext_v2(&bytes[..4]).unwrap_err(),
            DecodeError::Truncated
        );
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert_eq!(
            decode_ciphertext_v2(&bad).unwrap_err(),
            DecodeError::BadMagic
        );
        let mut bad = bytes.to_vec();
        bad[4] = 7;
        assert_eq!(
            decode_ciphertext_v2(&bad).unwrap_err(),
            DecodeError::BadVersion(7)
        );
        let mut bad = bytes.to_vec();
        bad[6] = 1;
        assert_eq!(
            decode_ciphertext_v2(&bad).unwrap_err(),
            DecodeError::InvalidField("reserved header bytes")
        );
        let mut bad = bytes.to_vec();
        bad.extend_from_slice(&[0u8; 8]);
        assert_eq!(
            decode_ciphertext_v2(&bad).unwrap_err(),
            DecodeError::InvalidField("trailing bytes")
        );
    }

    #[test]
    fn wrong_tag_is_rejected() {
        let ctx = ctx();
        let ev = Evaluator::new(&ctx);
        let pt = ev.encode_at(&[1.0], 1024.0, 2).unwrap();
        let frame = encode_plaintext_v2(&pt);
        assert_eq!(
            decode_ciphertext_v2(frame.as_bytes()).unwrap_err(),
            DecodeError::WrongTag {
                found: Tag::Plaintext as u8,
                expected: Tag::Ciphertext as u8
            }
        );
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
    fn mapped_frame_roundtrips_through_disk() {
        let ctx = ctx();
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(4));
        let rk = kg.relin_key();
        let frame = seal_checksummed_v2(encode_relin_key_v2(&rk));

        let dir = std::env::temp_dir().join(format!("fxhenn-wire-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("relin.fxk");
        std::fs::write(&path, frame.as_bytes()).expect("write frame");

        let mapped = MappedFrame::open(&path).expect("open frame");
        assert_eq!(mapped.bytes(), frame.as_bytes());
        assert_eq!(mapped.bytes().as_ptr() as usize % 8, 0, "aligned backing");
        let payload = open_checksummed(mapped.bytes()).expect("checksum");
        let too_short = open_checksummed(&mapped.bytes()[..4]);
        assert_eq!(too_short.unwrap_err(), DecodeError::Truncated);
        let view = decode_relin_key_v2(payload).expect("valid");
        if mapped.is_mapped() && !copy_fallback_forced() {
            assert!(view.is_zero_copy(), "mmap'd frame must decode borrowed");
        }
        ctx.validate_relin_key(&view.to_owned_relin_key())
            .expect("valid key material");
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }
}
