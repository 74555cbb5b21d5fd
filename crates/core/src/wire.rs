//! Serve-side wire transport: length-prefixed request frames evaluated
//! directly from the receive buffer.
//!
//! A request stream is a sequence of frames, each `[len: u64 LE][payload]
//! [zero pad to the next 8-byte boundary]`. Because the length prefix is
//! one word and the pad restores word alignment, every payload starts on
//! an 8-byte boundary inside an [`AlignedBytes`] receive buffer — which
//! is exactly what the v2 ciphertext layout needs to decode borrowed.
//! Ingest therefore never copies a residue word: the frame is sliced out
//! of the buffer, structurally decoded in place, range-checked with
//! [`CkksContext::validate_ciphertext_view`], and handed to the
//! evaluator's `*_view` operations.

use fxhenn_ckks::wire::{decode_ciphertext_v2, AlignedBytes, CiphertextView};
use fxhenn_ckks::{CkksContext, DecodeError, EvalError};

/// Upper bound on a single frame's payload, rejecting absurd length
/// prefixes before any allocation or slicing happens.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// Errors while walking a length-prefixed frame stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ended inside a length prefix or a payload.
    Truncated {
        /// Byte offset at which the stream ran out.
        offset: usize,
    },
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized {
        /// The claimed payload length.
        len: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { offset } => {
                write!(f, "frame stream truncated at byte {offset}")
            }
            FrameError::Oversized { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends one length-prefixed frame to a receive/send buffer, keeping
/// the buffer word-aligned so the *next* payload also starts on an
/// 8-byte boundary.
///
/// # Panics
///
/// Panics if the buffer is not word-aligned (i.e. a previous append was
/// not made through this function) or the payload exceeds
/// [`MAX_FRAME_LEN`].
pub fn push_frame(out: &mut AlignedBytes, payload: &[u8]) {
    assert!(payload.len() <= MAX_FRAME_LEN, "frame payload too large");
    assert_eq!(out.len() % 8, 0, "frame stream lost word alignment");
    out.push_word(payload.len() as u64);
    out.extend_from_slice(payload);
    let pad = (8 - payload.len() % 8) % 8;
    out.extend_from_slice(&[0u8; 7][..pad]);
}

/// Walks the frames of a length-prefixed stream, yielding each payload
/// as a borrowed slice of the receive buffer.
#[derive(Debug, Clone)]
pub struct FrameCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    failed: bool,
}

impl<'a> FrameCursor<'a> {
    /// A cursor over `bytes`, positioned at the first frame.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            failed: false,
        }
    }

    /// Current byte offset into the stream.
    pub fn offset(&self) -> usize {
        self.pos
    }
}

impl<'a> Iterator for FrameCursor<'a> {
    type Item = Result<&'a [u8], FrameError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.pos >= self.bytes.len() {
            return None;
        }
        let Some(prefix) = self.bytes.get(self.pos..self.pos + 8) else {
            self.failed = true;
            return Some(Err(FrameError::Truncated { offset: self.pos }));
        };
        let len = u64::from_le_bytes(prefix.try_into().expect("8 bytes"));
        if len > MAX_FRAME_LEN as u64 {
            self.failed = true;
            return Some(Err(FrameError::Oversized { len }));
        }
        let start = self.pos + 8;
        let end = start + len as usize;
        let Some(payload) = self.bytes.get(start..end) else {
            self.failed = true;
            return Some(Err(FrameError::Truncated { offset: self.pos }));
        };
        // Skip the pad that realigns the next frame.
        self.pos = start + (len as usize).div_ceil(8) * 8;
        Some(Ok(payload))
    }
}

/// Errors while ingesting a ciphertext request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// The frame is not a structurally valid v2 ciphertext.
    Decode(DecodeError),
    /// The decoded view failed the context's range checks.
    Corrupt(EvalError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Decode(e) => write!(f, "frame decode: {e}"),
            IngestError::Corrupt(e) => write!(f, "frame range check: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Decodes and range-checks a v2 ciphertext frame in place, returning a
/// borrowed view ready for the evaluator's `*_view` operations. On
/// aligned input (any payload reached through [`FrameCursor`] over an
/// [`AlignedBytes`] buffer) no residue word is copied.
///
/// # Errors
///
/// [`IngestError::Decode`] on a malformed frame, [`IngestError::Corrupt`]
/// when a residue word is outside the context's moduli or the shape does
/// not match the context.
pub fn ingest_ciphertext<'a>(
    ctx: &CkksContext,
    frame: &'a [u8],
) -> Result<CiphertextView<'a>, IngestError> {
    let view = decode_ciphertext_v2(frame).map_err(IngestError::Decode)?;
    ctx.validate_ciphertext_view(&view)
        .map_err(IngestError::Corrupt)?;
    Ok(view)
}

/// Errors while reading a framed multi-ciphertext request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The frame stream itself is malformed.
    Frame(FrameError),
    /// A ciphertext frame failed to decode or range-check.
    Ingest(IngestError),
    /// The shape frame and the frames after it disagree.
    Shape(&'static str),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Frame(e) => write!(f, "request frames: {e}"),
            RequestError::Ingest(e) => write!(f, "request ciphertext: {e}"),
            RequestError::Shape(why) => write!(f, "request shape: {why}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Reads a request: a shape frame of little-endian words (the group
/// count, then each group's ciphertext count), one v2 ciphertext frame
/// per promised ciphertext, and nothing after. Every ciphertext is
/// ingested in place ([`ingest_ciphertext`]), so on an [`AlignedBytes`]
/// receive buffer no residue word is copied. Counts drive loops, never
/// allocations: a ciphertext is kept only once its frame has ingested.
///
/// # Errors
///
/// [`RequestError::Frame`] on a malformed frame stream,
/// [`RequestError::Ingest`] on a ciphertext frame that fails to ingest,
/// [`RequestError::Shape`] when the stream ends before the promised
/// ciphertexts, the shape frame is empty, truncated, not whole words or
/// has words left over, or frames follow the promised ciphertexts.
pub fn read_request<'a>(
    ctx: &CkksContext,
    bytes: &'a [u8],
) -> Result<Vec<Vec<CiphertextView<'a>>>, RequestError> {
    let mut frames = FrameCursor::new(bytes);
    let mut next = || match frames.next() {
        Some(frame) => frame.map_err(RequestError::Frame),
        None => Err(RequestError::Shape("request stream ended early")),
    };
    let shape = next()?;
    if shape.len() % 8 != 0 {
        return Err(RequestError::Shape("shape frame is not whole words"));
    }
    let mut counts = shape
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]));
    let groups = counts
        .next()
        .ok_or(RequestError::Shape("shape frame is empty"))?;
    let mut out = Vec::new();
    for _ in 0..groups {
        let len = counts
            .next()
            .ok_or(RequestError::Shape("shape frame is truncated"))?;
        let mut group = Vec::new();
        for _ in 0..len {
            group.push(ingest_ciphertext(ctx, next()?).map_err(RequestError::Ingest)?);
        }
        out.push(group);
    }
    if counts.next().is_some() {
        return Err(RequestError::Shape("shape frame has trailing words"));
    }
    match frames.next() {
        None => Ok(out),
        Some(_) => Err(RequestError::Shape("frames after the promised ciphertexts")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxhenn_ckks::wire::encode_ciphertext_v2;
    use fxhenn_ckks::{CkksParams, Encryptor, KeyGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn frames_roundtrip_and_stay_aligned() {
        let mut buf = AlignedBytes::new();
        push_frame(&mut buf, b"hello");
        push_frame(&mut buf, b"");
        push_frame(&mut buf, &[7u8; 16]);
        let frames: Vec<_> = FrameCursor::new(buf.as_bytes())
            .collect::<Result<_, _>>()
            .expect("well-formed stream");
        assert_eq!(frames, vec![&b"hello"[..], &b""[..], &[7u8; 16][..]]);
        for f in &frames {
            if !f.is_empty() {
                assert_eq!(f.as_ptr() as usize % 8, 0, "payload must start aligned");
            }
        }
    }

    #[test]
    fn truncated_and_oversized_streams_are_rejected() {
        let mut buf = AlignedBytes::new();
        push_frame(&mut buf, b"abcdefgh");
        // Cut inside the payload.
        let cut = &buf.as_bytes()[..12];
        let got: Vec<_> = FrameCursor::new(cut).collect();
        assert_eq!(got, vec![Err(FrameError::Truncated { offset: 0 })]);
        // Cut inside a length prefix.
        let cut = &buf.as_bytes()[..4];
        let got: Vec<_> = FrameCursor::new(cut).collect();
        assert_eq!(got, vec![Err(FrameError::Truncated { offset: 0 })]);
        // Absurd length prefix.
        let mut bad = AlignedBytes::new();
        bad.push_word(u64::MAX);
        let got: Vec<_> = FrameCursor::new(bad.as_bytes()).collect();
        assert_eq!(got, vec![Err(FrameError::Oversized { len: u64::MAX })]);
    }

    #[test]
    fn ciphertext_frames_ingest_zero_copy_from_the_receive_buffer() {
        let ctx = CkksContext::new(CkksParams::insecure_toy(3));
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(1));
        let pk = kg.public_key();
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(2));
        let ct = enc.encrypt(&[0.5, 1.5]);
        let frame = encode_ciphertext_v2(&ct);

        let mut rx = AlignedBytes::new();
        push_frame(&mut rx, frame.as_bytes());
        push_frame(&mut rx, frame.as_bytes());

        let mut seen = 0;
        for payload in FrameCursor::new(rx.as_bytes()) {
            let payload = payload.expect("well-formed stream");
            let view = ingest_ciphertext(&ctx, payload).expect("valid request");
            if !fxhenn_ckks::copy_fallback_forced() {
                assert!(view.is_zero_copy(), "aligned receive buffer must borrow");
            }
            assert_eq!(view.to_owned_ciphertext(), ct);
            seen += 1;
        }
        assert_eq!(seen, 2);

        // A corrupted residue word is caught by the range check.
        let mut bad = AlignedBytes::new();
        let mut corrupt = frame.as_bytes().to_vec();
        let n = corrupt.len();
        for b in &mut corrupt[n - 16..] {
            *b = 0xFF;
        }
        push_frame(&mut bad, &corrupt);
        let payload = FrameCursor::new(bad.as_bytes())
            .next()
            .expect("one frame")
            .expect("well-formed stream");
        assert!(matches!(
            ingest_ciphertext(&ctx, payload),
            Err(IngestError::Corrupt(_))
        ));
    }

    #[test]
    fn a_request_reads_exactly_what_its_shape_frame_promises() {
        let ctx = CkksContext::new(CkksParams::insecure_toy(3));
        let pk = KeyGenerator::new(&ctx, StdRng::seed_from_u64(1)).public_key();
        let ct = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(2)).encrypt(&[0.5]);
        let frame = encode_ciphertext_v2(&ct);
        let request = |shape: &[u64], frames: usize| {
            let mut rx = AlignedBytes::new();
            let words: Vec<u8> = shape.iter().flat_map(|w| w.to_le_bytes()).collect();
            push_frame(&mut rx, &words);
            for _ in 0..frames {
                push_frame(&mut rx, frame.as_bytes());
            }
            rx
        };

        let honest = request(&[2, 1, 2], 3);
        let groups = read_request(&ctx, honest.as_bytes()).expect("an honest request");
        assert_eq!(groups.iter().map(Vec::len).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(groups[1][1].to_owned_ciphertext(), ct);

        for (shape, frames, why) in [
            (&[2, 1, 2][..], 4, "frames after the promised ciphertexts"),
            (&[2, 1, 2, 0][..], 3, "shape frame has trailing words"),
            (&[2, 1][..], 1, "shape frame is truncated"),
            (&[2, 1, 2][..], 2, "request stream ended early"),
            (&[][..], 0, "shape frame is empty"),
        ] {
            let bytes = request(shape, frames);
            let refused = read_request(&ctx, bytes.as_bytes()).expect_err(why);
            assert_eq!(
                refused,
                RequestError::Shape(why),
                "{shape:?} + {frames} frames"
            );
        }
    }
}
