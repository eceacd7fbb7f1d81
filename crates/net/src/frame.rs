//! The length-prefixed frame codec.
//!
//! A frame on the wire is `[u32 LE payload length][u8 tag][payload]`.
//! The length counts the payload only; the fixed header is
//! [`HEADER_LEN`] bytes. Decoding enforces a hard maximum payload size
//! **before** any allocation happens — a hostile client declaring a
//! 4 GiB frame costs the server a 5-byte header read and a typed
//! [`FrameError::Oversize`], never a buffer.
//!
//! The codec is deliberately dumb: it knows nothing about tags or
//! payload semantics (that is [`crate::server`]'s job) and it never
//! consumes bytes beyond the one frame it decodes, so pipelined frames
//! in one buffer survive intact.

use std::fmt;

/// Bytes of the fixed frame header: a `u32` little-endian payload
/// length followed by one tag byte.
pub const HEADER_LEN: usize = 5;

/// Default hard cap on a frame's payload size (1 MiB). Large enough
/// for any sample the serving models take, small enough that a
/// flooding client cannot balloon server memory.
pub const DEFAULT_MAX_PAYLOAD: usize = 1 << 20;

/// One decoded frame: a tag byte and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Protocol tag (see [`crate::server`] for the request vocabulary;
    /// in responses this byte carries the [`crate::WireStatus`] code).
    pub tag: u8,
    /// The payload bytes (may be empty).
    pub payload: Vec<u8>,
}

/// Typed decode failures. Neither variant is a panic and neither
/// over-reads: `Truncated` is the streaming "need more bytes" signal,
/// `Oversize` is a protocol violation detected from the header alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer does not yet hold a complete frame; `need` is the
    /// total byte count required (header, or header + declared
    /// payload), `have` what is present.
    Truncated {
        /// Bytes currently available.
        have: usize,
        /// Total bytes needed to decode the frame.
        need: usize,
    },
    /// The header declares a payload larger than the hard cap. Detected
    /// before any payload allocation.
    Oversize {
        /// The declared payload length.
        declared: usize,
        /// The configured cap it exceeded.
        max: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            Self::Oversize { declared, max } => {
                write!(f, "oversize frame: declares {declared} bytes, cap is {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame.
///
/// # Panics
///
/// Panics if `payload.len()` exceeds `u32::MAX` (not reachable from
/// the serving protocol, whose payloads are capped far below).
#[must_use]
pub fn encode(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    encode_into(&mut out, tag, |out| out.extend_from_slice(payload));
    out
}

/// Appends one frame to `out`, its payload written in place by `body`
/// (no intermediate payload buffer). Panics as [`encode`] does.
pub(crate) fn encode_into(out: &mut Vec<u8>, tag: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    body(out);
    let len = out.len() - start - HEADER_LEN;
    let len = u32::try_from(len).expect("payload fits in a u32 length prefix");
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4] = tag;
}

/// Decodes the first frame in `buf`, returning it and the exact number
/// of bytes consumed. Bytes past the first frame are never touched.
///
/// # Errors
///
/// [`FrameError::Truncated`] when `buf` does not yet hold a complete
/// frame (streaming callers read more and retry);
/// [`FrameError::Oversize`] when the header declares a payload above
/// `max_payload` — returned before any payload-sized allocation.
pub fn decode(buf: &[u8], max_payload: usize) -> Result<(Frame, usize), FrameError> {
    let (tag, payload, used) = split(buf, max_payload)?;
    let payload = payload.to_vec();
    Ok((Frame { tag, payload }, used))
}

/// [`decode`] without the copy: the first frame's tag, its payload
/// borrowed from `buf`, and the bytes the frame occupies.
pub(crate) fn split(buf: &[u8], max_payload: usize) -> Result<(u8, &[u8], usize), FrameError> {
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Truncated {
            have: buf.len(),
            need: HEADER_LEN,
        });
    }
    let declared = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if declared > max_payload {
        return Err(FrameError::Oversize {
            declared,
            max: max_payload,
        });
    }
    let total = HEADER_LEN + declared;
    if buf.len() < total {
        return Err(FrameError::Truncated {
            have: buf.len(),
            need: total,
        });
    }
    Ok((buf[4], &buf[HEADER_LEN..total], total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_zero_length_and_max_size() {
        for payload in [vec![], vec![7u8; 16], vec![0xAB; 64]] {
            let buf = encode(3, &payload);
            let (frame, used) = decode(&buf, 64).expect("within cap");
            assert_eq!(used, buf.len());
            assert_eq!(frame.tag, 3);
            assert_eq!(frame.payload, payload);
        }
    }

    #[test]
    fn oversize_is_detected_from_the_header_alone() {
        // Header declares 100 bytes against a cap of 99 — no payload
        // bytes are even present, and the error is Oversize (detected
        // before allocation), not Truncated.
        let mut buf = 100u32.to_le_bytes().to_vec();
        buf.push(1);
        assert_eq!(
            decode(&buf, 99),
            Err(FrameError::Oversize {
                declared: 100,
                max: 99
            })
        );
        // At exactly the cap it is a (truncated, then complete) frame.
        assert_eq!(
            decode(&buf, 100),
            Err(FrameError::Truncated { have: 5, need: 105 })
        );
        buf.extend_from_slice(&[0u8; 100]);
        let (frame, used) = decode(&buf, 100).unwrap();
        assert_eq!((frame.payload.len(), used), (100, 105));
    }

    #[test]
    fn trailing_bytes_are_not_consumed() {
        let mut buf = encode(9, b"abc");
        let junk = [0xFFu8, 0x00, 0x55];
        buf.extend_from_slice(&junk);
        let (frame, used) = decode(&buf, 1024).unwrap();
        assert_eq!(frame.payload, b"abc");
        assert_eq!(&buf[used..], &junk);
    }
}
