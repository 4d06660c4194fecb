//! Length-prefixed frame codec for the daemon's wire protocol.
//!
//! A frame is a 4-byte **big-endian** length followed by exactly that many
//! payload bytes (UTF-8 JSON at the layer above, but this module never
//! looks inside). The length is bounded by [`MAX_FRAME_LEN`]: a prefix
//! past the bound is rejected *before* any allocation, so a hostile or
//! corrupted client cannot make the daemon reserve gigabytes by sending
//! four bytes.
//!
//! Error taxonomy matters here because the daemon's fault-isolation
//! contract ("a malformed frame kills only its own connection") hinges on
//! telling a clean disconnect from a protocol violation:
//!
//! * [`FrameError::Closed`] — EOF exactly at a frame boundary: the peer
//!   hung up cleanly, nothing was malformed.
//! * [`FrameError::Truncated`] — EOF in the middle of a length prefix or
//!   payload: the peer died or lied about the length.
//! * [`FrameError::Oversize`] — the prefix claims more than
//!   [`MAX_FRAME_LEN`] bytes.
//! * [`FrameError::Io`] — transport-level failure (reset, timeout, …).

use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload, generous for source buffers and
/// suggestion lists alike (1 MiB). Checked on both sides: writers assert,
/// readers reject before allocating.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Why a frame could not be read (see module docs for the taxonomy).
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF at a frame boundary — the peer disconnected, no fault.
    Closed,
    /// The 4-byte prefix claims a payload larger than [`MAX_FRAME_LEN`].
    Oversize {
        /// The claimed payload length.
        len: u64,
    },
    /// EOF arrived mid-prefix or mid-payload.
    Truncated,
    /// Transport failure underneath the codec.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed at a frame boundary"),
            FrameError::Oversize { len } => write!(
                f,
                "frame length {len} exceeds the {MAX_FRAME_LEN}-byte bound"
            ),
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::Io(e) => write!(f, "frame transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        match e {
            FrameError::Io(io) => io,
            FrameError::Closed | FrameError::Truncated => {
                io::Error::new(io::ErrorKind::UnexpectedEof, e.to_string())
            }
            FrameError::Oversize { .. } => {
                io::Error::new(io::ErrorKind::InvalidData, e.to_string())
            }
        }
    }
}

/// Write one frame: the length prefix and the payload assembled into one
/// buffer and handed to the writer in a single `write_all`, then a flush.
///
/// One write, not two, because on a TCP stream a 4-byte prefix sent on its
/// own is a small segment the payload then queues behind (Nagle) until the
/// peer's delayed ACK arrives — a ~40 ms stall per frame on Linux. A frame
/// that leaves as one segment has nothing to wait for.
///
/// # Panics
///
/// If `payload` exceeds [`MAX_FRAME_LEN`] — the writer is this workspace's
/// own code, so an oversize outgoing frame is a bug, not input.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "outgoing frame of {} bytes exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN})",
        payload.len()
    );
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame's payload, distinguishing a clean disconnect from a
/// protocol violation (see [`FrameError`]).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; 4];
    fill(r, &mut prefix, true)?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversize { len: len as u64 });
    }
    let mut payload = vec![0u8; len];
    fill(r, &mut payload, false)?;
    Ok(payload)
}

/// `read_exact` with the codec's EOF taxonomy: EOF before the first byte
/// of the length prefix is a clean [`FrameError::Closed`]; EOF anywhere
/// else is [`FrameError::Truncated`].
fn fill<R: Read>(r: &mut R, buf: &mut [u8], at_boundary: bool) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_payloads_including_empty() {
        for payload in [&b""[..], b"x", b"{\"Stats\":null}", &[0u8; 4096]] {
            let mut wire = Vec::new();
            write_frame(&mut wire, payload).unwrap();
            let got = read_frame(&mut wire.as_slice()).unwrap();
            assert_eq!(got, payload);
        }
    }

    #[test]
    fn eof_at_boundary_is_closed_but_mid_frame_is_truncated() {
        assert!(matches!(
            read_frame(&mut [].as_slice()),
            Err(FrameError::Closed)
        ));
        // Partial length prefix.
        assert!(matches!(
            read_frame(&mut [0u8, 0].as_slice()),
            Err(FrameError::Truncated)
        ));
        // Full prefix promising bytes that never arrive.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        wire.truncate(wire.len() - 2);
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn oversize_prefix_is_rejected_before_allocating() {
        let wire = u32::MAX.to_be_bytes();
        match read_frame(&mut wire.as_slice()) {
            Err(FrameError::Oversize { len }) => assert_eq!(len, u64::from(u32::MAX)),
            other => panic!("expected Oversize, got {other:?}"),
        }
    }
}
