//! The wire codec layer: versioned, length-prefixed binary framing.
//!
//! Every message travelling between real nodes is one *frame*:
//!
//! ```text
//! +----------+-----------+------------+----------------------------------+
//! | magic    | version   | length     | body                             |
//! | 4 bytes  | u16 LE    | u32 LE     | bincode(sender Actor ++ payload) |
//! +----------+-----------+------------+----------------------------------+
//! ```
//!
//! The magic rejects cross-talk from foreign protocols, the version rejects
//! peers speaking an incompatible encoding, and the length is bounded by a
//! configurable maximum so a corrupt or malicious peer cannot make a node
//! allocate unbounded memory. The body encoding is the workspace's compact
//! binary serde format (see `crates/compat/README.md`).

use prestige_types::Actor;
use serde::{Deserialize as _, Serialize as _};

/// Frame preamble identifying the PrestigeBFT wire protocol.
pub const MAGIC: [u8; 4] = *b"PBFT";

/// Version of the body encoding. Bump on any change to the serde stand-in's
/// format or to message layouts.
///
/// v3: campaigns carry certified tip claims (`Camp.commit_cert` /
/// `Camp.tip_cert`), `vcBlock` carries the certified state-transfer payload
/// (`committed_seq` / `ord_tip` / `tip_cert`), and `SyncResp` gained the
/// `ordered` entry list for certified uncommitted-batch sync.
///
/// v4: the durable storage plane — new checkpoint messages (`CkptShare` /
/// `CkptCert`), the `Snapshot` sync kind, and `SyncResp` gained the `ckpt`
/// stable-checkpoint certificate field. v3 peers are rejected at the frame
/// header.
///
/// v5: ordering and chain digests are built on one keys digest, so every
/// digest value changed.
///
/// v6: one catch-up request, `SyncReq { view, from, to }`, in place of the
/// four-kind `SyncReq { kind, from, to }`; the responder decides what the
/// `SyncResp` holds.
pub const WIRE_VERSION: u16 = 6;

/// Default upper bound on a frame body (16 MiB — a full batch of maximum-size
/// proposals plus QCs fits comfortably).
pub const DEFAULT_MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Errors surfaced while encoding or decoding frames.
#[derive(Debug)]
pub enum FrameError {
    /// The preamble was not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different wire version.
    VersionMismatch {
        /// Version advertised by the peer.
        got: u16,
        /// Version this node speaks.
        want: u16,
    },
    /// The advertised body length exceeds the configured maximum.
    Oversize {
        /// Advertised body length.
        len: u32,
        /// Configured maximum.
        max: u32,
    },
    /// The body failed to decode.
    Codec(serde::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::VersionMismatch { got, want } => {
                write!(f, "wire version mismatch: peer {got}, local {want}")
            }
            FrameError::Oversize { len, max } => {
                write!(f, "frame of {len} bytes exceeds maximum {max}")
            }
            FrameError::Codec(e) => write!(f, "frame body decode: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<serde::Error> for FrameError {
    fn from(e: serde::Error) -> Self {
        FrameError::Codec(e)
    }
}

/// Encoder/decoder for length-prefixed frames.
#[derive(Debug, Clone, Copy)]
pub struct FrameCodec {
    max_frame: u32,
}

impl Default for FrameCodec {
    fn default() -> Self {
        FrameCodec {
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

impl FrameCodec {
    /// A codec with the default frame bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// A codec with a custom frame bound (both directions).
    pub fn with_max_frame(max_frame: u32) -> Self {
        FrameCodec { max_frame }
    }

    /// The configured maximum body size.
    pub fn max_frame(&self) -> u32 {
        self.max_frame
    }

    /// Encodes `(from, payload)` into a complete frame.
    pub fn encode<M: serde::Serialize>(
        &self,
        from: Actor,
        payload: &M,
    ) -> Result<Vec<u8>, FrameError> {
        let mut frame = Vec::with_capacity(64);
        self.encode_into(from, payload, &mut frame)?;
        Ok(frame)
    }

    /// Encodes `(from, payload)` into `out` (cleared first), writing header
    /// and body in a single pass: the body is serialized directly after a
    /// placeholder header and the length field patched afterwards, so there
    /// is no intermediate body buffer. A caller that reuses `out` encodes
    /// without allocating in steady state.
    pub fn encode_into<M: serde::Serialize>(
        &self,
        from: Actor,
        payload: &M,
        out: &mut Vec<u8>,
    ) -> Result<(), FrameError> {
        out.clear();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]);
        from.serialize(out);
        payload.serialize(out);
        let len = u32::try_from(out.len() - 10).map_err(|_| FrameError::Oversize {
            len: u32::MAX,
            max: self.max_frame,
        })?;
        if len > self.max_frame {
            out.clear();
            return Err(FrameError::Oversize {
                len,
                max: self.max_frame,
            });
        }
        out[6..10].copy_from_slice(&len.to_le_bytes());
        Ok(())
    }

    /// Decodes one frame from a byte slice, returning the sender, payload,
    /// and the number of bytes consumed. Returns `Ok(None)` when the slice
    /// does not yet hold a complete frame (streaming decode).
    pub fn decode<M: serde::Deserialize>(
        &self,
        buf: &[u8],
    ) -> Result<Option<(Actor, M, usize)>, FrameError> {
        if buf.len() < 10 {
            return Ok(None);
        }
        let magic: [u8; 4] = buf[0..4].try_into().expect("sized");
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(buf[4..6].try_into().expect("sized"));
        if version != WIRE_VERSION {
            return Err(FrameError::VersionMismatch {
                got: version,
                want: WIRE_VERSION,
            });
        }
        let len = u32::from_le_bytes(buf[6..10].try_into().expect("sized"));
        if len > self.max_frame {
            return Err(FrameError::Oversize {
                len,
                max: self.max_frame,
            });
        }
        let total = 10 + len as usize;
        if buf.len() < total {
            return Ok(None);
        }
        let mut reader = serde::Reader::new(&buf[10..total]);
        let from = Actor::deserialize(&mut reader)?;
        let payload = M::deserialize(&mut reader)?;
        if !reader.is_empty() {
            return Err(FrameError::Codec(serde::Error::LengthOverflow));
        }
        Ok(Some((from, payload, total)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_types::{ClientId, Message, ServerId, VcBlock, View};

    fn sample() -> Message {
        Message::SyncReq {
            view: View(2),
            from: 3,
            to: 17,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let codec = FrameCodec::new();
        let from = Actor::Server(ServerId(2));
        let view_payload = Message::SyncResp {
            vc_blocks: vec![VcBlock::genesis(4)],
            tx_blocks: vec![],
            ordered: vec![],
            ckpt: None,
        };
        for message in [sample(), view_payload] {
            let frame = codec.encode(from, &message).unwrap();
            let (sender, msg, used) = codec.decode::<Message>(&frame).unwrap().unwrap();
            assert_eq!(sender, from);
            assert_eq!(msg, message);
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_buffer() {
        let codec = FrameCodec::new();
        let from = Actor::Server(ServerId(4));
        let expected = codec.encode(from, &sample()).unwrap();
        let mut buf = vec![0xAAu8; 3]; // stale content must be cleared
        codec.encode_into(from, &sample(), &mut buf).unwrap();
        assert_eq!(buf, expected);
        // Re-encoding into the same buffer yields the same bytes again.
        codec.encode_into(from, &sample(), &mut buf).unwrap();
        assert_eq!(buf, expected);
    }

    #[test]
    fn oversize_encode_into_clears_output() {
        let codec = FrameCodec::with_max_frame(8);
        let mut buf = Vec::new();
        let err = codec.encode_into(Actor::Server(ServerId(0)), &sample(), &mut buf);
        assert!(matches!(err, Err(FrameError::Oversize { .. })));
        assert!(buf.is_empty(), "failed encode must not leak partial frames");
    }

    #[test]
    fn streaming_decode_waits_for_full_frame() {
        let codec = FrameCodec::new();
        let frame = codec.encode(Actor::Client(ClientId(1)), &sample()).unwrap();
        for cut in [0, 5, 9, frame.len() - 1] {
            assert!(codec.decode::<Message>(&frame[..cut]).unwrap().is_none());
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let codec = FrameCodec::new();
        let mut frame = codec.encode(Actor::Server(ServerId(0)), &sample()).unwrap();
        frame[0] = b'X';
        assert!(matches!(
            codec.decode::<Message>(&frame),
            Err(FrameError::BadMagic(_))
        ));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let codec = FrameCodec::new();
        let mut frame = codec.encode(Actor::Server(ServerId(0)), &sample()).unwrap();
        frame[4] = WIRE_VERSION as u8 + 1;
        assert!(matches!(
            codec.decode::<Message>(&frame),
            Err(FrameError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn oversize_frames_are_rejected_before_allocation() {
        let codec = FrameCodec::with_max_frame(64);
        let big = Message::Prop {
            proposals: (0..100)
                .map(|i| {
                    prestige_types::Proposal::new(
                        prestige_types::Transaction::with_size(ClientId(1), i, 128),
                        prestige_types::Digest::ZERO,
                    )
                })
                .collect(),
            client_sig: [0; 32],
        };
        assert!(matches!(
            codec.encode(Actor::Client(ClientId(1)), &big),
            Err(FrameError::Oversize { .. })
        ));
        // Decoding a forged oversize header must fail fast too.
        let mut forged = Vec::new();
        forged.extend_from_slice(&MAGIC);
        forged.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        forged.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            codec.decode::<Message>(&forged),
            Err(FrameError::Oversize { .. })
        ));
    }

    #[test]
    fn trailing_garbage_in_body_is_rejected() {
        let codec = FrameCodec::new();
        let from = Actor::Server(ServerId(1));
        let mut body = Vec::new();
        serde::Serialize::serialize(&from, &mut body);
        serde::Serialize::serialize(&sample(), &mut body);
        body.push(0xFF);
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        assert!(matches!(
            codec.decode::<Message>(&frame),
            Err(FrameError::Codec(_))
        ));
    }
}
