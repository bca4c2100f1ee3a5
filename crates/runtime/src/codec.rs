//! The wire codec: length-prefixed frames of fixed-width binary.
//!
//! Every consensus message crosses the TCP mesh as one frame:
//!
//! ```text
//! +----------------+------------------------------------------+
//! | length: u32 BE | payload: WireMessage in its `Wire` form  |
//! +----------------+------------------------------------------+
//! ```
//!
//! The payload is the message's [`Wire`] encoding: a 1-byte tag per enum,
//! fixed-width little-endian integers, `u32`-counted sequences (the layout
//! table is in `docs/RUNTIME.md`). Each type encodes itself next to its
//! definition, bottom-up through `lumiere-types`, `-crypto`, `-consensus`
//! and `-core`; this module only adds the frame. A message encodes to
//! exactly the same bytes on every node and every run, and golden-byte tests
//! pin the layout so a change to it is deliberate.
//!
//! Frames are capped at [`MAX_FRAME_BYTES`]: every protocol message is
//! `O(κ)`-sized, so anything near the cap is a corrupt or hostile stream and
//! is rejected before allocation. Inside a frame the decoder checks every
//! sequence count against the bytes that remain before allocating for it,
//! and rejects unknown tags and trailing bytes — no input makes it panic or
//! reserve more memory than the frame itself occupies.

use crate::message::WireMessage;
use lumiere_types::wire::Wire;
use std::io::{Read, Write};

/// Upper bound on a frame's payload size. Protocol messages encode to tens
/// of bytes (a proposal: 12 per transaction); a length prefix beyond this
/// indicates stream corruption (or a hostile peer) and poisons the
/// connection.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Payload read granularity: the stream reader fills a frame in bounded
/// steps, so even a length prefix at the cap commits no allocation until
/// matching bytes actually arrive.
const READ_CHUNK: usize = 8 * 1024;

/// A codec failure: I/O, a malformed frame, or undecodable payload.
#[derive(Debug)]
pub enum CodecError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The stream ended cleanly between frames (orderly peer shutdown).
    Closed,
    /// The frame is structurally invalid: oversized or truncated, or its
    /// payload is not exactly one [`WireMessage`] (unknown tag, truncated
    /// field, impossible count, trailing bytes).
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "wire I/O error: {e}"),
            CodecError::Closed => write!(f, "connection closed"),
            CodecError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Appends one self-contained frame (length prefix + binary payload) to
/// `out`, growing it at most once: the size comes from the message's
/// structural [`Wire::encoded_len`]. Callers that send many frames clear and
/// reuse one buffer.
pub fn encode_frame_into(msg: &WireMessage, out: &mut Vec<u8>) {
    let len = msg.encoded_len();
    debug_assert!(len <= MAX_FRAME_BYTES, "{len}-byte {} frame", msg.kind());
    out.reserve(4 + len);
    out.extend_from_slice(&(len as u32).to_be_bytes());
    let start = out.len();
    msg.encode_into(out);
    debug_assert_eq!(
        out.len() - start,
        len,
        "encoded_len disagrees with encode_into"
    );
}

/// Encodes a message into one self-contained frame.
pub fn encode_frame(msg: &WireMessage) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame_into(msg, &mut frame);
    frame
}

/// Reads a length prefix, rejecting lengths beyond [`MAX_FRAME_BYTES`].
fn payload_len(prefix: [u8; 4]) -> Result<usize, CodecError> {
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(CodecError::Malformed(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    Ok(len)
}

/// Decodes a frame's payload, which must be exactly one message.
fn decode_payload(payload: &[u8]) -> Result<WireMessage, CodecError> {
    WireMessage::decode_exact(payload).map_err(|e| CodecError::Malformed(e.to_string()))
}

/// Decodes one frame previously produced by [`encode_frame`]. Returns the
/// message and the number of bytes consumed.
pub fn decode_frame(bytes: &[u8]) -> Result<(WireMessage, usize), CodecError> {
    let Some((prefix, rest)) = bytes.split_first_chunk::<4>() else {
        return Err(CodecError::Malformed(format!(
            "frame shorter than its length prefix ({} bytes)",
            bytes.len()
        )));
    };
    let len = payload_len(*prefix)?;
    let Some(payload) = rest.get(..len) else {
        return Err(CodecError::Malformed(format!(
            "frame truncated: prefix says {len} bytes, {} available",
            rest.len()
        )));
    };
    Ok((decode_payload(payload)?, 4 + len))
}

/// Writes one frame to a stream (a single `write_all`, so a frame is never
/// interleaved with another writer's bytes on the same stream).
pub fn write_frame<W: Write>(writer: &mut W, msg: &WireMessage) -> Result<(), CodecError> {
    writer.write_all(&encode_frame(msg))?;
    Ok(())
}

/// Reads exactly one frame from a stream. [`CodecError::Closed`] means the
/// peer shut the stream down cleanly at a frame boundary.
///
/// This is the only frame reader: the TCP mesh calls it through a `Read`
/// adapter that polls its stop flag (see [`crate::tcp`]).
pub fn read_frame<R: Read>(reader: &mut R) -> Result<WireMessage, CodecError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match reader.read(&mut prefix[filled..])? {
            0 if filled == 0 => return Err(CodecError::Closed),
            0 => {
                return Err(CodecError::Malformed(
                    "stream ended inside a length prefix".to_string(),
                ))
            }
            k => filled += k,
        }
    }
    let len = payload_len(prefix)?;
    // Grow the payload one bounded step at a time, each step filled before
    // the next is reserved: a hostile peer cannot make the reader commit
    // memory with a prefix alone.
    let mut payload = Vec::new();
    while payload.len() < len {
        let filled = payload.len();
        payload.resize(filled + (len - filled).min(READ_CHUNK), 0);
        reader.read_exact(&mut payload[filled..])?;
    }
    decode_payload(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_consensus::{Block, ConsensusMessage, QuorumCert, GENESIS_HASH};
    use lumiere_types::{Batch, ProcessId, Transaction, TxId, View};

    fn sample() -> WireMessage {
        WireMessage::Consensus(ConsensusMessage::NewQc(QuorumCert::genesis()))
    }

    /// A frame around an arbitrary payload.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(payload);
        frame
    }

    fn malformed(result: Result<(WireMessage, usize), CodecError>) -> String {
        match result {
            Err(CodecError::Malformed(why)) => why,
            other => panic!("expected a malformed frame, got {other:?}"),
        }
    }

    #[test]
    fn frames_round_trip() {
        let msg = sample();
        let frame = encode_frame(&msg);
        let (back, consumed) = decode_frame(&frame).unwrap();
        assert_eq!(back, msg);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn encoding_is_deterministic_and_appends() {
        assert_eq!(encode_frame(&sample()), encode_frame(&sample()));
        // `encode_frame_into` appends: two frames in one buffer are the two
        // frames back to back.
        let mut buf = Vec::new();
        encode_frame_into(&sample(), &mut buf);
        encode_frame_into(&sample(), &mut buf);
        assert_eq!(
            buf,
            [encode_frame(&sample()), encode_frame(&sample())].concat()
        );
    }

    #[test]
    fn stream_round_trip_handles_back_to_back_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample()).unwrap();
        write_frame(&mut buf, &sample()).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), sample());
        assert_eq!(read_frame(&mut cursor).unwrap(), sample());
        assert!(matches!(read_frame(&mut cursor), Err(CodecError::Closed)));
    }

    #[test]
    fn oversized_and_truncated_frames_are_rejected() {
        let mut frame = encode_frame(&sample());
        frame.truncate(frame.len() - 1);
        assert!(malformed(decode_frame(&frame)).contains("frame truncated"));
        assert!(malformed(decode_frame(&frame[..3])).contains("length prefix"));
        let huge = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes();
        let mut bytes = huge.to_vec();
        bytes.extend_from_slice(b"xxxx");
        assert!(malformed(decode_frame(&bytes)).contains("cap"));
    }

    #[test]
    fn garbage_payload_is_rejected() {
        // Unknown outer tag.
        assert!(malformed(decode_frame(&framed(&[9, 0, 0, 0]))).contains("unknown WireMessage tag"));
        // Known outer tag, unknown inner tag.
        assert!(
            malformed(decode_frame(&framed(&[1, 0xff]))).contains("unknown ConsensusMessage tag")
        );
        assert!(malformed(decode_frame(&framed(&[0, 8]))).contains("unknown PacemakerMessage tag"));
        // A field cut short inside a correctly framed payload: a Submit
        // needs 12 bytes after its tag.
        assert!(malformed(decode_frame(&framed(&[2, 1, 2, 3]))).contains("truncated"));
        // One byte too many after a complete message.
        let mut payload = encode_frame(&sample())[4..].to_vec();
        payload.push(0);
        assert!(malformed(decode_frame(&framed(&payload))).contains("1 trailing bytes"));
        // An empty payload holds no message.
        assert!(malformed(decode_frame(&framed(&[]))).contains("truncated"));
    }

    #[test]
    fn stream_reader_rejects_oversized_prefix_without_allocating() {
        // A hostile prefix claiming u32::MAX bytes must be rejected from the
        // prefix alone — the reader never gets to touch the (absent)
        // payload.
        let bytes = u32::MAX.to_be_bytes().to_vec();
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn stream_reader_rejects_short_payloads_and_corrupt_bytes() {
        let read = |bytes: Vec<u8>| read_frame(&mut std::io::Cursor::new(bytes));

        // Prefix promises 100 bytes, stream holds 3: an I/O error (EOF
        // inside the frame), not a panic or a hang.
        let mut bytes = 100u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        assert!(matches!(read(bytes), Err(CodecError::Io(_))));

        // The stream ends inside the prefix itself.
        assert!(matches!(read(vec![0, 0]), Err(CodecError::Malformed(_))));

        // A complete frame whose payload starts with an unknown tag.
        assert!(matches!(
            read(framed(&[0xFF, 0xFE, 0x80, 0x81])),
            Err(CodecError::Malformed(_))
        ));

        // A vote cut off in the middle of its signature.
        let vote = WireMessage::Consensus(ConsensusMessage::Vote {
            view: View::new(3),
            block_hash: 7,
            signature: lumiere_crypto::Signature::new(ProcessId::new(1), 5),
        });
        let payload = &encode_frame(&vote)[4..];
        assert!(matches!(
            read(framed(&payload[..payload.len() - 4])),
            Err(CodecError::Malformed(_))
        ));

        // A complete message followed by a stray byte inside the frame.
        let mut padded = payload.to_vec();
        padded.push(0);
        assert!(matches!(
            read(framed(&padded)),
            Err(CodecError::Malformed(_))
        ));

        // A zero-length frame is malformed (no message fits in no bytes).
        assert!(matches!(read(framed(&[])), Err(CodecError::Malformed(_))));
    }

    #[test]
    fn frames_larger_than_one_read_chunk_still_round_trip() {
        // A real 1 000-transaction proposal: 12 bytes per transaction puts
        // the frame past the 8 KiB read step, so the stream reader has to
        // assemble it across step boundaries.
        let batch = Batch {
            txs: (0..1_000).map(|i| Transaction::new(TxId::new(i))).collect(),
        };
        let block = Block::new(
            GENESIS_HASH,
            1,
            View::new(0),
            ProcessId::new(0),
            batch,
            QuorumCert::genesis(),
        );
        let msg = WireMessage::Consensus(ConsensusMessage::Proposal(block));
        let frame = encode_frame(&msg);
        assert!(frame.len() > READ_CHUNK, "frame is {} bytes", frame.len());
        assert_eq!(decode_frame(&frame).unwrap(), (msg.clone(), frame.len()));
        let mut cursor = std::io::Cursor::new(frame);
        assert_eq!(read_frame(&mut cursor).unwrap(), msg);
        assert!(matches!(read_frame(&mut cursor), Err(CodecError::Closed)));
    }
}
