//! Wire-codec properties: every consensus message type the protocol can put
//! on the network must survive `encode_frame` → `decode_frame` (and the
//! streaming `write_frame` → `read_frame` pair) unchanged, over randomized
//! views, signers, blocks and certificates; frame lengths are exactly the
//! structural `encoded_len()`; the byte layout is pinned by golden frames;
//! and no mutation of a valid frame makes the decoder panic, over-read or
//! allocate beyond the frame.
//!
//! The TCP mesh relies on the codec being the identity — a single
//! mis-encoded field desynchronizes a live cluster in ways the
//! discrete-event simulator can never exhibit — so the round trip is checked
//! for each of the twelve `WireMessage` variants separately, with valid
//! signatures and certificates built from the deterministic PKI.

use lumiere_consensus::{Block, ConsensusMessage, QuorumCert};
use lumiere_core::certs::{
    epoch_view_digest, timeout_digest, view_msg_digest, wish_digest, EpochCert, TimeoutCert,
    ViewCert, WishCert,
};
use lumiere_core::messages::PacemakerMessage;
use lumiere_crypto::{keygen, KeyPair, Signature};
use lumiere_runtime::codec::{decode_frame, encode_frame, read_frame, write_frame, CodecError};
use lumiere_runtime::WireMessage;
use lumiere_types::{Batch, Duration, Params, ProcessId, Transaction, TxId, View, Wire};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// System sizes the properties run at: one-word signer bitmaps up to the
/// 64-processor boundary, and a three-word bitmap at n = 129.
const SIZES: [usize; 4] = [4, 16, 64, 129];

/// Builds every `WireMessage` variant from one randomized parameter set:
/// raw-signature pacemaker messages, all four aggregated certificates, the
/// three HotStuff messages (proposal, vote, QC announcement) and a client
/// transaction submission.
fn all_variants(
    keys: &[KeyPair],
    params: &Params,
    view_raw: i64,
    height: u64,
    payload: u64,
    parent: u64,
    proposer: usize,
) -> Vec<WireMessage> {
    let n = keys.len();
    let view = View::new(view_raw);
    let signer = &keys[proposer % n];
    let sign_all = |digest| -> Vec<Signature> { keys.iter().map(|k| k.sign(digest)).collect() };

    let qc = QuorumCert::aggregate(
        view,
        parent,
        &sign_all(QuorumCert::vote_digest(view, parent)),
        params,
    )
    .expect("n signatures always satisfy the quorum threshold");
    // A small multi-transaction batch derived from the randomized payload,
    // mixing a sized transaction with a default-sized one.
    let batch = Batch {
        txs: vec![
            Transaction::sized(TxId::new(payload), (payload % 4096) as u32),
            Transaction::new(TxId::new(payload.wrapping_add(1))),
        ],
    };
    let block = Block::new(
        parent,
        height,
        View::new(view_raw.saturating_add(1)),
        ProcessId::new(proposer % n),
        batch,
        qc.clone(),
    );

    vec![
        WireMessage::Pacemaker(PacemakerMessage::ViewMsg {
            view,
            signature: signer.sign(view_msg_digest(view)),
        }),
        WireMessage::Pacemaker(PacemakerMessage::EpochViewMsg {
            view,
            signature: signer.sign(epoch_view_digest(view)),
        }),
        WireMessage::Pacemaker(PacemakerMessage::ViewCert(
            ViewCert::aggregate(view, &sign_all(view_msg_digest(view)), params)
                .expect("view cert aggregates"),
        )),
        WireMessage::Pacemaker(PacemakerMessage::EpochCert(
            EpochCert::aggregate(view, &sign_all(epoch_view_digest(view)), params)
                .expect("epoch cert aggregates"),
        )),
        WireMessage::Pacemaker(PacemakerMessage::TimeoutCert(
            TimeoutCert::aggregate(view, &sign_all(epoch_view_digest(view)), params)
                .expect("timeout cert aggregates"),
        )),
        WireMessage::Pacemaker(PacemakerMessage::Wish {
            view,
            signature: signer.sign(wish_digest(view)),
        }),
        WireMessage::Pacemaker(PacemakerMessage::SyncCert(
            WishCert::aggregate(view, &sign_all(wish_digest(view)), params)
                .expect("wish cert aggregates"),
        )),
        WireMessage::Pacemaker(PacemakerMessage::Timeout {
            view,
            signature: signer.sign(timeout_digest(view)),
        }),
        WireMessage::Consensus(ConsensusMessage::Proposal(block.clone())),
        WireMessage::Consensus(ConsensusMessage::Vote {
            view,
            block_hash: block.hash(),
            signature: signer.sign(QuorumCert::vote_digest(view, block.hash())),
        }),
        WireMessage::Consensus(ConsensusMessage::NewQc(qc)),
        WireMessage::Submit(Transaction::sized(
            TxId::new(payload.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            (payload % 65_536) as u32,
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Frame encode → decode is the identity for every message variant, the
    /// decoder consumes exactly the frame it was given, and the encoding is
    /// byte-deterministic — at every system size, multi-word bitmaps
    /// included.
    #[test]
    fn every_wire_message_round_trips(
        n_pick in 0usize..SIZES.len(),
        seed in 0u64..1_000,
        view_raw in 0i64..1_000_000_000,
        height in 0u64..1_000_000,
        payload in 0u64..1_000_000_000,
        parent in 0u64..u64::MAX,
        proposer in 0usize..129,
    ) {
        let n = SIZES[n_pick];
        let (keys, _) = keygen(n, seed);
        let params = Params::new(n, Duration::from_millis(10));
        let variants = all_variants(&keys, &params, view_raw, height, payload, parent, proposer);
        prop_assert_eq!(variants.len(), 12, "one entry per WireMessage variant");
        for msg in &variants {
            let frame = encode_frame(msg);
            let (back, consumed) = decode_frame(&frame)
                .unwrap_or_else(|e| panic!("{} failed to decode: {e}", msg.kind()));
            prop_assert_eq!(&back, msg, "decode must invert encode for {}", msg.kind());
            prop_assert_eq!(consumed, frame.len(), "decoder must consume the whole frame");
            prop_assert_eq!(encode_frame(msg), frame, "encoding must be deterministic");
        }
    }

    /// A frame is exactly its 4-byte prefix plus the structural
    /// `encoded_len()`, and the content never exceeds the modelled
    /// `wire_size()` by more than tags and transaction headers.
    ///
    /// The two measures differ on purpose: `wire_size()` charges what real
    /// cryptography and real payloads would cost (48-byte signatures,
    /// 32-byte digests, each transaction's declared `size`), while the frame
    /// ships the simulation's content (12-byte signatures, 8-byte digests,
    /// 12 bytes per transaction and no payload body). So the bound is
    /// one-sided: what the frame adds over the model is only enum tags, the
    /// bitmap and batch counts, and — for a transaction declaring fewer
    /// bytes than its own 12-byte header — that header: at most 16 bytes,
    /// plus 16 per carried transaction.
    #[test]
    fn frame_lengths_are_exact_and_bounded_by_the_model(
        n_pick in 0usize..SIZES.len(),
        seed in 0u64..1_000,
        view_raw in 0i64..1_000_000_000,
        height in 0u64..1_000_000,
        payload in 0u64..1_000_000_000,
        parent in 0u64..u64::MAX,
        proposer in 0usize..129,
    ) {
        let n = SIZES[n_pick];
        let (keys, _) = keygen(n, seed);
        let params = Params::new(n, Duration::from_millis(10));
        let mut variants =
            all_variants(&keys, &params, view_raw, height, payload, parent, proposer);
        // The cases the bound is tight on: unsigned genesis certificates and
        // zero-size marker transactions.
        variants.push(WireMessage::Consensus(ConsensusMessage::NewQc(QuorumCert::genesis())));
        variants.push(WireMessage::Consensus(ConsensusMessage::Proposal(Block::new(
            parent,
            height,
            View::new(view_raw),
            ProcessId::new(proposer % n),
            Batch::tag(payload),
            QuorumCert::genesis(),
        ))));
        variants.push(WireMessage::Submit(Transaction::sized(TxId::new(payload), 0)));
        for msg in &variants {
            let encoded = msg.encoded_len();
            prop_assert_eq!(encode_frame(msg).len(), 4 + encoded, "{}", msg.kind());
            let txs = match msg {
                WireMessage::Submit(_) => 1,
                WireMessage::Consensus(ConsensusMessage::Proposal(b)) => b.payload().len(),
                _ => 0,
            };
            prop_assert!(
                encoded <= msg.wire_size() + 16 * (1 + txs),
                "{}: {encoded} content bytes exceed wire_size {} by more than tags and \
                 {txs} transaction headers",
                msg.kind(),
                msg.wire_size()
            );
        }
    }

    /// A stream of back-to-back frames (as the TCP reader sees them) yields
    /// the same messages in order through the streaming reader.
    #[test]
    fn framed_streams_round_trip_in_order(
        n in 4usize..7,
        seed in 0u64..1_000,
        view_raw in 0i64..1_000_000,
        height in 0u64..10_000,
        payload in 0u64..10_000,
        parent in 0u64..u64::MAX,
        proposer in 0usize..7,
    ) {
        let (keys, _) = keygen(n, seed);
        let params = Params::new(n, Duration::from_millis(10));
        let variants = all_variants(&keys, &params, view_raw, height, payload, parent, proposer);
        let mut buf = Vec::new();
        for msg in &variants {
            write_frame(&mut buf, msg).expect("writing to a Vec cannot fail");
        }
        let mut cursor = std::io::Cursor::new(buf);
        for msg in &variants {
            let back = read_frame(&mut cursor)
                .unwrap_or_else(|e| panic!("stream read failed: {e}"));
            prop_assert_eq!(&back, msg);
        }
        prop_assert!(
            matches!(read_frame(&mut cursor), Err(CodecError::Closed)),
            "a drained stream must report a clean close"
        );
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Three frames pinned byte for byte, so a layout change (field order,
/// widths, tag values, endianness) cannot happen by accident. Spaces
/// separate the fields; `docs/RUNTIME.md` has the table they follow.
#[test]
fn golden_frames_pin_the_layout() {
    let golden = |frame: Vec<u8>, spaced: &str| {
        assert_eq!(hex(&frame), spaced.replace(' ', ""), "layout changed");
    };

    let vote = WireMessage::Consensus(ConsensusMessage::Vote {
        view: View::new(3),
        block_hash: 0x0102_0304_0506_0708,
        signature: Signature::new(ProcessId::new(2), 0x1122_3344_5566_7788),
    });
    // prefix | Consensus | Vote | view | block hash | signer | tag
    golden(
        encode_frame(&vote),
        "0000001e 01 01 0300000000000000 0807060504030201 02000000 8877665544332211",
    );

    let submit = WireMessage::Submit(Transaction::sized(TxId::new(0xdead_beef), 256));
    // prefix | Submit | id | size
    golden(
        encode_frame(&submit),
        "0000000d 02 efbeadde00000000 00010000",
    );

    // n = 7, signed by processors 0–4: one bitmap word, 0b11111.
    let (keys, _) = keygen(7, 1);
    let params = Params::new(7, Duration::from_millis(10));
    let view = View::new(2);
    let digest = QuorumCert::vote_digest(view, 0xabc);
    let votes: Vec<_> = keys.iter().take(5).map(|k| k.sign(digest)).collect();
    let qc = QuorumCert::aggregate(view, 0xabc, &votes, &params).unwrap();
    // prefix | Consensus | NewQc | view | block hash | tsig present |
    // digest | proof | word count | word
    golden(
        encode_frame(&WireMessage::Consensus(ConsensusMessage::NewQc(qc))),
        "0000002f 01 02 0200000000000000 bc0a000000000000 01 \
         906f757ee6163b44 414bf28c0d31202b 01000000 1f00000000000000",
    );
}

/// Asserts what must hold of `decode_frame` on *any* bytes: it returns (no
/// panic); an accepted frame is exactly the canonical encoding of the
/// message it decoded to, consumed to the last byte of the declared length
/// — so nothing it allocated can be larger than the frame it came from —
/// and the stream reader agrees with the slice decoder.
fn check_hostile(bytes: &[u8]) -> bool {
    let streamed = read_frame(&mut std::io::Cursor::new(bytes));
    match decode_frame(bytes) {
        Ok((msg, consumed)) => {
            let declared = u32::from_be_bytes(bytes[..4].try_into().unwrap()) as usize;
            assert_eq!(
                consumed,
                4 + declared,
                "consumed must be the declared frame"
            );
            assert_eq!(
                encode_frame(&msg),
                &bytes[..consumed],
                "an accepted frame must be the canonical encoding of its message"
            );
            if let WireMessage::Consensus(ConsensusMessage::Proposal(block)) = &msg {
                assert!(block.payload().txs.capacity() * 12 <= consumed);
            }
            assert_eq!(streamed.ok(), Some(msg), "stream reader must agree");
            true
        }
        Err(CodecError::Malformed(_)) => {
            assert!(
                streamed.is_err(),
                "stream reader accepted a malformed frame"
            );
            false
        }
        Err(other) => panic!("decode_frame reads no stream, yet reported {other}"),
    }
}

/// Deterministic mutation fuzz of the frame decoder: byte flips,
/// truncations (with the prefix kept honest, so the payload decoder sees
/// the cut), and 4-byte overwrites with `u32::MAX` (what a hostile count
/// field looks like) over valid frames of every variant.
#[test]
fn mutated_frames_never_panic_over_read_or_over_allocate() {
    let mut corpus = Vec::new();
    for n in [4usize, 129] {
        let (keys, _) = keygen(n, 7);
        let params = Params::new(n, Duration::from_millis(10));
        for msg in all_variants(&keys, &params, 1_234, 56, 789, 0xfeed, 3) {
            corpus.push(encode_frame(&msg));
        }
    }
    let mut rng = StdRng::seed_from_u64(0x11e7e);
    let (mut cases, mut accepted) = (0u32, 0u32);
    while cases < 24_000 {
        for frame in &corpus {
            let mut bytes = frame.clone();
            match rng.gen_range(0..4u32) {
                0 => {
                    for _ in 0..rng.gen_range(1..=3usize) {
                        let at = rng.gen_range(0..bytes.len());
                        bytes[at] ^= rng.gen_range(1..=255u8);
                    }
                }
                1 => bytes.truncate(rng.gen_range(0..bytes.len())),
                2 => {
                    bytes.truncate(rng.gen_range(4..bytes.len()));
                    let declared = (bytes.len() - 4) as u32;
                    bytes[..4].copy_from_slice(&declared.to_be_bytes());
                }
                _ => {
                    let at = rng.gen_range(4..bytes.len() - 3);
                    bytes[at..at + 4].fill(0xff);
                }
            }
            accepted += u32::from(check_hostile(&bytes));
            cases += 1;
        }
    }
    // Most mutants must die; the survivors are flips inside free-form
    // fields (a view number, a hash), which are different valid messages.
    assert!(
        accepted < cases / 2,
        "{accepted} of {cases} mutants accepted"
    );
}

/// The count guard, directed: every sequence count overwritten with
/// `u32::MAX` is rejected *as a count* — before the decoder sizes a vector
/// from it — however small the frame around it.
#[test]
fn hostile_counts_are_rejected_before_allocation() {
    let (keys, _) = keygen(4, 7);
    let params = Params::new(4, Duration::from_millis(10));
    let variants = all_variants(&keys, &params, 1, 2, 3, 4, 0);
    // Offsets into the frame: 4-byte prefix + 2 tag bytes, then the fixed
    // fields in front of the count.
    let cases = [
        // Proposal: hash, parent, height, view (8 each), proposer (4).
        (&variants[8], 4 + 2 + 36, "Batch count 4294967295"),
        // ViewCert: view, digest, proof.
        (&variants[2], 4 + 2 + 24, "SignerBitmap count 4294967295"),
        // NewQc: view, block hash, presence tag, digest, proof.
        (&variants[10], 4 + 2 + 33, "SignerBitmap count 4294967295"),
    ];
    for (msg, at, expected) in cases {
        let mut frame = encode_frame(msg);
        frame[at..at + 4].fill(0xff);
        match decode_frame(&frame) {
            Err(CodecError::Malformed(why)) => {
                assert!(why.contains(expected), "{}: {why}", msg.kind())
            }
            other => panic!("{}: hostile count gave {other:?}", msg.kind()),
        }
    }
}
