//! Wire-codec properties: every consensus message type the protocol can put
//! on the network must survive `encode_frame` → `decode_frame` (and the
//! streaming `write_frame` → `read_frame` pair) unchanged, over randomized
//! views, signers, blocks and certificates; frame lengths are exactly the
//! structural `encoded_len()`, and the modelled `wire_size()` is that
//! content plus declared bodies and real cryptography's width; the
//! authenticator figures the simulator records are pinned to the per-type
//! arithmetic they replaced; the byte layout is pinned by golden frames;
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
            signature: signer.sign(epoch_view_digest(view)).into(),
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

/// The edge cases of the model, none of which carries an authenticator: the
/// unsigned genesis `NewQc`, a proposal it justifies, and a zero-size
/// transaction submission (no body either).
fn unsigned_variants(
    n: usize,
    view_raw: i64,
    height: u64,
    payload: u64,
    parent: u64,
    proposer: usize,
) -> [WireMessage; 3] {
    [
        WireMessage::Consensus(ConsensusMessage::NewQc(QuorumCert::genesis())),
        WireMessage::Consensus(ConsensusMessage::Proposal(Block::new(
            parent,
            height,
            View::new(view_raw),
            ProcessId::new(proposer % n),
            Batch::tag(payload),
            QuorumCert::genesis(),
        ))),
        WireMessage::Submit(Transaction::sized(TxId::new(payload), 0)),
    ]
}

/// What the modelled size adds to the frame's content, counted by variant:
/// declared transaction bodies, then real cryptography's width over the
/// simulated one — +36 per signature (48 vs 12 bytes), +60 per aggregate
/// (32-byte digest + 48-byte proof vs 8 + 8).
fn modelled_extra(msg: &WireMessage) -> usize {
    let (bodies, signatures, aggregates) = match msg {
        WireMessage::Submit(tx) => (tx.size as usize, 0, 0),
        WireMessage::Consensus(ConsensusMessage::Proposal(b)) => (
            b.payload().bytes() as usize,
            0,
            usize::from(!b.justify().is_genesis()),
        ),
        WireMessage::Consensus(ConsensusMessage::Vote { .. }) => (0, 1, 0),
        WireMessage::Consensus(ConsensusMessage::NewQc(qc)) => {
            (0, 0, usize::from(!qc.is_genesis()))
        }
        WireMessage::Pacemaker(
            PacemakerMessage::ViewMsg { .. }
            | PacemakerMessage::EpochViewMsg { .. }
            | PacemakerMessage::Wish { .. }
            | PacemakerMessage::Timeout { .. },
        ) => (0, 1, 0),
        WireMessage::Pacemaker(_) => (0, 0, 1),
    };
    bodies + 36 * signatures + 60 * aggregates
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
    /// `encoded_len()`, and the modelled `wire_size()` is exactly that
    /// content plus what the frame leaves out: declared transaction bodies,
    /// and the bytes real signatures and aggregates have over the simulated
    /// ones.
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
        variants.extend(unsigned_variants(n, view_raw, height, payload, parent, proposer));
        for msg in &variants {
            let encoded = msg.encoded_len();
            prop_assert_eq!(encode_frame(msg).len(), 4 + encoded, "{}", msg.kind());
            prop_assert_eq!(msg.wire_size(), encoded + modelled_extra(msg), "{}", msg.kind());
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

// One signature, nothing, and an aggregate signed by all n, per size.
const SIG: [u64; 4] = [48, 48, 1, 1];
const NONE: [u64; 4] = [0, 0, 0, 0];
const AGG_4: [u64; 4] = [88, 224, 1, 4];
const AGG_16: [u64; 4] = [88, 800, 1, 16];
const AGG_64: [u64; 4] = [88, 3104, 1, 64];
const AGG_129: [u64; 4] = [104, 6224, 1, 129];

/// `(auth_bytes, naive_auth_bytes, verify_ops, naive_verify_ops)` of the
/// twelve `all_variants` messages (every certificate signed by all `n`)
/// followed by the three `unsigned_variants`, captured at each size from
/// the per-type arithmetic `Authenticator` replaced — every figure the
/// simulator records, pinned to the numbers it recorded before.
const PINNED_AUTH: [(usize, [[u64; 4]; 15]); 4] = [
    (
        4,
        [
            SIG, SIG, AGG_4, AGG_4, AGG_4, SIG, AGG_4, SIG, AGG_4, SIG, AGG_4, NONE, NONE, NONE,
            NONE,
        ],
    ),
    (
        16,
        [
            SIG, SIG, AGG_16, AGG_16, AGG_16, SIG, AGG_16, SIG, AGG_16, SIG, AGG_16, NONE, NONE,
            NONE, NONE,
        ],
    ),
    (
        64,
        [
            SIG, SIG, AGG_64, AGG_64, AGG_64, SIG, AGG_64, SIG, AGG_64, SIG, AGG_64, NONE, NONE,
            NONE, NONE,
        ],
    ),
    (
        129,
        [
            SIG, SIG, AGG_129, AGG_129, AGG_129, SIG, AGG_129, SIG, AGG_129, SIG, AGG_129, NONE,
            NONE, NONE, NONE,
        ],
    ),
];

#[test]
fn authenticator_figures_match_the_parent_arithmetic() {
    for (n, expected) in PINNED_AUTH {
        let (keys, _) = keygen(n, 7);
        let params = Params::new(n, Duration::from_millis(10));
        let mut msgs = all_variants(&keys, &params, 1_234, 56, 789, 0xfeed, 3);
        msgs.extend(unsigned_variants(n, 1_234, 56, 789, 0xfeed, 3));
        assert_eq!(msgs.len(), expected.len());
        for (msg, want) in msgs.iter().zip(expected) {
            let auth = msg.authenticator();
            let got = [
                auth.bytes() as u64,
                auth.naive_bytes() as u64,
                auth.verify_ops(),
                auth.naive_verify_ops(),
            ];
            assert_eq!(got, want, "{} at n = {n}", msg.kind());
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Three frames pinned byte for byte, so a layout change (field order,
/// widths, tag values, endianness) cannot happen by accident, each with its
/// modelled `wire_size()`: the frame's content less the 4-byte prefix, plus
/// declared bodies and real cryptography's width. Spaces separate the
/// fields; `docs/RUNTIME.md` has the table they follow.
#[test]
fn golden_frames_pin_the_layout() {
    let golden = |msg: &WireMessage, spaced: &str, wire_size: usize| {
        assert_eq!(
            hex(&encode_frame(msg)),
            spaced.replace(' ', ""),
            "layout changed"
        );
        assert_eq!(msg.wire_size(), wire_size, "{}", msg.kind());
    };

    let vote = WireMessage::Consensus(ConsensusMessage::Vote {
        view: View::new(3),
        block_hash: 0x0102_0304_0506_0708,
        signature: Signature::new(ProcessId::new(2), 0x1122_3344_5566_7788),
    });
    // prefix | Consensus | Vote | view | block hash | signer | tag
    // modelled: 30 content bytes + 36 (a 48-byte signature, not 12)
    golden(
        &vote,
        "0000001e 01 01 0300000000000000 0807060504030201 02000000 8877665544332211",
        66,
    );

    let submit = WireMessage::Submit(Transaction::sized(TxId::new(0xdead_beef), 256));
    // prefix | Submit | id | size
    // modelled: 13 content bytes + the 256 declared body bytes
    golden(&submit, "0000000d 02 efbeadde00000000 00010000", 269);

    // n = 7, signed by processors 0–4: one bitmap word, 0b11111.
    let (keys, _) = keygen(7, 1);
    let params = Params::new(7, Duration::from_millis(10));
    let view = View::new(2);
    let digest = QuorumCert::vote_digest(view, 0xabc);
    let votes: Vec<_> = keys.iter().take(5).map(|k| k.sign(digest)).collect();
    let qc = QuorumCert::aggregate(view, 0xabc, &votes, &params).unwrap();
    // prefix | Consensus | NewQc | view | block hash | tsig present |
    // digest | proof | word count | word
    // modelled: 47 content bytes + 60 (32-byte digest and 48-byte proof,
    // not 8 + 8)
    golden(
        &WireMessage::Consensus(ConsensusMessage::NewQc(qc)),
        "0000002f 01 02 0200000000000000 bc0a000000000000 01 \
         49932e0d346e2f24 d79d051a0fd7cad2 01000000 1f00000000000000",
        107,
    );
}

/// One value per digest domain, re-captured when every modelled digest
/// moved onto the workspace's one word mixer (`lumiere_types::hash::mix`;
/// the domains, fields and their order are unchanged): a signature or hash
/// that moves by one bit splits a live cluster from every node built before
/// it, as that change did on purpose.
const PINNED_DIGESTS: [(&str, u64); 8] = [
    ("vote_digest(7, 9)", 0x0230_19bf_4c54_ec45),
    ("view_msg_digest(7)", 0xf147_77e8_5c33_0e7f),
    ("epoch_view_digest(7)", 0xd33f_e644_5ae1_5212),
    ("wish_digest(7)", 0xe423_f982_22ab_b0dc),
    ("timeout_digest(7)", 0x3760_0ebc_0648_eca7),
    ("combine(1, 2)", 0x178f_540c_493c_c5c8),
    (
        "keygen(4, 1)[1] tag on view_msg_digest(7)",
        0xcee4_608f_e9fa_b025,
    ),
    ("hash of a 64-transaction block", 0x7fb5_2c74_23c7_f608),
];

#[test]
fn digests_and_signature_tags_keep_their_values() {
    let v = View::new(7);
    let (keys, _) = keygen(4, 1);
    let payload = Batch {
        txs: (0..64)
            .map(|i| Transaction::sized(TxId::new(1_000 + i), 256))
            .collect(),
    };
    let block = Block::new(
        0xabcd,
        9,
        View::new(5),
        ProcessId::new(2),
        payload,
        QuorumCert::genesis(),
    );
    let got = [
        QuorumCert::vote_digest(v, 9).as_u64(),
        view_msg_digest(v).as_u64(),
        epoch_view_digest(v).as_u64(),
        wish_digest(v).as_u64(),
        timeout_digest(v).as_u64(),
        lumiere_crypto::digest::combine(1, 2),
        keys[1].sign(view_msg_digest(v)).tag(),
        block.hash(),
    ];
    for ((what, want), got) in PINNED_DIGESTS.into_iter().zip(got) {
        assert_eq!(got, want, "{what}: {got:#018x}");
    }
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
