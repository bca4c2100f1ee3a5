//! The engine's proposal path at the benchmark's steady-state size
//! (n = 128, 64-transaction payloads): what one `on_message(Proposal)` costs
//! when the justify certificate is the replica's `high_qc` — it arrived as
//! `NewQc` one message earlier, the steady state — and when it is a valid
//! certificate the replica has to check (a different signer set for the
//! same block). The gap between the two is one `QuorumCert::verify`; a
//! change that loses the verify-once fast path closes it from below.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lumiere_consensus::{Block, ConsensusMessage, HotStuffEngine, QuorumCert};
use lumiere_crypto::{keygen, KeyPair};
use lumiere_types::{Batch, Duration, Params, ProcessId, Time, Transaction, TxId, View};

fn payload(tag: u64) -> Batch {
    Batch {
        txs: (0..64)
            .map(|i| Transaction::new(TxId::new(tag * 1_000 + i)))
            .collect(),
    }
}

fn certify(block: &Block, signers: &[KeyPair], params: &Params) -> QuorumCert {
    let digest = QuorumCert::vote_digest(block.view(), block.hash());
    let votes: Vec<_> = signers.iter().map(|k| k.sign(digest)).collect();
    QuorumCert::aggregate(block.view(), block.hash(), &votes, params).unwrap()
}

fn bench_on_proposal(c: &mut Criterion) {
    let n = 128;
    let params = Params::new(n, Duration::from_millis(10));
    let (keys, pki) = keygen(n, 1);
    let quorum = params.quorum();
    let now = Time::ZERO;
    let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));

    // Replica p5 saw view 0 through: p0's block and the certificate for it.
    let mut replica = HotStuffEngine::new(ProcessId::new(5), keys[5].clone(), pki, params);
    let first = Block::new(
        Block::genesis().hash(),
        1,
        View::new(0),
        p0,
        payload(0),
        QuorumCert::genesis(),
    );
    let qc = certify(&first, &keys[..quorum], &params);
    replica.enter_view(View::new(0), p0, now);
    replica.on_message(p0, &ConsensusMessage::Proposal(first.clone()), now);
    replica.on_message(p0, &ConsensusMessage::NewQc(qc.clone()), now);
    assert_eq!(replica.high_qc(), &qc);
    replica.enter_view(View::new(1), p1, now);

    // View 1's proposal, justified by that certificate and by an equally
    // valid one from another signer set.
    let other_qc = certify(&first, &keys[n - quorum..], &params);
    let second = |justify| {
        let block = Block::new(first.hash(), 2, View::new(1), p1, payload(1), justify);
        ConsensusMessage::Proposal(block)
    };

    let mut group = c.benchmark_group("consensus/on_proposal");
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));
    for (case, msg) in [("known_qc", second(qc)), ("fresh_qc", second(other_qc))] {
        // Every timed call but the first is a re-delivery: hash check,
        // certificate intake, equivocation and store lookups, no vote.
        let mut replica = replica.clone();
        let checks = replica.certs_verified();
        assert_eq!(replica.on_message(p1, &msg, now).len(), 1, "{case}: a vote");
        assert_eq!(
            replica.certs_verified() - checks,
            u64::from(case == "fresh_qc")
        );
        group.bench_function(BenchmarkId::new(case, format!("n{n}")), |b| {
            b.iter(|| replica.on_message(p1, &msg, now))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_on_proposal);
criterion_main!(benches);
