//! The client-load hot paths: mempool submit/batch cycling (every
//! transaction of a loaded deployment passes through it), commit pruning
//! under a standing backlog (what every node of an overloaded deployment
//! does on every commit) and the end-to-end goodput of a small loaded
//! simulation — the cost of driving one open-loop client workload from
//! arrival through batching to commit accounting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lumiere_core::{Mempool, MempoolConfig};
use lumiere_sim::scenario::{ProtocolKind, SimConfig};
use lumiere_sim::WorkloadConfig;
use lumiere_types::{Duration, Transaction, TxId};

fn bench_mempool_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("load/mempool_cycle");
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));
    for txs in [256usize, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(txs), &txs, |b, &txs| {
            let mut next_id = 0u64;
            b.iter(|| {
                // Fresh ids per iteration: the dedup set would otherwise
                // reject every submission after the first pass.
                let mut pool = Mempool::new(MempoolConfig {
                    capacity: txs * 2,
                    batch_txs: 64,
                    max_block_bytes: 64 * 1024,
                });
                for _ in 0..txs {
                    pool.submit(Transaction::new(TxId::new(next_id)));
                    next_id += 1;
                }
                let mut drained = 0usize;
                while !pool.is_empty() {
                    let batch = pool.next_batch();
                    drained += batch.len();
                    let ids: Vec<TxId> = batch.tx_ids().collect();
                    pool.mark_committed(ids);
                }
                drained
            })
        });
    }
    group.finish();
}

fn bench_mempool_backlog(c: &mut Criterion) {
    let mut group = c.benchmark_group("load/mempool_backlog");
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));
    let queued = 8_192u64;
    group.bench_with_input(
        BenchmarkId::from_parameter(queued),
        &queued,
        |b, &queued| {
            let mut backlog = Mempool::new(MempoolConfig {
                batch_txs: 64,
                ..MempoolConfig::default()
            });
            for id in 0..queued {
                backlog.submit(Transaction::new(TxId::new(id)));
            }
            b.iter(|| {
                // Sixteen 64-transaction blocks commit off the front of a queue
                // that stays thousands deep: the cost must follow the 1 024 ids,
                // not the backlog. The shim has no untimed setup, so cloning
                // and dropping the pool is part of the iteration (about half
                // of it); a prune that walks the queue again costs 20× that.
                let mut pool = backlog.clone();
                for block in 0..16u64 {
                    pool.mark_committed((block * 64..(block + 1) * 64).map(TxId::new));
                }
                pool.len()
            })
        },
    );
    group.finish();
}

fn bench_sim_goodput(c: &mut Criterion) {
    let mut group = c.benchmark_group("load/sim_goodput");
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));
    for rate in [400u64, 1600] {
        group.bench_with_input(BenchmarkId::from_parameter(rate), &rate, |b, &rate| {
            b.iter(|| {
                let report = SimConfig::new(ProtocolKind::Lumiere, 4)
                    .with_delta(Duration::from_millis(10))
                    .with_actual_delay(Duration::from_millis(1))
                    .with_horizon(Duration::from_millis(500))
                    .with_max_honest_qcs(100_000)
                    .with_workload(WorkloadConfig::constant(rate).with_batch_txs(32))
                    .with_seed(29)
                    .run();
                assert!(report.txs_committed > 0, "loaded sim committed no txs");
                report.txs_committed
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mempool_cycle,
    bench_mempool_backlog,
    bench_sim_goodput
);
criterion_main!(benches);
