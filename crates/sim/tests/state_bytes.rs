//! Peak live heap of one `sim_steady` simulation: n = 128 Lumiere replicas,
//! fault-free, every delivery at a fixed 1 ms, cut after 20 honest QCs; of
//! one `sim_viewchange` simulation: n = 64, the first f leader slots
//! silent, every delivery at Δ, GST at 200 ms, cut after 60 honest QCs; and
//! of one `sim_backlog` simulation (below).
//!
//! A counting global allocator keeps this test thread's live bytes (plus on
//! alloc, minus on dealloc, the difference on realloc) and their high-water
//! mark. Requested sizes are deterministic for a seed, so the peak repeats
//! to the byte.
//!
//! Measured on this configuration (seed 42): 2 254 055 bytes while every
//! pool kept a `BTreeMap` node per signer and every engine allocated a
//! quorum-sized aggregation buffer at build time; 1 404 343 once a quorum's
//! signers became bits — a `PartialSet` per aggregated view and per voted
//! block, a count-only `SenderPool` for epoch-view messages, no buffer. Of
//! the old peak, the epoch-view pools alone were about 31 %. Then
//! 1 245 127 once the cluster shared one leader order instead of one per
//! replica, and each leader's success tally became one byte that stops at
//! the bar (1 237 959 on a later tree). Then 715 335 once the commit horizon
//! freed, below the committed view, the engine's per-view records and seen
//! proposals, the committed blocks below the store's tip and the
//! pacemakers' records, and the simulator swept its wake-dedup set as it
//! grew. The budget sits between the last two, so state that outlives its
//! view coming back fails here.
//!
//! `sim_viewchange` runs the most views per unit of the benchmark's
//! workloads: 1 796 391 bytes while nothing was freed, 504 119 with the
//! commit horizon. Its first 42 views are the 21 silent leaders' (two
//! each) and commit nothing, so each engine's record window grows to that
//! length first: 875 351 if the window kept that allocation once pruned.
//! Its budget sits between the last two.
//!
//! `sim_backlog` keeps a standing backlog in every mempool: n = 4, 48 000
//! transactions a second in 64-transaction batches, 250 ms. 3 015 043 bytes
//! while each mempool's dedup index and the collector's submit instants
//! and committed ids were hash tables with an entry per transaction;
//! 1 679 875 once they became runs of ids. Putting one table back read
//! 2 793 827 (the mempool index), 1 827 347 (submit instants) or 1 753 619
//! (committed ids). Then 818 883 once the runner read arrivals from a
//! stream, one millisecond tick at a time, instead of queueing all 12 000
//! before the first event (655 499 on a later tree). Then 261 547 once each
//! mempool queued runs of ids, not one entry per id, and every arrival tick
//! reached the nodes as one run. The budget sits between the last two, so
//! a per-transaction queue, arrivals put back in the event queue, or any
//! per-transaction table, fail here.
//!
//! The two run sets in each mempool are 56 bytes more than the hash table
//! they replaced before anything is inserted, so a built replica grew by
//! that: `sim_steady` 714 311 → 721 479 bytes, `sim_viewchange` 503 607 →
//! 507 191. The queue's id count added 8 bytes per mempool: `sim_steady`
//! 733 863 → 734 887, `sim_viewchange` 530 095 → 530 607.
//!
//! A second check builds the `sim_steady` configuration at n = 256 and
//! n = 2048 without running it: 1 361 and 1 340 live bytes per replica with
//! the shared order (1 337 and 1 316 on a later tree, 1 393 and 1 372 with
//! the run sets), against 2 389 and 9 536 while each replica built an order of its own (4n bytes more per
//! replica).
//!
//! The tests are alone in their binary so nothing else runs on the counted
//! threads' allocator; the counters are per thread, so they may run side
//! by side.

use lumiere_core::schedule::LeaderSchedule;
use lumiere_sim::runner::Simulation;
use lumiere_sim::{ProtocolKind, SimConfig, StrategyKind, WorkloadConfig};
use lumiere_types::{Duration, Time, View};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, tracking each thread's live bytes and their peak.
struct LiveBytes;

fn account(delta: isize) {
    // A thread being torn down has no counter left; it is not the test's.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-local
// `Cell`s, which neither allocate nor unwind.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Peak live bytes the `sim_steady` run may reach: above the 715 335 it
/// reaches, below the 1 237 959 it reached while nothing was freed.
const BUDGET: isize = 800_000;

/// Peak live bytes the `sim_viewchange` run may reach: above the 504 119 it
/// reaches, below the 875 351 of record windows that keep their longest
/// allocation.
const VIEWCHANGE_BUDGET: isize = 600_000;

/// Peak live bytes the `sim_backlog` run may reach: above the 261 547 it
/// reaches, below the 655 499 it reached while each mempool queued one entry
/// per transaction.
const BACKLOG_BUDGET: isize = 400_000;

/// The `sim_steady` configuration at `n` processors.
fn steady(n: usize, seed: u64) -> SimConfig {
    SimConfig::new(ProtocolKind::Lumiere, n)
        .with_delta(Duration::from_millis(10))
        .with_seed(seed)
        .with_actual_delay(Duration::from_millis(1))
        .with_max_honest_qcs(20)
}

/// The `sim_viewchange` configuration: n = 64 Lumiere, the first f leader
/// slots silent, every delivery at Δ, GST at 200 ms, cut after 60 honest
/// QCs.
fn viewchange(seed: u64) -> SimConfig {
    let n = 64;
    let schedule = LeaderSchedule::lumiere(n, seed);
    let mut silent = BTreeSet::new();
    for v in 0.. {
        if silent.len() == (n - 1) / 3 {
            break;
        }
        silent.insert(schedule.leader(View::new(v)).as_usize());
    }
    SimConfig::new(ProtocolKind::Lumiere, n)
        .with_delta(Duration::from_millis(10))
        .with_seed(seed)
        .with_adversarial_delay()
        .with_gst(Time::from_millis(200))
        .with_faulty_ids(silent.into_iter().collect(), StrategyKind::SilentLeader)
        .with_max_honest_qcs(60)
}

/// The `sim_backlog` configuration: n = 4 Lumiere, every delivery at 1 ms,
/// 48 000 transactions a second in 64-transaction batches for 250 ms, a
/// standing backlog in every mempool.
fn backlog(seed: u64) -> SimConfig {
    SimConfig::new(ProtocolKind::Lumiere, 4)
        .with_delta(Duration::from_millis(10))
        .with_seed(seed)
        .with_actual_delay(Duration::from_millis(1))
        .with_horizon(Duration::from_millis(250))
        .with_workload(WorkloadConfig::constant(48_000).with_batch_txs(64))
}

/// Builds and runs one unit of `cfg`; returns the peak live bytes above
/// what was live before it, and the QCs it formed.
fn peak_of_one_run(cfg: SimConfig) -> (isize, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let report = Simulation::new(cfg).run();
    assert!(report.safety_ok, "the run must stay safe");
    let qcs = report
        .qc_events
        .iter()
        .filter(|qc| qc.honest_leader)
        .count();
    (PEAK.with(Cell::get) - base, qcs)
}

#[test]
fn steady_state_peak_heap_stays_within_its_budget() {
    let (peak, qcs) = peak_of_one_run(steady(128, 42));
    let (again, _) = peak_of_one_run(steady(128, 42));
    println!("peak live heap {peak} bytes over {qcs} QCs");
    assert!(qcs >= 20, "the run must reach its 20 QCs, formed {qcs}");
    assert_eq!(peak, again, "requested bytes repeat exactly");
    assert!(
        peak <= BUDGET,
        "peak live heap {peak} bytes (budget {BUDGET})"
    );
}

#[test]
fn view_change_peak_heap_stays_within_its_budget() {
    let (peak, qcs) = peak_of_one_run(viewchange(42));
    let (again, _) = peak_of_one_run(viewchange(42));
    println!("view-change peak live heap {peak} bytes over {qcs} QCs");
    assert!(qcs >= 60, "the run must reach its 60 QCs, formed {qcs}");
    assert_eq!(peak, again, "requested bytes repeat exactly");
    assert!(
        peak <= VIEWCHANGE_BUDGET,
        "peak live heap {peak} bytes (budget {VIEWCHANGE_BUDGET})"
    );
}

#[test]
fn backlog_peak_heap_stays_within_its_budget() {
    let (peak, qcs) = peak_of_one_run(backlog(42));
    let (again, _) = peak_of_one_run(backlog(42));
    println!("backlog peak live heap {peak} bytes over {qcs} QCs");
    assert!(qcs > 0, "the run must form QCs");
    assert_eq!(peak, again, "requested bytes repeat exactly");
    assert!(
        peak <= BACKLOG_BUDGET,
        "peak live heap {peak} bytes (budget {BACKLOG_BUDGET})"
    );
}

/// Live bytes per replica a built, not yet run, `sim_steady` simulation of
/// `n` processors holds: keys, queue and metrics included.
fn built_bytes_per_replica(n: usize) -> isize {
    let base = LIVE.with(Cell::get);
    let sim = Simulation::new(steady(n, 42));
    let live = LIVE.with(Cell::get) - base;
    drop(sim);
    live / n as isize
}

#[test]
fn a_built_replica_holds_no_state_that_grows_with_n() {
    let small = built_bytes_per_replica(256);
    let large = built_bytes_per_replica(2048);
    println!("built: {small} bytes per replica at n = 256, {large} at n = 2048");
    assert!(
        large <= small + 64,
        "a replica built at n = 2048 holds {large} bytes, {small} at n = 256"
    );
}
