//! Peak live heap of one `sim_steady` simulation: n = 128 Lumiere replicas,
//! fault-free, every delivery at a fixed 1 ms, cut after 20 honest QCs.
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
//! the old peak, the epoch-view pools alone were about 31 %. The budget
//! sits between the two, so a per-signer map coming back fails here.
//!
//! The test is alone in its binary so nothing else runs on the counted
//! thread's allocator.

use lumiere_sim::runner::Simulation;
use lumiere_sim::{ProtocolKind, SimConfig};
use lumiere_types::Duration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Peak live bytes the run may reach: above the 1 404 343 it reaches, below
/// the 2 254 055 per-signer maps and per-replica buffers brought.
const BUDGET: isize = 1_800_000;

/// Builds and runs one `sim_steady` unit; returns the peak live bytes above
/// what was live before it, and the QCs it formed.
fn peak_of_one_run(seed: u64) -> (isize, usize) {
    let cfg = SimConfig::new(ProtocolKind::Lumiere, 128)
        .with_delta(Duration::from_millis(10))
        .with_seed(seed)
        .with_actual_delay(Duration::from_millis(1))
        .with_max_honest_qcs(20);
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
    let (peak, qcs) = peak_of_one_run(42);
    let (again, _) = peak_of_one_run(42);
    println!("peak live heap {peak} bytes over {qcs} QCs");
    assert!(qcs >= 20, "the run must reach its 20 QCs, formed {qcs}");
    assert_eq!(peak, again, "requested bytes repeat exactly");
    assert!(
        peak <= BUDGET,
        "peak live heap {peak} bytes (budget {BUDGET})"
    );
}
