//! Heap allocations per delivered event on the runtime's per-event path.
//!
//! Seven `ProtocolRuntime`s (Lumiere, n = 7) are stepped by hand in
//! synchronous 1 ms rounds. After a warm-up that fills every reused buffer,
//! the test counts the allocations made inside `deliver` and `wake` over 60
//! views and divides by the number of those calls. A counting global
//! allocator counts on this test's thread only, and only the runtime calls
//! are inside the window: routing the mail is the test's own work.
//!
//! Measured on this cluster (1 580 events in the window): 5 186 allocations,
//! 3.28 per event, while every handler returned a fresh action `Vec` and
//! every certificate clone copied its signer bitmap; 1 386, 0.88 per event,
//! once handlers wrote into the runtime's buffers and certificates shared
//! their proof. What is left is the protocol's own state — a block per
//! proposal, a certificate per quorum, the per-view pools and records —
//! and the runtime's queue growing to a new high-water mark. Once the pools
//! and the vote sets held their signers as bits it read 1 536, 0.97 per
//! event: at this size a set pays one signer-bitmap word `Vec` and a
//! growing signature `Vec` where a per-signer map paid one node.
//!
//! The test is alone in its binary so nothing else runs on the counted
//! thread's allocator.

use lumiere_runtime::{
    build_runtime, ConsensusRuntime, ProtocolKind, ProtocolRuntime, RuntimeOutput, WireMessage,
};
use lumiere_types::{Duration, ProcessId, Time};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations (fresh or grown) each
/// thread makes.
struct ThreadCounting;

fn count_one() {
    // A thread being torn down has no counter left; it is not the test's.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: ThreadCounting = ThreadCounting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const N: usize = 7;
const MEASURED_VIEWS: i64 = 60;
/// Allocations per event the per-event path may make: above the 0.97 it
/// makes, below the 1.97 one action `Vec` per event would bring back.
const BUDGET: f64 = 1.25;

struct Cluster {
    nodes: Vec<ProtocolRuntime>,
    now: Time,
    pending: Vec<(usize, usize, WireMessage)>,
    timers: Vec<Vec<Time>>,
    out: RuntimeOutput,
    /// Runtime calls and the allocations made inside them.
    events: u64,
    allocs: u64,
}

impl Cluster {
    fn boot() -> Self {
        let delta = Duration::from_millis(10);
        let mut c = Cluster {
            nodes: (0..N)
                .map(|i| build_runtime(ProtocolKind::Lumiere, N, i, delta, 3))
                .collect(),
            now: Time::ZERO,
            pending: Vec::new(),
            timers: vec![Vec::new(); N],
            out: RuntimeOutput::default(),
            events: 0,
            allocs: 0,
        };
        for i in 0..N {
            c.step(i, |node, now, out| node.boot(now, out));
        }
        c
    }

    /// Runs one runtime call for node `i`, counting it and what it
    /// allocates, then routes its output.
    fn step(
        &mut self,
        i: usize,
        call: impl FnOnce(&mut ProtocolRuntime, Time, &mut RuntimeOutput),
    ) {
        self.out.clear();
        let before = allocs();
        call(&mut self.nodes[i], self.now, &mut self.out);
        self.allocs += allocs() - before;
        self.events += 1;
        for (to, msg) in &self.out.sends {
            self.pending.push((i, to.as_usize(), msg.clone()));
        }
        for msg in &self.out.broadcasts {
            for to in (0..N).filter(|&to| to != i) {
                self.pending.push((i, to, msg.clone()));
            }
        }
        self.timers[i].extend(self.out.wakes.iter().copied());
    }

    fn round(&mut self) {
        for (from, to, msg) in std::mem::take(&mut self.pending) {
            self.step(to, |node, now, out| {
                node.deliver(ProcessId::new(from), &msg, now, out)
            });
        }
        self.now += Duration::from_millis(1);
        for i in 0..N {
            let now = self.now;
            let before = self.timers[i].len();
            self.timers[i].retain(|t| *t > now);
            if self.timers[i].len() < before {
                self.step(i, |node, now, out| node.wake(now, out));
            }
        }
    }

    fn min_view(&self) -> i64 {
        let views = self.nodes.iter().map(|n| n.current_view().as_i64());
        views.min().expect("seven nodes")
    }

    fn run_until_view(&mut self, view: i64) {
        for _ in 0..20_000 {
            if self.min_view() >= view {
                return;
            }
            self.round();
        }
        panic!("the cluster stalled below view {view}");
    }
}

#[test]
fn the_per_event_path_stays_within_its_allocation_budget() {
    let mut c = Cluster::boot();
    c.run_until_view(20);
    let (events, allocs, start_height) = (c.events, c.allocs, c.nodes[0].committed_height());
    c.run_until_view(20 + MEASURED_VIEWS);
    let (events, allocs) = (c.events - events, c.allocs - allocs);
    assert!(
        c.nodes[0].committed_height() >= start_height + MEASURED_VIEWS as u64 / 2,
        "the measured views must commit blocks"
    );
    let per_event = allocs as f64 / events as f64;
    println!("{allocs} allocations over {events} events: {per_event:.2} per event");
    assert!(
        per_event <= BUDGET,
        "{per_event:.2} allocations per event (budget {BUDGET})"
    );
}
