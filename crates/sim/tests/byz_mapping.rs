//! Pins what the three static strategy kinds let a corrupted processor do,
//! so the names experiments pass to `SimConfig::with_faults` can never drift
//! from what the simulator actually executes.

use lumiere_sim::{ProtocolObs, StrategyCtx, StrategyKind};
use lumiere_types::{Duration, ProcessId, Time, View};

fn ctx() -> StrategyCtx {
    StrategyCtx {
        id: ProcessId::new(0),
        n: 4,
        now: Time::ZERO,
        obs: ProtocolObs {
            view: View::SENTINEL,
            engine_view: View::SENTINEL,
            leader: None,
            locked_view: View::SENTINEL,
            last_voted_view: View::SENTINEL,
            high_qc_view: View::SENTINEL,
            pending_qc_votes: 0,
            clock: Duration::ZERO,
            booted: false,
        },
    }
}

#[test]
fn crash_does_nothing() {
    let s = StrategyKind::Crash.build();
    assert!(!s.runs_consensus(&ctx()));
    assert!(!s.runs_pacemaker(&ctx()));
    assert!(!s.proposes(&ctx()));
}

#[test]
fn silent_leader_participates_but_never_proposes() {
    let s = StrategyKind::SilentLeader.build();
    assert!(s.runs_consensus(&ctx()));
    assert!(s.runs_pacemaker(&ctx()));
    assert!(!s.proposes(&ctx()));
}

#[test]
fn sync_silent_votes_but_does_not_synchronize() {
    let s = StrategyKind::SyncSilent.build();
    assert!(s.runs_consensus(&ctx()));
    assert!(!s.runs_pacemaker(&ctx()));
    assert!(!s.proposes(&ctx()));
}
