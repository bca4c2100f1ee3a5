//! Pins the gate table: what every strategy kind lets a corrupted processor
//! run, so the names experiments pass to `SimConfig::with_faults` can never
//! drift from what the simulator actually executes.

use lumiere_runtime::Gates;
use lumiere_sim::{ProtocolObs, Strategy, StrategyCtx, StrategyKind};
use lumiere_types::{Duration, ProcessId, Time, TimeRange, View};

/// A neutral snapshot of a 4-node cluster (quorum 3) at `now`.
fn ctx(now: Time) -> StrategyCtx {
    StrategyCtx {
        id: ProcessId::new(0),
        n: 4,
        now,
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

/// `(pacemaker, consensus, proposes)` of a gate set.
fn row(g: Gates) -> (bool, bool, bool) {
    (g.pacemaker, g.consensus, g.proposes)
}

/// The gates `kind` opens at time zero, before it has observed anything.
fn gates_at_start(kind: StrategyKind) -> Gates {
    let strategy = Strategy::new(kind);
    strategy.gates(&ctx(Time::ZERO))
}

#[test]
fn crash_does_nothing() {
    let g = gates_at_start(StrategyKind::Crash);
    assert!(!g.consensus);
    assert!(!g.pacemaker);
    assert!(!g.proposes);
}

#[test]
fn silent_leader_participates_but_never_proposes() {
    let g = gates_at_start(StrategyKind::SilentLeader);
    assert!(g.consensus);
    assert!(g.pacemaker);
    assert!(!g.proposes);
}

#[test]
fn sync_silent_votes_but_does_not_synchronize() {
    let g = gates_at_start(StrategyKind::SyncSilent);
    assert!(g.consensus);
    assert!(!g.pacemaker);
    assert!(!g.proposes);
}

#[test]
fn every_strategy_kind_gates_as_its_table_row_says() {
    const T: bool = true;
    const F: bool = false;
    let down = TimeRange::new(Time::from_millis(10), Time::from_millis(20));
    let recovery = StrategyKind::CrashRecovery { down };
    let at = Time::from_millis;
    let table = [
        (StrategyKind::Crash, at(0), (F, F, F)),
        (StrategyKind::SilentLeader, at(0), (T, T, F)),
        (StrategyKind::SyncSilent, at(0), (F, T, F)),
        (StrategyKind::Equivocate, at(0), (T, T, T)),
        (recovery, at(9), (T, T, T)),
        (recovery, at(10), (F, F, F)),
        (recovery, at(19), (F, F, F)),
        (recovery, at(20), (T, T, T)),
        (StrategyKind::AdaptiveLeaderTargeting, at(0), (T, T, F)),
        (StrategyKind::QcStarvation, at(0), (T, T, T)),
    ];
    for (kind, now, expected) in table {
        let mut strategy = Strategy::new(kind);
        strategy.observe(&ctx(now));
        assert_eq!(
            row(strategy.gates(&ctx(now))),
            expected,
            "{} at {now:?}",
            kind.name()
        );
    }
    for kind in StrategyKind::SIMPLE.into_iter().chain([recovery]) {
        assert!(
            table.iter().any(|(k, ..)| *k == kind),
            "{} has no row",
            kind.name()
        );
    }
    // QC starvation's row after it observes one vote short of quorum: only
    // consensus closes.
    let mut strategy = Strategy::new(StrategyKind::QcStarvation);
    let mut short = ctx(Time::ZERO);
    short.obs.view = View::new(2);
    short.obs.pending_qc_votes = short.quorum() - 1;
    assert_eq!(row(strategy.gates(&short)), (T, T, T), "before observing");
    strategy.observe(&short);
    assert_eq!(row(strategy.gates(&short)), (T, F, T), "after observing");
}
