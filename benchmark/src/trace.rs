//! In-memory spans for the traced run.
//!
//! The harness records a span around every call it makes into a layer:
//! `unit → build | run | check` on every workload, and on `wire_mesh` also
//! `run → round → inject | decode | deliver.* | encode | wake | host`. Spans
//! live in memory and are written to `benchmark/out/trace-<workload>.json`
//! when the run ends. A span's *self time* is its duration minus what its
//! children cover; inside a mesh round the children tile the round exactly
//! (each clock reading closes one span and opens the next), so the phase
//! self times of a unit add up to its run time.
//!
//! Every traced unit keeps its per-phase self-time totals; only the first
//! [`DETAILED_UNITS`] after warm-up keep each individual span, which bounds
//! the trace file at a few thousand spans instead of a few million.

use crate::mesh::{Clock, Phase};
use serde::Value;
use std::time::Instant;

/// Units whose individual round/phase spans are kept (after warm-up).
pub const DETAILED_UNITS: usize = 2;

const PHASES: usize = Phase::ALL.len();

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    id: u32,
    parent: Option<u32>,
    unit: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Per-unit totals of a traced mesh unit.
#[derive(Debug, Clone, Default)]
pub struct PhaseTotals {
    /// Self time per [`Phase`], indexed like [`Phase::ALL`].
    pub self_ns: [u64; PHASES],
    /// Spans per phase.
    pub spans: [u32; PHASES],
}

/// The span store of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u32,
    /// Phase totals of each traced mesh unit, with its unit index.
    pub mesh_units: Vec<(u32, PhaseTotals)>,
    detailed: usize,
}

/// Instants bracketing the three steps of one unit.
pub struct UnitStamps {
    /// Before construction.
    pub t0: Instant,
    /// After construction, before execution.
    pub t1: Instant,
    /// After execution, before the oracle.
    pub t2: Instant,
    /// After the oracle.
    pub t3: Instant,
}

impl Tracer {
    /// An empty store; span times are relative to now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 0,
            mesh_units: Vec::new(),
            detailed: 0,
        }
    }

    /// How many units have kept their individual spans so far.
    pub fn detailed_units(&self) -> usize {
        self.detailed
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// The clock a mesh unit's host reads. The unit's four structural spans
    /// get the next four ids, so the `run` span (the rounds' parent) is
    /// known before it ends.
    pub fn mesh_clock(&self, unit: u32, detailed: bool) -> SpanClock {
        let now = Instant::now();
        SpanClock {
            origin: self.origin,
            unit,
            run_span: self.next_id + 2,
            next_id: self.next_id + 4,
            last: now,
            round: None,
            totals: PhaseTotals::default(),
            detail: detailed.then(Vec::new),
        }
    }

    /// Records `unit → build | run | check`, plus whatever the mesh clock
    /// collected inside `run`.
    pub fn record_unit(&mut self, unit: u32, stamps: &UnitStamps, clock: Option<SpanClock>) {
        let base = self.next_id;
        let (t0, t1, t2, t3) = (
            self.ns(stamps.t0),
            self.ns(stamps.t1),
            self.ns(stamps.t2),
            self.ns(stamps.t3),
        );
        for (offset, parent, name, start_ns, end_ns) in [
            (0, None, "unit", t0, t3),
            (1, Some(base), "build", t0, t1),
            (2, Some(base), "run", t1, t2),
            (3, Some(base), "check", t2, t3),
        ] {
            self.spans.push(Span {
                id: base + offset,
                parent,
                unit,
                name,
                start_ns,
                end_ns,
            });
        }
        self.next_id = base + 4;
        if let Some(mut clock) = clock {
            clock.close_round();
            debug_assert_eq!(clock.run_span, base + 2);
            self.next_id = clock.next_id;
            self.detailed += usize::from(clock.detail.is_some());
            self.spans.extend(clock.detail.unwrap_or_default());
            self.mesh_units.push((unit, clock.totals));
        }
    }

    /// The trace file's content.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("id".into(), Value::UInt(s.id.into())),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p.into())),
                    ),
                    ("unit".into(), Value::UInt(s.unit.into())),
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                ])
            })
            .collect();
        let mesh_units = self
            .mesh_units
            .iter()
            .map(|(unit, u)| {
                let phases = Phase::ALL.iter().enumerate().map(|(i, p)| {
                    let pair = vec![Value::UInt(u.self_ns[i]), Value::UInt(u.spans[i].into())];
                    (p.name().to_string(), Value::Seq(pair))
                });
                let unit = ("unit".to_string(), Value::UInt((*unit).into()));
                Value::Map(std::iter::once(unit).chain(phases).collect())
            })
            .collect();
        Value::Map(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("seed".into(), Value::UInt(seed)),
            (
                "note".into(),
                Value::Str(
                    "spans: every unit's unit/build/run/check, plus each round and phase span \
                     of the first detailed units; mesh_unit_self_ns: per traced unit, its index \
                     and phase -> [self time in ns, span count]"
                        .into(),
                ),
            ),
            ("mesh_unit_self_ns".into(), Value::Seq(mesh_units)),
            ("spans".into(), Value::Seq(spans)),
        ])
    }
}

/// The traced [`Clock`]: one `Instant::now()` per boundary.
pub struct SpanClock {
    origin: Instant,
    unit: u32,
    run_span: u32,
    next_id: u32,
    last: Instant,
    /// The open round: its span id and start.
    round: Option<(u32, Instant)>,
    totals: PhaseTotals,
    detail: Option<Vec<Span>>,
}

impl SpanClock {
    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn close_round(&mut self) {
        if let Some((id, start)) = self.round.take() {
            let span = Span {
                id,
                parent: Some(self.run_span),
                unit: self.unit,
                name: "round",
                start_ns: self.ns(start),
                end_ns: self.ns(self.last),
            };
            if let Some(detail) = &mut self.detail {
                detail.push(span);
            }
        }
    }
}

impl Clock for SpanClock {
    fn start(&mut self) {
        self.last = Instant::now();
    }

    fn round(&mut self) {
        // The boundary between two rounds is the last reading: rounds tile
        // the run the way phases tile a round.
        self.close_round();
        self.round = Some((self.next_id, self.last));
        self.next_id += 1;
    }

    fn mark(&mut self, phase: Phase) {
        let now = Instant::now();
        let slot = phase as usize;
        self.totals.self_ns[slot] += now.duration_since(self.last).as_nanos() as u64;
        self.totals.spans[slot] += 1;
        let (start_ns, end_ns) = (self.ns(self.last), self.ns(now));
        if let Some(detail) = &mut self.detail {
            detail.push(Span {
                id: self.next_id,
                parent: self.round.map(|(id, _)| id),
                unit: self.unit,
                name: phase.name(),
                start_ns,
                end_ns,
            });
            self.next_id += 1;
        }
        self.last = now;
    }
}
