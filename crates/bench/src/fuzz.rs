//! The adversary fuzzer's parts: its options, the case sampler, the
//! oracles and the minimizer.
//!
//! The paper's guarantees are worst-case over *all* Byzantine adversaries,
//! so hand-picked scenarios can only ever sample the attack space. The
//! fuzzer searches it. [`sample_config`] deterministically expands an id
//! into a random cluster size, fault assignment (any mix of
//! [`StrategyKind`](lumiere_sim::StrategyKind)s up to `f` corruptions),
//! GST, base delay model and up to a few per-edge
//! [`DelayRule`](lumiere_sim::DelayRule)s — all inside the partial-synchrony
//! envelope — and every run is checked against two oracles ([`verdict`]):
//!
//! * **safety** — honest committed chains must stay prefix-consistent
//!   (`SimReport::safety_ok`), equivocation attempts notwithstanding;
//! * **liveness** — after GST an honest leader must produce a QC within a
//!   generous `O(nΔ)` bound ([`liveness_envelope`]), and honest commits
//!   must follow GST, one another and precede the run's end within it: the
//!   live verdict's rule, [`commit_stall`]. A run that exceeds the
//!   simulator's event cap (`SimReport::truncated`) is also reported.
//!
//! Findings carry the reproducing id and a **greedily minimized**
//! configuration ([`minimize_config`]): corruptions and delay rules are
//! dropped one at a time while the verdict persists, so a report shows the
//! smallest adversary that still breaks the property.
//!
//! The search loop itself is `crate::corpus::run_coverage_fuzz`. It has
//! two settings: by default every candidate is a fresh [`sample_config`]
//! (one case per seed), and with `--coverage` most candidates mutate an
//! entry of the coverage corpus instead.

use crate::mutate::{sample_rule, sample_strategy};
use lumiere_runtime::{commit_stall, liveness_envelope};
use lumiere_sim::{AdversarySchedule, PlantedBug, ProtocolKind, SimConfig, SimReport};
use lumiere_types::{Duration, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// The known delay bound Δ used by every fuzz case.
pub const FUZZ_DELTA: Duration = Duration::from_millis(10);

/// What one fuzz case concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Safety and liveness both held.
    Ok,
    /// Honest committed chains diverged — a protocol-breaking bug.
    SafetyViolation,
    /// No honest-leader QC within the liveness bound after GST, or honest
    /// commits further apart than it ([`commit_stall`]).
    LivenessStall,
    /// The run hit the simulator's hard event cap.
    Truncated,
}

impl Verdict {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::SafetyViolation => "SAFETY-VIOLATION",
            Verdict::LivenessStall => "LIVENESS-STALL",
            Verdict::Truncated => "TRUNCATED",
        }
    }

    /// Whether the verdict is a finding (anything but [`Verdict::Ok`]).
    pub fn is_finding(&self) -> bool {
        !matches!(self, Verdict::Ok)
    }
}

/// Options of one fuzz run, resolved from the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzOptions {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Execution ids `[start, end)`: the budget of the search loop. An id
    /// doubles as the seed of its fresh sample.
    pub seed_start: u64,
    /// End of the seed range (exclusive).
    pub seed_end: u64,
    /// Worker threads.
    pub threads: usize,
    /// Smaller clusters and shorter horizons.
    pub quick: bool,
    /// Where to persist finding JSON files, if anywhere.
    pub out: Option<PathBuf>,
    /// Guide the search by coverage: most candidates mutate a corpus entry
    /// and only some are fresh samples. Without it every candidate is a
    /// fresh sample, one case per seed.
    pub coverage: bool,
    /// Generation (batch) size of the search loop: how many executions
    /// run between corpus-synchronization points.
    pub generation: usize,
    /// Where to persist the final corpus.
    pub corpus_out: Option<PathBuf>,
    /// A previously persisted corpus to preload before the loop starts:
    /// its fingerprints seed the novelty set, and under `coverage` its
    /// entries are mutation parents from execution zero. A missing
    /// directory is an empty preload — exactly the CI cache-miss case.
    pub corpus_in: Option<PathBuf>,
    /// Fuzz a deliberately broken protocol variant instead of stock
    /// behaviour (fuzzer calibration; requires a build with the
    /// `planted-bugs` feature).
    pub planted: Option<PlantedBug>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            protocol: ProtocolKind::Lumiere,
            seed_start: 0,
            seed_end: 50,
            threads: crate::grid::available_threads(),
            quick: true,
            out: None,
            coverage: false,
            generation: 16,
            corpus_out: None,
            corpus_in: None,
            planted: None,
        }
    }
}

/// Usage string of the `fuzz_adversary` binary.
pub fn usage(binary: &str) -> String {
    format!(
        "usage: {binary} [--seeds A..B] [--protocol NAME] [--threads N] [--quick|--deep]\n\
        \x20               [--coverage] [--generation N] [--planted-bug NAME]\n\
        \x20               [--out DIR] [--corpus-out DIR] [--corpus-in DIR]\n\
         \n\
         Searches the adversary strategy/schedule space and reports any safety\n\
         violation or liveness stall with a minimized configuration. Every\n\
         candidate is a fresh deterministic case per seed unless --coverage\n\
         makes most of them structural mutations of corpus entries, guided by\n\
         behavioural coverage fingerprints (docs/ADVERSARIES.md). Exit code 1\n\
         when there are findings; output is byte-identical for every --threads\n\
         value.\n\
         \n\
         options:\n\
        \x20 --seeds A..B       seed/execution range, half-open (default: 0..50)\n\
        \x20 --protocol NAME    one of lumiere, basic-lumiere, lp22, fever,\n\
        \x20                    cogsworth, naive-quadratic (default: lumiere)\n\
        \x20 --threads N        worker threads (default: available parallelism)\n\
        \x20 --quick            small clusters, short horizons (default)\n\
        \x20 --deep             larger clusters (n up to 31), longer horizons\n\
        \x20 --coverage         mutate corpus entries instead of sampling only fresh cases\n\
        \x20 --generation N     batch size between corpus syncs (default: 16)\n\
        \x20 --planted-bug NAME fuzz a deliberately broken variant (calibration;\n\
        \x20                    needs the planted-bugs feature): drop-timeout-rearm\n\
        \x20 --out DIR          write one JSON file per finding under DIR\n\
        \x20 --corpus-out DIR   write one JSON file per corpus entry under DIR\n\
        \x20 --corpus-in DIR    preload a persisted corpus before fuzzing (a\n\
        \x20                    missing DIR is an empty preload)\n\
        \x20 --help             this message\n"
    )
}

/// Parses the `fuzz_adversary` command line. `Ok(None)` means `--help`.
pub fn parse_args(args: &[String]) -> Result<Option<FuzzOptions>, String> {
    let mut options = FuzzOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--seeds" => {
                let raw = value("--seeds")?;
                let (a, b) = raw
                    .split_once("..")
                    .ok_or_else(|| format!("--seeds expects A..B, got `{raw}`"))?;
                options.seed_start = a
                    .parse()
                    .map_err(|_| format!("--seeds: `{a}` is not an integer"))?;
                options.seed_end = b
                    .parse()
                    .map_err(|_| format!("--seeds: `{b}` is not an integer"))?;
                if options.seed_end <= options.seed_start {
                    return Err(format!("--seeds: empty range `{raw}`"));
                }
            }
            "--protocol" => {
                let raw = value("--protocol")?;
                options.protocol = ProtocolKind::from_name(&raw)
                    .ok_or_else(|| format!("unknown protocol `{raw}`"))?;
            }
            "--threads" => {
                let raw = value("--threads")?;
                let parsed: usize = raw
                    .parse()
                    .map_err(|_| format!("--threads expects a positive integer, got `{raw}`"))?;
                if parsed == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                options.threads = parsed;
            }
            "--quick" => options.quick = true,
            "--deep" => options.quick = false,
            "--coverage" => options.coverage = true,
            "--generation" => {
                let raw = value("--generation")?;
                let parsed: usize = raw
                    .parse()
                    .map_err(|_| format!("--generation expects a positive integer, got `{raw}`"))?;
                if parsed == 0 {
                    return Err("--generation must be at least 1".to_string());
                }
                options.generation = parsed;
            }
            "--planted-bug" => {
                let raw = value("--planted-bug")?;
                options.planted = Some(
                    PlantedBug::parse(&raw)
                        .ok_or_else(|| format!("unknown planted bug `{raw}`"))?,
                );
            }
            "--out" => options.out = Some(PathBuf::from(value("--out")?)),
            "--corpus-out" => options.corpus_out = Some(PathBuf::from(value("--corpus-out")?)),
            "--corpus-in" => options.corpus_in = Some(PathBuf::from(value("--corpus-in")?)),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(options))
}

/// Deterministically expands `seed` into a fuzz case for `protocol`.
///
/// The sampled space covers cluster size, fault count (`0..=f`), a strategy
/// per corrupted processor (every simple
/// [`StrategyKind`](lumiere_sim::StrategyKind) — including the adaptive
/// leader-targeting and QC-starvation attacks — plus crash–recovery with a
/// random dark window), GST, the base delay model, and up to two per-edge
/// delay rules (the same `crate::mutate` samplers the coverage loop
/// mutates with). Everything stays inside the model: delays are clamped to
/// Δ and at most `f` processors are corrupted.
pub fn sample_config(protocol: ProtocolKind, seed: u64, quick: bool) -> SimConfig {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xad5a_5a17);
    let ns: &[usize] = if quick {
        &[4, 7, 10, 13]
    } else {
        &[7, 13, 19, 31]
    };
    let n = ns[rng.gen_range(0..ns.len())];
    let f = (n - 1) / 3;
    let f_a = rng.gen_range(0..=f);
    let gst = Time::from_millis(rng.gen_range(0..=300));
    let bound = liveness_envelope(n, FUZZ_DELTA);
    let horizon = (gst - Time::ZERO) + bound + FUZZ_DELTA * 40;

    // Distinct corrupted processors.
    let mut ids = BTreeSet::new();
    while ids.len() < f_a {
        ids.insert(rng.gen_range(0..n));
    }
    let mut schedule = AdversarySchedule::new();
    for id in ids {
        let strategy = sample_strategy(&mut rng);
        schedule = schedule.corrupt(id, strategy);
    }

    // Up to two per-edge delay rules (first match wins).
    let rules = rng.gen_range(0..=2u32);
    for _ in 0..rules {
        schedule = schedule.rule(sample_rule(&mut rng));
    }

    let base = SimConfig::new(protocol, n)
        .with_delta(FUZZ_DELTA)
        .with_gst(gst)
        .with_horizon(horizon)
        .with_max_honest_qcs(16)
        .with_seed(seed)
        .with_adversary(schedule);
    match rng.gen_range(0..3u32) {
        0 => base.with_actual_delay(Duration::from_millis(rng.gen_range(1..=5))),
        1 => base.with_adversarial_delay(),
        _ => base.with_uniform_delay(Duration::from_millis(1), Duration::from_millis(8)),
    }
}

/// Applies the safety and liveness oracles to a finished run.
pub fn verdict(report: &SimReport) -> Verdict {
    if !report.safety_ok {
        return Verdict::SafetyViolation;
    }
    if report.truncated {
        return Verdict::Truncated;
    }
    let bound = liveness_envelope(report.n, report.delta_cap);
    let qc_ok = report
        .first_honest_qc_after(report.gst)
        .is_some_and(|t| t <= report.gst + bound);
    let stall = commit_stall(&report.commit_times, report.gst, report.end_time, bound);
    if qc_ok && stall.is_none() {
        Verdict::Ok
    } else {
        Verdict::LivenessStall
    }
}

/// Cap on candidate simulations one minimization may spend. A schedule has
/// at most `f + 2` droppable parts, so the greedy walk converges well below
/// this; the cap only guards pathological cases (each candidate is a full
/// simulation).
const MINIMIZE_RUN_BUDGET: usize = 64;

/// Greedily minimizes a finding's configuration: corruptions and delay
/// rules are dropped one at a time while the verdict persists (at most
/// `MINIMIZE_RUN_BUDGET` candidate simulations). The result is the
/// smallest adversary schedule that still reproduces the finding.
///
/// [`Verdict::Truncated`] findings are returned unminimized: reproducing
/// one costs a full `MAX_EVENTS` grind per candidate, which would turn the
/// bounded CI smoke batch into an hours-long run.
pub fn minimize_config(config: &SimConfig, target: Verdict) -> SimConfig {
    if target == Verdict::Truncated {
        return config.clone();
    }
    let mut best = config.clone();
    let mut budget = MINIMIZE_RUN_BUDGET;
    loop {
        let schedule = best.effective_adversary();
        let mut candidates: Vec<AdversarySchedule> = Vec::new();
        for i in 0..schedule.corruptions.len() {
            let mut s = schedule.clone();
            s.corruptions.remove(i);
            candidates.push(s);
        }
        for i in 0..schedule.delay_rules.len() {
            let mut s = schedule.clone();
            s.delay_rules.remove(i);
            candidates.push(s);
        }
        let mut advanced = false;
        for candidate in candidates {
            if budget == 0 {
                return best;
            }
            budget -= 1;
            let cand_cfg = best.clone().with_adversary(candidate);
            if verdict(&cand_cfg.clone().run()) == target {
                best = cand_cfg;
                advanced = true;
                break;
            }
        }
        if !advanced {
            return best;
        }
    }
}

/// A reportable finding: reproducing seed plus minimized configuration.
/// `--out` writes one file per finding; its embedded `SimConfig` lets
/// `docs/ADVERSARIES.md`'s replay recipe rebuild the run exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// The execution id that found it. A fresh sample reproduces via
    /// [`sample_config`] from it; the embedded config is the ground truth.
    pub seed: u64,
    /// Oracle verdict name.
    pub verdict: Verdict,
    /// The minimized configuration (still reproduces the verdict when run).
    pub config: SimConfig,
}

impl Finding {
    /// The file name `--out` stores this finding under.
    pub fn filename(&self) -> String {
        format!("finding__seed{:06}.json", self.seed)
    }

    /// The one-line `FINDING seed=...` rendering of the fuzz report (and
    /// grepped by the CI planted-bug check).
    pub fn render_line(&self) -> String {
        let schedule = self.config.effective_adversary();
        let strategies: Vec<String> = schedule
            .corruptions
            .iter()
            .map(|c| format!("p{}:{}", c.node, c.strategy.name()))
            .collect();
        format!(
            "FINDING seed={} verdict={} n={} f_a={} strategies=[{}] delay_rules={}",
            self.seed,
            self.verdict.name(),
            self.config.n,
            self.config.f_a(),
            strategies.join(","),
            schedule.delay_rules.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_with_defaults_and_flags() {
        let options = parse_args(&[]).unwrap().unwrap();
        assert_eq!(options.protocol, ProtocolKind::Lumiere);
        assert_eq!((options.seed_start, options.seed_end), (0, 50));
        assert!(options.quick);
        let options = parse_args(&strings(&[
            "--seeds",
            "5..9",
            "--protocol",
            "lp22",
            "--threads",
            "3",
            "--deep",
            "--out",
            "/tmp/findings",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(options.protocol, ProtocolKind::Lp22);
        assert_eq!((options.seed_start, options.seed_end), (5, 9));
        assert_eq!(options.threads, 3);
        assert!(!options.quick);
        assert_eq!(options.out, Some(PathBuf::from("/tmp/findings")));
        assert!(parse_args(&strings(&["--help"])).unwrap().is_none());
    }

    #[test]
    fn bad_args_are_rejected() {
        assert!(parse_args(&strings(&["--seeds", "9..5"])).is_err());
        assert!(parse_args(&strings(&["--seeds", "abc"])).is_err());
        assert!(parse_args(&strings(&["--protocol", "nope"])).is_err());
        assert!(parse_args(&strings(&["--threads", "0"])).is_err());
        assert!(parse_args(&strings(&["--frobnicate"])).is_err());
    }

    #[test]
    fn sampling_is_deterministic_and_in_model() {
        for seed in 0..40u64 {
            let a = sample_config(ProtocolKind::Lumiere, seed, true);
            let b = sample_config(ProtocolKind::Lumiere, seed, true);
            assert_eq!(a, b, "seed {seed} did not expand deterministically");
            let f = (a.n - 1) / 3;
            assert!(a.f_a() <= f, "seed {seed}: f_a exceeds f");
            let schedule = a.effective_adversary();
            assert!(schedule.validate(a.n, f).is_ok(), "seed {seed}");
            assert!(a.horizon > (a.gst - Time::ZERO) + liveness_envelope(a.n, FUZZ_DELTA));
        }
        // Different seeds explore different corners.
        let distinct: std::collections::BTreeSet<String> = (0..40u64)
            .map(|s| format!("{:?}", sample_config(ProtocolKind::Lumiere, s, true)))
            .collect();
        assert!(distinct.len() > 30, "sampler barely varies");
    }

    #[test]
    fn verdicts_read_the_oracles() {
        // A healthy quick run is Ok.
        let report = sample_config(ProtocolKind::Lumiere, 1, true).run();
        assert_eq!(verdict(&report), Verdict::Ok);
        // Tampering with the report flips the oracles.
        let mut bad = report.clone();
        bad.safety_ok = false;
        assert_eq!(verdict(&bad), Verdict::SafetyViolation);
        let mut bad = report.clone();
        bad.truncated = true;
        assert_eq!(verdict(&bad), Verdict::Truncated);
        let mut bad = report.clone();
        bad.commit_times.retain(|(t, _)| *t <= bad.gst);
        assert_eq!(verdict(&bad), Verdict::LivenessStall);
        assert!(Verdict::LivenessStall.is_finding());
        assert!(!Verdict::Ok.is_finding());
    }

    /// A run whose only commit after GST is followed by silence longer than
    /// the envelope stalls, though that commit came in time.
    #[test]
    fn a_stall_after_the_only_commit_after_gst_is_a_finding() {
        let mut report = sample_config(ProtocolKind::Lumiere, 1, true).run();
        let after_gst = report
            .commit_times
            .partition_point(|(t, _)| *t <= report.gst);
        report.commit_times.truncate(after_gst + 1);
        let (last, _) = report.commit_times[after_gst];
        let bound = liveness_envelope(report.n, report.delta_cap);
        assert!(last <= report.gst + bound, "the commit itself is in time");
        report.end_time = last + bound;
        assert_eq!(verdict(&report), Verdict::Ok);
        report.end_time = last + bound + Duration::from_micros(1);
        assert_eq!(verdict(&report), Verdict::LivenessStall);
    }

    #[test]
    fn minimization_drops_irrelevant_schedule_parts() {
        // Build a config whose verdict is Ok; minimizing toward Ok strips
        // the entire schedule (every drop still yields Ok), which shows the
        // greedy loop walks all the way down.
        let config = sample_config(ProtocolKind::Lumiere, 3, true);
        let minimal = minimize_config(&config, Verdict::Ok);
        let schedule = minimal.effective_adversary();
        assert!(schedule.corruptions.is_empty());
        assert!(schedule.delay_rules.is_empty());
        assert_eq!(minimal.f_a(), 0);
        assert_eq!(verdict(&minimal.run()), Verdict::Ok);
    }

    #[test]
    fn a_small_fuzz_batch_is_clean_and_thread_invariant() {
        let mut options = FuzzOptions {
            seed_start: 0,
            seed_end: 6,
            threads: 1,
            ..FuzzOptions::default()
        };
        let serial = crate::corpus::run_coverage_fuzz(&options);
        assert_eq!(serial.executions.len(), 6);
        assert!(
            serial.findings.is_empty(),
            "Lumiere must survive the sampled adversaries: {}",
            serial.render()
        );
        options.threads = 4;
        let parallel = crate::corpus::run_coverage_fuzz(&options);
        assert_eq!(serial.render(), parallel.render());
    }
}
