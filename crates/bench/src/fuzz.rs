//! A deterministic, seed-driven fuzzer over the adversary strategy space.
//!
//! The paper's guarantees are worst-case over *all* Byzantine adversaries,
//! so hand-picked scenarios can only ever sample the attack space. The
//! fuzzer searches it: every seed deterministically expands into a random
//! cluster size, fault assignment (any mix of
//! [`StrategyKind`](lumiere_sim::StrategyKind)s up to `f` corruptions),
//! GST, base delay model and up to a few per-edge
//! [`DelayRule`](lumiere_sim::DelayRule)s — all inside the partial-synchrony
//! envelope — and the resulting simulation is checked against two oracles:
//!
//! * **safety** — honest committed chains must stay prefix-consistent
//!   (`SimReport::safety_ok`), equivocation attempts notwithstanding;
//! * **liveness** — after GST an honest leader must produce a QC, and some
//!   honest processor must commit, within a generous `O(nΔ)` bound
//!   ([`liveness_bound`]). A run that exceeds the simulator's event cap
//!   (`SimReport::truncated`) is also reported.
//!
//! Findings carry the reproducing seed and a **greedily minimized**
//! configuration ([`minimize_config`]): corruptions and delay rules are
//! dropped one at a time while the verdict persists, so a report shows the
//! smallest adversary that still breaks the property.
//!
//! Runs are scattered over worker threads with [`run_grid`] and reported in
//! seed order, so the output is byte-identical for every `--threads` value.

use crate::grid::run_grid;
use crate::mutate::{sample_rule, sample_strategy};
use crate::table::TextTable;
use lumiere_sim::{AdversarySchedule, PlantedBug, ProtocolKind, SimConfig, SimReport};
use lumiere_types::{Duration, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{json, Serialize};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The known delay bound Δ used by every fuzz case.
pub const FUZZ_DELTA: Duration = Duration::from_millis(10);

/// What one fuzz case concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Verdict {
    /// Safety and liveness both held.
    Ok,
    /// Honest committed chains diverged — a protocol-breaking bug.
    SafetyViolation,
    /// No honest-leader QC or no honest commit within the liveness bound
    /// after GST.
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
    /// Seeds `[start, end)` to expand into cases (in coverage mode, the
    /// execution-budget range; execution ids double as sampling seeds).
    pub seed_start: u64,
    /// End of the seed range (exclusive).
    pub seed_end: u64,
    /// Worker threads.
    pub threads: usize,
    /// Smaller clusters and shorter horizons.
    pub quick: bool,
    /// Where to persist finding JSON files, if anywhere.
    pub out: Option<PathBuf>,
    /// Run the coverage-guided corpus/mutation loop
    /// (`crate::corpus::run_coverage_fuzz`) instead of the flat sampler.
    pub coverage: bool,
    /// Generation (batch) size of the coverage loop: how many executions
    /// run between corpus-synchronization points.
    pub generation: usize,
    /// Where to persist the final corpus (coverage mode only).
    pub corpus_out: Option<PathBuf>,
    /// A previously persisted corpus to preload before the loop starts
    /// (coverage mode only): its fingerprints seed the novelty set and its
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
         violation or liveness stall with a minimized configuration. The default\n\
         mode samples one deterministic case per seed; --coverage runs the\n\
         corpus + structural-mutation loop guided by behavioural coverage\n\
         fingerprints (docs/ADVERSARIES.md). Exit code 1 when there are\n\
         findings; output is byte-identical for every --threads value.\n\
         \n\
         options:\n\
        \x20 --seeds A..B       seed/execution range, half-open (default: 0..50)\n\
        \x20 --protocol NAME    one of lumiere, basic-lumiere, lp22, fever,\n\
        \x20                    cogsworth, nk20, naive-quadratic (default: lumiere)\n\
        \x20 --threads N        worker threads (default: available parallelism)\n\
        \x20 --quick            small clusters, short horizons (default)\n\
        \x20 --deep             larger clusters (n up to 31), longer horizons\n\
        \x20 --coverage         coverage-guided corpus/mutation loop\n\
        \x20 --generation N     coverage batch size between corpus syncs (default: 16)\n\
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
                options.protocol = ProtocolKind::all()
                    .into_iter()
                    .find(|p| p.name() == raw)
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

/// The liveness bound after GST: a generous `O(nΔ)` envelope. The paper's
/// Theorem 1.1(2) gives worst-case latency `O(nΔ)`; the constant here leaves
/// room for a commit (two consecutive honest-leader QCs) on top. Delegates
/// to [`lumiere_runtime::liveness_envelope`] so the simulator's fuzz oracle
/// and the live-cluster harness judge commits against the same envelope.
pub fn liveness_bound(n: usize, delta: Duration) -> Duration {
    lumiere_runtime::liveness_envelope(n, delta)
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
    let bound = liveness_bound(n, FUZZ_DELTA);
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
    let bound_end = report.gst + liveness_bound(report.n, report.delta_cap);
    let qc_ok = report
        .first_honest_qc_after(report.gst)
        .is_some_and(|t| t <= bound_end);
    let commit_ok = report
        .commit_times
        .iter()
        .any(|(t, _)| *t > report.gst && *t <= bound_end);
    if qc_ok && commit_ok {
        Verdict::Ok
    } else {
        Verdict::LivenessStall
    }
}

/// The outcome of one fuzz case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The expanding seed.
    pub seed: u64,
    /// The sampled configuration.
    pub config: SimConfig,
    /// The oracle verdict.
    pub verdict: Verdict,
    /// Worst-case latency after GST, when an honest QC appeared at all.
    pub latency: Option<Duration>,
    /// The behavioural coverage fingerprint key the run produced
    /// (`SimReport::coverage`) — the quantity the coverage-guided loop is
    /// measured against.
    pub fingerprint: String,
}

/// Runs one seed end to end. `planted` plants a calibration bug into the
/// sampled configuration (see [`lumiere_core::planted`]).
pub fn run_case(
    protocol: ProtocolKind,
    seed: u64,
    quick: bool,
    planted: Option<PlantedBug>,
) -> CaseResult {
    let mut config = sample_config(protocol, seed, quick);
    config.planted_bug = planted;
    let report = config.clone().run();
    CaseResult {
        seed,
        verdict: verdict(&report),
        latency: report.worst_case_latency(),
        fingerprint: report.coverage.key(),
        config,
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
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// Seed that reproduces the finding via [`sample_config`] (in coverage
    /// mode, the execution id; the embedded config is the ground truth).
    pub seed: u64,
    /// Oracle verdict name.
    pub verdict: Verdict,
    /// The minimized configuration (still reproduces the verdict when run).
    pub config: SimConfig,
}

impl Finding {
    /// The one-line `FINDING ...` rendering shared by the flat and the
    /// coverage reports (and grepped by the CI planted-bug check);
    /// `id_label` names the id field (`"seed"` or `"exec"`).
    pub fn render_line(&self, id_label: &str) -> String {
        let schedule = self.config.effective_adversary();
        let strategies: Vec<String> = schedule
            .corruptions
            .iter()
            .map(|c| format!("p{}:{}", c.node, c.strategy.name()))
            .collect();
        format!(
            "FINDING {id_label}={} verdict={} n={} f_a={} strategies=[{}] delay_rules={}",
            self.seed,
            self.verdict.name(),
            self.config.n,
            self.config.f_a,
            strategies.join(","),
            schedule.delay_rules.len(),
        )
    }
}

/// The outcome of a whole fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Options the run used.
    pub options: FuzzOptions,
    /// Per-seed results, in seed order.
    pub results: Vec<CaseResult>,
    /// Minimized findings, in seed order.
    pub findings: Vec<Finding>,
}

impl FuzzOutcome {
    /// Renders the deterministic report (identical for every thread count).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "## Adversary fuzz — {} seeds {}..{} ({}{})\n",
            self.options.protocol.name(),
            self.options.seed_start,
            self.options.seed_end,
            if self.options.quick { "quick" } else { "deep" },
            match self.options.planted {
                Some(bug) => format!(", planted bug: {}", bug.name()),
                None => String::new(),
            },
        );
        // Aggregate per cluster size: cases and the worst latency seen.
        let mut table = TextTable::new(vec![
            "n",
            "cases",
            "ok",
            "findings",
            "max latency after GST (ms)",
            "bound (ms)",
        ]);
        let mut ns: Vec<usize> = self.results.iter().map(|r| r.config.n).collect();
        ns.sort_unstable();
        ns.dedup();
        for n in ns {
            let rows: Vec<&CaseResult> = self.results.iter().filter(|r| r.config.n == n).collect();
            let ok = rows.iter().filter(|r| r.verdict == Verdict::Ok).count();
            let max_latency = rows
                .iter()
                .filter_map(|r| r.latency)
                .max()
                .map(|d| format!("{:.1}", d.as_millis_f64()))
                .unwrap_or_else(|| "-".to_string());
            table.push_row(vec![
                n.to_string(),
                rows.len().to_string(),
                ok.to_string(),
                (rows.len() - ok).to_string(),
                max_latency,
                format!("{:.0}", liveness_bound(n, FUZZ_DELTA).as_millis_f64()),
            ]);
        }
        out.push_str(&table.render());
        let _ = writeln!(out);
        for finding in &self.findings {
            let _ = writeln!(out, "{}", finding.render_line("seed"));
        }
        let _ = writeln!(
            out,
            "fuzz: {} cases, {} distinct fingerprints, {} findings ({} safety, {} stalls, {} truncated)",
            self.results.len(),
            self.distinct_fingerprints(),
            self.findings.len(),
            self.count(Verdict::SafetyViolation),
            self.count(Verdict::LivenessStall),
            self.count(Verdict::Truncated),
        );
        out
    }

    /// Number of distinct coverage fingerprints the flat sampler reached —
    /// the baseline the coverage-guided loop must beat at an equal budget.
    pub fn distinct_fingerprints(&self) -> usize {
        self.results
            .iter()
            .map(|r| r.fingerprint.as_str())
            .collect::<BTreeSet<_>>()
            .len()
    }

    fn count(&self, v: Verdict) -> usize {
        self.results.iter().filter(|r| r.verdict == v).count()
    }
}

/// Runs the fuzzer: expands every seed, simulates in parallel via
/// [`run_grid`], minimizes findings, and returns the deterministic outcome.
pub fn run_fuzz(options: &FuzzOptions) -> FuzzOutcome {
    let seeds: Vec<u64> = (options.seed_start..options.seed_end).collect();
    let protocol = options.protocol;
    let quick = options.quick;
    let planted = options.planted;
    let results = run_grid(seeds, options.threads, |seed| {
        run_case(protocol, seed, quick, planted)
    });
    let findings = results
        .iter()
        .filter(|r| r.verdict.is_finding())
        .map(|r| Finding {
            seed: r.seed,
            verdict: r.verdict,
            config: minimize_config(&r.config, r.verdict),
        })
        .collect();
    FuzzOutcome {
        options: options.clone(),
        results,
        findings,
    }
}

/// Writes one pretty-printed JSON file per finding under `dir` and returns
/// the paths, in seed order. The file embeds the minimized `SimConfig`, so
/// `docs/ADVERSARIES.md`'s replay recipe can rebuild the run exactly.
pub fn write_findings(dir: &Path, findings: &[Finding]) -> Result<Vec<PathBuf>, String> {
    crate::report::ensure_writable(dir)?;
    let mut paths = Vec::with_capacity(findings.len());
    for finding in findings {
        let path = dir.join(format!("finding__seed{:06}.json", finding.seed));
        let mut text = json::to_string_pretty(finding);
        text.push('\n');
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        paths.push(path);
    }
    Ok(paths)
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
            assert!(a.f_a <= f, "seed {seed}: f_a exceeds f");
            let schedule = a.effective_adversary();
            assert!(schedule.validate(a.n, f).is_ok(), "seed {seed}");
            assert!(a.horizon > (a.gst - Time::ZERO) + liveness_bound(a.n, FUZZ_DELTA));
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
        assert_eq!(minimal.f_a, 0);
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
        let serial = run_fuzz(&options);
        assert_eq!(serial.results.len(), 6);
        assert!(
            serial.findings.is_empty(),
            "Lumiere must survive the sampled adversaries: {}",
            serial.render()
        );
        options.threads = 4;
        let parallel = run_fuzz(&options);
        assert_eq!(serial.render(), parallel.render());
    }
}
