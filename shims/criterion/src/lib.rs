//! Offline stand-in for `criterion`.
//!
//! The container has no crates.io access, so the workspace vendors a small
//! wall-clock harness exposing the criterion API surface the `benches/`
//! files use: [`Criterion::bench_function`], benchmark groups with
//! per-input benchmarks, [`BenchmarkId`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros.
//!
//! # Adaptive sampling
//!
//! Each benchmark is measured with **time-budgeted adaptive sampling**
//! rather than a fixed iteration count:
//!
//! 1. a warm-up phase runs the routine until the warm-up budget elapses
//!    (caches hot, first-allocation effects gone) and estimates its cost;
//! 2. a batch size is chosen so one timed sample costs roughly 1/50 of the
//!    measurement budget (cheap routines are batched, expensive ones are
//!    sampled one iteration at a time);
//! 3. timed samples are collected until the measurement budget is spent
//!    *and* at least the minimum sample count has been reached.
//!
//! Each benchmark reports **mean / σ / min** over its samples. The
//! measurement budget defaults to [`DEFAULT_MEASUREMENT_BUDGET`] and can be
//! overridden globally with the `LUMIERE_BENCH_BUDGET_MS` environment
//! variable (CI uses a small budget for its perf smoke).
//!
//! # Throughput
//!
//! A group can declare [`Throughput::Elements`] — how many logical items
//! one iteration processes (simulator events, transactions, ...). The
//! element count rides along with every subsequent result: the console line
//! gains an `elem/s` column (computed from the fastest sample) and the JSON
//! output records `elements` per result, from which a reader derives
//! simulator events/sec.
//!
//! # Machine-readable output
//!
//! When `LUMIERE_BENCH_OUT=DIR` is set, [`criterion_main!`] writes every
//! result to `DIR/BENCH_<harness>.json` (schema in
//! `docs/REPORT_SCHEMA.md`), including a per-process **calibration**
//! measurement — the wall-clock cost of a fixed spin workload — that lets a
//! reader compare runs across machines of different speeds. No statistics
//! library, no HTML reports and no regression gate (`docs/PERFORMANCE.md`
//! says where regressions are judged).

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::hint;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Prevents the optimiser from deleting a benchmarked computation.
pub fn black_box<T>(value: T) -> T {
    hint::black_box(value)
}

/// Default measurement budget per benchmark (overridden by
/// `LUMIERE_BENCH_BUDGET_MS` or [`BenchmarkGroup::measurement_time`]).
pub const DEFAULT_MEASUREMENT_BUDGET: Duration = Duration::from_millis(500);

/// Default warm-up budget per benchmark.
pub const DEFAULT_WARM_UP: Duration = Duration::from_millis(100);

/// Default minimum number of timed samples per benchmark.
pub const DEFAULT_MIN_SAMPLES: usize = 10;

/// How many samples the batch sizing aims to fit into the budget.
const TARGET_SAMPLES: usize = 50;

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A function name / parameter pair, rendered `name/param`.
    pub fn new(name: impl Display, param: impl Display) -> Self {
        BenchmarkId {
            id: format!("{name}/{param}"),
        }
    }

    /// A parameter-only id.
    pub fn from_parameter(param: impl Display) -> Self {
        BenchmarkId {
            id: param.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// How much work one iteration of a benchmark performs, mirroring
/// `criterion::Throughput`. Declared on a group via
/// [`BenchmarkGroup::throughput`]; applies to every benchmark registered
/// after the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// One iteration processes this many logical elements (events,
    /// transactions, ...). Results gain an elements-per-second rendering
    /// and an `elements` field in the JSON output.
    Elements(u64),
    /// One iteration processes this many bytes.
    Bytes(u64),
}

impl Throughput {
    /// The per-iteration unit count, whatever the unit.
    fn count(self) -> u64 {
        match self {
            Throughput::Elements(n) | Throughput::Bytes(n) => n,
        }
    }
}

/// Per-benchmark sampling configuration.
#[derive(Debug, Clone, Copy)]
pub struct SamplingConfig {
    /// Warm-up wall-clock budget.
    pub warm_up: Duration,
    /// Measurement wall-clock budget (after warm-up).
    pub budget: Duration,
    /// Minimum number of timed samples, regardless of budget.
    pub min_samples: usize,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            warm_up: DEFAULT_WARM_UP,
            budget: env_budget().unwrap_or(DEFAULT_MEASUREMENT_BUDGET),
            min_samples: DEFAULT_MIN_SAMPLES,
        }
    }
}

/// Reads the global `LUMIERE_BENCH_BUDGET_MS` measurement-budget override.
fn env_budget() -> Option<Duration> {
    let raw = std::env::var("LUMIERE_BENCH_BUDGET_MS").ok()?;
    raw.parse::<u64>().ok().map(Duration::from_millis)
}

/// Summary statistics over the timed samples of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Mean time per iteration.
    pub mean: Duration,
    /// Sample standard deviation of the per-iteration time.
    pub sigma: Duration,
    /// Fastest observed sample (the most noise-robust statistic; the
    /// regression gate tracks this one).
    pub min: Duration,
    /// Number of timed samples taken.
    pub samples: usize,
    /// Iterations per timed sample (batch size).
    pub batch: u64,
}

impl Stats {
    /// Computes mean/σ/min over per-iteration sample durations.
    /// `batch` is recorded for reporting only.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[Duration], batch: u64) -> Stats {
        assert!(!samples.is_empty(), "at least one sample is required");
        let nanos: Vec<f64> = samples.iter().map(|d| d.as_nanos() as f64).collect();
        let n = nanos.len() as f64;
        let mean = nanos.iter().sum::<f64>() / n;
        let var = if nanos.len() < 2 {
            0.0
        } else {
            nanos.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
        };
        Stats {
            mean: Duration::from_nanos(mean as u64),
            sigma: Duration::from_nanos(var.sqrt() as u64),
            min: *samples.iter().min().expect("non-empty"),
            samples: samples.len(),
            batch,
        }
    }
}

/// Runs `routine` under time-budgeted adaptive sampling (see the crate
/// docs) and returns the per-iteration statistics. Exposed so the
/// convergence behaviour is directly unit-testable.
pub fn measure<O, F: FnMut() -> O>(config: &SamplingConfig, mut routine: F) -> Stats {
    // Warm-up: run until the warm-up budget elapses (at least once) and
    // estimate the per-iteration cost. The warm-up never exceeds the
    // measurement budget, so a global LUMIERE_BENCH_BUDGET_MS cap bounds
    // the whole benchmark.
    let warm_up = config.warm_up.min(config.budget);
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    loop {
        black_box(routine());
        warm_iters += 1;
        if warm_start.elapsed() >= warm_up {
            break;
        }
    }
    let per_iter = warm_start.elapsed() / (warm_iters as u32).max(1);

    // Batch sizing: aim for TARGET_SAMPLES samples within the budget, one
    // iteration per sample for expensive routines.
    let target_sample_cost = config.budget / TARGET_SAMPLES as u32;
    let batch = if per_iter.is_zero() {
        1024
    } else {
        (target_sample_cost.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1 << 20) as u64
    };

    // Measurement: timed batches until the budget is spent and the minimum
    // sample count is reached.
    let mut samples: Vec<Duration> = Vec::new();
    let run_start = Instant::now();
    while samples.len() < config.min_samples || run_start.elapsed() < config.budget {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(routine());
        }
        samples.push(start.elapsed() / batch as u32);
        // Hard stop: never take more than twice the target past the budget
        // (pathological cases where the clock stalls).
        if samples.len() >= config.min_samples.max(TARGET_SAMPLES * 4) {
            break;
        }
    }
    Stats::from_samples(&samples, batch)
}

/// One finished benchmark: its label and statistics.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Full benchmark label (`group/function/param`).
    pub name: String,
    /// The measured statistics.
    pub stats: Stats,
    /// Elements processed per iteration (`0` when the benchmark declared no
    /// throughput).
    pub elements: u64,
}

/// Process-global result sink, drained by [`criterion_main!`] through
/// [`take_results`].
fn results() -> &'static Mutex<Vec<BenchResult>> {
    static RESULTS: OnceLock<Mutex<Vec<BenchResult>>> = OnceLock::new();
    RESULTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Drains every result recorded so far (used by [`criterion_main!`]).
pub fn take_results() -> Vec<BenchResult> {
    std::mem::take(&mut results().lock().expect("bench results poisoned"))
}

/// One fresh measurement of the fixed spin workload (an xorshift loop):
/// one warm-up pass, then the fastest of five timed runs.
pub fn measure_calibration() -> Duration {
    let spin = || {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..1_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        x
    };
    black_box(spin());
    (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(spin());
            start.elapsed()
        })
        .min()
        .expect("five calibration runs")
}

/// The wall-clock cost of the calibration workload, measured once per
/// process (at first use). Lets cross-machine comparisons normalize out
/// CPU speed: `time / calibration` is roughly machine-independent.
pub fn calibration() -> Duration {
    static CALIBRATION: OnceLock<Duration> = OnceLock::new();
    *CALIBRATION.get_or_init(measure_calibration)
}

/// Runs the measured closure under the configured sampling.
pub struct Bencher<'a> {
    config: &'a SamplingConfig,
    stats: Option<Stats>,
}

impl Bencher<'_> {
    /// Measures `routine` with warm-up and adaptive sampling.
    pub fn iter<O, F: FnMut() -> O>(&mut self, routine: F) {
        self.stats = Some(measure(self.config, routine));
    }
}

/// Renders an elements-per-second rate with a binary-free SI suffix.
fn render_rate(elements: u64, per_iter: Duration) -> String {
    let secs = per_iter.as_secs_f64();
    if secs <= 0.0 {
        return "-".to_string();
    }
    let rate = elements as f64 / secs;
    if rate >= 1e6 {
        format!("{:.2} Melem/s", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.2} Kelem/s", rate / 1e3)
    } else {
        format!("{rate:.1} elem/s")
    }
}

fn run_one(label: &str, config: &SamplingConfig, elements: u64, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher {
        config,
        stats: None,
    };
    f(&mut b);
    let Some(stats) = b.stats else {
        println!("bench {label:<50} (no measurement)");
        return;
    };
    // Throughput is computed from the fastest sample — the same statistic
    // the regression gate tracks.
    let thrpt = if elements > 0 {
        format!(" thrpt {:>14}", render_rate(elements, stats.min))
    } else {
        String::new()
    };
    println!(
        "bench {label:<50} mean {:>11.2?} σ {:>9.2?} min {:>11.2?}{thrpt} ({} samples x {} iters)",
        stats.mean, stats.sigma, stats.min, stats.samples, stats.batch
    );
    results()
        .lock()
        .expect("bench results poisoned")
        .push(BenchResult {
            name: label.to_string(),
            stats,
            elements,
        });
}

/// The benchmark driver, mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Runs a standalone benchmark with the default sampling configuration.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, &SamplingConfig::default(), 0, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            config: SamplingConfig::default(),
            elements: 0,
        }
    }
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    config: SamplingConfig,
    /// Per-iteration element count for subsequent benchmarks (0 = unset).
    elements: u64,
}

impl BenchmarkGroup<'_> {
    /// Sets the minimum number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.config.min_samples = n.max(1);
        self
    }

    /// Declares how much work one iteration of the following benchmarks
    /// performs; their results gain an elements-per-second rendering and an
    /// `elements` field in the machine-readable output. Call again before
    /// each benchmark whose per-iteration workload differs (mirroring how
    /// criterion applies `Throughput` to subsequent registrations).
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.elements = throughput.count();
        self
    }

    /// Sets the warm-up budget.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.config.warm_up = d;
        self
    }

    /// Sets the measurement budget (`LUMIERE_BENCH_BUDGET_MS` wins when
    /// set, so CI can cap every benchmark globally).
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.config.budget = env_budget().unwrap_or(d);
        self
    }

    /// Runs one benchmark in the group against a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id);
        run_one(&label, &self.config, self.elements, &mut |b| f(b, input));
        self
    }

    /// Runs one benchmark in the group without an input parameter.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id);
        run_one(&label, &self.config, self.elements, &mut f);
        self
    }

    /// Ends the group. (No-op beyond API compatibility.)
    pub fn finish(self) {}
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Writes the drained results of this harness as
/// `$LUMIERE_BENCH_OUT/BENCH_<harness>.json` (no-op when the variable is
/// unset). The flat schema is documented in `docs/REPORT_SCHEMA.md`; the
/// JSON is hand-written so the shim stays dependency-free.
pub fn write_results(harness: &str, results: &[BenchResult]) {
    let Some(dir) = std::env::var_os("LUMIERE_BENCH_OUT") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("bench: cannot create {}: {e}", dir.display());
        return;
    }
    let budget = env_budget()
        .unwrap_or(DEFAULT_MEASUREMENT_BUDGET)
        .as_millis();
    // Re-measure the calibration now that the benches have run and record
    // the slower of the two: if the machine throttled (or gained load)
    // mid-run, the bench times reflect the slowed machine, and so must the
    // normalizer — otherwise every benchmark looks spuriously regressed.
    let calibration = calibration().max(measure_calibration());
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 2,\n");
    out.push_str(&format!("  \"harness\": \"{}\",\n", escape_json(harness)));
    out.push_str(&format!(
        "  \"calibration_ns\": {},\n",
        calibration.as_nanos()
    ));
    out.push_str(&format!("  \"budget_ms\": {budget},\n"));
    out.push_str("  \"results\": [");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"samples\": {}, \"batch\": {}, \"mean_ns\": {}, \"sigma_ns\": {}, \"min_ns\": {}, \"elements\": {}}}",
            escape_json(&r.name),
            r.stats.samples,
            r.stats.batch,
            r.stats.mean.as_nanos(),
            r.stats.sigma.as_nanos(),
            r.stats.min.as_nanos(),
            r.elements,
        ));
    }
    out.push_str("\n  ]\n}\n");
    let path = dir.join(format!("BENCH_{harness}.json"));
    match std::fs::write(&path, out) {
        Ok(()) => eprintln!("bench: wrote {}", path.display()),
        Err(e) => eprintln!("bench: cannot write {}: {e}", path.display()),
    }
}

/// Bundles benchmark functions into a callable group, mirroring criterion.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits a `main` that runs each group and then writes
/// `BENCH_<harness>.json` when `LUMIERE_BENCH_OUT` is set, mirroring
/// criterion.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            let results = $crate::take_results();
            $crate::write_results(env!("CARGO_CRATE_NAME"), &results);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SamplingConfig {
        SamplingConfig {
            warm_up: Duration::from_millis(2),
            budget: Duration::from_millis(10),
            min_samples: 5,
        }
    }

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim/group");
        group.sample_size(3);
        group.warm_up_time(Duration::from_millis(1));
        group.measurement_time(Duration::from_millis(5));
        group.bench_with_input(BenchmarkId::new("sq", 4), &4u64, |b, &n| b.iter(|| n * n));
        group.bench_with_input(BenchmarkId::from_parameter(9), &9u64, |b, &n| {
            b.iter(|| n + n)
        });
        group.finish();
    }

    criterion_group!(shim_benches, sample_bench);

    /// Serializes tests that record into / drain the process-global result
    /// sink, so concurrent test threads cannot steal each other's results.
    fn sink_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn harness_runs_and_records_results() {
        let _guard = sink_lock();
        shim_benches();
        let recorded = take_results();
        assert!(recorded
            .iter()
            .any(|r| r.name == "shim/group/sq/4" && r.stats.samples >= 3));
    }

    #[test]
    fn benchmark_ids_render() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter(7).to_string(), "7");
    }

    #[test]
    fn throughput_rides_along_with_results() {
        let _guard = sink_lock();
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim/thrpt");
        group.sample_size(2);
        group.warm_up_time(Duration::from_millis(1));
        group.measurement_time(Duration::from_millis(3));
        group.throughput(Throughput::Elements(1_000));
        group.bench_function("with", |b| b.iter(|| black_box(2u64).wrapping_mul(3)));
        group.throughput(Throughput::Elements(500));
        group.bench_function("rescoped", |b| b.iter(|| black_box(2u64).wrapping_add(3)));
        group.finish();
        // An ungrouped benchmark never carries a count.
        c.bench_function("shim/no-thrpt", |b| b.iter(|| black_box(1u64)));
        let recorded = take_results();
        let by_name = |n: &str| {
            recorded
                .iter()
                .find(|r| r.name == n)
                .unwrap_or_else(|| panic!("{n} missing"))
        };
        assert_eq!(by_name("shim/thrpt/with").elements, 1_000);
        assert_eq!(by_name("shim/thrpt/rescoped").elements, 500);
        assert_eq!(by_name("shim/no-thrpt").elements, 0);
    }

    #[test]
    fn rates_render_with_si_suffixes() {
        assert_eq!(
            render_rate(2_000_000, Duration::from_secs(1)),
            "2.00 Melem/s"
        );
        assert_eq!(render_rate(5_000, Duration::from_secs(1)), "5.00 Kelem/s");
        assert_eq!(render_rate(12, Duration::from_secs(1)), "12.0 elem/s");
        assert_eq!(render_rate(10, Duration::ZERO), "-");
    }

    #[test]
    fn adaptive_sampling_reaches_the_minimum_sample_count() {
        // Even with a budget far smaller than the routine cost, the minimum
        // sample count is honoured.
        let config = SamplingConfig {
            warm_up: Duration::from_micros(100),
            budget: Duration::from_micros(1),
            min_samples: 7,
        };
        let stats = measure(&config, || std::thread::sleep(Duration::from_micros(50)));
        assert!(stats.samples >= 7, "got {} samples", stats.samples);
        assert!(stats.min >= Duration::from_micros(50));
        assert!(stats.mean >= stats.min);
    }

    #[test]
    fn adaptive_sampling_converges_within_the_budget() {
        // A cheap routine must batch: enough samples to fill the budget,
        // several iterations per sample, and the wall clock must not
        // overshoot the budget by orders of magnitude.
        let config = quick_config();
        let start = Instant::now();
        let stats = measure(&config, || black_box(3u64).wrapping_mul(5));
        let wall = start.elapsed();
        assert!(stats.samples >= 5);
        assert!(stats.batch > 1, "cheap routines must be batched");
        assert!(
            wall < config.budget * 20 + Duration::from_millis(200),
            "overshot the budget: {wall:?}"
        );
        // The mean of a near-constant routine is close to its min.
        assert!(stats.mean >= stats.min);
    }

    #[test]
    fn stats_are_computed_over_samples() {
        let stats = Stats::from_samples(
            &[
                Duration::from_nanos(100),
                Duration::from_nanos(200),
                Duration::from_nanos(300),
            ],
            4,
        );
        assert_eq!(stats.mean, Duration::from_nanos(200));
        assert_eq!(stats.min, Duration::from_nanos(100));
        assert_eq!(stats.samples, 3);
        assert_eq!(stats.batch, 4);
        assert_eq!(stats.sigma, Duration::from_nanos(100));
        // A constant series has zero variance.
        let constant = Stats::from_samples(&[Duration::from_nanos(40); 8], 1);
        assert_eq!(constant.sigma, Duration::ZERO);
        assert_eq!(constant.mean, Duration::from_nanos(40));
    }

    #[test]
    fn calibration_is_stable_within_a_process() {
        let a = calibration();
        let b = calibration();
        assert_eq!(a, b, "calibration must be measured once and cached");
        assert!(a > Duration::ZERO);
    }
}
