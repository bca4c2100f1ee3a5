//! The adversarial live-cluster harness: real `lumiere-node` OS processes
//! on a localhost TCP mesh, judged by the same oracles the simulator uses.
//!
//! Two oracles, ported from the fuzzer's virtual-time versions to
//! wall-clock commit traces ([`DriverSummary::commits`]):
//!
//! * **agreement** — every pair of nodes must agree on the committed
//!   prefix (byte-equal chains up to the shorter one);
//! * **liveness envelope** — the first commit, every commit-to-commit gap,
//!   and the tail after the last commit must each fit inside the `O(nΔ)`
//!   envelope ([`liveness_envelope`]), mirroring the paper's Theorem 1.1(2)
//!   latency bound.
//!
//! The third test is the calibration run demanded by the planted-bug
//! detection suite: a cluster built with the `planted-bugs` feature and a
//! silent leader must be *flagged* by the envelope oracle while the stock
//! build sails through the identical schedule. It runs in-process on the
//! channel mesh (the test binary is stock unless the feature is unified in
//! by a workspace test build, so it checks `planted::enabled()` at runtime
//! and skips itself on stock builds); `scripts/local-cluster.sh` and the
//! `live-cluster-adversarial` CI job repeat the same calibration against
//! real processes with `--features planted-bugs` binaries.

use lumiere_core::planted::{self, PlantedBug};
use lumiere_runtime::driver::{check_agreement, spawn, DriverOptions, DriverSummary};
use lumiere_runtime::{
    build_runtime_with, channel_mesh, liveness_envelope, AdversarySchedule, NodeConfig, PeerConfig,
    ProtocolKind, StrategyKind,
};
use lumiere_types::Duration;
use serde::json;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration as WallDuration;

/// Fixed localhost port ranges, disjoint per test (integration tests run in
/// parallel threads) and from the 46xxx ranges the in-process TCP tests own.
const HONEST_BASE_PORT: u16 = 47110;
const ADVERSARIAL_BASE_PORT: u16 = 47120;
/// Never bound: the argument checks below must fail before any socket opens.
const CLI_BASE_PORT: u16 = 47130;

/// Checks one node's wall-clock commit trace against the `O(nΔ)` liveness
/// envelope. Returns a description of the first violation, if any — the
/// same three gaps the fuzzer's virtual-time oracle bounds: boot to first
/// commit, commit to commit, last commit to shutdown.
fn envelope_violation(s: &DriverSummary, n: usize, delta: Duration) -> Option<String> {
    let bound_ms = liveness_envelope(n, delta).as_millis_f64();
    let Some(first) = s.commits.first() else {
        return Some(format!(
            "node {} committed nothing in {:.0} ms (bound {bound_ms:.0} ms)",
            s.node, s.wall_ms
        ));
    };
    if first.wall_ms > bound_ms {
        return Some(format!(
            "node {} took {:.0} ms to its first commit (bound {bound_ms:.0} ms)",
            s.node, first.wall_ms
        ));
    }
    for w in s.commits.windows(2) {
        let gap = w[1].wall_ms - w[0].wall_ms;
        if gap > bound_ms {
            return Some(format!(
                "node {} stalled {gap:.0} ms between heights {} and {} (bound {bound_ms:.0} ms)",
                s.node, w[0].height, w[1].height
            ));
        }
    }
    let tail = s.wall_ms - s.commits.last().unwrap().wall_ms;
    if tail > bound_ms {
        return Some(format!(
            "node {} stalled {tail:.0} ms after its last commit (bound {bound_ms:.0} ms)",
            s.node
        ));
    }
    None
}

/// Asserts pairwise prefix agreement on the committed chains.
fn assert_agreement(summaries: &[DriverSummary]) {
    if let Err(divergence) = check_agreement(summaries) {
        panic!("{divergence}");
    }
}

fn cluster_config(
    id: usize,
    n: usize,
    base_port: u16,
    delta_ms: i64,
    target_commits: Option<u64>,
    run_timeout_ms: u64,
) -> NodeConfig {
    NodeConfig {
        node_id: id,
        n,
        protocol: "lumiere".to_string(),
        delta_ms,
        seed: 97,
        listen: format!("127.0.0.1:{}", base_port + id as u16),
        peers: (0..n)
            .filter(|&j| j != id)
            .map(|j| PeerConfig {
                id: j,
                addr: format!("127.0.0.1:{}", base_port + j as u16),
            })
            .collect(),
        target_commits,
        run_timeout_ms: Some(run_timeout_ms),
        connect_timeout_ms: 20_000,
    }
}

/// A scratch directory for configs and summaries, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("lumiere-live-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Spawns one real `lumiere-node` process. `extra` carries the adversarial
/// switches (`--strategy`, `--schedule`). Stderr goes to a per-node log in
/// the scratch dir so a failure is diagnosable.
fn spawn_node(scratch: &Scratch, cfg: &NodeConfig, extra: &[&str]) -> Child {
    let config_path = scratch.path(&format!("node{}.json", cfg.node_id));
    let out_path = scratch.path(&format!("summary{}.json", cfg.node_id));
    std::fs::write(&config_path, json::to_string(cfg)).expect("write node config");
    let log = std::fs::File::create(scratch.path(&format!("node{}.log", cfg.node_id)))
        .expect("create node log");
    Command::new(env!("CARGO_BIN_EXE_lumiere-node"))
        .arg("--config")
        .arg(&config_path)
        .arg("--out")
        .arg(&out_path)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .expect("spawn lumiere-node")
}

/// Waits for every child and reads its summary back.
fn collect(scratch: &Scratch, children: Vec<Child>) -> Vec<DriverSummary> {
    children
        .into_iter()
        .enumerate()
        .map(|(i, mut child)| {
            let status = child.wait().expect("wait for lumiere-node");
            let log =
                std::fs::read_to_string(scratch.path(&format!("node{i}.log"))).unwrap_or_default();
            assert!(status.success(), "node {i} exited with {status}:\n{log}");
            let text = std::fs::read_to_string(scratch.path(&format!("summary{i}.json")))
                .unwrap_or_else(|e| panic!("node {i} wrote no summary: {e}\n{log}"));
            json::from_str(&text).expect("parse node summary")
        })
        .collect()
}

/// Four real processes must connect, commit to their target, agree, and
/// keep every commit gap inside the `O(nΔ)` envelope.
#[test]
fn live_cluster_commits_within_the_liveness_envelope() {
    let n = 4;
    let delta_ms = 20i64;
    let scratch = Scratch::new("honest");
    let children: Vec<Child> = (0..n)
        .map(|i| {
            let cfg = cluster_config(i, n, HONEST_BASE_PORT, delta_ms, Some(12), 30_000);
            spawn_node(&scratch, &cfg, &[])
        })
        .collect();
    let summaries = collect(&scratch, children);

    for s in &summaries {
        assert!(
            s.committed_height >= 12,
            "node {} committed only {} blocks",
            s.node,
            s.committed_height
        );
        assert_eq!(s.gated_events, 0, "honest nodes gate nothing");
        if let Some(violation) = envelope_violation(s, n, Duration::from_millis(delta_ms)) {
            panic!("liveness envelope violated: {violation}");
        }
    }
    assert_agreement(&summaries);
}

/// One node runs a crash–recovery strategy (dark for the first 1.5 s, then
/// rejoins): the honest majority must keep committing inside the envelope
/// throughout, the corrupted process must report strategy-gated events —
/// the live counterpart of the simulator's activation accounting — and
/// every chain must still agree.
#[test]
fn crash_recovery_strategy_gates_a_live_node_without_stalling_the_rest() {
    let n = 4;
    let delta_ms = 20i64;
    let scratch = Scratch::new("adversarial");
    // Fixed-duration run (no commit target): the cluster must outlive the
    // corrupted node's dark window no matter how fast it commits.
    let children: Vec<Child> = (0..n)
        .map(|i| {
            let cfg = cluster_config(i, n, ADVERSARIAL_BASE_PORT, delta_ms, None, 6_000);
            let strategy = r#"{"CrashRecovery":{"down":{"from":0,"until":1500000}}}"#;
            let extra: &[&str] = if i == 3 {
                &["--strategy", strategy]
            } else {
                &[]
            };
            spawn_node(&scratch, &cfg, extra)
        })
        .collect();
    let summaries = collect(&scratch, children);

    for s in &summaries[..3] {
        assert!(
            s.committed_height >= 5,
            "honest node {} committed only {} blocks alongside a crash-recovery peer",
            s.node,
            s.committed_height
        );
        assert_eq!(s.gated_events, 0, "honest nodes gate nothing");
        if let Some(violation) = envelope_violation(s, n, Duration::from_millis(delta_ms)) {
            panic!("liveness envelope violated on an honest node: {violation}");
        }
    }
    assert!(
        summaries[3].gated_events > 0,
        "the corrupted process must gate events during its dark window"
    );
    assert_agreement(&summaries);
}

/// The live calibration the planted-bug suite demands: under an identical
/// silent-leader schedule, a planted `DropTimeoutRearm` cluster must be
/// flagged by the envelope oracle while the stock cluster passes it.
///
/// Runs on the in-process channel mesh so both variants come from this very
/// build. On a stock build (`planted::enabled()` false — e.g.
/// `cargo test -p lumiere-runtime`) the planted half cannot exist and the
/// test skips itself; workspace test builds compile the planted paths in.
#[test]
fn planted_timeout_bug_is_flagged_by_the_envelope_oracle_and_stock_passes() {
    if !planted::enabled() {
        eprintln!("skipped: stock build without the planted-bugs feature");
        return;
    }
    let n = 4;
    let delta = Duration::from_millis(10);
    let run = |planted_bug: Option<PlantedBug>| -> Vec<DriverSummary> {
        let handles: Vec<_> = channel_mesh(n)
            .into_iter()
            .enumerate()
            .map(|(i, transport)| {
                // Node 1 is a silent leader: its views are wasted, which is
                // exactly the schedule that severs the planted re-arm path.
                let strategy = (i == 1).then_some(StrategyKind::SilentLeader);
                let rt = build_runtime_with(ProtocolKind::Lumiere, n, i, delta, 31, planted_bug)
                    .with_strategy(strategy);
                spawn(
                    rt,
                    transport,
                    DriverOptions {
                        target_commits: None,
                        deadline: Some(WallDuration::from_secs(5)),
                        linger: WallDuration::from_millis(200),
                        poll: WallDuration::from_millis(2),
                        load_tps: None,
                    },
                )
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap().0).collect()
    };

    let stock = run(None);
    let honest = |ss: &[DriverSummary]| -> Vec<DriverSummary> {
        ss.iter().filter(|s| s.node != 1).cloned().collect()
    };
    for s in honest(&stock) {
        if let Some(violation) = envelope_violation(&s, n, delta) {
            panic!("stock cluster must pass the envelope oracle: {violation}");
        }
    }
    assert_agreement(&stock);

    let planted_run = run(Some(PlantedBug::DropTimeoutRearm));
    assert_agreement(&planted_run); // the planted bug is not a safety bug
    let flagged = honest(&planted_run)
        .iter()
        .any(|s| envelope_violation(s, n, delta).is_some());
    assert!(
        flagged,
        "the planted DropTimeoutRearm cluster must be flagged by the liveness \
         oracle (stock committed {} blocks, planted {})",
        stock[0].committed_height, planted_run[0].committed_height
    );
    let stock_height = honest(&stock)
        .iter()
        .map(|s| s.committed_height)
        .min()
        .unwrap();
    let planted_height = honest(&planted_run)
        .iter()
        .map(|s| s.committed_height)
        .max()
        .unwrap();
    assert!(
        planted_height < stock_height,
        "the planted cluster must stall behind stock (stock {stock_height}, \
         planted {planted_height})"
    );
}

/// Runs `lumiere-node` on a valid n = 4 config plus `extra` and returns its
/// exit code and stderr.
fn node_cli(tag: &str, extra: &[&str]) -> (Option<i32>, String) {
    let scratch = Scratch::new(tag);
    let config_path = scratch.path("node0.json");
    let cfg = cluster_config(0, 4, CLI_BASE_PORT, 20, Some(1), 5_000);
    std::fs::write(&config_path, json::to_string(&cfg)).expect("write node config");
    let out = Command::new(env!("CARGO_BIN_EXE_lumiere-node"))
        .arg("--config")
        .arg(&config_path)
        .args(extra)
        .output()
        .expect("run lumiere-node");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn strategy_and_schedule_are_exclusive() {
    let schedule = r#"{"corruptions":[],"delay_rules":[]}"#;
    let (code, stderr) = node_cli(
        "cli-exclusive",
        &["--strategy", "crash", "--schedule", schedule],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("--strategy and --schedule are exclusive"),
        "{stderr}"
    );
}

#[test]
fn a_schedule_out_of_range_is_rejected_before_the_mesh_starts() {
    let schedule = r#"{"corruptions":[{"node":9,"strategy":"Crash"}],"delay_rules":[]}"#;
    let (code, stderr) = node_cli("cli-range", &["--schedule", schedule]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("--schedule: corrupted node 9 out of range"),
        "{stderr}"
    );
    assert!(!stderr.contains("listening on"), "{stderr}");
}

#[test]
fn the_fault_plan_flag_is_gone() {
    let (code, stderr) = node_cli("cli-fault-plan", &["--fault-plan", "{}"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown argument `--fault-plan`"),
        "{stderr}"
    );
}

/// The schedule CI's `live-cluster-adversarial` job runs over TCP is the
/// simulator's named targeted-partition adversary, not a drifted copy.
#[test]
fn the_ci_schedule_is_the_simulators_targeted_partition() {
    let text = include_str!("../../../scripts/schedules/targeted-partition-4.json");
    let schedule: AdversarySchedule = json::from_str(text).expect("parse the CI schedule");
    assert_eq!(
        schedule,
        AdversarySchedule::targeted_partition(&[3], Duration::from_millis(1))
    );
    assert!(schedule.validate(4, 1).is_ok());
}
