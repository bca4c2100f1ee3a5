//! `lumiere-node` — one live processor of a Lumiere cluster.
//!
//! ```text
//! lumiere-node --config node0.json [--out summary0.json] [--load <tps>]
//!              [--strategy <name|json> | --schedule <json>]
//!              [--planted-bug <name>]
//! ```
//!
//! Reads a [`NodeConfig`], joins the TCP mesh it describes (blocking until
//! every peer is reachable), runs the configured protocol in real time, and
//! on exit writes a JSON run summary — committed chain and per-commit
//! timestamps included — to `--out` (or stdout). `scripts/local-cluster.sh`
//! boots clusters of these on localhost and checks their chains against the
//! simulator's oracles.
//!
//! The adversarial switches make a live node a test subject:
//!
//! * `--strategy` corrupts the node with the *same*
//!   [`StrategyKind`] machinery the simulator
//!   uses — a short name (`silent-leader`, `crash`, …) or the serialized
//!   JSON form for parameterized strategies (e.g.
//!   `{"CrashRecovery":{"down":{"from":0,"until":5000000}}}`, times in
//!   microseconds).
//! * `--schedule` runs a serialized [`AdversarySchedule`] — the `adversary`
//!   field of a simulator config or a fuzz corpus entry. The node runs the
//!   strategy the schedule gives its own id (if any), and its transport
//!   holds each outbound message a delay rule matches until that rule's
//!   delivery time, at most Δ after the send. It excludes `--strategy`,
//!   because a schedule already names every node's strategy.
//! * `--planted-bug` runs a known calibration bug (builds with the
//!   `planted-bugs` feature only; a stock binary refuses, so CI can never
//!   silently measure stock behaviour).
//!
//! `--load <tps>` turns the node into an open-loop client as well: it
//! generates the given number of transactions per second, feeding its own
//! mempool and broadcasting each to its peers; the summary then reports
//! committed-transaction counts, recommits (a transaction committed again,
//! 0 unless a leader proposed one its chain already held) and submit→commit
//! latency percentiles.
//!
//! Every flag may appear at most once; duplicates are rejected rather than
//! last-wins, so a typo in a long command line cannot silently discard an
//! earlier value.

use lumiere_core::planted::{self, PlantedBug};
use lumiere_runtime::driver::{self, DriverOptions};
use lumiere_runtime::{
    build_runtime_with, AdversarySchedule, FaultedTransport, NodeConfig, StrategyKind,
    TcpTransport, Transport,
};
use serde::json;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::time::Duration as WallDuration;

/// Parsed command line.
struct Args {
    config: String,
    out: Option<String>,
    load: Option<u64>,
    strategy: Option<StrategyKind>,
    schedule: Option<AdversarySchedule>,
    planted: Option<PlantedBug>,
}

/// Stores a flag's value, rejecting a second occurrence: silently letting
/// the last duplicate win would discard an earlier value the operator
/// believes is in effect.
fn set_once<T>(slot: &mut Option<T>, value: T, flag: &str) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!("duplicate flag {flag}"));
    }
    *slot = Some(value);
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(usage) => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run_node(&args) {
        eprintln!("lumiere-node: {e}");
        std::process::exit(1);
    }
}

fn parse_args() -> Result<Args, String> {
    let usage = "usage: lumiere-node --config <node.json> [--out <summary.json>] \
                 [--load <tps>] [--strategy <name|json> | --schedule <json>] \
                 [--planted-bug <name>]";
    let mut config = None;
    let mut out = None;
    let mut load = None;
    let mut strategy = None;
    let mut schedule = None;
    let mut planted = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" => set_once(&mut config, args.next().ok_or(usage)?, "--config")?,
            "--out" => set_once(&mut out, args.next().ok_or(usage)?, "--out")?,
            "--load" => {
                let raw = args.next().ok_or(usage)?;
                let rate: u64 = raw
                    .parse()
                    .map_err(|e| format!("cannot parse --load `{raw}` as txs/sec: {e}"))?;
                if rate == 0 {
                    return Err("--load must be at least 1 tx/sec (omit it for no load)".into());
                }
                set_once(&mut load, rate, "--load")?;
            }
            "--strategy" => {
                let raw = args.next().ok_or(usage)?;
                set_once(&mut strategy, parse_strategy(&raw)?, "--strategy")?;
            }
            "--schedule" => {
                let raw = args.next().ok_or(usage)?;
                let parsed = json::from_str::<AdversarySchedule>(&raw)
                    .map_err(|e| format!("cannot parse --schedule: {e}"))?;
                set_once(&mut schedule, parsed, "--schedule")?;
            }
            "--planted-bug" => {
                let raw = args.next().ok_or(usage)?;
                let bug = PlantedBug::parse(&raw).ok_or_else(|| {
                    format!(
                        "unknown planted bug `{raw}` (known: {})",
                        PlantedBug::ALL.map(|b| b.name()).join(", ")
                    )
                })?;
                set_once(&mut planted, bug, "--planted-bug")?;
            }
            "--help" | "-h" => return Err(usage.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{usage}")),
        }
    }
    if strategy.is_some() && schedule.is_some() {
        return Err(format!(
            "--strategy and --schedule are exclusive: a schedule names each node's strategy\n{usage}"
        ));
    }
    Ok(Args {
        config: config.ok_or(usage)?,
        out,
        load,
        strategy,
        schedule,
        planted,
    })
}

/// Accepts a [`StrategyKind::name`] short name for the parameter-free
/// strategies, or the serialized JSON form for any strategy.
fn parse_strategy(raw: &str) -> Result<StrategyKind, String> {
    if let Some(kind) = StrategyKind::from_name(raw) {
        return Ok(kind);
    }
    json::from_str::<StrategyKind>(raw).map_err(|e| {
        format!("cannot parse --strategy `{raw}` (not a known short name, and not valid JSON: {e})")
    })
}

fn run_node(args: &Args) -> Result<(), String> {
    let cfg = NodeConfig::load(&args.config).map_err(|e| e.to_string())?;
    let protocol = cfg
        .protocol_kind()
        .expect("validated config names a known protocol");
    if args.planted.is_some() && !planted::enabled() {
        return Err(
            "--planted-bug requires a binary built with `--features planted-bugs`; \
             this is a stock build"
                .to_string(),
        );
    }
    let schedule = args.schedule.clone().unwrap_or_default();
    schedule
        .validate(cfg.n, (cfg.n - 1) / 3)
        .map_err(|e| format!("--schedule: {e}"))?;
    let strategy = args.strategy.or(schedule.strategy_for(cfg.node_id));
    eprintln!(
        "[node {}] {} | n = {} | listening on {}{}{}{}",
        cfg.node_id,
        protocol.name(),
        cfg.n,
        cfg.listen,
        strategy
            .map(|s| format!(" | strategy = {}", s.name()))
            .unwrap_or_default(),
        args.planted
            .map(|b| format!(" | planted-bug = {}", b.name()))
            .unwrap_or_default(),
        if schedule.delay_rules.is_empty() {
            String::new()
        } else {
            format!(" | {} delay rules", schedule.delay_rules.len())
        },
    );

    let transport = TcpTransport::connect(cfg.mesh()).map_err(|e| e.to_string())?;
    // A schedule without delay rules is transparent, so the wrapper is
    // unconditional: one code path whether or not rules were given.
    let transport = FaultedTransport::new(transport, schedule, cfg.delta(), cfg.seed);
    eprintln!("[node {}] mesh up, booting protocol", cfg.node_id);

    let runtime = build_runtime_with(
        protocol,
        cfg.n,
        cfg.node_id,
        cfg.delta(),
        cfg.seed,
        args.planted,
    )
    .with_strategy(strategy);
    let opts = DriverOptions {
        target_commits: cfg.target_commits,
        deadline: cfg.run_timeout_ms.map(WallDuration::from_millis),
        load_tps: args.load,
        ..DriverOptions::default()
    };
    let stop = AtomicBool::new(false);
    let committed = AtomicU64::new(0);
    let (summary, _runtime, mut transport) =
        driver::run(runtime, transport, &opts, &stop, &committed).map_err(|e| e.to_string())?;
    transport.shutdown();

    eprintln!(
        "[node {}] done: committed {} blocks in view {} after {:.0} ms \
         ({} gated events, {} delayed by delay rules)",
        summary.node,
        summary.committed_height,
        summary.final_view,
        summary.wall_ms,
        summary.gated_events,
        transport.delayed(),
    );
    if args.load.is_some() {
        let s = &summary;
        let (node, all, done, again) = (s.node, s.txs_submitted, s.txs_committed, s.tx_recommits);
        let (p50, p95, p99) = (
            s.tx_latency_p50_ms,
            s.tx_latency_p95_ms,
            s.tx_latency_p99_ms,
        );
        eprintln!("[node {node}] load: submitted {all} txs, committed {done} ({again} recommits) | latency ms p50 {p50:.1} / p95 {p95:.1} / p99 {p99:.1}");
    }
    let text = json::to_string(&summary);
    match args.out.as_deref() {
        Some(path) => std::fs::write(path, text)
            .map_err(|e| format!("cannot write summary to {path}: {e}"))?,
        None => println!("{text}"),
    }
    Ok(())
}
