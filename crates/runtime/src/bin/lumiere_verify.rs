//! `lumiere-verify <dir> --floor <T> [--killed i,j:r] [--expect-stall]`
//! judges the run `scripts/local-cluster.sh` left in `<dir>` with
//! [`cluster_verdict`] (`:r` tags a restarted node), taking n and Δ from
//! `node0.json`. It prints a line per node, then `ERROR:` per failure
//! (`LIVENESS-STALL:` per stall under `--expect-stall`), and exits 0 iff the
//! run passed, 2 on bad input.

use lumiere_runtime::driver::{cluster_verdict, DriverSummary, Killed};
use lumiere_runtime::{liveness_envelope, NodeConfig};
use serde::json;

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("lumiere-verify: {e}");
    std::process::exit(2)
}

/// The directory, floor, killed ids and `--expect-stall`, or `None`.
fn parse(args: &[String]) -> Option<(&String, u64, Vec<Killed>, bool)> {
    let (mut floor, mut ids, mut expect_stall) = (None, "", false);
    let mut rest = args.get(1..)?.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--floor" => floor = Some(rest.next()?.parse().ok()?),
            "--killed" => ids = rest.next()?,
            "--expect-stall" => expect_stall = true,
            _ => return None,
        }
    }
    let kill = |t: &str| Some((t.trim_end_matches(":r").parse().ok()?, t.ends_with(":r")));
    let killed: Vec<_> = ids.split_terminator(',').map(kill).collect::<Option<_>>()?;
    Some((args.first()?, floor?, killed, expect_stall))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((dir, floor, killed, expect)) = parse(&args) else {
        fail("usage: lumiere-verify <dir> --floor <T> [--killed i,j:r] [--expect-stall]")
    };
    let cfg = NodeConfig::load(&format!("{dir}/node0.json")).unwrap_or_else(|e| fail(e));
    let summaries: Vec<Option<DriverSummary>> = (0..cfg.n)
        .map(|i| {
            let text = std::fs::read_to_string(format!("{dir}/summary{i}.json")).ok()?;
            Some(json::from_str(&text).unwrap_or_else(|e| fail(format!("summary{i}: {e}"))))
        })
        .collect();
    for (i, s) in summaries.iter().enumerate() {
        let Some(s) = s else { continue };
        let role = match (&s.strategy, killed.iter().any(|k| k.0 == i)) {
            (Some(_), _) => " corrupted",
            (None, true) => " killed/restarted",
            (None, false) => "",
        };
        let (h, view) = (s.committed_height, s.final_view.as_i64());
        let (ms, gated) = (s.wall_ms, s.gated_events);
        println!("node {i}{role}: committed {h} blocks, final view {view}, {ms:.0} ms, {gated} gated events");
        if role.is_empty() && s.load_tps.is_some() {
            let (c, all, again) = (s.txs_committed, s.txs_submitted, s.tx_recommits);
            let (p50, p99) = (s.tx_latency_p50_ms, s.tx_latency_p99_ms);
            println!("node {i} load: {c}/{all} txs committed, {again} recommits, p50 {p50:.1} ms, p99 {p99:.1} ms");
        }
    }
    let (fatal, stalls) = cluster_verdict(&summaries, cfg.delta(), floor, &killed);
    let bound_ms = liveness_envelope(cfg.n, cfg.delta()).as_millis_f64();
    let tag = if expect { "LIVENESS-STALL" } else { "ERROR" };
    fatal.iter().for_each(|f| println!("ERROR: {f}"));
    stalls.iter().for_each(|s| println!("{tag}: {s}"));
    let stalls = stalls.len();
    if expect && stalls == 0 {
        println!("ERROR: expected a liveness stall, but every honest node committed {floor}+ blocks inside the {bound_ms:.0} ms envelope");
    }
    match (fatal.is_empty() && (stalls == 0) != expect, expect) {
        (false, _) => std::process::exit(1),
        (true, true) => println!("OK: stall detected as expected on {stalls} honest node(s)"),
        (true, false) => println!("OK: the honest nodes agree, committed >= {floor} blocks, and stayed inside the {bound_ms:.0} ms O(nΔ) envelope"),
    }
}
