//! Heavy-synchronization suppression (Theorem 1.1(4)): once a Lumiere epoch
//! satisfies the success criterion, processors stop paying the Θ(n²)
//! epoch-synchronization cost; Basic Lumiere and LP22 pay it at every epoch
//! forever.
//!
//! ```text
//! cargo run --release --example steady_state_epochs
//! ```

use lumiere::prelude::*;

fn main() {
    let n = 13;
    let f = (n - 1) / 3;
    println!("n = {n}, Δ = 10 ms, δ = 1 ms; running ~6 simulated seconds\n");
    println!(
        "{:<15} {:>4} {:>26} {:>22} {:>11}",
        "protocol", "f_a", "heavy epochs after warmup", "heavy msgs after", "decisions"
    );
    for protocol in [
        ProtocolKind::Lumiere,
        ProtocolKind::BasicLumiere,
        ProtocolKind::Lp22,
    ] {
        for f_a in [0usize, f] {
            let report = SimConfig::new(protocol, n)
                .with_delta(Duration::from_millis(10))
                .with_actual_delay(Duration::from_millis(1))
                .with_faults(f_a, StrategyKind::SilentLeader)
                .with_horizon(Duration::from_millis(6000 + 3000 * f_a as i64))
                .run();
            let warmup = report.default_warmup();
            println!(
                "{:<15} {:>4} {:>26} {:>22} {:>11}",
                report.protocol,
                f_a,
                report.heavy_sync_epochs_after(warmup),
                report.heavy_messages_between(warmup, report.end_time),
                report.decisions()
            );
        }
    }
    println!(
        "\nLumiere performs its heavy Θ(n²) synchronization only for the first epoch(s) after\n\
         boot/GST; every later epoch boundary is crossed by the success criterion alone, so its\n\
         eventual communication per decision is O(n·f_a + n)."
    );
}
