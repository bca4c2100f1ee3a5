//! What the `lumiere-bench` binary does with a command line it cannot act
//! on: usage on stderr, exit code 2, nothing run.

use std::process::{Command, Output};

fn lumiere_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lumiere-bench"))
        .args(args)
        .output()
        .expect("the binary runs")
}

#[test]
fn an_unknown_experiment_exits_2_and_lists_the_known_ones() {
    let output = lumiere_bench(&["table1_all"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "nothing may run");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(
        stderr.contains("unknown experiment `table1_all`"),
        "{stderr}"
    );
    for def in lumiere_bench::ALL_EXPERIMENTS {
        assert!(stderr.contains(def.slug), "{stderr} omits {}", def.slug);
    }
}

#[test]
fn no_experiment_named_exits_2_with_usage() {
    let output = lumiere_bench(&["--threads", "2"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "nothing may run");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("no experiment named"), "{stderr}");
    assert!(stderr.contains("usage: lumiere-bench"), "{stderr}");
}
