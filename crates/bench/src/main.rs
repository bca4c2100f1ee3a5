//! `lumiere-bench <experiment>… | all`: regenerates the paper's tables and
//! figures (usage and flags in [`lumiere_bench::cli`]).

use std::process::ExitCode;

fn main() -> ExitCode {
    lumiere_bench::cli::run_main()
}
