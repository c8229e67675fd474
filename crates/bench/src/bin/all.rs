//! Runs every experiment in sequence (figures 8 and 9, tables 1–3, all
//! ablations, calibrate) by re-invoking the sibling binaries, forwarding
//! `--inst` / `--warmup` / `--jobs`. Results go to stdout; EXPERIMENTS.md
//! records a reference run.
//!
//! ```text
//! cargo run --release -p sfetch-bench --bin all [-- --inst N --warmup N --jobs N]
//! ```

use std::process::Command;

use sfetch_bench::driver::{or_die, process_args};

fn main() {
    // Validate the flags before fanning out.
    let _ = sfetch_bench::HarnessOpts::from_args();
    let args = or_die(process_args());
    let me = std::env::current_exe().expect("current exe path");
    let dir = me.parent().expect("target dir");
    for bin in [
        "table2",
        "figure8",
        "figure9",
        "figure8_sampled",
        "figure9_sampled",
        "table1",
        "table3",
        "ablation_linesize",
        "ablation_predictor",
        "ablation_ftq",
        "ablation_sts",
        "calibrate",
    ] {
        println!("\n===================== {bin} =====================");
        let status = Command::new(dir.join(bin))
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
    }
}
