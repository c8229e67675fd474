//! Figure 8 reproduction: harmonic-mean IPC of the four fetch
//! architectures at pipe widths 2, 4 and 8, with baseline and
//! layout-optimized code, closing with the paper's five 8-wide
//! headline ratios ([`sfetch_bench::fig8_ratios`]; `calibrate` records
//! the same numbers under both front models in `BENCH_11.json`).
//!
//! ```text
//! cargo run --release -p sfetch-bench --bin figure8 [-- --inst N --warmup N]
//! ```

use sfetch_bench::grid::{grid_engines, FIG8_WIDTHS};
use sfetch_bench::{fig8_ratios, hmean_ipc, print_engine_table, run_grid, HarnessOpts};
use sfetch_workloads::{LayoutChoice, Suite};

fn main() {
    let opts = HarnessOpts::from_args();
    eprintln!("generating suite…");
    let suite = Suite::build_all();
    // Axes come from the shared grid definition (`sfetch_bench::grid`),
    // so this binary and `figure8_sampled` always sweep the same grid.
    let widths = FIG8_WIDTHS;
    let layouts = [LayoutChoice::Base, LayoutChoice::Optimized];
    let points = run_grid(&suite, &widths, &layouts, &grid_engines(), opts);

    for &w in &widths {
        print_engine_table(
            &format!("Figure 8({}): {}-wide processor, harmonic-mean IPC", (b'a' + widths.iter().position(|&x| x == w).expect("known width") as u8) as char, w),
            &points,
            |pts, k, l| hmean_ipc(pts, k, l, w),
            "",
        );
    }

    // The paper's headline ratios, 8-wide:
    let r = fig8_ratios(&points).measured_pct;
    println!("\n8-wide headline ratios (paper: +10% vs EV8, +4% vs FTB, -1.5% vs TC with optimized code;");
    println!("                        +10% vs EV8, -4..5% vs TC with base code)");
    println!(
        "  optimized: streams/EV8 {:+.1}%  streams/FTB {:+.1}%  streams/TC {:+.1}%",
        r[0], r[1], r[2]
    );
    println!("  base:      streams/EV8 {:+.1}%  streams/TC {:+.1}%", r[3], r[4]);
}
