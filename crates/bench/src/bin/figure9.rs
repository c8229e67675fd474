//! Figure 9 reproduction: per-benchmark IPC for the 8-wide processor with
//! layout-optimized code, plus the harmonic mean ("Hmean" bar).
//!
//! ```text
//! cargo run --release -p sfetch-bench --bin figure9 [-- --inst N --warmup N]
//! ```

use sfetch_bench::grid::{grid_engines, rank_label, FIG9_WIDTH};
use sfetch_bench::{run_grid, HarnessOpts, RunPoint};
use sfetch_core::metrics::harmonic_mean;
use sfetch_fetch::EngineKind;
use sfetch_workloads::{LayoutChoice, Suite};

fn main() {
    let opts = HarnessOpts::from_args();
    eprintln!("generating suite…");
    let suite = Suite::build_all();
    // Axes come from the shared grid definition (`sfetch_bench::grid`),
    // so this binary and `figure9_sampled` always sweep the same grid.
    let points =
        run_grid(&suite, &[FIG9_WIDTH], &[LayoutChoice::Optimized], &grid_engines(), opts);

    let ipc = |bench: &str, kind: EngineKind| -> f64 {
        points
            .iter()
            .find(|p: &&RunPoint| p.bench == bench && p.engine == kind)
            .map(|p| p.stats.ipc())
            .unwrap_or(0.0)
    };

    println!("\nFigure 9: per-benchmark IPC, 8-wide, optimized codes");
    println!(
        "{:<10} {:>14} {:>16} {:>9} {:>13}",
        "bench", "EV8+2bcgskew", "FTB+perceptron", "Streams", "Tcache+Tpred"
    );
    let mut per_engine: Vec<(EngineKind, Vec<f64>)> =
        EngineKind::ALL.iter().map(|&k| (k, Vec::new())).collect();
    for w in suite.workloads() {
        let row: Vec<f64> = EngineKind::ALL.iter().map(|&k| ipc(w.name(), k)).collect();
        for (slot, v) in per_engine.iter_mut().zip(&row) {
            slot.1.push(*v);
        }
        println!(
            "{:<10} {:>14.2} {:>16.2} {:>9.2} {:>13.2}",
            w.name(),
            row[0],
            row[1],
            row[2],
            row[3]
        );
    }
    let hmeans: Vec<f64> = per_engine.iter().map(|(_, v)| harmonic_mean(v)).collect();
    println!(
        "{:<10} {:>14.2} {:>16.2} {:>9.2} {:>13.2}",
        "Hmean", hmeans[0], hmeans[1], hmeans[2], hmeans[3]
    );

    // Paper observation: streams best-or-second-best in almost all
    // benchmarks (best in 5, at least second in all but one).
    let mut stream_rank_counts = [0usize; 4];
    for w in suite.workloads() {
        let mut row: Vec<(f64, usize)> = EngineKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &k)| (ipc(w.name(), k), i))
            .collect();
        row.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite IPC"));
        let stream_idx = EngineKind::ALL
            .iter()
            .position(|&k| k == EngineKind::Stream)
            .expect("streams present");
        let rank = row.iter().position(|&(_, i)| i == stream_idx).expect("ranked");
        stream_rank_counts[rank] += 1;
    }
    println!(
        "\nstreams rank histogram over benchmarks ({}): {:?} (paper: best in 5, \
         at least 2nd in all but one)",
        rank_label(stream_rank_counts.len()),
        stream_rank_counts
    );
}
