//! Figure 9 at **paper-scale horizons**: per-benchmark sampled IPC for
//! the 8-wide optimized configuration, through the checkpoint store.
//!
//! Where `figure9` measures million-instruction windows, this binary
//! samples tens of millions of committed instructions per benchmark
//! (the long-horizon phased workload rides along by default — the one
//! bench where instruction footprints actually overflow the L1i) and
//! reports per-benchmark IPC with 95% confidence intervals. The engine
//! axis and the 8-wide width come from the shared `sfetch_bench::grid`
//! definition, so this binary can never drift from `figure9` or
//! `figure8_sampled`.
//!
//! Each benchmark keys its own checkpoints (per-workload trace
//! fingerprints), so one shared `--store DIR` serves the whole suite:
//! the first invocation banks every benchmark's fast-forward state,
//! every later one — any engine subset — starts warm.
//!
//! With `--procs N` each benchmark's grid runs under the fleet
//! supervisor (`sfetch_fleet`) on up to N worker threads: leased cells,
//! retry/backoff on worker failures, resumable ledger. `--chaos`,
//! `--max-retries` and `--cell-timeout` behave as in `figure8_sampled`.
//! Exit status: 0 complete, 2 degraded (some cells permanently failed),
//! 1 error.
//!
//! `--verify` reruns each benchmark's cells through a **storeless**
//! live sampler and asserts its merged grid is bit-identical, printing
//! one `verify OK: <bench>` line per benchmark after the table (a
//! degraded benchmark is skipped with a `verify skipped` line on
//! stderr).
//!
//! With `--serve SOCKET` nothing is simulated locally: each benchmark
//! is submitted to a resident `sfetch-serve` daemon as its own request,
//! the streamed points are merged client-side, and the printed table is
//! byte-identical to a local run — while the daemon's warm store and
//! cell ledger dedupe the suite's work across all concurrent clients.
//!
//! ```text
//! cargo run --release -p sfetch-bench --bin figure9_sampled -- \
//!     [--benches gzip,gcc,crafty,twolf,phased] [--engines all|…] \
//!     [--grid-total N] [--grid-sample U,Wf,Wd,D[,Wm]] [--store DIR] \
//!     [--procs N] [--verify] [--chaos SEED] [--max-retries N] [--cell-timeout S] \
//!     [--jobs N] [--prefetch K] [--warm-bank] \
//!     [--front-pipeline legacy|engine] [--grid-prefetch shared|natural] \
//!     [--serve SOCKET] [--req ID] \
//!     [--obs-dir DIR] [--interval N] [--ptrace LO-HI]
//! ```
//!
//! With `--obs-dir DIR` each benchmark additionally writes its
//! cycle-accounting time series (and, with `--ptrace`, Konata pipeline
//! traces) into `DIR/<bench>/` — a pure side pass over the warm
//! checkpoint store that leaves the reported IPC numbers untouched.
//! (`--obs-dir` needs the local store, so it is ignored under
//! `--serve`.)

use std::process::ExitCode;
use std::sync::Arc;

use sfetch_bench::driver::{announce_kept_store, or_die, run_request, ArgDefaults, CommonArgs};
use sfetch_bench::grid::{verify_merged, FIG9_WIDTH};
use sfetch_bench::try_workload_by_name;
use sfetch_core::metrics::harmonic_mean;
use sfetch_fetch::EngineKind;

/// Default benchmark set: the quick ablation subset plus the
/// long-horizon phased workload.
const DEFAULT_BENCHES: &str = "gzip,gcc,crafty,twolf,phased";

fn main() -> ExitCode {
    let mut a = CommonArgs::parse(&ArgDefaults {
        benches: DEFAULT_BENCHES,
        engines: "all",
        widths: "8",
        procs: 1,
    });
    a.widths = vec![FIG9_WIDTH];
    let windows = a.opts.grid_sample.windows(a.opts.grid_total);
    let mut degraded = false;

    println!(
        "\nFigure 9 sampled: per-benchmark IPC [±rel 95% CI], {FIG9_WIDTH}-wide, optimized, \
         {} insts sampled per bench ({windows} windows)",
        a.opts.grid_total
    );
    println!(
        "{:<10} {}",
        "bench",
        a.engines.iter().map(|k| format!("{:>22}", k.to_string())).collect::<String>()
    );
    let mut verdicts = Vec::new();
    let mut per_engine: Vec<(EngineKind, Vec<f64>)> =
        a.engines.iter().map(|&k| (k, Vec::new())).collect();
    for bench in &a.benches {
        // Per-benchmark observability subdirectory: one time-series
        // file per engine, plus optional pipeline traces, per bench.
        let mut obs = a.obs.clone();
        obs.dir = a.obs.dir.as_ref().map(|d| d.join(bench));
        let req = a.request(bench);
        let out = or_die(run_request(&a, &req, &obs));
        degraded |= out.degraded;
        // The storeless oracle, per bench, on the workload the dispatch
        // built (or, after a daemon run, a fresh one).
        if a.verify && !out.degraded {
            eprintln!("{bench}: verifying merged grid against a storeless in-process rerun…");
            let w = out.workload.unwrap_or_else(|| Arc::new(or_die(try_workload_by_name(bench))));
            verify_merged(&w, &out.runs, req.scfg, &req.opts, req.windows());
            verdicts.push(format!(
                "verify OK: {bench}: store-backed grid is bit-identical to a storeless \
                 single-process run"
            ));
        } else if a.verify {
            eprintln!("verify skipped: degraded result has incomplete cells");
        }
        let row: String = out
            .runs
            .iter()
            .map(|r| {
                format!("{:>13.2} ±{:>5.2}%", r.estimate.ipc, 100.0 * r.estimate.rel_half_width)
            })
            .collect();
        println!("{:<10} {row}", bench);
        for (slot, r) in per_engine.iter_mut().zip(&out.runs) {
            slot.1.push(r.estimate.ipc);
        }
    }
    let hmeans: String =
        per_engine.iter().map(|(_, v)| format!("{:>13.2}        ", harmonic_mean(v))).collect();
    println!("{:<10} {hmeans}", "Hmean");

    // The paper's Fig. 9 observation, restated for the sampled run:
    // where does the stream engine rank per benchmark?
    if let Some(stream_col) = a.engines.iter().position(|&k| k == EngineKind::Stream) {
        let mut rank_counts = vec![0usize; a.engines.len()];
        let n_benches = per_engine[0].1.len();
        for b in 0..n_benches {
            let mut row: Vec<(f64, usize)> =
                per_engine.iter().enumerate().map(|(i, (_, v))| (v[b], i)).collect();
            row.sort_by(|x, y| y.0.partial_cmp(&x.0).expect("finite IPC"));
            let rank = row.iter().position(|&(_, i)| i == stream_col).expect("ranked");
            rank_counts[rank] += 1;
        }
        println!(
            "\nstreams rank histogram over benchmarks (1st..{}th): {rank_counts:?}",
            a.engines.len()
        );
    }

    for line in verdicts {
        println!("{line}");
    }
    announce_kept_store(&a);
    if degraded {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
