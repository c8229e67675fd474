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
//! With `--procs N` each benchmark's windows × engines fan out across
//! OS processes under the fleet supervisor (`sfetch_fleet`): leased
//! cells, retry/backoff on worker crashes, resumable ledger. `--chaos`,
//! `--max-retries` and `--cell-timeout` behave as in `figure8_sampled`.
//! Exit status: 0 complete, 2 degraded (some cells permanently failed),
//! 1 error.
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
//!     [--procs N] [--chaos SEED] [--max-retries N] [--cell-timeout S] \
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

use sfetch_bench::driver::{
    finish_store, or_die, populate_store, resolve_store, run_fleet_cells, submit_and_collect,
    ArgDefaults, CommonArgs,
};
use sfetch_bench::fleet_grid::maybe_run_fleet_child;
use sfetch_bench::grid::{cells, merge_grid, run_sampled_grid, CellRun, FIG9_WIDTH};
use sfetch_bench::obs::write_sampled_obs;
use sfetch_bench::workload_by_name;
use sfetch_core::metrics::harmonic_mean;
use sfetch_fetch::EngineKind;
use sfetch_sample::CheckpointStore;

/// Default benchmark set: the quick ablation subset plus the
/// long-horizon phased workload.
const DEFAULT_BENCHES: &str = "gzip,gcc,crafty,twolf,phased";

fn main() -> ExitCode {
    maybe_run_fleet_child();
    let mut a = CommonArgs::parse(&ArgDefaults {
        benches: DEFAULT_BENCHES,
        engines: "all",
        widths: "8",
        procs: 1,
    });
    a.widths = vec![FIG9_WIDTH];
    let scfg = a.opts.grid_sample;
    let windows = scfg.windows(a.opts.grid_total);

    let serving = a.serve.is_some();
    let tmp = std::env::temp_dir().join(format!("sfetch-fig9s-{}", std::process::id()));
    let (store_dir, store_is_temp) = resolve_store(a.store.as_deref(), tmp.clone());
    // Under --serve the daemon owns the (warm) store; nothing local.
    let store = if serving {
        None
    } else {
        Some(or_die(CheckpointStore::open(&store_dir)).with_cap_bytes(a.opts.store_cap_bytes))
    };
    let grid = cells(&a.engines, &a.widths);
    let mut degraded = false;

    println!(
        "\nFigure 9 sampled: per-benchmark IPC [±rel 95% CI], {FIG9_WIDTH}-wide, optimized, \
         {} insts sampled per bench ({windows} windows)",
        a.opts.grid_total
    );
    println!(
        "{:<10} {}",
        "bench",
        a.engines
            .iter()
            .map(|k| format!("{:>22}", k.to_string()))
            .collect::<String>()
    );
    let mut per_engine: Vec<(EngineKind, Vec<f64>)> =
        a.engines.iter().map(|&k| (k, Vec::new())).collect();
    for bench in &a.benches.clone() {
        let runs: Vec<CellRun> = if let Some(sock) = &a.serve {
            // Resident path: one request per benchmark, merged from the
            // daemon's result stream.
            let req = a.request(bench);
            let id = a
                .req_id
                .as_deref()
                .map(|base| format!("{base}-{bench}"))
                .unwrap_or_else(|| format!("fig9-{}-{bench}", std::process::id()));
            let out = or_die(submit_and_collect(sock, &id, &req, |_| {}));
            eprintln!(
                "  [{bench}] serve: {} computed, {} resumed, {} shared",
                out.computed, out.resumed, out.shared
            );
            degraded |= out.status != "complete";
            or_die(merge_grid(&grid, windows, &out.points, scfg.confidence))
        } else if a.procs > 1 {
            // Populate this benchmark's checkpoints once, then fan the
            // engine × window cells across fleet workers.
            let w = workload_by_name(bench);
            let store = store.as_ref().expect("local store");
            populate_store(&w, scfg, windows, store, &format!("  [{}] store:", w.name()));
            let (runs, d) = or_die(run_fleet_cells(&a, bench, &grid, &store_dir, a.procs));
            degraded |= d;
            runs
        } else {
            let w = workload_by_name(bench);
            let store = store.as_ref().expect("local store");
            let (runs, traffic) =
                run_sampled_grid(&w, &grid, scfg, a.opts.grid_total, &a.opts, store);
            eprintln!(
                "  [{}] store: {} hits, {} computed, {} rejected",
                w.name(),
                traffic.hits,
                traffic.misses,
                traffic.rejected
            );
            runs
        };
        if a.obs.enabled() && !serving {
            // Per-benchmark subdirectory: one time-series file per
            // engine, plus optional pipeline traces, per bench.
            let w = workload_by_name(bench);
            let mut per_bench = a.obs.clone();
            per_bench.dir = a.obs.dir.as_ref().map(|d| d.join(bench));
            let store = store.as_ref().expect("local store");
            or_die(write_sampled_obs(&w, &grid, scfg, windows, &a.opts, &per_bench, store));
        }
        let row: String = runs
            .iter()
            .map(|r| {
                format!(
                    "{:>13.2} ±{:>5.2}%",
                    r.estimate.ipc,
                    100.0 * r.estimate.rel_half_width
                )
            })
            .collect();
        println!("{:<10} {row}", bench);
        for (slot, r) in per_engine.iter_mut().zip(&runs) {
            slot.1.push(r.estimate.ipc);
        }
    }
    let hmeans: String = per_engine
        .iter()
        .map(|(_, v)| format!("{:>13.2}        ", harmonic_mean(v)))
        .collect();
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

    if let Some(store) = &store {
        finish_store(store_is_temp, &store_dir, store, true);
    }
    if degraded { ExitCode::from(2) } else { ExitCode::SUCCESS }
}
