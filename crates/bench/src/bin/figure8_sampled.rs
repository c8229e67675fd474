//! Figure 8 at **paper-scale horizons**: the engines × widths grid on
//! the long-horizon phased workload, measured by SMARTS-style sampling
//! through the reusable checkpoint store.
//!
//! The classic `figure8` binary measures million-instruction windows on
//! the L1i-resident synthetic suite; this one runs the same grid (the
//! axes come from the shared `sfetch_bench::grid` definition, so the
//! two binaries can never drift apart) on the ~330KB-footprint phased
//! workload over tens of millions of instructions — the regime where
//! the fetch architectures' differences actually open up. Every
//! window resumes from the checkpoint store: the first run pays the
//! architectural fast-forward once, every later run (any engine or
//! width) starts directly at functional warming.
//!
//! ```text
//! cargo run --release -p sfetch-bench --bin figure8_sampled -- \
//!     [--bench phased] [--grid-total N] [--grid-sample U,Wf,Wd,D[,Wm]] \
//!     [--engines all|…] [--widths all|…] [--store DIR] \
//!     [--procs N] [--verify] [--chaos SEED] [--max-retries N] \
//!     [--cell-timeout SECS] \
//!     [--jobs N] [--batch N] [--store-cap-bytes N] \
//!     [--prefetch K] [--warm-bank] \
//!     [--front-pipeline legacy|engine] [--grid-prefetch shared|natural] \
//!     [--serve SOCKET] [--req ID] \
//!     [--obs-dir DIR] [--interval N] [--ptrace LO-HI]
//! ```
//!
//! With `--obs-dir DIR` the run additionally emits the observability
//! artifacts (see `sfetch_bench::obs`): a per-cell cycle-accounting
//! time series (`ts_<engine>_<width>.jsonl`, one row per `--interval N`
//! committed instructions; 0 = per window) and, with `--ptrace LO-HI`,
//! a Konata pipeline trace per engine. Sinks are side passes through
//! the warm checkpoint store — the measured grid stays bit-identical
//! with them on or off.
//!
//! With `--procs N` the grid — windows × engines × widths — fans out
//! across OS processes through the store under the **fleet supervisor**
//! (`sfetch_fleet`): cells are leased from a persistent ledger, crashed
//! or hung workers are retried with backoff, and a killed parent
//! resumes mid-grid on re-invocation. `--chaos SEED` injects
//! deterministic worker faults to prove the merged output stays
//! byte-identical. `--verify` reruns every cell through a **storeless**
//! live sampler and asserts the merged result is bit-identical, so the
//! store machinery itself is under test. With `--store DIR` checkpoints
//! persist across invocations. Exit status: 0 complete, 2 degraded,
//! 1 error.
//!
//! Accuracy note: sampled-IPC accuracy is validated (BENCH_4
//! `sampling_ab`) for the **stream** engine, whose self-checking
//! `warm_block` trains partial streams during functional warming. The
//! other engines warm through plain commit training and their sampled
//! IPC may carry additional cold-structure bias; compare engines under
//! identical schedules and treat cross-engine deltas, not absolute
//! levels, as the signal.
//!
//! With `--serve SOCKET` the grid is not simulated locally at all: the
//! request is submitted to a resident `sfetch-serve` daemon, the
//! per-window points are collected from its result stream, and the
//! identical merge renders the identical table — byte-for-byte the
//! one-shot stdout, while the daemon's warm store and ledger dedupe the
//! work across every concurrent client. `--verify` still works (the
//! oracle is storeless), which puts the entire daemon path under test.
//!
//! Per-point output is the sampled IPC with its 95% confidence
//! interval, plus the store traffic (how much fast-forward work was
//! reused vs computed) on stderr. The comparison against the paper's
//! Fig. 8 claims — five relative ratios at 8-wide — is `figure8`'s
//! closing lines; `calibrate` records those ratios and this grid's
//! default estimates in `BENCH_11.json`.
//!
//! By default each cell simulates its engine's **own** front-pipeline
//! model and natural prefetch policy (`--front-pipeline engine
//! --grid-prefetch natural`); `--front-pipeline legacy --grid-prefetch
//! shared` reproduces the historical shared-front grid bit-for-bit.

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use sfetch_bench::driver::{
    finish_store, or_die, populate_store, resolve_store, run_fleet_cells, submit_and_collect,
    ArgDefaults, CommonArgs, ServeEvent,
};
use sfetch_bench::fleet_grid::maybe_run_fleet_child;
use sfetch_bench::grid::{
    cells, merge_grid, print_grid_table, run_sampled_grid, verify_merged, CellRun,
};
use sfetch_bench::obs::write_sampled_obs;
use sfetch_bench::workload_by_name;
use sfetch_sample::CheckpointStore;

fn print_panels(a: &CommonArgs, runs: &[CellRun]) {
    for (panel, &width) in a.widths.iter().enumerate() {
        println!(
            "\nFigure 8({}) sampled: {width}-wide, optimized layout, IPC [95% CI]",
            (b'a' + panel as u8) as char
        );
        for run in runs.iter().filter(|r| r.cell.width == width) {
            println!(
                "  {:<18} {:>7.3}  [{:.3}, {:.3}]  ±{:.2}%",
                run.cell.engine.to_string(),
                run.estimate.ipc,
                run.estimate.ipc_lo,
                run.estimate.ipc_hi,
                100.0 * run.estimate.rel_half_width
            );
        }
    }
}

/// `--verify` leg — the oracle is **storeless**, so it validates the
/// local store path and the daemon stream path alike.
fn maybe_verify(a: &CommonArgs, runs: &[CellRun], windows: u64, degraded: bool) {
    if a.verify && !degraded {
        eprintln!("\nverifying merged grid against a storeless in-process rerun…");
        let w = workload_by_name(a.bench());
        verify_merged(&w, runs, a.opts.grid_sample, &a.opts, windows);
        println!("verify OK: store-backed grid is bit-identical to a storeless single-process run");
    } else if a.verify {
        eprintln!("verify skipped: degraded result has incomplete cells");
    }
}

fn exit_for(degraded: bool) -> ExitCode {
    let _ = std::io::stdout().flush();
    if degraded {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// `--serve SOCKET`: submit to the resident daemon, merge the streamed
/// points client-side, render the identical table.
fn run_serve(a: &CommonArgs, sock: &Path) -> ExitCode {
    let req = a.request(a.bench());
    let grid = req.grid();
    let windows = req.windows();
    let id = a.req_id.clone().unwrap_or_else(|| format!("fig8-{}", std::process::id()));
    eprintln!(
        "serve: submitting {id} ({} cells × {windows} windows) to {}",
        grid.len(),
        sock.display()
    );
    let out = or_die(submit_and_collect(sock, &id, &req, |line| {
        if let Ok(ServeEvent::Cell { cell, resumed, .. }) = ServeEvent::parse(line) {
            eprintln!("  [{id}] cell {cell} {}", if resumed { "resumed" } else { "done" });
        }
    }));
    let degraded = out.status != "complete";
    let runs = or_die(merge_grid(&grid, windows, &out.points, req.scfg.confidence));
    print_grid_table(&runs);
    print_panels(a, &runs);
    eprintln!(
        "serve: {} cells computed, {} resumed, {} shared with concurrent requests",
        out.computed, out.resumed, out.shared
    );
    maybe_verify(a, &runs, windows, degraded);
    exit_for(degraded)
}

fn run_parent(a: &CommonArgs) -> ExitCode {
    let w = workload_by_name(a.bench());
    let grid = cells(&a.engines, &a.widths);
    let scfg = a.opts.grid_sample;
    let windows = scfg.windows(a.opts.grid_total);
    assert!(windows >= 1, "grid-total {} yields no windows", a.opts.grid_total);
    eprintln!(
        "{}: sampled Fig. 8 grid — {} cells × {} windows over {} insts",
        w.name(),
        grid.len(),
        windows,
        a.opts.grid_total
    );

    let tmp = std::env::temp_dir().join(format!("sfetch-fig8s-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create temp dir");
    let (store_dir, store_is_temp) = resolve_store(a.store.as_deref(), tmp.join("store"));
    let store = or_die(CheckpointStore::open(&store_dir)).with_cap_bytes(a.opts.store_cap_bytes);

    let mut degraded = false;
    let runs = if a.procs > 1 {
        // Populate once, then fan the grid across fleet workers.
        populate_store(&w, scfg, windows, &store, &format!("store {}:", store_dir.display()));
        let procs = a.procs.min((grid.len() as u64 * windows) as usize).max(1);
        let (runs, d) = or_die(run_fleet_cells(a, a.bench(), &grid, &store_dir, procs));
        degraded = d;
        runs
    } else {
        let (runs, traffic) = run_sampled_grid(&w, &grid, scfg, a.opts.grid_total, &a.opts, &store);
        eprintln!(
            "store traffic: {} hits, {} computed, {} rejected",
            traffic.hits, traffic.misses, traffic.rejected
        );
        runs
    };

    print_grid_table(&runs);
    print_panels(a, &runs);

    if a.obs.enabled() {
        or_die(write_sampled_obs(&w, &grid, scfg, windows, &a.opts, &a.obs, &store));
    }

    maybe_verify(a, &runs, windows, degraded);

    finish_store(store_is_temp, &store_dir, &store, true);
    let _ = std::fs::remove_dir_all(&tmp);
    exit_for(degraded)
}

fn main() -> ExitCode {
    maybe_run_fleet_child();
    let a = CommonArgs::parse(&ArgDefaults {
        benches: "phased",
        engines: "all",
        widths: "all",
        procs: 1,
    });
    match a.serve.clone() {
        Some(sock) => run_serve(&a, &sock),
        None => run_parent(&a),
    }
}
