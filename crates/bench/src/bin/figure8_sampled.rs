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
//! With `--procs N` the grid runs under the **fleet supervisor**
//! (`sfetch_fleet`) on up to N worker threads — the family run the
//! resident daemon uses: cells are leased to worker threads, their
//! outcomes recorded in a ledger next to the store, failed, panicked or
//! hung workers are retried at once, and a killed run resumes mid-grid
//! on re-invocation.
//! `--chaos SEED` injects deterministic worker faults to prove the
//! merged output stays byte-identical. `--verify` reruns every cell
//! through a **storeless** live sampler and asserts the merged result
//! is bit-identical, so the store machinery itself is under test. With
//! `--store DIR` checkpoints persist across invocations. Exit status:
//! 0 complete, 2 degraded, 1 error.
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
//! The observability flags need the local store, so `--serve` refuses
//! them.
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
use std::process::ExitCode;
use std::sync::Arc;

use sfetch_bench::driver::{
    announce_kept_store, or_die, run_request, ArgDefaults, CommonArgs, RequestRun,
};
use sfetch_bench::grid::{print_grid_table, verify_merged, CellRun};
use sfetch_bench::try_workload_by_name;

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

fn main() -> ExitCode {
    let a = CommonArgs::parse(&ArgDefaults {
        benches: "phased",
        engines: "all",
        widths: "all",
        procs: 1,
    });
    let req = a.request(a.bench());
    let RequestRun { runs, degraded, workload } = or_die(run_request(&a, &req, &a.obs));
    print_grid_table(&runs);
    print_panels(&a, &runs);

    // The oracle is storeless, so it validates the local store path and
    // the daemon stream path alike.
    if a.verify && !degraded {
        eprintln!("\nverifying merged grid against a storeless in-process rerun…");
        let w = workload.unwrap_or_else(|| Arc::new(or_die(try_workload_by_name(&req.bench))));
        verify_merged(&w, &runs, req.scfg, &req.opts, req.windows());
        println!("verify OK: store-backed grid is bit-identical to a storeless single-process run");
    } else if a.verify {
        eprintln!("verify skipped: degraded result has incomplete cells");
    }

    announce_kept_store(&a);
    let _ = std::io::stdout().flush();
    if degraded {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
