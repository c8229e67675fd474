//! Calibration record: how far the simulator sits from the paper's
//! Fig. 8 claims, written to `BENCH_11.json` in the current directory.
//!
//! The record holds two measurements and no host time, so it is
//! byte-identical for any `--jobs`:
//!
//! * **The five Fig. 8 ratios** ([`sfetch_bench::FIG8_CLAIMS`]) under
//!   each front model (`legacy`, `engine`): `figure8`'s grid at 8-wide
//!   on the suite (full detailed simulation, `--inst` after `--warmup`
//!   per point, harmonic mean, `--prefetch`), each ratio with the
//!   paper's value and its signed error, their Σ|err| in percentage
//!   points, and the 8-wide harmonic-mean IPC of every engine × layout.
//! * **The default sampled grid**: the 12 cells' IPC estimates and 95%
//!   confidence intervals of the `figure8_sampled` request on the phased
//!   workload (`--grid-total`, `--grid-sample`, `--front-pipeline`,
//!   `--grid-prefetch`).
//!
//! ```text
//! cargo run --release -p sfetch-bench --bin calibrate [-- --inst N --warmup N --jobs N \
//!     --grid-total N --grid-sample U,Wf,Wd,D[,Wm]]
//! ```

use sfetch_bench::driver::{or_die, run_in_process, GridRequest, RunStore};
use sfetch_bench::grid::{engine_key, grid_engines, print_grid_table, CellRun, FIG8_WIDTHS};
use sfetch_bench::{
    fig8_ratios, hmean_ipc, run_grid, FrontMode, HarnessOpts, RunPoint, FIG8_CLAIMS,
    FIG8_RATIO_WIDTH,
};
use sfetch_obs::jsonl::Row;
use sfetch_workloads::{phased, LayoutChoice, Suite};

/// Schema tag of the record.
const SCHEMA: &str = "sfetch-calibrate-v1";

/// The record's file name, in the current directory.
const OUT: &str = "BENCH_11.json";

const LAYOUTS: [LayoutChoice; 2] = [LayoutChoice::Base, LayoutChoice::Optimized];

/// A JSON array with one item per line at `indent`.
fn list(items: impl IntoIterator<Item = String>, indent: &str) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[\n{indent}  {}\n{indent}]", items.join(&format!(",\n{indent}  ")))
}

/// One front model's ratios, errors and 8-wide IPCs, printed and
/// rendered as its record.
fn front_record(front: FrontMode, points: &[RunPoint]) -> String {
    let r = fig8_ratios(points);
    println!(
        "{:<6} front: Σ|err| {:5.1} pp  (optimized vs EV8 {:+.1}%, FTB {:+.1}%, TC {:+.1}%; \
         base vs EV8 {:+.1}%, TC {:+.1}%)",
        front.as_str(),
        r.abs_err_sum_pp,
        r.measured_pct[0],
        r.measured_pct[1],
        r.measured_pct[2],
        r.measured_pct[3],
        r.measured_pct[4],
    );
    let ratios = FIG8_CLAIMS.iter().enumerate().map(|(i, c)| {
        Row::new()
            .s("layout", &c.layout.to_string())
            .s("vs", engine_key(c.rival))
            .f("paper_pct", c.paper_pct)
            .f("measured_pct", r.measured_pct[i])
            .f("err_pp", r.err_pp[i])
            .finish()
    });
    let ipc = grid_engines().map(|engine| {
        LAYOUTS
            .iter()
            .fold(Row::new().s("engine", engine_key(engine)), |row, &layout| {
                row.f(&layout.to_string(), hmean_ipc(points, engine, layout, FIG8_RATIO_WIDTH))
            })
            .finish()
    });
    Row::new()
        .s("front", front.as_str())
        .f("abs_err_sum_pp", r.abs_err_sum_pp)
        .raw("ratios", &list(ratios, "      "))
        .raw("hmean_ipc", &list(ipc, "      "))
        .finish()
}

/// The default sampled grid's estimates, through a temporary store.
fn sampled_grid(opts: &HarnessOpts, windows: u64) -> Vec<CellRun> {
    let req = GridRequest {
        bench: phased::LONG_NAME.to_owned(),
        engines: grid_engines().to_vec(),
        widths: FIG8_WIDTHS.to_vec(),
        total: opts.grid_total,
        scfg: opts.grid_sample,
        opts: *opts,
    };
    let w = phased::long_workload();
    eprintln!("{}: sampled grid — {} cells × {windows} windows", w.name(), req.grid().len());
    let store = or_die(RunStore::open(None, opts.store_cap_bytes));
    run_in_process(&w, &req, &store)
}

fn main() {
    let opts = HarnessOpts::from_args();
    let windows = opts.grid_sample.windows(opts.grid_total);
    eprintln!("generating suite…");
    let suite = Suite::build_all();
    let fronts: Vec<String> = [FrontMode::Legacy, FrontMode::PerEngine]
        .into_iter()
        .map(|front| {
            let fopts = HarnessOpts { front, ..opts };
            let points = run_grid(&suite, &[FIG8_RATIO_WIDTH], &LAYOUTS, &grid_engines(), fopts);
            front_record(front, &points)
        })
        .collect();

    let runs = sampled_grid(&opts, windows);
    print_grid_table(&runs);
    let grid_cells = runs.iter().map(|r| {
        Row::new()
            .s("engine", engine_key(r.cell.engine))
            .u("width", r.cell.width as u64)
            .f("ipc", r.estimate.ipc)
            .f("ci_lo", r.estimate.ipc_lo)
            .f("ci_hi", r.estimate.ipc_hi)
            .finish()
    });

    let figure8 = Row::new()
        .u("benches", suite.workloads().len() as u64)
        .u("width", FIG8_RATIO_WIDTH as u64)
        .u("insts_per_point", opts.insts)
        .u("warmup_per_point", opts.warmup)
        .s("mean", "harmonic")
        .s("prefetch", &opts.prefetch.kind.to_string())
        .finish();
    let grid = Row::new()
        .s("bench", phased::LONG_NAME)
        .u("total", opts.grid_total)
        .s("sample", &opts.grid_sample.to_spec())
        .s("front", opts.front.as_str())
        .s("grid_prefetch", opts.grid_prefetch.as_str())
        .u("windows", windows)
        .s("confidence", &opts.grid_sample.confidence.to_string())
        .raw("cells", &list(grid_cells, "    "))
        .finish();
    let json = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"figure8\": {figure8},\n  \"fronts\": {},\n  \
         \"grid\": {grid}\n}}\n",
        list(fronts, "  ")
    );
    or_die(std::fs::write(OUT, json).map_err(|e| format!("write {OUT}: {e}")));
    println!("wrote {OUT}");
}
