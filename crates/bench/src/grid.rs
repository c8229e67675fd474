//! The **single source of truth** for the paper's evaluation grid —
//! engines × pipe widths — plus the store-backed sampled-grid runner
//! and the shard-file format fleet workers return and the supervisor writes.
//!
//! Before this module, every figure binary re-declared its own engine
//! and width axes; a drifted axis would have silently compared
//! different grids. `figure8`/`figure9`, their `_sampled` siblings and
//! `calibrate` all pull the axes, the sampled-grid schedule, and the
//! engine-key spellings from here.

use std::fmt;
use std::ops::Range;

use sfetch_core::ProcessorConfig;
use sfetch_fetch::EngineKind;
use sfetch_obs::jsonl::{optional, JsonError, Obj, Row};
use sfetch_sample::{
    estimate, BatchCell, BatchSampler, CheckpointStore, Estimate, SampleConfig, SamplePoint,
    StoreStats,
};
use sfetch_workloads::{LayoutChoice, Workload};

use crate::HarnessOpts;

/// What can go wrong in the grid plumbing — CLI flags, shard files,
/// merging. Every path that used to
/// `expect`/`panic!` now reports one of these so the binaries can exit
/// nonzero with a readable message (and the fleet supervisor can charge
/// the failure to a cell and retry) instead of tearing the run down.
#[derive(Debug)]
pub enum GridError {
    /// A malformed command-line flag or axis spec (engine or width
    /// list).
    Cli(String),
    /// A shard file is truncated, corrupt, or malformed.
    ShardParse {
        /// 1-based line number (0 = whole-file, e.g. a checksum-trailer
        /// failure).
        line: usize,
        /// What was wrong.
        what: String,
    },
    /// A benchmark name that is neither a suite member nor `phased`.
    UnknownBench(String),
    /// Shard outputs do not merge into a consistent grid.
    Merge {
        /// The offending `engine/width` cell.
        cell: String,
        /// What was wrong.
        what: String,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::Cli(msg) => f.write_str(msg),
            GridError::ShardParse { line: 0, what } => write!(f, "shard file: {what}"),
            GridError::ShardParse { line, what } => write!(f, "shard file line {line}: {what}"),
            GridError::UnknownBench(name) => write!(
                f,
                "unknown benchmark {name:?} (want one of {})",
                crate::bench_names().join(", ")
            ),
            GridError::Merge { cell, what } => write!(f, "cell {cell}: {what}"),
        }
    }
}

impl std::error::Error for GridError {}

/// Pipe widths of the Fig. 8 grid (panels a, b, c).
pub const FIG8_WIDTHS: [usize; 3] = [2, 4, 8];

/// The single width of the Fig. 9 per-benchmark comparison.
pub const FIG9_WIDTH: usize = 8;

/// The engines of the paper's comparison, in presentation order.
pub fn grid_engines() -> [EngineKind; 4] {
    EngineKind::ALL
}

/// One cell of the engines × widths grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridCell {
    /// Fetch engine under test.
    pub engine: EngineKind,
    /// Pipe width.
    pub width: usize,
}

/// The full cell list for given axes, width-major (matching the Fig. 8
/// presentation: one panel per width, engines within).
pub fn cells(engines: &[EngineKind], widths: &[usize]) -> Vec<GridCell> {
    let mut out = Vec::with_capacity(engines.len() * widths.len());
    for &width in widths {
        for &engine in engines {
            out.push(GridCell { engine, width });
        }
    }
    out
}

/// The sampled calibration-grid schedule: sparse SimPoint-style units
/// (one measured window per 12.5M instructions) under the validated
/// ~1M-instruction warming horizon.
///
/// The sparsity is deliberate: per window, the fast-forward span
/// (~11.6M instructions) is the cost the checkpoint store amortizes.
/// At record-walk speed (`Executor::next`, 7–9 ns/inst on `phased`) it
/// outweighed the warm + detailed span (~910k at warming speed), and a
/// warm-store rerun of a grid cell, skipping the fast-forward, ran ≥3×
/// faster (3.89×, recorded with that walk in `BENCH_5.json`'s
/// `calibration_grid.store_ab`). The store now fast-forwards with the
/// block-granular `Executor::advance` (1.0–1.4 ns/inst, ~12–16 ms per
/// window), so a cold cell pays mostly its warming span and the store
/// saves correspondingly less. The denser SMARTS
/// schedule ([`SampleConfig::default`]) remains the accuracy reference
/// (BENCH_4 `sampling_ab`: 0.64% error at 18 windows); this one trades
/// window count for per-experiment cost, and every grid point records
/// its own 95% CI so the trade stays visible.
pub fn calibration_schedule() -> SampleConfig {
    SampleConfig {
        interval: 12_500_000,
        warm_func: 900_000,
        warm_mem: 900_000,
        warm_detail: 5_000,
        measure: 5_000,
        ..SampleConfig::default()
    }
}

/// Short CLI/JSON key of an engine (`stream`, `ev8`, `ftb`, `tcache`).
pub fn engine_key(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::Stream => "stream",
        EngineKind::Ev8 => "ev8",
        EngineKind::Ftb => "ftb",
        EngineKind::TraceCache => "tcache",
    }
}

/// Parses a comma-separated engine list (or `all`).
///
/// # Errors
///
/// [`GridError::Cli`] on an unknown engine key.
pub fn parse_engines(spec: &str) -> Result<Vec<EngineKind>, GridError> {
    if spec == "all" {
        return Ok(grid_engines().to_vec());
    }
    spec.split(',')
        .map(|k| match k.trim() {
            "stream" => Ok(EngineKind::Stream),
            "ev8" => Ok(EngineKind::Ev8),
            "ftb" => Ok(EngineKind::Ftb),
            "tcache" => Ok(EngineKind::TraceCache),
            other => Err(GridError::Cli(format!(
                "unknown engine {other:?} (stream|ev8|ftb|tcache|all)"
            ))),
        })
        .collect()
}

/// Parses a comma-separated width list (or `all` = the Fig. 8 widths).
///
/// # Errors
///
/// [`GridError::Cli`] on a malformed or zero width.
pub fn parse_widths(spec: &str) -> Result<Vec<usize>, GridError> {
    if spec == "all" {
        return Ok(FIG8_WIDTHS.to_vec());
    }
    spec.split(',')
        .map(|w| {
            w.trim()
                .parse::<usize>()
                .ok()
                .filter(|&w| w >= 1)
                .ok_or_else(|| GridError::Cli(format!("bad width {w:?}")))
        })
        .collect()
}

/// The processor configuration of a grid cell under the harness options:
/// Table 2 at the cell's width, honoring `--front-pipeline` (the cell
/// engine's front model under [`crate::FrontMode::PerEngine`]) and the
/// cell's prefetch policy —
/// `--prefetch` under [`crate::GridPrefetchMode::Shared`], the engine's
/// [`sfetch_fetch::EngineKind::natural_prefetch`] under
/// [`crate::GridPrefetchMode::Natural`].
///
/// The checkpoint store is content-addressed on the trace alone, so
/// every (front, prefetch) variant of a cell reuses the same stored
/// windows — sweeping these axes inside the grid is warm-store cheap.
pub fn cell_config(cell: GridCell, opts: &HarnessOpts) -> ProcessorConfig {
    let mut pcfg = ProcessorConfig::table2(cell.width);
    pcfg.prefetch = match opts.grid_prefetch {
        crate::GridPrefetchMode::Shared => opts.prefetch,
        crate::GridPrefetchMode::Natural => {
            sfetch_core::PrefetchConfig::enabled(cell.engine.natural_prefetch())
        }
    };
    pcfg.front = opts.front.front_for(cell.engine);
    pcfg
}

/// One finished grid cell of a sampled run.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The cell.
    pub cell: GridCell,
    /// Per-window measurements, in window order.
    pub points: Vec<SamplePoint>,
    /// Student-t aggregate over the windows.
    pub estimate: Estimate,
}

/// Runs one cell's window range through the checkpoint store with the
/// given sampling schedule: a one-cell [`run_cells_batched`] group.
pub fn run_cell_range(
    w: &Workload,
    cell: GridCell,
    scfg: SampleConfig,
    opts: &HarnessOpts,
    store: &CheckpointStore,
    range: Range<u64>,
) -> (Vec<SamplePoint>, StoreStats) {
    let (mut per_cell, stats) = run_cells_batched(w, &[cell], 1, scfg, opts, store, range);
    (per_cell.pop().expect("one window list per cell"), stats)
}

/// Runs a cell list's shared window range through batched sweeps: the
/// cells are chunked into groups of up to `batch` and each group rides
/// one [`BatchSampler`] — one recorded functional walk per window per
/// group instead of one per window per cell. Returns per-cell window
/// lists in cell order plus the total checkpoint-store traffic.
/// Bit-identical per cell for any `batch`, and to the storeless
/// [`sfetch_sample::Sampler`] the tests and `--verify` hold it to.
pub fn run_cells_batched(
    w: &Workload,
    cells: &[GridCell],
    batch: usize,
    scfg: SampleConfig,
    opts: &HarnessOpts,
    store: &CheckpointStore,
    range: Range<u64>,
) -> (Vec<Vec<SamplePoint>>, StoreStats) {
    let img = w.image(LayoutChoice::Optimized);
    let fp = w.fingerprint(LayoutChoice::Optimized);
    let mut out = Vec::with_capacity(cells.len());
    let mut total = StoreStats::default();
    for group in cells.chunks(batch.max(1)) {
        let bcells: Vec<BatchCell> = group
            .iter()
            .map(|&c| BatchCell { kind: c.engine, pcfg: cell_config(c, opts) })
            .collect();
        let mut s =
            BatchSampler::new(img, fp, w.ref_seed(), scfg, store).with_warm_bank(opts.warm_bank);
        out.extend(s.run_range_points(&bcells, range.clone(), opts.jobs));
        let st = s.stats();
        total.hits += st.hits;
        total.misses += st.misses;
        total.rejected += st.rejected;
    }
    (out, total)
}

/// Runs the whole grid for one workload through the store, returning
/// per-cell estimates plus the total store traffic. The cells ride
/// batched sweeps ([`run_cells_batched`]) in groups of at most
/// `--batch`; by default the whole grid shares one sweep per window.
pub fn run_sampled_grid(
    w: &Workload,
    cells: &[GridCell],
    scfg: SampleConfig,
    total_insts: u64,
    opts: &HarnessOpts,
    store: &CheckpointStore,
) -> (Vec<CellRun>, StoreStats) {
    let windows = scfg.windows(total_insts);
    let (per_cell, total) = run_cells_batched(w, cells, opts.batch, scfg, opts, store, 0..windows);
    let runs = cells
        .iter()
        .zip(per_cell)
        .map(|(&cell, points)| {
            let estimate = estimate(&points, scfg.confidence);
            CellRun { cell, points, estimate }
        })
        .collect();
    (runs, total)
}

/// Shard-file schema tag of the grid shard format (engine × width ×
/// window lines). v3 = v2 sealed with the fleet's end-of-file checksum
/// trailer, written atomically (temp + rename): a worker that dies
/// mid-write can no longer leave a plausible-looking prefix that merges
/// short.
pub const GRID_SHARD_SCHEMA: &str = "sfetch-grid-shard-v3";

/// Appends a point's eight fields (engine key, width, the six counters)
/// to `row` — the one point encoding of shard lines and serve events.
pub fn point_fields(row: Row, engine: &str, width: usize, p: &SamplePoint) -> Row {
    row.s("engine", engine)
        .u("width", width as u64)
        .u("window", p.window)
        .u("start_inst", p.start_inst)
        .u("committed", p.committed)
        .u("cycles", p.cycles)
        .u("stall_cycles", p.stall_cycles)
        .u("mispredictions", p.mispredictions)
}

/// Reads [`point_fields`] back as `(engine key, width, point)`, or the
/// [`JsonError`] of a missing or mistyped field (widths are checked).
pub fn read_point(obj: &Obj<'_>) -> Result<(String, usize, SamplePoint), JsonError> {
    let p = SamplePoint {
        window: obj.u("window")?,
        start_inst: obj.u("start_inst")?,
        committed: obj.u("committed")?,
        cycles: obj.u("cycles")?,
        stall_cycles: obj.u("stall_cycles")?,
        mispredictions: obj.u("mispredictions")?,
    };
    Ok((obj.s("engine")?.to_owned(), obj.u("width")?, p))
}

/// Renders one grid sample point as a shard-file JSON line.
pub fn point_line(cell: GridCell, p: &SamplePoint) -> String {
    point_fields(Row::new(), engine_key(cell.engine), cell.width, p).finish()
}

/// Parses a sealed grid shard file — checksum trailer first, then the
/// point lines — into `(engine key, width, point)` tuples.
///
/// # Errors
///
/// [`GridError::ShardParse`] on a missing/failing trailer (truncation,
/// corruption), a schema mismatch, or a malformed point line.
pub fn parse_shard_file(text: &str) -> Result<Vec<(String, usize, SamplePoint)>, GridError> {
    let body = sfetch_fleet::unseal(text)
        .map_err(|e| GridError::ShardParse { line: 0, what: e.to_string() })?;
    parse_shard_body(body)
}

/// Parses the point lines of an already-unsealed shard body.
///
/// # Errors
///
/// [`GridError::ShardParse`] on a schema mismatch or malformed line.
pub fn parse_shard_body(body: &str) -> Result<Vec<(String, usize, SamplePoint)>, GridError> {
    let mut out = Vec::new();
    for (i, l) in body.lines().enumerate() {
        if l.trim().is_empty() {
            continue;
        }
        let bad = |what: String| GridError::ShardParse { line: i + 1, what };
        let obj = Obj::parse(l).map_err(|e| bad(e.to_string()))?;
        match optional(obj.s("schema")).map_err(|e| bad(e.to_string()))? {
            Some(GRID_SHARD_SCHEMA) => {}
            Some(schema) => {
                return Err(bad(format!(
                    "schema {schema:?}, this build reads {GRID_SHARD_SCHEMA:?} \
                     (delete stale shard files)"
                )))
            }
            None => out.push(read_point(&obj).map_err(|e| bad(e.to_string()))?),
        }
    }
    Ok(out)
}

/// Verifies merged shard output against a **storeless** in-process
/// rerun of every cell: the live [`sfetch_sample::Sampler`] walks the
/// trace itself, so this oracle is independent of the checkpoint
/// save/load/resume path the shards used — a defect anywhere in the
/// store machinery shows up here as a divergence instead of being
/// replayed on both sides. Panics (with the offending cell) on any
/// divergence; used by the `--verify` legs.
pub fn verify_merged(
    w: &Workload,
    merged: &[CellRun],
    scfg: SampleConfig,
    opts: &HarnessOpts,
    windows: u64,
) {
    let img = w.image(LayoutChoice::Optimized);
    for run in merged {
        let mut oracle =
            sfetch_sample::Sampler::new(img, run.cell.engine, cell_config(run.cell, opts), scfg, w.ref_seed());
        let single = oracle.run_parallel(windows, opts.jobs);
        assert_eq!(
            &single, &run.points,
            "{}/{}: merged shard windows differ from the storeless single-process run",
            engine_key(run.cell.engine),
            run.cell.width
        );
    }
}

/// Merges shard-file tuples back into per-cell window lists, verifying
/// every cell has exactly windows `0..windows`: [`merge_grid_partial`]
/// with any incomplete cell an error.
///
/// # Errors
///
/// [`GridError::Merge`] on missing/duplicate windows — a shard bug, not
/// an input error, but one the caller reports and exits on instead of
/// panicking.
pub fn merge_grid(
    cells: &[GridCell],
    windows: u64,
    all: &[(String, usize, SamplePoint)],
    confidence: sfetch_sample::Confidence,
) -> Result<Vec<CellRun>, GridError> {
    let merged = merge_grid_partial(cells, windows, all, confidence)?;
    match merged.incomplete.first() {
        None => Ok(merged.runs),
        Some((cell, have, want)) => Err(GridError::Merge {
            cell: format!("{}/{}", engine_key(cell.engine), cell.width),
            what: format!("merged {have} windows, expected {want}"),
        }),
    }
}

/// A degraded merge: what [`merge_grid_partial`] salvaged when some
/// cells never completed.
#[derive(Debug)]
pub struct PartialMerge {
    /// Cells with at least one window, estimated over the windows that
    /// exist (fewer windows → wider Student-t interval, so the
    /// degradation is visible in the CI, not hidden).
    pub runs: Vec<CellRun>,
    /// Cells short of the full window count, with `(have, want)`.
    pub incomplete: Vec<(GridCell, u64, u64)>,
}

/// Merges whatever shard output exists, tolerating **missing** windows
/// (a fleet cell that exhausted its retry budget) but still rejecting
/// **duplicates** (two workers' outputs for the same window would mean
/// the lease exclusion failed — that is corruption, not degradation).
///
/// # Errors
///
/// [`GridError::Merge`] on duplicate windows or windows outside
/// `0..windows`.
pub fn merge_grid_partial(
    cells: &[GridCell],
    windows: u64,
    all: &[(String, usize, SamplePoint)],
    confidence: sfetch_sample::Confidence,
) -> Result<PartialMerge, GridError> {
    let mut runs = Vec::new();
    let mut incomplete = Vec::new();
    for &cell in cells {
        let name = format!("{}/{}", engine_key(cell.engine), cell.width);
        let mut pts: Vec<SamplePoint> = all
            .iter()
            .filter(|(k, w, _)| k == engine_key(cell.engine) && *w == cell.width)
            .map(|(_, _, p)| *p)
            .collect();
        pts.sort_by_key(|p| p.window);
        for pair in pts.windows(2) {
            if pair[0].window == pair[1].window {
                return Err(GridError::Merge {
                    cell: name,
                    what: format!("duplicate window {}", pair[0].window),
                });
            }
        }
        if let Some(p) = pts.last() {
            if p.window >= windows {
                return Err(GridError::Merge {
                    cell: name,
                    what: format!("window {} out of range 0..{windows}", p.window),
                });
            }
        }
        let have = pts.len() as u64;
        if have < windows {
            incomplete.push((cell, have, windows));
        }
        if have > 0 {
            let estimate = estimate(&pts, confidence);
            runs.push(CellRun { cell, points: pts, estimate });
        }
    }
    Ok(PartialMerge { runs, incomplete })
}

/// Prints the per-cell estimate table the sampled grid binaries share.
pub fn print_grid_table(runs: &[CellRun]) {
    println!(
        "\n{:<18} {:>6} {:>8} {:>9} {:>9} {:>9} {:>8}",
        "engine", "width", "windows", "IPC", "ci lo", "ci hi", "±rel"
    );
    for r in runs {
        println!(
            "{:<18} {:>6} {:>8} {:>9.4} {:>9.4} {:>9.4} {:>7.2}%",
            r.cell.engine.to_string(),
            r.cell.width,
            r.estimate.windows,
            r.estimate.ipc,
            r.estimate.ipc_lo,
            r.estimate.ipc_hi,
            100.0 * r.estimate.rel_half_width
        );
    }
}

/// Figure 9's sampled table, filed one benchmark at a time. Each engine
/// column looks its run up by engine, so a degraded benchmark whose
/// cell has no windows prints `n/a` where that column's IPC would be
/// rather than shifting the others left.
#[derive(Debug, Clone)]
pub struct Fig9Table {
    engines: Vec<EngineKind>,
    /// Per benchmark, each engine column's IPC (`None`: no run).
    ipcs: Vec<Vec<Option<f64>>>,
}

impl Fig9Table {
    /// An empty table over these engine columns.
    pub fn new(engines: &[EngineKind]) -> Self {
        Fig9Table { engines: engines.to_vec(), ipcs: Vec::new() }
    }

    /// Files one benchmark's runs and returns its table line.
    pub fn row(&mut self, bench: &str, runs: &[CellRun]) -> String {
        let cols: Vec<Option<&Estimate>> = self
            .engines
            .iter()
            .map(|&k| runs.iter().find(|r| r.cell.engine == k).map(|r| &r.estimate))
            .collect();
        self.ipcs.push(cols.iter().map(|e| e.map(|e| e.ipc)).collect());
        let line: String = cols
            .iter()
            .map(|e| match e {
                Some(e) => format!("{:>13.2} ±{:>5.2}%", e.ipc, 100.0 * e.rel_half_width),
                None => format!("{:>13}        ", "n/a"),
            })
            .collect();
        format!("{bench:<10} {line}")
    }

    /// The Hmean line: each engine's harmonic mean over the benchmarks
    /// it has a run for.
    pub fn hmean_line(&self) -> String {
        let cols: String = (0..self.engines.len())
            .map(|col| {
                let v: Vec<f64> = self.ipcs.iter().filter_map(|row| row[col]).collect();
                if v.is_empty() {
                    format!("{:>13}        ", "n/a")
                } else {
                    format!("{:>13.2}        ", sfetch_core::metrics::harmonic_mean(&v))
                }
            })
            .collect();
        format!("{:<10} {cols}", "Hmean")
    }

    /// How many benchmarks rank the stream engine 1st, 2nd, … by IPC,
    /// over the benchmarks every engine has a run for; `None` when the
    /// stream engine is not a column.
    pub fn stream_ranks(&self) -> Option<Vec<usize>> {
        let stream_col = self.engines.iter().position(|&k| k == EngineKind::Stream)?;
        let mut counts = vec![0usize; self.engines.len()];
        for row in &self.ipcs {
            let Some(ipcs) = row.iter().copied().collect::<Option<Vec<f64>>>() else {
                continue;
            };
            let mut ranked: Vec<(f64, usize)> = ipcs.into_iter().zip(0..).collect();
            ranked.sort_by(|x, y| y.0.partial_cmp(&x.0).expect("finite IPC"));
            counts[ranked.iter().position(|&(_, i)| i == stream_col).expect("ranked")] += 1;
        }
        Some(counts)
    }
}

/// The head of a rank histogram over `places` ranks: `1st/2nd/…`, one
/// English ordinal per place (`1st/2nd/3rd/4th` for four engines).
pub fn rank_label(places: usize) -> String {
    let ordinal = |n: usize| {
        let suffix = match (n % 10, n % 100) {
            (_, 11..=13) => "th",
            (1, _) => "st",
            (2, _) => "nd",
            (3, _) => "rd",
            _ => "th",
        };
        format!("{n}{suffix}")
    };
    (1..=places).map(ordinal).collect::<Vec<_>>().join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_label_spells_each_place() {
        assert_eq!(rank_label(2), "1st/2nd");
        assert_eq!(rank_label(4), "1st/2nd/3rd/4th");
        assert_eq!(rank_label(1), "1st");
        let many = rank_label(23);
        assert!(many.contains("/11th/12th/13th/") && many.ends_with("/21st/22nd/23rd"), "{many}");
    }

    #[test]
    fn cells_are_width_major_and_complete() {
        let cs = cells(&grid_engines(), &FIG8_WIDTHS);
        assert_eq!(cs.len(), 12);
        assert_eq!(cs[0], GridCell { engine: EngineKind::Ev8, width: 2 });
        assert_eq!(cs[4], GridCell { engine: EngineKind::Ev8, width: 4 });
        let mut uniq = cs.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), 12, "no duplicate cells");
    }

    #[test]
    fn calibration_schedule_is_valid_and_sparse() {
        let s = calibration_schedule();
        s.validate();
        assert_eq!(s.windows(50_000_000), 4);
        assert!(
            s.fast_forward() > 2 * (s.warm_func + s.warm_detail + s.measure),
            "fast-forward must dominate the per-window work the store cannot amortize"
        );
    }

    #[test]
    fn engine_keys_roundtrip() {
        for kind in grid_engines() {
            assert_eq!(parse_engines(engine_key(kind)).expect("known key"), vec![kind]);
        }
        assert_eq!(parse_engines("all").expect("all").len(), 4);
        assert_eq!(parse_widths("all").expect("all"), FIG8_WIDTHS.to_vec());
        assert_eq!(parse_widths("2, 8").expect("list"), vec![2, 8]);
        assert!(parse_engines("warp-drive").is_err(), "unknown engine is a CLI error");
        assert!(parse_widths("0").is_err(), "zero width is a CLI error");
    }

    fn point(window: u64) -> SamplePoint {
        SamplePoint {
            window,
            start_inst: 123 + window,
            committed: 5000,
            cycles: 2100 + window,
            stall_cycles: 17,
            mispredictions: 9,
        }
    }

    #[test]
    fn point_lines_parse_back_through_the_seal() {
        let cell = GridCell { engine: EngineKind::Stream, width: 8 };
        let p = point(3);
        let body = format!("{}\n", point_line(cell, &p));
        let parsed = parse_shard_body(&body).expect("body parses");
        assert_eq!(parsed, vec![("stream".to_owned(), 8, p)]);
        // The sealed full-file path verifies the trailer first.
        let sealed = sfetch_fleet::seal(&body);
        assert_eq!(parse_shard_file(&sealed).expect("sealed parses").len(), 1);
        // Truncation (the fault the trailer exists for) is rejected.
        let truncated = &sealed[..sealed.len() - 10];
        assert!(matches!(
            parse_shard_file(truncated),
            Err(GridError::ShardParse { line: 0, .. })
        ));
        // A malformed point line is rejected with its line number.
        let bad = sfetch_fleet::seal("{\"engine\": \"stream\", \"window\": oops}\n");
        assert!(matches!(
            parse_shard_file(&bad),
            Err(GridError::ShardParse { line: 1, .. })
        ));
    }

    #[test]
    fn atomic_write_roundtrips_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("sfetch-grid-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk tmp");
        let path = dir.join("shard-0.json");
        let cell = GridCell { engine: EngineKind::Ev8, width: 4 };
        let body = format!("{}\n{}\n", point_line(cell, &point(0)), point_line(cell, &point(1)));
        sfetch_fleet::write_atomic(&path, &sfetch_fleet::seal(&body)).expect("atomic write");
        let files = std::fs::read_dir(&dir).expect("list dir").count();
        assert_eq!(files, 1, "temp renamed away");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(parse_shard_file(&text).expect("sealed file parses").len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_grid_reports_instead_of_panicking() {
        let cell = GridCell { engine: EngineKind::Stream, width: 8 };
        let conf = sfetch_sample::Confidence::default();
        let tuples =
            vec![("stream".to_owned(), 8, point(0)), ("stream".to_owned(), 8, point(1))];
        let runs = merge_grid(&[cell], 2, &tuples, conf).expect("complete grid merges");
        assert_eq!(runs[0].points.len(), 2);
        // Short a window: strict merge errors, partial merge degrades.
        let short = &tuples[..1];
        assert!(matches!(merge_grid(&[cell], 2, short, conf), Err(GridError::Merge { .. })));
        let partial = merge_grid_partial(&[cell], 2, short, conf).expect("partial merge");
        assert_eq!(partial.runs.len(), 1);
        assert_eq!(partial.incomplete, vec![(cell, 1, 2)]);
        // Duplicate windows are corruption, not degradation.
        let dup = vec![tuples[0].clone(), tuples[0].clone()];
        assert!(matches!(
            merge_grid_partial(&[cell], 2, &dup, conf),
            Err(GridError::Merge { .. })
        ));
    }

    #[test]
    fn fig9_table_files_each_ipc_under_its_own_engine() {
        let conf = sfetch_sample::Confidence::default();
        // IPC = 5000 / cycles: 2000 cycles give 2.50, 4000 give 1.25.
        let run = |engine, cycles| {
            let pts = vec![SamplePoint { cycles, ..point(0) }, SamplePoint { cycles, ..point(1) }];
            let estimate = estimate(&pts, conf);
            CellRun { cell: GridCell { engine, width: FIG9_WIDTH }, points: pts, estimate }
        };
        let engines = [EngineKind::Ev8, EngineKind::Stream, EngineKind::Ftb];
        let mut t = Fig9Table::new(&engines);
        // A degraded bench: the middle engine's cell has no windows, so
        // the merge leaves it out of `runs`.
        let degraded = t.row("gzip", &[run(EngineKind::Ev8, 2000), run(EngineKind::Ftb, 4000)]);
        // A 21-char column: an estimate, or a placeholder (or Hmean)
        // right-aligned where the estimate's IPC ends.
        let est = |v| format!("{v:>21}");
        let col = |v| format!("{v:>13}        ");
        let line = |bench, a: String, b: String, c: String| format!("{bench:<10} {a}{b}{c}");
        assert_eq!(degraded, line("gzip", est("2.50 ± 0.00%"), col("n/a"), est("1.25 ± 0.00%")));
        let all = [
            run(EngineKind::Ev8, 4000),
            run(EngineKind::Stream, 2000),
            run(EngineKind::Ftb, 4000),
        ];
        let full = t.row("gcc", &all);
        assert_eq!(full, line("gcc", est("1.25 ± 0.00%"), est("2.50 ± 0.00%"), est("1.25 ± 0.00%")));
        // Each Hmean over the benches that engine has: ev8 = H(2.5, 1.25).
        assert_eq!(t.hmean_line(), line("Hmean", col("1.67"), col("2.50"), col("1.25")));
        // Only gcc has every engine; stream is first there.
        assert_eq!(t.stream_ranks(), Some(vec![1, 0, 0]));
        assert_eq!(Fig9Table::new(&[EngineKind::Ev8]).stream_ranks(), None);
        assert_eq!(Fig9Table::new(&engines).hmean_line().matches("n/a").count(), 3);
    }
}
