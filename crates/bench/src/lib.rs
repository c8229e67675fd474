//! # sfetch-bench
//!
//! The experiment harness that regenerates every table and figure of
//! *"Fetching instruction streams"* (see DESIGN.md §3 for the experiment
//! index). Each binary under `src/bin/` reproduces one artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `figure8` | Fig. 8 (a,b,c): IPC × {2,4,8}-wide × {base, optimized} |
//! | `figure9` | Fig. 9: per-benchmark IPC, 8-wide optimized |
//! | `table1`  | Table 1: fetch-unit size & storage cost per engine |
//! | `table2`  | Table 2: the configuration actually simulated |
//! | `table3`  | Table 3: misprediction rate & fetch IPC, 8-wide |
//! | `ablation_linesize` | Fig. 7 motivation: line width sweep |
//! | `ablation_predictor` | cascaded vs single-level stream predictor |
//! | `ablation_ftq` | FTQ depth sweep |
//! | `ablation_sts` | selective trace storage on/off |
//! | `figure8_sampled` | Fig. 8 grid at paper-scale horizons via the sampler + checkpoint store; `--procs N` runs it as a fleet family on worker threads, merged bit-identically |
//! | `figure9_sampled` | Fig. 9 per-benchmark comparison, sampled through the store |
//! | `calibrate` | the paper's five Fig. 8 ratios under both front models + the default sampled grid → `BENCH_11.json` |
//! | `all` | everything above, in sequence |
//!
//! Run with `--inst N` / `--warmup N` to change the measured window
//! (defaults: 1M measured after 200k warmup per point) and `--jobs N` to
//! bound worker threads (default: all cores). `--long` appends the
//! long-horizon phased workload to the ablation set; `--grid-total` /
//! `--grid-sample` configure the sampled grid (see
//! [`sfetch_sample::SampleConfig`]). Every grid point owns its
//! `Processor` and derives only from its workload + configuration, so
//! parallel runs are bit-identical to serial ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sfetch_core::{
    metrics::harmonic_mean, simulate, FrontPipeline, PrefetchConfig, PrefetchKind, Processor,
    ProcessorConfig, SimStats,
};
use sfetch_fetch::{EngineKind, FetchEngine};
use sfetch_mem::MemoryConfig;
use sfetch_sample::SampleConfig;
use sfetch_workloads::{par_map, phased, LayoutChoice, Suite, Workload};

pub mod driver;
pub mod fleet_grid;
pub mod grid;
pub mod obs;

pub use sfetch_obs::{GridProgress, Reporter};

/// Which front-pipeline model the grids simulate
/// (`--front-pipeline legacy|engine`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontMode {
    /// [`FrontPipeline::legacy`] for every engine — the pre-calibration
    /// shared front end; bit-identical to the historical harness.
    Legacy,
    /// [`FrontPipeline::for_engine`]: each engine pays its own decode
    /// depth, redirect penalty and decode-redirect bubble, and the
    /// shadow-decode engines get their BTB/FTB shadow scan. The default:
    /// this is the Fig. 8 calibration the grid exists to measure.
    #[default]
    PerEngine,
}

impl FrontMode {
    /// Parses a `--front-pipeline` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "legacy" => Some(FrontMode::Legacy),
            "engine" => Some(FrontMode::PerEngine),
            _ => None,
        }
    }

    /// The CLI spelling (`legacy` / `engine`), round-tripping
    /// [`FrontMode::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            FrontMode::Legacy => "legacy",
            FrontMode::PerEngine => "engine",
        }
    }

    /// The front pipeline this mode assigns to `engine`.
    pub fn front_for(self, engine: EngineKind) -> FrontPipeline {
        match self {
            FrontMode::Legacy => FrontPipeline::legacy(),
            FrontMode::PerEngine => FrontPipeline::for_engine(engine),
        }
    }
}

/// Which instruction-prefetch policy the **sampled calibration grid**
/// assigns per cell (`--grid-prefetch shared|natural`). Distinct from
/// the global [`HarnessOpts::prefetch`] so the A/B sweeps that compare
/// one explicit policy across engines keep working unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GridPrefetchMode {
    /// Every cell runs [`HarnessOpts::prefetch`] (the historical
    /// behavior; the default opts make that the blocking L1i).
    Shared,
    /// Each cell runs its engine's [`EngineKind::natural_prefetch`]
    /// policy — the front ends compete at their best, as the paper's
    /// configuration table intends. The default for the grid.
    #[default]
    Natural,
}

impl GridPrefetchMode {
    /// Parses a `--grid-prefetch` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "shared" => Some(GridPrefetchMode::Shared),
            "natural" => Some(GridPrefetchMode::Natural),
            _ => None,
        }
    }

    /// The CLI spelling (`shared` / `natural`), round-tripping
    /// [`GridPrefetchMode::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            GridPrefetchMode::Shared => "shared",
            GridPrefetchMode::Natural => "natural",
        }
    }
}

/// Command-line options shared by all harness binaries.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOpts {
    /// Measured committed instructions per point.
    pub insts: u64,
    /// Warmup committed instructions per point (excluded from stats).
    pub warmup: u64,
    /// Maximum simulation worker threads.
    pub jobs: usize,
    /// Instruction-prefetch configuration applied to every grid point
    /// (default: disabled — the legacy blocking L1i). Honored by the
    /// `run_point`-based grids and `ablation_prefetch`; the
    /// custom-engine ablation sweeps (`run_custom`) ignore it, since
    /// their hand-built engines carry no prefetcher.
    pub prefetch: PrefetchConfig,
    /// Include the long-horizon phased workload (`--long`). Off by
    /// default so tier-1 runtimes stay bounded; `ablation_workloads`
    /// appends it when set.
    pub long: bool,
    /// Committed instructions of the sampled calibration grid
    /// (`--grid-total N`; the `*_sampled` bins and `calibrate`).
    pub grid_total: u64,
    /// The calibration grid's sampling schedule (`--grid-sample
    /// U,Wf,Wd,D[,Wm]`; default [`grid::calibration_schedule`]).
    pub grid_sample: SampleConfig,
    /// Front-pipeline model selection (`--front-pipeline
    /// legacy|engine`). Applied by [`run_point`] and by the sampled
    /// grid's [`grid::cell_config`]; `run_custom` ignores it (hand-built
    /// ablation engines model their own organization).
    pub front: FrontMode,
    /// Per-cell prefetch policy of the sampled calibration grid
    /// (`--grid-prefetch shared|natural`). Only [`grid::cell_config`]
    /// reads it; the flat `run_point` grids keep honoring
    /// [`HarnessOpts::prefetch`].
    pub grid_prefetch: GridPrefetchMode,
    /// Bank per-(engine, config) warm simulator state in the checkpoint
    /// store (`--warm-bank`), so resident reruns of the same cell skip
    /// the functional-warming walk. Results are bit-identical with the
    /// bank on or off; only host time changes. Off by default.
    pub warm_bank: bool,
    /// Cap on the grid cells driven per shared functional sweep
    /// (`--batch N`). Every sampled grid runs through
    /// [`sfetch_sample::BatchSampler`]: cells that sample the same
    /// window range ride one recorded executor walk per window, in
    /// groups of at most `N` (`--batch 1` = one cell per sweep). Results
    /// are bit-identical for any value — batching, like `--warm-bank`
    /// and `--jobs`, is a host-time knob. A cap trades sweep sharing for
    /// a smaller resident working set per group (one warmed engine and
    /// memory hierarchy per cell in flight). Default `usize::MAX`: no
    /// cap, one sweep per window for the whole grid.
    pub batch: usize,
    /// Byte cap on the checkpoint store (`--store-cap-bytes N`): saves
    /// evict least-recently-accessed unleased entries past the cap,
    /// which later runs recompute transparently. `None` (default) never
    /// sheds.
    pub store_cap_bytes: Option<u64>,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            insts: 1_000_000,
            warmup: 200_000,
            jobs: sfetch_workloads::default_jobs(),
            prefetch: PrefetchConfig::none(),
            long: false,
            grid_total: 50_000_000,
            grid_sample: grid::calibration_schedule(),
            front: FrontMode::default(),
            grid_prefetch: GridPrefetchMode::default(),
            warm_bank: false,
            batch: usize::MAX,
            store_cap_bytes: None,
        }
    }
}

impl HarnessOpts {
    /// Parses `--inst N`, `--warmup N`, `--jobs N`,
    /// `--prefetch KIND` (`none|next-line|stream|mana`), `--mshrs N`,
    /// `--long`, `--grid-total N`, `--grid-sample U,Wf,Wd,D[,Wm]`,
    /// `--front-pipeline legacy|engine`, `--grid-prefetch
    /// shared|natural`, `--warm-bank`, `--batch N` and
    /// `--store-cap-bytes N` from the process arguments, exiting with
    /// `error: …` and status 1 on malformed arguments.
    pub fn from_args() -> Self {
        driver::or_die(driver::process_args().and_then(|args| Self::from_arg_list(&args)))
    }

    /// Parses an explicit argument list (see [`HarnessOpts::from_args`]).
    ///
    /// # Errors
    ///
    /// [`grid::GridError::Cli`] naming the flag on an unknown argument
    /// or a missing, malformed or out-of-range value.
    pub fn from_arg_list(args: &[String]) -> Result<Self, grid::GridError> {
        let mut o = Self::default();
        let mut pf_kind = PrefetchKind::None;
        let mut mshrs: Option<u64> = None;
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            match flag {
                "--long" => o.long = true,
                "--warm-bank" => o.warm_bank = true,
                "--inst" => o.insts = flag_value(args, i, "a number", number)?,
                "--warmup" => o.warmup = flag_value(args, i, "a number", number)?,
                "--jobs" => o.jobs = flag_value(args, i, "a number >= 1", positive)?,
                "--prefetch" => {
                    pf_kind = flag_value(
                        args,
                        i,
                        "one of: none, next-line, stream, mana",
                        PrefetchKind::parse,
                    )?
                }
                "--mshrs" => mshrs = Some(flag_value(args, i, "a number", number)?),
                "--grid-total" => o.grid_total = flag_value(args, i, "a number", number)?,
                "--grid-sample" => {
                    let spec = flag_value(args, i, "U,Wf,Wd,D[,Wm]", |v| Some(v.to_owned()))?;
                    o.grid_sample = SampleConfig::parse(&spec).map_err(|e| {
                        grid::GridError::Cli(format!("bad --grid-sample schedule: {e}"))
                    })?
                }
                "--front-pipeline" => {
                    o.front = flag_value(args, i, "one of: legacy, engine", FrontMode::parse)?
                }
                "--grid-prefetch" => {
                    o.grid_prefetch =
                        flag_value(args, i, "one of: shared, natural", GridPrefetchMode::parse)?
                }
                "--batch" => o.batch = flag_value(args, i, "a number >= 1", positive)?,
                "--store-cap-bytes" => {
                    o.store_cap_bytes = Some(flag_value(args, i, "a number >= 1", positive)?)
                }
                other => {
                    return Err(grid::GridError::Cli(format!(
                        "unknown argument {other}; supported: --inst N, --warmup N, --jobs N, \
                         --prefetch none|next-line|stream|mana, --mshrs N, --long, \
                         --grid-total N, --grid-sample U,Wf,Wd,D, --front-pipeline legacy|engine, \
                         --grid-prefetch shared|natural, --warm-bank, --batch N, \
                         --store-cap-bytes N"
                    )))
                }
            }
            i += if matches!(flag, "--long" | "--warm-bank") { 1 } else { 2 };
        }
        // Combine after parsing so --prefetch / --mshrs are order-free.
        o.prefetch = prefetch_config(pf_kind, mshrs)?;
        o.grid_windows()?;
        Ok(o)
    }

    /// Sampled windows per cell of the calibration grid: `--grid-total`
    /// over the `--grid-sample` interval. The one horizon check the CLI
    /// parser and the daemon's submit parser share.
    ///
    /// # Errors
    ///
    /// [`grid::GridError::Cli`] when the horizon is shorter than one
    /// sampling interval and so yields no window.
    pub(crate) fn grid_windows(&self) -> Result<u64, grid::GridError> {
        match self.grid_sample.windows(self.grid_total) {
            0 => Err(grid::GridError::Cli(format!(
                "--grid-total {} yields no sampled windows (one window needs {} instructions)",
                self.grid_total, self.grid_sample.interval
            ))),
            n => Ok(n),
        }
    }
}

/// The one `(kind, mshrs)` check behind `--prefetch`/`--mshrs` and a
/// submit line's `pf`/`mshrs`: an enabled policy takes `mshrs` MSHRs (8
/// when absent) and needs at least one; `none`, the blocking L1i, takes
/// none.
///
/// # Errors
///
/// [`grid::GridError::Cli`] on an enabled policy with 0 MSHRs or on
/// MSHRs given to `none`.
pub fn prefetch_config(
    kind: PrefetchKind,
    mshrs: Option<u64>,
) -> Result<PrefetchConfig, grid::GridError> {
    let bad = grid::GridError::Cli;
    match (kind, mshrs) {
        (PrefetchKind::None, None | Some(0)) => Ok(PrefetchConfig::none()),
        (PrefetchKind::None, Some(m)) => Err(bad(format!("mshrs {m} given but prefetch is none"))),
        (_, Some(0)) => Err(bad(format!("prefetch {kind} requires mshrs >= 1 (got 0)"))),
        (_, m) => {
            let mut pf = PrefetchConfig::enabled(kind);
            if let Some(m) = m {
                pf.mshrs =
                    usize::try_from(m).map_err(|_| bad(format!("mshrs {m} is out of range")))?;
            }
            Ok(pf)
        }
    }
}

/// The value after flag `args[i]`, run through `parse`; a
/// [`grid::GridError::Cli`] naming the flag and what it wanted when the
/// value is missing or `parse` rejects it.
pub fn flag_value<T>(
    args: &[String],
    i: usize,
    want: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, grid::GridError> {
    let got = args.get(i + 1);
    got.and_then(|v| parse(v)).ok_or_else(|| {
        grid::GridError::Cli(match got {
            Some(v) => format!("{} requires {want} (got {v:?})", args[i]),
            None => format!("{} requires {want}", args[i]),
        })
    })
}

/// A [`flag_value`] parser: any value of `T`.
pub fn number<T: std::str::FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

/// A [`flag_value`] parser: a count of at least 1.
pub fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(v: &str) -> Option<T> {
    number(v).filter(|n: &T| *n >= T::from(1))
}

/// One simulated point of the evaluation grid.
#[derive(Debug, Clone, Copy)]
pub struct RunPoint {
    /// Benchmark name.
    pub bench: &'static str,
    /// Fetch engine.
    pub engine: EngineKind,
    /// Layout flavour.
    pub layout: LayoutChoice,
    /// Pipe width.
    pub width: usize,
    /// Measured statistics.
    pub stats: SimStats,
}

/// Simulates one point.
pub fn run_point(
    w: &Workload,
    engine: EngineKind,
    layout: LayoutChoice,
    width: usize,
    opts: HarnessOpts,
) -> RunPoint {
    let image = w.image(layout);
    let mut pc = ProcessorConfig::table2(width);
    pc.prefetch = opts.prefetch;
    pc.front = opts.front.front_for(engine);
    let stats = simulate(w.cfg(), image, engine, pc, w.ref_seed(), opts.warmup, opts.insts);
    RunPoint { bench: w.name(), engine, layout, width, stats }
}

/// Simulates one point with a custom-built engine and memory configuration
/// (for the ablation studies: line-size sweeps, FTQ depths, predictor
/// organizations, selective trace storage).
pub fn run_custom(
    w: &Workload,
    layout: LayoutChoice,
    width: usize,
    memcfg: MemoryConfig,
    engine: Box<dyn FetchEngine>,
    opts: HarnessOpts,
) -> SimStats {
    let image = w.image(layout);
    let pc = ProcessorConfig::table2(width);
    // `opts.prefetch` is deliberately NOT applied here: the caller built
    // the engine without a prefetcher attached, so enabling the miss
    // pipeline alone would change the timing model while the output
    // still reads as a plain blocking-I-cache sweep. Prefetch studies go
    // through `run_point`/`simulate` or the `ablation_prefetch` binary.
    let mut p = Processor::with_memory(pc, memcfg, engine, w.cfg(), image, w.ref_seed());
    p.run(opts.warmup);
    p.reset_stats();
    p.run(opts.insts);
    p.stats()
}

/// Runs one ablation sweep row: simulates every workload with an engine and
/// memory configuration built per point by `mk` (engines are constructed
/// inside the worker so nothing mutable crosses threads), up to `opts.jobs`
/// points in flight. Results come back in workload order.
pub fn run_custom_sweep(
    workloads: &[Workload],
    layout: LayoutChoice,
    width: usize,
    opts: HarnessOpts,
    mk: impl Fn(&Workload) -> (MemoryConfig, Box<dyn FetchEngine>) + Sync,
) -> Vec<SimStats> {
    par_map(workloads, opts.jobs, |_, w| {
        let (memcfg, engine) = mk(w);
        run_custom(w, layout, width, memcfg, engine, opts)
    })
}

/// The four-benchmark subset used by the quicker ablation binaries.
pub const ABLATION_BENCHES: [&str; 4] = ["gzip", "gcc", "crafty", "twolf"];

/// Builds the ablation workload subset in parallel. With
/// [`HarnessOpts::long`] set, the long-horizon phased workload
/// (`sfetch_workloads::phased`) rides along at the end of the list —
/// behind the flag so tier-1 runtimes stay bounded.
pub fn ablation_workloads(opts: HarnessOpts) -> Vec<Workload> {
    let suite = Suite::build_subset(&ABLATION_BENCHES, opts.jobs);
    // Re-order to the ABLATION_BENCHES order the binaries print.
    let mut by_name: Vec<Option<Workload>> = suite.into_workloads().into_iter().map(Some).collect();
    let mut out: Vec<Workload> = ABLATION_BENCHES
        .iter()
        .map(|n| {
            let i = by_name
                .iter()
                .position(|w| w.as_ref().is_some_and(|w| w.name() == *n))
                .expect("subset contains every ablation bench");
            by_name[i].take().expect("taken once")
        })
        .collect();
    if opts.long {
        out.push(phased::long_workload());
    }
    out
}

/// Every name [`try_workload_by_name`] accepts: the suite members in the
/// paper's Fig. 9 order, then [`phased::LONG_NAME`].
pub fn bench_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> =
        sfetch_workloads::suite::all_specs().iter().map(|s| s.name).collect();
    names.push(phased::LONG_NAME);
    names
}

/// Checks a bench name from outside the program without building its
/// workload.
///
/// # Errors
///
/// [`grid::GridError::UnknownBench`] unless [`bench_names`] lists it.
pub fn check_bench(name: &str) -> Result<(), grid::GridError> {
    if bench_names().contains(&name) {
        Ok(())
    } else {
        Err(grid::GridError::UnknownBench(name.to_owned()))
    }
}

/// Builds a named workload: a suite member, or the registered phased
/// long-horizon workload under its [`phased::LONG_NAME`].
///
/// # Errors
///
/// [`grid::GridError::UnknownBench`] (listing the valid names) on any
/// other name.
pub fn try_workload_by_name(name: &str) -> Result<Workload, grid::GridError> {
    if name == phased::LONG_NAME {
        return Ok(phased::long_workload());
    }
    sfetch_workloads::suite::by_name(name)
        .map(sfetch_workloads::suite::build)
        .ok_or_else(|| grid::GridError::UnknownBench(name.to_owned()))
}

/// Runs the whole grid for the given widths/layouts/engines with up to
/// `opts.jobs` points in flight, reporting progress per benchmark through a
/// mutex-guarded reporter. Points are returned in deterministic
/// benchmark-major order and each point's statistics are bit-identical to a
/// serial (`jobs = 1`) run.
pub fn run_grid(
    suite: &Suite,
    widths: &[usize],
    layouts: &[LayoutChoice],
    engines: &[EngineKind],
    opts: HarnessOpts,
) -> Vec<RunPoint> {
    #[derive(Clone, Copy)]
    struct PointSpec {
        w_idx: usize,
        width: usize,
        layout: LayoutChoice,
        engine: EngineKind,
    }
    let workloads = suite.workloads();
    let mut specs = Vec::with_capacity(workloads.len() * widths.len() * layouts.len() * engines.len());
    for w_idx in 0..workloads.len() {
        for &width in widths {
            for &layout in layouts {
                for &engine in engines {
                    specs.push(PointSpec { w_idx, width, layout, engine });
                }
            }
        }
    }
    let per_bench = widths.len() * layouts.len() * engines.len();
    let progress = GridProgress::new(workloads.len(), per_bench);
    par_map(&specs, opts.jobs, |_, s| {
        let w = &workloads[s.w_idx];
        let p = run_point(w, s.engine, s.layout, s.width, opts);
        progress.point_done(s.w_idx, w.name());
        p
    })
}

/// Harmonic-mean IPC over the suite for a (engine, layout, width) cell.
pub fn hmean_ipc(points: &[RunPoint], engine: EngineKind, layout: LayoutChoice, width: usize) -> f64 {
    let vals: Vec<f64> = points
        .iter()
        .filter(|p| p.engine == engine && p.layout == layout && p.width == width)
        .map(|p| p.stats.ipc())
        .collect();
    harmonic_mean(&vals)
}

/// Arithmetic mean of a per-point metric over the suite for one cell.
pub fn mean_metric(
    points: &[RunPoint],
    engine: EngineKind,
    layout: LayoutChoice,
    width: usize,
    f: impl Fn(&SimStats) -> f64,
) -> f64 {
    let vals: Vec<f64> = points
        .iter()
        .filter(|p| p.engine == engine && p.layout == layout && p.width == width)
        .map(|p| f(&p.stats))
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Prints a markdown-style table: rows = engines, columns = (layout).
pub fn print_engine_table(
    title: &str,
    points: &[RunPoint],
    metric: impl Fn(&[RunPoint], EngineKind, LayoutChoice) -> f64,
    unit: &str,
) {
    println!("\n{title}");
    println!("{:<18} {:>10} {:>10}", "engine", "base", "optimized");
    for kind in EngineKind::ALL {
        let b = metric(points, kind, LayoutChoice::Base);
        let o = metric(points, kind, LayoutChoice::Optimized);
        println!("{:<18} {:>9.3}{unit} {:>9.3}{unit}", kind.to_string(), b, o);
    }
}

/// Pipe width of the paper's headline Fig. 8 ratios.
pub const FIG8_RATIO_WIDTH: usize = 8;

/// One of the paper's headline Fig. 8 claims: the streams engine's
/// 8-wide harmonic-mean IPC relative to `rival`'s on `layout` code.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Claim {
    /// Code layout both engines run.
    pub layout: LayoutChoice,
    /// The engine streams is compared against.
    pub rival: EngineKind,
    /// The paper's value of `streams / rival - 1`, in percent.
    pub paper_pct: f64,
}

/// The paper's five 8-wide Fig. 8 claims: with optimized code streams
/// is +10% over EV8, +4% over FTB and −1.5% against the trace cache;
/// with base code +10% over EV8 and −4 to −5% (taken as −4.5%) against
/// the trace cache.
pub const FIG8_CLAIMS: [Fig8Claim; 5] = [
    Fig8Claim { layout: LayoutChoice::Optimized, rival: EngineKind::Ev8, paper_pct: 10.0 },
    Fig8Claim { layout: LayoutChoice::Optimized, rival: EngineKind::Ftb, paper_pct: 4.0 },
    Fig8Claim { layout: LayoutChoice::Optimized, rival: EngineKind::TraceCache, paper_pct: -1.5 },
    Fig8Claim { layout: LayoutChoice::Base, rival: EngineKind::Ev8, paper_pct: 10.0 },
    Fig8Claim { layout: LayoutChoice::Base, rival: EngineKind::TraceCache, paper_pct: -4.5 },
];

/// The [`FIG8_CLAIMS`] as measured on one grid run, in claim order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Ratios {
    /// Measured `streams / rival - 1`, in percent.
    pub measured_pct: [f64; 5],
    /// Signed error `measured - paper`, in percentage points.
    pub err_pp: [f64; 5],
    /// Sum of the absolute errors, in percentage points: the one
    /// number calibration work drives down.
    pub abs_err_sum_pp: f64,
}

/// Measures the [`FIG8_CLAIMS`] on a grid's points: suite harmonic-mean
/// IPC at [`FIG8_RATIO_WIDTH`], streams against each claim's rival.
pub fn fig8_ratios(points: &[RunPoint]) -> Fig8Ratios {
    let ipc = |engine, layout| hmean_ipc(points, engine, layout, FIG8_RATIO_WIDTH);
    let measured_pct = FIG8_CLAIMS
        .map(|c| (ipc(EngineKind::Stream, c.layout) / ipc(c.rival, c.layout) - 1.0) * 100.0);
    let err_pp: [f64; 5] = std::array::from_fn(|i| measured_pct[i] - FIG8_CLAIMS[i].paper_pct);
    Fig8Ratios { measured_pct, err_pp, abs_err_sum_pp: err_pp.iter().map(|e| e.abs()).sum() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_opts_are_sane() {
        let o = HarnessOpts::default();
        assert!(o.insts >= 100_000);
        assert!(o.warmup < o.insts);
        assert!(o.jobs >= 1);
        // The calibration defaults: per-engine fronts competing at
        // their natural prefetch policies.
        assert_eq!(o.front, FrontMode::PerEngine);
        assert_eq!(o.grid_prefetch, GridPrefetchMode::Natural);
        // No batch cap: the whole grid shares one sweep per window.
        assert_eq!(o.batch, usize::MAX);
    }

    #[test]
    fn front_mode_flags_parse_and_round_trip() {
        for m in [FrontMode::Legacy, FrontMode::PerEngine] {
            assert_eq!(FrontMode::parse(m.as_str()), Some(m));
        }
        for m in [GridPrefetchMode::Shared, GridPrefetchMode::Natural] {
            assert_eq!(GridPrefetchMode::parse(m.as_str()), Some(m));
        }
        assert_eq!(FrontMode::parse("bogus"), None);
        assert_eq!(GridPrefetchMode::parse("bogus"), None);
        let o = HarnessOpts::from_arg_list(&[
            "--front-pipeline".to_owned(),
            "legacy".to_owned(),
            "--grid-prefetch".to_owned(),
            "shared".to_owned(),
        ])
        .expect("parses");
        assert_eq!(o.front, FrontMode::Legacy);
        assert_eq!(o.grid_prefetch, GridPrefetchMode::Shared);
        assert!(o.front.front_for(EngineKind::Ev8).is_legacy());
        assert!(!FrontMode::PerEngine.front_for(EngineKind::Ev8).is_legacy());
    }

    #[test]
    fn fig8_ratios_compare_streams_at_eight_wide() {
        // One bench; committed instructions per 1000 cycles set each IPC.
        let point = |engine, layout, width, committed| {
            let stats = SimStats { committed, cycles: 1000, ..SimStats::default() };
            RunPoint { bench: "b", engine, layout, width, stats }
        };
        let (o, b) = (LayoutChoice::Optimized, LayoutChoice::Base);
        let points = [
            point(EngineKind::Stream, o, 8, 1200),
            point(EngineKind::Ev8, o, 8, 1000),
            point(EngineKind::Ftb, o, 8, 1200),
            point(EngineKind::TraceCache, o, 8, 1500),
            point(EngineKind::Stream, b, 8, 1000),
            point(EngineKind::Ev8, b, 8, 1000),
            point(EngineKind::TraceCache, b, 8, 800),
            // Other widths never enter the ratios.
            point(EngineKind::Stream, o, 4, 9000),
            point(EngineKind::Ev8, b, 2, 10),
        ];
        let r = fig8_ratios(&points);
        let close = |got: &[f64], want: &[f64]| {
            got.iter().zip(want).all(|(g, w)| (g - w).abs() < 1e-9)
        };
        assert!(close(&r.measured_pct, &[20.0, 0.0, -20.0, 0.0, 25.0]), "{r:?}");
        assert!(close(&r.err_pp, &[10.0, -4.0, -18.5, -10.0, 29.5]), "{r:?}");
        assert!((r.abs_err_sum_pp - 72.0).abs() < 1e-9, "{r:?}");
    }
}
