//! The fleet-backed grid runner: `sfetch_fleet`'s leased-cell
//! supervisor specialized to the sampled engines × widths grid.
//!
//! This module owns the one orchestration path every grid request runs
//! through, and both halves of the worker protocol:
//!
//! * **Family run** — [`run_family`] opens a family's cell ledger under
//!   `<store>/fleet/<tag>/`, populates the store when (and only when) a
//!   caller asks and some cell is still to compute, sizes the
//!   supervisor's leases through [`lease_group`], and drives
//!   [`sfetch_fleet::run_fleet`] with whatever [`Launcher`] the caller
//!   brings. The launcher is the only difference between `--procs`
//!   (OS processes) and the resident daemon (threads).
//! * **Parent** — [`run_fleet_grid`] decomposes the grid into
//!   *(engine, width, window-range)* cells, keys the ledger by a config
//!   fingerprint (so a re-invocation with the same experiment resumes
//!   and anything else starts fresh), runs the family over re-spawns of
//!   the current executable, and merges the completed cells through
//!   [`crate::grid::merge_grid`] (strict) or
//!   [`crate::grid::merge_grid_partial`] (degraded, with an explicit
//!   incomplete-cell report) — never a panic.
//! * **Worker** — [`run_cell_group`] is the one worker body: process
//!   children and the daemon's threads both heartbeat, run the group's
//!   shared sweep, seal each cell's shard and write it atomically.
//!   [`maybe_run_fleet_child`], called first thing in every grid
//!   binary's `main`, recognizes the `--fleet-cell` protocol and runs
//!   that body. Under [`sfetch_fleet::chaos::CHAOS_ENV`] the child
//!   consults the deterministic fault schedule first and crashes /
//!   stalls / mangles its output accordingly — the parent is
//!   deliberately left unaware.
//!
//! Because each cell's windows resume from checkpoints that derive only
//! from the workload (never from which worker ran them or how often),
//! any interleaving of crashes, retries, and resumes converges to the
//! same merged bytes — the property the chaos tests and the CI leg
//! assert.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use sfetch_fleet::{
    chaos, fnv64, now_ms, seal, CellDone, CellId, FleetConfig, FleetError, FleetReport,
    HeartbeatGuard, Launcher, Ledger, ProcessLauncher,
};
use sfetch_sample::{window_range, CheckpointStore, SampleConfig, SamplePoint, ShardSpec};
use sfetch_workloads::Workload;

use crate::driver::{cell_group_bodies, validate_shard_text};
use crate::grid::{
    engine_key, merge_grid, merge_grid_partial, parse_shard_file, write_shard_atomic, CellRun,
    GridCell, GridError, GRID_SHARD_SCHEMA,
};
use crate::{workload_by_name, HarnessOpts};

/// How often a worker ([`run_cell_group`]) touches its heartbeat file.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);

/// Everything [`run_fleet_grid`] needs beyond the harness options.
pub struct FleetGridSpec<'a> {
    /// Benchmark name (resolved via [`workload_by_name`] in children).
    pub bench: &'a str,
    /// The (engine, width) grid.
    pub grid: &'a [GridCell],
    /// Sampling schedule.
    pub scfg: SampleConfig,
    /// Total committed instructions (determines the window count).
    pub total: u64,
    /// Simulation-model options forwarded to workers.
    pub opts: &'a HarnessOpts,
    /// The (already populated) checkpoint store directory; the fleet's
    /// ledger and cell outputs live under `<store>/fleet/`.
    pub store_dir: &'a Path,
    /// Maximum concurrent workers.
    pub procs: usize,
    /// Chaos seed (`--chaos N`): exported to workers via
    /// [`chaos::CHAOS_ENV`]. Part of the ledger fingerprint, so chaos
    /// runs never resume a clean run's ledger or vice versa.
    pub chaos: Option<u64>,
    /// Per-cell retry budget (`--max-retries N`).
    pub max_retries: u32,
    /// Optional per-cell timeout override in seconds
    /// (`--cell-timeout SECS`): sets the timeout floor/initial guess
    /// and caps heartbeat staleness, for tests and smoke legs that
    /// need fast straggler detection.
    pub cell_timeout_s: Option<u64>,
}

/// What a fleet grid run produced.
pub struct FleetGridOutcome {
    /// Merged per-cell estimates. Complete runs carry every window;
    /// degraded runs carry the windows that exist (wider CIs).
    pub runs: Vec<CellRun>,
    /// Grid cells short of the full window count: `(cell, have, want)`.
    /// Empty on a fully successful run.
    pub incomplete: Vec<(GridCell, u64, u64)>,
    /// The supervisor's accounting (spawns, retries, kills, resume).
    pub report: FleetReport,
    /// The run's ledger directory (also holds `events.jsonl` and, after
    /// a degraded exit, `degraded.json`).
    pub work_dir: PathBuf,
}

/// Errors out of the parent orchestration: fleet infrastructure or grid
/// merge trouble.
#[derive(Debug)]
pub enum FleetGridError {
    /// The fleet layer failed (ledger, spawn).
    Fleet(FleetError),
    /// The grid layer failed (merge inconsistency, shard parse).
    Grid(GridError),
}

impl std::fmt::Display for FleetGridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetGridError::Fleet(e) => e.fmt(f),
            FleetGridError::Grid(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for FleetGridError {}

impl From<FleetError> for FleetGridError {
    fn from(e: FleetError) -> Self {
        FleetGridError::Fleet(e)
    }
}

impl From<GridError> for FleetGridError {
    fn from(e: GridError) -> Self {
        FleetGridError::Grid(e)
    }
}

/// Decomposes the grid into fleet cells: every (engine, width) pair
/// split into enough window chunks that the pool stays busy (≈ 2 cells
/// per worker), chunk sizes differing by at most one window.
pub fn decompose(grid: &[GridCell], windows: u64, procs: usize) -> Vec<CellId> {
    let pairs = grid.len().max(1);
    let target = (2 * procs.max(1)).div_ceil(pairs) as u64;
    let n_chunks = target.clamp(1, windows.max(1));
    let mut out = Vec::new();
    for cell in grid {
        for j in 0..n_chunks {
            let r = window_range(windows, ShardSpec { index: j, count: n_chunks });
            if r.start < r.end {
                out.push(CellId::new(engine_key(cell.engine), cell.width, r.start, r.end));
            }
        }
    }
    out
}

/// The experiment fingerprint keying the ledger: everything a cell's
/// output bytes depend on. Same fingerprint → safe to resume; anything
/// else → fresh ledger. The key keeps the literal `legacy=false` of
/// builds that could select the scan back end, so their ledgers resume.
fn config_tag(spec: &FleetGridSpec<'_>) -> u64 {
    let engines: Vec<&str> =
        spec.grid.iter().map(|c| engine_key(c.engine)).collect::<Vec<_>>();
    let widths: Vec<String> = spec.grid.iter().map(|c| c.width.to_string()).collect();
    let key = format!(
        "{GRID_SHARD_SCHEMA}|{}|{}|{}|{}|{}|legacy=false|pf={}:{}|front={}|gridpf={}|chaos={:?}",
        spec.bench,
        spec.scfg.to_spec(),
        spec.total,
        engines.join(","),
        widths.join(","),
        spec.opts.prefetch.kind,
        spec.opts.prefetch.mshrs,
        spec.opts.front.as_str(),
        spec.opts.grid_prefetch.as_str(),
        spec.chaos,
    );
    fnv64(key.as_bytes())
}

/// Cells leased to one worker: `min(batch, ceil(cells / procs))`, where
/// `procs` is the number of processes the cells are split across. Each
/// process's workers split the same-range cells evenly and each group
/// shares one batched sweep. In-process (thread) workers pass 1: they
/// share one process, and a group's sweep already fans its windows
/// across `--jobs` threads. Chaos runs stay singleton, so the
/// deterministic per-cell fault schedule keeps its meaning.
pub fn lease_group(batch: usize, chaos: bool, n_cells: usize, procs: usize) -> usize {
    if chaos {
        1
    } else {
        batch.min(n_cells.div_ceil(procs.max(1))).max(1)
    }
}

/// How [`run_family`] runs one family's cells: where its ledger lives
/// and how the supervisor leases, times out and tags the work.
pub struct FamilyRun<'a> {
    /// Ledger fingerprint: the family's cells live in
    /// `<store_dir>/fleet/<tag as 16 hex digits>/cells.ledger`, and a
    /// ledger found there under another tag is rotated aside, never
    /// resumed.
    pub tag: u64,
    /// The checkpoint store the workers read (and the fleet's home).
    pub store_dir: &'a Path,
    /// Maximum concurrent workers.
    pub workers: usize,
    /// Processes the cells are split across ([`lease_group`]'s
    /// `procs`): the worker count for process workers, 1 for threads.
    pub split: usize,
    /// `--batch` cap on a lease group.
    pub batch: usize,
    /// Chaos runs lease singleton groups.
    pub chaos: bool,
    /// Per-cell retry budget.
    pub max_retries: u32,
    /// Optional per-cell timeout in seconds: sets the timeout floor and
    /// initial guess and caps heartbeat staleness.
    pub cell_timeout_s: Option<u64>,
    /// Request tag stamped on every supervisor event (empty = none).
    pub req: String,
}

impl FamilyRun<'_> {
    /// The family's ledger directory (also holds `events.jsonl`, the
    /// cell outputs and, after a degraded exit, `degraded.json`).
    pub fn work_dir(&self) -> PathBuf {
        self.store_dir.join("fleet").join(format!("{:016x}", self.tag))
    }
}

/// Runs one family of cells to quiescence — the single orchestration
/// path behind `--procs` grids and the resident daemon. Opens (or
/// resumes) the family ledger, then runs `populate` if one is given
/// and some cell is still not `Done` (a ledger that answers every cell
/// needs no checkpoints), sizes the leases through [`lease_group`], and
/// drives the supervisor over `launcher`. `log` gets the supervisor's
/// progress lines; `notify` gets every `Done` cell as it becomes
/// available (see [`sfetch_fleet::run_fleet`]).
///
/// # Errors
///
/// Infrastructure failures only: the ledger, a worker spawn, or a
/// failed `populate` (reported as [`FleetError::Io`] on the store).
pub fn run_family<L: Launcher>(
    run: &FamilyRun<'_>,
    cells: &[CellId],
    launcher: &L,
    populate: Option<&dyn Fn() -> Result<(), String>>,
    log: &mut dyn FnMut(&str),
    notify: &mut dyn FnMut(&CellDone),
) -> Result<FleetReport, FleetError> {
    let work_dir = run.work_dir();
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| FleetError::io("create fleet work dir", &work_dir, e))?;
    let (mut ledger, resume) = Ledger::open(
        work_dir.join("cells.ledger"),
        run.tag,
        cells,
        now_ms(),
        &validate_shard_text,
    )?;
    if resume.resumed_done > 0 || resume.expired_leases > 0 || resume.invalidated > 0 {
        log(&format!(
            "resumed ledger — {} done cells kept, {} expired leases re-offered, \
             {} invalidated outputs recomputed",
            resume.resumed_done, resume.expired_leases, resume.invalidated
        ));
    }
    if let Some(populate) = populate {
        let (_, _, done, _) = ledger.counts();
        if done < cells.len() {
            populate().map_err(|e| FleetError::io("populate store", run.store_dir, e))?;
        }
    }

    let mut cfg = FleetConfig::new(run.workers.min(cells.len()).max(1));
    cfg.max_retries = run.max_retries;
    cfg.req.clone_from(&run.req);
    // A worker claims a group of same-range cells and drives them from
    // one shared sweep; `--batch N` caps the group.
    cfg.group = lease_group(run.batch, run.chaos, cells.len(), run.split);
    if let Some(s) = run.cell_timeout_s {
        let ms = s.max(1) * 1000;
        cfg.timeout_floor_ms = ms;
        cfg.timeout_initial_ms = ms;
        cfg.heartbeat_stale_ms = cfg.heartbeat_stale_ms.min(ms);
    }
    sfetch_fleet::run_fleet(&cfg, &mut ledger, launcher, &validate_shard_text, resume, log, notify)
}

/// Runs the grid under the fleet supervisor with one OS process per
/// worker. The checkpoint store at `spec.store_dir` must already be
/// populated (one architectural walk, [`crate::driver::populate_store`]).
///
/// # Errors
///
/// Infrastructure failures only; worker failures are retried and, past
/// the budget, reported via [`FleetGridOutcome::incomplete`].
pub fn run_fleet_grid(spec: &FleetGridSpec<'_>) -> Result<FleetGridOutcome, FleetGridError> {
    let windows = spec.scfg.windows(spec.total);
    let cell_ids = decompose(spec.grid, windows, spec.procs);
    let run = FamilyRun {
        tag: config_tag(spec),
        store_dir: spec.store_dir,
        workers: spec.procs,
        split: spec.procs,
        batch: spec.opts.batch,
        chaos: spec.chaos.is_some(),
        max_retries: spec.max_retries,
        cell_timeout_s: spec.cell_timeout_s,
        req: String::new(),
    };

    let exe = std::env::current_exe()
        .map_err(|e| FleetError::Spawn { cell: "<any>".into(), err: e.to_string() })?;
    let launcher = ProcessLauncher::new(
        |cells: &[CellId], attempts: &[u32], outs: &[PathBuf], hb: &Path| {
            let mut cmd = Command::new(&exe);
            // Repeated `--fleet-cell`/`--fleet-out` pairs, in matching
            // order, carry the whole group; singleton groups produce
            // exactly the historical argument list.
            for (cell, out) in cells.iter().zip(outs) {
                cmd.arg("--fleet-cell").arg(cell.to_string());
                cmd.arg("--fleet-out").arg(out);
            }
            cmd.arg("--fleet-bench")
                .arg(spec.bench)
                .arg("--fleet-sample")
                .arg(spec.scfg.to_spec())
                .arg("--fleet-store")
                .arg(spec.store_dir)
                .arg("--fleet-jobs")
                .arg(spec.opts.jobs.to_string())
                // Chaos (the attempt's only consumer) runs singleton
                // groups, so the first attempt index is the group's.
                .arg("--fleet-attempt")
                .arg(attempts.first().copied().unwrap_or(0).to_string())
                .arg("--fleet-heartbeat")
                .arg(hb)
                // Always explicit: the child's defaults must never decide
                // the simulated front or prefetch model.
                .arg("--fleet-front")
                .arg(spec.opts.front.as_str())
                .arg("--fleet-grid-prefetch")
                .arg(spec.opts.grid_prefetch.as_str());
            if spec.opts.warm_bank {
                cmd.arg("--fleet-warm-bank");
            }
            if let Some(cap) = spec.opts.store_cap_bytes {
                cmd.arg("--fleet-store-cap-bytes").arg(cap.to_string());
            }
            if spec.opts.prefetch.mshrs > 0 {
                cmd.arg("--fleet-prefetch").arg(spec.opts.prefetch.kind.to_string());
                cmd.arg("--fleet-mshrs").arg(spec.opts.prefetch.mshrs.to_string());
            }
            if let Some(seed) = spec.chaos {
                cmd.env(chaos::CHAOS_ENV, seed.to_string());
            }
            // Workers own no part of the report: stdout must stay clean so
            // chaos and fault-free parent runs diff byte-identically.
            cmd.stdout(Stdio::null()).stderr(Stdio::inherit());
            cmd
        },
    );

    let report = run_family(
        &run,
        &cell_ids,
        &launcher,
        None,
        &mut |msg| eprintln!("fleet: {msg}"),
        &mut |_done| {},
    )?;

    // Merge the verified cell outputs.
    let mut all: Vec<(String, usize, SamplePoint)> = Vec::new();
    for d in &report.done {
        all.extend(parse_shard_file(&d.text)?);
    }
    let (runs, incomplete) = if report.incomplete.is_empty() {
        (merge_grid(spec.grid, windows, &all, spec.scfg.confidence)?, Vec::new())
    } else {
        let partial = merge_grid_partial(spec.grid, windows, &all, spec.scfg.confidence)?;
        (partial.runs, partial.incomplete)
    };

    // Merge summary: how long the cells computed this run actually took
    // (resumed cells carried no fresh work, so they are excluded).
    let mut hist = sfetch_obs::Histogram::new();
    for d in report.done.iter().filter(|d| !d.resumed) {
        hist.record(d.dur_ms);
    }
    if !hist.is_empty() {
        eprintln!("fleet: cell wall-time histogram ({} computed cells):", hist.len());
        eprint!("{}", hist.render("fleet:   "));
    }

    Ok(FleetGridOutcome { runs, incomplete, report, work_dir: run.work_dir() })
}

/// Prints the degradation report (stderr) for a partial outcome,
/// records it machine-readably as `degraded.json` in the ledger
/// directory, and returns the process exit code the binary should use:
/// 0 when complete, 2 when degraded.
pub fn degradation_exit(outcome: &FleetGridOutcome) -> u8 {
    if outcome.incomplete.is_empty() && outcome.report.incomplete.is_empty() {
        return 0;
    }
    eprintln!(
        "fleet: DEGRADED RESULT — {} fleet cells failed permanently; estimates below use \
         the completed windows only (wider confidence intervals)",
        outcome.report.incomplete.len()
    );
    for (cell, attempts, why) in &outcome.report.incomplete {
        eprintln!("fleet:   {cell} ({attempts} attempts): {why}");
    }
    eprintln!("incomplete_cells: {}", outcome.report.incomplete.len());
    for (cell, have, want) in &outcome.incomplete {
        eprintln!(
            "fleet:   {}/{}: {have}/{want} windows merged",
            engine_key(cell.engine),
            cell.width
        );
    }
    let path = outcome.work_dir.join("degraded.json");
    match std::fs::write(&path, degraded_json(outcome)) {
        Ok(()) => eprintln!("fleet: degradation record written to {}", path.display()),
        Err(e) => eprintln!("fleet: could not write {}: {e}", path.display()),
    }
    2
}

/// The machine-readable degradation record: every permanently failed
/// fleet cell with its final attempt count and last error, plus the
/// merged-grid window shortfall per (engine, width).
fn degraded_json(outcome: &FleetGridOutcome) -> String {
    use sfetch_obs::Row;
    let cells: Vec<String> = outcome
        .report
        .incomplete
        .iter()
        .map(|(cell, attempts, why)| {
            Row::new()
                .s("cell", &cell.to_string())
                .u("attempts", u64::from(*attempts))
                .s("last_error", why)
                .finish()
        })
        .collect();
    let shortfalls: Vec<String> = outcome
        .incomplete
        .iter()
        .map(|(cell, have, want)| {
            Row::new()
                .s("engine", engine_key(cell.engine))
                .u("width", cell.width as u64)
                .u("windows_merged", *have)
                .u("windows_wanted", *want)
                .finish()
        })
        .collect();
    let mut out = Row::new()
        .s("schema", "sfetch-fleet-degraded-v1")
        .u("t_ms", now_ms())
        .raw("failed_cells", &format!("[{}]", cells.join(",")))
        .raw("grid_shortfall", &format!("[{}]", shortfalls.join(",")))
        .finish();
    out.push('\n');
    out
}

// ---------------------------------------------------------------------
// Child protocol
// ---------------------------------------------------------------------

/// A `--fleet-cell` child's arguments: the group's work order (repeated
/// `--fleet-cell`/`--fleet-out` pairs, in matching order), plus the
/// bench to build and the attempt chaos keys its faults on.
struct ChildArgs {
    job: CellGroupJob,
    bench: String,
    attempt: u32,
}

fn parse_child_args(args: &[String]) -> Result<ChildArgs, String> {
    let mut cells = Vec::new();
    let mut bench = None;
    let mut scfg = None;
    let mut store = None;
    let mut outs = Vec::new();
    let mut heartbeat = None;
    let mut attempt = 0u32;
    let mut opts = HarnessOpts::default();
    let mut pf_kind: Option<String> = None;
    let mut mshrs: Option<usize> = None;
    let mut i = 0;
    let take = |i: usize| -> Result<&String, String> {
        args.get(i + 1).ok_or_else(|| format!("{} requires a value", args[i]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--fleet-cell" => cells.push(CellId::parse(take(i)?)?),
            "--fleet-bench" => bench = Some(take(i)?.clone()),
            "--fleet-sample" => {
                scfg = Some(SampleConfig::parse(take(i)?).map_err(|e| e.to_string())?)
            }
            "--fleet-store" => store = Some(PathBuf::from(take(i)?)),
            "--fleet-store-cap-bytes" => {
                opts.store_cap_bytes = Some(
                    take(i)?
                        .parse::<u64>()
                        .ok()
                        .filter(|&c| c >= 1)
                        .ok_or_else(|| {
                            format!("--fleet-store-cap-bytes must be >= 1 (got {:?})", args[i + 1])
                        })?,
                )
            }
            "--fleet-out" => outs.push(PathBuf::from(take(i)?)),
            "--fleet-heartbeat" => heartbeat = Some(PathBuf::from(take(i)?)),
            "--fleet-attempt" => {
                attempt = take(i)?.parse().map_err(|e| format!("--fleet-attempt: {e}"))?
            }
            "--fleet-jobs" => {
                opts.jobs = take(i)?.parse().map_err(|e| format!("--fleet-jobs: {e}"))?
            }
            // Note: deliberately absent from `config_tag` — banked warm
            // state changes host time only, never the output bytes, so a
            // banked rerun must resume the un-banked ledger (and vice
            // versa) with zero recomputation.
            "--fleet-warm-bank" => {
                opts.warm_bank = true;
                i += 1;
                continue;
            }
            "--fleet-prefetch" => pf_kind = Some(take(i)?.clone()),
            "--fleet-front" => {
                opts.front = crate::FrontMode::parse(take(i)?)
                    .ok_or_else(|| format!("bad --fleet-front {:?}", args[i + 1]))?
            }
            "--fleet-grid-prefetch" => {
                opts.grid_prefetch = crate::GridPrefetchMode::parse(take(i)?)
                    .ok_or_else(|| format!("bad --fleet-grid-prefetch {:?}", args[i + 1]))?
            }
            "--fleet-mshrs" => {
                mshrs = Some(take(i)?.parse().map_err(|e| format!("--fleet-mshrs: {e}"))?)
            }
            other => return Err(format!("unknown fleet child argument {other:?}")),
        }
        i += 2;
    }
    if let Some(kind) = pf_kind {
        let kind = sfetch_core::PrefetchKind::parse(&kind)
            .ok_or_else(|| format!("bad --fleet-prefetch {kind:?}"))?;
        opts.prefetch = sfetch_core::PrefetchConfig::enabled(kind);
        if let Some(m) = mshrs {
            opts.prefetch.mshrs = m;
        }
    }
    if cells.is_empty() {
        return Err("--fleet-cell is required".into());
    }
    if outs.len() != cells.len() {
        return Err(format!(
            "{} --fleet-cell flags but {} --fleet-out flags (must pair up)",
            cells.len(),
            outs.len()
        ));
    }
    Ok(ChildArgs {
        job: CellGroupJob {
            cells,
            outs,
            heartbeat: heartbeat.ok_or("--fleet-heartbeat is required")?,
            store_dir: store.ok_or("--fleet-store is required")?,
            scfg: scfg.ok_or("--fleet-sample is required")?,
            opts,
        },
        bench: bench.ok_or("--fleet-bench is required")?,
        attempt,
    })
}

/// One leased cell group's work order: the cells, where each cell's
/// sealed shard goes, the heartbeat to keep fresh, and the store and
/// model the sweep runs against.
pub struct CellGroupJob {
    /// The group (same window range; a singleton under per-cell leases).
    pub cells: Vec<CellId>,
    /// Per-cell output paths, parallel to `cells`.
    pub outs: Vec<PathBuf>,
    /// The heartbeat file the supervisor health-checks.
    pub heartbeat: PathBuf,
    /// The checkpoint store directory.
    pub store_dir: PathBuf,
    /// Sampling schedule.
    pub scfg: SampleConfig,
    /// Simulation-model and execution options.
    pub opts: HarnessOpts,
}

/// The one worker body, shared by fleet child processes and the
/// daemon's in-process workers: heartbeat, open the store, run the
/// group's shared sweep ([`cell_group_bodies`]), seal each cell's body
/// and write it with [`write_shard_atomic`]. `finish` sees each sealed
/// text before it is written — the identity everywhere except the chaos
/// child, which mangles it there.
///
/// # Errors
///
/// A readable message on a store, sweep or write failure.
pub fn run_cell_group(
    w: &Workload,
    job: &CellGroupJob,
    finish: &mut dyn FnMut(String) -> String,
) -> Result<(), String> {
    let _hb = HeartbeatGuard::start(&job.heartbeat, HEARTBEAT_EVERY);
    let store = CheckpointStore::open(&job.store_dir)
        .map_err(|e| format!("open store: {e}"))?
        .with_cap_bytes(job.opts.store_cap_bytes);
    let bodies = cell_group_bodies(w, &job.cells, job.scfg, &job.opts, &store)?;
    for (body, out) in bodies.iter().zip(&job.outs) {
        write_shard_atomic(out, &finish(seal(body))).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn run_fleet_child(a: ChildArgs) -> Result<bool, String> {
    // Chaos first: the fault schedule is a pure function of
    // (seed, cell, attempt), consulted before any real work. The parent
    // forces singleton groups under chaos, so the first cell *is* the
    // group.
    let fault = match chaos::seed_from_env() {
        Some(seed) => chaos::fault_for(seed, &a.job.cells[0], a.attempt),
        None => chaos::Fault::None,
    };
    match fault {
        chaos::Fault::CrashEarly => {
            // Die the ugly way — no output, nonzero "signal" exit.
            std::process::abort();
        }
        chaos::Fault::Stall => {
            // Hang *without ever heartbeating*, so staleness detection
            // (not just the cell deadline) is what catches us.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        _ => {}
    }

    let w = workload_by_name(&a.bench);
    // Chaos mangles the sealed text before the (still atomic) write:
    // the injected faults model *logical* corruption; torn physical
    // writes are prevented by the temp + rename discipline itself.
    let mut exit_nonzero = false;
    run_cell_group(&w, &a.job, &mut |sealed| {
        let (text, nonzero) = chaos::mangle_output(fault, &sealed);
        exit_nonzero |= nonzero;
        text
    })?;
    Ok(exit_nonzero)
}

/// Call **first** in every grid binary's `main`: when the process was
/// spawned as a fleet worker (`--fleet-cell …`), runs the cell and
/// exits; otherwise returns so the binary proceeds normally.
pub fn maybe_run_fleet_child() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.iter().any(|a| a == "--fleet-cell") {
        return;
    }
    match parse_child_args(&args).and_then(run_fleet_child) {
        Ok(false) => std::process::exit(0),
        Ok(true) => std::process::exit(3), // chaos: valid file, lying exit
        Err(msg) => {
            eprintln!("fleet worker: {msg}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{cells, point_line};
    use sfetch_fetch::EngineKind;
    use sfetch_obs::Row;

    #[test]
    fn decompose_partitions_every_pair() {
        let grid = cells(&[EngineKind::Stream, EngineKind::Ev8], &[4, 8]);
        for (windows, procs) in [(4u64, 2usize), (7, 3), (1, 8), (16, 1)] {
            let ids = decompose(&grid, windows, procs);
            for pair in &grid {
                let mut covered: Vec<bool> = vec![false; windows as usize];
                for id in ids.iter().filter(|c| {
                    c.engine == engine_key(pair.engine) && c.width == pair.width
                }) {
                    for w in id.lo..id.hi {
                        assert!(!covered[w as usize], "window {w} covered twice");
                        covered[w as usize] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "every window covered exactly once");
            }
        }
    }

    /// In-process launcher: records each leased group's size and writes
    /// a valid sealed output per cell, so the worker "exits" at once.
    struct RecordingLauncher(std::cell::RefCell<Vec<usize>>);

    struct Exited(u64);

    impl sfetch_fleet::WorkerHandle for Exited {
        fn poll(&mut self) -> sfetch_fleet::PollResult {
            sfetch_fleet::PollResult::Exited { success: true, detail: "ok".into() }
        }
        fn kill(&mut self) {}
        fn worker_id(&self) -> u64 {
            self.0
        }
    }

    impl sfetch_fleet::Launcher for RecordingLauncher {
        type Handle = Exited;
        fn launch(
            &self,
            cells: &[CellId],
            _attempts: &[u32],
            outs: &[PathBuf],
            _hb: &Path,
        ) -> Result<Exited, FleetError> {
            let mut groups = self.0.borrow_mut();
            groups.push(cells.len());
            for (cell, out) in cells.iter().zip(outs) {
                let header =
                    Row::new().s("schema", GRID_SHARD_SCHEMA).s("cell", &cell.to_string()).finish();
                let body = format!("{header}\n");
                std::fs::write(out, seal(&body)).expect("write cell output");
            }
            Ok(Exited(groups.len() as u64))
        }
    }

    /// Group sizes [`run_family`] leases for the Fig. 8 grid (12 cells,
    /// 4 windows, one same-range cell per pair) with `workers`
    /// concurrent workers split across `split` processes.
    fn leased_groups(
        batch: usize,
        chaos: bool,
        workers: usize,
        split: usize,
        tag: &str,
    ) -> Vec<usize> {
        let grid = cells(&crate::grid::grid_engines(), &crate::grid::FIG8_WIDTHS);
        let ids = decompose(&grid, 4, workers);
        assert!(ids.iter().all(|c| (c.lo, c.hi) == (0, 4)), "one same-range cell per pair");
        let dir = std::env::temp_dir()
            .join(format!("sfetch-lease-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = FamilyRun {
            tag: 1,
            store_dir: &dir,
            workers,
            split,
            batch,
            chaos,
            max_retries: 3,
            cell_timeout_s: None,
            req: String::new(),
        };
        let launcher = RecordingLauncher(Default::default());
        let report = run_family(&run, &ids, &launcher, None, &mut |_msg| {}, &mut |_done| {})
            .expect("run_family");
        assert_eq!(report.done.len(), ids.len(), "every cell completes");
        assert_eq!(report.spawned as usize, launcher.0.borrow().len());
        let _ = std::fs::remove_dir_all(&dir);
        launcher.0.into_inner()
    }

    /// Both ledger tags of the default `figure8_sampled` request, as
    /// the builds that still had the scan back-end switch computed
    /// them: stores and daemon ledgers those builds wrote must resume,
    /// so the literal `legacy=false` stays in both keys.
    #[test]
    fn default_request_tags_match_the_stores_older_builds_wrote() {
        let opts = HarnessOpts::default();
        let req = crate::driver::GridRequest {
            bench: "phased".into(),
            engines: crate::grid::grid_engines().to_vec(),
            widths: crate::grid::FIG8_WIDTHS.to_vec(),
            total: opts.grid_total,
            scfg: opts.grid_sample,
            opts,
        };
        let grid = req.grid();
        let spec = FleetGridSpec {
            bench: "phased",
            grid: &grid,
            scfg: req.scfg,
            total: req.total,
            opts: &opts,
            store_dir: Path::new("unused"),
            procs: 2,
            chaos: None,
            max_retries: 3,
            cell_timeout_s: None,
        };
        assert_eq!(req.family_tag(), 0xa8c1_9684_ce08_138c, "daemon family tag moved");
        assert_eq!(config_tag(&spec), 0xe23b_8570_4e52_98de, "fleet ledger tag moved");
        // Their submit lines carried a `"legacy"` key; it is ignored.
        let line = req.submit_line("old").replace("\"pf\"", "\"legacy\":false,\"pf\"");
        let (_, back) = crate::driver::GridRequest::parse_submit(&line).expect("older submit line");
        assert_eq!(back.family_tag(), req.family_tag());
    }

    #[test]
    fn leases_split_same_range_cells_across_the_pool() {
        let uncapped = HarnessOpts::default().batch;
        // Process workers: the pool splits the grid.
        assert_eq!(leased_groups(uncapped, false, 2, 2, "default"), vec![6, 6]);
        assert_eq!(leased_groups(1, false, 2, 2, "batch1"), vec![1; 12]);
        assert_eq!(leased_groups(uncapped, true, 2, 2, "chaos"), vec![1; 12]);
        // Thread workers (the daemon's cold 12-cell family at procs 2)
        // share one process: only `--batch` splits the group.
        assert_eq!(leased_groups(uncapped, false, 2, 1, "serve"), vec![12]);
        assert_eq!(leased_groups(5, false, 2, 1, "serve-batch5"), vec![5, 5, 2]);
        // A cap below the even split wins; one process takes the grid.
        assert_eq!(lease_group(4, false, 12, 2), 4);
        assert_eq!(lease_group(uncapped, false, 12, 1), 12);
    }

    #[test]
    fn child_args_roundtrip() {
        let args: Vec<String> = [
            "--fleet-cell",
            "stream:8:0-4",
            "--fleet-bench",
            "phased",
            "--fleet-sample",
            "1000000,50000,5000,5000",
            "--fleet-store",
            "/tmp/store",
            "--fleet-jobs",
            "2",
            "--fleet-attempt",
            "1",
            "--fleet-out",
            "/tmp/out.json",
            "--fleet-heartbeat",
            "/tmp/out.hb",
            "--fleet-front",
            "legacy",
            "--fleet-grid-prefetch",
            "shared",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let a = parse_child_args(&args).expect("parses");
        assert_eq!(a.job.cells, vec![CellId::new("stream", 8, 0, 4)]);
        assert_eq!(a.job.outs, vec![PathBuf::from("/tmp/out.json")]);
        assert_eq!(a.bench, "phased");
        assert_eq!(a.attempt, 1);
        assert_eq!(a.job.opts.jobs, 2);
        assert_eq!(a.job.opts.front, crate::FrontMode::Legacy);
        assert_eq!(a.job.opts.grid_prefetch, crate::GridPrefetchMode::Shared);
        assert!(parse_child_args(&args[2..]).is_err(), "missing --fleet-cell is an error");
    }

    #[test]
    fn child_args_carry_cell_groups_in_order() {
        let args: Vec<String> = [
            "--fleet-cell",
            "stream:8:0-4",
            "--fleet-out",
            "/tmp/a.json",
            "--fleet-cell",
            "ev8:8:0-4",
            "--fleet-out",
            "/tmp/b.json",
            "--fleet-bench",
            "phased",
            "--fleet-sample",
            "1000000,50000,5000,5000",
            "--fleet-store",
            "/tmp/store",
            "--fleet-store-cap-bytes",
            "4096",
            "--fleet-out-missing-guard",
        ]
        .iter()
        .take(16) // drop the trailing guard flag; it is not a real arg
        .map(|s| (*s).to_owned())
        .collect();
        let mut full = args.clone();
        full.extend(["--fleet-heartbeat".to_owned(), "/tmp/hb".to_owned()]);
        let a = parse_child_args(&full).expect("parses");
        assert_eq!(
            a.job.cells,
            vec![CellId::new("stream", 8, 0, 4), CellId::new("ev8", 8, 0, 4)],
            "cells keep their flag order"
        );
        assert_eq!(a.job.outs, vec![PathBuf::from("/tmp/a.json"), PathBuf::from("/tmp/b.json")]);
        assert_eq!(a.job.opts.store_cap_bytes, Some(4096));
        // A cell without its out file is a protocol error.
        let mut unbalanced = full.clone();
        unbalanced.extend(["--fleet-cell".to_owned(), "ftb:8:0-4".to_owned()]);
        assert!(parse_child_args(&unbalanced).is_err(), "cells and outs must pair up");
    }

    #[test]
    fn validator_accepts_sealed_and_rejects_mangled() {
        let cell = GridCell { engine: EngineKind::Stream, width: 8 };
        let p = SamplePoint {
            window: 0,
            start_inst: 1,
            committed: 2,
            cycles: 3,
            stall_cycles: 4,
            mispredictions: 5,
        };
        let body = format!("{}\n", point_line(cell, &p));
        let sealed = seal(&body);
        assert!(validate_shard_text(&sealed).is_ok());
        for fault in [chaos::Fault::WriteTruncated, chaos::Fault::WriteCorrupt] {
            let (mangled, _) = chaos::mangle_output(fault, &sealed);
            assert!(validate_shard_text(&mangled).is_err(), "{fault:?} must be rejected");
        }
    }
}
