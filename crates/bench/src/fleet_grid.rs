//! The fleet-backed grid runner: `sfetch_fleet`'s leased-cell
//! supervisor specialized to the sampled engines × widths grid.
//!
//! This module owns the one orchestration path every grid request runs
//! through, and both halves of the worker protocol:
//!
//! * **Family run** — [`run_family`] opens a family's cell ledger under
//!   `<store>/fleet/<tag>/`, sizes the supervisor's leases through
//!   [`lease_group`], and drives
//!   [`sfetch_fleet::run_fleet`] with whatever [`Launcher`] the caller
//!   brings. The launcher is the only difference between `--procs`
//!   (OS processes) and the resident daemon (threads).
//! * **Parent** — [`run_fleet_grid`] decomposes the grid into
//!   *(engine, width, window-range)* cells ([`decompose`]: by default
//!   one window range per worker, every pair over it, so each window is
//!   walked and warmed once), keys the ledger by a config
//!   fingerprint (so a re-invocation with the same experiment resumes
//!   and anything else starts fresh), runs the family over re-spawns of
//!   the current executable, and merges the completed cells through
//!   [`crate::grid::merge_grid`] (strict) or
//!   [`crate::grid::merge_grid_partial`] (degraded, with an explicit
//!   incomplete-cell report) — never a panic.
//! * **Worker** — [`run_cell_group`] is the one worker body: process
//!   children and the daemon's threads both heartbeat, run the group's
//!   shared sweep, seal each cell's shard and write it atomically.
//!   A process child's work order is one argument: `--fleet-req`, the
//!   request's [`GridRequest::submit_line`], decoded by the same
//!   [`GridRequest::parse_submit`] the daemon socket uses. Only what is
//!   per process rides alongside — the `--fleet-cell`/`--fleet-out`
//!   pairs, heartbeat, store, store cap and attempt — and one builder,
//!   `child_args`, writes the whole argv.
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

use std::ffi::{OsStr, OsString};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use sfetch_fleet::{
    chaos, fnv64, now_ms, seal, CellDone, CellId, FleetConfig, FleetError, FleetReport,
    HeartbeatGuard, Launcher, Ledger, ProcessLauncher,
};
use sfetch_sample::{window_range, CheckpointStore, SampleConfig, SamplePoint, ShardSpec};
use sfetch_workloads::Workload;

use crate::driver::{cell_group_bodies, validate_shard_text, GridRequest};
use crate::grid::{
    engine_key, merge_grid, merge_grid_partial, parse_shard_file, write_shard_atomic, CellRun,
    GridCell, GridError, GRID_SHARD_SCHEMA,
};
use crate::{try_workload_by_name, HarnessOpts};

/// How often a worker ([`run_cell_group`]) touches its heartbeat file.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);

/// Everything [`run_fleet_grid`] needs beyond the harness options.
pub struct FleetGridSpec<'a> {
    /// Benchmark name (resolved via [`try_workload_by_name`] in children).
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

/// Decomposes the grid into fleet cells, one per (engine, width) pair
/// and window range, chunk sizes differing by at most one window.
/// `cap` is the lease-group cap ([`lease_group`]'s `batch`, 1 under
/// chaos). When a group can hold every pair (the default), the windows
/// split into `min(procs, windows)` contiguous ranges, so a worker
/// leases the whole grid over its own range and walks and warms each
/// of its windows once. Below that cap (`--batch 1`, small caps,
/// chaos) every pair splits into enough chunks to keep the pool busy
/// (≈ 2 cells per worker), so those runs keep their cell ids and chaos
/// fault schedules.
pub fn decompose(grid: &[GridCell], windows: u64, procs: usize, cap: usize) -> Vec<CellId> {
    let pairs = grid.len().max(1);
    let procs = procs.max(1);
    let target = if cap >= pairs { procs } else { (2 * procs).div_ceil(pairs) };
    let n_chunks = (target as u64).clamp(1, windows.max(1));
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
/// group is same-range cells sharing one batched sweep; over the
/// default [`decompose`] (one range per process) a group is every pair
/// over one range. In-process (thread) workers pass 1: they
/// share one process, and a group's sweep already fans its windows
/// across `--jobs` threads. Chaos runs stay singleton, so the
/// deterministic per-cell fault schedule keeps its meaning.
pub fn lease_group(batch: usize, chaos: bool, n_cells: usize, procs: usize) -> usize {
    lease_cap(batch, chaos).min(n_cells.div_ceil(procs.max(1))).max(1)
}

/// The most cells one lease group may hold: `--batch`, or 1 under chaos.
fn lease_cap(batch: usize, chaos: bool) -> usize {
    if chaos {
        1
    } else {
        batch
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
/// resumes) the family ledger, sizes the leases through
/// [`lease_group`], and drives the supervisor over `launcher`; a ledger
/// that answers every cell launches nothing. `log` gets the
/// supervisor's progress lines; `notify` gets every `Done` cell as it
/// becomes available (see [`sfetch_fleet::run_fleet`]).
///
/// # Errors
///
/// Infrastructure failures only: the ledger or a worker spawn.
pub fn run_family<L: Launcher>(
    run: &FamilyRun<'_>,
    cells: &[CellId],
    launcher: &L,
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
/// populated (one architectural walk,
/// [`sfetch_sample::StoredSampler::populate`], as
/// [`crate::driver::run_request`] does before it calls this).
///
/// # Errors
///
/// Infrastructure failures only; worker failures are retried and, past
/// the budget, reported via [`FleetGridOutcome::incomplete`].
pub fn run_fleet_grid(spec: &FleetGridSpec<'_>) -> Result<FleetGridOutcome, FleetGridError> {
    let windows = spec.scfg.windows(spec.total);
    let cap = lease_cap(spec.opts.batch, spec.chaos.is_some());
    let cell_ids = decompose(spec.grid, windows, spec.procs, cap);
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

    // The workers' work order: this request, over the grid's own axes.
    let mut req = GridRequest {
        bench: spec.bench.to_owned(),
        engines: Vec::new(),
        widths: Vec::new(),
        total: spec.total,
        scfg: spec.scfg,
        opts: *spec.opts,
    };
    for c in spec.grid {
        if !req.engines.contains(&c.engine) {
            req.engines.push(c.engine);
        }
        if !req.widths.contains(&c.width) {
            req.widths.push(c.width);
        }
    }
    let exe = std::env::current_exe()
        .map_err(|e| FleetError::Spawn { cell: "<any>".into(), err: e.to_string() })?;
    let launcher = ProcessLauncher::new(
        |cells: &[CellId], attempts: &[u32], outs: &[PathBuf], hb: &Path| {
            let mut cmd = Command::new(&exe);
            // Chaos (the attempt's only consumer) runs singleton groups,
            // so the first attempt index is the group's.
            let attempt = attempts.first().copied().unwrap_or(0);
            cmd.args(child_args(&req, spec.store_dir, cells, outs, hb, attempt));
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

/// A fleet worker's argv: the group's `--fleet-cell`/`--fleet-out`
/// pairs in matching order, the work order as one `--fleet-req`
/// [`GridRequest::submit_line`], and what belongs to this process alone
/// — heartbeat, store, the request's store cap and the attempt. The one
/// builder of the child protocol; [`maybe_run_fleet_child`] reads it
/// back.
pub(crate) fn child_args(
    req: &GridRequest,
    store_dir: &Path,
    cells: &[CellId],
    outs: &[PathBuf],
    heartbeat: &Path,
    attempt: u32,
) -> Vec<OsString> {
    let mut args: Vec<OsString> = Vec::new();
    let mut push = |flag: &str, value: &OsStr| args.extend([flag.into(), value.to_owned()]);
    for (cell, out) in cells.iter().zip(outs) {
        push("--fleet-cell", cell.to_string().as_ref());
        push("--fleet-out", out.as_ref());
    }
    push("--fleet-req", req.submit_line("fleet").as_ref());
    push("--fleet-heartbeat", heartbeat.as_ref());
    push("--fleet-store", store_dir.as_ref());
    if let Some(cap) = req.opts.store_cap_bytes {
        push("--fleet-store-cap-bytes", cap.to_string().as_ref());
    }
    push("--fleet-attempt", attempt.to_string().as_ref());
    args
}

/// A fleet worker's decoded arguments: the group's work order, the
/// bench to build and the attempt chaos keys its faults on.
struct ChildArgs {
    job: CellGroupJob,
    bench: String,
    attempt: u32,
}

/// Reads [`child_args`] back. The request goes through
/// [`GridRequest::parse_submit`], the parser the daemon socket uses.
fn parse_child_args(args: &[OsString]) -> Result<ChildArgs, String> {
    let mut req = None;
    let mut cells = Vec::new();
    let mut outs = Vec::new();
    let mut heartbeat = None;
    let mut store = None;
    let mut cap = None;
    let mut attempt = 0u32;
    for pair in args.chunks(2) {
        let flag = pair[0].to_string_lossy();
        let value = pair.get(1).ok_or_else(|| format!("{flag} requires a value"))?;
        let text = || value.to_str().ok_or_else(|| format!("{flag}: value is not UTF-8"));
        match &*flag {
            "--fleet-req" => req = Some(GridRequest::parse_submit(text()?)?.1),
            "--fleet-cell" => cells.push(CellId::parse(text()?)?),
            "--fleet-out" => outs.push(PathBuf::from(value)),
            "--fleet-heartbeat" => heartbeat = Some(PathBuf::from(value)),
            "--fleet-store" => store = Some(PathBuf::from(value)),
            "--fleet-store-cap-bytes" => {
                cap = Some(crate::positive(text()?).ok_or_else(|| {
                    format!("--fleet-store-cap-bytes must be >= 1 (got {value:?})")
                })?)
            }
            "--fleet-attempt" => {
                attempt = text()?.parse().map_err(|e| format!("--fleet-attempt: {e}"))?
            }
            other => return Err(format!("unknown fleet child argument {other:?}")),
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
    let req: GridRequest = req.ok_or("--fleet-req is required")?;
    Ok(ChildArgs {
        job: CellGroupJob {
            cells,
            outs,
            heartbeat: heartbeat.ok_or("--fleet-heartbeat is required")?,
            store_dir: store.ok_or("--fleet-store is required")?,
            scfg: req.scfg,
            opts: HarnessOpts { store_cap_bytes: cap, ..req.opts },
        },
        bench: req.bench,
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

    let w = try_workload_by_name(&a.bench).map_err(|e| e.to_string())?;
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
    let args: Vec<OsString> = std::env::args_os().skip(1).collect();
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
        let uncapped = HarnessOpts::default().batch;
        for cap in [1, 5, uncapped] {
            for (windows, procs) in [(4u64, 2usize), (7, 3), (1, 8), (3, 5), (16, 1)] {
                let ids = decompose(&grid, windows, procs, cap);
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
                // A cap that holds every pair gives one range per worker
                // (at most one per window), each range shared by all pairs.
                if cap >= grid.len() {
                    let ranges = procs.min(windows as usize);
                    assert_eq!(ids.len(), grid.len() * ranges, "cap {cap}, {windows}w/{procs}p");
                }
            }
        }
    }

    /// In-process launcher: records each leased group's size and window
    /// range and writes a valid sealed output per cell, so the worker
    /// "exits" at once.
    struct RecordingLauncher(std::cell::RefCell<Vec<(usize, u64, u64)>>);

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
            assert!(cells.iter().all(|c| (c.lo, c.hi) == (cells[0].lo, cells[0].hi)));
            groups.push((cells.len(), cells[0].lo, cells[0].hi));
            for (cell, out) in cells.iter().zip(outs) {
                let header =
                    Row::new().s("schema", GRID_SHARD_SCHEMA).s("cell", &cell.to_string()).finish();
                let body = format!("{header}\n");
                std::fs::write(out, seal(&body)).expect("write cell output");
            }
            Ok(Exited(groups.len() as u64))
        }
    }

    /// The leases [`run_family`] makes for the Fig. 8 grid (4 windows)
    /// with `workers` concurrent workers: per group, its size and window
    /// range. Process workers (`daemon` false) lease the cells
    /// [`run_fleet_grid`] decomposes; the daemon's thread workers share
    /// one process and lease the request's canonical cells, as the
    /// daemon does.
    fn leased_groups(
        batch: usize,
        chaos: bool,
        workers: usize,
        daemon: bool,
        tag: &str,
    ) -> Vec<(usize, u64, u64)> {
        let req = GridRequest { opts: HarnessOpts { batch, ..request().opts }, ..request() };
        assert_eq!(req.windows(), 4, "the Fig. 8 grid over 4 windows");
        let (ids, split) = if daemon {
            (req.canonical_cells(), 1)
        } else {
            (decompose(&req.grid(), req.windows(), workers, lease_cap(batch, chaos)), workers)
        };
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
        let report = run_family(&run, &ids, &launcher, &mut |_msg| {}, &mut |_done| {})
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
        // Process workers: each leases every pair over its own windows.
        assert_eq!(leased_groups(uncapped, false, 2, false, "default"), [(12, 0, 2), (12, 2, 4)]);
        assert_eq!(
            leased_groups(uncapped, false, 3, false, "procs3"),
            [(12, 0, 2), (12, 2, 3), (12, 3, 4)]
        );
        // A cap below the pair count, and chaos, keep the per-pair cells.
        assert_eq!(leased_groups(1, false, 2, false, "batch1"), [(1, 0, 4); 12]);
        assert_eq!(leased_groups(uncapped, true, 2, false, "chaos"), [(1, 0, 4); 12]);
        assert_eq!(leased_groups(5, false, 2, false, "batch5"), [(5, 0, 4), (5, 0, 4), (2, 0, 4)]);
        // Thread workers (the daemon's cold 12-cell family at procs 2)
        // share one process: only `--batch` splits the group.
        assert_eq!(leased_groups(uncapped, false, 2, true, "serve"), [(12, 0, 4)]);
        assert_eq!(
            leased_groups(5, false, 2, true, "serve-batch5"),
            [(5, 0, 4), (5, 0, 4), (2, 0, 4)]
        );
        // A cap below the even split wins; one process takes the grid.
        assert_eq!(lease_group(4, false, 12, 2), 4);
        assert_eq!(lease_group(uncapped, false, 12, 1), 12);
    }

    /// The default Fig. 8 request on a small schedule.
    fn request() -> GridRequest {
        let scfg = SampleConfig::parse("1000000,50000,5000,5000").expect("schedule");
        let opts =
            HarnessOpts { grid_total: 4_000_000, grid_sample: scfg, ..HarnessOpts::default() };
        GridRequest {
            bench: "phased".into(),
            engines: crate::grid::grid_engines().to_vec(),
            widths: crate::grid::FIG8_WIDTHS.to_vec(),
            total: opts.grid_total,
            scfg,
            opts,
        }
    }

    fn os(args: &[&str]) -> Vec<OsString> {
        args.iter().map(OsString::from).collect()
    }

    /// Encodes `req` and `cells` through [`child_args`] and decodes them
    /// as a worker would, next to the work order the daemon's
    /// `ThreadLauncher` builds for the same request: its schedule and
    /// options, the family's store and the leased cells.
    fn round_trip(req: &GridRequest, cells: &[CellId]) -> (ChildArgs, CellGroupJob) {
        let outs: Vec<PathBuf> =
            (0..cells.len()).map(|i| PathBuf::from(format!("/tmp/out-{i}.json"))).collect();
        let (hb, store) = (Path::new("/tmp/out.hb"), Path::new("/tmp/store"));
        let argv = child_args(req, store, cells, &outs, hb, 1);
        let got = parse_child_args(&argv).expect("parses");
        let want = CellGroupJob {
            cells: cells.to_vec(),
            outs,
            heartbeat: hb.to_path_buf(),
            store_dir: store.to_path_buf(),
            scfg: req.scfg,
            opts: req.opts,
        };
        (got, want)
    }

    #[test]
    fn child_args_roundtrip() {
        let cell = [CellId::new("stream", 8, 0, 4)];
        let mut cases = vec![("default", request())];
        let mut legacy = request();
        legacy.opts.front = crate::FrontMode::Legacy;
        legacy.opts.grid_prefetch = crate::GridPrefetchMode::Shared;
        cases.push(("legacy/shared", legacy));
        let mut pf = request();
        pf.opts.prefetch =
            crate::prefetch_config(sfetch_core::PrefetchKind::StreamDirected, Some(4))
                .expect("stream with 4 MSHRs");
        cases.push(("stream, 4 MSHRs", pf));
        let mut banked = request();
        banked.opts.warm_bank = true;
        cases.push(("--warm-bank", banked));
        let mut jobs = request();
        jobs.opts.jobs = 3;
        cases.push(("jobs 3", jobs));
        let mut capped = request();
        capped.opts.store_cap_bytes = Some(4096);
        cases.push(("store cap", capped));
        for (what, req) in &cases {
            let (got, want) = round_trip(req, &cell);
            assert_eq!(got.bench, req.bench, "{what}");
            assert_eq!(got.attempt, 1, "{what}");
            assert_eq!(got.job.cells, want.cells, "{what}");
            assert_eq!(got.job.outs, want.outs, "{what}");
            assert_eq!(got.job.heartbeat, want.heartbeat, "{what}");
            assert_eq!(got.job.store_dir, want.store_dir, "{what}");
            assert_eq!(got.job.scfg, want.scfg, "{what}");
            // `Debug` lists every option field, so this compares them all.
            assert_eq!(format!("{:?}", got.job.opts), format!("{:?}", want.opts), "{what}");
        }
    }

    #[test]
    fn child_args_carry_cell_groups_in_order() {
        let group = [CellId::new("stream", 8, 0, 4), CellId::new("ev8", 8, 0, 4)];
        let (got, want) = round_trip(&request(), &group);
        assert_eq!(got.job.cells, group, "cells keep their flag order");
        assert_eq!(got.job.outs, want.outs, "each cell keeps its out file");
        // A cell without its out file is a protocol error, and so is a
        // missing cell.
        let mut argv =
            child_args(&request(), Path::new("/s"), &group, &want.outs, Path::new("/h"), 0);
        argv.extend(os(&["--fleet-cell", "ftb:8:0-4"]));
        assert!(parse_child_args(&argv).is_err(), "cells and outs must pair up");
        let no_cell = child_args(&request(), Path::new("/s"), &[], &[], Path::new("/h"), 0);
        assert!(parse_child_args(&no_cell).is_err(), "missing --fleet-cell is an error");
    }

    /// Outside bytes on the child's command line: an unknown bench, a
    /// malformed or missing request, a dangling flag. Each is an error
    /// for `maybe_run_fleet_child` to report, never a panic.
    #[test]
    fn child_args_reject_hostile_requests() {
        let cell = [CellId::new("stream", 8, 0, 4)];
        let outs = [PathBuf::from("/tmp/o.json")];
        let argv = child_args(&request(), Path::new("/s"), &cell, &outs, Path::new("/h"), 0);
        let at = argv.iter().position(|a| a == "--fleet-req").expect("request flag") + 1;
        let line = argv[at].to_str().expect("utf-8").to_owned();
        let with_req = |line: &str| {
            let mut argv = argv.clone();
            argv[at] = line.into();
            parse_child_args(&argv).err()
        };
        let err = with_req(&line.replace("\"phased\"", "\"nope\"")).expect("unknown bench");
        assert!(err.contains("unknown benchmark \"nope\""), "{err}");
        for bad in ["", "{", "not json", &line.replace("\"submit\"", "\"tail\"")] {
            assert!(with_req(bad).is_some(), "malformed request {bad:?} must be rejected");
        }
        let mut no_req = argv.clone();
        no_req.drain(at - 1..=at);
        assert!(parse_child_args(&no_req).is_err(), "missing --fleet-req is an error");
        let mut dangling = argv.clone();
        dangling.push("--fleet-attempt".into());
        assert!(parse_child_args(&dangling).is_err(), "a flag without its value is an error");
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
