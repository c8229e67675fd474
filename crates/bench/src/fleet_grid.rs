//! The fleet-backed grid runner: `sfetch_fleet`'s leased-cell
//! supervisor specialized to the sampled engines × widths grid.
//!
//! This module owns the one orchestration path every multi-worker grid
//! request runs through, and its one worker body:
//!
//! * **Family run** — [`run_family`] opens a family's cell ledger under
//!   `<store>/fleet/<tag>/`, sizes the supervisor's leases through
//!   [`lease_group`], and drives [`sfetch_fleet::run_fleet`] with the
//!   worker body on threads of this process. `--procs` grids and the
//!   resident daemon both run their families through it.
//! * **Grid run** — [`run_fleet_grid`] builds the workload once, leases
//!   the request's canonical cells (one per (engine, width) pair over
//!   every window, as the daemon does), keys the ledger by a config
//!   fingerprint (so a re-invocation with the same experiment resumes
//!   and anything else starts fresh), runs the family on `procs` worker
//!   threads, and merges the completed cells through
//!   [`crate::grid::merge_grid`] (strict) or
//!   [`crate::grid::merge_grid_partial`] (degraded, with an explicit
//!   incomplete-cell report) — never a panic.
//! * **Worker** — [`cell_group_worker`] is the one worker body: it runs
//!   the group's shared sweep and returns each cell's sealed shard text;
//!   the supervisor validates it and writes it next to the ledger. Under
//!   `--chaos` it first consults the deterministic fault schedule and
//!   fails, stalls or mangles its output accordingly — the supervisor is
//!   deliberately left unaware.
//!
//! Because each cell's windows resume from checkpoints that derive only
//! from the workload (never from which worker ran them or how often),
//! any interleaving of crashes, retries, and resumes converges to the
//! same merged bytes — the property the chaos tests and the CI leg
//! assert.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use sfetch_fleet::chaos::{fault_for, mangle_output, Fault};
use sfetch_fleet::{
    fnv64, now_ms, seal, CellDone, CellId, FleetConfig, FleetError, FleetReport, Ledger,
};
use sfetch_sample::{CheckpointStore, SampleConfig, SamplePoint};
use sfetch_workloads::Workload;

use crate::driver::{canonical_cells, cell_group_bodies, validate_shard_text};
use crate::grid::{
    engine_key, merge_grid, merge_grid_partial, parse_shard_file, CellRun, GridCell, GridError,
    GRID_SHARD_SCHEMA,
};
use crate::{try_workload_by_name, HarnessOpts};

/// Everything [`run_fleet_grid`] needs beyond the harness options.
pub struct FleetGridSpec<'a> {
    /// Benchmark name (resolved via [`try_workload_by_name`]).
    pub bench: &'a str,
    /// The (engine, width) grid.
    pub grid: &'a [GridCell],
    /// Sampling schedule.
    pub scfg: SampleConfig,
    /// Total committed instructions (determines the window count).
    pub total: u64,
    /// Simulation-model options the workers run under.
    pub opts: &'a HarnessOpts,
    /// The checkpoint store directory; the fleet's ledger and cell
    /// outputs live under `<store>/fleet/`.
    pub store_dir: &'a Path,
    /// Maximum concurrent worker threads.
    pub procs: usize,
    /// Chaos seed (`--chaos N`): the worker body injects its faults.
    /// Part of the ledger fingerprint, so chaos runs never resume a
    /// clean run's ledger or vice versa.
    pub chaos: Option<u64>,
    /// Per-cell retry budget (`--max-retries N`).
    pub max_retries: u32,
    /// Optional per-cell timeout override in seconds
    /// (`--cell-timeout SECS`): sets the timeout floor/initial guess,
    /// for tests and smoke legs that need fast straggler detection.
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

/// Errors out of the grid orchestration: fleet infrastructure or grid
/// merge trouble.
#[derive(Debug)]
pub enum FleetGridError {
    /// The fleet layer failed (ledger, worker start).
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

/// Cells leased to one worker: `--batch`, or 1 under chaos (so the
/// deterministic per-cell fault schedule keeps its meaning), at most
/// `n_cells`. A group is same-range cells sharing one batched sweep,
/// and that sweep already fans its windows across `--jobs` threads, so
/// the default lease is every cell of the family in one group.
pub fn lease_group(batch: usize, chaos: bool, n_cells: usize) -> usize {
    let cap = if chaos { 1 } else { batch };
    cap.min(n_cells).max(1)
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
    /// `--batch` cap on a lease group.
    pub batch: usize,
    /// Chaos runs lease singleton groups.
    pub chaos: bool,
    /// Per-cell retry budget.
    pub max_retries: u32,
    /// Optional per-cell timeout in seconds: sets the timeout floor and
    /// initial guess.
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
/// [`lease_group`], and drives the supervisor with `body` as the worker
/// ([`cell_group_worker`] in production); a ledger that answers every
/// cell starts nothing. `log` gets the
/// supervisor's progress lines; `notify` gets every `Done` cell as it
/// becomes available (see [`sfetch_fleet::run_fleet`]).
///
/// # Errors
///
/// Infrastructure failures only: the ledger or a worker start.
pub fn run_family<F>(
    run: &FamilyRun<'_>,
    cells: &[CellId],
    body: F,
    log: &mut dyn FnMut(&str),
    notify: &mut dyn FnMut(&CellDone),
) -> Result<FleetReport, FleetError>
where
    F: Fn(&[CellId], &[u32]) -> Result<Vec<String>, String> + Send + Sync + 'static,
{
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
    cfg.group = lease_group(run.batch, run.chaos, cells.len());
    if let Some(s) = run.cell_timeout_s {
        let ms = s.max(1) * 1000;
        cfg.timeout_floor_ms = ms;
        cfg.timeout_initial_ms = ms;
    }
    sfetch_fleet::run_fleet(&cfg, &mut ledger, body, &validate_shard_text, resume, log, notify)
}

/// Runs the grid under the fleet supervisor on `spec.procs` worker
/// threads of this process, building the workload first.
///
/// # Errors
///
/// An unknown bench, or infrastructure failures; worker failures are
/// retried and, past the budget, reported via
/// [`FleetGridOutcome::incomplete`].
pub fn run_fleet_grid(spec: &FleetGridSpec<'_>) -> Result<FleetGridOutcome, FleetGridError> {
    let w = Arc::new(try_workload_by_name(spec.bench)?);
    run_fleet_grid_on(&w, spec)
}

/// [`run_fleet_grid`] on a workload the caller already built.
pub(crate) fn run_fleet_grid_on(
    w: &Arc<Workload>,
    spec: &FleetGridSpec<'_>,
) -> Result<FleetGridOutcome, FleetGridError> {
    let windows = spec.scfg.windows(spec.total);
    let run = FamilyRun {
        tag: config_tag(spec),
        store_dir: spec.store_dir,
        workers: spec.procs,
        batch: spec.opts.batch,
        chaos: spec.chaos.is_some(),
        max_retries: spec.max_retries,
        cell_timeout_s: spec.cell_timeout_s,
        req: String::new(),
    };
    let body = cell_group_worker(
        Arc::clone(w),
        spec.store_dir.to_path_buf(),
        spec.scfg,
        *spec.opts,
        spec.chaos,
    );
    let report = run_family(
        &run,
        &canonical_cells(spec.grid, windows),
        body,
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
// The worker body
// ---------------------------------------------------------------------

/// The one worker body, shared by `--procs` grids and the daemon: for a
/// leased group it opens the store, runs the group's shared sweep
/// ([`cell_group_bodies`]) and returns each cell's sealed body, in cell
/// order.
///
/// With a `chaos` seed it first asks [`fault_for`] about the group's
/// first cell and attempt (chaos runs lease singleton groups, so the
/// first cell *is* the group). A crash fails at once, a stall sleeps
/// forever (the deadline catches it, and the kill detaches the thread),
/// truncation and corruption mangle the sealed texts, and a lying exit
/// fails after computing valid texts.
pub fn cell_group_worker(
    w: Arc<Workload>,
    store_dir: PathBuf,
    scfg: SampleConfig,
    opts: HarnessOpts,
    chaos: Option<u64>,
) -> impl Fn(&[CellId], &[u32]) -> Result<Vec<String>, String> + Send + Sync + 'static {
    move |cells: &[CellId], attempts: &[u32]| {
        let fault = match (chaos, cells.first(), attempts.first()) {
            (Some(seed), Some(cell), Some(&attempt)) => fault_for(seed, cell, attempt),
            _ => Fault::None,
        };
        match fault {
            Fault::CrashEarly => return Err("chaos: crashed before any work".to_owned()),
            Fault::Stall => loop {
                std::thread::sleep(Duration::from_secs(3600));
            },
            _ => {}
        }
        let store = CheckpointStore::open(&store_dir)
            .map_err(|e| format!("open store: {e}"))?
            .with_cap_bytes(opts.store_cap_bytes);
        let bodies = cell_group_bodies(&w, cells, scfg, &opts, &store)?;
        let (texts, lies): (Vec<String>, Vec<bool>) =
            bodies.iter().map(|body| mangle_output(fault, &seal(body))).unzip();
        if lies.contains(&true) {
            return Err("chaos: failed after computing valid output".to_owned());
        }
        Ok(texts)
    }
}

/// Does nothing. Grid workers are threads of the requesting process,
/// so no process is ever started as a fleet worker; this stays only for
/// callers written when one was.
pub fn maybe_run_fleet_child() {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::GridRequest;
    use crate::grid::point_line;
    use sfetch_fetch::EngineKind;
    use sfetch_obs::Row;

    /// The leases [`run_family`] makes for the Fig. 8 grid's canonical
    /// cells (4 windows) with `workers` concurrent workers: per group,
    /// its size and window range.
    fn leased_groups(
        batch: usize,
        chaos: bool,
        workers: usize,
        tag: &str,
    ) -> Vec<(usize, u64, u64)> {
        let req = GridRequest { opts: HarnessOpts { batch, ..request().opts }, ..request() };
        assert_eq!(req.windows(), 4, "the Fig. 8 grid over 4 windows");
        let ids = req.canonical_cells();
        let dir = std::env::temp_dir()
            .join(format!("sfetch-lease-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = FamilyRun {
            tag: 1,
            store_dir: &dir,
            workers,
            batch,
            chaos,
            max_retries: 3,
            cell_timeout_s: None,
            req: String::new(),
        };
        // A recording body: notes each leased group's size and window
        // range and returns a valid sealed output per cell at once.
        let groups = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen = Arc::clone(&groups);
        let body = move |cells: &[CellId], _attempts: &[u32]| {
            assert!(cells.iter().all(|c| (c.lo, c.hi) == (cells[0].lo, cells[0].hi)));
            seen.lock().expect("groups").push((cells.len(), cells[0].lo, cells[0].hi));
            Ok(cells
                .iter()
                .map(|cell| {
                    let header = Row::new()
                        .s("schema", GRID_SHARD_SCHEMA)
                        .s("cell", &cell.to_string())
                        .finish();
                    seal(&format!("{header}\n"))
                })
                .collect())
        };
        let report = run_family(&run, &ids, body, &mut |_msg| {}, &mut |_done| {})
            .expect("run_family");
        assert_eq!(report.done.len(), ids.len(), "every cell completes");
        // Worker threads record in the order they run, not the order
        // they were leased: compare the groups largest first.
        let mut groups = groups.lock().expect("groups").clone();
        groups.sort_by(|a, b| b.cmp(a));
        assert_eq!(report.spawned as usize, groups.len());
        let _ = std::fs::remove_dir_all(&dir);
        groups
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
        // Worker threads share one process, and a group's sweep fans its
        // windows across `--jobs`: only `--batch` splits the group.
        assert_eq!(leased_groups(uncapped, false, 2, "default"), [(12, 0, 4)]);
        assert_eq!(leased_groups(5, false, 2, "batch5"), [(5, 0, 4), (5, 0, 4), (2, 0, 4)]);
        // `--batch 1` and chaos lease one cell per pair.
        assert_eq!(leased_groups(1, false, 2, "batch1"), [(1, 0, 4); 12]);
        assert_eq!(leased_groups(uncapped, true, 2, "chaos"), [(1, 0, 4); 12]);
        assert_eq!(lease_group(4, false, 12), 4);
        assert_eq!(lease_group(uncapped, false, 12), 12);
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
        for fault in [Fault::WriteTruncated, Fault::WriteCorrupt] {
            let (mangled, _) = mangle_output(fault, &sealed);
            assert!(validate_shard_text(&mangled).is_err(), "{fault:?} must be rejected");
        }
    }
}
