//! Shared driver plumbing for the sampled-grid binaries and the
//! resident daemon (`sfetch-serve`).
//!
//! `figure8_sampled`, `figure9_sampled` and the daemon share one
//! argument parser, store resolution, populate, fleet dispatch and
//! degradation exit codes, so the one-shot bins and the resident path
//! can never drift apart.
//!
//! The module also defines the **line-JSON serve protocol**: a
//! [`GridRequest`] (one experiment = one benchmark's engines × widths
//! grid under one sampling schedule) serializes to a single `submit`
//! line over a Unix socket, and the daemon streams [`ServeEvent`] lines
//! back — `accepted`, one `cell` per completed ledger cell, one `point`
//! per sampled window, per-cell `estimate` updates, and a terminal
//! `final` carrying the request's singleflight counters. A client
//! merges the streamed points with the same [`crate::grid::merge_grid`]
//! the one-shot bins use, so the final table is **byte-identical** to a
//! local run.
//!
//! Requests that must share work carry the same [`GridRequest::family_tag`]
//! — the fingerprint of everything a cell's output bytes depend on
//! (bench, schedule, horizon, simulated model), deliberately *excluding*
//! the engine/width axes, job counts and warm-state banking. Two
//! overlapping requests therefore map to the same ledger family, and the
//! ledger's cell states are the cross-request singleflight: a cell is
//! computed once, streamed to every subscriber, and resumed with zero
//! recomputation on resubmit.

use std::path::{Path, PathBuf};

use sfetch_fetch::EngineKind;
use sfetch_fleet::{fnv64, CellId};
use sfetch_obs::jsonl::{optional, Obj, Row};
use sfetch_sample::{CheckpointStore, SampleConfig, SamplePoint, StoredSampler};
use sfetch_workloads::{LayoutChoice, Workload};

use crate::fleet_grid::{degradation_exit, run_fleet_grid, FleetGridError, FleetGridSpec};
use crate::grid::{
    cells, engine_key, parse_engines, parse_widths, point_fields, point_line, read_point,
    run_cells_batched, CellRun, GridCell, GridError, GRID_SHARD_SCHEMA,
};
use crate::obs::ObsOpts;
use crate::{flag_value, number, positive, HarnessOpts};

/// Exits with a readable message instead of a panic backtrace.
pub fn or_die<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

// ---------------------------------------------------------------------
// Unified CLI
// ---------------------------------------------------------------------

/// Per-binary defaults for [`CommonArgs::parse`].
pub struct ArgDefaults {
    /// Default `--bench`/`--benches` list.
    pub benches: &'static str,
    /// Default `--engines` spec.
    pub engines: &'static str,
    /// Default `--widths` spec.
    pub widths: &'static str,
    /// Default `--procs`.
    pub procs: usize,
}

/// The command-line surface shared by `figure8_sampled`,
/// `figure9_sampled` and `sfetch-serve submit`. Flags a given binary
/// does not act on are accepted and ignored — the cost of one parser
/// that can never drift between the one-shot and resident paths.
pub struct CommonArgs {
    /// Harness options (`--grid-total`, `--jobs`, `--warm-bank`, …).
    pub opts: HarnessOpts,
    /// `--bench NAME` / `--benches A,B,…` (synonyms).
    pub benches: Vec<String>,
    /// `--engines all|stream,ev8,…`, parsed.
    pub engines: Vec<EngineKind>,
    /// `--widths all|2,4,8`, parsed.
    pub widths: Vec<usize>,
    /// `--procs N`.
    pub procs: usize,
    /// `--verify`.
    pub verify: bool,
    /// `--store DIR` (persistent checkpoint store).
    pub store: Option<String>,
    /// `--chaos SEED`.
    pub chaos: Option<u64>,
    /// `--max-retries N`.
    pub max_retries: u32,
    /// `--cell-timeout SECS`.
    pub cell_timeout: Option<u64>,
    /// `--serve SOCKET`: submit to a resident `sfetch-serve` daemon at
    /// this Unix socket instead of simulating locally.
    pub serve: Option<PathBuf>,
    /// `--req ID`: request id used with `--serve` (default: derived
    /// from the process id).
    pub req_id: Option<String>,
    /// Observability options (`--obs-dir`, `--interval`, `--ptrace`).
    pub obs: ObsOpts,
}

impl CommonArgs {
    /// Parses the process arguments (see [`CommonArgs::parse_list`]),
    /// exiting with `error: …` and status 1 on malformed arguments.
    pub fn parse(d: &ArgDefaults) -> Self {
        or_die(Self::parse_list(std::env::args().skip(1).collect(), d))
    }

    /// Parses an explicit argument list. Flags this parser does not own
    /// pass through, in order, to [`HarnessOpts::from_arg_list`], which
    /// rejects unknown ones.
    ///
    /// # Errors
    ///
    /// [`GridError::Cli`] on an unknown flag, a missing or malformed
    /// value, or an out-of-range count; [`GridError::UnknownBench`] on
    /// a `--bench` name no workload answers to.
    pub fn parse_list(args: Vec<String>, d: &ArgDefaults) -> Result<Self, GridError> {
        let mut benches = d.benches.to_owned();
        let mut engines = d.engines.to_owned();
        let mut widths = d.widths.to_owned();
        let mut procs = d.procs;
        let mut verify = false;
        let mut store = None;
        let mut chaos = None;
        let mut max_retries = 3u32;
        let mut cell_timeout = None;
        let mut serve = None;
        let mut req_id = None;
        let mut rest: Vec<String> = Vec::new();
        let text = |i: usize| flag_value(&args, i, "a value", |v| Some(v.to_owned()));
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--bench" | "--benches" => benches = text(i)?,
                "--engines" => engines = text(i)?,
                "--widths" => widths = text(i)?,
                "--procs" => procs = flag_value(&args, i, "a number >= 1", positive)?,
                "--store" => store = Some(text(i)?),
                "--chaos" => chaos = Some(flag_value(&args, i, "a seed", number)?),
                "--max-retries" => max_retries = flag_value(&args, i, "a number", number)?,
                "--cell-timeout" => cell_timeout = Some(flag_value(&args, i, "seconds", number)?),
                "--serve" => serve = Some(PathBuf::from(text(i)?)),
                "--req" => req_id = Some(text(i)?),
                "--verify" => {
                    verify = true;
                    i += 1;
                    continue;
                }
                // Everything else (harness flags, their values, the
                // observability flags) passes through in order.
                other => {
                    rest.push(other.to_owned());
                    i += 1;
                    continue;
                }
            }
            i += 2;
        }
        let obs = ObsOpts::extract(&mut rest)?;
        let benches: Vec<String> = benches.split(',').map(|b| b.trim().to_owned()).collect();
        for b in &benches {
            crate::check_bench(b)?;
        }
        Ok(CommonArgs {
            opts: HarnessOpts::from_arg_list(&rest)?,
            benches,
            engines: parse_engines(&engines)?,
            widths: parse_widths(&widths)?,
            procs,
            verify,
            store,
            chaos,
            max_retries,
            cell_timeout,
            serve,
            req_id,
            obs,
        })
    }

    /// The single-benchmark binaries' bench name (first of the list).
    pub fn bench(&self) -> &str {
        &self.benches[0]
    }

    /// Builds this invocation's serve-protocol request for one
    /// benchmark on the grid schedule (`--grid-total`/`--grid-sample`).
    pub fn request(&self, bench: &str) -> GridRequest {
        GridRequest {
            bench: bench.to_owned(),
            engines: self.engines.clone(),
            widths: self.widths.clone(),
            total: self.opts.grid_total,
            scfg: self.opts.grid_sample,
            opts: self.opts,
        }
    }
}

// ---------------------------------------------------------------------
// One-shot plumbing shared by the bins
// ---------------------------------------------------------------------

/// Resolves the checkpoint-store directory: an explicit `--store DIR`
/// persists, otherwise `fallback` is used and flagged temporary.
pub fn resolve_store(cli: Option<&str>, fallback: PathBuf) -> (PathBuf, bool) {
    match cli {
        Some(dir) => (PathBuf::from(dir), false),
        None => (fallback, true),
    }
}

/// Populates a workload's warming-start checkpoints (one architectural
/// walk; pure verification traffic on a warm store) and prints the
/// store-readiness line the CI smoke legs grep for, after `prefix`.
pub fn populate_store(
    w: &Workload,
    scfg: SampleConfig,
    windows: u64,
    store: &CheckpointStore,
    prefix: &str,
) {
    let img = w.image(LayoutChoice::Optimized);
    let fp = w.fingerprint(LayoutChoice::Optimized);
    let mut populate = StoredSampler::new(img, fp, w.ref_seed(), scfg, store);
    let computed = populate.populate(windows);
    eprintln!(
        "{prefix} {windows} windows ready ({computed} computed, {} loaded warm)",
        populate.stats().hits
    );
}

/// Drops a temporary store, or announces a kept persistent one.
pub fn finish_store(store_is_temp: bool, store_dir: &Path, store: &CheckpointStore, announce: bool) {
    if store_is_temp {
        let _ = std::fs::remove_dir_all(store_dir);
    } else if announce {
        println!("store kept at {} ({} entries)", store_dir.display(), store.entries());
    }
}

/// The fleet-supervised fan-out: leased cells, retries, resume, chaos.
/// Returns the merged runs and whether the result is degraded (some
/// cells permanently failed; the degradation report has been printed
/// and recorded).
///
/// # Errors
///
/// Infrastructure failures only ([`FleetGridError`]).
pub fn run_fleet_cells(
    a: &CommonArgs,
    bench: &str,
    grid: &[GridCell],
    store_dir: &Path,
    procs: usize,
) -> Result<(Vec<CellRun>, bool), FleetGridError> {
    let outcome = run_fleet_grid(&FleetGridSpec {
        bench,
        grid,
        scfg: a.opts.grid_sample,
        total: a.opts.grid_total,
        opts: &a.opts,
        store_dir,
        procs,
        chaos: a.chaos,
        max_retries: a.max_retries,
        cell_timeout_s: a.cell_timeout,
    })?;
    let degraded = degradation_exit(&outcome) != 0;
    Ok((outcome.runs, degraded))
}

/// Runs a **compatible group** of [`CellId`]s (same window range) and
/// renders one shard body per cell — the single code path behind fleet
/// worker processes and the daemon's in-process workers. The whole
/// group shares one batched sweep per window
/// ([`crate::grid::run_cells_batched`]), the point the fleet's group
/// leasing exists for; bodies are byte-identical for any group shape.
///
/// # Errors
///
/// A readable message on an unknown engine key or a range-incompatible
/// group.
pub fn cell_group_bodies(
    w: &Workload,
    cells: &[CellId],
    scfg: SampleConfig,
    opts: &HarnessOpts,
    store: &CheckpointStore,
) -> Result<Vec<String>, String> {
    let first = cells.first().ok_or("empty cell group")?;
    let mut grid_cells = Vec::with_capacity(cells.len());
    for cell in cells {
        if cell.lo != first.lo || cell.hi != first.hi {
            return Err(format!(
                "cell group mixes window ranges ({first} vs {cell}) — cannot share a sweep"
            ));
        }
        let engine = *parse_engines(&cell.engine)
            .map_err(|e| e.to_string())?
            .first()
            .ok_or("empty engine")?;
        grid_cells.push(GridCell { engine, width: cell.width });
    }
    let range = first.lo..first.hi;
    let (per_cell, _) =
        run_cells_batched(w, &grid_cells, grid_cells.len(), scfg, opts, store, range);
    let mut bodies = Vec::with_capacity(cells.len());
    for ((cell, grid_cell), pts) in cells.iter().zip(&grid_cells).zip(per_cell) {
        let mut body = Row::new()
            .s("schema", GRID_SHARD_SCHEMA)
            .s("cell", &cell.to_string())
            .s("bench", w.name())
            .finish();
        body.push('\n');
        for p in &pts {
            body.push_str(&point_line(*grid_cell, p));
            body.push('\n');
        }
        debug_assert!(
            crate::grid::parse_shard_body(&body).is_ok(),
            "cell bodies must parse back"
        );
        bodies.push(body);
    }
    Ok(bodies)
}

/// The shard-output validator shared by every ledger consumer (fleet
/// parents, the daemon): the trailer must verify and every point line
/// must parse. Returns the digest of the full sealed text.
///
/// # Errors
///
/// A readable message on trailer or parse failure.
pub fn validate_shard_text(text: &str) -> Result<u64, String> {
    crate::grid::parse_shard_file(text).map_err(|e| e.to_string())?;
    Ok(fnv64(text.as_bytes()))
}

// ---------------------------------------------------------------------
// The serve protocol
// ---------------------------------------------------------------------

/// Protocol schema tag, carried on `accepted` events; bump on any
/// incompatible wire change.
pub const SERVE_SCHEMA: &str = "sfetch-serve-v1";

/// One experiment request: a benchmark's engines × widths grid under
/// one sampling schedule. Serializes to a single `submit` line.
#[derive(Debug, Clone)]
pub struct GridRequest {
    /// Benchmark name (suite member or `phased`).
    pub bench: String,
    /// Engine axis.
    pub engines: Vec<EngineKind>,
    /// Width axis.
    pub widths: Vec<usize>,
    /// Sampled instruction horizon.
    pub total: u64,
    /// Sampling schedule.
    pub scfg: SampleConfig,
    /// Simulated-model options (prefetch, front pipeline, grid
    /// prefetch) plus jobs/warm-bank execution knobs.
    pub opts: HarnessOpts,
}

impl GridRequest {
    /// The request's grid cells (width-major, like the bins).
    pub fn grid(&self) -> Vec<GridCell> {
        cells(&self.engines, &self.widths)
    }

    /// Number of sampled windows per cell.
    pub fn windows(&self) -> u64 {
        self.scfg.windows(self.total)
    }

    /// The fingerprint of everything a cell's **output bytes** depend
    /// on — and nothing else. Engine/width axes are deliberately
    /// excluded (each cell already carries its own), as are `jobs`,
    /// `batch` and `warm_bank` (host-time knobs, bit-identical
    /// results): two overlapping requests must land in the same ledger
    /// family so the ledger dedupes their shared cells. The key keeps
    /// the literal `legacy=false` of builds that could select the scan
    /// back end, so families their daemons left in a store still resume.
    pub fn family_tag(&self) -> u64 {
        let key = format!(
            "serve-family|{GRID_SHARD_SCHEMA}|{}|{}|{}|legacy=false|pf={}:{}|front={}|gridpf={}",
            self.bench,
            self.scfg.to_spec(),
            self.total,
            self.opts.prefetch.kind,
            self.opts.prefetch.mshrs,
            self.opts.front.as_str(),
            self.opts.grid_prefetch.as_str(),
        );
        fnv64(key.as_bytes())
    }

    /// The request's **canonical** ledger cells: exactly one [`CellId`]
    /// per (engine, width) pair covering every window. Canonical (never
    /// chunked by a proc count) so that overlapping requests produce
    /// identical cell ids — the dedup key.
    pub fn canonical_cells(&self) -> Vec<CellId> {
        let windows = self.windows();
        self.grid()
            .iter()
            .map(|c| CellId::new(engine_key(c.engine), c.width, 0, windows))
            .collect()
    }

    /// Renders the `submit` line for this request.
    pub fn submit_line(&self, id: &str) -> String {
        Row::new()
            .s("op", "submit")
            .s("id", id)
            .s("bench", &self.bench)
            .s(
                "engines",
                &self.engines.iter().map(|&k| engine_key(k)).collect::<Vec<_>>().join(","),
            )
            .s(
                "widths",
                &self.widths.iter().map(|w| w.to_string()).collect::<Vec<_>>().join(","),
            )
            .u("total", self.total)
            .s("sample", &self.scfg.to_spec())
            .s("pf", &self.opts.prefetch.kind.to_string())
            .u("mshrs", self.opts.prefetch.mshrs as u64)
            .s("front", self.opts.front.as_str())
            .s("gridpf", self.opts.grid_prefetch.as_str())
            .u("jobs", self.opts.jobs as u64)
            .u("batch", self.opts.batch as u64)
            .b("warm_bank", self.opts.warm_bank)
            .finish()
    }

    /// Parses a `submit` line back into `(request id, request)`.
    ///
    /// # Errors
    ///
    /// A readable message on a malformed line, including the
    /// [`GridError::UnknownBench`] text for a bench no workload answers
    /// to.
    pub fn parse_submit(line: &str) -> Result<(String, GridRequest), String> {
        let obj = Obj::parse(line)?;
        if obj.s("op")? != "submit" {
            return Err("not a submit line".into());
        }
        let id = obj.s("id")?.to_owned();
        if id.is_empty() {
            return Err("submit: empty id".into());
        }
        let bench = obj.s("bench")?.to_owned();
        crate::check_bench(&bench).map_err(|e| e.to_string())?;
        let engines = parse_engines(obj.s("engines")?).map_err(|e| e.to_string())?;
        let widths = parse_widths(obj.s("widths")?).map_err(|e| e.to_string())?;
        let total = obj.u("total")?;
        let scfg = SampleConfig::parse(obj.s("sample")?).map_err(|e| e.to_string())?;
        let mut opts = HarnessOpts {
            grid_total: total,
            grid_sample: scfg,
            warm_bank: optional(obj.b("warm_bank"))?.unwrap_or(false),
            ..HarnessOpts::default()
        };
        for (key, slot) in [("jobs", &mut opts.jobs), ("batch", &mut opts.batch)] {
            if let Some(v) = optional(obj.u::<u64>(key))? {
                *slot = usize::try_from(v).ok().filter(|&v| v >= 1).ok_or_else(|| {
                    GridError::Cli(format!("submit: {key} must be >= 1 (got {v})")).to_string()
                })?;
            }
        }
        if let Some(front) = optional(obj.s("front"))? {
            opts.front =
                crate::FrontMode::parse(front).ok_or_else(|| format!("bad front {front:?}"))?;
        }
        if let Some(gridpf) = optional(obj.s("gridpf"))? {
            opts.grid_prefetch = crate::GridPrefetchMode::parse(gridpf)
                .ok_or_else(|| format!("bad gridpf {gridpf:?}"))?;
        }
        let pf = optional(obj.s("pf"))?.unwrap_or("none");
        let kind =
            sfetch_core::PrefetchKind::parse(pf).ok_or_else(|| format!("bad pf {pf:?}"))?;
        opts.prefetch = if kind == sfetch_core::PrefetchKind::None {
            sfetch_core::PrefetchConfig::none()
        } else {
            sfetch_core::PrefetchConfig::enabled(kind)
        };
        if let Some(m) = optional(obj.u::<u64>("mshrs"))? {
            if kind == sfetch_core::PrefetchKind::None {
                // `submit_line` always writes the field; 0 is the only
                // value consistent with a disabled prefetcher.
                if m > 0 {
                    return Err(GridError::Cli(format!(
                        "submit: mshrs {m} given but prefetch is \"none\""
                    ))
                    .to_string());
                }
            } else {
                opts.prefetch.mshrs =
                    usize::try_from(m).ok().filter(|&m| m >= 1).ok_or_else(|| {
                        GridError::Cli(format!(
                            "submit: mshrs must be >= 1 with prefetch {kind} (got {m})"
                        ))
                        .to_string()
                    })?;
            }
        }
        Ok((id, GridRequest { bench, engines, widths, total, scfg, opts }))
    }
}

/// One line of the daemon's result stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeEvent {
    /// Reply to `{"op":"ping"}` — the CI readiness probe.
    Pong,
    /// The request was parsed and scheduled.
    Accepted {
        /// Request id.
        req: String,
        /// Canonical cell count.
        cells: u64,
        /// Windows per cell.
        windows: u64,
    },
    /// One canonical cell completed (or was resumed from the ledger).
    Cell {
        /// Request id.
        req: String,
        /// The canonical cell id.
        cell: String,
        /// Served from the ledger without any fresh compute.
        resumed: bool,
        /// How many requests of the batch subscribe to this cell.
        shared_by: u64,
    },
    /// One sampled window of a completed cell.
    Point {
        /// Engine key (`stream`/`ev8`/`ftb`/`tcache`).
        engine: String,
        /// Pipe width.
        width: usize,
        /// The measurement.
        point: SamplePoint,
    },
    /// Running confidence-interval update for one (engine, width) after
    /// its cell completed.
    Estimate {
        /// Engine key.
        engine: String,
        /// Pipe width.
        width: usize,
        /// Windows merged so far.
        windows: u64,
        /// Sampled IPC.
        ipc: f64,
        /// CI lower bound.
        lo: f64,
        /// CI upper bound.
        hi: f64,
    },
    /// Terminal event: the request's merge is complete (or degraded).
    Final {
        /// Request id.
        req: String,
        /// `complete` or `degraded`.
        status: String,
        /// Cells computed fresh for this request's batch.
        computed: u64,
        /// Cells served from the ledger (singleflight hits across
        /// daemon restarts and resubmits).
        resumed: u64,
        /// Cells shared with another in-batch request (singleflight
        /// hits across concurrent requests).
        shared: u64,
    },
    /// Terminal event: the request failed.
    Error {
        /// Request id (may be empty when the submit line didn't parse).
        req: String,
        /// What went wrong.
        msg: String,
    },
}

impl ServeEvent {
    /// Renders the event as one stream line.
    pub fn to_line(&self) -> String {
        match self {
            ServeEvent::Pong => Row::new().s("ev", "pong").s("schema", SERVE_SCHEMA).finish(),
            ServeEvent::Accepted { req, cells, windows } => Row::new()
                .s("ev", "accepted")
                .s("schema", SERVE_SCHEMA)
                .s("req", req)
                .u("cells", *cells)
                .u("windows", *windows)
                .finish(),
            ServeEvent::Cell { req, cell, resumed, shared_by } => Row::new()
                .s("ev", "cell")
                .s("req", req)
                .s("cell", cell)
                .b("resumed", *resumed)
                .u("shared_by", *shared_by)
                .finish(),
            ServeEvent::Point { engine, width, point } => {
                point_fields(Row::new().s("ev", "point"), engine, *width, point).finish()
            }
            ServeEvent::Estimate { engine, width, windows, ipc, lo, hi } => Row::new()
                .s("ev", "estimate")
                .s("engine", engine)
                .u("width", *width as u64)
                .u("windows", *windows)
                .f("ipc", *ipc)
                .f("lo", *lo)
                .f("hi", *hi)
                .finish(),
            ServeEvent::Final { req, status, computed, resumed, shared } => Row::new()
                .s("ev", "final")
                .s("req", req)
                .s("status", status)
                .u("computed", *computed)
                .u("resumed", *resumed)
                .u("shared", *shared)
                .finish(),
            ServeEvent::Error { req, msg } => {
                Row::new().s("ev", "error").s("req", req).s("msg", msg).finish()
            }
        }
    }

    /// Parses one stream line.
    ///
    /// # Errors
    ///
    /// A readable message on an unknown or malformed event.
    pub fn parse(line: &str) -> Result<ServeEvent, String> {
        let obj = Obj::parse(line)?;
        Ok(match obj.s("ev")? {
            "pong" => ServeEvent::Pong,
            "accepted" => ServeEvent::Accepted {
                req: obj.s("req")?.to_owned(),
                cells: obj.u("cells")?,
                windows: obj.u("windows")?,
            },
            "cell" => ServeEvent::Cell {
                req: obj.s("req")?.to_owned(),
                cell: obj.s("cell")?.to_owned(),
                resumed: optional(obj.b("resumed"))?.unwrap_or(false),
                shared_by: obj.u("shared_by")?,
            },
            "point" => {
                let (engine, width, point) = read_point(&obj)?;
                ServeEvent::Point { engine, width, point }
            }
            "estimate" => ServeEvent::Estimate {
                engine: obj.s("engine")?.to_owned(),
                width: obj.u("width")?,
                windows: obj.u("windows")?,
                ipc: obj.f("ipc")?,
                lo: obj.f("lo")?,
                hi: obj.f("hi")?,
            },
            "final" => ServeEvent::Final {
                req: obj.s("req")?.to_owned(),
                status: obj.s("status")?.to_owned(),
                computed: obj.u("computed")?,
                resumed: obj.u("resumed")?,
                shared: obj.u("shared")?,
            },
            "error" => ServeEvent::Error {
                req: optional(obj.s("req"))?.unwrap_or_default().to_owned(),
                msg: obj.s("msg")?.to_owned(),
            },
            other => return Err(format!("unknown event {other:?}")),
        })
    }
}

/// What a client collected from one streamed request.
#[derive(Debug)]
pub struct StreamOutcome {
    /// Every streamed `(engine key, width, point)` tuple — the same
    /// shape shard files parse into, so [`crate::grid::merge_grid`] merges them into
    /// the byte-identical final table.
    pub points: Vec<(String, usize, SamplePoint)>,
    /// Final status (`complete`/`degraded`).
    pub status: String,
    /// Cells computed fresh.
    pub computed: u64,
    /// Cells resumed from the ledger.
    pub resumed: u64,
    /// Cells shared with concurrent requests.
    pub shared: u64,
}

/// Submits `req` to a resident daemon at `addr` and collects the
/// streamed result. Every raw stream line is also handed to `on_line`
/// (progress displays, transcripts).
///
/// # Errors
///
/// A readable message on connection, protocol, or daemon-side errors.
#[cfg(unix)]
pub fn submit_and_collect(
    addr: &Path,
    id: &str,
    req: &GridRequest,
    mut on_line: impl FnMut(&str),
) -> Result<StreamOutcome, String> {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::os::unix::net::UnixStream::connect(addr)
        .map_err(|e| format!("connect {}: {e}", addr.display()))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
    writer
        .write_all(format!("{}\n", req.submit_line(id)).as_bytes())
        .map_err(|e| format!("send request: {e}"))?;
    let mut points = Vec::new();
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line.map_err(|e| format!("read stream: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        on_line(&line);
        match ServeEvent::parse(&line)? {
            ServeEvent::Point { engine, width, point } => points.push((engine, width, point)),
            ServeEvent::Final { status, computed, resumed, shared, .. } => {
                return Ok(StreamOutcome { points, status, computed, resumed, shared });
            }
            ServeEvent::Error { msg, .. } => return Err(format!("daemon: {msg}")),
            _ => {}
        }
    }
    Err("stream ended before the final event (daemon died?)".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> GridRequest {
        let opts = HarnessOpts { jobs: 3, batch: 4, ..HarnessOpts::default() };
        GridRequest {
            bench: "phased".into(),
            engines: vec![EngineKind::Stream, EngineKind::Ev8],
            widths: vec![4, 8],
            total: 2_000_000,
            scfg: SampleConfig::parse("500000,60000,5000,5000").expect("spec"),
            opts,
        }
    }

    #[test]
    fn submit_line_round_trips() {
        let r = req();
        let line = r.submit_line("r-1");
        let (id, back) = GridRequest::parse_submit(&line).expect("parse");
        assert_eq!(id, "r-1");
        assert_eq!(back.bench, r.bench);
        assert_eq!(back.engines, r.engines);
        assert_eq!(back.widths, r.widths);
        assert_eq!(back.total, r.total);
        assert_eq!(back.scfg.to_spec(), r.scfg.to_spec());
        assert_eq!(back.opts.jobs, 3);
        assert_eq!(back.opts.batch, 4);
        assert_eq!(back.opts.warm_bank, r.opts.warm_bank);
        assert_eq!(back.family_tag(), r.family_tag());
        // The default uncapped batch survives the wire as itself, so the
        // daemon still reads it as "batched" (`> 1`).
        let mut uncapped = req();
        uncapped.opts.batch = HarnessOpts::default().batch;
        let (_, back) =
            GridRequest::parse_submit(&uncapped.submit_line("r-2")).expect("parse uncapped");
        assert_eq!(back.opts.batch, usize::MAX);
    }

    #[test]
    fn submit_rejects_out_of_range_knobs() {
        let good = req().submit_line("r-1");
        // A zero jobs/batch count used to be silently clamped to 1; the
        // daemon now refuses the request, naming the offending value.
        let zero_jobs = good.replace("\"jobs\":3", "\"jobs\":0");
        let err = GridRequest::parse_submit(&zero_jobs).expect_err("jobs 0 must be rejected");
        assert!(err.contains("jobs") && err.contains("0"), "err: {err}");
        let zero_batch = good.replace("\"batch\":4", "\"batch\":0");
        let err = GridRequest::parse_submit(&zero_batch).expect_err("batch 0 must be rejected");
        assert!(err.contains("batch") && err.contains("0"), "err: {err}");
        // mshrs with prefetch disabled used to be silently ignored.
        let ghost_mshrs = good.replace("\"mshrs\":0", "\"mshrs\":9");
        let err =
            GridRequest::parse_submit(&ghost_mshrs).expect_err("mshrs without pf must be rejected");
        assert!(err.contains("mshrs") && err.contains("none"), "err: {err}");
        // mshrs 0 with an enabled prefetcher is equally out of range.
        let pf_no_mshrs = good.replace("\"pf\":\"none\"", "\"pf\":\"stream\"");
        let err = GridRequest::parse_submit(&pf_no_mshrs)
            .expect_err("pf without mshrs capacity must be rejected");
        assert!(err.contains("mshrs"), "err: {err}");
        // An unknown bench used to reach the daemon's workload build and
        // panic its scheduler; it is refused here, listing the valid names.
        let nope = good.replace("\"bench\":\"phased\"", "\"bench\":\"nope\"");
        let err = GridRequest::parse_submit(&nope).expect_err("unknown bench must be rejected");
        assert!(err.contains("\"nope\"") && err.contains("gzip") && err.contains("phased"), "err: {err}");
    }

    #[test]
    fn family_tag_ignores_axes_and_host_knobs() {
        let a = req();
        let mut b = req();
        b.engines = vec![EngineKind::Ftb];
        b.widths = vec![8];
        b.opts.jobs = 1;
        b.opts.batch = 16;
        b.opts.warm_bank = true;
        assert_eq!(a.family_tag(), b.family_tag(), "axes and host knobs must not split families");
        let mut c = req();
        c.total = 4_000_000;
        assert_ne!(a.family_tag(), c.family_tag(), "the horizon is output-relevant");
        let mut d = req();
        d.opts.front = crate::FrontMode::Legacy;
        assert_ne!(a.family_tag(), d.family_tag(), "the simulated model is output-relevant");
    }

    #[test]
    fn canonical_cells_cover_every_pair_once() {
        let r = req();
        let cells = r.canonical_cells();
        assert_eq!(cells.len(), 4);
        for c in &cells {
            assert_eq!(c.lo, 0);
            assert_eq!(c.hi, r.windows());
        }
        // Canonical = stable across request shapes: the same pair from a
        // wider request produces the identical cell id.
        let mut wide = req();
        wide.engines = EngineKind::ALL.to_vec();
        wide.widths = vec![2, 4, 8];
        let wide_cells = wide.canonical_cells();
        for c in &cells {
            assert!(
                wide_cells.iter().any(|w| w.to_string() == c.to_string()),
                "cell {c} missing from the superset request"
            );
        }
    }

    #[test]
    fn serve_events_round_trip() {
        let evs = vec![
            ServeEvent::Pong,
            ServeEvent::Accepted { req: "r-1".into(), cells: 4, windows: 4 },
            ServeEvent::Cell {
                req: "r-1".into(),
                cell: "stream/8/0-4".into(),
                resumed: true,
                shared_by: 2,
            },
            ServeEvent::Point {
                engine: "stream".into(),
                width: 8,
                point: SamplePoint {
                    window: 3,
                    start_inst: 1_500_000,
                    committed: 5000,
                    cycles: 2600,
                    stall_cycles: 400,
                    mispredictions: 17,
                },
            },
            ServeEvent::Estimate {
                engine: "stream".into(),
                width: 8,
                windows: 4,
                ipc: 1.9231,
                lo: 1.87,
                hi: 1.98,
            },
            ServeEvent::Final {
                req: "r-1".into(),
                status: "complete".into(),
                computed: 2,
                resumed: 1,
                shared: 1,
            },
            ServeEvent::Error { req: "r-1".into(), msg: "bad \"sample\" spec".into() },
        ];
        for ev in evs {
            let line = ev.to_line();
            assert_eq!(ServeEvent::parse(&line).expect("parse"), ev, "line: {line}");
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    const DEFAULTS: ArgDefaults =
        ArgDefaults { benches: "phased", engines: "all", widths: "all", procs: 1 };

    #[test]
    fn parse_list_carries_every_model_flag() {
        let a = CommonArgs::parse_list(
            args(&[
                "--engines",
                "stream,ev8",
                "--widths",
                "8",
                "--warm-bank",
                "--grid-total",
                "2000000",
                "--batch",
                "4",
                "--store-cap-bytes",
                "1048576",
            ]),
            &DEFAULTS,
        )
        .expect("parses");
        assert!(a.opts.warm_bank);
        assert_eq!(a.opts.batch, 4);
        assert_eq!(a.opts.store_cap_bytes, Some(1_048_576));
        assert_eq!(a.opts.grid_total, 2_000_000);
        assert_eq!(a.engines, vec![EngineKind::Stream, EngineKind::Ev8]);
        assert_eq!(a.widths, vec![8]);
    }

    #[test]
    fn parse_list_rejects_bad_flags_without_panicking() {
        // (arguments, text the error must contain)
        let cases: &[(&[&str], &str)] = &[
            (&["--no-fleet"], "unknown argument --no-fleet"),
            (&["--no-fleet", "--verify"], "unknown argument --no-fleet"),
            (&["--shard", "0/2"], "unknown argument --shard"),
            (&["--verify", "--shard"], "unknown argument --shard"),
            (&["--out", "f"], "unknown argument --out"),
            (&["--procs", "2", "--out"], "unknown argument --out"),
            (&["--procs", "0"], "--procs"),
            (&["--procs", "x"], "--procs"),
            (&["--batch", "0"], "--batch"),
            (&["--procs"], "--procs requires"),
            (&["--grid-total"], "--grid-total"),
            (&["--engines", "warp"], "unknown engine"),
            (&["--bench", "nope"], "unknown benchmark \"nope\""),
            (&["--benches", "gzip,nope"], "want one of gzip"),
            (&["--interval", "x"], "--interval"),
            (&["--legacy-scan"], "unknown argument --legacy-scan"),
            (&["--spread-floor", "1.2"], "unknown argument --spread-floor"),
            (&["--sample-total", "5"], "unknown argument --sample-total"),
            (&["--sample", "500000,60000,5000,5000"], "unknown argument --sample"),
        ];
        for (list, want) in cases {
            let err = match CommonArgs::parse_list(args(list), &DEFAULTS) {
                Ok(_) => panic!("{list:?} must be rejected"),
                Err(e) => e.to_string(),
            };
            assert!(err.contains(want), "{list:?}: error {err:?} lacks {want:?}");
        }
    }
}
