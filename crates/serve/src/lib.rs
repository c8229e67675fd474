//! `sfetch-serve`: a **resident simulation daemon** owning one warm
//! checkpoint store and one fleet ledger per request family.
//!
//! The one-shot binaries pay their fixed costs — workload build,
//! architectural fast-forward, functional warming, ledger replay — on
//! every invocation. A resident process pays them once and amortizes
//! them across every experiment a working session throws at it:
//!
//! - **Resident workloads.** A bench's workload (program generation,
//!   train profile, both layouts) is built on the first request that
//!   names it and shared by every later family run of the daemon's
//!   life. The build is deterministic, so fingerprints and family tags
//!   are those of a fresh build.
//! - **Request dedup (singleflight).** Requests are grouped by
//!   [`GridRequest::family_tag`] — the fingerprint of everything a
//!   cell's output bytes depend on — and each family's canonical cells
//!   live in one persistent [`sfetch_fleet::Ledger`]. Requests queued
//!   together (everything that arrived while the previous run was busy)
//!   union their cells into one run: the overlap is computed once and
//!   streamed to every subscriber (`shared` counter). A request that
//!   misses a run finds its cells `Done` in the ledger and resumes with
//!   **zero** recomputation (`resumed` counter).
//! - **One orchestration path.** A family run is
//!   [`sfetch_bench::fleet_grid::run_family`] on worker threads of the
//!   daemon — exactly the run behind `--procs` grids. It
//!   opens and re-verifies the family ledger first, and
//!   only a cell still not `Done` runs, so a pure resubmit reads no
//!   checkpoint at all; a `Done` cell whose output rotted is demoted to
//!   `Pending` by the ledger and so runs again. There is no separate
//!   populate walk: each lease group's sweep positions its windows at
//!   their warming starts through the store as it goes, overlapped with
//!   the windows already sweeping. Compatible cells lease in groups of
//!   the request's `--batch`.
//! - **Incremental result streaming.** Each client connection receives
//!   line-JSON [`ServeEvent`]s as cells complete — per-window `point`
//!   rows plus running `estimate` (confidence-interval) updates —
//!   terminated by a `final` record. The client merges the points with
//!   the same `merge_grid` the one-shot bins use, so the final table is
//!   byte-identical to a local run.
//! - **Warm-state banking.** Requests submitted with `warm_bank`
//!   persist each window's post-warming state per (workload, offset):
//!   one engine segment per engine kind and one memory segment per
//!   width, so resident reruns skip the functional-warming walk. Banked state changes host time only, never
//!   output bytes, so banked and unbanked requests share one family.
//!
//! Nothing on the request path sleeps. `accept` blocks; the scheduler
//! blocks on a condvar that every submit and the stop signal; a family
//! run's supervisor blocks on its workers' completion channel until a
//! result or a deadline comes due; and one watcher
//! thread — the only poller, because the stop flag is a plain atomic a
//! signal handler raises — wakes the first two on stop. Worker threads
//! are joined as soon as they report (see
//! [`run_fleet`](sfetch_fleet::run_fleet)), which keeps the daemon's RSS
//! flat across runs.
//!
//! The wire protocol (one JSON object per line over a Unix domain
//! socket) is defined in [`sfetch_bench::driver`] — the daemon and the
//! clients share one codec, one family runner, one worker body
//! ([`sfetch_bench::fleet_grid::cell_group_worker`]), and one validator,
//! so the resident and one-shot paths cannot drift. Each lease group shares
//! one batched sweep — one fast-forward, one functional reference
//! stream — through the same [`BatchSampler`](sfetch_sample::BatchSampler)
//! the one-shot grids use, so resident output stays byte-identical.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use sfetch_bench::driver::{GridRequest, ServeEvent};
use sfetch_bench::fleet_grid::{self, cell_group_worker, FamilyRun};
use sfetch_bench::grid::{parse_shard_file, GridError};
use sfetch_bench::{flag_value, number, positive, try_workload_by_name};
use sfetch_fleet::CellId;
use sfetch_obs::{Obj, Row};
use sfetch_sample::estimate;
use sfetch_workloads::Workload;

pub mod signals;

/// How long the daemon waits for a connected client's first line.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the startup probe waits for an incumbent daemon's pong.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// How often the stop watcher reads the stop flag — the daemon's one
/// poll, and never on a request's path.
const STOP_POLL: Duration = Duration::from_millis(20);

// ---------------------------------------------------------------------
// Per-request result streams
// ---------------------------------------------------------------------

/// The append-only event history of one request, doubling as the live
/// stream (submitters block on the condvar for new lines) and the
/// replay source (`tail` re-reads from index 0).
pub struct RequestLog {
    inner: Mutex<LogInner>,
    cv: Condvar,
}

struct LogInner {
    lines: Vec<String>,
    done: bool,
}

impl Default for RequestLog {
    fn default() -> Self {
        RequestLog { inner: Mutex::new(LogInner { lines: Vec::new(), done: false }), cv: Condvar::new() }
    }
}

impl RequestLog {
    /// Appends one event line and wakes every reader.
    pub fn push(&self, line: String) {
        self.inner.lock().expect("request log lock").lines.push(line);
        self.cv.notify_all();
    }

    /// Marks the stream finished (after the terminal event).
    pub fn finish(&self) {
        self.inner.lock().expect("request log lock").done = true;
        self.cv.notify_all();
    }

    /// Returns lines `from..` (blocking until at least one exists or
    /// the stream is done) plus whether the stream has finished.
    pub fn wait_from(&self, from: usize) -> (Vec<String>, bool) {
        let mut inner = self.inner.lock().expect("request log lock");
        loop {
            if inner.lines.len() > from || inner.done {
                return (inner.lines[from.min(inner.lines.len())..].to_vec(), inner.done);
            }
            inner = self.cv.wait(inner).expect("request log wait");
        }
    }

    /// Snapshot of the full history (for the on-disk mirror).
    pub fn snapshot(&self) -> Vec<String> {
        self.inner.lock().expect("request log lock").lines.clone()
    }
}

struct Pending {
    id: String,
    req: GridRequest,
    log: Arc<RequestLog>,
}

/// Requests waiting for the scheduler, and the stop latch, under one
/// lock: a submit either lands before the scheduler's last drain or is
/// refused — never stranded behind a scheduler that already exited.
#[derive(Default)]
struct Queue {
    pending: Vec<Pending>,
    stopping: bool,
}

#[derive(Default)]
struct SharedState {
    queue: Mutex<Queue>,
    /// Signalled by every submit and by stop; the scheduler blocks on it.
    wake: Condvar,
    logs: Mutex<BTreeMap<String, Arc<RequestLog>>>,
}

impl SharedState {
    /// Queues a request and wakes the scheduler — or, once the daemon
    /// is stopping, ends the request's stream with an `error` event.
    /// Returns whether the request was queued.
    fn submit(&self, p: Pending) -> bool {
        let mut q = self.queue.lock().expect("queue lock");
        if q.stopping {
            drop(q);
            let msg = "the daemon is shutting down".to_owned();
            p.log.push(ServeEvent::Error { req: p.id, msg }.to_line());
            p.log.finish();
            return false;
        }
        q.pending.push(p);
        self.wake.notify_one();
        true
    }

    /// Latches stop and wakes the scheduler so it can drain and exit.
    fn stop(&self) {
        self.queue.lock().expect("queue lock").stopping = true;
        self.wake.notify_all();
    }

    fn stopping(&self) -> bool {
        self.queue.lock().expect("queue lock").stopping
    }

    /// Blocks until a request is queued, then takes every queued request
    /// — all that arrived while the previous batch ran coalesce into
    /// this one. `None` once stopping with nothing left to run.
    fn next_batch(&self) -> Option<Vec<Pending>> {
        let mut q = self.queue.lock().expect("queue lock");
        loop {
            if !q.pending.is_empty() {
                return Some(std::mem::take(&mut q.pending));
            }
            if q.stopping {
                return None;
            }
            q = self.wake.wait(q).expect("queue wait");
        }
    }
}

// ---------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------

/// Daemon configuration.
pub struct DaemonConfig {
    /// Unix-domain-socket path to listen on.
    pub socket: PathBuf,
    /// The resident checkpoint store (also holds the per-family ledgers
    /// under `fleet/` and the per-request mirrors under `serve/`).
    pub store_dir: PathBuf,
    /// Maximum concurrent in-process cell workers per family run.
    pub procs: usize,
    /// Retry budget per cell.
    pub max_retries: u32,
    /// Optional byte cap on the resident store: above it, unleased
    /// checkpoints and warm-bank entries are LRU-evicted (and healed by
    /// recomputation on demand). `None` means unbounded. This is a
    /// daemon-side knob — requests cannot widen or shrink it.
    pub store_cap_bytes: Option<u64>,
}

impl DaemonConfig {
    /// Parses `sfetch-serve serve`'s flags (`--socket PATH --store DIR
    /// [--procs N] [--max-retries N] [--store-cap-bytes B]`), or a
    /// [`GridError::Cli`] naming the bad, missing or unknown flag.
    pub fn from_args(args: &[String]) -> Result<Self, GridError> {
        let mut procs = std::thread::available_parallelism().map_or(2, |n| n.get());
        let (mut socket, mut store_dir, mut max_retries, mut store_cap_bytes) = (None, None, 3, None);
        let path = |i: usize| flag_value(args, i, "a path", |v| Some(PathBuf::from(v)));
        for i in (0..args.len()).step_by(2) {
            match args[i].as_str() {
                "--socket" => socket = Some(path(i)?),
                "--store" => store_dir = Some(path(i)?),
                "--procs" => procs = flag_value(args, i, "a number >= 1", positive)?,
                "--max-retries" => max_retries = flag_value(args, i, "a number", number)?,
                "--store-cap-bytes" => {
                    store_cap_bytes = Some(flag_value(args, i, "a byte count >= 1", positive)?);
                }
                other => return Err(GridError::Cli(format!("unknown serve argument {other:?}"))),
            }
        }
        let (Some(socket), Some(store_dir)) = (socket, store_dir) else {
            return Err(GridError::Cli("serve requires --socket PATH and --store DIR".into()));
        };
        Ok(DaemonConfig { socket, store_dir, procs, max_retries, store_cap_bytes })
    }
}

/// What the startup probe found at the configured socket path.
enum SocketProbe {
    /// Nothing there — bind freely.
    Absent,
    /// A daemon answered `ping` with `pong`: a live incumbent.
    Live,
    /// Something accepted the connection but did not answer `ping`.
    /// Not provably stale, so not safe to unlink.
    Busy,
    /// The file exists but nothing is listening behind it (connect is
    /// refused) — a leftover from a dead daemon, safe to unlink.
    Stale,
}

/// Probes an existing socket path before binding. Only a connection
/// *refusal* proves the path stale; any live listener — pong or not —
/// means some process still owns it.
fn probe_socket(path: &Path) -> SocketProbe {
    if !path.exists() {
        return SocketProbe::Absent;
    }
    let stream = match UnixStream::connect(path) {
        Ok(s) => s,
        Err(_) => return SocketProbe::Stale,
    };
    let _ = stream.set_read_timeout(Some(PROBE_TIMEOUT));
    let _ = stream.set_write_timeout(Some(PROBE_TIMEOUT));
    let Ok(mut w) = stream.try_clone() else { return SocketProbe::Busy };
    let ping = Row::new().s("op", "ping").finish();
    if w.write_all(format!("{ping}\n").as_bytes()).is_err() {
        return SocketProbe::Busy;
    }
    let mut line = String::new();
    match BufReader::new(stream).read_line(&mut line) {
        Ok(n) if n > 0 && matches!(ServeEvent::parse(&line), Ok(ServeEvent::Pong)) => {
            SocketProbe::Live
        }
        _ => SocketProbe::Busy,
    }
}

/// The resident daemon. [`Daemon::run`] blocks until the stop flag is
/// raised (SIGTERM/SIGINT via [`signals::install`], or a test's own
/// flag), drains the in-flight family run, and removes the socket.
pub struct Daemon {
    cfg: DaemonConfig,
}

impl Daemon {
    /// Builds a daemon.
    pub fn new(cfg: DaemonConfig) -> Self {
        Daemon { cfg }
    }

    /// Serves until `stop` turns true.
    ///
    /// # Errors
    ///
    /// Socket-setup failures only — including a **live incumbent**: if
    /// another daemon answers `ping` on the configured socket, this
    /// daemon refuses to start rather than silently unlinking the
    /// incumbent's socket out from under it. Only a provably stale
    /// socket file (connection refused) is reclaimed. Per-request
    /// failures are reported to that request's client as `error`
    /// events.
    pub fn run(&self, stop: &AtomicBool) -> Result<(), String> {
        std::fs::create_dir_all(&self.cfg.store_dir)
            .map_err(|e| format!("create store dir: {e}"))?;
        match probe_socket(&self.cfg.socket) {
            SocketProbe::Absent => {}
            SocketProbe::Stale => {
                eprintln!("serve: reclaiming stale socket {}", self.cfg.socket.display());
                let _ = std::fs::remove_file(&self.cfg.socket);
            }
            SocketProbe::Live => {
                return Err(format!(
                    "a daemon is already serving on {} (it answered ping); refusing to take \
                     over its socket — stop it first or pick another --socket",
                    self.cfg.socket.display()
                ));
            }
            SocketProbe::Busy => {
                return Err(format!(
                    "{} is held by a live process that did not answer ping; refusing to \
                     remove a socket that is not provably stale",
                    self.cfg.socket.display()
                ));
            }
        }
        let listener = UnixListener::bind(&self.cfg.socket)
            .map_err(|e| format!("bind {}: {e}", self.cfg.socket.display()))?;
        eprintln!(
            "serve: listening on {} (store {})",
            self.cfg.socket.display(),
            self.cfg.store_dir.display()
        );

        let state = Arc::new(SharedState::default());
        let scheduler = {
            let state = Arc::clone(&state);
            let store_dir = self.cfg.store_dir.clone();
            let (procs, max_retries) = (self.cfg.procs, self.cfg.max_retries);
            let cap = self.cfg.store_cap_bytes;
            std::thread::spawn(move || scheduler_loop(&state, &store_dir, procs, max_retries, cap))
        };

        std::thread::scope(|s| {
            // The stop flag is a plain atomic (a signal handler raises
            // it), so one thread off the request path watches it, then
            // wakes the blocked scheduler and the blocked `accept` below
            // — the latter by connecting to our own socket.
            s.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(STOP_POLL);
                }
                eprintln!("serve: stop requested, draining");
                state.stop();
                if let Err(e) = UnixStream::connect(&self.cfg.socket) {
                    eprintln!("serve: cannot wake the accept loop: {e}");
                }
            });
            for conn in listener.incoming() {
                if state.stopping() {
                    break;
                }
                match conn {
                    Ok(stream) => {
                        let state = Arc::clone(&state);
                        let store_dir = self.cfg.store_dir.clone();
                        // Detached: a connection lives as long as its
                        // client keeps reading, which shutdown must not
                        // wait on.
                        std::thread::spawn(move || handle_conn(&state, &store_dir, stream));
                    }
                    Err(e) => {
                        eprintln!("serve: accept failed: {e}");
                        std::thread::sleep(Duration::from_millis(100));
                    }
                }
            }
        });
        let _ = scheduler.join();
        let _ = std::fs::remove_file(&self.cfg.socket);
        eprintln!("serve: shut down cleanly");
        Ok(())
    }
}

fn handle_conn(state: &SharedState, store_dir: &Path, stream: UnixStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() || line.trim().is_empty() {
        return;
    }
    let send = |w: &mut UnixStream, ev: &ServeEvent| {
        let _ = w.write_all(format!("{}\n", ev.to_line()).as_bytes());
    };
    let request = Obj::parse(&line);
    let field = |key: &str| request.as_ref().ok().and_then(|r| r.s(key).ok());
    match field("op") {
        Some("ping") => send(&mut writer, &ServeEvent::Pong),
        Some("tail") => {
            let Some(id) = field("id").map(str::to_owned) else {
                send(&mut writer, &ServeEvent::Error { req: String::new(), msg: "tail: missing id".into() });
                return;
            };
            let log = state.logs.lock().expect("logs lock").get(&id).cloned();
            match log {
                Some(log) => stream_log(&log, &mut writer),
                None => match std::fs::read_to_string(mirror_path(store_dir, &id)) {
                    // Request from a previous daemon life: replay the
                    // on-disk mirror verbatim.
                    Ok(text) => {
                        let _ = writer.write_all(text.as_bytes());
                    }
                    Err(_) => send(
                        &mut writer,
                        &ServeEvent::Error { req: id.clone(), msg: format!("unknown request {id:?}") },
                    ),
                },
            }
        }
        Some("submit") => match GridRequest::parse_submit(&line) {
            Ok((id, req)) => {
                let log = Arc::new(RequestLog::default());
                {
                    let mut logs = state.logs.lock().expect("logs lock");
                    if logs.contains_key(&id) {
                        send(
                            &mut writer,
                            &ServeEvent::Error { req: id.clone(), msg: format!("duplicate request id {id:?}") },
                        );
                        return;
                    }
                    logs.insert(id.clone(), Arc::clone(&log));
                }
                log.push(
                    ServeEvent::Accepted {
                        req: id.clone(),
                        cells: req.canonical_cells().len() as u64,
                        windows: req.windows(),
                    }
                    .to_line(),
                );
                eprintln!(
                    "serve: accepted {id} — {} {}×{} cells, family {:016x}",
                    req.bench,
                    req.engines.len(),
                    req.widths.len(),
                    req.family_tag()
                );
                state.submit(Pending { id, req, log: Arc::clone(&log) });
                stream_log(&log, &mut writer);
            }
            Err(e) => send(&mut writer, &ServeEvent::Error { req: String::new(), msg: e }),
        },
        _ => send(
            &mut writer,
            &ServeEvent::Error { req: String::new(), msg: "unknown op (want submit/tail/ping)".into() },
        ),
    }
}

/// Streams a request log to a client from the beginning until done.
fn stream_log(log: &RequestLog, writer: &mut UnixStream) {
    let mut from = 0usize;
    loop {
        let (lines, done) = log.wait_from(from);
        from += lines.len();
        for l in &lines {
            if writer.write_all(format!("{l}\n").as_bytes()).is_err() {
                return; // client went away; the log lives on for `tail`
            }
        }
        if done && lines.is_empty() {
            return;
        }
        if done {
            // Flush any lines that raced in after `done` was set.
            let (rest, _) = log.wait_from(from);
            for l in &rest {
                let _ = writer.write_all(format!("{l}\n").as_bytes());
            }
            return;
        }
    }
}

fn mirror_path(store_dir: &Path, id: &str) -> PathBuf {
    let safe: String =
        id.chars().map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' }).collect();
    store_dir.join("serve").join(safe).join("events.jsonl")
}

// ---------------------------------------------------------------------
// Scheduling: family batches over the shared ledger
// ---------------------------------------------------------------------

fn scheduler_loop(
    state: &SharedState,
    store_dir: &Path,
    procs: usize,
    max_retries: u32,
    store_cap_bytes: Option<u64>,
) {
    // One workload per bench for the daemon's life, built on first use.
    let mut workloads: BTreeMap<String, Arc<Workload>> = BTreeMap::new();
    while let Some(batch) = state.next_batch() {
        // Group the drained batch by family: one ledger run per family,
        // every member's cells unioned into it.
        let mut families: BTreeMap<u64, Vec<Pending>> = BTreeMap::new();
        for p in batch {
            families.entry(p.req.family_tag()).or_default().push(p);
        }
        for (tag, members) in families {
            let bench = &members[0].req.bench;
            if !workloads.contains_key(bench) {
                match try_workload_by_name(bench) {
                    Ok(w) => workloads.insert(bench.clone(), Arc::new(w)),
                    Err(e) => {
                        fail_family(tag, &members, &e.to_string());
                        continue;
                    }
                };
            }
            let w = &workloads[bench];
            run_family(store_dir, procs, max_retries, store_cap_bytes, w, tag, &members);
        }
    }
}

/// Ends every member's stream with an `error` event.
fn fail_family(tag: u64, members: &[Pending], msg: &str) {
    for m in members {
        m.log.push(ServeEvent::Error { req: m.id.clone(), msg: msg.to_owned() }.to_line());
        m.log.finish();
    }
    eprintln!("serve: family {tag:016x} failed: {msg}");
}

/// Runs one family batch: union the members' canonical cells, run them
/// through the shared [`fleet_grid::run_family`] on worker threads, and fan
/// each completed cell out to its subscribers.
fn run_family(
    store_dir: &Path,
    procs: usize,
    max_retries: u32,
    store_cap_bytes: Option<u64>,
    w: &Arc<Workload>,
    tag: u64,
    members: &[Pending],
) {
    // The family tag pins everything output-relevant, so the first
    // member's request is a valid representative — except the host-time
    // knobs, which we take as the batch's most generous ask.
    let rep = &members[0].req;
    let mut opts = rep.opts;
    opts.warm_bank = members.iter().any(|m| m.req.opts.warm_bank);
    opts.jobs = members.iter().map(|m| m.req.opts.jobs).max().unwrap_or(1).max(1);
    opts.batch = members.iter().map(|m| m.req.opts.batch).max().unwrap_or(1).max(1);
    // The cap governs the *daemon's* resident store, so the daemon
    // config wins over whatever the requests carried.
    opts.store_cap_bytes = store_cap_bytes;
    let scfg = rep.scfg;

    // Union of canonical cells; per cell, which members subscribe.
    let mut cells: Vec<CellId> = Vec::new();
    let mut subs: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, m) in members.iter().enumerate() {
        for c in m.req.canonical_cells() {
            let key = c.to_string();
            let entry = subs.entry(key).or_default();
            if entry.is_empty() {
                cells.push(c);
            }
            entry.push(i);
        }
    }

    let run = FamilyRun {
        tag,
        store_dir,
        workers: procs,
        batch: opts.batch,
        chaos: false,
        max_retries,
        cell_timeout_s: None,
        req: members.iter().map(|m| m.id.as_str()).collect::<Vec<_>>().join(","),
    };
    let body = cell_group_worker(Arc::clone(w), store_dir.to_path_buf(), scfg, opts, None);
    // Per-member singleflight counters: a fresh cell is *computed* for
    // its first subscriber and *shared* for every other subscriber; a
    // ledger hit is *resumed* for all of them.
    let mut computed = vec![0u64; members.len()];
    let mut resumed = vec![0u64; members.len()];
    let mut shared = vec![0u64; members.len()];
    let confidence = scfg.confidence;

    let report = fleet_grid::run_family(
        &run,
        &cells,
        body,
        &mut |line| eprintln!("serve: [{tag:016x}] {line}"),
        &mut |done| {
            let key = done.cell.to_string();
            let Some(subscribers) = subs.get(&key) else { return };
            let points = match parse_shard_file(&done.text) {
                Ok(p) => p,
                Err(e) => {
                    // The validator admitted it, so this cannot happen;
                    // surface loudly rather than silently dropping.
                    eprintln!("serve: [{tag:016x}] unparseable done cell {key}: {e}");
                    return;
                }
            };
            let est = estimate(
                &points.iter().map(|(_, _, p)| *p).collect::<Vec<_>>(),
                confidence,
            );
            for (slot, &i) in subscribers.iter().enumerate() {
                let m = &members[i];
                if done.resumed {
                    resumed[i] += 1;
                } else if slot == 0 {
                    computed[i] += 1;
                } else {
                    shared[i] += 1;
                }
                m.log.push(
                    ServeEvent::Cell {
                        req: m.id.clone(),
                        cell: key.clone(),
                        resumed: done.resumed,
                        shared_by: subscribers.len() as u64,
                    }
                    .to_line(),
                );
                for (engine, width, p) in &points {
                    m.log.push(
                        ServeEvent::Point { engine: engine.clone(), width: *width, point: *p }
                            .to_line(),
                    );
                }
                m.log.push(
                    ServeEvent::Estimate {
                        engine: done.cell.engine.clone(),
                        width: done.cell.width,
                        windows: est.windows,
                        ipc: est.ipc,
                        lo: est.ipc_lo,
                        hi: est.ipc_hi,
                    }
                    .to_line(),
                );
            }
        },
    );

    match report {
        Ok(report) => {
            let status = if report.incomplete.is_empty() { "complete" } else { "degraded" };
            for (i, m) in members.iter().enumerate() {
                m.log.push(
                    ServeEvent::Final {
                        req: m.id.clone(),
                        status: status.into(),
                        computed: computed[i],
                        resumed: resumed[i],
                        shared: shared[i],
                    }
                    .to_line(),
                );
                m.log.finish();
                write_mirror(store_dir, &m.id, &m.log);
                eprintln!(
                    "serve: {} {status} — {} computed, {} resumed, {} shared",
                    m.id, computed[i], resumed[i], shared[i]
                );
            }
        }
        Err(e) => fail_family(tag, members, &format!("fleet run: {e}")),
    }
}

/// Mirrors a finished request's full event history under
/// `<store>/serve/<id>/events.jsonl` so `tail` outlives daemon
/// restarts.
fn write_mirror(store_dir: &Path, id: &str, log: &RequestLog) {
    let path = mirror_path(store_dir, id);
    if let Some(dir) = path.parent() {
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
    }
    let mut text = log.snapshot().join("\n");
    text.push('\n');
    let _ = sfetch_fleet::write_atomic(&path, &text);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfetch_bench::HarnessOpts;
    use sfetch_sample::SampleConfig;

    #[test]
    fn serve_flags_reject_bad_values_without_panicking() {
        let args = |list: &[&str]| list.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>();
        let base = ["--socket", "s.sock", "--store", "st"];
        let cfg = DaemonConfig::from_args(&args(&[
            &base[..],
            &["--procs", "3", "--max-retries", "0", "--store-cap-bytes", "4096"],
        ]
        .concat()))
        .expect("good flags");
        assert_eq!((cfg.procs, cfg.max_retries, cfg.store_cap_bytes), (3, 0, Some(4096)));
        assert_eq!(cfg.socket, PathBuf::from("s.sock"));
        for (extra, want) in [
            (&["--procs", "0"][..], "--procs requires a number >= 1"),
            (&["--procs", "x"], "--procs requires a number >= 1"),
            (&["--procs"], "--procs requires a number >= 1"),
            (&["--max-retries", "-1"], "--max-retries requires a number"),
            (&["--store-cap-bytes", "0"], "--store-cap-bytes requires a byte count >= 1"),
            (&["--store-cap-bytes", "1e9"], "--store-cap-bytes requires a byte count >= 1"),
            (&["--jobs", "2"], "unknown serve argument"),
        ] {
            let err = DaemonConfig::from_args(&args(&[&base[..], extra].concat()))
                .err()
                .unwrap_or_else(|| panic!("{extra:?} must be rejected"));
            assert!(err.to_string().contains(want), "{extra:?}: {err}");
        }
        let err = DaemonConfig::from_args(&args(&["--socket", "s.sock"])).err();
        assert!(err.is_some_and(|e| e.to_string().contains("--store DIR")));
    }

    #[test]
    fn request_log_streams_and_replays() {
        let log = Arc::new(RequestLog::default());
        log.push("a".into());
        log.push("b".into());
        let (lines, done) = log.wait_from(0);
        assert_eq!(lines, vec!["a".to_owned(), "b".to_owned()]);
        assert!(!done);
        let log2 = Arc::clone(&log);
        let t = std::thread::spawn(move || log2.wait_from(2));
        log.push("c".into());
        log.finish();
        let (lines, _) = t.join().expect("reader thread");
        assert_eq!(lines, vec!["c".to_owned()]);
        // Replay from the start still sees everything.
        let (all, done) = log.wait_from(0);
        assert_eq!(all.len(), 3);
        assert!(done);
    }

    #[test]
    fn unknown_bench_fails_its_family_and_the_scheduler_drains_on() {
        // `parse_submit` refuses unknown names, so queue the request
        // directly: the scheduler's own workload lookup must end the
        // stream with an `error` event instead of panicking, then drain
        // the rest of the queue and exit on stop.
        let request = |bench: &str| GridRequest {
            bench: bench.to_owned(),
            engines: sfetch_bench::grid::parse_engines("stream").expect("engine"),
            widths: vec![8],
            total: 1,
            scfg: SampleConfig::default(),
            opts: HarnessOpts::default(),
        };
        let state = SharedState::default();
        let logs: Vec<Arc<RequestLog>> = (0..2).map(|_| Arc::new(RequestLog::default())).collect();
        for (i, log) in logs.iter().enumerate() {
            let pending = Pending { id: format!("r{i}"), req: request("nope"), log: Arc::clone(log) };
            assert!(state.submit(pending), "a running daemon queues");
        }
        state.stop();
        let late = Arc::new(RequestLog::default());
        let pending = Pending { id: "late".into(), req: request("gzip"), log: Arc::clone(&late) };
        assert!(!state.submit(pending), "a stopping daemon refuses new work");
        assert!(late.wait_from(0).0[0].contains("shutting down"));
        scheduler_loop(&state, Path::new("unused-store"), 1, 0, None);
        for log in &logs {
            let (lines, done) = log.wait_from(0);
            assert!(done);
            assert_eq!(lines.len(), 1, "{lines:?}");
            assert!(lines[0].contains("\"ev\":\"error\""), "{}", lines[0]);
            assert!(lines[0].contains("unknown benchmark \\\"nope\\\""), "{}", lines[0]);
        }
    }

    #[test]
    fn mirror_path_sanitizes_ids() {
        let p = mirror_path(Path::new("/s"), "../../etc/passwd");
        assert_eq!(p, Path::new("/s/serve/______etc_passwd/events.jsonl"));
    }
}
