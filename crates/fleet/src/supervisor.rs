//! The supervisor loop: a self-healing worker pool over the ledger.
//!
//! A fan-out that spawns N workers and blocks on each in order lets one
//! crashed, hung, or lying worker wedge or kill the whole run; the
//! supervisor instead treats workers as cattle:
//!
//! * keeps up to `procs` worker threads running, leasing each the next
//!   group of claimable cells: `Pending` in the [`Ledger`] and held by
//!   no live worker. Leases live only in this loop's memory — every
//!   worker is a thread of this process, so no lease can outlive it, and
//!   a process killed mid-run leaves its cells `Pending` for the next
//!   run to take at once;
//! * runs each group's worker body on a thread of its own, which sends
//!   `(worker id, result)` on one channel when the body returns (a panic
//!   becomes `Err("worker panicked")`), and blocks on that channel until
//!   a completion or the earliest lease deadline — nothing polls;
//! * enforces a per-lease deadline adapted from observed durations
//!   (p95 × `TIMEOUT_MULT` = 4, floored) — the one hang detector;
//! * on any failure — an `Err` result, a missing or rejected output, a
//!   missed deadline — charges the cell a failure on the ledger and
//!   re-offers it at once (a cell's output depends only on the cell, so
//!   waiting before a retry buys nothing);
//! * **trusts the worker's verdict over its output**: a body that
//!   returns `Err` fails every cell it was leased, whatever it computed
//!   (the worker may know something the text doesn't);
//! * writes each accepted output itself, atomically, to
//!   `<stem>.cell.json` next to the ledger before marking the cell
//!   `Done`, so only validated text ever reaches disk;
//! * degrades gracefully: once a cell exhausts its retry budget it is
//!   `Failed` and the run completes over the remaining cells, reporting
//!   an explicit incomplete list instead of panicking.
//!
//! A thread cannot be killed: a worker past its deadline is detached,
//! its cells are charged and re-offered as usual, and whatever it sends
//! later is dropped by its worker id.

use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sfetch_obs::{JsonlFile, Row};

use crate::cell::CellId;
use crate::error::FleetError;
use crate::ledger::{CellState, Ledger, ResumeSummary};
use crate::now_ms;

/// Tuning for [`run_fleet`]. [`FleetConfig::new`]`(procs)` gives the
/// production defaults; tests shrink the time constants.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Maximum concurrent workers.
    pub procs: usize,
    /// Failures a cell may accrue beyond its first attempt before it is
    /// marked `Failed` (so a cell is attempted at most
    /// `max_retries + 1` times).
    pub max_retries: u32,
    /// Lower bound on any per-cell timeout, ms.
    pub timeout_floor_ms: u64,
    /// Per-cell timeout before enough durations are observed, ms.
    pub timeout_initial_ms: u64,
    /// Request tag stamped (as `"req"`) on every event this run writes
    /// to `events.jsonl`, so a resident daemon's interleaved requests
    /// can be teased apart from one shared log. Empty = untagged
    /// (standalone runs).
    pub req: String,
    /// Maximum cells leased to one worker as a group (`1` = classic
    /// per-cell leasing), so one worker can drive them all from a single
    /// shared sweep (`--batch`); the caller hands in cells one sweep can
    /// run together. Each cell of a group still completes or fails
    /// individually on the ledger; a worker crash/timeout charges every
    /// cell it was leased.
    pub group: usize,
}

impl FleetConfig {
    /// Production defaults for a pool of `procs` workers.
    pub fn new(procs: usize) -> Self {
        FleetConfig {
            procs: procs.max(1),
            max_retries: 3,
            timeout_floor_ms: 20_000,
            timeout_initial_ms: 600_000,
            req: String::new(),
            group: 1,
        }
    }
}

/// One completed cell in a [`FleetReport`].
#[derive(Debug, Clone)]
pub struct CellDone {
    /// The cell.
    pub cell: CellId,
    /// Its verified output body (trailer already stripped by the
    /// caller's validator contract — the text is exactly what was
    /// validated).
    pub text: String,
    /// Failures charged before the successful attempt (0 = first try).
    pub attempts: u32,
    /// Whether the cell was resumed from a previous run's ledger rather
    /// than computed in this one.
    pub resumed: bool,
    /// Duration of the successful attempt, ms (0 for resumed cells).
    pub dur_ms: u64,
}

/// What [`run_fleet`] achieved.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Completed cells, in deterministic (cell-order) sequence.
    pub done: Vec<CellDone>,
    /// Cells that exhausted their retry budget: `(cell, attempts
    /// charged, last error)`. Non-empty means the run **degraded**:
    /// merge what completed, widen the confidence intervals, and say so.
    pub incomplete: Vec<(CellId, u32, String)>,
    /// Workers spawned this run.
    pub spawned: u64,
    /// Failures charged this run (each implies a retry or a permanent
    /// failure).
    pub retries: u64,
    /// Workers killed on their deadline.
    pub kills: u64,
    /// `Done` cells resumed from a previous run without recomputation.
    pub resumed_done: u64,
    /// Previously-`Done` cells whose recorded output no longer
    /// verified and had to be recomputed.
    pub invalidated: u64,
}

impl FleetReport {
    /// The one-line machine-greppable summary (CI asserts on
    /// `recomputed=0` after a resume).
    pub fn summary_line(&self) -> String {
        let recomputed = self.done.iter().filter(|d| !d.resumed).count();
        format!(
            "fleet-summary: done={} incomplete={} resumed_done={} recomputed={} retries={} \
             kills={} spawned={}",
            self.done.len(),
            self.incomplete.len(),
            self.resumed_done,
            recomputed,
            self.retries,
            self.kills,
            self.spawned,
        )
    }
}

/// Multiplier over the observed p95 cell duration that sets a lease's
/// deadline.
const TIMEOUT_MULT: u64 = 4;

/// Per-cell timeout from observed durations: `p95 × TIMEOUT_MULT` once
/// at least three cells have completed, floored; the generous initial
/// guess before that.
fn cell_timeout_ms(cfg: &FleetConfig, durations: &[u64]) -> u64 {
    if durations.len() < 3 {
        return cfg.timeout_initial_ms.max(cfg.timeout_floor_ms);
    }
    let mut sorted = durations.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() as f64 * 0.95).ceil() as usize).clamp(1, sorted.len()) - 1;
    let p95 = sorted[idx];
    p95.saturating_mul(TIMEOUT_MULT).max(cfg.timeout_floor_ms)
}

/// Writes `text` to `path` **atomically** (temp sibling + rename), so a
/// reader never observes a half-written file (a cell output, a daemon's
/// request mirror) and a died writer leaves either nothing or a complete
/// file. The temp name carries the process id, so two processes writing
/// the same path never share one.
///
/// # Errors
///
/// [`FleetError::Io`] on any filesystem failure.
pub fn write_atomic(path: &Path, text: &str) -> Result<(), FleetError> {
    let tmp = path.with_extension(format!("part-{}", std::process::id()));
    std::fs::write(&tmp, text).map_err(|e| FleetError::io("write", &tmp, e))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| FleetError::io("rename into place", path, e))
}

/// Size cap on `events.jsonl`, bytes. When an append would push the log
/// past the cap it is rotated to `events.jsonl.1` (replacing any previous
/// rotation) and a fresh log started — a resident daemon's event history
/// stays bounded at ~2× the cap.
const EVENTS_CAP_BYTES: u64 = 8 << 20;

/// The supervisor's structured decision log: `events.jsonl` next to the
/// ledger, one line-JSON event per lease/completion/kill/retry/degrade
/// decision plus a run-start and run-summary record. Opened in append
/// mode so a resumed run extends the same history; every event carries
/// the run's request tag ([`FleetConfig::req`], when set) so a resident
/// daemon's interleaved requests stay attributable, and the file
/// rotates to `events.jsonl.1` at [`EVENTS_CAP_BYTES`] so a long-lived
/// daemon's log stays bounded. Best-effort by design: an unwritable log
/// never fails the run (the ledger, not the event log, is the source of
/// truth).
struct EventLog {
    file: Option<JsonlFile>,
    path: PathBuf,
    req: String,
    cap_bytes: u64,
    written: u64,
}

impl EventLog {
    fn open(dir: &Path, req: &str, cap_bytes: u64) -> Self {
        let path = dir.join("events.jsonl");
        let written = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        EventLog {
            file: JsonlFile::append(&path).ok(),
            path,
            req: req.to_owned(),
            cap_bytes,
            written,
        }
    }

    /// Starts an event row stamped with the wall clock and event kind.
    fn at(kind: &str) -> Row {
        Row::new().u("t_ms", now_ms()).s("event", kind)
    }

    fn emit(&mut self, mut row: Row) {
        if !self.req.is_empty() {
            row = row.s("req", &self.req);
        }
        // Rotate before the line that would breach the cap: the closed
        // log replaces any previous `.1` so total history is bounded.
        if self.cap_bytes > 0 && self.written >= self.cap_bytes {
            self.file = None; // flush + close before the rename
            let rotated = self.path.with_extension("jsonl.1");
            if std::fs::rename(&self.path, &rotated).is_ok() {
                self.file = JsonlFile::create(&self.path).ok();
                self.written = 0;
            } else {
                self.file = JsonlFile::append(&self.path).ok();
            }
        }
        if let Some(f) = self.file.as_mut() {
            let line = row.finish();
            if f.write_line(&line).is_ok() {
                self.written += line.len() as u64 + 1; // + the newline
            }
        }
    }
}

/// A worker's report on the completion channel: its id and the body's
/// result.
type Completion = (u64, Result<Vec<String>, String>);

struct Active {
    /// Worker id: the launch count, from 1.
    id: u64,
    /// The leased group: one cell in classic mode, up to
    /// [`FleetConfig::group`] cells under group leasing. A cell listed
    /// here is held: no other worker may claim it.
    cells: Vec<CellId>,
    /// Per-cell attempt indices, parallel to `cells`.
    attempts: Vec<u32>,
    thread: JoinHandle<()>,
    started_ms: u64,
    deadline_ms: u64,
}

/// The next group to lease: the first `max` claimable cells — `Pending`
/// and held by no live worker — with their attempt counts.
/// Deterministic (ledger cell order).
fn claim_group(ledger: &Ledger, active: &[Active], max: usize) -> Vec<(CellId, u32)> {
    ledger
        .cells()
        .filter(|c| !active.iter().any(|a| a.cells.contains(c)))
        .filter_map(|c| match ledger.state(c) {
            Ok(CellState::Pending { attempts }) => Some((c.clone(), *attempts)),
            _ => None,
        })
        .take(max.max(1))
        .collect()
}

/// Runs the fleet to quiescence: every cell `Done` or `Failed`.
///
/// `body` is the worker: it runs one leased cell group (with `attempts`
/// parallel to the cells) on a thread of its own and returns one sealed
/// output text per cell, in cell order, or the reason it failed.
/// `validate` receives each candidate text and returns its digest when
/// (and only when) the text is complete and well-formed — the same
/// closure the [`Ledger`] used to re-verify resumed cells, so "done"
/// means the same thing on every path. `resume` is the summary that
/// `Ledger::open` returned, folded into the report. `log` receives
/// human-readable progress lines (callers route it to stderr so stdout
/// stays byte-comparable across chaos and clean runs).
///
/// `notify` receives each `Done` cell **as it becomes available** —
/// first every cell resumed verified from the ledger (in deterministic
/// cell order, before any worker is spawned), then each in-run
/// completion the moment its output validates. Every `Done` cell in
/// the final [`FleetReport`] is notified exactly once; `Failed` cells
/// never are. This is what lets a resident server stream merged points
/// to a client while the grid is still running; batch callers pass a
/// no-op and read the report.
///
/// # Errors
///
/// Infrastructure failures only ([`FleetError`]): an unwritable ledger
/// or cell output, an unspawnable worker thread. Cell failures are
/// *not* errors — they are retried and, past the budget, reported in
/// [`FleetReport::incomplete`].
#[allow(clippy::too_many_lines)]
pub fn run_fleet<F>(
    cfg: &FleetConfig,
    ledger: &mut Ledger,
    body: F,
    validate: &dyn Fn(&str) -> Result<u64, String>,
    resume: ResumeSummary,
    log: &mut dyn FnMut(&str),
    notify: &mut dyn FnMut(&CellDone),
) -> Result<FleetReport, FleetError>
where
    F: Fn(&[CellId], &[u32]) -> Result<Vec<String>, String> + Send + Sync + 'static,
{
    let work_dir = ledger.path().parent().map(Path::to_path_buf).unwrap_or_default();
    let mut events = EventLog::open(&work_dir, &cfg.req, EVENTS_CAP_BYTES);
    events.emit(
        EventLog::at("run_start")
            .u("cells", ledger.cells().count() as u64)
            .u("procs", cfg.procs as u64)
            .u("max_retries", u64::from(cfg.max_retries))
            .u("resumed_done", resume.resumed_done)
            .u("invalidated", resume.invalidated),
    );
    let body = Arc::new(body);
    let (tx, rx) = mpsc::channel::<Completion>();
    let mut active: Vec<Active> = Vec::new();
    let mut durations: Vec<u64> = Vec::new();
    let mut completed_in_run: Vec<CellId> = Vec::new();
    let mut spawned = 0u64;
    let mut retries = 0u64;
    let mut kills = 0u64;

    // Cells resumed verified from the ledger are available *now*:
    // stream them before spawning anything.
    for cell in ledger.cells().cloned().collect::<Vec<_>>() {
        if let CellState::Done { attempts, .. } = ledger.state(&cell)? {
            notify(&CellDone {
                cell: cell.clone(),
                text: ledger.done_text(&cell).unwrap_or_default().to_owned(),
                attempts: *attempts,
                resumed: true,
                dur_ms: 0,
            });
        }
    }

    // One failure path for every way a worker can disappoint us.
    let charge = |ledger: &mut Ledger,
                      cell: &CellId,
                      attempt: u32,
                      why: &str,
                      retries: &mut u64,
                      events: &mut EventLog,
                      log: &mut dyn FnMut(&str)|
     -> Result<(), FleetError> {
        let permanent = ledger.fail(cell, why, cfg.max_retries)?;
        *retries += 1;
        if permanent {
            events.emit(
                EventLog::at("degrade")
                    .s("cell", &cell.to_string())
                    .u("attempt", u64::from(attempt))
                    .s("why", why),
            );
            log(&format!("cell {cell}: attempt {attempt} failed permanently: {why}"));
        } else {
            events.emit(
                EventLog::at("retry")
                    .s("cell", &cell.to_string())
                    .u("attempt", u64::from(attempt))
                    .s("why", why),
            );
            log(&format!("cell {cell}: attempt {attempt} failed ({why}); retrying"));
        }
        Ok(())
    };

    loop {
        let now = now_ms();

        // ---- Kill: workers past their deadline. -------------------
        // A thread cannot be killed: dropping its handle detaches it,
        // and anything it sends later is dropped by its id below.
        let mut i = 0;
        while i < active.len() {
            if now < active[i].deadline_ms {
                i += 1;
                continue;
            }
            let a = active.swap_remove(i);
            let why =
                format!("cell deadline exceeded ({}ms)", a.deadline_ms.saturating_sub(a.started_ms));
            kills += 1;
            for (cell, attempt) in a.cells.iter().zip(a.attempts.iter().copied()) {
                events.emit(
                    EventLog::at("kill")
                        .s("cell", &cell.to_string())
                        .u("attempt", u64::from(attempt))
                        .s("why", &why),
                );
                charge(ledger, cell, attempt, &why, &mut retries, &mut events, log)?;
            }
        }

        // ---- Launch: fill the pool from the ledger. ----------------
        while active.len() < cfg.procs {
            let (group, attempts): (Vec<CellId>, Vec<u32>) =
                claim_group(ledger, &active, cfg.group).into_iter().unzip();
            if group.is_empty() {
                break;
            }
            let timeout = cell_timeout_ms(cfg, &durations);
            let deadline = now + timeout;
            let id = spawned + 1;
            for (cell, &attempt) in group.iter().zip(&attempts) {
                events.emit(
                    EventLog::at("lease")
                        .s("cell", &cell.to_string())
                        .u("worker", id)
                        .u("attempt", u64::from(attempt))
                        .u("timeout_ms", timeout)
                        .u("group", group.len() as u64),
                );
                log(&format!(
                    "cell {cell}: leased to worker {id} (attempt {attempt}, timeout {timeout}ms\
                     {})",
                    if group.len() > 1 { format!(", group of {}", group.len()) } else { String::new() }
                ));
            }
            let (body, tx) = (Arc::clone(&body), tx.clone());
            let (cells, tries) = (group.clone(), attempts.clone());
            let thread = std::thread::Builder::new()
                .spawn(move || {
                    let result = panic::catch_unwind(AssertUnwindSafe(|| body(&cells, &tries)))
                        .unwrap_or_else(|_| Err("worker panicked".to_owned()));
                    // The receiver is gone once the run has ended.
                    let _ = tx.send((id, result));
                })
                .map_err(|e| FleetError::Spawn { cell: group[0].to_string(), err: e.to_string() })?;
            spawned += 1;
            active.push(Active {
                id,
                cells: group,
                attempts,
                thread,
                started_ms: now,
                deadline_ms: deadline,
            });
        }

        // ---- Wait: a completion or a deadline. ---------------------
        // Every claimable cell was just launched, so an empty pool means
        // every cell is terminal.
        let Some(wake) = active.iter().map(|a| a.deadline_ms).min() else { break };
        let wait = Duration::from_millis(wake.saturating_sub(now_ms()));
        let Ok((id, result)) = rx.recv_timeout(wait) else { continue };
        let Some(i) = active.iter().position(|a| a.id == id) else {
            // Killed on its deadline and detached; its cells were charged.
            log(&format!("worker {id}: result after its deadline dropped"));
            continue;
        };
        let a = active.swap_remove(i);
        // Join before the next launch, so every worker seen to finish
        // has fully exited before another lease group — or the next
        // family run — starts one. glibc hands a thread that starts
        // while another is still exiting a fresh malloc arena, and the
        // memory the old arena keeps stays resident, so unjoined
        // back-to-back runs ratchet a resident process's RSS up.
        let _ = a.thread.join();
        let dur = now_ms().saturating_sub(a.started_ms);
        let texts = match result {
            Ok(texts) => texts,
            Err(detail) => {
                // The worker's verdict wins, and a group worker failing
                // charges **every** cell it was leased.
                for (cell, attempt) in a.cells.iter().zip(a.attempts.iter().copied()) {
                    let why = format!("worker exited abnormally ({detail})");
                    charge(ledger, cell, attempt, &why, &mut retries, &mut events, log)?;
                }
                continue;
            }
        };
        // One wall-clock observation per worker (the group shares a
        // sweep; its cells did not take `dur` each).
        durations.push(dur);
        // Each cell of the group stands on its own output: a bad text
        // charges that cell only.
        let mut texts = texts.into_iter();
        for (cell, attempt) in a.cells.iter().zip(a.attempts.iter().copied()) {
            let checked = texts
                .next()
                .ok_or_else(|| "no output for this cell".to_owned())
                .and_then(|text| validate(&text).map(|digest| (text, digest)));
            let (text, digest) = match checked {
                Ok(ok) => ok,
                Err(why) => {
                    let why = format!("output rejected: {why}");
                    charge(ledger, cell, attempt, &why, &mut retries, &mut events, log)?;
                    continue;
                }
            };
            let out = work_dir.join(format!("{}.cell.json", cell.file_stem()));
            write_atomic(&out, &text)?;
            let done = CellDone {
                cell: cell.clone(),
                text: text.clone(),
                attempts: attempt,
                resumed: false,
                dur_ms: dur,
            };
            ledger.complete(cell, digest, &out, dur, text)?;
            completed_in_run.push(cell.clone());
            events.emit(
                EventLog::at("done")
                    .s("cell", &cell.to_string())
                    .u("attempt", u64::from(attempt))
                    .u("dur_ms", dur),
            );
            log(&format!("cell {cell} done in {dur}ms (attempt {attempt})"));
            notify(&done);
        }
    }

    // ---- Report. ---------------------------------------------------
    let mut done = Vec::new();
    let mut incomplete = Vec::new();
    for cell in ledger.cells().cloned().collect::<Vec<_>>() {
        match ledger.state(&cell)? {
            CellState::Done { attempts, dur_ms, .. } => {
                let resumed = !completed_in_run.contains(&cell);
                done.push(CellDone {
                    cell: cell.clone(),
                    text: ledger.done_text(&cell).unwrap_or_default().to_owned(),
                    attempts: *attempts,
                    resumed,
                    dur_ms: if resumed { 0 } else { *dur_ms },
                });
            }
            CellState::Failed { attempts, last_error, .. } => {
                incomplete.push((cell.clone(), *attempts, last_error.clone()));
            }
            other => {
                return Err(FleetError::BadTransition {
                    cell: cell.to_string(),
                    err: format!("non-terminal state {other:?} after quiescence"),
                })
            }
        }
    }
    let report = FleetReport {
        done,
        incomplete,
        spawned,
        retries,
        kills,
        resumed_done: resume.resumed_done,
        invalidated: resume.invalidated,
    };
    events.emit(
        EventLog::at("summary")
            .u("done", report.done.len() as u64)
            .u("incomplete", report.incomplete.len() as u64)
            .u("retries", report.retries)
            .u("kills", report.kills)
            .u("spawned", report.spawned)
            .u("resumed_done", report.resumed_done)
            .u("invalidated", report.invalidated),
    );
    log(&report.summary_line());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv64;
    use std::collections::HashMap;
    use std::sync::{Condvar, Mutex};

    /// What a scripted worker body does for one (first cell, attempt),
    /// all at once.
    enum Script {
        /// Return `validate`-passing output for every cell.
        Ok,
        /// Return `Err` — whatever the body computed is discarded.
        FailExit,
        /// Never return.
        Hang,
    }

    /// Scripted worker bodies: runs each leased group as one scripted
    /// worker and records the group sizes it was handed.
    #[derive(Clone)]
    struct Scripted {
        scripts: Arc<Mutex<HashMap<(String, u32), Script>>>,
        launches: Arc<Mutex<Vec<usize>>>,
    }

    impl Scripted {
        fn new(scripts: Vec<((&CellId, u32), Script)>) -> Self {
            Scripted {
                scripts: Arc::new(Mutex::new(
                    scripts.into_iter().map(|((c, a), s)| ((c.to_string(), a), s)).collect(),
                )),
                launches: Arc::default(),
            }
        }

        fn body(
            &self,
        ) -> impl Fn(&[CellId], &[u32]) -> Result<Vec<String>, String> + Send + Sync + 'static
        {
            let me = self.clone();
            move |cells: &[CellId], attempts: &[u32]| {
                me.launches.lock().expect("launches").push(cells.len());
                let script = me
                    .scripts
                    .lock()
                    .expect("scripts")
                    .remove(&(cells[0].to_string(), attempts[0]))
                    .unwrap_or(Script::Ok);
                match script {
                    Script::Ok => Ok(cells.iter().map(|c| format!("OUT {c}\n")).collect()),
                    Script::FailExit => Err("exit 3".into()),
                    Script::Hang => loop {
                        std::thread::park();
                    },
                }
            }
        }

        fn launches(&self) -> Vec<usize> {
            self.launches.lock().expect("launches").clone()
        }
    }

    fn validate_out(text: &str) -> Result<u64, String> {
        if text.starts_with("OUT ") {
            Ok(fnv64(text.as_bytes()))
        } else {
            Err("not a worker output".into())
        }
    }

    fn fast_cfg() -> FleetConfig {
        FleetConfig {
            procs: 2,
            max_retries: 2,
            timeout_floor_ms: 40,
            timeout_initial_ms: 40,
            ..FleetConfig::new(2)
        }
    }

    fn setup(tag: &str, cells: &[CellId]) -> (Ledger, ResumeSummary, PathBuf) {
        let dir = std::env::temp_dir().join(format!("sfetch-sup-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk tmp");
        let (ledger, resume) =
            Ledger::open(dir.join("l.ledger"), 1, cells, &validate_out).expect("open");
        (ledger, resume, dir)
    }

    fn run_with(
        cfg: &FleetConfig,
        ledger: &mut Ledger,
        resume: ResumeSummary,
        scripted: &Scripted,
    ) -> FleetReport {
        run_fleet(cfg, ledger, scripted.body(), &validate_out, resume, &mut |_msg| {}, &mut |_done| {})
            .expect("run_fleet")
    }

    fn run(
        cfg: &FleetConfig,
        ledger: &mut Ledger,
        resume: ResumeSummary,
        scripts: Vec<((&CellId, u32), Script)>,
    ) -> FleetReport {
        run_with(cfg, ledger, resume, &Scripted::new(scripts))
    }

    #[test]
    fn clean_run_completes_every_cell() {
        let cells =
            vec![CellId::new("a", 4, 0, 2), CellId::new("a", 8, 0, 2), CellId::new("b", 4, 0, 2)];
        let (mut ledger, resume, dir) = setup("clean", &cells);
        let report = run(&fast_cfg(), &mut ledger, resume, vec![]);
        assert_eq!(report.done.len(), 3);
        assert!(report.incomplete.is_empty());
        assert_eq!(report.retries, 0);
        assert!(report.done.iter().all(|d| !d.resumed && d.attempts == 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_attempt_is_retried_and_succeeds() {
        let cells = vec![CellId::new("a", 4, 0, 2)];
        let (mut ledger, resume, dir) = setup("retry", &cells);
        let report = run(
            &fast_cfg(),
            &mut ledger,
            resume,
            vec![((&cells[0], 0), Script::FailExit)],
        );
        // The failing exit must NOT have been trusted — the cell was
        // retried.
        assert_eq!(report.done.len(), 1);
        assert_eq!(report.done[0].attempts, 1, "succeeded on the retry");
        assert_eq!(report.retries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_exhaustion_degrades_gracefully() {
        let cells = vec![CellId::new("bad", 4, 0, 2), CellId::new("good", 4, 0, 2)];
        let (mut ledger, resume, dir) = setup("degrade", &cells);
        let report = run(
            &fast_cfg(), // max_retries = 2 → 3 attempts
            &mut ledger,
            resume,
            vec![
                ((&cells[0], 0), Script::FailExit),
                ((&cells[0], 1), Script::FailExit),
                ((&cells[0], 2), Script::FailExit),
            ],
        );
        assert_eq!(report.done.len(), 1, "the healthy cell still completes");
        assert_eq!(report.done[0].cell, cells[1]);
        assert_eq!(report.incomplete.len(), 1);
        assert_eq!(report.incomplete[0].0, cells[0]);
        assert_eq!(report.incomplete[0].1, 3, "attempt count surfaces in the report");
        assert!(report.summary_line().contains("incomplete=1"));
        // The supervisor's decisions land in the structured event log.
        let events = std::fs::read_to_string(dir.join("events.jsonl")).expect("events.jsonl");
        for kind in ["run_start", "lease", "retry", "degrade", "done", "summary"] {
            assert!(events.contains(&format!("\"event\":\"{kind}\"")), "missing {kind}: {events}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hung_worker_is_killed_and_cell_recovered() {
        let cells = vec![CellId::new("slow", 4, 0, 2)];
        let (mut ledger, resume, dir) = setup("hang", &cells);
        let report =
            run(&fast_cfg(), &mut ledger, resume, vec![((&cells[0], 0), Script::Hang)]);
        assert_eq!(report.done.len(), 1, "recovered after the kill");
        assert!(report.kills >= 1);
        assert!(report.done[0].attempts >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn notify_streams_each_done_cell_exactly_once() {
        let cells =
            vec![CellId::new("a", 4, 0, 2), CellId::new("a", 8, 0, 2), CellId::new("bad", 4, 0, 2)];
        let (mut ledger, resume, dir) = setup("notify", &cells);
        let scripted = Scripted::new(
            (0..3)
                .map(|a| ((&cells[2], a), Script::FailExit))
                .collect(),
        );
        let mut streamed: Vec<(CellId, bool)> = Vec::new();
        let report = run_fleet(
            &fast_cfg(),
            &mut ledger,
            scripted.body(),
            &validate_out,
            resume,
            &mut |_msg| {},
            &mut |d| streamed.push((d.cell.clone(), d.resumed)),
        )
        .expect("run");
        assert_eq!(report.done.len(), 2);
        assert_eq!(streamed.len(), 2, "one notification per done cell, none for the failed one");
        assert!(streamed.iter().all(|(_, resumed)| !resumed));

        // A resumed rerun streams the done cells up front, still exactly
        // once each, flagged resumed.
        drop(ledger);
        let (mut ledger, resume) =
            Ledger::open(dir.join("l.ledger"), 1, &cells[..2], &validate_out).expect("reopen");
        assert_eq!(resume.resumed_done, 2);
        let mut streamed: Vec<(CellId, bool)> = Vec::new();
        let scripted = Scripted::new(vec![]);
        let report = run_fleet(
            &fast_cfg(),
            &mut ledger,
            scripted.body(),
            &validate_out,
            resume,
            &mut |_msg| {},
            &mut |d| streamed.push((d.cell.clone(), d.resumed)),
        )
        .expect("rerun");
        assert_eq!(report.spawned, 0, "nothing recomputed");
        assert_eq!(
            streamed,
            vec![(cells[0].clone(), true), (cells[1].clone(), true)],
            "resumed cells streamed in cell order"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_leasing_runs_compatible_cells_on_one_worker() {
        // Four cells over the same window range: with group = 2 they
        // ride two workers, not four, and all complete individually.
        let cells = vec![
            CellId::new("a", 2, 0, 4),
            CellId::new("a", 4, 0, 4),
            CellId::new("a", 8, 0, 4),
            CellId::new("b", 4, 0, 4),
        ];
        let (mut ledger, resume, dir) = setup("group", &cells);
        let mut cfg = fast_cfg();
        cfg.procs = 1;
        cfg.group = 2;
        let scripted = Scripted::new(vec![]);
        let report = run_with(&cfg, &mut ledger, resume, &scripted);
        assert_eq!(report.done.len(), 4);
        assert!(report.incomplete.is_empty());
        assert_eq!(report.spawned, 2, "two 2-cell groups, not four singleton workers");
        assert_eq!(scripted.launches(), vec![2, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_worker_failure_charges_every_leased_cell() {
        let cells = vec![CellId::new("a", 4, 0, 4), CellId::new("a", 8, 0, 4)];
        let (mut ledger, resume, dir) = setup("group-fail", &cells);
        let mut cfg = fast_cfg();
        cfg.procs = 1;
        cfg.group = 2;
        // First (grouped) worker dies without writing anything; the
        // retries succeed.
        let report = run(
            &cfg,
            &mut ledger,
            resume,
            vec![((&cells[0], 0), Script::FailExit)],
        );
        assert_eq!(report.done.len(), 2, "both cells recovered on retry");
        assert_eq!(report.retries, 2, "the group failure charged both cells");
        assert!(report.done.iter().all(|d| d.attempts == 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn events_carry_the_request_tag() {
        let cells = vec![CellId::new("a", 4, 0, 2)];
        let (mut ledger, resume, dir) = setup("reqtag", &cells);
        let mut cfg = fast_cfg();
        cfg.req = "req-0042".into();
        let report = run(&cfg, &mut ledger, resume, vec![]);
        assert_eq!(report.done.len(), 1);
        let events = std::fs::read_to_string(dir.join("events.jsonl")).expect("events.jsonl");
        for line in events.lines() {
            assert!(
                line.contains("\"req\":\"req-0042\""),
                "event missing request tag: {line}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn event_log_rotates_at_the_size_cap() {
        let dir = std::env::temp_dir()
            .join(format!("sfetch-sup-rotate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk tmp");
        let mut log = EventLog::open(&dir, "r", 400);
        for i in 0..64 {
            log.emit(EventLog::at("tick").u("i", i));
        }
        drop(log);
        let live = std::fs::metadata(dir.join("events.jsonl")).expect("live log").len();
        let rotated =
            std::fs::metadata(dir.join("events.jsonl.1")).expect("rotated log").len();
        assert!(live > 0 && live < 600, "live log stays near the cap, got {live}");
        assert!(rotated >= 400, "rotation happens at the cap, got {rotated}");
        // Re-opening picks up the live log's size, so the cap keeps
        // binding across daemon restarts.
        let mut log = EventLog::open(&dir, "r", 400);
        assert!(log.written > 0, "existing size recovered on open");
        for i in 0..64 {
            log.emit(EventLog::at("tick").u("i", i));
        }
        drop(log);
        let live2 = std::fs::metadata(dir.join("events.jsonl")).expect("live log").len();
        assert!(live2 < 600, "cap still binds after reopen, got {live2}");
        // Cap 0 disables rotation entirely.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk tmp");
        let mut log = EventLog::open(&dir, "", 0);
        for i in 0..64 {
            log.emit(EventLog::at("tick").u("i", i));
        }
        drop(log);
        assert!(!dir.join("events.jsonl.1").exists(), "cap 0 never rotates");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timeout_adapts_to_observed_durations() {
        let cfg = FleetConfig::new(2);
        assert_eq!(cell_timeout_ms(&cfg, &[]), 600_000, "initial guess before data");
        assert_eq!(cell_timeout_ms(&cfg, &[100, 200]), 600_000, "needs ≥ 3 samples");
        // p95 of 20 samples 100..2000 is 1900; × 4 = 7600 < floor 20s.
        let d: Vec<u64> = (1..=20).map(|i| i * 100).collect();
        assert_eq!(cell_timeout_ms(&cfg, &d), cfg.timeout_floor_ms, "floor binds");
        let d: Vec<u64> = (1..=20).map(|i| i * 10_000).collect();
        assert_eq!(cell_timeout_ms(&cfg, &d), 190_000 * 4, "p95 × mult above the floor");
    }

    #[test]
    fn a_cell_never_runs_on_two_live_workers() {
        // More workers than cells, one cell per lease: only the
        // supervisor's in-memory leases keep a held cell from being
        // claimed again. Cell `hang` stalls past its deadline once.
        let cells: Vec<CellId> =
            ["a", "b", "hang"].iter().map(|e| CellId::new(*e, 4, 0, 2)).collect();
        let (mut ledger, resume, dir) = setup("exclusive", &cells);
        let mut cfg = fast_cfg();
        cfg.procs = 6;
        cfg.group = 1;
        cfg.timeout_floor_ms = 1_000;
        cfg.timeout_initial_ms = 1_000;
        // One timeline across the workers and the supervisor's log:
        // (event, cell, attempt), in the order they happened.
        type Timeline = Mutex<Vec<(&'static str, String, u32)>>;
        let timeline: Arc<Timeline> = Arc::default();
        let seen = Arc::clone(&timeline);
        // First attempts wait at a gate until three have started, so all
        // three cells are live at once (10 s bound: a wedged supervisor
        // fails the test rather than hanging it).
        let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
        let body = move |group: &[CellId], attempts: &[u32]| {
            let (cell, attempt) = (group[0].to_string(), attempts[0]);
            seen.lock().expect("timeline").push(("start", cell.clone(), attempt));
            if attempt == 0 {
                let (started, cv) = &*gate;
                let mut started = started.lock().expect("gate");
                *started += 1;
                cv.notify_all();
                let limit = Duration::from_secs(10);
                drop(cv.wait_timeout_while(started, limit, |n| *n < 3).expect("gate"));
            }
            if cell.starts_with("hang") && attempt == 0 {
                loop {
                    std::thread::park(); // killed and detached, never ends
                }
            }
            seen.lock().expect("timeline").push(("end", cell, attempt));
            Ok(group.iter().map(|c| format!("OUT {c}\n")).collect())
        };
        let result = run_fleet(
            &cfg,
            &mut ledger,
            body,
            &validate_out,
            resume,
            &mut |msg| {
                if msg.contains("deadline exceeded") {
                    let cell = msg.strip_prefix("cell ").and_then(|m| m.split_once(": "));
                    let cell = cell.expect("a charge line names its cell").0.to_owned();
                    timeline.lock().expect("timeline").push(("kill", cell, 0));
                }
            },
            &mut |_done| {},
        );

        // Replay the timeline: a cell is live from its start until its
        // end or its worker's kill, and never starts while live.
        let timeline = timeline.lock().expect("timeline").clone();
        let mut live: HashMap<String, u32> = HashMap::new();
        for (event, cell, attempt) in &timeline {
            match *event {
                "start" => {
                    let prior = live.insert(cell.clone(), *attempt);
                    assert!(prior.is_none(), "{cell} started while live: {timeline:?}");
                }
                "end" => assert_eq!(live.remove(cell), Some(*attempt), "{timeline:?}"),
                _ => assert_eq!(live.remove(cell), Some(0), "kill of a live cell: {timeline:?}"),
            }
        }
        let hang: Vec<(&str, u32)> = timeline
            .iter()
            .filter(|(_, c, _)| c.starts_with("hang"))
            .map(|(e, _, a)| (*e, *a))
            .collect();
        let expect = [("start", 0), ("kill", 0), ("start", 1), ("end", 1)];
        assert_eq!(hang, expect, "the rerun starts only after the kill");
        let report = result.expect("run");
        assert_eq!(report.done.len(), 3);
        assert_eq!((report.kills, report.spawned), (1, 4), "one kill, one rerun");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
