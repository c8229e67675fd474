//! The persistent **cell ledger**: one line-JSON event per state
//! transition, replayed on open.
//!
//! The ledger is the fleet's single source of truth for which work is
//! done. Each cell walks the state machine
//!
//! ```text
//! Pending ──lease──▶ Leased(worker, deadline)
//!    ▲                   │ complete        │ fail (attempts ≤ budget)
//!    │                   ▼                 ▼
//!    │                 Done(digest)     Pending(attempts, backoff)
//!    │                                     │ fail (budget exhausted)
//!    └── lease expiry ◀── crash ──┘        ▼
//!                                       Failed(attempts)
//! ```
//!
//! and every transition is **appended** to the ledger file before it
//! takes effect in memory, so the on-disk event log replayed from the
//! top always reproduces the in-memory state (asserted by proptest in
//! `tests/tests/fleet_ledger.rs`). Crash recovery falls out of replay:
//!
//! * a lease whose deadline has passed is re-offered (the worker — or
//!   the whole parent — died mid-cell; attempts are *not* charged for
//!   an interrupted lease);
//! * a `Done` cell's recorded output file is re-read and re-verified
//!   against its recorded digest on open; if it still verifies the cell
//!   is skipped entirely (zero recompute on resume), otherwise it is
//!   demoted to `Pending` and recomputed.
//!
//! Events are written by [`sfetch_obs::Row`] and replayed through
//! [`sfetch_obs::Obj`], the workspace's one line-JSON codec: free text
//! (failure reasons, output paths) round-trips exactly, and ledgers
//! written by older builds in `"k": v` spacing still replay.
//!
//! The ledger is keyed by a caller-supplied `config` fingerprint
//! (workload, schedule, axes, chaos seed…). Opening a ledger written
//! under a different fingerprint rotates it aside and starts fresh —
//! stale cells are unreachable rather than merely discouraged, the same
//! policy the checkpoint store applies to its entries.

use std::path::{Path, PathBuf};

use sfetch_obs::jsonl::{optional, JsonlFile, Obj, Row};
use sfetch_tab::OpenMap;

use crate::cell::CellId;
use crate::error::FleetError;

/// Schema tag of the ledger's header line.
pub const LEDGER_SCHEMA: &str = "sfetch-fleet-ledger-v1";

/// The per-cell state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellState {
    /// Not yet run (or re-offered after a failure/expired lease).
    Pending {
        /// Failures charged so far.
        attempts: u32,
        /// Earliest wall-clock ms the cell may be leased again
        /// (retry backoff; 0 = immediately).
        not_before_ms: u64,
    },
    /// A worker holds the cell until `deadline_ms`.
    Leased {
        /// Worker identity (process id).
        worker: u64,
        /// Attempt index this lease runs (= failures so far).
        attempt: u32,
        /// Wall-clock ms at which the lease expires and the cell is
        /// re-offered.
        deadline_ms: u64,
    },
    /// Verified output exists. Terminal (skipped on resume).
    Done {
        /// FNV digest of the verified output text.
        digest: u64,
        /// Failures charged before the successful attempt.
        attempts: u32,
        /// Wall-clock duration of the successful attempt.
        dur_ms: u64,
    },
    /// Retry budget exhausted. Terminal for this run; a fresh ledger
    /// (or a higher budget) re-offers it.
    Failed {
        /// Failures charged.
        attempts: u32,
        /// The last failure's description.
        last_error: String,
    },
}

impl CellState {
    /// Whether the cell needs no further work (`Done` or `Failed`).
    pub fn is_terminal(&self) -> bool {
        matches!(self, CellState::Done { .. } | CellState::Failed { .. })
    }
}

/// What [`Ledger::open`] recovered from an existing ledger file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeSummary {
    /// `Done` cells whose recorded output re-verified — skipped this run.
    pub resumed_done: u64,
    /// `Done` cells whose output was missing/corrupt — demoted to
    /// `Pending` and recomputed.
    pub invalidated: u64,
    /// Leases that had expired (worker or parent died mid-cell) and
    /// were re-offered.
    pub expired_leases: u64,
    /// Events replayed from the file.
    pub replayed_events: u64,
}

struct CellRecord {
    state: CellState,
    /// Output path recorded by the `done` event (needed to re-verify on
    /// resume) and the verified output text once loaded.
    out: Option<PathBuf>,
    text: Option<String>,
}

/// The file-backed cell ledger. See the module docs for semantics.
pub struct Ledger {
    file: JsonlFile,
    /// Open-addressed record table — `state`/`record_mut` lookups land
    /// once per supervisor poll per cell. Iteration-order determinism
    /// lives in `order`, not the table.
    cells: OpenMap<CellId, CellRecord>,
    /// The opened cell set in sorted order: `cells()`, `next_claimable`
    /// and the final report all walk this, so claiming stays
    /// reproducible run to run.
    order: Vec<CellId>,
}

impl Ledger {
    /// Opens (or creates) the ledger at `path` for the given cell set,
    /// replaying any existing events. `config` fingerprints everything
    /// the cells' outputs depend on; a ledger written under a different
    /// fingerprint is rotated aside (`<path>.stale`) and a fresh one
    /// started. `validate` re-verifies each recorded `Done` output
    /// (returning its digest) so resume never trusts a file that rotted
    /// on disk.
    ///
    /// # Errors
    ///
    /// Filesystem failures and unparseable ledger lines.
    pub fn open(
        path: impl Into<PathBuf>,
        config: u64,
        cells: &[CellId],
        now_ms: u64,
        validate: &dyn Fn(&str) -> Result<u64, String>,
    ) -> Result<(Self, ResumeSummary), FleetError> {
        let path = path.into();
        let mut summary = ResumeSummary::default();
        let mut replayed: OpenMap<CellId, CellRecord> = OpenMap::new();

        let existing = match std::fs::read_to_string(&path) {
            Ok(text) => Some(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(FleetError::io("read ledger", &path, e)),
        };
        let mut fresh = true;
        if let Some(text) = existing {
            let header_ok = text.lines().next().and_then(|l| Obj::parse(l).ok()).is_some_and(|h| {
                h.s("schema") == Ok(LEDGER_SCHEMA) && h.u::<u64>("config") == Ok(config)
            });
            if header_ok {
                fresh = false;
                for (i, line) in text.lines().enumerate().skip(1) {
                    if line.trim().is_empty() {
                        continue;
                    }
                    Self::replay_line(line, &mut replayed).map_err(|err| {
                        FleetError::LedgerParse { path: path.clone(), line: i + 1, err }
                    })?;
                    summary.replayed_events += 1;
                }
            } else {
                // Different experiment (or unreadable header): rotate the
                // old ledger aside rather than mixing state.
                let stale = path.with_extension("ledger.stale");
                std::fs::rename(&path, &stale)
                    .map_err(|e| FleetError::io("rotate stale ledger", &path, e))?;
            }
        }

        let mut file =
            JsonlFile::append(&path).map_err(|e| FleetError::io("open ledger", &path, e))?;
        if fresh {
            let header = Row::new().s("ev", "open").s("schema", LEDGER_SCHEMA);
            file.write_row(header.u("config", config).u("cells", cells.len() as u64))
                .map_err(|e| FleetError::io("write ledger header", &path, e))?;
        }

        // Resolve the requested cell set against the replayed state.
        let mut order: Vec<CellId> = cells.to_vec();
        order.sort();
        order.dedup();
        let mut resolved: OpenMap<CellId, CellRecord> = OpenMap::with_capacity(order.len());
        for cell in &order {
            let mut rec = replayed.remove(cell).unwrap_or(CellRecord {
                state: CellState::Pending { attempts: 0, not_before_ms: 0 },
                out: None,
                text: None,
            });
            match &rec.state {
                CellState::Leased { attempt, deadline_ms, .. } if *deadline_ms <= now_ms => {
                    // Worker (or parent) died mid-cell: re-offer without
                    // charging the interrupted attempt.
                    summary.expired_leases += 1;
                    rec.state = CellState::Pending { attempts: *attempt, not_before_ms: 0 };
                }
                CellState::Done { digest, attempts, .. } => {
                    let verified = rec.out.as_ref().and_then(|out| {
                        let text = std::fs::read_to_string(out).ok()?;
                        (validate(&text) == Ok(*digest)).then_some(text)
                    });
                    match verified {
                        Some(text) => {
                            summary.resumed_done += 1;
                            rec.text = Some(text);
                        }
                        None => {
                            summary.invalidated += 1;
                            rec.state =
                                CellState::Pending { attempts: *attempts, not_before_ms: 0 };
                            rec.out = None;
                        }
                    }
                }
                _ => {}
            }
            resolved.insert(cell.clone(), rec);
        }

        Ok((Ledger { file, cells: resolved, order }, summary))
    }

    fn replay_line(line: &str, map: &mut OpenMap<CellId, CellRecord>) -> Result<(), String> {
        let obj = Obj::parse(line)?;
        let ev = obj.s("ev")?;
        if ev == "open" {
            return Ok(()); // A re-opened ledger re-appends nothing; ignore.
        }
        let cell = CellId::parse(obj.s("cell")?)?;
        let rec = map.entry_or_insert(
            cell,
            CellRecord {
                state: CellState::Pending { attempts: 0, not_before_ms: 0 },
                out: None,
                text: None,
            },
        );
        match ev {
            "lease" => {
                rec.state = CellState::Leased {
                    worker: obj.u("worker")?,
                    attempt: obj.u("attempt")?,
                    deadline_ms: obj.u("deadline_ms")?,
                };
            }
            "done" => {
                let attempts = match rec.state {
                    CellState::Leased { attempt, .. } => attempt,
                    _ => 0,
                };
                let (digest, dur_ms) = (obj.u("digest")?, obj.u("dur_ms")?);
                rec.state = CellState::Done { digest, attempts, dur_ms };
                rec.out = optional(obj.s("out"))?.map(PathBuf::from);
            }
            "fail" => {
                let attempts = obj.u("attempts")?;
                if optional(obj.b("permanent"))?.unwrap_or(false) {
                    let last_error = optional(obj.s("why"))?.unwrap_or_default().to_owned();
                    rec.state = CellState::Failed { attempts, last_error };
                } else {
                    let not_before_ms = obj.u("not_before_ms")?;
                    rec.state = CellState::Pending { attempts, not_before_ms };
                }
            }
            other => return Err(format!("unknown event {other:?}")),
        }
        Ok(())
    }

    fn append(&mut self, event: Row) -> Result<(), FleetError> {
        self.file
            .write_row(event)
            .map_err(|e| FleetError::io("append to ledger", self.file.path(), e))
    }

    fn record_mut(&mut self, cell: &CellId) -> Result<&mut CellRecord, FleetError> {
        // Split borrow dance: look up existence first for a clean error.
        if !self.cells.contains_key(cell) {
            return Err(FleetError::UnknownCell(cell.to_string()));
        }
        Ok(self.cells.get_mut(cell).expect("checked above"))
    }

    /// The ledger file's path.
    pub fn path(&self) -> &Path {
        self.file.path()
    }

    /// Current state of `cell`.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownCell`] for cells outside the opened set.
    pub fn state(&self, cell: &CellId) -> Result<&CellState, FleetError> {
        self.cells
            .get(cell)
            .map(|r| &r.state)
            .ok_or_else(|| FleetError::UnknownCell(cell.to_string()))
    }

    /// All cells in the opened set, in deterministic (sorted) order.
    pub fn cells(&self) -> impl Iterator<Item = &CellId> {
        self.order.iter()
    }

    /// The verified output text of a `Done` cell (available for cells
    /// completed this run or successfully resumed).
    pub fn done_text(&self, cell: &CellId) -> Option<&str> {
        self.cells.get(cell).and_then(|r| r.text.as_deref())
    }

    /// The next cell a worker may claim at `now_ms`: `Pending` past its
    /// backoff, or a lease that expired in-run. Deterministic
    /// (cell order) so runs are reproducible.
    pub fn next_claimable(&self, now_ms: u64) -> Option<CellId> {
        self.order
            .iter()
            .find(|c| {
                match self.cells.get(*c).map(|r| &r.state) {
                    Some(CellState::Pending { not_before_ms, .. }) => *not_before_ms <= now_ms,
                    Some(CellState::Leased { deadline_ms, .. }) => *deadline_ms <= now_ms,
                    _ => false,
                }
            })
            .cloned()
    }

    /// The earliest future wall-clock ms at which a currently
    /// unclaimable, non-terminal cell becomes claimable (backoff expiry
    /// or lease deadline). `None` when nothing is waiting on time.
    pub fn next_wakeup_ms(&self, now_ms: u64) -> Option<u64> {
        self.cells
            .values()
            .filter_map(|r| match r.state {
                CellState::Pending { not_before_ms, .. } if not_before_ms > now_ms => {
                    Some(not_before_ms)
                }
                CellState::Leased { deadline_ms, .. } if deadline_ms > now_ms => Some(deadline_ms),
                _ => None,
            })
            .min()
    }

    /// Leases `cell` to `worker` until `deadline_ms`, returning the
    /// attempt index the worker should run.
    ///
    /// # Errors
    ///
    /// [`FleetError::BadTransition`] when the cell is terminal, still
    /// inside its retry backoff, or validly leased to another worker
    /// (**double-lease exclusion** — only an *expired* lease may be
    /// re-leased).
    pub fn lease(
        &mut self,
        cell: &CellId,
        worker: u64,
        deadline_ms: u64,
        now_ms: u64,
    ) -> Result<u32, FleetError> {
        let rec = self.record_mut(cell)?;
        let attempt = match &rec.state {
            CellState::Pending { attempts, not_before_ms } => {
                if *not_before_ms > now_ms {
                    return Err(FleetError::BadTransition {
                        cell: cell.to_string(),
                        err: format!(
                            "in retry backoff for another {}ms",
                            *not_before_ms - now_ms
                        ),
                    });
                }
                *attempts
            }
            CellState::Leased { worker: w, deadline_ms: d, attempt } => {
                if *d > now_ms {
                    return Err(FleetError::BadTransition {
                        cell: cell.to_string(),
                        err: format!("already leased to worker {w} until {d}ms"),
                    });
                }
                *attempt // expired: re-offer without charging the attempt
            }
            CellState::Done { .. } => {
                return Err(FleetError::BadTransition {
                    cell: cell.to_string(),
                    err: "already done".into(),
                })
            }
            CellState::Failed { .. } => {
                return Err(FleetError::BadTransition {
                    cell: cell.to_string(),
                    err: "permanently failed".into(),
                })
            }
        };
        self.append(
            Row::new()
                .s("ev", "lease")
                .s("cell", &cell.to_string())
                .u("worker", worker)
                .u("attempt", u64::from(attempt))
                .u("deadline_ms", deadline_ms),
        )?;
        self.record_mut(cell)?.state = CellState::Leased { worker, attempt, deadline_ms };
        Ok(attempt)
    }

    /// Marks a leased cell `Done` with its verified output.
    ///
    /// # Errors
    ///
    /// [`FleetError::BadTransition`] unless the cell is `Leased` (a
    /// completion may land slightly after its deadline — the work is
    /// valid either way, so expiry is not checked here).
    pub fn complete(
        &mut self,
        cell: &CellId,
        digest: u64,
        out: &Path,
        dur_ms: u64,
        text: String,
    ) -> Result<(), FleetError> {
        let rec = self.record_mut(cell)?;
        let attempts = match &rec.state {
            CellState::Leased { attempt, .. } => *attempt,
            other => {
                return Err(FleetError::BadTransition {
                    cell: cell.to_string(),
                    err: format!("complete() requires a lease, state is {other:?}"),
                })
            }
        };
        self.append(
            Row::new()
                .s("ev", "done")
                .s("cell", &cell.to_string())
                .u("digest", digest)
                .u("dur_ms", dur_ms)
                .s("out", &out.display().to_string()),
        )?;
        let rec = self.record_mut(cell)?;
        rec.state = CellState::Done { digest, attempts, dur_ms };
        rec.out = Some(out.to_path_buf());
        rec.text = Some(text);
        Ok(())
    }

    /// Charges a failure against a leased cell: back to `Pending` with
    /// `not_before_ms` backoff, or `Failed` once more than
    /// `max_retries` failures accrue. Returns whether the failure was
    /// permanent.
    ///
    /// # Errors
    ///
    /// [`FleetError::BadTransition`] unless the cell is `Leased`.
    pub fn fail(
        &mut self,
        cell: &CellId,
        why: &str,
        not_before_ms: u64,
        max_retries: u32,
    ) -> Result<bool, FleetError> {
        let rec = self.record_mut(cell)?;
        let attempts = match &rec.state {
            CellState::Leased { attempt, .. } => *attempt + 1,
            other => {
                return Err(FleetError::BadTransition {
                    cell: cell.to_string(),
                    err: format!("fail() requires a lease, state is {other:?}"),
                })
            }
        };
        let permanent = attempts > max_retries;
        self.append(
            Row::new()
                .s("ev", "fail")
                .s("cell", &cell.to_string())
                .u("attempts", u64::from(attempts))
                .u("not_before_ms", not_before_ms)
                .b("permanent", permanent)
                .s("why", why),
        )?;
        self.record_mut(cell)?.state = if permanent {
            CellState::Failed { attempts, last_error: why.to_owned() }
        } else {
            CellState::Pending { attempts, not_before_ms }
        };
        Ok(permanent)
    }

    /// (pending, leased, done, failed) cell counts.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for r in self.cells.values() {
            match r.state {
                CellState::Pending { .. } => c.0 += 1,
                CellState::Leased { .. } => c.1 += 1,
                CellState::Done { .. } => c.2 += 1,
                CellState::Failed { .. } => c.3 += 1,
            }
        }
        c
    }

    /// Whether every cell is terminal (`Done` or `Failed`).
    pub fn all_terminal(&self) -> bool {
        self.cells.values().all(|r| r.state.is_terminal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sfetch-ledger-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk tmp");
        dir
    }

    fn cells2() -> Vec<CellId> {
        vec![CellId::new("ev8", 4, 0, 2), CellId::new("stream", 8, 0, 2)]
    }

    fn no_validate(_: &str) -> Result<u64, String> {
        Err("no outputs in this test".into())
    }

    #[test]
    fn fresh_ledger_walks_the_happy_path() {
        let dir = tmp("happy");
        let cells = cells2();
        let (mut led, summary) =
            Ledger::open(dir.join("l.ledger"), 7, &cells, 1000, &no_validate).expect("open");
        assert_eq!(summary, ResumeSummary::default());
        assert_eq!(led.next_claimable(1000), Some(cells[0].clone()));

        let attempt = led.lease(&cells[0], 42, 5000, 1000).expect("lease");
        assert_eq!(attempt, 0);
        // Double-lease exclusion while the lease is live.
        assert!(matches!(
            led.lease(&cells[0], 43, 5000, 2000),
            Err(FleetError::BadTransition { .. })
        ));
        // The other cell is still claimable.
        assert_eq!(led.next_claimable(1000), Some(cells[1].clone()));

        let out = dir.join("c0.json");
        std::fs::write(&out, "body").expect("write out");
        led.complete(&cells[0], 99, &out, 123, "body".into()).expect("complete");
        assert!(matches!(led.state(&cells[0]), Ok(CellState::Done { digest: 99, .. })));
        assert_eq!(led.done_text(&cells[0]), Some("body"));
        // Terminal cells cannot be leased again.
        assert!(led.lease(&cells[0], 44, 9000, 6000).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_lease_is_reoffered_and_failures_accrue() {
        let dir = tmp("expiry");
        let cells = cells2();
        let (mut led, _) =
            Ledger::open(dir.join("l.ledger"), 7, &cells, 0, &no_validate).expect("open");
        led.lease(&cells[0], 1, 100, 0).expect("lease");
        // Deadline passed: claimable again, attempt not charged.
        assert_eq!(led.next_claimable(100), Some(cells[0].clone()));
        assert_eq!(led.lease(&cells[0], 2, 300, 150).expect("re-lease"), 0);

        // Two failures with backoff, third is permanent at max_retries=2.
        led.fail(&cells[0], "boom", 500, 2).expect("fail 1");
        assert!(matches!(
            led.state(&cells[0]),
            Ok(CellState::Pending { attempts: 1, not_before_ms: 500 })
        ));
        // Backoff respected.
        assert!(led.lease(&cells[0], 3, 900, 400).is_err());
        led.lease(&cells[0], 3, 900, 500).expect("after backoff");
        led.fail(&cells[0], "boom again", 1200, 2).expect("fail 2");
        led.lease(&cells[0], 4, 2000, 1200).expect("lease 3");
        let permanent = led.fail(&cells[0], "final boom", 3000, 2).expect("fail 3");
        assert!(permanent);
        assert!(matches!(
            led.state(&cells[0]),
            Ok(CellState::Failed { attempts: 3, .. })
        ));
        assert_eq!(led.next_claimable(10_000), Some(cells[1].clone()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_replays_to_the_same_state_and_resumes_done() {
        let dir = tmp("reopen");
        let cells = cells2();
        let path = dir.join("l.ledger");
        let out = dir.join("c.json");
        let body = "points…";
        std::fs::write(&out, body).expect("write out");
        let validate =
            |text: &str| -> Result<u64, String> { Ok(crate::fnv64(text.as_bytes())) };
        let digest = crate::fnv64(body.as_bytes());
        {
            let (mut led, _) = Ledger::open(&path, 7, &cells, 0, &validate).expect("open");
            led.lease(&cells[0], 1, 10_000, 0).expect("lease");
            led.complete(&cells[0], digest, &out, 5, body.into()).expect("complete");
            led.lease(&cells[1], 2, 50, 0).expect("lease 2");
            // Parent "crashes" here: cells[1]'s lease will have expired.
        }
        let (led, summary) = Ledger::open(&path, 7, &cells, 1_000, &validate).expect("reopen");
        assert_eq!(summary.resumed_done, 1);
        assert_eq!(summary.expired_leases, 1);
        assert_eq!(summary.invalidated, 0);
        assert_eq!(led.done_text(&cells[0]), Some(body));
        assert!(matches!(led.state(&cells[1]), Ok(CellState::Pending { attempts: 0, .. })));

        // Corrupt the recorded output: resume must demote to Pending.
        std::fs::write(&out, "rotted").expect("corrupt out");
        let (led, summary) = Ledger::open(&path, 7, &cells, 2_000, &validate).expect("reopen 2");
        assert_eq!(summary.invalidated, 1);
        assert!(matches!(led.state(&cells[0]), Ok(CellState::Pending { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_mismatch_rotates_the_ledger() {
        let dir = tmp("rotate");
        let cells = cells2();
        let path = dir.join("l.ledger");
        {
            let (mut led, _) = Ledger::open(&path, 7, &cells, 0, &no_validate).expect("open");
            led.lease(&cells[0], 1, 100, 0).expect("lease");
        }
        let (led, summary) = Ledger::open(&path, 8, &cells, 0, &no_validate).expect("reopen");
        assert_eq!(summary.replayed_events, 0, "different config starts fresh");
        assert!(matches!(led.state(&cells[0]), Ok(CellState::Pending { attempts: 0, .. })));
        assert!(path.with_extension("ledger.stale").exists(), "old ledger rotated aside");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn escaped_error_text_survives_replay() {
        let dir = tmp("esc");
        let cells = cells2();
        let path = dir.join("l.ledger");
        let why = "child said \"no\"\nand \\ dumped\ta \x1b[31mstack\r";
        {
            let (mut led, _) = Ledger::open(&path, 7, &cells, 0, &no_validate).expect("open");
            led.lease(&cells[0], 1, 100, 0).expect("lease");
            led.fail(&cells[0], why, 0, 0).expect("fail permanently");
        }
        let (led, _) = Ledger::open(&path, 7, &cells, 0, &no_validate).expect("reopen");
        match led.state(&cells[0]).expect("state") {
            CellState::Failed { last_error, .. } => assert_eq!(last_error, why),
            other => panic!("expected Failed, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn done_cell_with_a_tab_in_its_path_resumes() {
        let dir = tmp("tab");
        let cells = cells2();
        let path = dir.join("l.ledger");
        let out = dir.join("cell\tout.json");
        let body = "points";
        std::fs::write(&out, body).expect("write out");
        let validate = |text: &str| -> Result<u64, String> { Ok(crate::fnv64(text.as_bytes())) };
        {
            let (mut led, _) = Ledger::open(&path, 7, &cells, 0, &validate).expect("open");
            led.lease(&cells[0], 1, 10_000, 0).expect("lease");
            led.complete(&cells[0], crate::fnv64(body.as_bytes()), &out, 5, body.into())
                .expect("complete");
        }
        let (led, summary) = Ledger::open(&path, 7, &cells, 1_000, &validate).expect("reopen");
        assert_eq!(summary.resumed_done, 1, "the recorded path must name the same file");
        assert_eq!(summary.invalidated, 0);
        assert_eq!(led.done_text(&cells[0]), Some(body));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
