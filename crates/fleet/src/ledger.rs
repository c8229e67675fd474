//! The persistent **cell ledger**: one line-JSON event per recorded
//! outcome, replayed on open.
//!
//! The ledger is the fleet's single source of truth for which work is
//! done. Each cell walks the state machine
//!
//! ```text
//!              done
//! Pending(a) ───────▶ Done(digest)
//!   │    ▲
//!   │    └─ fail, a + 1 ≤ budget: Pending(a + 1)
//!   └─ fail, a + 1 > budget ──▶ Failed(a + 1)
//! ```
//!
//! and only outcomes are recorded: each `done` and `fail` is
//! **appended** to the ledger file before it takes effect in memory, so
//! the on-disk event log replayed from the top always reproduces the
//! in-memory state (asserted by proptest in
//! `tests/tests/fleet_ledger.rs`). Which worker holds a `Pending` cell
//! right now is not the ledger's business: the supervisor keeps its
//! leases in memory, because every worker is a thread of the process
//! that leased it and no lease can outlive that process. Crash recovery
//! falls out of replay:
//!
//! * a cell that was running when the process died is still `Pending`
//!   at its attempt count, so the next run offers it at once (an
//!   interrupted attempt is not charged);
//! * a `Done` cell's recorded output file is re-read and re-verified
//!   against its recorded digest on open; if it still verifies the cell
//!   is skipped entirely (zero recompute on resume), otherwise it is
//!   demoted to `Pending` and recomputed.
//!
//! Ledgers written by older builds also hold `lease` lines and a retry
//! backoff time on each `fail` line; replay ignores both, so such a
//! store resumes under the same schema tag with nothing recomputed.
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
use sfetch_tab::FnvMap;

use crate::cell::CellId;
use crate::error::FleetError;

/// Schema tag of the ledger's header line.
pub const LEDGER_SCHEMA: &str = "sfetch-fleet-ledger-v1";

/// The per-cell state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellState {
    /// Not yet run, re-offered after a failure, or interrupted by a
    /// process that died mid-cell.
    Pending {
        /// Failures charged so far.
        attempts: u32,
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
    /// Failures charged so far, in any state.
    fn attempts(&self) -> u32 {
        match *self {
            CellState::Pending { attempts }
            | CellState::Done { attempts, .. }
            | CellState::Failed { attempts, .. } => attempts,
        }
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

impl CellRecord {
    fn pending() -> Self {
        CellRecord { state: CellState::Pending { attempts: 0 }, out: None, text: None }
    }
}

/// The file-backed cell ledger. See the module docs for semantics.
pub struct Ledger {
    file: JsonlFile,
    /// Record table — `state`/`record_mut` lookups land once per
    /// supervisor claim per cell. Iteration-order determinism lives in
    /// `order`, not the table.
    cells: FnvMap<CellId, CellRecord>,
    /// The opened cell set in sorted order: `cells()` — and so the
    /// supervisor's claims and the final report — walk this, so claiming
    /// stays reproducible run to run.
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
        validate: &dyn Fn(&str) -> Result<u64, String>,
    ) -> Result<(Self, ResumeSummary), FleetError> {
        let path = path.into();
        let mut summary = ResumeSummary::default();
        let mut replayed: FnvMap<CellId, CellRecord> = FnvMap::default();

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
        let mut resolved: FnvMap<CellId, CellRecord> = FnvMap::default();
        for cell in &order {
            let mut rec = replayed.remove(cell).unwrap_or_else(CellRecord::pending);
            if let CellState::Done { digest, attempts, .. } = &rec.state {
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
                        rec.state = CellState::Pending { attempts: *attempts };
                        rec.out = None;
                    }
                }
            }
            resolved.insert(cell.clone(), rec);
        }

        Ok((Ledger { file, cells: resolved, order }, summary))
    }

    fn replay_line(line: &str, map: &mut FnvMap<CellId, CellRecord>) -> Result<(), String> {
        let obj = Obj::parse(line)?;
        let ev = obj.s("ev")?;
        if ev == "open" {
            return Ok(()); // A re-opened ledger re-appends nothing; ignore.
        }
        let cell = CellId::parse(obj.s("cell")?)?;
        let rec = map.entry(cell).or_insert_with(CellRecord::pending);
        match ev {
            // Older builds persisted leases; a lease never changed what
            // was computed, so the cell stays at its attempt count.
            "lease" => {}
            "done" => {
                let attempts = rec.state.attempts();
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
                    rec.state = CellState::Pending { attempts };
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
        self.cells.get_mut(cell).ok_or_else(|| FleetError::UnknownCell(cell.to_string()))
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

    /// Marks a `Pending` cell `Done` with its verified output.
    ///
    /// # Errors
    ///
    /// [`FleetError::BadTransition`] unless the cell is `Pending`.
    pub fn complete(
        &mut self,
        cell: &CellId,
        digest: u64,
        out: &Path,
        dur_ms: u64,
        text: String,
    ) -> Result<(), FleetError> {
        let attempts = self.pending_attempts(cell, "complete")?;
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

    /// Charges a failure against a `Pending` cell: it stays `Pending`,
    /// one attempt further on, or becomes `Failed` once more than
    /// `max_retries` failures accrue. Returns whether the failure was
    /// permanent.
    ///
    /// # Errors
    ///
    /// [`FleetError::BadTransition`] unless the cell is `Pending`.
    pub fn fail(&mut self, cell: &CellId, why: &str, max_retries: u32) -> Result<bool, FleetError> {
        let attempts = self.pending_attempts(cell, "fail")? + 1;
        let permanent = attempts > max_retries;
        self.append(
            Row::new()
                .s("ev", "fail")
                .s("cell", &cell.to_string())
                .u("attempts", u64::from(attempts))
                .b("permanent", permanent)
                .s("why", why),
        )?;
        self.record_mut(cell)?.state = if permanent {
            CellState::Failed { attempts, last_error: why.to_owned() }
        } else {
            CellState::Pending { attempts }
        };
        Ok(permanent)
    }

    /// The attempt count of a `Pending` cell — the one state `op` may
    /// record an outcome from.
    fn pending_attempts(&self, cell: &CellId, op: &str) -> Result<u32, FleetError> {
        match self.state(cell)? {
            CellState::Pending { attempts } => Ok(*attempts),
            other => Err(FleetError::BadTransition {
                cell: cell.to_string(),
                err: format!("{op}() requires a pending cell, state is {other:?}"),
            }),
        }
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
            Ledger::open(dir.join("l.ledger"), 7, &cells, &no_validate).expect("open");
        assert_eq!(summary, ResumeSummary::default());
        assert_eq!(led.cells().collect::<Vec<_>>(), [&cells[0], &cells[1]]);
        assert!(matches!(led.state(&cells[0]), Ok(CellState::Pending { attempts: 0 })));

        let out = dir.join("c0.json");
        std::fs::write(&out, "body").expect("write out");
        led.complete(&cells[0], 99, &out, 123, "body".into()).expect("complete");
        assert!(matches!(led.state(&cells[0]), Ok(CellState::Done { digest: 99, .. })));
        assert_eq!(led.done_text(&cells[0]), Some("body"));
        // Terminal cells take no further outcome.
        assert!(matches!(
            led.complete(&cells[0], 99, &out, 1, "body".into()),
            Err(FleetError::BadTransition { .. })
        ));
        assert!(led.fail(&cells[0], "late", 3).is_err());
        assert!(matches!(
            led.fail(&CellId::new("nope", 4, 0, 2), "x", 3),
            Err(FleetError::UnknownCell(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn older_lease_lines_are_ignored_and_failures_accrue() {
        let dir = tmp("accrue");
        let cells = cells2();
        let path = dir.join("l.ledger");
        // What an older build left behind when it was killed: a failure
        // with a retry backoff, then a lease on the retry whose deadline
        // is far away.
        let cell = cells[0].to_string();
        let open = Row::new().s("ev", "open").s("schema", LEDGER_SCHEMA).u("config", 7);
        let fail = Row::new().s("ev", "fail").s("cell", &cell).u("attempts", 1);
        let lease = Row::new().s("ev", "lease").s("cell", &cell).u("worker", 9).u("attempt", 1);
        let lines = [
            open.u("cells", 2).finish(),
            fail.u("not_before_ms", 500).b("permanent", false).s("why", "boom").finish(),
            lease.u("deadline_ms", u64::MAX).finish(),
        ];
        std::fs::write(&path, lines.join("\n") + "\n").expect("write older ledger");
        let (mut led, summary) = Ledger::open(&path, 7, &cells, &no_validate).expect("open");
        assert_eq!(summary.replayed_events, 2);
        assert!(matches!(led.state(&cells[0]), Ok(CellState::Pending { attempts: 1 })));

        // Two more failures: the third is permanent at max_retries = 2.
        assert!(!led.fail(&cells[0], "boom again", 2).expect("fail 2"));
        assert!(matches!(led.state(&cells[0]), Ok(CellState::Pending { attempts: 2 })));
        assert!(led.fail(&cells[0], "final boom", 2).expect("fail 3"));
        assert!(matches!(led.state(&cells[0]), Ok(CellState::Failed { attempts: 3, .. })));
        assert!(matches!(led.state(&cells[1]), Ok(CellState::Pending { attempts: 0 })));
        drop(led);
        let text = std::fs::read_to_string(&path).expect("read ledger");
        assert_eq!(text.matches("\"ev\":\"lease\"").count(), 1, "no lease is appended: {text}");
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
            let (mut led, _) = Ledger::open(&path, 7, &cells, &validate).expect("open");
            led.fail(&cells[0], "boom", 3).expect("fail");
            led.complete(&cells[0], digest, &out, 5, body.into()).expect("complete");
            led.fail(&cells[1], "boom", 3).expect("fail 2");
            // Parent "crashes" here, mid-way through cells[1]'s retry.
        }
        let (led, summary) = Ledger::open(&path, 7, &cells, &validate).expect("reopen");
        assert_eq!(summary.resumed_done, 1);
        assert_eq!(summary.invalidated, 0);
        assert_eq!(led.done_text(&cells[0]), Some(body));
        assert!(matches!(led.state(&cells[0]), Ok(CellState::Done { attempts: 1, .. })));
        assert!(matches!(led.state(&cells[1]), Ok(CellState::Pending { attempts: 1 })));

        // Corrupt the recorded output: resume must demote to Pending.
        std::fs::write(&out, "rotted").expect("corrupt out");
        let (led, summary) = Ledger::open(&path, 7, &cells, &validate).expect("reopen 2");
        assert_eq!(summary.invalidated, 1);
        assert!(matches!(led.state(&cells[0]), Ok(CellState::Pending { attempts: 1 })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_mismatch_rotates_the_ledger() {
        let dir = tmp("rotate");
        let cells = cells2();
        let path = dir.join("l.ledger");
        {
            let (mut led, _) = Ledger::open(&path, 7, &cells, &no_validate).expect("open");
            led.fail(&cells[0], "boom", 3).expect("fail");
        }
        let (led, summary) = Ledger::open(&path, 8, &cells, &no_validate).expect("reopen");
        assert_eq!(summary.replayed_events, 0, "different config starts fresh");
        assert!(matches!(led.state(&cells[0]), Ok(CellState::Pending { attempts: 0 })));
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
            let (mut led, _) = Ledger::open(&path, 7, &cells, &no_validate).expect("open");
            led.fail(&cells[0], why, 0).expect("fail permanently");
        }
        let (led, _) = Ledger::open(&path, 7, &cells, &no_validate).expect("reopen");
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
            let (mut led, _) = Ledger::open(&path, 7, &cells, &validate).expect("open");
            led.complete(&cells[0], crate::fnv64(body.as_bytes()), &out, 5, body.into())
                .expect("complete");
        }
        let (led, summary) = Ledger::open(&path, 7, &cells, &validate).expect("reopen");
        assert_eq!(summary.resumed_done, 1, "the recorded path must name the same file");
        assert_eq!(summary.invalidated, 0);
        assert_eq!(led.done_text(&cells[0]), Some(body));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
