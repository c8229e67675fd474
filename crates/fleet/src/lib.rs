//! # sfetch-fleet
//!
//! The **fault-tolerant execution layer** between an experiment grid
//! and its workers.
//!
//! A paper-scale grid (sampled windows × engines × widths) runs for a
//! long time, and one lost worker — a crash, a hang, a truncated
//! output — must not kill it. The fix is the same move the paper makes
//! for instruction fetch (a squashed stream is *re-fetchable* because
//! streams derive only from the program) and MANA makes for prefetch
//! records (a mispredicted record is *re-derivable*): make every unit
//! of work **idempotent and re-offerable**, then survive any individual
//! failure by simply re-running the cell.
//!
//! The pieces:
//!
//! * [`CellId`] — one idempotent work cell: an *(engine, width,
//!   window-range)* slice of the grid. Cells derive only from the
//!   workload and the checkpoint store, so running a cell twice
//!   produces byte-identical output.
//! * [`Ledger`] — the persistent cell state machine, one line-JSON
//!   event per transition: `Pending → Leased(worker, deadline) →
//!   Done(digest) | Failed(attempts)`. Leases expire on deadline, so a
//!   crashed or hung worker's cells are re-offered; `Done` cells are
//!   skipped on restart (their verified output is reloaded from disk),
//!   so a `SIGKILL`ed run resumes mid-grid for free.
//! * [`Supervisor`](supervisor::run_fleet) — the worker pool: runs up
//!   to `procs` leased cell groups, each on a worker thread of this
//!   process, and waits on one completion channel for their results;
//!   enforces per-lease deadlines derived from observed cell durations
//!   (p95 × k with a floor), detaches and re-leases stragglers, retries
//!   failed cells with capped exponential backoff + deterministic
//!   jitter, writes each validated output atomically next to the
//!   ledger, and degrades gracefully: after the retry budget, a cell is
//!   marked `Failed` and the run completes over the remaining cells
//!   with an explicit incomplete count instead of panicking.
//! * [`trailer`] — the end-of-text checksum trailer every worker output
//!   carries, so a truncated or corrupt output is *detected and the
//!   cell re-run* rather than silently merged short.
//! * [`chaos`] — the deterministic fault-injection harness
//!   (`--chaos <seed>`): worker bodies fail before any work, stall past
//!   their deadline, return truncated or corrupt output, or report
//!   failure after computing valid output. Faults are a pure function of
//!   *(seed, cell, attempt)* and never fire past attempt 1, so every
//!   chaos run provably converges — and is asserted (in tests and a CI
//!   leg) to merge **bit-identically** to a fault-free run.
//!
//! The crate is deliberately simulator-agnostic (its only dependency is
//! the std-only `sfetch-obs` observability layer, through which the
//! supervisor writes a structured `events.jsonl` decision log next to
//! the ledger): the worker body and the output validation are
//! caller-supplied closures. `sfetch-bench` supplies the grid semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod chaos;
pub mod error;
pub mod ledger;
pub mod supervisor;
pub mod trailer;

pub use cell::CellId;
pub use chaos::Fault;
pub use error::FleetError;
pub use ledger::{CellState, Ledger, ResumeSummary, LEDGER_SCHEMA};
pub use supervisor::{run_fleet, write_atomic, CellDone, FleetConfig, FleetReport};
pub use sfetch_tab::fnv64;
pub use trailer::{seal, unseal, TrailerError};

/// Milliseconds since the Unix epoch — the wall-clock the ledger
/// persists (leases must stay meaningful across process restarts, so
/// a monotonic in-process clock is not enough).
pub fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}
