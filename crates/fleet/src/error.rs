//! The fleet's typed error hierarchy.

use std::fmt;
use std::path::PathBuf;

/// Anything that can go wrong in the fleet layer itself — as opposed to
/// a *cell failure*, which is an expected event the supervisor retries
/// and accounts for in its report. A `FleetError` means the run cannot
/// proceed at all (the ledger is unwritable, a worker cannot even be
/// spawned, an API was misused).
#[derive(Debug)]
pub enum FleetError {
    /// Filesystem failure on a fleet-owned path (ledger, cell outputs).
    Io {
        /// What the fleet was doing.
        what: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error, stringified.
        err: String,
    },
    /// A worker could not be started at all.
    Spawn {
        /// The cell the worker was meant to run.
        cell: String,
        /// The underlying error, stringified.
        err: String,
    },
    /// A ledger line could not be parsed during replay.
    LedgerParse {
        /// The ledger file.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        err: String,
    },
    /// An illegal state-machine transition was requested (e.g. leasing
    /// a `Done` cell, completing a cell that holds no lease, a second
    /// live lease on the same cell).
    BadTransition {
        /// The cell involved.
        cell: String,
        /// The transition that was refused and why.
        err: String,
    },
    /// A cell referenced by the caller or the ledger is unknown.
    UnknownCell(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Io { what, path, err } => {
                write!(f, "{what} {}: {err}", path.display())
            }
            FleetError::Spawn { cell, err } => write!(f, "spawn worker for cell {cell}: {err}"),
            FleetError::LedgerParse { path, line, err } => {
                write!(f, "ledger {} line {line}: {err}", path.display())
            }
            FleetError::BadTransition { cell, err } => write!(f, "cell {cell}: {err}"),
            FleetError::UnknownCell(cell) => write!(f, "unknown cell {cell}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl FleetError {
    /// Convenience constructor for [`FleetError::Io`].
    pub fn io(what: &'static str, path: impl Into<PathBuf>, err: impl fmt::Display) -> Self {
        FleetError::Io { what, path: path.into(), err: err.to_string() }
    }
}
