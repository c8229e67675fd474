//! # sfetch-obs
//!
//! The observability layer of the `stream-fetch` reproduction: everything
//! the simulator, the sampled runners, and the fault-tolerant fleet use to
//! *report* rather than to *simulate*.
//!
//! * [`progress`] — the mutex-guarded progress [`Reporter`] and the
//!   benchmark-grid countdown [`GridProgress`] (promoted here from the
//!   bench harness so grid, fleet supervisor, and sampled runners share
//!   one implementation).
//! * [`jsonl`] — the one line-JSON codec: writer ([`jsonl::Row`]),
//!   reader ([`jsonl::Obj`]) and append-only file ([`jsonl::JsonlFile`]).
//! * [`timeseries`] — [`TimeSeriesSink`]: interval snapshots of
//!   cycle-accounting deltas, column-sum-exact by construction (the rows
//!   partition the run; summing any column over all rows reproduces the
//!   end-of-run aggregate).
//! * [`konata`] — [`KonataTrace`]: per-instruction pipeline event traces
//!   in the Konata visualizer's log format, plus a [`konata::validate`]
//!   parser used by tests and CI.
//! * [`hist`] — [`Histogram`]: logarithmic wall-time histograms for the
//!   fleet's per-cell duration report.
//!
//! This crate is **deliberately dependency-free** (std only): the
//! simulator-agnostic `sfetch-fleet` crate depends on it, so nothing in
//! here may know about engines, processors, or statistics structs. Sinks
//! take plain column arrays and cycle-stamped events; the conversion from
//! simulator types lives with the callers (`sfetch-bench`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod jsonl;
pub mod konata;
pub mod progress;
pub mod timeseries;

pub use hist::Histogram;
pub use jsonl::{JsonError, JsonlFile, Obj, Row};
pub use konata::KonataTrace;
pub use progress::{GridProgress, Reporter};
pub use timeseries::TimeSeriesSink;
