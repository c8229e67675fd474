//! # sfetch-trace
//!
//! The architectural (functional) execution layer of the `stream-fetch`
//! simulator: it walks a laid-out program ([`sfetch_cfg::CodeImage`])
//! evaluating the branch-behaviour models attached to the CFG, and yields
//! the *committed-path* dynamic instruction sequence.
//!
//! The paper's methodology (§4.1) is trace-driven simulation: the timing
//! simulator consumes a correct-path trace while its front-end speculates
//! against the static basic block dictionary. This crate is the trace side
//! of that split:
//!
//! * [`Executor`] — deterministic, infinite iterator of [`DynInst`]s (the
//!   trace; seeded, so *train* vs *ref* inputs are just different seeds),
//!   plus [`Executor::advance`], the state-only fast-forward that crosses
//!   straight-line runs block by block without producing records,
//! * [`ArchCheckpoint`] — serializable architectural state so a long
//!   trace can be suspended and resumed bit-identically (the basis of the
//!   `sfetch-sample` checkpoint store; digests use [`sfetch_tab::fnv64`]),
//! * [`profile_cfg`] — runs a training execution to produce the
//!   [`sfetch_cfg::EdgeProfile`] consumed by the layout optimizer,
//! * [`stream::StreamExtractor`] — segments a trace into *instruction
//!   streams* exactly as the paper defines them (§1),
//! * [`stats::TraceStats`] — the workload-characterization numbers the
//!   paper's Tables 1/3 discussion relies on (taken ratios, basic-block and
//!   stream sizes).
//!
//! ```
//! use sfetch_cfg::{gen::{GenParams, ProgramGenerator}, layout, CodeImage};
//! use sfetch_trace::Executor;
//!
//! let cfg = ProgramGenerator::new(GenParams::small(), 1).generate();
//! let lay = layout::natural(&cfg);
//! let img = CodeImage::build(&cfg, &lay);
//! let mut exec = Executor::new(&cfg, &img, 7);
//! let first: Vec<_> = (&mut exec).take(100).collect();
//! assert_eq!(first.len(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ckpt;
pub mod exec;
pub mod profile;
pub mod record;
pub mod stats;
pub mod stream;

pub use ckpt::ArchCheckpoint;
pub use exec::{trace_fingerprint, Executor, OracleSource};
pub use profile::profile_cfg;
pub use record::{DynControl, DynInst};
pub use stats::TraceStats;
pub use stream::{Stream, StreamExtractor, StreamStats};
