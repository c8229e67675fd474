//! # sfetch-sample
//!
//! SMARTS-style **sampled simulation** for the `stream-fetch` reproduction.
//!
//! The paper evaluates 300M-instruction windows per benchmark; cycle-level
//! simulation of the full suite at that horizon is what sampling exists
//! for. This crate implements the standard recipe (Wunderlich et al.,
//! *SMARTS: Accelerating Microarchitecture Simulation via Rigorous
//! Statistical Sampling*, ISCA 2003): systematic sampling of short
//! detailed windows over a cheap functional fast-forward, with Student-t
//! confidence intervals on the aggregate estimate.
//!
//! Each sampling unit of `U` instructions ([`SampleConfig::interval`]) is
//! split into four phases:
//!
//! ```text
//! |---- fast-forward ----|-- functional warm --|- detailed warm -|- measure -|
//!    U - (Wf + Wd + D)            Wf                  Wd               D
//! ```
//!
//! * **fast-forward** — the architectural [`sfetch_trace::Executor`] alone
//!   (~25× faster than detailed simulation here);
//! * **functional warming** (`Wf`) — the executor drives the *warmup-only*
//!   update paths: cache state via [`sfetch_mem::MemoryHierarchy::warm_inst`]
//!   / [`warm_data`](sfetch_mem::MemoryHierarchy::warm_data) and predictor
//!   tables via [`sfetch_fetch::FetchEngine::warm_block`], with no timing
//!   model;
//! * **detailed warmup** (`Wd`) — the full cycle-level pipeline runs but
//!   its statistics are discarded;
//! * **measure** (`D`) — per-window IPC/CPI is captured into a
//!   [`SamplePoint`].
//!
//! Each window simulates on **fresh** structures warmed from the window's
//! own history, so windows are mutually independent — which is exactly
//! what lets a long run be split into shards: a shard resumes the
//! executor from an [`sfetch_trace::ArchCheckpoint`] at its first window
//! and produces *bit-identical* [`SamplePoint`]s to the unsharded run
//! (asserted by `tests/tests/sampling.rs`, and in CI by the
//! `figure8_sampled --verify` smoke legs).
//!
//! Window independence also makes the fast-forward pass *reusable*: the
//! state at each window's warming start depends only on the trace, never
//! on the engine or width under test. The [`store`] module banks those
//! states in a content-addressed, versioned [`CheckpointStore`] so that
//! one experiment's fast-forward work is every later experiment's too —
//! a warm store turns the whole configurations × windows grid into jobs
//! that start directly at functional warming ([`StoredSampler`]).
//!
//! Two window runners exist, and only two. The store-backed one is the
//! [`batch`] sweep: [`StoredSampler`] resolves each window's warming
//! state through the store and its warm bank, then one functional walk
//! per window warms and measures every cell — one cell
//! ([`StoredSampler::run_range`]) or a whole group ([`BatchSampler`]).
//! The storeless [`Sampler`] walks the trace live and is the reference
//! the store-backed runner is held to (`--verify`, the differential
//! tests).
//!
//! With sampling disabled, [`run_full_detailed`] is today's sim loop —
//! bit-identical to [`sfetch_core::simulate`], locksteped in tests.
//!
//! ```
//! use sfetch_cfg::{gen::{GenParams, ProgramGenerator}, layout, CodeImage};
//! use sfetch_core::ProcessorConfig;
//! use sfetch_fetch::EngineKind;
//! use sfetch_sample::{run_sampled, SampleConfig};
//!
//! let cfg = ProgramGenerator::new(GenParams::small(), 1).generate();
//! let image = CodeImage::build(&cfg, &layout::natural(&cfg));
//! let mut scfg = SampleConfig::default();
//! scfg.interval = 50_000;
//! scfg.warm_func = 5_000;
//! scfg.warm_mem = 5_000;
//! scfg.warm_detail = 1_000;
//! scfg.measure = 2_000;
//! let run = run_sampled(
//!     &image, EngineKind::Stream, ProcessorConfig::table2(4), 7, 500_000, &scfg,
//! );
//! assert_eq!(run.points.len(), 10);
//! assert!(run.estimate.ipc > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod config;
pub mod runner;
pub mod stats;
pub mod store;

pub use batch::{BatchCell, BatchSampler};
pub use config::{Confidence, SampleConfig};
pub use runner::{run_full_detailed, run_sampled, SamplePoint, SampledRun, Sampler};
pub use stats::{estimate, Estimate};
pub use store::{
    memory_model_digest, warm_model_digest, CheckpointStore, StoreKey, StoreMiss, StoreStats,
    StoredSampler, WarmTiming, STORE_VERSION, WARM_VERSION,
};
