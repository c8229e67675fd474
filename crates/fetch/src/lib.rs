//! # sfetch-fetch
//!
//! The four fetch front-ends evaluated in *"Fetching instruction streams"*
//! (MICRO-35, 2002), behind one [`FetchEngine`] interface:
//!
//! * [`stream::StreamEngine`] — **the paper's contribution**: next stream
//!   predictor + FTQ + wide-line I-cache, sequential fallback on predictor
//!   misses, partial streams after mispredictions (§3).
//! * [`ev8::Ev8Engine`] — the Alpha EV8 baseline: 2bcgskew + BTB, fetching
//!   up to the first predicted-taken branch each cycle (§2.3).
//! * [`ftb_engine::FtbEngine`] — the decoupled FTB front-end with a
//!   perceptron direction predictor (§2.1).
//! * [`trace_cache::TraceCacheEngine`] — trace cache + next trace predictor
//!   with selective trace storage and a BTB/gshare secondary path (§2.2).
//!
//! The engines speculate against the [`sfetch_cfg::CodeImage`] (so wrong
//! paths fetch real bytes and pollute the I-cache) and carry O(1)
//! [`Checkpoint`]s on every delivered instruction so the processor can
//! repair speculative predictor state at recovery, exactly as §3.2/§4.1
//! describe.
//!
//! Every engine demand-fetches through one [`port::IcachePort`], which
//! also issues `sfetch_prefetch` probes from the engine's lookahead
//! structure (FTQ occupancy, predicted next stream, next trace) when the
//! non-blocking L1i miss pipeline is enabled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod engine;
pub mod ev8;
pub mod front;
pub mod ftb_engine;
pub mod ftq;
pub mod port;
pub mod stream;
pub mod trace_cache;

pub use bundle::{
    BranchPrediction, Checkpoint, CommittedControl, CommittedInst, FetchedInst, ResolvedBranch,
};
pub use engine::{EngineKind, FetchEngine, FetchEngineStats, WARM_FORMAT_VERSION};
pub use ev8::Ev8Engine;
pub use front::FrontPipeline;
pub use ftb_engine::FtbEngine;
pub use ftq::{FetchRequest, Ftq};
pub use port::{IcachePort, StallCause};
pub use stream::StreamEngine;
pub use trace_cache::TraceCacheEngine;
