//! Per-engine front-pipeline timing models.
//!
//! All four front-ends used to share one implicit front pipeline: a fixed
//! fetch→decode→rename latency, a fixed decode-redirect bubble, and a free
//! (zero-cycle) fetch restart after an execute-time squash. At warmed long
//! horizons that makes the engines converge — BENCH_5 measured a 1.07×
//! 8-wide IPC spread on the phased 50M workload — because the only
//! remaining difference between engines was their prediction accuracy,
//! not the *cost* of their pipeline organizations. (The paper's Fig. 8
//! claims are five relative ratios at 8-wide, not a spread; `calibrate`
//! records how far each front model sits from them.)
//!
//! [`FrontPipeline`] makes those costs explicit and per-engine:
//!
//! * [`depth`](FrontPipeline::depth) — fetch→decode→rename stages. An
//!   instruction fetched at cycle `t` can issue no earlier than
//!   `t + depth`. In steady state the ROB hides this entirely; it is paid
//!   on every pipeline refill after a squash, so deep front pipes cost
//!   `depth` extra cycles per misprediction.
//! * [`redirect_penalty`](FrontPipeline::redirect_penalty) — extra cycles
//!   the fetch unit is held after an execute-time misprediction squash
//!   before it can fetch down the corrected path: predictor-organization
//!   recovery cost (history/RAS repair, overriding-cascade re-steer,
//!   fill-unit flush) that the depth term does not capture.
//! * [`decode_redirect_lat`](FrontPipeline::decode_redirect_lat) — the
//!   decode-time misfetch bubble: cycles to re-steer fetch when decode
//!   discovers a branch the prediction structures missed.
//! * [`shadow_decode`](FrontPipeline::shadow_decode) — decode-time
//!   *shadow-branch discovery* ("Exposing Shadow Branches", PAPERS.md):
//!   scan the fetched-but-unconsumed remainder of each I-cache line/fetch
//!   group for direct unconditional branches and pre-install them into the
//!   engine's branch structures, so first encounters don't misfetch.
//!
//! Every knob has a neutral setting: [`FrontPipeline::legacy`] reproduces
//! the pre-existing shared model cycle-for-cycle (pinned by the lockstep
//! differential tests in `tests/tests/front_pipeline.rs`), and
//! [`FrontPipeline::for_engine`] gives each engine the model derived from
//! its predictor organization (see ARCHITECTURE.md for the table).

use crate::engine::EngineKind;

/// Front-pipeline (fetch→decode→rename) timing model for one engine.
///
/// See the [module docs](self) for the meaning of each knob and
/// [`FrontPipeline::legacy`] for the neutral setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrontPipeline {
    /// Fetch→decode→rename depth in cycles: an instruction fetched at
    /// cycle `t` is eligible to issue at `t + depth`. Must be ≥ 1.
    pub depth: u32,
    /// Extra cycles the fetch unit is held after an execute-time
    /// misprediction squash (0 = restart fetch the same cycle, the legacy
    /// behavior).
    pub redirect_penalty: u32,
    /// Decode-redirect (misfetch) bubble in cycles.
    pub decode_redirect_lat: u32,
    /// Enable decode-time shadow-branch discovery in already-fetched
    /// lines. Engines without a suitable branch structure on the misfetch
    /// path (the stream engine, whose streams end at taken branches by
    /// construction) ignore this knob.
    pub shadow_decode: bool,
}

impl FrontPipeline {
    /// The neutral model every engine shared before front pipelines became
    /// per-engine: 12-stage front (Table 2's 16-deep pipe minus the four
    /// back-end stages), free squash restart, 3-cycle misfetch bubble, no
    /// shadow-branch discovery. Reproduces the pre-existing engines
    /// cycle-for-cycle.
    pub const fn legacy() -> Self {
        FrontPipeline { depth: 12, redirect_penalty: 0, decode_redirect_lat: 3, shadow_decode: false }
    }

    /// The per-engine model derived from each predictor organization
    /// (Fig. 8 engines; rationale and table in ARCHITECTURE.md):
    ///
    /// * **EV8** — the deep EV8-style front pipe plus the 2bcgskew
    ///   overriding cascade: the final prediction arrives stages after
    ///   fetch, so squash recovery re-steers a long pipe.
    /// * **FTB** — short decoupled pipe; the FTQ restarts quickly and
    ///   decode shadow-discovers block terminators on sequential
    ///   (FTB-miss) fetches.
    /// * **Streams** — the paper's contribution: predictor off the
    ///   critical path, FTQ decoupling, partial-stream restart after
    ///   mispredictions (§3.2) make it the shortest recovery.
    /// * **Trace cache** — next-trace-predictor access plus fill-unit
    ///   flush on redirect sit between the two; the backup path
    ///   shadow-discovers branches into its BTB.
    pub fn for_engine(kind: EngineKind) -> Self {
        match kind {
            EngineKind::Ev8 => FrontPipeline {
                depth: 14,
                redirect_penalty: 6,
                decode_redirect_lat: 4,
                shadow_decode: false,
            },
            EngineKind::Ftb => FrontPipeline {
                depth: 9,
                redirect_penalty: 2,
                decode_redirect_lat: 2,
                shadow_decode: true,
            },
            EngineKind::Stream => FrontPipeline {
                depth: 8,
                redirect_penalty: 1,
                decode_redirect_lat: 2,
                shadow_decode: false,
            },
            EngineKind::TraceCache => FrontPipeline {
                depth: 11,
                redirect_penalty: 4,
                decode_redirect_lat: 3,
                shadow_decode: true,
            },
        }
    }

    /// Whether this is exactly the neutral [`FrontPipeline::legacy`] model.
    pub fn is_legacy(&self) -> bool {
        *self == Self::legacy()
    }
}

impl Default for FrontPipeline {
    fn default() -> Self {
        Self::legacy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_is_the_neutral_default() {
        assert_eq!(FrontPipeline::default(), FrontPipeline::legacy());
        assert!(FrontPipeline::legacy().is_legacy());
        let legacy = FrontPipeline::legacy();
        assert_eq!(legacy.depth, 12);
        assert_eq!(legacy.redirect_penalty, 0);
        assert_eq!(legacy.decode_redirect_lat, 3);
        assert!(!legacy.shadow_decode);
    }

    #[test]
    fn per_engine_models_are_distinct_and_non_legacy() {
        let models: Vec<FrontPipeline> =
            EngineKind::ALL.iter().map(|&k| FrontPipeline::for_engine(k)).collect();
        for (i, m) in models.iter().enumerate() {
            assert!(!m.is_legacy(), "engine model {i} must differ from legacy");
            assert!(m.depth >= 1);
            for other in &models[i + 1..] {
                assert_ne!(m, other, "per-engine models must be pairwise distinct");
            }
        }
        // The paper's ordering: EV8's recovery is the most expensive,
        // streams the cheapest.
        let ev8 = FrontPipeline::for_engine(EngineKind::Ev8);
        let stream = FrontPipeline::for_engine(EngineKind::Stream);
        assert!(ev8.depth + ev8.redirect_penalty > stream.depth + stream.redirect_penalty);
    }
}
