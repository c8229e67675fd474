//! The per-engine front-pipeline model's contracts:
//!
//! * **`FrontPipeline::legacy()` is neutral** — the default front charges
//!   no redirect holds or penalties, runs no shadow decode, and every
//!   fetch hold it leaves is a decode-redirect bubble. (`golden_stats`
//!   pins its full statistics on the seed-suite subset.)
//! * **Stall accounting** — under *random* front models, the fetch-hold
//!   decomposition sums exactly (`hold_decode_cycles +
//!   hold_redirect_cycles == fetch_hold_cycles`), redirect penalties
//!   are charged once per execute-time squash and never under a zero
//!   penalty, and the event-driven back-end stays bit-identical to the
//!   legacy scan oracle (proptests).
//! * **The models differentiate** — each engine's own front model moves
//!   its cycle count off the legacy shared front (EV8's deeper,
//!   penalized front strictly costs cycles), and the shadow-decode
//!   engines actually install shadow branches.

use proptest::prelude::*;

use sfetch_cfg::gen::{GenParams, ProgramGenerator};
use sfetch_cfg::{layout, CodeImage};
use sfetch_core::{FrontPipeline, Processor, ProcessorConfig, SimStats};
use sfetch_fetch::EngineKind;

/// Runs `insts` committed instructions (no warmup/reset) with an
/// explicit front model and back-end selection.
fn run_with_front(
    cfg: &sfetch_cfg::Cfg,
    image: &CodeImage,
    kind: EngineKind,
    front: FrontPipeline,
    legacy_scan: bool,
    seed: u64,
    insts: u64,
) -> SimStats {
    let mut pc = ProcessorConfig::table2(4);
    pc.front = front;
    pc.legacy_scan = legacy_scan;
    let engine = kind.build_for(4, image.entry(), &pc.prefetch, &front);
    let mut p = Processor::new(pc, engine, cfg, image, seed);
    p.run(insts);
    p.stats()
}

/// The neutral front model adds nothing of its own: no redirect holds,
/// no penalties, no shadow installs; every hold is a decode bubble.
#[test]
fn legacy_front_adds_no_holds_penalties_or_shadow_installs() {
    let cfg = ProgramGenerator::new(GenParams::small(), 42).generate();
    let image = CodeImage::build(&cfg, &layout::natural(&cfg));
    let default_front = ProcessorConfig::table2(4).front;
    assert!(default_front.is_legacy(), "table2 must default to the neutral front");
    for kind in EngineKind::ALL {
        let s = run_with_front(&cfg, &image, kind, FrontPipeline::legacy(), false, 7, 30_000);
        assert!(s.committed > 0, "{kind}: no progress");
        assert_eq!(s.hold_redirect_cycles, 0, "{kind}: legacy front charged redirect holds");
        assert_eq!(s.redirect_penalties, 0, "{kind}: legacy front charged penalties");
        assert_eq!(s.engine.shadow_installs, 0, "{kind}: legacy front ran shadow decode");
        assert_eq!(
            s.fetch_hold_cycles, s.hold_decode_cycles,
            "{kind}: under the legacy front every hold is a decode-redirect bubble"
        );
    }
}

/// The per-engine models must actually differentiate: every engine's
/// cycle count moves off the legacy shared front — in the direction its
/// own depth implies — and the shadow-decode engines install shadow
/// branches.
#[test]
fn per_engine_fronts_differentiate_and_shadow_decode_installs() {
    let cfg = ProgramGenerator::new(GenParams::small(), 9).generate();
    let image = CodeImage::build(&cfg, &layout::natural(&cfg));
    for kind in EngineKind::ALL {
        let legacy = run_with_front(&cfg, &image, kind, FrontPipeline::legacy(), false, 5, 40_000);
        let own = run_with_front(&cfg, &image, kind, FrontPipeline::for_engine(kind), false, 5, 40_000);
        assert_ne!(
            own.cycles, legacy.cycles,
            "{kind}: own front model is indistinguishable from the legacy shared front"
        );
        if kind == EngineKind::Ev8 {
            // The one unambiguous direction: EV8's front is both deeper
            // than legacy and the most heavily penalized, so it must
            // cost cycles (this is what widens the Fig. 8 spread).
            assert!(
                own.cycles > legacy.cycles,
                "EV8's deeper, penalized front ({} cycles) must cost more than legacy ({})",
                own.cycles,
                legacy.cycles
            );
        }
        assert!(own.redirect_penalties > 0, "{kind}: no redirect penalties charged");
        assert!(own.hold_redirect_cycles > 0, "{kind}: no redirect hold cycles");
        if FrontPipeline::for_engine(kind).shadow_decode {
            assert!(
                own.engine.shadow_installs > 0,
                "{kind}: shadow decode enabled but nothing installed"
            );
        } else {
            assert_eq!(own.engine.shadow_installs, 0, "{kind}: phantom shadow installs");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under random front models: the stall decomposition sums exactly,
    /// penalties are charged once per execute-time squash (and never
    /// with a zero penalty), and committed progress is unharmed.
    #[test]
    fn stall_decomposition_sums_exactly_under_random_fronts(
        depth in 1u32..24,
        redirect_penalty in 0u32..8,
        decode_redirect_lat in 1u32..6,
        shadow_decode in any::<bool>(),
        engine_idx in 0usize..4,
        seed in 0u64..1024,
    ) {
        let kind = EngineKind::ALL[engine_idx];
        let front = FrontPipeline { depth, redirect_penalty, decode_redirect_lat, shadow_decode };
        let cfg = ProgramGenerator::new(GenParams::small(), seed % 8).generate();
        let image = CodeImage::build(&cfg, &layout::natural(&cfg));
        let s = run_with_front(&cfg, &image, kind, front, false, seed, 15_000);
        prop_assert!(s.committed >= 15_000, "{kind}: no forward progress");
        prop_assert_eq!(
            s.hold_decode_cycles + s.hold_redirect_cycles,
            s.fetch_hold_cycles,
            "{}: stall decomposition does not sum", kind
        );
        if redirect_penalty == 0 {
            prop_assert_eq!(s.redirect_penalties, 0, "{}: penalty charged at zero", kind);
            prop_assert_eq!(s.hold_redirect_cycles, 0, "{}: redirect hold at zero penalty", kind);
        } else {
            prop_assert_eq!(
                s.redirect_penalties, s.mispredictions,
                "{}: penalties must be charged exactly once per squash", kind
            );
        }
    }

    /// The event-driven back-end and the legacy scan oracle stay
    /// bit-identical under random front models — the front pipeline is
    /// entirely a fetch-side concern.
    #[test]
    fn event_backend_matches_scan_oracle_under_random_fronts(
        depth in 1u32..20,
        redirect_penalty in 0u32..6,
        shadow_decode in any::<bool>(),
        engine_idx in 0usize..4,
        seed in 0u64..512,
    ) {
        let kind = EngineKind::ALL[engine_idx];
        let front = FrontPipeline {
            depth,
            redirect_penalty,
            decode_redirect_lat: 2,
            shadow_decode,
        };
        let cfg = ProgramGenerator::new(GenParams::small(), seed % 8).generate();
        let image = CodeImage::build(&cfg, &layout::natural(&cfg));
        let event = run_with_front(&cfg, &image, kind, front, false, seed, 10_000);
        let scan = run_with_front(&cfg, &image, kind, front, true, seed, 10_000);
        prop_assert_eq!(event, scan, "{}: back-ends diverged under a random front", kind);
    }
}
