//! The **warm-state contract** the batched sweep relies on: an engine's
//! commit-side warm state ([`FetchEngine::warm_state`]) depends only on
//! the engine kind and the committed records it was warmed on — never on
//! the pipe width, the prefetch configuration or the front pipeline.
//! The sweep warms one engine per kind and restores every other cell of
//! that kind from its bytes, so a configuration knob leaking into the
//! commit side would silently skew those cells; `batch_identity` would
//! catch the skew only on the cells and windows it happens to run.

use sfetch_bench::try_workload_by_name;
use sfetch_fetch::{CommittedInst, EngineKind, FetchEngine, FrontPipeline};
use sfetch_prefetch::{PrefetchConfig, PrefetchKind};
use sfetch_sample::runner::committed_record;
use sfetch_trace::Executor;
use sfetch_workloads::LayoutChoice;

/// Committed records skipped before the warming stream starts (past the
/// phased workload's start-up code), and the stream's length.
const SKIP: u64 = 1_000_000;
const RECORDS: usize = 100_000;

/// Every prefetch configuration a grid can ask for: off, each policy at
/// its default MSHR count, and each policy at 4 MSHRs (`--mshrs 4`).
fn prefetch_configs() -> Vec<PrefetchConfig> {
    std::iter::once(PrefetchConfig::none())
        .chain(PrefetchKind::ALL.iter().flat_map(|&k| {
            let on = PrefetchConfig::enabled(k);
            [on, PrefetchConfig { mshrs: 4, ..on }]
        }))
        .collect()
}

/// The legacy and the engine's own front, each with shadow decode on
/// and off.
fn fronts(kind: EngineKind) -> Vec<FrontPipeline> {
    [FrontPipeline::legacy(), FrontPipeline::for_engine(kind)]
        .into_iter()
        .flat_map(|f| [false, true].map(|shadow_decode| FrontPipeline { shadow_decode, ..f }))
        .collect()
}

fn warmed(
    kind: EngineKind,
    width: usize,
    pf: &PrefetchConfig,
    front: &FrontPipeline,
    records: &[CommittedInst],
) -> Vec<u8> {
    let mut e: Box<dyn FetchEngine> = kind.build_for(width, records[0].pc, pf, front);
    for block in records.chunks(512) {
        e.warm_block(block);
    }
    e.warm_state()
}

#[test]
fn warm_state_ignores_width_prefetch_and_front() {
    let w = try_workload_by_name("phased").expect("registered bench");
    let img = w.image(LayoutChoice::Optimized);
    let mut ex = Executor::from_image(img, w.ref_seed());
    ex.advance(SKIP);
    let records: Vec<CommittedInst> = ex.take(RECORDS).map(|d| committed_record(&d)).collect();
    let none = PrefetchConfig::none();
    for kind in EngineKind::ALL {
        let reference = warmed(kind, 2, &none, &FrontPipeline::legacy(), &records);
        let fresh = kind
            .build_for(2, records[0].pc, &none, &FrontPipeline::legacy())
            .warm_state();
        assert_ne!(reference, fresh, "{kind}: warming must change the engine's state");
        for width in [2, 4, 8] {
            for front in fronts(kind) {
                assert!(
                    warmed(kind, width, &none, &front, &records) == reference,
                    "{kind}: warm state depends on width {width} or front {front:?}"
                );
            }
            for pf in prefetch_configs() {
                let front = FrontPipeline::for_engine(kind);
                assert!(
                    warmed(kind, width, &pf, &front, &records) == reference,
                    "{kind}: warm state depends on width {width} or prefetch {pf:?}"
                );
            }
        }
    }
}
