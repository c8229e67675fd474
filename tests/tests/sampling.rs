//! Cross-crate correctness of the sampled-simulation subsystem
//! (`sfetch-sample`): the sampling-disabled path locksteps with the
//! canonical sim loop, checkpointed shards merge bit-identically, and
//! the sampled estimate brackets the truth on deterministic workloads.

use proptest::prelude::*;

use sfetch_bench::grid::{merge_grid, GridCell, GridError};
use sfetch_cfg::gen::{GenParams, ProgramGenerator};
use sfetch_cfg::{layout, CfgBuilder, CodeImage, CondBehavior, TripCount};
use sfetch_core::{simulate, ProcessorConfig};
use sfetch_fetch::EngineKind;
use sfetch_sample::{
    estimate, run_full_detailed, run_sampled, Confidence, SampleConfig, SamplePoint, Sampler,
};
use sfetch_trace::ArchCheckpoint;
use sfetch_workloads::phased::{self, PhasedParams};

fn small_image(seed: u64) -> CodeImage {
    let cfg = ProgramGenerator::new(GenParams::small(), seed).generate();
    let lay = layout::natural(&cfg);
    CodeImage::build(&cfg, &lay)
}

fn quick_schedule() -> SampleConfig {
    SampleConfig {
        interval: 50_000,
        warm_func: 10_000,
        warm_mem: 10_000,
        warm_detail: 2_000,
        measure: 5_000,
        ..Default::default()
    }
}

/// Sampling disabled must be **today's sim loop**: `run_full_detailed`
/// and `sfetch_core::simulate` construct the identical processor, so
/// every statistic — cycle counts included — locksteps exactly.
#[test]
fn disabled_sampling_locksteps_with_simulate() {
    let cfg = ProgramGenerator::new(GenParams::small(), 33).generate();
    let lay = layout::natural(&cfg);
    let img = CodeImage::build(&cfg, &lay);
    for kind in EngineKind::ALL {
        let pcfg = ProcessorConfig::table2(4);
        let via_sample = run_full_detailed(&img, kind, pcfg, 9, 3_000, 20_000);
        let via_simulate = simulate(&cfg, &img, kind, pcfg, 9, 3_000, 20_000);
        assert_eq!(via_sample, via_simulate, "{kind}: sampling-disabled path diverged");
    }
}

/// A run split into shards through **serialized** architectural
/// checkpoints merges bit-identically to the single-process run — the
/// property every window resumed from the checkpoint store (and the CI
/// `figure8_sampled --procs 2 --verify` smoke legs) relies on. The
/// checkpoint round-trips through bytes here, covering the exact
/// hand-off through the store.
#[test]
fn serialized_shard_split_merges_bit_identically() {
    let img = small_image(44);
    let scfg = quick_schedule();
    let pcfg = ProcessorConfig::table2(4);
    let total = 10 * scfg.interval;
    let windows = scfg.windows(total);

    let single = run_sampled(&img, EngineKind::Stream, pcfg, 5, total, &scfg);

    let mut sharded: Vec<SamplePoint> = Vec::new();
    // Three contiguous window ranges covering every window.
    let cuts = [0, windows / 3, 2 * windows / 3, windows];
    for cut in cuts.windows(2) {
        let range = cut[0]..cut[1];
        // The walk to this shard's boundary checkpoint.
        let mut walker = Sampler::new(&img, EngineKind::Stream, pcfg, scfg, 5);
        walker.skip(range.start);
        let bytes = walker.checkpoint().to_bytes();
        // The resuming side: restore from bytes, run the range.
        let cp = ArchCheckpoint::from_bytes(&bytes).expect("checkpoint round-trip");
        let mut child = Sampler::resume(&img, EngineKind::Stream, pcfg, scfg, &cp);
        assert_eq!(child.window(), range.start);
        sharded.extend(child.run(range.end - range.start));
    }
    let cell = GridCell { engine: EngineKind::Stream, width: 4 };
    let tuples: Vec<_> = sharded.into_iter().rev().map(|p| ("stream".to_owned(), 4, p)).collect();
    let merged = merge_grid(&[cell], windows, &tuples, scfg.confidence)
        .expect("complete set of windows")
        .remove(0);
    assert_eq!(single.points, merged.points, "sharded windows must equal the single-process run");
    assert_eq!(
        single.estimate,
        estimate(&merged.points, scfg.confidence),
        "aggregates must match too"
    );
}

/// The merge every grid result goes through refuses a hole or a
/// duplicate window instead of estimating over it.
#[test]
fn merge_grid_detects_holes_and_duplicates() {
    let cell = GridCell { engine: EngineKind::Ev8, width: 8 };
    let tuple = |window| {
        let p = SamplePoint {
            window,
            start_inst: 0,
            committed: 1,
            cycles: 1,
            stall_cycles: 0,
            mispredictions: 0,
        };
        ("ev8".to_owned(), 8, p)
    };
    let conf = Confidence::default();
    let merged = merge_grid(&[cell], 3, &[tuple(2), tuple(0), tuple(1)], conf).expect("complete");
    assert_eq!(merged[0].points.iter().map(|p| p.window).collect::<Vec<_>>(), vec![0, 1, 2]);
    for (tuples, want) in [
        (vec![tuple(0), tuple(2)], "merged 2 windows, expected 3"),
        (vec![tuple(0), tuple(0), tuple(1)], "duplicate window 0"),
        (vec![tuple(0), tuple(1), tuple(3)], "window 3 out of range"),
        (vec![], "merged 0 windows, expected 3"),
    ] {
        match merge_grid(&[cell], 3, &tuples, conf) {
            Err(e @ GridError::Merge { .. }) => {
                assert!(e.to_string().contains(want), "{e} lacks {want:?}")
            }
            other => panic!("{tuples:?}: want a merge error, got {other:?}"),
        }
    }
}

/// A strictly deterministic, periodic program: every branch is a fixed
/// loop or a fixed pattern, so the executor's RNG never perturbs the
/// path and every steady-state window behaves identically.
fn periodic_program(body_blocks: u64, pattern_period: usize) -> CodeImage {
    let mut b = CfgBuilder::new();
    let f = b.add_func("main");
    let head = b.add_block(f, 4);
    let mut cur = head;
    for i in 0..body_blocks {
        let next = b.add_block(f, 6 + (i as usize % 5));
        let arm = b.add_block(f, 3);
        let pat: Vec<bool> = (0..pattern_period.max(2)).map(|k| k % 3 == 0).collect();
        b.set_cond(cur, arm, next, CondBehavior::Pattern(pat));
        b.set_fallthrough(arm, next);
        cur = next;
    }
    let inner = b.add_block(f, 5);
    b.set_fallthrough(cur, inner);
    let latch = b.add_block(f, 1);
    b.set_cond(inner, inner, latch, CondBehavior::Loop { trip: TripCount::Fixed(7) });
    let exit = b.add_block(f, 1);
    b.set_cond(latch, head, exit, CondBehavior::Loop { trip: TripCount::Fixed(1 << 30) });
    b.set_return(exit);
    let cfg = b.finish().expect("valid periodic program");
    let lay = layout::natural(&cfg);
    CodeImage::build(&cfg, &lay)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On deterministic (periodic) workloads the sampled IPC estimate
    /// must land within its own reported confidence interval of the full
    /// detailed run's IPC (with an epsilon for the interval degenerating
    /// to a point when every window is identical).
    #[test]
    fn sampled_estimate_brackets_full_run_on_deterministic_workloads(
        body_blocks in 3u64..12,
        pattern_period in 2usize..7,
        seed in 0u64..50,
    ) {
        let img = periodic_program(body_blocks, pattern_period);
        let scfg = quick_schedule();
        let pcfg = ProcessorConfig::table2(4);
        let total = 8 * scfg.interval;
        let full = run_full_detailed(&img, EngineKind::Stream, pcfg, seed, 50_000, total);
        let run = run_sampled(&img, EngineKind::Stream, pcfg, seed, total, &scfg);
        prop_assert_eq!(run.points.len(), 8);
        let est = run.estimate;
        let eps = 0.02 * full.ipc();
        prop_assert!(
            est.ipc_lo - eps <= full.ipc() && full.ipc() <= est.ipc_hi + eps,
            "full IPC {:.4} outside sampled CI [{:.4}, {:.4}] (±{:.2}%)",
            full.ipc(), est.ipc_lo, est.ipc_hi, 100.0 * est.rel_half_width
        );
    }
}

/// The phased generator's small configuration runs end-to-end through
/// the sampler with a sane estimate (the long configuration is exercised
/// by the sampled grid binaries and `calibrate`).
#[test]
fn phased_small_samples_sanely() {
    let cfg = phased::generate(&PhasedParams::small(), 3);
    let lay = layout::natural(&cfg);
    let img = CodeImage::build(&cfg, &lay);
    let scfg = SampleConfig {
        interval: 100_000,
        warm_func: 40_000,
        warm_mem: 40_000,
        warm_detail: 5_000,
        measure: 10_000,
        ..Default::default()
    };
    let run = run_sampled(&img, EngineKind::Stream, ProcessorConfig::table2(8), 7, 600_000, &scfg);
    assert_eq!(run.points.len(), 6);
    assert!(run.estimate.ipc > 0.5 && run.estimate.ipc <= 8.0);
    for p in &run.points {
        assert!(p.stall_cycles < p.cycles, "stall capture is bounded by cycles");
    }
}
