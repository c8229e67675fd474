//! Differential tests: the event-driven back-end must retire the
//! bit-identical instruction/cycle sequence as the legacy per-cycle ROB
//! scan, for every fetch engine, in lockstep and at large flight depths.
//!
//! Commits are the oracle's instruction sequence by construction, so
//! equal per-cycle `SimStats` (committed count, cycle count, cache and
//! misprediction counters) pin the *(instruction, cycle)* retire sequence
//! exactly: any divergence in issue order, memory-access order, or squash
//! handling would show up in the first differing cycle.

use sfetch_cfg::gen::{GenParams, ProgramGenerator};
use sfetch_cfg::{layout, CodeImage};
use sfetch_core::{simulate, Processor, ProcessorConfig};
use sfetch_fetch::EngineKind;

fn lockstep(kind: EngineKind, width: usize, cycles: u64, gen_seed: u64, exec_seed: u64) {
    let cfg = ProgramGenerator::new(GenParams::small(), gen_seed).generate();
    let image = CodeImage::build(&cfg, &layout::natural(&cfg));
    let mut pc_event = ProcessorConfig::table2(width);
    pc_event.legacy_scan = false;
    let mut pc_scan = pc_event;
    pc_scan.legacy_scan = true;
    let build = || kind.build_for(width, image.entry(), &pc_event.prefetch, &pc_event.front);
    let mut event = Processor::new(pc_event, build(), &cfg, &image, exec_seed);
    let mut scan = Processor::new(pc_scan, build(), &cfg, &image, exec_seed);
    for c in 0..cycles {
        event.cycle();
        scan.cycle();
        assert_eq!(
            event.stats(),
            scan.stats(),
            "{kind}: back-ends diverged at cycle {c}"
        );
    }
    assert!(event.committed() > 0, "{kind}: lockstep window committed nothing");
}

#[test]
fn every_engine_retires_identically_under_both_backends() {
    for kind in EngineKind::ALL {
        lockstep(kind, 4, 20_000, 42, 7);
    }
}

#[test]
fn lockstep_holds_at_eight_wide() {
    lockstep(EngineKind::Stream, 8, 15_000, 10, 3);
    lockstep(EngineKind::Ev8, 8, 15_000, 10, 3);
}

#[test]
fn large_rob_runs_are_bit_identical() {
    // The flight depths where the scan is quadratic: the event-driven
    // scheduler must still match it exactly.
    let cfg = ProgramGenerator::new(GenParams::small(), 5).generate();
    let image = CodeImage::build(&cfg, &layout::natural(&cfg));
    for rob in [512, 1024] {
        let mut pc = ProcessorConfig::table2(8);
        pc.rob_entries = rob;
        let event = simulate(&cfg, &image, EngineKind::Stream, pc, 9, 5_000, 40_000);
        pc.legacy_scan = true;
        let scan = simulate(&cfg, &image, EngineKind::Stream, pc, 9, 5_000, 40_000);
        assert_eq!(event, scan, "rob_entries = {rob}");
    }
}

#[test]
fn squash_storms_stay_identical() {
    // A branchy program on the engine with the weakest predictor coverage
    // maximizes misprediction squashes; the wheel must never leave a
    // stale token that changes issue behaviour.
    let mut p = GenParams::small();
    p.n_funcs = 12;
    let cfg = ProgramGenerator::new(p, 77).generate();
    let image = CodeImage::build(&cfg, &layout::natural(&cfg));
    let pc = ProcessorConfig::table2(8);
    let event = simulate(&cfg, &image, EngineKind::Ev8, pc, 13, 2_000, 60_000);
    let mut pc_scan = pc;
    pc_scan.legacy_scan = true;
    let scan = simulate(&cfg, &image, EngineKind::Ev8, pc_scan, 13, 2_000, 60_000);
    assert_eq!(event, scan);
    assert!(event.mispredictions > 100, "window must actually squash");
}
