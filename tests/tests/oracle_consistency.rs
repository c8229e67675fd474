//! Cross-crate correctness: whatever the front-end speculates, the committed
//! path must equal the architectural executor's, for every engine, layout
//! and width — and be bit-for-bit deterministic.

use sfetch_core::{Processor, ProcessorConfig};
use sfetch_fetch::EngineKind;
use sfetch_isa::BranchKind;
use sfetch_tests::{sim, test_workload};
use sfetch_trace::Executor;
use sfetch_workloads::LayoutChoice;

#[test]
fn committed_branch_counts_match_the_executor() {
    let w = test_workload(77);
    let n = 120_000u64;
    for layout in [LayoutChoice::Base, LayoutChoice::Optimized] {
        // Ground truth from the executor.
        let image = w.image(layout);
        let mut conds = 0u64;
        let mut taken = 0u64;
        for d in Executor::new(w.cfg(), image, w.ref_seed()).take(n as usize) {
            if let Some(c) = d.control {
                if c.kind == BranchKind::Cond {
                    conds += 1;
                    taken += u64::from(c.taken);
                }
            }
        }
        for kind in EngineKind::ALL {
            let pc = ProcessorConfig::table2(4);
            let engine = kind.build_for(4, image.entry(), &pc.prefetch, &pc.front);
            let mut p = Processor::new(pc, engine, w.cfg(), image, w.ref_seed());
            p.run(n);
            let s = p.stats();
            assert_eq!(s.cond_branches, conds, "{kind}/{layout}: cond count diverged");
            assert_eq!(s.cond_taken, taken, "{kind}/{layout}: taken count diverged");
        }
    }
}

#[test]
fn simulation_is_bit_deterministic() {
    let w = test_workload(5);
    for kind in EngineKind::ALL {
        let a = sim(&w, kind, LayoutChoice::Optimized, 8, 80_000);
        let b = sim(&w, kind, LayoutChoice::Optimized, 8, 80_000);
        assert_eq!(a, b, "{kind}: repeated runs must be identical");
    }
}

#[test]
fn different_ref_seeds_change_results() {
    let w = test_workload(5);
    let a = sim(&w, EngineKind::Stream, LayoutChoice::Base, 4, 60_000);
    let w2 = {
        // Same program, different measurement input.
        let mut p = sfetch_cfg::gen::GenParams::default_int();
        p.n_funcs = 50;
        p.blocks_per_func = (12, 50);
        let cfg = sfetch_cfg::gen::ProgramGenerator::new(p, 5).generate();
        sfetch_workloads::Workload::from_cfg("itest", cfg, 16, 9999)
    };
    let b = sim(&w2, EngineKind::Stream, LayoutChoice::Base, 4, 60_000);
    assert_ne!(a.cycles, b.cycles, "different inputs should differ in timing");
}

#[test]
fn every_width_commits_the_requested_window() {
    let w = test_workload(21);
    for width in [2usize, 4, 8] {
        let s = sim(&w, EngineKind::Ftb, LayoutChoice::Optimized, width, 50_000);
        assert!(s.committed >= 50_000 && s.committed < 50_000 + width as u64);
        assert!(s.ipc() <= width as f64 + 1e-9, "IPC cannot exceed width");
    }
}

#[test]
fn fetch_ipc_never_below_ipc() {
    // Every committed instruction was fetched on the correct path, so fetch
    // bandwidth (per active cycle) must dominate commit bandwidth (per all
    // cycles).
    let w = test_workload(33);
    for kind in EngineKind::ALL {
        let s = sim(&w, kind, LayoutChoice::Base, 8, 80_000);
        assert!(
            s.fetch_ipc() >= s.ipc() * 0.99,
            "{kind}: fetch IPC {:.2} below IPC {:.2}",
            s.fetch_ipc(),
            s.ipc()
        );
    }
}

#[test]
fn random_layout_is_worse_than_optimized_for_streams() {
    // The pessimal direction of the layout experiments: a shuffled layout
    // must lose to the Pettis–Hansen one, and must execute strictly more
    // fix-up jumps (a structural property, immune to timing noise).
    let w = test_workload(44);
    let cfg = w.cfg();
    let random_img = sfetch_cfg::CodeImage::build(cfg, &sfetch_cfg::layout::random(cfg, 3));
    let opt = sim(&w, EngineKind::Stream, LayoutChoice::Optimized, 8, 150_000);
    let rand_stats = sfetch_core::simulate(
        cfg,
        &random_img,
        EngineKind::Stream,
        ProcessorConfig::table2(8),
        w.ref_seed(),
        30_000,
        150_000,
    );
    let n = 100_000usize;
    let fixup_frac = |img: &sfetch_cfg::CodeImage| {
        Executor::new(cfg, img, w.ref_seed())
            .take(n)
            .filter(|d| d.control.is_some_and(|c| c.is_fixup))
            .count() as f64
            / n as f64
    };
    let rand_fixups = fixup_frac(&random_img);
    let opt_fixups = fixup_frac(w.image(LayoutChoice::Optimized));
    assert!(
        rand_fixups > opt_fixups,
        "random layout must execute more fix-up jumps ({rand_fixups:.3} vs {opt_fixups:.3})"
    );
    // Raw IPC counts the fix-up jumps a bad layout *adds* as work; compare
    // useful (non-fixup) instructions per cycle instead.
    let useful_rand = rand_stats.ipc() * (1.0 - rand_fixups);
    let useful_opt = opt.ipc() * (1.0 - opt_fixups);
    assert!(
        useful_rand < useful_opt,
        "random layout useful-IPC ({useful_rand:.3}) must lose to optimized ({useful_opt:.3})"
    );
}
