//! Property tests for squash-during-inflight in the event-driven
//! back-end: random programs drive random misprediction squashes through
//! the completion wheel, and no squash may ever leave a stale wheel,
//! waiter, or ready token that changes behaviour — the retire count and
//! committed branch mix must match the architectural oracle exactly, and
//! the whole run must stay bit-identical to the legacy scan back-end.

use proptest::prelude::*;

use sfetch_cfg::gen::{GenParams, ProgramGenerator};
use sfetch_cfg::{layout, CodeImage};
use sfetch_core::{Processor, ProcessorConfig};
use sfetch_fetch::EngineKind;
use sfetch_isa::BranchKind;
use sfetch_trace::Executor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random misprediction squashes never leave stale scheduler state:
    /// the event-driven back-end retires exactly the oracle's instruction
    /// stream (count and branch mix) and matches the legacy scan
    /// bit-for-bit over the same window.
    #[test]
    fn random_squashes_retire_the_oracle_stream(
        gen_seed in 0u64..400,
        exec_seed in 0u64..100,
        engine_idx in 0usize..4,
        width_pow in 1u32..4,
    ) {
        let width = 1usize << width_pow; // 2, 4, 8
        let kind = EngineKind::ALL[engine_idx];
        let cfg = ProgramGenerator::new(GenParams::small(), gen_seed).generate();
        let image = CodeImage::build(&cfg, &layout::natural(&cfg));
        let n = 25_000u64;

        let run = |legacy_scan: bool| {
            let mut pc = ProcessorConfig::table2(width);
            pc.legacy_scan = legacy_scan;
            let engine = kind.build_for(width, image.entry(), &pc.prefetch, &pc.front);
            let mut p = Processor::new(pc, engine, &cfg, &image, exec_seed);
            p.run(n);
            p.stats()
        };
        let event = run(false);
        let scan = run(true);
        prop_assert_eq!(event, scan, "back-ends diverged ({kind}, width {width})");

        // The run must have exercised the squash path at all...
        prop_assert!(event.mispredictions > 0, "{kind}: window never squashed");
        // ...and still retire the oracle stream exactly: replay the
        // architectural executor over the same committed count and
        // compare the conditional-branch mix.
        let mut conds = 0u64;
        let mut taken = 0u64;
        for d in Executor::new(&cfg, &image, exec_seed).take(event.committed as usize) {
            if let Some(c) = d.control {
                if c.kind == BranchKind::Cond {
                    conds += 1;
                    taken += u64::from(c.taken);
                }
            }
        }
        prop_assert_eq!(event.cond_branches, conds);
        prop_assert_eq!(event.cond_taken, taken);
    }

    /// The same invariant at flight depths where the wheel does real
    /// work: large ROBs fill with wrong-path instructions before each
    /// squash, so stale tokens pile up and must all be discarded.
    #[test]
    fn large_rob_squashes_stay_oracle_exact(
        gen_seed in 0u64..200,
        rob_shift in 0u32..2,
    ) {
        let cfg = ProgramGenerator::new(GenParams::small(), gen_seed).generate();
        let image = CodeImage::build(&cfg, &layout::natural(&cfg));
        let mut pc = ProcessorConfig::table2(8);
        pc.rob_entries = 512 << rob_shift; // 512 or 1024
        let n = 20_000u64;

        let run = |legacy_scan: bool| {
            let mut pc = pc;
            pc.legacy_scan = legacy_scan;
            let engine = EngineKind::Ev8.build_for(8, image.entry(), &pc.prefetch, &pc.front);
            let mut p = Processor::new(pc, engine, &cfg, &image, gen_seed ^ 0xbeef);
            p.run(n);
            p.stats()
        };
        let event = run(false);
        let scan = run(true);
        prop_assert_eq!(event, scan, "rob_entries {}", pc.rob_entries);
        prop_assert!(event.committed >= n);
    }
}
