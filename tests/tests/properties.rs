//! Property-based tests (proptest) over the simulator's core invariants:
//! random programs must lay out, execute and extract consistently, and the
//! predictor/cache structures must respect their contracts under arbitrary
//! operation sequences.

use proptest::prelude::*;

use sfetch_cfg::gen::{GenParams, ProgramGenerator};
use sfetch_cfg::{
    layout, CfgBuilder, CodeImage, CondBehavior, EdgeProfile, IndirectSelect, TripCount,
};
use sfetch_isa::{Addr, BranchKind, DepDistance, InstClass, MemPattern, StaticInst};
use sfetch_predictors::{
    AssocTable, NextStreamPredictor, Ras, StreamPredictorConfig, StreamUpdate,
};
use sfetch_trace::{ArchCheckpoint, DynInst, Executor, StreamExtractor};

fn small_params(n_funcs: usize) -> GenParams {
    let mut p = GenParams::small();
    p.n_funcs = n_funcs.max(2);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated program, under every layout, yields an executor walk
    /// whose committed control flow is continuous (each pc equals the
    /// previous instruction's architectural successor).
    #[test]
    fn executor_is_continuous_under_all_layouts(
        gen_seed in 0u64..500,
        exec_seed in 0u64..500,
        n_funcs in 2usize..8,
        use_opt in any::<bool>(),
    ) {
        let cfg = ProgramGenerator::new(small_params(n_funcs), gen_seed).generate();
        let lay = if use_opt {
            layout::pettis_hansen(&cfg, &EdgeProfile::from_expected(&cfg))
        } else {
            layout::natural(&cfg)
        };
        let img = CodeImage::build(&cfg, &lay);
        let trace: Vec<_> = Executor::new(&cfg, &img, exec_seed).take(3_000).collect();
        for w in trace.windows(2) {
            prop_assert_eq!(w[1].pc, w[0].next_pc());
        }
    }

    /// Stream extraction is a partition: stream lengths sum to the trace
    /// length (minus the open tail), every stream ends at a taken branch or
    /// the cap, and consecutive streams chain start -> next.
    #[test]
    fn stream_extraction_partitions_the_trace(
        gen_seed in 0u64..500,
        exec_seed in 0u64..100,
    ) {
        let cfg = ProgramGenerator::new(small_params(4), gen_seed).generate();
        let img = CodeImage::build(&cfg, &layout::natural(&cfg));
        let mut ex = StreamExtractor::new();
        let mut covered = 0u64;
        let mut prev_next: Option<Addr> = None;
        let n = 4_000usize;
        for d in Executor::new(&cfg, &img, exec_seed).take(n) {
            if let Some(s) = ex.push(&d) {
                covered += u64::from(s.len);
                prop_assert!(s.len >= 1);
                if let Some(pn) = prev_next {
                    prop_assert_eq!(s.start, pn, "streams must chain");
                }
                prev_next = Some(s.next);
            }
        }
        prop_assert_eq!(covered + u64::from(ex.in_flight_len()), n as u64);
    }

    /// The layout passes always produce permutations, and images place every
    /// block at an instruction-aligned, in-bounds address.
    #[test]
    fn layouts_are_permutations_with_aligned_addresses(
        gen_seed in 0u64..500,
        shuffle_seed in 0u64..50,
    ) {
        let cfg = ProgramGenerator::new(small_params(4), gen_seed).generate();
        for lay in [
            layout::natural(&cfg),
            layout::random(&cfg, shuffle_seed),
            layout::pettis_hansen(&cfg, &EdgeProfile::from_expected(&cfg)),
        ] {
            let img = CodeImage::build(&cfg, &lay);
            for blk in cfg.blocks() {
                let addr = img.block_addr(blk.id());
                prop_assert!(addr.is_inst_aligned());
                prop_assert!(addr >= img.base() && addr <= img.end());
            }
        }
    }

    /// The associative table never returns a payload under the wrong tag and
    /// respects capacity.
    #[test]
    fn assoc_table_tag_discipline(
        ops in prop::collection::vec((0u64..64, 0u64..16, 0u32..1000), 1..200),
    ) {
        let mut t: AssocTable<u32> = AssocTable::new(8, 2);
        let mut inserted = std::collections::HashMap::new();
        for (idx, tag, val) in ops {
            t.insert_lru(idx, tag, val);
            inserted.insert((idx % 8, tag), val);
            if let Some(&got) = t.probe(idx, tag) {
                // A hit must return the *latest* value inserted under that
                // (set, tag).
                prop_assert_eq!(got, inserted[&(idx % 8, tag)]);
            }
            prop_assert!(t.occupancy() <= t.entries());
        }
    }

    /// RAS snapshot/restore always repairs a single push or pop.
    #[test]
    fn ras_single_divergence_repair(
        setup in prop::collection::vec(1u64..1_000_000, 0..12),
        wrong in 1u64..1_000_000,
        do_push in any::<bool>(),
    ) {
        let mut ras = Ras::new(8);
        for a in &setup {
            ras.push(Addr::new(a * 4));
        }
        let snap = ras.snapshot();
        let top_before = ras.top();
        if do_push {
            ras.push(Addr::new(wrong * 4));
        } else {
            ras.pop();
        }
        ras.restore(snap);
        prop_assert_eq!(ras.top(), top_before);
    }

    /// The stream predictor only ever predicts lengths within its cap, and a
    /// trained (start, len, next) triple round-trips while untouched
    /// addresses miss.
    #[test]
    fn stream_predictor_contract(
        starts in prop::collection::vec(1u64..10_000, 1..40),
        lens in prop::collection::vec(1u32..200, 1..40),
    ) {
        let mut p = NextStreamPredictor::new(StreamPredictorConfig::table2());
        let n = starts.len().min(lens.len());
        for i in 0..n {
            p.commit_stream(StreamUpdate {
                start: Addr::new(starts[i] * 4),
                len: lens[i],
                kind: Some(BranchKind::Cond),
                next: Addr::new(0x40_0000),
                mispredicted: false,
            });
        }
        for start in starts.iter().take(n) {
            if let Some(pred) = p.predict(Addr::new(start * 4)) {
                prop_assert!(pred.len >= 1);
                prop_assert!(pred.len <= p.config().max_len);
            }
        }
        // An address far outside anything trained must miss.
        prop_assert!(p.predict(Addr::new(0xdead_0000)).is_none());
    }
}

/// Records compared after both walks reach the same state.
const TAIL: usize = 10_000;

/// `n` calls to `next()` from `from`: the state reached and the records.
fn walk(from: &Executor<'_>, n: u64) -> (ArchCheckpoint, Vec<DynInst>) {
    let mut ex = from.clone();
    let recs: Vec<DynInst> = (&mut ex).take(n as usize).collect();
    (ex.checkpoint(), recs)
}

/// `advance(n)` from `from` must reach the checkpoint of `n` calls to
/// `next()`, and both executors must then yield the same records.
fn assert_advance_matches(from: &Executor<'_>, n: u64) {
    let mut walked = from.clone();
    walked.by_ref().take(n as usize).for_each(drop);
    let mut fast = from.clone();
    fast.advance(n);
    assert_eq!(fast.checkpoint(), walked.checkpoint(), "state after advance({n})");
    let a: Vec<DynInst> = fast.take(TAIL).collect();
    let b: Vec<DynInst> = walked.take(TAIL).collect();
    assert_eq!(a, b, "records after advance({n})");
}

/// Advance lengths that matter from `from`: 0, 1, ending on a control
/// slot, landing on one, and ending mid-run, each at or past `around`.
fn interesting_lengths(from: &Executor<'_>, around: u64) -> Vec<u64> {
    let (_, recs) = walk(from, around + 4_000);
    let is_ctl = |i: usize| recs[i].control.is_some();
    let at = around as usize;
    let ends_on_ctl = (at..recs.len()).find(|&i| is_ctl(i)).map(|i| i as u64 + 1);
    let lands_on_ctl = (at.max(1)..recs.len()).find(|&i| is_ctl(i)).map(|i| i as u64);
    let mid_run = (at.max(1)..recs.len()).find(|&i| !is_ctl(i - 1) && !is_ctl(i)).map(|i| i as u64);
    [Some(0), Some(1), Some(around), ends_on_ctl, lands_on_ctl, mid_run]
        .into_iter()
        .flatten()
        .collect()
}

/// A hand-built program whose `main` returns (the executor restarts at
/// the entry on an empty stack), with cycled and weighted indirect calls
/// and jumps, memory instructions, loops and fall-throughs.
fn returning_main_image(flip: bool) -> CodeImage {
    let ld = StaticInst::memory(
        InstClass::Load,
        MemPattern::new(Addr::new(0x9000), 8, 5),
        DepDistance::NONE,
    );
    let st = StaticInst::memory(
        InstClass::Store,
        MemPattern::new(Addr::new(0xa000), 16, 3),
        DepDistance::NONE,
    );
    let alu = StaticInst::simple(InstClass::IntAlu);
    let mut b = CfgBuilder::new();
    let main = b.add_func("main");
    let f1 = b.add_func("f1");
    let f2 = b.add_func("f2");
    let entry = b.add_block_with(main, vec![alu, ld, alu]);
    let after_cyc = b.add_block_with(main, vec![st, alu]);
    let after_wt = b.add_block_with(main, vec![alu, alu, ld]);
    let sw = b.add_block_with(main, vec![alu]);
    let arm_a = b.add_block_with(main, vec![ld, ld, alu]);
    let arm_b = b.add_block_with(main, vec![alu, st]);
    let arm_c = b.add_block(main, 0);
    let lp = b.add_block_with(main, vec![alu, ld, alu, alu, st]);
    let ret = b.add_block_with(main, vec![alu, alu]);
    b.set_indirect_call(
        entry,
        vec![(f1, 1), (f2, 1)],
        after_cyc,
        IndirectSelect::Cyclic(vec![0, 1, 1]),
    );
    b.set_indirect_call(after_cyc, vec![(f1, 3), (f2, 1)], after_wt, IndirectSelect::Weighted);
    b.set_fallthrough(after_wt, sw);
    b.set_indirect_jump(sw, vec![(arm_a, 2), (arm_b, 1), (arm_c, 1)], IndirectSelect::Weighted);
    b.set_jump(arm_a, lp);
    b.set_indirect_jump(arm_b, vec![(lp, 1), (ret, 1)], IndirectSelect::Cyclic(vec![1, 0]));
    b.set_fallthrough(arm_c, lp);
    b.set_cond(lp, lp, ret, CondBehavior::Loop { trip: TripCount::Uniform { lo: 1, hi: 6 } });
    b.set_return(ret);
    let f1b = b.add_block_with(f1, vec![alu, ld, alu, alu, alu, alu]);
    let f1m = b.add_block_with(f1, vec![alu, alu]);
    let f1r = b.add_block_with(f1, vec![st]);
    b.set_cond(f1b, f1r, f1m, CondBehavior::Bernoulli { p_taken: 0.3 });
    b.set_fallthrough(f1m, f1r);
    b.set_return(f1r);
    let f2b = b.add_block_with(f2, vec![ld]);
    b.set_return(f2b);
    let cfg = b.finish().expect("valid program");
    let lay = if flip {
        layout::pettis_hansen(&cfg, &EdgeProfile::from_expected(&cfg))
    } else {
        layout::natural(&cfg)
    };
    CodeImage::build(&cfg, &lay)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The state-only walk is the record walk without the records: from
    /// the trace start and from a restored checkpoint, `advance(n)`
    /// reaches `n` calls to `next()`'s checkpoint and trace, for lengths
    /// ending on, landing on and stopping inside straight-line runs, and
    /// chained advances equal one advance of their sum.
    #[test]
    fn advance_matches_the_record_walk(
        gen_seed in 0u64..1_000,
        exec_seed in 0u64..1_000,
        n_funcs in 2usize..8,
        use_opt in any::<bool>(),
        around in 0u64..30_000,
        split in 0u64..30_000,
        resume_at in 0u64..20_000,
    ) {
        let cfg = ProgramGenerator::new(small_params(n_funcs), gen_seed).generate();
        let lay = if use_opt {
            layout::pettis_hansen(&cfg, &EdgeProfile::from_expected(&cfg))
        } else {
            layout::natural(&cfg)
        };
        let img = CodeImage::build(&cfg, &lay);
        let start = Executor::from_image(&img, exec_seed);
        for n in interesting_lengths(&start, around) {
            assert_advance_matches(&start, n);
        }

        let mut chained = start.clone();
        chained.advance(around);
        chained.advance(split);
        let mut once = start.clone();
        once.advance(around + split);
        prop_assert_eq!(chained.checkpoint(), once.checkpoint());
        prop_assert_eq!(once.checkpoint(), walk(&start, around + split).0);

        let (cp, _) = walk(&start, resume_at);
        let resumed = Executor::from_checkpoint(&img, &cp);
        for n in interesting_lengths(&resumed, around / 2) {
            assert_advance_matches(&resumed, n);
        }
    }

    /// The same equivalence on a program whose `main` returns and whose
    /// indirect calls and jumps are cycled and weighted, under both
    /// layouts.
    #[test]
    fn advance_matches_the_record_walk_on_a_returning_main(
        exec_seed in 0u64..1_000,
        flip in any::<bool>(),
        around in 0u64..5_000,
    ) {
        let img = returning_main_image(flip);
        let start = Executor::from_image(&img, exec_seed);
        for n in interesting_lengths(&start, around) {
            assert_advance_matches(&start, n);
        }
    }
}
