//! The decoupled FTB front-end (Reinman, Austin, Calder; §2.1) with the
//! perceptron direction predictor of Table 2.
//!
//! The branch-prediction engine runs autonomously: each cycle it looks up
//! the FTB at the prediction pc, predicts the terminating branch with the
//! perceptron, and enqueues a variable-length *fetch block* request in the
//! FTQ; the I-cache stage drains the FTQ. Only branches that have ever
//! been taken terminate fetch blocks — strongly-biased not-taken branches
//! stay embedded. Unlike streams, the FTB does not store overlapping
//! blocks: a newly-taken embedded branch *splits* the resident block.

use std::collections::HashSet;

use sfetch_cfg::CodeImage;
use sfetch_isa::{Addr, BranchKind};
use sfetch_mem::MemoryHierarchy;
use sfetch_predictors::{Ftb, FtbEntry, GlobalHistory, PerceptronPredictor, Ras};
use sfetch_prefetch::PrefetchConfig;

use crate::bundle::{Checkpoint, CommittedInst, FetchedInst, ResolvedBranch};
use crate::decoupled::DecoupledFront;
use crate::engine::{warm_reader, warm_writer, FetchEngine, FetchEngineStats};
use crate::front::FrontPipeline;
use crate::ftq::FetchRequest;

/// Maximum fetch-block length in instructions (bounded length field).
const MAX_BLOCK: u32 = 64;

/// Commit-side fetch-block reconstruction state.
#[derive(Debug, Clone, Copy, Default)]
struct BlockBuilder {
    start: Option<Addr>,
    len: u32,
}

/// The FTB + perceptron front-end.
#[derive(Debug)]
pub struct FtbEngine {
    front: DecoupledFront,
    ftb: Ftb,
    pred: PerceptronPredictor,
    ras: Ras,
    ghist: GlobalHistory,
    /// Branch pcs ever observed taken — the commit-side terminator set
    /// (idealized as unbounded; the FTB itself is the bounded structure).
    taken_ever: HashSet<Addr>,
    builder: BlockBuilder,
    shadow: bool,
    stats: FetchEngineStats,
}

impl FtbEngine {
    /// Builds the engine with the Table 2 configuration: 2048×4 FTB,
    /// 512-perceptron predictor, 8-entry RAS, 4-entry FTQ.
    pub fn table2(width: usize, entry: Addr) -> Self {
        FtbEngine {
            front: DecoupledFront::new(width, entry, 4),
            ftb: Ftb::new(2048, 4),
            pred: PerceptronPredictor::table2(),
            ras: Ras::new(8),
            ghist: GlobalHistory::new(),
            taken_ever: HashSet::new(),
            builder: BlockBuilder::default(),
            shadow: false,
            stats: FetchEngineStats::default(),
        }
    }

    /// Attaches an I-cache prefetch configuration (builder-style).
    pub fn with_prefetch(mut self, pf: &PrefetchConfig) -> Self {
        self.front.set_prefetch(pf);
        self
    }

    /// Applies a front-pipeline model (builder-style). The engine consumes
    /// only the shadow-branch-discovery switch; the timing knobs live in
    /// the processor.
    pub fn with_front(mut self, front: &FrontPipeline) -> Self {
        self.shadow = front.shadow_decode;
        self
    }

    /// Decode-time shadow-branch discovery on a sequential (FTB-miss)
    /// fetch: the whole line region was read from the I-cache, so decode
    /// can see a direct unconditional branch before it executes. Install
    /// the fetch block it terminates, so the *next* lookup at `start`
    /// predicts it instead of misfetching — one encounter earlier than the
    /// commit-side builder learns it. `probe` keeps resident entries' LRU
    /// state untouched; commit-side training corrects the entry if an
    /// earlier embedded conditional turns out taken.
    fn shadow_scan(&mut self, image: &CodeImage, start: Addr, len: u32) {
        if self.ftb.probe(start).is_some() {
            return;
        }
        for i in 0..len {
            let pc = start.offset_insts(u64::from(i));
            let Some(ii) = image.inst_at(pc) else { return };
            let Some(attr) = ii.control else { continue };
            if matches!(attr.kind, BranchKind::Jump | BranchKind::Call) {
                if let Some(target) = attr.target {
                    self.ftb.update(start, FtbEntry { len: i + 1, kind: attr.kind, target });
                    self.stats.shadow_installs += 1;
                }
                return;
            }
        }
    }

    fn prediction_stage(&mut self, line_bytes: u64) {
        let Some(start) = self.front.next_lookup() else { return };
        self.stats.predictor_lookups += 1;
        let Some(entry) = self.ftb.lookup(start) else {
            // FTB miss: fetch sequentially to the end of the line; the
            // block is built at commit once its terminator is known.
            let cp = Checkpoint {
                ghist: self.ghist.snapshot(),
                path: Default::default(),
                ras: self.ras.snapshot(),
            };
            self.front.push_sequential(line_bytes, cp);
            return;
        };
        self.stats.predictor_hits += 1;
        let len = entry.len.clamp(1, MAX_BLOCK);
        let term_pc = start.offset_insts(u64::from(len) - 1);
        let ras_pre = self.ras.snapshot();
        let ghist_pre = self.ghist.snapshot();
        // `next` is the *predicted* next fetch address: the target when
        // the terminator is predicted taken, the fall-through for a
        // predicted-not-taken conditional.
        let next = match entry.kind {
            BranchKind::Cond => {
                let dir = self.pred.predict(term_pc, self.ghist.spec());
                self.ghist.push_spec(dir);
                if dir {
                    entry.target
                } else {
                    term_pc.next_inst()
                }
            }
            BranchKind::Jump | BranchKind::IndirectJump => entry.target,
            BranchKind::Call | BranchKind::IndirectCall => {
                self.ras.push(term_pc.next_inst());
                entry.target
            }
            BranchKind::Return => self.ras.pop(),
        };
        let ras_post = self.ras.snapshot();
        self.front.push(FetchRequest {
            start,
            cur: start,
            remaining: len,
            term: Some(entry.kind),
            // Conditional targets never equal their fall-through in a
            // well-formed image, so this is the predicted direction.
            taken: next != term_pc.next_inst(),
            next,
            predicted: true,
            cp_embedded: Checkpoint { ghist: ghist_pre, path: Default::default(), ras: ras_pre },
            cp_term: Checkpoint { ghist: ghist_pre, path: Default::default(), ras: ras_post },
        });
    }
}

impl FetchEngine for FtbEngine {
    fn name(&self) -> &'static str {
        "ftb"
    }

    fn width(&self) -> usize {
        self.front.width()
    }

    fn cycle(
        &mut self,
        now: u64,
        image: &CodeImage,
        mem: &mut MemoryHierarchy,
        out: &mut Vec<FetchedInst>,
    ) {
        self.prediction_stage(mem.l1i_line_bytes());
        let Some(req) = self.front.cycle(now, image, mem, &mut self.stats, out) else { return };
        if self.shadow && !req.predicted && req.cur == req.start {
            // First delivery chunk of an unpredicted sequential request:
            // decode sees the whole fetched region — mine it for shadow
            // branches.
            self.shadow_scan(image, req.start, req.remaining);
        }
    }

    fn redirect(&mut self, now: u64, target: Addr, cp: &Checkpoint, resolved: &ResolvedBranch) {
        self.front.redirect(now, target);
        self.ghist.restore(cp.ghist);
        if resolved.kind == Some(BranchKind::Cond) {
            self.ghist.push_spec(resolved.taken);
        }
        self.ras.restore(cp.ras);
    }

    fn commit(&mut self, ci: &CommittedInst) {
        let start = *self.builder.start.get_or_insert(ci.pc);
        self.builder.len += 1;
        if let Some(c) = ci.control {
            if c.taken {
                self.taken_ever.insert(ci.pc);
            }
            if self.taken_ever.contains(&ci.pc) {
                // This branch terminates fetch blocks from now on: close the
                // block, train the perceptron, upsert/split the FTB entry.
                // History advances only for blocks the FTB actually covers —
                // uncovered terminators never pushed speculative history at
                // fetch, and pushing here would skew the registers apart.
                let len = self.builder.len;
                if c.kind == BranchKind::Cond && self.ftb.probe(start).is_some() {
                    self.pred.update(ci.pc, self.ghist.retired(), c.taken);
                    self.ghist.push_retired(c.taken);
                }
                if len <= MAX_BLOCK {
                    self.ftb.update(
                        start,
                        FtbEntry { len, kind: c.kind, target: c.target },
                    );
                }
                self.builder = BlockBuilder { start: Some(c.next_pc), len: 0 };
                return;
            }
        }
        if ci.mispredicted {
            // Misfetch recovery at a non-terminator: restart block
            // reconstruction at the recovery point.
            self.builder = BlockBuilder { start: Some(ci.next_pc()), len: 0 };
        } else if self.builder.len >= MAX_BLOCK {
            self.builder = BlockBuilder { start: Some(ci.next_pc()), len: 0 };
        }
    }

    fn stall_probe(&self) -> crate::StallCause {
        self.front.stall_probe()
    }

    fn warm_state(&self) -> Vec<u8> {
        let mut w = warm_writer();
        self.ftb.save_wire(&mut w);
        self.pred.save_wire(&mut w);
        self.ghist.save_wire(&mut w);
        // HashSet iteration order is nondeterministic: sort so identical
        // warm states always produce identical bytes.
        let mut taken: Vec<Addr> = self.taken_ever.iter().copied().collect();
        taken.sort_unstable();
        w.u64(taken.len() as u64);
        for pc in taken {
            w.addr(pc);
        }
        let BlockBuilder { start, len } = self.builder;
        w.bool(start.is_some());
        w.addr(start.unwrap_or(Addr::NULL));
        w.u32(len);
        self.ras.save_wire(&mut w);
        self.stats.save_wire(&mut w);
        w.into_bytes()
    }

    fn load_warm_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = warm_reader(bytes)?;
        self.ftb.load_wire(&mut r)?;
        self.pred.load_wire(&mut r)?;
        self.ghist = GlobalHistory::load_wire(&mut r)?;
        let n = r.u64()?;
        self.taken_ever.clear();
        for _ in 0..n {
            self.taken_ever.insert(r.addr()?);
        }
        let has_start = r.bool()?;
        let start = r.addr()?;
        self.builder = BlockBuilder { start: has_start.then_some(start), len: r.u32()? };
        self.ras.load_wire(&mut r)?;
        self.stats = FetchEngineStats::load_wire(&mut r)?;
        r.finish()
    }

    fn stats(&self) -> FetchEngineStats {
        self.stats
    }

    fn storage_bits(&self) -> u64 {
        self.ftb.storage_bits()
            + self.pred.storage_bits()
            + self.ras.storage_bits()
            + self.front.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::CommittedControl;
    use sfetch_cfg::builder::CfgBuilder;
    use sfetch_cfg::{layout, CondBehavior, TripCount};
    use sfetch_mem::MemoryConfig;

    fn loop_image(body: usize) -> (sfetch_cfg::Cfg, CodeImage) {
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let b = bld.add_block(f, body);
        let exit = bld.add_block(f, 1);
        bld.set_cond(b, b, exit, CondBehavior::Loop { trip: TripCount::Fixed(1 << 30) });
        bld.set_return(exit);
        let cfg = bld.finish().expect("valid");
        let img = CodeImage::build(&cfg, &layout::natural(&cfg));
        (cfg, img)
    }

    fn commit_loop(eng: &mut FtbEngine, img: &CodeImage, body: u64, times: usize) {
        for _ in 0..times {
            for i in 0..body {
                eng.commit(&CommittedInst {
                    pc: img.entry().offset_insts(i),
                    control: None,
                    mispredicted: false,
                });
            }
            eng.commit(&CommittedInst {
                pc: img.entry().offset_insts(body),
                control: Some(CommittedControl {
                    kind: BranchKind::Cond,
                    taken: true,
                    target: img.entry(),
                    next_pc: img.entry(),
                    is_fixup: false,
                }),
                mispredicted: false,
            });
        }
    }

    #[test]
    fn commit_builds_ftb_blocks() {
        let (_cfg, img) = loop_image(11);
        let mut eng = FtbEngine::table2(8, img.entry());
        commit_loop(&mut eng, &img, 11, 4);
        let e = eng.ftb.lookup(img.entry()).expect("block learned");
        assert_eq!(e.len, 12, "11 body + terminator");
        assert_eq!(e.kind, BranchKind::Cond);
        assert_eq!(e.target, img.entry());
    }

    #[test]
    fn trained_engine_issues_block_requests_and_predicts_taken() {
        let (_cfg, img) = loop_image(11);
        let mut mem = MemoryHierarchy::new(MemoryConfig::table2(8));
        let mut eng = FtbEngine::table2(8, img.entry());
        commit_loop(&mut eng, &img, 11, 40);
        let mut out = Vec::new();
        for t in 0..600 {
            eng.cycle(t, &img, &mut mem, &mut out);
        }
        let term_pc = img.entry().offset_insts(11);
        let term = out.iter().rev().find(|f| f.pc == term_pc).expect("terminator fetched");
        let p = term.pred.expect("pred");
        assert!(p.taken, "perceptron learns the always-taken loop branch");
        assert_eq!(p.target, img.entry());
        assert!(eng.stats().mean_unit_len() > 8.0, "fetch blocks span the loop body");
    }

    #[test]
    fn embedded_never_taken_branch_stays_embedded() {
        // Block with an embedded 100%-NT branch: FTB must keep one long
        // block across it (that's the FTB's advantage over a plain BTB).
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let a = bld.add_block(f, 3);
        let b = bld.add_block(f, 3);
        let dead = bld.add_block(f, 1);
        let exit = bld.add_block(f, 1);
        bld.set_cond(a, dead, b, CondBehavior::Bernoulli { p_taken: 0.0 });
        bld.set_cond(b, a, exit, CondBehavior::Loop { trip: TripCount::Fixed(1 << 30) });
        bld.set_return(dead);
        bld.set_return(exit);
        let cfg = bld.finish().expect("valid");
        let img = CodeImage::build(&cfg, &layout::natural(&cfg));
        let mut eng = FtbEngine::table2(8, img.entry());
        // Commit several iterations: a(3) cond-NT b(3) cond-T(back to a).
        for _ in 0..6 {
            for i in 0..3u64 {
                eng.commit(&CommittedInst { pc: img.entry().offset_insts(i), control: None, mispredicted: false });
            }
            eng.commit(&CommittedInst {
                pc: img.entry().offset_insts(3),
                control: Some(CommittedControl {
                    kind: BranchKind::Cond,
                    taken: false,
                    target: img.block_addr(dead),
                    next_pc: img.entry().offset_insts(4),
                    is_fixup: false,
                }),
                mispredicted: false,
            });
            for i in 4..7u64 {
                eng.commit(&CommittedInst { pc: img.entry().offset_insts(i), control: None, mispredicted: false });
            }
            eng.commit(&CommittedInst {
                pc: img.entry().offset_insts(7),
                control: Some(CommittedControl {
                    kind: BranchKind::Cond,
                    taken: true,
                    target: img.entry(),
                    next_pc: img.entry(),
                    is_fixup: false,
                }),
                mispredicted: false,
            });
        }
        let e = eng.ftb.lookup(img.entry()).expect("block");
        assert_eq!(e.len, 8, "embedded NT branch does not terminate the block");
    }

    #[test]
    fn newly_taken_embedded_branch_splits_the_block() {
        let (_cfg, img) = loop_image(11);
        let mut eng = FtbEngine::table2(8, img.entry());
        commit_loop(&mut eng, &img, 11, 3);
        assert_eq!(eng.ftb.lookup(img.entry()).expect("block").len, 12);
        // Now an embedded instruction at +5 turns out to be a taken branch
        // (e.g. first-ever taken): commit a shorter path.
        for i in 0..5u64 {
            eng.commit(&CommittedInst { pc: img.entry().offset_insts(i), control: None, mispredicted: false });
        }
        eng.commit(&CommittedInst {
            pc: img.entry().offset_insts(5),
            control: Some(CommittedControl {
                kind: BranchKind::Cond,
                taken: true,
                target: img.entry(),
                next_pc: img.entry(),
                is_fixup: false,
            }),
            mispredicted: true,
        });
        let e = eng.ftb.lookup(img.entry()).expect("block");
        assert_eq!(e.len, 6, "block split at the newly-taken branch");
    }
}
