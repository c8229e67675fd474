//! The Alpha EV8 fetch baseline (§2.3, Table 2): an interleaved BTB plus
//! the 2bcgskew multiple branch predictor, fetching instructions from one
//! wide cache line *up to the first predicted-taken branch* each cycle
//! (the SEQ.3-style engine the paper cites).
//!
//! Branch identification is by BTB hit: a branch that has never been taken
//! is not in the BTB and is implicitly predicted not-taken (Calder &
//! Grunwald's insertion rule), which is also why first-taken branches cost
//! a full misprediction here.

use sfetch_cfg::CodeImage;
use sfetch_isa::{Addr, BranchKind};
use sfetch_mem::MemoryHierarchy;
use sfetch_predictors::{Btb, GlobalHistory, Ras, TwoBcGskew};
use sfetch_prefetch::{Lookahead, PrefetchConfig};

use crate::bundle::{
    BranchPrediction, Checkpoint, CommittedInst, FetchedInst, ResolvedBranch,
};
use crate::engine::{warm_reader, warm_writer, FetchEngine, FetchEngineStats};
use crate::front::FrontPipeline;
use crate::port::IcachePort;

/// The EV8-style fetch engine.
#[derive(Debug)]
pub struct Ev8Engine {
    width: usize,
    pred: TwoBcGskew,
    btb: Btb,
    ras: Ras,
    ghist: GlobalHistory,
    pc: Addr,
    port: IcachePort,
    shadow: bool,
    stats: FetchEngineStats,
}

impl Ev8Engine {
    /// Builds the engine with the Table 2 configuration: 4×32K-entry
    /// 2bcgskew, 2048×4 BTB, 8-entry RAS.
    pub fn table2(width: usize, entry: Addr) -> Self {
        Ev8Engine {
            width,
            pred: TwoBcGskew::ev8(),
            btb: Btb::new(2048, 4),
            ras: Ras::new(8),
            ghist: GlobalHistory::new(),
            pc: entry,
            port: IcachePort::blocking(),
            shadow: false,
            stats: FetchEngineStats::default(),
        }
    }

    /// Attaches an I-cache prefetch configuration (builder-style). EV8 has
    /// no lookahead structure beyond its fetch cursor, so only the demand
    /// address reaches the prefetcher — next-line territory.
    pub fn with_prefetch(mut self, pf: &PrefetchConfig) -> Self {
        self.port = IcachePort::from_config(pf);
        self
    }

    /// Applies a front-pipeline model (builder-style). The engine consumes
    /// only the shadow-branch-discovery switch; the timing knobs live in
    /// the processor.
    pub fn with_front(mut self, front: &FrontPipeline) -> Self {
        self.shadow = front.shadow_decode;
        self
    }

    /// Decode-time shadow-branch discovery: the whole aligned fetch group
    /// was read from the I-cache, so decode can see the instructions past
    /// the group's exit point. Pre-install direct unconditional branches
    /// (always taken, statically-known target — exactly the class whose
    /// first encounter otherwise costs a misfetch) found there into the
    /// BTB. `probe` first so already-resident entries keep their LRU state.
    fn shadow_scan(&mut self, image: &CodeImage, mut pc: Addr, end: Addr) {
        while pc < end {
            let Some(ii) = image.inst_at(pc) else { break };
            if let Some(attr) = ii.control {
                if matches!(attr.kind, BranchKind::Jump | BranchKind::Call) {
                    if let Some(target) = attr.target {
                        if self.btb.probe(pc).is_none() {
                            self.btb.update(pc, target, attr.kind);
                            self.stats.shadow_installs += 1;
                        }
                    }
                }
            }
            pc = pc.next_inst();
        }
    }

    fn drive_prefetch(&mut self, now: u64, mem: &mut MemoryHierarchy) {
        if !self.port.has_prefetcher() {
            return;
        }
        let ctx = Lookahead {
            demand: Some(self.pc),
            queued: &[],
            predicted_next: None,
            line_bytes: mem.l1i_line_bytes(),
        };
        self.port.drive(now, mem, &ctx);
    }
}

impl FetchEngine for Ev8Engine {
    fn name(&self) -> &'static str {
        "ev8"
    }

    fn width(&self) -> usize {
        self.width
    }

    fn cycle(
        &mut self,
        now: u64,
        image: &CodeImage,
        mem: &mut MemoryHierarchy,
        out: &mut Vec<FetchedInst>,
    ) {
        self.port.begin_cycle(now, mem);
        self.drive_prefetch(now, mem);
        if self.port.stalled(now, &mut self.stats) {
            return;
        }
        if !self.port.demand(now, mem, self.pc, &mut self.stats) {
            return;
        }
        // EV8 fetches *aligned* instruction blocks: the cycle's window runs
        // from pc to the next width-aligned boundary, so a misaligned
        // branch target wastes the leading slots — one of the alignment
        // costs the decoupled front-ends avoid (§2.3, §3.4).
        let group_bytes = self.width as u64 * 4;
        let group_start = self.pc;
        let group_end = Addr::new(
            (group_start.get() / group_bytes + 1) * group_bytes,
        );
        let mut delivered = 0u64;
        let mut scan_from = group_start;
        while delivered < self.width as u64 {
            let pc = self.pc;
            if delivered > 0 && pc >= group_end {
                break;
            }
            let Some(ii) = image.inst_at(pc) else {
                // Wrong path off the image: idle until redirect.
                break;
            };
            scan_from = pc.next_inst();
            if ii.control.is_none() {
                out.push(FetchedInst { pc, inst: ii.inst, pred: None, cp: Checkpoint::default() });
                self.pc = pc.next_inst();
                delivered += 1;
                continue;
            }
            let attr = ii.control.expect("checked above");
            self.stats.predictor_lookups += 1;
            let btb_hit = self.btb.lookup(pc);
            let mut cp = Checkpoint {
                ghist: self.ghist.snapshot(),
                path: Default::default(),
                ras: self.ras.snapshot(),
            };
            let Some(entry) = btb_hit else {
                // Not in the BTB: the front-end does not even know this is
                // a branch — implicit not-taken.
                out.push(FetchedInst {
                    pc,
                    inst: ii.inst,
                    pred: Some(BranchPrediction {
                        taken: false,
                        target: attr.target.unwrap_or(Addr::NULL),
                    }),
                    cp,
                });
                self.pc = pc.next_inst();
                delivered += 1;
                continue;
            };
            self.stats.predictor_hits += 1;
            match attr.kind {
                BranchKind::Cond => {
                    let dir = self.pred.predict(pc, self.ghist.spec());
                    self.ghist.push_spec(dir);
                    out.push(FetchedInst {
                        pc,
                        inst: ii.inst,
                        pred: Some(BranchPrediction { taken: dir, target: entry.target }),
                        cp,
                    });
                    delivered += 1;
                    if dir {
                        self.pc = entry.target;
                        break; // taken branch ends the fetch group
                    }
                    self.pc = pc.next_inst();
                }
                BranchKind::Jump => {
                    out.push(FetchedInst {
                        pc,
                        inst: ii.inst,
                        pred: Some(BranchPrediction { taken: true, target: entry.target }),
                        cp,
                    });
                    delivered += 1;
                    self.pc = entry.target;
                    break;
                }
                BranchKind::Call | BranchKind::IndirectCall => {
                    self.ras.push(pc.next_inst());
                    cp.ras = self.ras.snapshot(); // post-op shadow
                    let target = if attr.kind == BranchKind::Call {
                        attr.target.expect("direct calls have targets")
                    } else {
                        entry.target
                    };
                    out.push(FetchedInst {
                        pc,
                        inst: ii.inst,
                        pred: Some(BranchPrediction { taken: true, target }),
                        cp,
                    });
                    delivered += 1;
                    self.pc = target;
                    break;
                }
                BranchKind::Return => {
                    let target = self.ras.pop();
                    cp.ras = self.ras.snapshot();
                    out.push(FetchedInst {
                        pc,
                        inst: ii.inst,
                        pred: Some(BranchPrediction { taken: true, target }),
                        cp,
                    });
                    delivered += 1;
                    self.pc = target;
                    break;
                }
                BranchKind::IndirectJump => {
                    out.push(FetchedInst {
                        pc,
                        inst: ii.inst,
                        pred: Some(BranchPrediction { taken: true, target: entry.target }),
                        cp,
                    });
                    delivered += 1;
                    self.pc = entry.target;
                    break;
                }
            }
        }
        if delivered > 0 {
            self.stats.units += 1;
            self.stats.unit_insts += delivered;
            if self.shadow {
                self.shadow_scan(image, scan_from, group_end);
            }
        }
    }

    fn redirect(&mut self, now: u64, target: Addr, cp: &Checkpoint, resolved: &ResolvedBranch) {
        self.pc = target;
        self.ghist.restore(cp.ghist);
        if resolved.kind == Some(BranchKind::Cond) {
            self.ghist.push_spec(resolved.taken);
        }
        self.ras.restore(cp.ras);
        self.port.redirect(now);
    }

    fn commit(&mut self, ci: &CommittedInst) {
        let Some(c) = ci.control else { return };
        if c.kind == BranchKind::Cond && self.btb.probe(ci.pc).is_some() {
            // Train and advance the retired history only for branches the
            // front-end *identifies* (BTB residents): unidentified branches
            // never push speculative history at fetch, so pushing them here
            // would skew the two registers apart — most visibly with
            // layout-optimized code where many branches are never taken.
            self.pred.update(ci.pc, self.ghist.retired(), c.taken);
            self.ghist.push_retired(c.taken);
        }
        if c.taken {
            self.btb.update(ci.pc, c.target, c.kind);
        }
    }

    fn stall_probe(&self) -> crate::StallCause {
        self.port.last_stall()
    }

    fn warm_state(&self) -> Vec<u8> {
        let mut w = warm_writer();
        self.pred.save_wire(&mut w);
        self.btb.save_wire(&mut w);
        self.ras.save_wire(&mut w);
        self.ghist.save_wire(&mut w);
        self.stats.save_wire(&mut w);
        w.into_bytes()
    }

    fn load_warm_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = warm_reader(bytes)?;
        self.pred.load_wire(&mut r)?;
        self.btb.load_wire(&mut r)?;
        self.ras.load_wire(&mut r)?;
        self.ghist = GlobalHistory::load_wire(&mut r)?;
        self.stats = FetchEngineStats::load_wire(&mut r)?;
        r.finish()
    }

    fn stats(&self) -> FetchEngineStats {
        self.stats
    }

    fn storage_bits(&self) -> u64 {
        self.pred.storage_bits()
            + self.btb.storage_bits()
            + self.ras.storage_bits()
            + self.port.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::CommittedControl;
    use sfetch_cfg::builder::CfgBuilder;
    use sfetch_cfg::{layout, CondBehavior, TripCount};
    use sfetch_mem::MemoryConfig;

    fn loop_image() -> (sfetch_cfg::Cfg, CodeImage) {
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let body = bld.add_block(f, 4);
        let exit = bld.add_block(f, 1);
        bld.set_cond(body, body, exit, CondBehavior::Loop { trip: TripCount::Fixed(1 << 30) });
        bld.set_return(exit);
        let cfg = bld.finish().expect("valid");
        let img = CodeImage::build(&cfg, &layout::natural(&cfg));
        (cfg, img)
    }

    fn run_cycles(eng: &mut Ev8Engine, img: &CodeImage, mem: &mut MemoryHierarchy, n: u64) -> Vec<FetchedInst> {
        let mut out = Vec::new();
        for t in 0..n {
            eng.cycle(t, img, mem, &mut out);
        }
        out
    }

    #[test]
    fn unknown_branch_is_implicitly_not_taken() {
        let (_cfg, img) = loop_image();
        let mut mem = MemoryHierarchy::new(MemoryConfig::table2(8));
        let mut eng = Ev8Engine::table2(8, img.entry());
        let out = run_cycles(&mut eng, &img, &mut mem, 200);
        let branch = out.iter().find(|f| f.inst.is_branch()).expect("branch fetched");
        assert!(!branch.pred.expect("pred").taken, "BTB-cold branch must be implicit NT");
    }

    #[test]
    fn trained_btb_and_gskew_follow_the_loop() {
        let (_cfg, img) = loop_image();
        let mut mem = MemoryHierarchy::new(MemoryConfig::table2(8));
        let mut eng = Ev8Engine::table2(8, img.entry());
        let branch_pc = img.entry().offset_insts(4);
        for _ in 0..16 {
            eng.commit(&CommittedInst {
                pc: branch_pc,
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
        let out = run_cycles(&mut eng, &img, &mut mem, 300);
        let br = out.iter().rev().find(|f| f.pc == branch_pc).expect("branch fetched");
        let p = br.pred.expect("pred");
        assert!(p.taken, "trained loop branch predicted taken");
        assert_eq!(p.target, img.entry());
        // EV8 groups end at the taken branch: mean unit <= 5 insts here.
        assert!(eng.stats().mean_unit_len() <= 5.01);
    }

    #[test]
    fn taken_branch_ends_fetch_group() {
        let (_cfg, img) = loop_image();
        let mut mem = MemoryHierarchy::new(MemoryConfig::table2(8));
        let mut eng = Ev8Engine::table2(8, img.entry());
        let branch_pc = img.entry().offset_insts(4);
        for _ in 0..16 {
            eng.commit(&CommittedInst {
                pc: branch_pc,
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
        let mut out = Vec::new();
        // Warm the icache first.
        run_cycles(&mut eng, &img, &mut mem, 130);
        eng.redirect(
            131,
            img.entry(),
            &Checkpoint::default(),
            &ResolvedBranch { pc: branch_pc, kind: Some(BranchKind::Cond), taken: true, target: img.entry() },
        );
        for t in 132..133 {
            eng.cycle(t, &img, &mut mem, &mut out);
        }
        // One cycle: 4 body + taken branch = 5 (not 8).
        assert_eq!(out.len(), 5, "group stops at the taken branch");
    }

    #[test]
    fn redirect_restores_history() {
        let (_cfg, img) = loop_image();
        let mut eng = Ev8Engine::table2(8, img.entry());
        eng.ghist.push_spec(true);
        let snap = eng.ghist.snapshot();
        eng.ghist.push_spec(false);
        eng.ghist.push_spec(false);
        eng.redirect(
            10,
            img.entry(),
            &Checkpoint { ghist: snap, path: Default::default(), ras: eng.ras.snapshot() },
            &ResolvedBranch { pc: img.entry(), kind: Some(BranchKind::Cond), taken: true, target: img.entry() },
        );
        // restored + actual outcome appended
        assert_eq!(eng.ghist.spec(), (snap << 1) | 1);
    }

    #[test]
    fn storage_bits_dominated_by_2bcgskew() {
        let (_cfg, img) = loop_image();
        let eng = Ev8Engine::table2(8, img.entry());
        // 32KB of counters = 262144 bits plus BTB/RAS.
        assert!(eng.storage_bits() > 262_144);
    }
}
