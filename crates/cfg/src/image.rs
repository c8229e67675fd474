//! The materialized program image — the paper's *static basic block
//! dictionary* (§4.1).
//!
//! Given a [`Cfg`] and a [`Layout`], [`CodeImage::build`] assigns concrete
//! instruction addresses and performs the three mechanical layout fix-ups a
//! real linker/optimizer performs:
//!
//! * **branch-sense flipping** — if a conditional's *taken* successor was
//!   placed adjacent, the condition is inverted so that successor becomes
//!   the fall-through (this is how layout turns hot paths into not-taken
//!   branches);
//! * **fix-up jumps** — when a block's fall-through successor is not
//!   adjacent, an unconditional jump is appended;
//! * **jump elision** — explicit jumps to the physically next instruction
//!   are removed.
//!
//! The image supports address-indexed instruction lookup anywhere in the
//! code segment, which is what lets fetch engines run down *wrong paths*
//! (polluting caches and speculative histories) exactly as the paper's
//! simulator does.

use std::fmt;
use std::sync::OnceLock;

use sfetch_isa::{Addr, BranchKind, StaticInst, INST_BYTES};

use crate::control::ControlTable;
use crate::graph::{BlockId, Cfg, Terminator};
use crate::layout::Layout;
use crate::runs::RunTable;

/// Default base address of the code segment.
pub const CODE_BASE: u64 = 0x0040_0000;

/// Control-transfer metadata attached to a branch instruction slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlAttr {
    /// Branch kind of the materialized instruction.
    pub kind: BranchKind,
    /// Static target address (`None` for returns/indirects, whose targets
    /// are data-dependent).
    pub target: Option<Addr>,
    /// Address of the next sequential instruction.
    pub fallthrough: Addr,
    /// Block whose terminator this instruction realizes.
    pub owner: BlockId,
    /// For conditionals: the branch sense was inverted by layout, i.e. the
    /// *logical taken* edge is reached by falling through.
    pub flipped: bool,
    /// This is a layout-inserted fix-up jump, not a CFG terminator.
    pub is_fixup: bool,
}

/// One instruction slot of the image.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageInst {
    /// The static instruction occupying the slot.
    pub inst: StaticInst,
    /// Control metadata if the slot is a branch.
    pub control: Option<ControlAttr>,
}

/// A program laid out in memory: every instruction at a concrete address.
#[derive(Debug, Clone)]
pub struct CodeImage {
    base: Addr,
    insts: Vec<ImageInst>,
    owners: Vec<BlockId>,
    block_addr: Vec<Addr>,
    entry: Addr,
    n_fixups: usize,
    n_elided: usize,
    control: ControlTable,
    /// Built on first use: only images something fast-forwards pay for it.
    runs: OnceLock<RunTable>,
}

impl CodeImage {
    /// Builds the image for `cfg` under `layout` at the default
    /// [`CODE_BASE`].
    pub fn build(cfg: &Cfg, layout: &Layout) -> Self {
        Self::build_at(cfg, layout, Addr::new(CODE_BASE))
    }

    /// Builds the image at an explicit base address.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not instruction-aligned or the layout does not
    /// cover the program (both are programming errors).
    pub fn build_at(cfg: &Cfg, layout: &Layout, base: Addr) -> Self {
        assert!(base.is_inst_aligned(), "image base must be aligned");
        let order = layout.order();
        assert_eq!(order.len(), cfg.num_blocks(), "layout must place every block");

        let next_of = |i: usize| -> Option<BlockId> { order.get(i + 1).copied() };

        // Pass 1: sizes. For each placed block decide terminator shape.
        #[derive(Clone, Copy)]
        enum TermShape {
            None,                       // fallthrough to adjacent / elided jump
            Branch { fixup: bool },     // terminator instruction (+ optional fix-up jump)
            FixupOnly,                  // fallthrough needs a jump
        }
        let mut shapes = Vec::with_capacity(order.len());
        let mut sizes = Vec::with_capacity(order.len());
        for (i, &b) in order.iter().enumerate() {
            let blk = cfg.block(b);
            let next = next_of(i);
            let shape = match blk.terminator() {
                Terminator::FallThrough { next: t } => {
                    if next == Some(*t) {
                        TermShape::None
                    } else {
                        TermShape::FixupOnly
                    }
                }
                Terminator::Jump { target } => {
                    if next == Some(*target) {
                        TermShape::None // elided
                    } else {
                        TermShape::Branch { fixup: false }
                    }
                }
                Terminator::Cond { taken, not_taken, .. } => {
                    let adj_nt = next == Some(*not_taken);
                    let adj_t = next == Some(*taken);
                    TermShape::Branch { fixup: !adj_nt && !adj_t }
                }
                Terminator::Call { ret_to, .. } | Terminator::IndirectCall { ret_to, .. } => {
                    TermShape::Branch { fixup: next != Some(*ret_to) }
                }
                Terminator::Return | Terminator::IndirectJump { .. } => {
                    TermShape::Branch { fixup: false }
                }
            };
            let extra = match shape {
                TermShape::None => 0,
                TermShape::FixupOnly => 1,
                TermShape::Branch { fixup } => 1 + usize::from(fixup),
            };
            shapes.push(shape);
            sizes.push(blk.body().len() + extra);
        }

        // Pass 2: addresses.
        let mut block_addr = vec![Addr::NULL; cfg.num_blocks()];
        let mut cur = base;
        for (i, &b) in order.iter().enumerate() {
            block_addr[b.index()] = cur;
            cur = cur.offset_insts(sizes[i] as u64);
        }

        // Pass 3: emit.
        let mut insts: Vec<ImageInst> = Vec::with_capacity((cur - base) as usize / 4);
        let mut owners: Vec<BlockId> = Vec::with_capacity(insts.capacity());
        let mut n_fixups = 0;
        let mut n_elided = 0;
        let mut pc = base;
        for (i, &b) in order.iter().enumerate() {
            let blk = cfg.block(b);
            debug_assert_eq!(pc, block_addr[b.index()]);
            for &inst in blk.body() {
                insts.push(ImageInst { inst, control: None });
                pc = pc.next_inst();
            }
            let addr_of = |t: BlockId| block_addr[t.index()];
            let mut push_fixup = |insts: &mut Vec<ImageInst>, pc: &mut Addr, to: BlockId| {
                insts.push(ImageInst {
                    inst: StaticInst::branch(BranchKind::Jump),
                    control: Some(ControlAttr {
                        kind: BranchKind::Jump,
                        target: Some(addr_of(to)),
                        fallthrough: pc.next_inst(),
                        owner: b,
                        flipped: false,
                        is_fixup: true,
                    }),
                });
                *pc = pc.next_inst();
                n_fixups += 1;
            };
            match (blk.terminator(), shapes[i]) {
                (Terminator::FallThrough { .. }, TermShape::None) => {}
                (Terminator::FallThrough { next: t }, TermShape::FixupOnly) => {
                    push_fixup(&mut insts, &mut pc, *t);
                }
                (Terminator::Jump { .. }, TermShape::None) => {
                    n_elided += 1;
                }
                (Terminator::Jump { target }, TermShape::Branch { .. }) => {
                    insts.push(ImageInst {
                        inst: StaticInst::branch(BranchKind::Jump),
                        control: Some(ControlAttr {
                            kind: BranchKind::Jump,
                            target: Some(addr_of(*target)),
                            fallthrough: pc.next_inst(),
                            owner: b,
                            flipped: false,
                            is_fixup: false,
                        }),
                    });
                    pc = pc.next_inst();
                }
                (Terminator::Cond { taken, not_taken, .. }, TermShape::Branch { fixup }) => {
                    let next = next_of(i);
                    // flipped: the logical-taken successor is adjacent, so
                    // layout inverted the condition.
                    let flipped = next == Some(*taken) && next != Some(*not_taken);
                    let branch_target = if flipped { addr_of(*not_taken) } else { addr_of(*taken) };
                    insts.push(ImageInst {
                        inst: StaticInst::branch(BranchKind::Cond),
                        control: Some(ControlAttr {
                            kind: BranchKind::Cond,
                            target: Some(branch_target),
                            fallthrough: pc.next_inst(),
                            owner: b,
                            flipped,
                            is_fixup: false,
                        }),
                    });
                    pc = pc.next_inst();
                    if fixup {
                        // Neither successor adjacent: branch goes to `taken`,
                        // fall-through lands on a jump to `not_taken`.
                        push_fixup(&mut insts, &mut pc, *not_taken);
                    }
                }
                (Terminator::Call { callee, ret_to }, TermShape::Branch { fixup }) => {
                    let entry = cfg.func(*callee).entry();
                    insts.push(ImageInst {
                        inst: StaticInst::branch(BranchKind::Call),
                        control: Some(ControlAttr {
                            kind: BranchKind::Call,
                            target: Some(addr_of(entry)),
                            fallthrough: pc.next_inst(),
                            owner: b,
                            flipped: false,
                            is_fixup: false,
                        }),
                    });
                    pc = pc.next_inst();
                    if fixup {
                        push_fixup(&mut insts, &mut pc, *ret_to);
                    }
                }
                (Terminator::IndirectCall { ret_to, .. }, TermShape::Branch { fixup }) => {
                    insts.push(ImageInst {
                        inst: StaticInst::branch(BranchKind::IndirectCall),
                        control: Some(ControlAttr {
                            kind: BranchKind::IndirectCall,
                            target: None,
                            fallthrough: pc.next_inst(),
                            owner: b,
                            flipped: false,
                            is_fixup: false,
                        }),
                    });
                    pc = pc.next_inst();
                    if fixup {
                        push_fixup(&mut insts, &mut pc, *ret_to);
                    }
                }
                (Terminator::Return, TermShape::Branch { .. }) => {
                    insts.push(ImageInst {
                        inst: StaticInst::branch(BranchKind::Return),
                        control: Some(ControlAttr {
                            kind: BranchKind::Return,
                            target: None,
                            fallthrough: pc.next_inst(),
                            owner: b,
                            flipped: false,
                            is_fixup: false,
                        }),
                    });
                    pc = pc.next_inst();
                }
                (Terminator::IndirectJump { .. }, TermShape::Branch { .. }) => {
                    insts.push(ImageInst {
                        inst: StaticInst::branch(BranchKind::IndirectJump),
                        control: Some(ControlAttr {
                            kind: BranchKind::IndirectJump,
                            target: None,
                            fallthrough: pc.next_inst(),
                            owner: b,
                            flipped: false,
                            is_fixup: false,
                        }),
                    });
                    pc = pc.next_inst();
                }
                (t, _) => unreachable!("inconsistent terminator shape for {t:?}"),
            }
            owners.resize(insts.len(), b);
        }
        debug_assert_eq!(pc, cur);

        let entry = block_addr[cfg.entry_block().index()];
        let control = ControlTable::build(cfg, &block_addr);
        CodeImage {
            base,
            insts,
            owners,
            block_addr,
            entry,
            n_fixups,
            n_elided,
            control,
            runs: OnceLock::new(),
        }
    }

    /// Base address of the code segment.
    #[inline]
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Address of the program entry point.
    #[inline]
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// Total instructions in the image.
    #[inline]
    pub fn len_insts(&self) -> usize {
        self.insts.len()
    }

    /// Code segment size in bytes.
    #[inline]
    pub fn code_bytes(&self) -> u64 {
        self.insts.len() as u64 * INST_BYTES
    }

    /// One-past-the-end address.
    #[inline]
    pub fn end(&self) -> Addr {
        self.base.offset_insts(self.insts.len() as u64)
    }

    /// Start address of a block.
    ///
    /// Note that an empty fall-through block shares its address with the
    /// following block.
    #[inline]
    pub fn block_addr(&self, b: BlockId) -> Addr {
        self.block_addr[b.index()]
    }

    /// Index of the instruction slot at `addr`, if inside the image.
    #[inline]
    pub fn slot_of(&self, addr: Addr) -> Option<usize> {
        if addr < self.base || !addr.is_inst_aligned() {
            return None;
        }
        let idx = ((addr - self.base) / INST_BYTES) as usize;
        (idx < self.insts.len()).then_some(idx)
    }

    /// The instruction at `addr`, if inside the image. Fetch engines running
    /// down a wrong path may ask for addresses outside the image; callers
    /// treat `None` as a no-op slot.
    #[inline]
    pub fn inst_at(&self, addr: Addr) -> Option<&ImageInst> {
        self.slot_of(addr).map(|i| &self.insts[i])
    }

    /// The instruction at slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn inst(&self, idx: usize) -> &ImageInst {
        &self.insts[idx]
    }

    /// Block owning the instruction slot at `addr`, if inside the image.
    #[inline]
    pub fn owner_at(&self, addr: Addr) -> Option<BlockId> {
        self.slot_of(addr).map(|i| self.owners[i])
    }

    /// Block owning instruction slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn owner(&self, idx: usize) -> BlockId {
        self.owners[idx]
    }

    /// The flattened control side-table: per-block branch behaviour with all
    /// payloads interned and indirect targets pre-resolved to addresses. The
    /// architectural executor resolves dynamic control through this instead
    /// of re-matching CFG terminators (and cloning their payloads) per step.
    #[inline]
    pub fn control(&self) -> &ControlTable {
        &self.control
    }

    /// The per-slot straight-line run table: distances to the next control
    /// and memory slot, which let a state-only walk cross a run of
    /// sequential instructions in one step. Built on the first call (one
    /// pass over the slots, 8 bytes per slot) and kept for the image's
    /// lifetime.
    pub fn runs(&self) -> &RunTable {
        self.runs.get_or_init(|| RunTable::build(&self.insts))
    }

    /// Number of fix-up jumps the layout inserted.
    #[inline]
    pub fn fixup_jumps(&self) -> usize {
        self.n_fixups
    }

    /// Number of CFG jumps elided by adjacency.
    #[inline]
    pub fn elided_jumps(&self) -> usize {
        self.n_elided
    }

    /// Iterates over `(addr, inst)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &ImageInst)> {
        self.insts.iter().enumerate().map(move |(i, inst)| (self.base.offset_insts(i as u64), inst))
    }
}

impl fmt::Display for CodeImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "code image: {} insts ({} bytes) at {}, {} fixups, {} elided jumps",
            self.len_insts(),
            self.code_bytes(),
            self.base,
            self.n_fixups,
            self.n_elided
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CfgBuilder;
    use crate::layout::{natural, pettis_hansen};
    use crate::profile::EdgeProfile;
    use crate::CondBehavior;

    /// a --cond(p=.9 taken)--> hot | cold ; both -> exit(ret)
    /// created order: a, cold, hot, exit (cold adjacent in natural layout).
    fn hammock() -> (Cfg, BlockId, BlockId, BlockId, BlockId) {
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let a = bld.add_block(f, 2);
        let cold = bld.add_block(f, 2);
        let hot = bld.add_block(f, 2);
        let exit = bld.add_block(f, 1);
        bld.set_cond(a, hot, cold, CondBehavior::Bernoulli { p_taken: 0.9 });
        bld.set_fallthrough(cold, exit);
        bld.set_fallthrough(hot, exit);
        bld.set_return(exit);
        (bld.finish().expect("valid"), a, cold, hot, exit)
    }
    use crate::graph::Cfg;

    #[test]
    fn natural_layout_keeps_branch_sense() {
        let (cfg, a, cold, hot, _exit) = hammock();
        let img = CodeImage::build(&cfg, &natural(&cfg));
        // a = 2 body + cond at slot 2.
        let battr = img.inst(2).control.expect("cond branch");
        assert_eq!(battr.kind, BranchKind::Cond);
        assert!(!battr.flipped, "cold (not_taken) is adjacent; no flip");
        assert_eq!(battr.target, Some(img.block_addr(hot)));
        assert_eq!(battr.fallthrough, img.block_addr(cold));
        assert_eq!(battr.owner, a);
    }

    #[test]
    fn optimized_layout_flips_branch_so_hot_falls_through() {
        let (cfg, _a, _cold, hot, _exit) = hammock();
        let prof = EdgeProfile::from_expected(&cfg);
        let img = CodeImage::build(&cfg, &pettis_hansen(&cfg, &prof));
        let battr = img.inst(2).control.expect("cond branch");
        assert!(battr.flipped, "hot successor adjacent => condition inverted");
        assert_eq!(battr.fallthrough, img.block_addr(hot));
    }

    #[test]
    fn fixup_jumps_reconnect_nonadjacent_fallthroughs() {
        let (cfg, ..) = hammock();
        // natural: a,cold,hot,exit. hot's fallthrough = exit, adjacent ✓;
        // cold's fallthrough = exit, NOT adjacent (hot in between) -> fixup.
        let img = CodeImage::build(&cfg, &natural(&cfg));
        assert_eq!(img.fixup_jumps(), 1);
        // cold occupies slots 3,4 then fixup at slot 5.
        let fix = img.inst(5).control.expect("fixup jump");
        assert!(fix.is_fixup);
        assert_eq!(fix.kind, BranchKind::Jump);
    }

    #[test]
    fn jump_elision() {
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let a = bld.add_block(f, 1);
        let b = bld.add_block(f, 1);
        bld.set_jump(a, b); // adjacent -> elided
        bld.set_return(b);
        let cfg = bld.finish().expect("valid");
        let img = CodeImage::build(&cfg, &natural(&cfg));
        assert_eq!(img.elided_jumps(), 1);
        assert_eq!(img.len_insts(), 3, "1 body + 1 body + ret");
    }

    #[test]
    fn addresses_are_contiguous_and_lookup_works() {
        let (cfg, ..) = hammock();
        let img = CodeImage::build(&cfg, &natural(&cfg));
        for (addr, inst) in img.iter() {
            assert_eq!(img.inst_at(addr).expect("in range"), inst);
        }
        assert_eq!(img.inst_at(img.end()), None);
        assert_eq!(img.inst_at(Addr::new(0)), None);
        assert_eq!(img.inst_at(img.base() + 2), None, "misaligned lookup");
        assert_eq!(img.entry(), img.base());
    }

    #[test]
    fn call_gets_fixup_when_return_point_not_adjacent() {
        let mut bld = CfgBuilder::new();
        let main = bld.add_func("main");
        let leaf = bld.add_func("leaf");
        let c = bld.add_block(main, 1);
        let far = bld.add_block(main, 1); // sits between call and ret point
        let ret_pt = bld.add_block(main, 1);
        let l0 = bld.add_block(leaf, 1);
        bld.set_call(c, leaf, ret_pt);
        bld.set_return(far);
        bld.set_return(ret_pt);
        bld.set_return(l0);
        let cfg = bld.finish().expect("valid");
        let img = CodeImage::build(&cfg, &natural(&cfg));
        assert_eq!(img.fixup_jumps(), 1);
        // call at slot 1, fixup at slot 2 targeting ret_pt.
        let fix = img.inst(2).control.expect("fixup");
        assert!(fix.is_fixup);
        assert_eq!(fix.target, Some(img.block_addr(ret_pt)));
        // call target is leaf entry.
        let call = img.inst(1).control.expect("call");
        assert_eq!(call.target, Some(img.block_addr(l0)));
    }

    #[test]
    fn cond_with_no_adjacent_successor_gets_branch_plus_fixup() {
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let a = bld.add_block(f, 1);
        let pad = bld.add_block(f, 1);
        let t = bld.add_block(f, 1);
        let nt = bld.add_block(f, 1);
        bld.set_cond(a, t, nt, CondBehavior::Bernoulli { p_taken: 0.5 });
        bld.set_return(pad);
        bld.set_return(t);
        bld.set_return(nt);
        let cfg = bld.finish().expect("valid");
        let img = CodeImage::build(&cfg, &natural(&cfg));
        // a: body(1) + cond + fixup -> pad starts at slot 3.
        let br = img.inst(1).control.expect("cond");
        assert_eq!(br.target, Some(img.block_addr(t)));
        assert!(!br.flipped);
        let fix = img.inst(2).control.expect("fixup");
        assert_eq!(fix.target, Some(img.block_addr(nt)));
        assert_eq!(img.block_addr(pad), img.base().offset_insts(3));
    }

    #[test]
    fn empty_fallthrough_blocks_are_zero_size() {
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let a = bld.add_block(f, 1);
        let empty = bld.add_block(f, 0);
        let b = bld.add_block(f, 1);
        bld.set_fallthrough(a, empty);
        bld.set_fallthrough(empty, b);
        bld.set_return(b);
        let cfg = bld.finish().expect("valid");
        let img = CodeImage::build(&cfg, &natural(&cfg));
        assert_eq!(img.block_addr(empty), img.block_addr(b));
        assert_eq!(img.len_insts(), 3);
        assert_eq!(img.fixup_jumps(), 0);
    }
}
