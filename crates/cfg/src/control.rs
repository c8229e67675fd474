//! The flattened per-block control side-table.
//!
//! The architectural executor resolves every dynamic control transfer by
//! asking "what does the owner block's terminator do?". Matching on
//! [`Terminator`] per instruction forces a heap clone of
//! the behaviour payloads (`Pattern` vectors, weighted callee/target lists,
//! cyclic selection sequences) on *every dynamic branch instance* — the
//! dominant allocation source in the simulator's hot loop.
//!
//! [`ControlTable`] is built once per [`CodeImage`](crate::CodeImage): one
//! compact [`CondCtl`]/[`IndirectCtl`] record per block, with all
//! variable-length payloads interned into shared flat arrays and indirect
//! targets pre-resolved to concrete image addresses. The executor then
//! resolves a dynamic branch with two array indexations and zero
//! allocations, and indirect transfers skip the
//! `FuncId -> entry block -> address` double lookup entirely.

use sfetch_isa::Addr;

use crate::behavior::{CondBehavior, IndirectSelect, TripCount};
use crate::graph::{BlockId, Cfg, Terminator};

/// Interned conditional-branch behaviour: a `Copy` mirror of
/// [`CondBehavior`] with the pattern bits stored out-of-line in the table
/// and probabilities pre-clamped to `[0, 1]`, so evaluation needs no
/// per-instance normalization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CondCtl {
    /// Independent Bernoulli draws.
    Bernoulli {
        /// Probability of following the logical taken edge (pre-clamped).
        p_taken: f64,
    },
    /// Cyclic pattern; the bits live at `[off, off + len)` of the table's
    /// pattern store (see [`ControlTable::pattern_bits`]).
    Pattern {
        /// Offset into the interned pattern store.
        off: u32,
        /// Pattern length (0 encodes an empty pattern).
        len: u32,
    },
    /// Loop back-edge with a trip-count distribution.
    Loop {
        /// Trip-count distribution.
        trip: TripCount,
    },
    /// History-correlated outcome.
    Correlated {
        /// Conditional instances back to look.
        dist: u8,
        /// Whether the correlated outcome is inverted.
        invert: bool,
        /// Probability of ignoring the correlation (pre-clamped).
        noise: f64,
    },
}

/// Interned indirect-transfer descriptor. Targets are image addresses (the
/// callee's entry block address for indirect calls), weights are pre-clamped
/// to `>= 1` and pre-summed so a weighted pick needs no per-step pass over
/// the list, and cyclic sequence entries are pre-reduced modulo the target
/// count so a cyclic pick is a plain double indexation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndirectCtl {
    targets_off: u32,
    targets_len: u32,
    /// Sum of the (clamped) target weights.
    pub total_weight: u64,
    cyclic_off: u32,
    cyclic_len: u32,
}

/// Per-block control record: everything the block's terminator needs at
/// execution time, stored inline so a dynamic branch resolves with a single
/// array lookup. Direct jumps, calls and returns are fully described by the
/// image's `ControlAttr` and need no record.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BlockCtl {
    None,
    Cond(CondCtl),
    Indirect(IndirectCtl),
}

/// The side-table: one record per CFG block, payloads interned flat.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlTable {
    blocks: Vec<BlockCtl>,
    patterns: Vec<bool>,
    targets: Vec<(Addr, u64)>,
    cyclic: Vec<u16>,
}

impl ControlTable {
    /// Builds the table for `cfg` whose blocks were placed at `block_addr`
    /// (indexed by [`BlockId::index`]).
    ///
    /// # Panics
    ///
    /// Panics if `block_addr` does not cover every block.
    pub fn build(cfg: &Cfg, block_addr: &[Addr]) -> Self {
        assert_eq!(block_addr.len(), cfg.num_blocks(), "address table must cover every block");
        let mut t = ControlTable {
            blocks: Vec::with_capacity(cfg.num_blocks()),
            patterns: Vec::new(),
            targets: Vec::new(),
            cyclic: Vec::new(),
        };
        for blk in cfg.blocks() {
            let ctl = match blk.terminator() {
                Terminator::Cond { behavior, .. } => BlockCtl::Cond(t.intern_cond(behavior)),
                Terminator::IndirectCall { callees, select, .. } => {
                    let resolved = callees
                        .iter()
                        .map(|&(f, w)| (block_addr[cfg.func(f).entry().index()], w));
                    BlockCtl::Indirect(t.intern_indirect(resolved, select))
                }
                Terminator::IndirectJump { targets, select } => {
                    let resolved = targets.iter().map(|&(b, w)| (block_addr[b.index()], w));
                    BlockCtl::Indirect(t.intern_indirect(resolved, select))
                }
                Terminator::FallThrough { .. }
                | Terminator::Jump { .. }
                | Terminator::Call { .. }
                | Terminator::Return => BlockCtl::None,
            };
            t.blocks.push(ctl);
        }
        t
    }

    fn intern_cond(&mut self, beh: &CondBehavior) -> CondCtl {
        match beh {
            CondBehavior::Bernoulli { p_taken } => {
                CondCtl::Bernoulli { p_taken: p_taken.clamp(0.0, 1.0) }
            }
            CondBehavior::Pattern(bits) => {
                let off = self.patterns.len() as u32;
                self.patterns.extend_from_slice(bits);
                CondCtl::Pattern { off, len: bits.len() as u32 }
            }
            CondBehavior::Loop { trip } => CondCtl::Loop { trip: *trip },
            CondBehavior::Correlated { dist, invert, noise } => {
                CondCtl::Correlated { dist: *dist, invert: *invert, noise: noise.clamp(0.0, 1.0) }
            }
        }
    }

    fn intern_indirect(
        &mut self,
        resolved: impl Iterator<Item = (Addr, u32)>,
        select: &IndirectSelect,
    ) -> IndirectCtl {
        let targets_off = self.targets.len() as u32;
        let mut total_weight = 0u64;
        for (addr, w) in resolved {
            let w = u64::from(w.max(1));
            total_weight += w;
            self.targets.push((addr, w));
        }
        let targets_len = self.targets.len() as u32 - targets_off;
        let cyclic_off = self.cyclic.len() as u32;
        if let IndirectSelect::Cyclic(seq) = select {
            // Pre-reduce each entry modulo the target count: the executor's
            // cyclic pick becomes a plain double indexation.
            t_extend_reduced(&mut self.cyclic, seq, targets_len);
        }
        let cyclic_len = self.cyclic.len() as u32 - cyclic_off;
        IndirectCtl { targets_off, targets_len, total_weight, cyclic_off, cyclic_len }
    }

    /// Number of blocks covered (equals the CFG's block count).
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Checks per-block executor cursors read from outside bytes: a
    /// conditional pattern's cursor must index its pattern and a cyclic
    /// indirect's cursor its cycle, since the executor indexes both
    /// without a modulo. Other blocks' cursors are never read.
    ///
    /// # Errors
    ///
    /// A description of the first cursor out of range.
    pub fn check_cursors(&self, pattern_idx: &[u32], indirect_idx: &[u32]) -> Result<(), String> {
        for (b, ((ctl, &p), &i)) in
            self.blocks.iter().zip(pattern_idx).zip(indirect_idx).enumerate()
        {
            let (cursor, len, what) = match *ctl {
                BlockCtl::Cond(CondCtl::Pattern { len, .. }) if len > 0 => (p, len, "pattern"),
                BlockCtl::Indirect(ic) if ic.cyclic_len > 0 => (i, ic.cyclic_len, "indirect cycle"),
                _ => continue,
            };
            if cursor >= len {
                return Err(format!("block {b}: {what} cursor {cursor} out of range 0..{len}"));
            }
        }
        Ok(())
    }

    /// The interned conditional record of `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b`'s terminator is not a conditional branch — the same
    /// inconsistency the executor previously reported when an image branch
    /// mapped to the wrong terminator.
    #[inline]
    pub fn cond_of(&self, b: BlockId) -> CondCtl {
        match self.blocks[b.index()] {
            BlockCtl::Cond(c) => c,
            _ => panic!("block {b} has no conditional control record"),
        }
    }

    /// The interned indirect record of `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b`'s terminator is not an indirect call/jump.
    #[inline]
    pub fn indirect_of(&self, b: BlockId) -> IndirectCtl {
        match self.blocks[b.index()] {
            BlockCtl::Indirect(i) => i,
            _ => panic!("block {b} has no indirect control record"),
        }
    }

    /// The interned pattern bits of a [`CondCtl::Pattern`].
    #[inline]
    pub fn pattern_bits(&self, off: u32, len: u32) -> &[bool] {
        &self.patterns[off as usize..(off + len) as usize]
    }

    /// The resolved `(address, weight)` targets of an indirect record.
    #[inline]
    pub fn targets_of(&self, ic: IndirectCtl) -> &[(Addr, u64)] {
        &self.targets[ic.targets_off as usize..(ic.targets_off + ic.targets_len) as usize]
    }

    /// The cyclic selection sequence of an indirect record (empty for
    /// weighted selection), entries pre-reduced to valid target slots.
    #[inline]
    pub fn cycle_of(&self, ic: IndirectCtl) -> &[u16] {
        &self.cyclic[ic.cyclic_off as usize..(ic.cyclic_off + ic.cyclic_len) as usize]
    }
}

/// Appends `seq` with each entry reduced modulo `n_targets` (slots are
/// static, so the reduction the executor used to do per instance happens
/// once here).
fn t_extend_reduced(cyclic: &mut Vec<u16>, seq: &[u16], n_targets: u32) {
    let n = n_targets.max(1) as u16;
    cyclic.extend(seq.iter().map(|&s| s % n));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CfgBuilder;
    use crate::layout::natural;
    use crate::CodeImage;

    fn addrs(cfg: &Cfg) -> Vec<Addr> {
        let img = CodeImage::build(cfg, &natural(cfg));
        cfg.blocks().iter().map(|b| img.block_addr(b.id())).collect()
    }

    #[test]
    fn cond_records_mirror_behaviors() {
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let a = bld.add_block(f, 1);
        let t = bld.add_block(f, 1);
        let n = bld.add_block(f, 1);
        bld.set_cond(a, t, n, CondBehavior::Pattern(vec![true, false, true]));
        bld.set_return(t);
        bld.set_return(n);
        let cfg = bld.finish().expect("valid");
        let table = ControlTable::build(&cfg, &addrs(&cfg));
        match table.cond_of(BlockId::from_index(0)) {
            CondCtl::Pattern { off, len } => {
                assert_eq!(table.pattern_bits(off, len), &[true, false, true]);
            }
            c => panic!("expected pattern, got {c:?}"),
        }
    }

    #[test]
    fn indirect_targets_resolve_to_block_addresses() {
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let sw = bld.add_block(f, 1);
        let a = bld.add_block(f, 1);
        let b = bld.add_block(f, 2);
        bld.set_indirect_jump(sw, vec![(a, 3), (b, 0)], IndirectSelect::Cyclic(vec![0, 1, 1]));
        bld.set_return(a);
        bld.set_return(b);
        let cfg = bld.finish().expect("valid");
        let addr = addrs(&cfg);
        let table = ControlTable::build(&cfg, &addr);
        let ic = table.indirect_of(BlockId::from_index(0));
        let targets = table.targets_of(ic);
        assert_eq!(targets.len(), 2);
        assert_eq!(targets[0], (addr[1], 3), "weight kept");
        assert_eq!(targets[1], (addr[2], 1), "zero weight clamps to 1");
        assert_eq!(ic.total_weight, 4);
        assert_eq!(table.cycle_of(ic), &[0, 1, 1]);
    }

    #[test]
    fn plain_blocks_have_no_records() {
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let a = bld.add_block(f, 1);
        let b = bld.add_block(f, 1);
        bld.set_jump(a, b);
        bld.set_return(b);
        let cfg = bld.finish().expect("valid");
        let table = ControlTable::build(&cfg, &addrs(&cfg));
        assert_eq!(table.num_blocks(), 2);
        let r = std::panic::catch_unwind(|| table.cond_of(BlockId::from_index(0)));
        assert!(r.is_err(), "jump block must not expose a cond record");
    }

    #[test]
    fn generated_programs_cover_every_block_class() {
        use crate::gen::{GenParams, ProgramGenerator};
        let cfg = ProgramGenerator::new(GenParams::default_int(), 11).generate();
        let addr = addrs(&cfg);
        let table = ControlTable::build(&cfg, &addr);
        for blk in cfg.blocks() {
            match blk.terminator() {
                Terminator::Cond { behavior, .. } => {
                    let c = table.cond_of(blk.id());
                    // Spot-check the record mirrors the behaviour class.
                    match (behavior, c) {
                        (CondBehavior::Bernoulli { p_taken }, CondCtl::Bernoulli { p_taken: q }) => {
                            assert_eq!(*p_taken, q)
                        }
                        (CondBehavior::Pattern(p), CondCtl::Pattern { off, len }) => {
                            assert_eq!(table.pattern_bits(off, len), p.as_slice())
                        }
                        (CondBehavior::Loop { trip }, CondCtl::Loop { trip: t }) => {
                            assert_eq!(*trip, t)
                        }
                        (
                            CondBehavior::Correlated { dist, .. },
                            CondCtl::Correlated { dist: d, .. },
                        ) => assert_eq!(*dist, d),
                        (b, c) => panic!("class mismatch: {b:?} vs {c:?}"),
                    }
                }
                Terminator::IndirectJump { targets, .. } => {
                    let ic = table.indirect_of(blk.id());
                    let resolved = table.targets_of(ic);
                    assert_eq!(resolved.len(), targets.len());
                    for (&(got, _), &(want, _)) in resolved.iter().zip(targets) {
                        assert_eq!(got, addr[want.index()]);
                    }
                }
                Terminator::IndirectCall { callees, .. } => {
                    let ic = table.indirect_of(blk.id());
                    let resolved = table.targets_of(ic);
                    for (&(got, _), &(want, _)) in resolved.iter().zip(callees) {
                        assert_eq!(got, addr[cfg.func(want).entry().index()]);
                    }
                }
                _ => {}
            }
        }
    }
}
