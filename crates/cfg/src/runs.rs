//! The per-slot straight-line run table.
//!
//! The committed path is made of long sequential runs between control
//! transfers — the property the paper's stream fetch is built on. A
//! state-only walk (one that advances the architectural state without
//! producing per-instruction records) can cross such a run in one step:
//! the program counter and the instruction count jump by the run length,
//! and only the run's memory instructions need their execution counts
//! bumped. [`RunTable`] holds, per image slot, the two distances that
//! walk needs: to the next control slot and to the next memory slot.
//!
//! It is derived data, held by its [`CodeImage`](crate::CodeImage) next
//! to the [`ControlTable`](crate::ControlTable) and built on first use
//! ([`CodeImage::runs`](crate::CodeImage::runs)); it is never serialized
//! and enters no fingerprint, key or checkpoint.

use crate::image::ImageInst;

/// Distances from one slot forward, in instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct SlotRun {
    to_control: u32,
    to_memory: u32,
}

/// Per-slot distances to the next control and the next memory slot.
///
/// Both distances count the slot itself: a control slot has
/// [`RunTable::to_control`] 0, a memory slot [`RunTable::to_memory`] 0.
/// Where no such slot follows, the distance runs to the end of the image.
/// The table has one entry past the last slot (both distances 0), so
/// `to_memory(end)` is defined for a walk that lands exactly on the end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunTable {
    runs: Vec<SlotRun>,
}

impl RunTable {
    /// Builds the table over an image's slots in one backward pass.
    ///
    /// # Panics
    ///
    /// Panics if the image has `u32::MAX` or more slots.
    pub(crate) fn build(insts: &[ImageInst]) -> Self {
        assert!(insts.len() < u32::MAX as usize, "image too large for a run table");
        let mut runs = vec![SlotRun::default(); insts.len() + 1];
        for (s, ii) in insts.iter().enumerate().rev() {
            let next = runs[s + 1];
            runs[s] = SlotRun {
                to_control: if ii.control.is_some() { 0 } else { next.to_control + 1 },
                to_memory: if ii.inst.mem_pattern().is_some() { 0 } else { next.to_memory + 1 },
            };
        }
        RunTable { runs }
    }

    /// Slots from `slot` up to (not including) the first control slot at
    /// or after it: the straight-line run starting at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is past the end of the image.
    #[inline]
    pub fn to_control(&self, slot: usize) -> u32 {
        self.runs[slot].to_control
    }

    /// Slots from `slot` up to (not including) the first memory slot at
    /// or after it.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is past the end of the image.
    #[inline]
    pub fn to_memory(&self, slot: usize) -> u32 {
        self.runs[slot].to_memory
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::CfgBuilder;
    use crate::layout::natural;
    use crate::{CodeImage, CondBehavior, TripCount};
    use sfetch_isa::{Addr, DepDistance, InstClass, MemPattern, StaticInst};

    #[test]
    fn distances_match_a_forward_scan() {
        let ld = StaticInst::memory(
            InstClass::Load,
            MemPattern::new(Addr::new(0x9000), 8, 4),
            DepDistance::NONE,
        );
        let alu = StaticInst::simple(InstClass::IntAlu);
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let a = bld.add_block_with(f, vec![alu, ld, alu, alu, ld]);
        let b = bld.add_block_with(f, vec![alu, alu]);
        let exit = bld.add_block(f, 1);
        bld.set_cond(a, a, b, CondBehavior::Loop { trip: TripCount::Fixed(3) });
        bld.set_fallthrough(b, exit);
        bld.set_return(exit);
        let cfg = bld.finish().expect("valid");
        let img = CodeImage::build(&cfg, &natural(&cfg));
        let runs = img.runs();
        let n = img.len_insts();
        for s in 0..n {
            let ctl = (s..n).find(|&i| img.inst(i).control.is_some()).unwrap_or(n);
            let mem = (s..n).find(|&i| img.inst(i).inst.mem_pattern().is_some()).unwrap_or(n);
            assert_eq!(runs.to_control(s) as usize, ctl - s, "to_control at slot {s}");
            assert_eq!(runs.to_memory(s) as usize, mem - s, "to_memory at slot {s}");
        }
        assert_eq!((runs.to_control(n), runs.to_memory(n)), (0, 0), "end sentinel");
    }
}
