//! Architectural checkpoints: serializable executor state.
//!
//! A checkpoint captures *everything* the [`crate::Executor`] needs to
//! continue its trace bit-identically — RNG state, program counter,
//! per-branch pattern/loop/indirect cursors, the call stack and per-slot
//! execution counts (which drive load/store address generation). It
//! deliberately contains **no** timing state: caches and predictors are
//! re-warmed per sample window, which is what makes sample windows
//! independent of each other and lets a long sampled run be split across
//! shard processes whose merged result equals the single-process run
//! exactly.
//!
//! The wire format ([`ArchCheckpoint::to_bytes`]) is a flat little-endian
//! u64 stream with a magic/version header — hand-rolled because the build
//! environment has no serde. Sizes are dominated by `exec_count` (one u64
//! per image instruction slot), so a checkpoint of a 256K-instruction
//! image is ≈2MB; shard runners write one per shard, not one per window.

use sfetch_cfg::CodeImage;
use sfetch_isa::Addr;

use crate::exec::HIST_LEN;

/// Magic + version tag of the checkpoint wire format.
const MAGIC: u64 = 0x5346_4348_4b50_5431; // "SFCHKPT1"

/// Complete architectural state of an [`crate::Executor`].
///
/// `cond_loop_remaining` encodes `Option<u32>` with `u32::MAX` as the
/// "not inside a loop execution" sentinel (trip counts are clamped far
/// below it by the generator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchCheckpoint {
    /// Internal xoshiro256++ state of the behaviour-model RNG.
    pub rng: [u64; 4],
    /// Program counter of the next instruction to commit.
    pub pc: Addr,
    /// Instructions committed so far.
    pub seq: u64,
    /// Recent conditional outcomes (bit 0 = most recent instance).
    pub hist: u16,
    /// Valid bits in `hist`.
    pub hist_len: u32,
    /// Per-block next index into `CondCtl::Pattern` sequences.
    pub cond_pattern_idx: Vec<u32>,
    /// Per-block remaining latch evaluations (`u32::MAX` = none).
    pub cond_loop_remaining: Vec<u32>,
    /// Per-block next index into indirect target cycles.
    pub indirect_idx: Vec<u32>,
    /// Return-address stack.
    pub call_stack: Vec<Addr>,
    /// Per-slot execution counts (drive memory address generation).
    pub exec_count: Vec<u64>,
}

impl ArchCheckpoint {
    /// Digest of the checkpoint's serialized form.
    ///
    /// Every piece of per-window warm state (cache contents, predictor
    /// tables) is re-derived deterministically from the architectural
    /// state this checkpoint captures, so this digest *pins* the warm
    /// state a window simulation will build from it — it is the
    /// warm-state digest the `sfetch-sample` checkpoint store records
    /// and verifies on load.
    pub fn digest(&self) -> u64 {
        sfetch_tab::fnv64(&self.to_bytes())
    }

    /// Checks that the checkpoint's tables match `image` — one cursor
    /// triple per block, one execution count per instruction slot — and
    /// that the executor can resume it there without panicking: the pc
    /// and every return address are instruction slots of the image, each
    /// pattern and indirect-cycle cursor is in range, and the history
    /// length is within its saturation bound. A well-formed checkpoint
    /// taken on another program or layout fails, and so does one whose
    /// bytes were altered into an impossible state.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch.
    pub fn fits(&self, image: &CodeImage) -> Result<(), String> {
        let ctl = image.control();
        if [&self.cond_pattern_idx, &self.cond_loop_remaining, &self.indirect_idx]
            .iter()
            .any(|v| v.len() != ctl.num_blocks())
        {
            return Err("checkpoint was not captured on this image (block count mismatch)".into());
        }
        if self.exec_count.len() != image.len_insts() {
            return Err("checkpoint was not captured on this image (slot count mismatch)".into());
        }
        ctl.check_cursors(&self.cond_pattern_idx, &self.indirect_idx)?;
        if image.slot_of(self.pc).is_none() {
            return Err(format!("pc {} is not an instruction slot of this image", self.pc));
        }
        if let Some(a) = self.call_stack.iter().find(|&&a| image.slot_of(a).is_none()) {
            return Err(format!("return address {a} is not an instruction slot of this image"));
        }
        if self.hist_len > HIST_LEN {
            return Err(format!("history length {} exceeds {HIST_LEN}", self.hist_len));
        }
        Ok(())
    }

    /// Serializes the checkpoint to a flat byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n_blocks = self.cond_pattern_idx.len();
        // One u64 word per field: header (12 words), three per-block u32
        // cursors (stored widened), the call stack, and exec_count.
        let mut out = Vec::with_capacity(
            8 * (12 + 3 * n_blocks + self.call_stack.len() + self.exec_count.len()),
        );
        let mut put = |v: u64| out.extend_from_slice(&v.to_le_bytes());
        put(MAGIC);
        for s in self.rng {
            put(s);
        }
        put(self.pc.get());
        put(self.seq);
        put(u64::from(self.hist) | (u64::from(self.hist_len) << 32));
        put(n_blocks as u64);
        put(self.call_stack.len() as u64);
        put(self.exec_count.len() as u64);
        for &v in &self.cond_pattern_idx {
            put(u64::from(v));
        }
        for &v in &self.cond_loop_remaining {
            put(u64::from(v));
        }
        for &v in &self.indirect_idx {
            put(u64::from(v));
        }
        for &a in &self.call_stack {
            put(a.get());
        }
        for &c in &self.exec_count {
            put(c);
        }
        out
    }

    /// Deserializes a checkpoint produced by [`ArchCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem found (bad
    /// magic, truncated buffer, trailing bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        if !bytes.len().is_multiple_of(8) {
            return Err(format!("checkpoint length {} is not word-aligned", bytes.len()));
        }
        let words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        let mut it = words.iter().copied();
        let mut next = |what: &str| it.next().ok_or_else(|| format!("truncated at {what}"));
        if next("magic")? != MAGIC {
            return Err("bad checkpoint magic (wrong file or version?)".into());
        }
        let rng = [next("rng0")?, next("rng1")?, next("rng2")?, next("rng3")?];
        let pc = Addr::new(next("pc")?);
        let seq = next("seq")?;
        let packed = next("hist")?;
        let hist = (packed & 0xffff) as u16;
        let hist_len = (packed >> 32) as u32;
        let n_blocks = next("n_blocks")? as usize;
        let n_stack = next("n_stack")? as usize;
        let n_slots = next("n_slots")? as usize;
        let mut take_u32s = |n: usize, what: &str| -> Result<Vec<u32>, String> {
            (0..n).map(|_| next(what).map(|v| v as u32)).collect()
        };
        let cond_pattern_idx = take_u32s(n_blocks, "pattern_idx")?;
        let cond_loop_remaining = take_u32s(n_blocks, "loop_remaining")?;
        let indirect_idx = take_u32s(n_blocks, "indirect_idx")?;
        let call_stack: Vec<Addr> =
            (0..n_stack).map(|_| next("call_stack").map(Addr::new)).collect::<Result<_, _>>()?;
        let exec_count: Vec<u64> =
            (0..n_slots).map(|_| next("exec_count")).collect::<Result<_, _>>()?;
        if it.next().is_some() {
            return Err("trailing bytes after checkpoint".into());
        }
        Ok(ArchCheckpoint {
            rng,
            pc,
            seq,
            hist,
            hist_len,
            cond_pattern_idx,
            cond_loop_remaining,
            indirect_idx,
            call_stack,
            exec_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Executor;
    use sfetch_cfg::gen::{GenParams, ProgramGenerator};
    use sfetch_cfg::{layout, CodeImage};

    fn image() -> CodeImage {
        let cfg = ProgramGenerator::new(GenParams::small(), 12).generate();
        let lay = layout::natural(&cfg);
        CodeImage::build(&cfg, &lay)
    }

    #[test]
    fn resume_is_bit_identical_to_straight_through() {
        let img = image();
        let mut straight = Executor::from_image(&img, 9);
        let head: Vec<_> = (&mut straight).take(20_000).collect();
        let cp = straight.checkpoint();
        assert_eq!(cp.seq, 20_000);
        assert_eq!(cp.pc, head.last().expect("nonempty").next_pc());
        let tail_a: Vec<_> = (&mut straight).take(20_000).collect();
        let tail_b: Vec<_> = Executor::from_checkpoint(&img, &cp).take(20_000).collect();
        assert_eq!(tail_a, tail_b, "resumed trace must match straight-through");
    }

    #[test]
    fn bytes_roundtrip() {
        let img = image();
        let mut ex = Executor::from_image(&img, 3);
        ex.nth(12_345);
        let cp = ex.checkpoint();
        let bytes = cp.to_bytes();
        let back = ArchCheckpoint::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(cp, back);
        // And the deserialized checkpoint still resumes identically.
        let a: Vec<_> = Executor::from_checkpoint(&img, &cp).take(5000).collect();
        let b: Vec<_> = Executor::from_checkpoint(&img, &back).take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(ArchCheckpoint::from_bytes(&[1, 2, 3]).is_err(), "unaligned");
        assert!(ArchCheckpoint::from_bytes(&[0u8; 16]).is_err(), "bad magic");
        let img = image();
        let cp = Executor::from_image(&img, 3).checkpoint();
        let mut bytes = cp.to_bytes();
        bytes.truncate(bytes.len() - 8);
        assert!(ArchCheckpoint::from_bytes(&bytes).is_err(), "truncated");
        let mut long = cp.to_bytes();
        long.extend_from_slice(&[0u8; 8]);
        assert!(ArchCheckpoint::from_bytes(&long).is_err(), "trailing");
    }

    /// Each field the executor trusts on resume, pushed out of range,
    /// makes `fits` refuse the checkpoint instead of letting the
    /// executor panic on it.
    #[test]
    fn fits_rejects_states_the_executor_cannot_resume() {
        // Mid-size, so the program has cyclic indirect transfers.
        let cfg = ProgramGenerator::new(GenParams::default_int(), 12).generate();
        let img = CodeImage::build(&cfg, &layout::natural(&cfg));
        let mut ex = Executor::from_image(&img, 3);
        // Deep enough that the call stack holds return addresses.
        while ex.call_depth() == 0 {
            ex.next();
        }
        let cp = ex.checkpoint();
        assert_eq!(cp.fits(&img), Ok(()));
        let past_end = img.base().offset_insts(img.len_insts() as u64);
        type Break = fn(&mut ArchCheckpoint, Addr);
        let cases: [(&str, Break); 6] = [
            ("pc", |cp, _| cp.pc = Addr::new(cp.pc.get() + 1)),
            ("pc", |cp, end| cp.pc = end),
            ("return address", |cp, end| cp.call_stack[0] = end),
            ("pattern cursor", |cp, _| cp.cond_pattern_idx.fill(u32::MAX - 1)),
            ("indirect cycle cursor", |cp, _| cp.indirect_idx.fill(u32::MAX - 1)),
            ("history length", |cp, _| cp.hist_len = u32::MAX),
        ];
        for (what, break_it) in cases {
            let mut bad = cp.clone();
            break_it(&mut bad, past_end);
            let err = bad.fits(&img).expect_err(what);
            assert!(err.contains(what), "{what}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "not captured on this image")]
    fn restore_on_wrong_image_panics() {
        let img = image();
        let cp = Executor::from_image(&img, 3).checkpoint();
        let other_cfg = ProgramGenerator::new(GenParams::small(), 99).generate();
        let other = CodeImage::build(&other_cfg, &layout::natural(&other_cfg));
        let _ = Executor::from_checkpoint(&other, &cp);
    }
}
