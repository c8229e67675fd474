//! The architectural executor: deterministic committed-path generation.

use std::hash::Hasher as _;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sfetch_cfg::{Cfg, CodeImage, CondCtl, ControlAttr, ControlTable, IndirectCtl, TripCount};
use sfetch_isa::Addr;

use crate::record::{DynControl, DynInst};

/// Maximum conditional-outcome history retained for
/// [`sfetch_cfg::CondBehavior::Correlated`] evaluation.
pub(crate) const HIST_LEN: u32 = 16;

/// Per-branch evaluation state.
#[derive(Debug, Clone, Default)]
struct CondState {
    /// Next index into a [`CondCtl::Pattern`].
    pattern_idx: u32,
    /// Remaining latch evaluations of the current loop execution.
    loop_remaining: Option<u32>,
}

/// Architectural executor over a laid-out program.
///
/// `Executor` walks the [`CodeImage`] instruction by instruction, evaluating
/// the CFG's behaviour models at control transfers, maintaining the call
/// stack, and generating load/store addresses from each instruction's
/// [`sfetch_isa::MemPattern`]. It is an **infinite**, deterministic iterator:
/// the same `(image, seed)` pair always produces the same trace, and `main`
/// is generated with an effectively unbounded outer loop.
///
/// The executor is the simulator's *oracle*: fetch engines speculate against
/// the image, and the processor compares their predictions with the
/// executor's outcomes.
///
/// The per-instruction path is allocation-free: control transfers resolve
/// through the image's interned [`ControlTable`] (built once per image)
/// instead of re-matching CFG terminators and cloning their payloads, and
/// the correlated-branch history lives in a bitmask.
///
/// The executor's whole dynamic state is *architectural* — program
/// counter, RNG, per-branch pattern/loop/indirect cursors, call stack and
/// per-slot execution counts — so it can be captured into an
/// [`crate::ArchCheckpoint`] ([`Executor::checkpoint`]) and resumed
/// bit-identically ([`Executor::from_checkpoint`]), which is what lets
/// sampled simulation split one long run into independent shards.
#[derive(Debug, Clone)]
pub struct Executor<'a> {
    image: &'a CodeImage,
    ctl: &'a ControlTable,
    /// Cached `image.base()` / `image.len_insts()` for the slot fast path.
    base: Addr,
    n_slots: usize,
    rng: SmallRng,
    pc: Addr,
    seq: u64,
    cond_state: Vec<CondState>,
    indirect_idx: Vec<u32>,
    call_stack: Vec<Addr>,
    /// Recent conditional outcomes, bit 0 = most recent instance.
    hist: u16,
    /// How many history bits are valid (saturates at [`HIST_LEN`]).
    hist_len: u32,
    exec_count: Vec<u64>,
}

impl<'a> Executor<'a> {
    /// Creates an executor starting at the image entry point.
    ///
    /// # Panics
    ///
    /// Panics if `image` was not built from `cfg` (block-count mismatch is
    /// detected eagerly; finer inconsistencies when an instruction's owner
    /// block resolves to the wrong control class).
    pub fn new(cfg: &'a Cfg, image: &'a CodeImage, seed: u64) -> Self {
        assert_eq!(
            cfg.num_blocks(),
            image.control().num_blocks(),
            "image was not built from this cfg"
        );
        Self::from_image(image, seed)
    }

    /// Creates an executor from the image alone: the interned control table
    /// carries everything the oracle needs, so no CFG borrow is required.
    pub fn from_image(image: &'a CodeImage, seed: u64) -> Self {
        let ctl = image.control();
        Executor {
            image,
            ctl,
            base: image.base(),
            n_slots: image.len_insts(),
            rng: SmallRng::seed_from_u64(seed),
            pc: image.entry(),
            seq: 0,
            cond_state: vec![CondState::default(); ctl.num_blocks()],
            indirect_idx: vec![0; ctl.num_blocks()],
            call_stack: Vec::with_capacity(64),
            hist: 0,
            hist_len: 0,
            exec_count: vec![0; image.len_insts()],
        }
    }

    /// Current program counter (address of the next instruction to commit).
    #[inline]
    pub fn pc(&self) -> Addr {
        self.pc
    }

    /// Number of instructions committed so far.
    #[inline]
    pub fn committed(&self) -> u64 {
        self.seq
    }

    /// Current call-stack depth.
    #[inline]
    pub fn call_depth(&self) -> usize {
        self.call_stack.len()
    }

    /// Captures the executor's complete architectural state. Resuming from
    /// the checkpoint ([`Executor::from_checkpoint`]) continues the trace
    /// bit-identically — same instructions, same branch outcomes, same
    /// memory addresses.
    pub fn checkpoint(&self) -> crate::ArchCheckpoint {
        crate::ArchCheckpoint {
            rng: self.rng.state(),
            pc: self.pc,
            seq: self.seq,
            hist: self.hist,
            hist_len: self.hist_len,
            cond_pattern_idx: self.cond_state.iter().map(|s| s.pattern_idx).collect(),
            cond_loop_remaining: self
                .cond_state
                .iter()
                .map(|s| s.loop_remaining.unwrap_or(u32::MAX))
                .collect(),
            indirect_idx: self.indirect_idx.clone(),
            call_stack: self.call_stack.clone(),
            exec_count: self.exec_count.clone(),
        }
    }

    /// Resumes an executor from a checkpoint over the *same* image the
    /// checkpoint was captured on.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint does not fit `image`
    /// ([`crate::ArchCheckpoint::fits`]: it was taken on a different
    /// program or layout). Callers restoring checkpoints from outside
    /// bytes check `fits` first.
    pub fn from_checkpoint(image: &'a CodeImage, cp: &crate::ArchCheckpoint) -> Self {
        if let Err(e) = cp.fits(image) {
            panic!("{e}");
        }
        let ctl = image.control();
        Executor {
            image,
            ctl,
            base: image.base(),
            n_slots: image.len_insts(),
            rng: SmallRng::from_state(cp.rng),
            pc: cp.pc,
            seq: cp.seq,
            cond_state: cp
                .cond_pattern_idx
                .iter()
                .zip(&cp.cond_loop_remaining)
                .map(|(&pattern_idx, &lr)| CondState {
                    pattern_idx,
                    loop_remaining: (lr != u32::MAX).then_some(lr),
                })
                .collect(),
            indirect_idx: cp.indirect_idx.clone(),
            call_stack: cp.call_stack.clone(),
            hist: cp.hist,
            hist_len: cp.hist_len,
            exec_count: cp.exec_count.clone(),
        }
    }

    fn eval_cond(&mut self, owner: sfetch_cfg::BlockId, ctl: CondCtl) -> bool {
        let st = &mut self.cond_state[owner.index()];
        let logical = match ctl {
            // Probabilities are pre-clamped by the control table.
            CondCtl::Bernoulli { p_taken } => self.rng.random::<f64>() < p_taken,
            CondCtl::Pattern { off, len } => {
                if len == 0 {
                    false
                } else {
                    // Invariant: pattern_idx < len, so no per-instance modulo.
                    let v = self.ctl.pattern_bits(off, len)[st.pattern_idx as usize];
                    st.pattern_idx = if st.pattern_idx + 1 == len { 0 } else { st.pattern_idx + 1 };
                    v
                }
            }
            CondCtl::Loop { trip } => {
                let remaining = match st.loop_remaining {
                    Some(r) => r,
                    None => sample_trip(&mut self.rng, trip),
                };
                if remaining > 1 {
                    st.loop_remaining = Some(remaining - 1);
                    true // stay in the loop: logical taken edge is the back-edge
                } else {
                    st.loop_remaining = None;
                    false
                }
            }
            CondCtl::Correlated { dist, invert, noise } => {
                let noisy = self.rng.random::<f64>() < noise;
                let base = if noisy || u32::from(dist) > self.hist_len {
                    self.rng.random_bool(0.5)
                } else {
                    self.hist >> (dist - 1) & 1 == 1
                };
                base ^ invert
            }
        };
        self.hist = self.hist << 1 | u16::from(logical);
        self.hist_len = (self.hist_len + 1).min(HIST_LEN);
        logical
    }

    fn pick_weighted(&mut self, items: &[(Addr, u64)], total: u64) -> Addr {
        let mut r = self.rng.random_range(0..total.max(1));
        for &(item, w) in items {
            if r < w {
                return item;
            }
            r -= w;
        }
        items.last().expect("non-empty weighted list").0
    }

    fn pick_indirect(&mut self, owner: sfetch_cfg::BlockId, ic: IndirectCtl) -> Addr {
        let cycle = self.ctl.cycle_of(ic);
        let targets = self.ctl.targets_of(ic);
        if cycle.is_empty() {
            self.pick_weighted(targets, ic.total_weight)
        } else {
            // Invariant: indirect_idx < cycle.len(); cycle entries are
            // pre-reduced to valid target slots by the control table.
            let idx = &mut self.indirect_idx[owner.index()];
            let slot = cycle[*idx as usize] as usize;
            *idx = if *idx as usize + 1 == cycle.len() { 0 } else { *idx + 1 };
            targets[slot].0
        }
    }

    /// Resolves one control slot: evaluates its behaviour model and
    /// updates the call stack, returning `(taken, target)`. The one place
    /// branch kinds are matched — the record walk ([`Iterator::next`]) and
    /// the state-only walk ([`Executor::advance`]) both resolve through it.
    #[inline]
    fn resolve(&mut self, attr: &ControlAttr) -> (bool, Addr) {
        use sfetch_isa::BranchKind as BK;
        if attr.is_fixup {
            return (true, attr.target.expect("fixup jumps are direct"));
        }
        let owner = attr.owner;
        match attr.kind {
            BK::Jump => (true, attr.target.expect("jumps are direct")),
            BK::Cond => {
                let ctl = self.ctl.cond_of(owner);
                let logical = self.eval_cond(owner, ctl);
                let physical = logical ^ attr.flipped;
                (physical, attr.target.expect("cond branches are direct"))
            }
            BK::Call => {
                self.call_stack.push(attr.fallthrough);
                (true, attr.target.expect("calls are direct"))
            }
            BK::IndirectCall => {
                let ic = self.ctl.indirect_of(owner);
                let entry = self.pick_indirect(owner, ic);
                self.call_stack.push(attr.fallthrough);
                (true, entry)
            }
            BK::Return => {
                // An empty stack means `main` returned; restart the
                // program (the generator's main never does, but
                // hand-built programs may).
                let t = self.call_stack.pop().unwrap_or_else(|| self.image.entry());
                (true, t)
            }
            BK::IndirectJump => {
                let ic = self.ctl.indirect_of(owner);
                (true, self.pick_indirect(owner, ic))
            }
        }
    }

    /// Slot of the current pc. The committed path only ever produces
    /// in-image, instruction-aligned pcs, so the alignment check of the
    /// general `slot_of` lookup is unnecessary here.
    #[inline]
    fn current_slot(&self) -> usize {
        let slot = self.pc.insts_since(self.base) as usize;
        assert!(slot < self.n_slots, "executor left the image at {}", self.pc);
        slot
    }

    /// Executes one instruction and advances the architectural state.
    fn step(&mut self) -> DynInst {
        let slot = self.current_slot();
        let ii = self.image.inst(slot);
        let pc = self.pc;

        let mem_addr = ii.inst.mem_pattern().map(|p| {
            let k = self.exec_count[slot];
            self.exec_count[slot] += 1;
            p.address(k)
        });

        let control = ii.control.map(|attr| {
            let (taken, target) = self.resolve(&attr);
            let next_pc = if taken { target } else { attr.fallthrough };
            DynControl { kind: attr.kind, taken, target, next_pc, is_fixup: attr.is_fixup }
        });

        self.pc = match control {
            Some(c) => c.next_pc,
            None => pc.next_inst(),
        };
        let rec = DynInst { seq: self.seq, pc, inst: ii.inst, mem_addr, control };
        self.seq += 1;
        rec
    }

    /// Moves the architectural state exactly `n` committed instructions
    /// forward without producing their records: afterwards the executor
    /// is in the state `n` calls to [`Iterator::next`] would leave it in
    /// (same [`Executor::checkpoint`], same trace from here on).
    ///
    /// The walk is block-granular. A straight-line run of slots with no
    /// control instruction is crossed in one step — `pc` and the commit
    /// count jump by the run length, and only the run's memory slots get
    /// their execution counts bumped, found by hopping between them via
    /// the image's [`sfetch_cfg::RunTable`]. Control slots resolve
    /// through the same code the record walk uses. This is the
    /// fast-forward for callers that throw the records away (checkpoint
    /// population); it costs a fraction of the record walk per
    /// instruction on programs whose runs are long.
    pub fn advance(&mut self, mut n: u64) {
        let runs = self.image.runs();
        while n > 0 {
            let slot = self.current_slot();
            let run = u64::from(runs.to_control(slot));
            // A control slot is crossed alone; a run up to its end or `n`.
            let k = if run == 0 { 1 } else { run.min(n) };
            let end = slot + k as usize;
            let mut s = slot + runs.to_memory(slot) as usize;
            while s < end {
                self.exec_count[s] += 1;
                s += 1 + runs.to_memory(s + 1) as usize;
            }
            self.pc = if run == 0 {
                let attr = self.image.inst(slot).control.expect("a run of zero is a control slot");
                let (taken, target) = self.resolve(&attr);
                if taken {
                    target
                } else {
                    attr.fallthrough
                }
            } else {
                self.pc.offset_insts(k)
            };
            self.seq += k;
            n -= k;
        }
    }
}

impl Iterator for Executor<'_> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        Some(self.step())
    }
}

/// Where a detailed core's reference stream comes from: a live
/// [`Executor`] (the classic one-core-one-walk shape) or a replayed
/// slice of pre-recorded [`DynInst`]s.
///
/// The replay variant is what lets a *batched* sampler walk the
/// functional stream **once** and feed N in-flight windows: the shared
/// walk records its instructions into a buffer, and each window's core
/// consumes the buffer through `Replay` instead of advancing its own
/// executor. An `Executor` yields a pure function of its checkpoint
/// state, so replaying the recorded sequence is bit-identical to
/// re-walking it — the batched/serial differential tests pin this.
#[derive(Debug, Clone)]
pub enum OracleSource<'a> {
    /// A live functional walk owned by this core.
    Live(Executor<'a>),
    /// A cursor over a shared pre-recorded instruction buffer.
    Replay {
        /// The recorded committed-path instructions.
        buf: &'a [DynInst],
        /// Next index to yield.
        idx: usize,
    },
}

impl<'a> OracleSource<'a> {
    /// Yields the next committed-path instruction.
    ///
    /// `Live` is infinite; `Replay` panics past the end of its buffer —
    /// the recorder sizes buffers with head-room for the core's fetch
    /// lookahead, so exhaustion is a recording bug, not a data
    /// condition, and must fail loudly rather than desynchronize.
    /// (Named `next_inst`, not `next`: the source is not an iterator —
    /// `Live` never ends and `Replay` treats exhaustion as a panic.)
    #[inline]
    pub fn next_inst(&mut self) -> Option<DynInst> {
        match self {
            OracleSource::Live(exec) => exec.next(),
            OracleSource::Replay { buf, idx } => {
                let d = *buf
                    .get(*idx)
                    .expect("replay oracle exhausted: recorded window buffer too short");
                *idx += 1;
                Some(d)
            }
        }
    }

    /// Address of the next instruction the source will yield.
    pub fn pc(&self) -> Addr {
        match self {
            OracleSource::Live(exec) => exec.pc(),
            OracleSource::Replay { buf, idx } => {
                buf.get(*idx).expect("replay oracle exhausted: empty remainder").pc
            }
        }
    }
}

/// Deterministic fingerprint of the architectural trace `(image, seed)`
/// yields: the image's static shape folded with the first `prefix`
/// committed instructions of the walk.
///
/// Two workloads that differ in *any* input to trace generation —
/// program structure, branch-behaviour models, layout (addresses), or
/// input seed — diverge in the committed path and therefore in this
/// fingerprint, which is what lets the `sfetch-sample` checkpoint store
/// key cached state on it: a checkpoint is only ever replayed against
/// the exact trace that produced it. The prefix walk costs microseconds
/// (a few ns per instruction) against the minutes of simulation the
/// store amortizes.
pub fn trace_fingerprint(image: &CodeImage, seed: u64, prefix: u64) -> u64 {
    let mut d = sfetch_tab::FnvHasher::default();
    d.write_u64(image.base().get());
    d.write_u64(image.entry().get());
    d.write_u64(image.len_insts() as u64);
    d.write_u64(seed);
    d.write_u64(prefix);
    for rec in Executor::from_image(image, seed).take(prefix as usize) {
        d.write_u64(rec.pc.get());
        match rec.control {
            Some(c) => {
                d.write_u64(1 | (u64::from(c.taken) << 1) | ((c.kind as u64) << 2));
                d.write_u64(c.next_pc.get());
            }
            None => d.write_u64(0),
        }
        if let Some(a) = rec.mem_addr {
            d.write_u64(a.get());
        }
    }
    d.finish()
}

fn sample_trip(rng: &mut SmallRng, trip: TripCount) -> u32 {
    match trip {
        TripCount::Fixed(n) => n.max(1),
        TripCount::Uniform { lo, hi } => {
            let lo = lo.max(1);
            let hi = hi.max(lo);
            rng.random_range(lo..=hi)
        }
        TripCount::Geometric { mean } => {
            let mean = f64::from(mean.max(1));
            let u: f64 = rng.random();
            let v = (1.0 - u).ln() / (1.0 - 1.0 / mean).ln();
            (v as u32).clamp(1, 1_000_000)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfetch_cfg::builder::CfgBuilder;
    use sfetch_cfg::gen::{GenParams, ProgramGenerator};
    use sfetch_cfg::{layout, CodeImage, CondBehavior};
    use sfetch_isa::BranchKind;

    fn loop_cfg(trip: u32) -> Cfg {
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let body = bld.add_block(f, 3);
        let exit = bld.add_block(f, 1);
        bld.set_cond(body, body, exit, CondBehavior::Loop { trip: TripCount::Fixed(trip) });
        bld.set_return(exit);
        bld.finish().expect("valid")
    }

    #[test]
    fn fixed_loop_runs_exact_trip_count() {
        let cfg = loop_cfg(5);
        let lay = layout::natural(&cfg);
        let img = CodeImage::build(&cfg, &lay);
        let mut exec = Executor::new(&cfg, &img, 0);
        // Count body executions before the first exit (branch not taken).
        let mut body_runs = 0;
        for d in &mut exec {
            if let Some(c) = d.control {
                if c.kind == BranchKind::Cond {
                    body_runs += 1;
                    if !c.taken {
                        break;
                    }
                }
            }
        }
        assert_eq!(body_runs, 5, "latch evaluated trip times, last one exits");
    }

    #[test]
    fn trace_is_deterministic() {
        let cfg = ProgramGenerator::new(GenParams::small(), 3).generate();
        let lay = layout::natural(&cfg);
        let img = CodeImage::build(&cfg, &lay);
        let a: Vec<_> = Executor::new(&cfg, &img, 11).take(5000).collect();
        let b: Vec<_> = Executor::new(&cfg, &img, 11).take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn from_image_matches_new() {
        let cfg = ProgramGenerator::new(GenParams::small(), 3).generate();
        let lay = layout::natural(&cfg);
        let img = CodeImage::build(&cfg, &lay);
        let a: Vec<_> = Executor::new(&cfg, &img, 11).take(5000).collect();
        let b: Vec<_> = Executor::from_image(&img, 11).take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let cfg = ProgramGenerator::new(GenParams::small(), 3).generate();
        let lay = layout::natural(&cfg);
        let img = CodeImage::build(&cfg, &lay);
        let a: Vec<_> = Executor::new(&cfg, &img, 1).take(5000).collect();
        let b: Vec<_> = Executor::new(&cfg, &img, 2).take(5000).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn control_flow_is_consistent() {
        // Every committed instruction's pc must equal the previous one's
        // next_pc.
        let cfg = ProgramGenerator::new(GenParams::small(), 8).generate();
        let lay = layout::natural(&cfg);
        let img = CodeImage::build(&cfg, &lay);
        let trace: Vec<_> = Executor::new(&cfg, &img, 9).take(20_000).collect();
        for w in trace.windows(2) {
            assert_eq!(w[1].pc, w[0].next_pc(), "discontinuity at seq {}", w[0].seq);
        }
    }

    #[test]
    fn returns_match_calls() {
        let cfg = ProgramGenerator::new(GenParams::small(), 4).generate();
        let lay = layout::natural(&cfg);
        let img = CodeImage::build(&cfg, &lay);
        let mut exec = Executor::new(&cfg, &img, 5);
        let mut stack: Vec<Addr> = Vec::new();
        for d in (&mut exec).take(50_000) {
            if let Some(c) = d.control {
                match c.kind {
                    BranchKind::Call | BranchKind::IndirectCall if !c.is_fixup => {
                        stack.push(d.pc.next_inst());
                    }
                    BranchKind::Return => {
                        if let Some(expect) = stack.pop() {
                            assert_eq!(c.target, expect, "return to wrong address");
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn executor_works_under_optimized_layout() {
        let cfg = ProgramGenerator::new(GenParams::small(), 6).generate();
        let prof = sfetch_cfg::EdgeProfile::from_expected(&cfg);
        let lay = layout::pettis_hansen(&cfg, &prof);
        let img = CodeImage::build(&cfg, &lay);
        let trace: Vec<_> = Executor::new(&cfg, &img, 9).take(20_000).collect();
        for w in trace.windows(2) {
            assert_eq!(w[1].pc, w[0].next_pc());
        }
    }

    #[test]
    fn optimized_layout_reduces_taken_ratio() {
        // The central phenomenon the paper exploits: layout optimization
        // aligns branches towards not-taken.
        let cfg = ProgramGenerator::new(GenParams::default_int(), 42).generate();
        let taken_ratio = |lay: &layout::Layout| -> f64 {
            let img = CodeImage::build(&cfg, lay);
            let mut taken = 0u64;
            let mut total = 0u64;
            for d in Executor::new(&cfg, &img, 77).take(200_000) {
                if let Some(c) = d.control {
                    if c.kind == BranchKind::Cond {
                        total += 1;
                        taken += u64::from(c.taken);
                    }
                }
            }
            taken as f64 / total as f64
        };
        let base = taken_ratio(&layout::natural(&cfg));
        let prof = sfetch_cfg::EdgeProfile::from_expected(&cfg);
        let opt = taken_ratio(&layout::pettis_hansen(&cfg, &prof));
        assert!(
            opt + 0.05 < base,
            "optimized layout should reduce taken conditionals: base={base:.3} opt={opt:.3}"
        );
    }

    #[test]
    fn mem_addresses_follow_patterns() {
        use sfetch_isa::{InstClass, MemPattern, StaticInst};
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let ld = StaticInst::memory(
            InstClass::Load,
            MemPattern::new(Addr::new(0x9000), 8, 4),
            sfetch_isa::DepDistance::NONE,
        );
        let body = bld.add_block_with(f, vec![ld]);
        let exit = bld.add_block(f, 1);
        bld.set_cond(
            body,
            body,
            exit,
            CondBehavior::Loop { trip: TripCount::Fixed(10) },
        );
        bld.set_return(exit);
        let cfg = bld.finish().expect("valid");
        let lay = layout::natural(&cfg);
        let img = CodeImage::build(&cfg, &lay);
        let addrs: Vec<Addr> = Executor::new(&cfg, &img, 0)
            .take(40)
            .filter_map(|d| d.mem_addr)
            .collect();
        assert!(addrs.len() >= 8);
        assert_eq!(addrs[0], Addr::new(0x9000));
        assert_eq!(addrs[1], Addr::new(0x9008));
        assert_eq!(addrs[4], Addr::new(0x9000), "span 4 wraps");
    }
}
