//! The **stream fetch engine** (§3, Fig. 4) — the paper's contribution.
//!
//! Pipeline: the *next stream predictor* emits one fetch request per cycle
//! into the FTQ; the I-cache stage consumes the head request one wide line
//! at a time, updating the request in place (Fig. 6). On a predictor miss
//! the engine falls back to sequential fetching (one line per request)
//! until the predictor hits again or a misprediction redirects fetch
//! (§3.2). After a misprediction the front-end resumes at the recovery
//! point — a *partial stream* — with no rollback (§1).

use sfetch_cfg::CodeImage;
use sfetch_isa::{Addr, BranchKind};
use sfetch_mem::MemoryHierarchy;
use sfetch_predictors::{
    NextStreamPredictor, Ras, StreamPredictorConfig, StreamUpdate,
};
use sfetch_prefetch::PrefetchConfig;

use crate::bundle::{Checkpoint, CommittedInst, FetchedInst, ResolvedBranch};
use crate::decoupled::DecoupledFront;
use crate::engine::{warm_reader, warm_writer, FetchEngine, FetchEngineStats};
use crate::ftq::FetchRequest;

/// One open (still accumulating) stream on the commit side.
///
/// Several streams can be open at once: the stream begun at the last taken
/// branch, plus a *partial stream* for every misprediction recovery inside
/// it (§1). They all close at the next committed taken branch and all train
/// the predictor — this is what lets a predicted-taken terminator that fell
/// through be corrected by the longer observed stream, while the partial
/// stream entry serves the front-end's post-recovery lookups.
#[derive(Debug, Clone, Copy)]
struct OpenStream {
    start: Addr,
    len: u32,
    mispredicted: bool,
}

/// Maximum simultaneously-open streams (nested recoveries are rare).
const MAX_OPEN: usize = 6;

/// The stream fetch engine.
///
/// ```
/// use sfetch_fetch::{StreamEngine, FetchEngine};
/// use sfetch_isa::Addr;
///
/// let eng = StreamEngine::table2(8, Addr::new(0x40_0000));
/// assert_eq!(eng.name(), "streams");
/// assert_eq!(eng.width(), 8);
/// ```
#[derive(Debug)]
pub struct StreamEngine {
    front: DecoupledFront,
    pred: NextStreamPredictor,
    ras: Ras,
    max_stream: u32,
    open: Vec<OpenStream>,
    stats: FetchEngineStats,
}

impl StreamEngine {
    /// Builds the engine with the Table 2 configuration.
    pub fn table2(width: usize, entry: Addr) -> Self {
        Self::new(width, entry, StreamPredictorConfig::table2(), 4, 8)
    }

    /// Builds the engine with explicit predictor/FTQ/RAS parameters (used by
    /// ablation benches).
    pub fn new(
        width: usize,
        entry: Addr,
        pred_config: StreamPredictorConfig,
        ftq_entries: usize,
        ras_entries: usize,
    ) -> Self {
        let max_stream = pred_config.max_len;
        StreamEngine {
            front: DecoupledFront::new(width, entry, ftq_entries),
            pred: NextStreamPredictor::new(pred_config),
            ras: Ras::new(ras_entries),
            max_stream,
            open: Vec::with_capacity(MAX_OPEN),
            stats: FetchEngineStats::default(),
        }
    }

    /// Attaches an I-cache prefetch configuration (builder-style).
    pub fn with_prefetch(mut self, pf: &PrefetchConfig) -> Self {
        self.front.set_prefetch(pf);
        self
    }

    /// Whether a front-end tracking this engine's predictor state would
    /// have mispredicted the committing branch `c` — evaluated against
    /// the *retired*-path probe of the cascade (the speculative register
    /// tracks the retired one in steady state). Used only by functional
    /// warming to synthesize misprediction bits.
    fn would_mispredict(&self, c: &crate::bundle::CommittedControl) -> bool {
        let Some(o) = self.open.first() else {
            // No open stream yet (cold start): the sequential fallback
            // fetches not-taken paths, so any taken branch redirects.
            return c.taken;
        };
        // Stream length including this branch, as commit() will count it.
        let would_len = o.len + 1;
        match self.pred.probe_retired(o.start) {
            Some(p) => {
                let terminates = p.kind.is_some() && p.len == would_len;
                if c.taken {
                    // Correct iff the stream was predicted to end at this
                    // instruction toward the right target (returns resolve
                    // through the RAS and are assumed repaired).
                    !(terminates && (p.kind == Some(BranchKind::Return) || p.next == c.next_pc))
                } else {
                    // Fell through: wrong iff predicted to terminate here.
                    terminates
                }
            }
            // Predictor miss: sequential fallback predicts not-taken.
            None => c.taken,
        }
    }

    /// The underlying next stream predictor (for inspection in tests and
    /// ablation reports).
    pub fn predictor(&self) -> &NextStreamPredictor {
        &self.pred
    }

    /// Prediction stage: one lookup per cycle when the FTQ has space.
    fn prediction_stage(&mut self, line_bytes: u64) {
        let Some(start) = self.front.next_lookup() else { return };
        self.stats.predictor_lookups += 1;
        let prediction = self.pred.predict(start);
        // The request start enters the speculative path register whether
        // predicted or fallback — mirroring the commit-side update register.
        self.pred.notify_fetch(start);
        let path = self.pred.snapshot();
        let ras_pre = self.ras.snapshot();
        let Some(p) = prediction else {
            // Sequential fallback: request the rest of the current
            // cache line; retry the predictor at the next line (§3.2).
            self.front.push_sequential(line_bytes, Checkpoint { ghist: 0, path, ras: ras_pre });
            return;
        };
        self.stats.predictor_hits += 1;
        // Cap-split streams continue sequentially by construction.
        let mut next = if p.kind.is_none() { start.offset_insts(u64::from(p.len)) } else { p.next };
        match p.kind {
            Some(BranchKind::Call) | Some(BranchKind::IndirectCall) => {
                // Return address: the instruction after the stream.
                self.ras.push(start.offset_insts(u64::from(p.len)));
            }
            Some(BranchKind::Return) => {
                next = self.ras.pop();
            }
            _ => {}
        }
        let ras_post = self.ras.snapshot();
        self.front.push(FetchRequest {
            start,
            cur: start,
            remaining: p.len,
            term: p.kind,
            // Streams end at taken branches by construction.
            taken: true,
            next,
            predicted: true,
            cp_embedded: Checkpoint { ghist: 0, path, ras: ras_pre },
            cp_term: Checkpoint { ghist: 0, path, ras: ras_post },
        });
    }
}

impl FetchEngine for StreamEngine {
    fn name(&self) -> &'static str {
        "streams"
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
        // The prediction stage keeps running while the I-cache waits — the
        // decoupling the FTQ provides (§3.3) — and the prefetcher runs
        // ahead of fetch over everything the FTQ already names.
        self.prediction_stage(mem.l1i_line_bytes());
        self.front.cycle(now, image, mem, &mut self.stats, out);
    }

    fn redirect(&mut self, now: u64, target: Addr, cp: &Checkpoint, _resolved: &ResolvedBranch) {
        self.front.redirect(now, target);
        self.pred.restore(cp.path);
        self.ras.restore(cp.ras);
    }

    fn commit(&mut self, ci: &CommittedInst) {
        if self.open.is_empty() {
            self.open.push(OpenStream { start: ci.pc, len: 0, mispredicted: false });
        }
        for o in &mut self.open {
            o.len += 1;
        }
        let taken = ci.control.is_some_and(|c| c.taken);
        if taken {
            // The taken branch closes every open stream — the original and
            // any partial streams opened at recoveries inside it. Training
            // and path pushes interleave oldest-first, mirroring the order
            // the speculative side issued the corresponding requests.
            let c = ci.control.expect("taken implies control");
            let mispredicted_here = ci.mispredicted;
            for o in std::mem::take(&mut self.open) {
                self.pred.train(StreamUpdate {
                    start: o.start,
                    len: o.len,
                    kind: Some(c.kind),
                    next: c.next_pc,
                    mispredicted: o.mispredicted || mispredicted_here,
                });
                self.pred.notify_retire(o.start);
            }
            self.open.push(OpenStream { start: c.next_pc, len: 0, mispredicted: false });
            return;
        }
        if ci.mispredicted {
            // A predicted-taken terminator fell through (or a misfetch was
            // repaired): the open streams keep accumulating — the longer
            // observed stream will correct the stale entry — and a *partial
            // stream* opens at the recovery point for the front-end's
            // post-recovery lookups (§1).
            for o in &mut self.open {
                o.mispredicted = true;
            }
            if self.open.len() < MAX_OPEN {
                self.open.push(OpenStream {
                    start: ci.next_pc(),
                    len: 0,
                    mispredicted: false,
                });
            }
            return;
        }
        // Length cap: close oversized opens as sequential splits (bounded
        // length field), opening their continuations.
        if self.open.first().is_some_and(|o| o.len >= self.max_stream) {
            let next = ci.next_pc();
            let max = self.max_stream;
            let mut continued = false;
            let mut rest = Vec::with_capacity(self.open.len());
            for o in std::mem::take(&mut self.open) {
                if o.len >= max {
                    self.pred.train(StreamUpdate {
                        start: o.start,
                        len: o.len,
                        kind: None,
                        next,
                        mispredicted: o.mispredicted,
                    });
                    self.pred.notify_retire(o.start);
                    continued = true;
                } else {
                    rest.push(o);
                }
            }
            self.open = rest;
            if continued && self.open.len() < MAX_OPEN {
                self.open.push(OpenStream { start: next, len: 0, mispredicted: false });
            }
        }
    }

    /// Self-checking functional warming: the sampler cannot know which
    /// instructions a real front-end would have mispredicted (no timing
    /// model runs during fast-forward), but the engine can — by probing
    /// its own predictor under the retired path before each branch
    /// commits. The synthesized `mispredicted` bits then drive the normal
    /// commit logic, which opens *partial streams* at exactly the
    /// recovery points a real run trains (§1). Without this, warmed
    /// predictors lack every partial-stream entry and post-recovery
    /// lookups all miss — measured as a double-digit IPC underestimate
    /// in sampled windows.
    fn warm_block(&mut self, cis: &[CommittedInst]) {
        for ci in cis {
            let mut ci = *ci;
            if let Some(c) = ci.control {
                ci.mispredicted = self.would_mispredict(&c);
            }
            self.commit(&ci);
        }
    }

    fn stall_probe(&self) -> crate::StallCause {
        self.front.stall_probe()
    }

    fn warm_state(&self) -> Vec<u8> {
        let mut w = warm_writer();
        self.pred.save_wire(&mut w);
        self.ras.save_wire(&mut w);
        w.u64(self.open.len() as u64);
        for s in &self.open {
            let OpenStream { start, len, mispredicted } = s;
            w.addr(*start);
            w.u32(*len);
            w.bool(*mispredicted);
        }
        self.stats.save_wire(&mut w);
        w.into_bytes()
    }

    fn load_warm_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = warm_reader(bytes)?;
        self.pred.load_wire(&mut r)?;
        self.ras.load_wire(&mut r)?;
        let n = r.u64()? as usize;
        if n > MAX_OPEN {
            return Err(format!("{n} open streams exceeds the engine cap {MAX_OPEN}"));
        }
        self.open.clear();
        for _ in 0..n {
            self.open.push(OpenStream {
                start: r.addr()?,
                len: r.u32()?,
                mispredicted: r.bool()?,
            });
        }
        self.stats = FetchEngineStats::load_wire(&mut r)?;
        r.finish()
    }

    fn stats(&self) -> FetchEngineStats {
        let mut s = self.stats;
        let ps = self.pred.stats();
        s.predictor_lookups = ps.lookups;
        s.predictor_hits = ps.hits_first + ps.hits_second;
        s
    }

    fn storage_bits(&self) -> u64 {
        self.pred.storage_bits() + self.ras.storage_bits() + self.front.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfetch_cfg::builder::CfgBuilder;
    use sfetch_cfg::{layout, CondBehavior, TripCount};
    use sfetch_mem::{MemoryConfig, MemoryHierarchy};

    fn setup() -> (sfetch_cfg::Cfg, CodeImage) {
        // A simple hot loop: body of 10 insts + latch, trip 100.
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let body = bld.add_block(f, 10);
        let exit = bld.add_block(f, 1);
        bld.set_cond(body, body, exit, CondBehavior::Loop { trip: TripCount::Fixed(1 << 30) });
        bld.set_return(exit);
        let cfg = bld.finish().expect("valid");
        let img = CodeImage::build(&cfg, &layout::natural(&cfg));
        (cfg, img)
    }

    #[test]
    fn cold_start_uses_sequential_fallback() {
        let (_cfg, img) = setup();
        let mut mem = MemoryHierarchy::new(MemoryConfig::table2(8));
        let mut eng = StreamEngine::table2(8, img.entry());
        let mut out = Vec::new();
        // Cycle 0: icache cold miss -> nothing delivered.
        eng.cycle(0, &img, &mut mem, &mut out);
        assert!(out.is_empty(), "cold icache miss stalls delivery");
        // After the miss latency, instructions arrive.
        let mut t = 1;
        while out.is_empty() && t < 200 {
            eng.cycle(t, &img, &mut mem, &mut out);
            t += 1;
        }
        assert!(!out.is_empty(), "fallback fetch must deliver");
        assert_eq!(out[0].pc, img.entry());
        // Fallback requests carry implicit-NT predictions on branches.
        let br = out.iter().find(|f| f.inst.is_branch());
        if let Some(b) = br {
            assert!(!b.pred.expect("branch has pred").taken);
        }
    }

    #[test]
    fn trained_predictor_issues_full_stream_requests() {
        let (_cfg, img) = setup();
        let mut mem = MemoryHierarchy::new(MemoryConfig::table2(8));
        let mut eng = StreamEngine::table2(8, img.entry());
        // Train: the loop stream is (entry, 11 insts, cond, -> entry).
        for _ in 0..4 {
            for i in 0..10u64 {
                eng.commit(&CommittedInst {
                    pc: img.entry().offset_insts(i),
                    control: None,
                    mispredicted: false,
                });
            }
            eng.commit(&CommittedInst {
                pc: img.entry().offset_insts(10),
                control: Some(crate::bundle::CommittedControl {
                    kind: BranchKind::Cond,
                    taken: true,
                    target: img.entry(),
                    next_pc: img.entry(),
                    is_fixup: false,
                }),
                mispredicted: false,
            });
        }
        // Now fetch: once warm, the engine should deliver the whole loop
        // body as one stream and chain to itself.
        let mut out = Vec::new();
        for t in 0..400 {
            eng.cycle(t, &img, &mut mem, &mut out);
        }
        let stats = eng.stats();
        assert!(stats.predictor_hits > 0, "predictor must hit after training");
        // The terminator must be predicted taken back to the entry.
        let term = out
            .iter()
            .find(|f| f.pc == img.entry().offset_insts(10) && f.pred.is_some())
            .expect("terminator fetched");
        let p = term.pred.expect("pred");
        assert!(p.taken);
        assert_eq!(p.target, img.entry());
        // Fetch units should average ~11 instructions (the whole stream).
        assert!(stats.mean_unit_len() > 8.0, "stream units span the loop body");
    }

    #[test]
    fn redirect_restores_and_resumes() {
        let (_cfg, img) = setup();
        let mut mem = MemoryHierarchy::new(MemoryConfig::table2(8));
        let mut eng = StreamEngine::table2(8, img.entry());
        let mut out = Vec::new();
        // Enough cycles to ride out the cold I-cache miss (1+15+100).
        for t in 0..200 {
            eng.cycle(t, &img, &mut mem, &mut out);
        }
        let cp = out.last().expect("delivered").cp;
        out.clear();
        let target = img.entry().offset_insts(5);
        eng.redirect(
            200,
            target,
            &cp,
            &ResolvedBranch { pc: img.entry(), kind: Some(BranchKind::Cond), taken: true, target },
        );
        // Next deliveries start at the redirect target (partial stream).
        let mut t = 201;
        while out.is_empty() && t < 500 {
            eng.cycle(t, &img, &mut mem, &mut out);
            t += 1;
        }
        assert_eq!(out[0].pc, target, "fetch resumes at the recovery point");
    }

    #[test]
    fn commit_splits_long_sequential_runs() {
        let (_cfg, img) = setup();
        let mut eng = StreamEngine::table2(8, img.entry());
        // Commit 200 straight-line instructions (pretend): builder must
        // split at max_stream and train sequential continuations.
        for i in 0..200u64 {
            eng.commit(&CommittedInst {
                pc: img.entry().offset_insts(i),
                control: None,
                mispredicted: false,
            });
        }
        let pred = eng.pred.predict(img.entry());
        assert!(pred.is_some(), "cap-split streams are stored");
        let p = pred.expect("hit");
        assert_eq!(p.kind, None);
        assert_eq!(p.len, eng.max_stream);
    }

    #[test]
    fn mispredicted_fallthrough_starts_partial_stream() {
        let (_cfg, img) = setup();
        let mut eng = StreamEngine::table2(8, img.entry());
        // Commit: 3 insts, then a mispredicted NOT-taken branch.
        for i in 0..3u64 {
            eng.commit(&CommittedInst {
                pc: img.entry().offset_insts(i),
                control: None,
                mispredicted: false,
            });
        }
        eng.commit(&CommittedInst {
            pc: img.entry().offset_insts(3),
            control: Some(crate::bundle::CommittedControl {
                kind: BranchKind::Cond,
                taken: false,
                target: Addr::new(0x40_2000),
                next_pc: img.entry().offset_insts(4),
                is_fixup: false,
            }),
            mispredicted: true,
        });
        // The builder restarted at pc+4: commit a taken branch and check the
        // trained stream starts at the partial-stream point.
        eng.commit(&CommittedInst {
            pc: img.entry().offset_insts(4),
            control: Some(crate::bundle::CommittedControl {
                kind: BranchKind::Jump,
                taken: true,
                target: img.entry(),
                next_pc: img.entry(),
                is_fixup: false,
            }),
            mispredicted: false,
        });
        let p = eng.pred.predict(img.entry().offset_insts(4)).expect("partial stream trained");
        assert_eq!(p.len, 1);
        assert_eq!(p.kind, Some(BranchKind::Jump));
    }
}
