//! The fetch-engine interface shared by the four front-ends.

use sfetch_cfg::CodeImage;
use sfetch_isa::wire::{WireReader, WireWriter};
use sfetch_isa::Addr;
use sfetch_mem::MemoryHierarchy;

use crate::bundle::{Checkpoint, CommittedInst, FetchedInst, ResolvedBranch};

/// Version tag embedded in every engine warm-state payload. Bump whenever
/// any engine's warm-state wire layout changes; stale banked entries are
/// then rejected at load and recomputed.
pub const WARM_FORMAT_VERSION: u32 = 1;

/// Aggregate fetch-engine statistics (engine-agnostic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchEngineStats {
    /// Prediction-structure lookups (stream/trace/FTB/BTB-group lookups).
    pub predictor_lookups: u64,
    /// Lookups that hit.
    pub predictor_hits: u64,
    /// Completed fetch units (streams / fetch blocks / traces / EV8 groups).
    pub units: u64,
    /// Total instructions across completed fetch units — `unit_insts /
    /// units` is Table 1's "size (inst.)" column.
    pub unit_insts: u64,
    /// Trace-cache hits (trace cache engine only).
    pub tc_hits: u64,
    /// Trace-cache misses (trace cache engine only).
    pub tc_misses: u64,
    /// Cycles spent stalled on I-cache misses.
    pub icache_stall_cycles: u64,
    /// Demand-miss stall cycles served by the L2 (subset of
    /// `icache_stall_cycles`).
    pub stall_l2_cycles: u64,
    /// Demand-miss stall cycles served by memory (subset of
    /// `icache_stall_cycles`).
    pub stall_mem_cycles: u64,
    /// Cycles a demand miss could not start its fill for want of a free
    /// MSHR (non-blocking miss pipeline only).
    pub stall_mshr_cycles: u64,
    /// Branch-structure entries pre-installed by decode-time shadow-branch
    /// discovery ([`crate::front::FrontPipeline::shadow_decode`]): direct
    /// unconditional branches found in the fetched-but-unconsumed
    /// remainder of a line/fetch group. Zero when shadow decode is off.
    pub shadow_installs: u64,
}

impl FetchEngineStats {
    /// Mean fetch-unit size in instructions.
    pub fn mean_unit_len(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.unit_insts as f64 / self.units as f64
        }
    }

    /// Serializes the counters (exhaustive: adding a field breaks this).
    pub fn save_wire(&self, w: &mut WireWriter) {
        let Self {
            predictor_lookups,
            predictor_hits,
            units,
            unit_insts,
            tc_hits,
            tc_misses,
            icache_stall_cycles,
            stall_l2_cycles,
            stall_mem_cycles,
            stall_mshr_cycles,
            shadow_installs,
        } = self;
        for v in [
            predictor_lookups,
            predictor_hits,
            units,
            unit_insts,
            tc_hits,
            tc_misses,
            icache_stall_cycles,
            stall_l2_cycles,
            stall_mem_cycles,
            stall_mshr_cycles,
            shadow_installs,
        ] {
            w.u64(*v);
        }
    }

    /// Deserializes counters written by [`FetchEngineStats::save_wire`].
    pub fn load_wire(r: &mut WireReader<'_>) -> Result<Self, String> {
        Ok(Self {
            predictor_lookups: r.u64()?,
            predictor_hits: r.u64()?,
            units: r.u64()?,
            unit_insts: r.u64()?,
            tc_hits: r.u64()?,
            tc_misses: r.u64()?,
            icache_stall_cycles: r.u64()?,
            stall_l2_cycles: r.u64()?,
            stall_mem_cycles: r.u64()?,
            stall_mshr_cycles: r.u64()?,
            shadow_installs: r.u64()?,
        })
    }
}

/// A cycle-accurate instruction fetch front-end.
///
/// The processor drives the engine with one [`FetchEngine::cycle`] call per
/// clock; the engine delivers up to its width of [`FetchedInst`]s, fetching
/// *its own predicted path* through the [`CodeImage`] — including wrong
/// paths. The processor verifies the delivered instructions against the
/// architectural executor and calls [`FetchEngine::redirect`] on recovery
/// and [`FetchEngine::commit`] for every retired instruction.
pub trait FetchEngine {
    /// Engine name for reports ("streams", "ev8", "ftb", "tcache").
    fn name(&self) -> &'static str;

    /// Pipeline width (max instructions delivered per cycle).
    fn width(&self) -> usize;

    /// Runs one fetch cycle at time `now`, appending delivered instructions
    /// to `out` (at most `width()`); may deliver none while stalled on an
    /// I-cache miss or after running off the image on a wrong path.
    fn cycle(
        &mut self,
        now: u64,
        image: &CodeImage,
        mem: &mut MemoryHierarchy,
        out: &mut Vec<FetchedInst>,
    );

    /// Redirects fetch to `target`, restoring speculative state from `cp`
    /// and folding in the resolved outcome. Called for execute-time
    /// misprediction recoveries and decode-time misfetches alike.
    fn redirect(&mut self, now: u64, target: Addr, cp: &Checkpoint, resolved: &ResolvedBranch);

    /// Reports one committed (retired) instruction for table training and
    /// retired-history maintenance. Called in program order.
    fn commit(&mut self, ci: &CommittedInst);

    /// Reports one commit group (all instructions retired in one cycle) in
    /// program order. The processor's commit stage calls this once per
    /// cycle instead of [`FetchEngine::commit`] once per instruction:
    /// default trait methods are instantiated per engine type, so the
    /// inner `commit` calls dispatch statically — one virtual call per
    /// group instead of one per instruction on the commit hot path.
    fn commit_block(&mut self, cis: &[CommittedInst]) {
        for ci in cis {
            self.commit(ci);
        }
    }

    /// Functional-warming path: trains the engine's commit-side structures
    /// from a block of architecturally committed instructions **without**
    /// a timing model driving it. Sampled simulation's fast-forward mode
    /// calls this so predictor tables and histories reach each detailed
    /// window warm. The default routes through [`FetchEngine::commit_block`]
    /// — commit-side training is already timing-free — with the caveat
    /// that warming records carry `mispredicted: false` (no front-end ran,
    /// so no redirects were observed).
    fn warm_block(&mut self, cis: &[CommittedInst]) {
        self.commit_block(cis);
    }

    /// Serializes the engine's *commit-side* warm state — predictor
    /// tables, histories, fill/builder units and statistics, exactly the
    /// structures [`FetchEngine::warm_block`] mutates. Fetch-side cursors
    /// (FTQ, I-cache port, in-flight deliveries) are excluded: they are
    /// factory-fresh after warming and rebuilt by the post-warm resync
    /// redirect. Every engine banks its warm state.
    ///
    /// The commit-side state depends only on the engine kind and the
    /// committed records it was fed — never on `width`, the
    /// [`sfetch_prefetch::PrefetchConfig`] or the
    /// [`crate::front::FrontPipeline`]: `commit`, `commit_block` and
    /// `warm_block` must not read them. The batched sampling sweep relies
    /// on it: it warms one engine per kind and restores every other
    /// configuration of that kind from these bytes.
    /// `tests/tests/warm_state.rs` pins it for every kind.
    fn warm_state(&self) -> Vec<u8>;

    /// Restores warm state captured by [`FetchEngine::warm_state`] into a
    /// freshly built engine of the *same* kind, at any width, prefetch
    /// configuration or front pipeline. Any mismatch
    /// (geometry, version, trailing bytes) is an error — callers treat a
    /// failed load as a cache miss and rewarm from scratch.
    fn load_warm_state(&mut self, bytes: &[u8]) -> Result<(), String>;

    /// Why the engine delivered nothing during the *current* cycle (the
    /// most recent [`FetchEngine::cycle`] call):
    /// [`crate::StallCause::None`] when it delivered, was never asked, or
    /// simply had no fetch unit to consume. The processor's top-down
    /// cycle classifier probes this on empty fetch cycles; the default
    /// suits engines without an I-cache port.
    fn stall_probe(&self) -> crate::StallCause {
        crate::StallCause::None
    }

    /// Engine statistics.
    fn stats(&self) -> FetchEngineStats;

    /// Estimated storage cost of all prediction/fetch structures in bits
    /// (Table 1's cost column). Excludes the shared L1 I-cache.
    fn storage_bits(&self) -> u64;
}

/// Selector for constructing engines generically (used by the harness and
/// the processor builder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The stream fetch architecture (the paper's contribution).
    Stream,
    /// Alpha EV8 fetch + 2bcgskew.
    Ev8,
    /// FTB fetch + perceptron.
    Ftb,
    /// Trace cache + next trace predictor.
    TraceCache,
}

impl EngineKind {
    /// All four engines, in the paper's presentation order.
    pub const ALL: [EngineKind; 4] =
        [EngineKind::Ev8, EngineKind::Ftb, EngineKind::Stream, EngineKind::TraceCache];

    /// Builds the engine with its Table 2 configuration for the given
    /// pipeline width, starting fetch at `entry` (no prefetcher).
    pub fn build(self, width: usize, entry: Addr) -> Box<dyn FetchEngine> {
        self.build_with_prefetch(width, entry, &sfetch_prefetch::PrefetchConfig::none())
    }

    /// Builds the engine with an I-cache prefetch configuration attached.
    /// `PrefetchConfig::none()` is identical to [`EngineKind::build`].
    /// Uses the neutral [`crate::front::FrontPipeline::legacy`] front
    /// pipeline (shadow-branch discovery off).
    pub fn build_with_prefetch(
        self,
        width: usize,
        entry: Addr,
        pf: &sfetch_prefetch::PrefetchConfig,
    ) -> Box<dyn FetchEngine> {
        self.build_for(width, entry, pf, &crate::front::FrontPipeline::legacy())
    }

    /// Builds the engine with a prefetch configuration and a front-pipeline
    /// model. The [`crate::front::FrontPipeline`]'s timing knobs (depth,
    /// redirect penalty, misfetch bubble) live in the processor; the
    /// engine itself consumes only the shadow-branch-discovery switch.
    pub fn build_for(
        self,
        width: usize,
        entry: Addr,
        pf: &sfetch_prefetch::PrefetchConfig,
        front: &crate::front::FrontPipeline,
    ) -> Box<dyn FetchEngine> {
        match self {
            EngineKind::Stream => {
                // Streams end at taken branches by construction, so there is
                // no shadow region to mine — the stream engine has no
                // shadow-decode hook.
                Box::new(crate::stream::StreamEngine::table2(width, entry).with_prefetch(pf))
            }
            EngineKind::Ev8 => Box::new(
                crate::ev8::Ev8Engine::table2(width, entry).with_prefetch(pf).with_front(front),
            ),
            EngineKind::Ftb => Box::new(
                crate::ftb_engine::FtbEngine::table2(width, entry)
                    .with_prefetch(pf)
                    .with_front(front),
            ),
            EngineKind::TraceCache => Box::new(
                crate::trace_cache::TraceCacheEngine::table2(width, entry)
                    .with_prefetch(pf)
                    .with_front(front),
            ),
        }
    }

    /// The prefetch policy each engine's lookahead structure supports
    /// best: the decoupled front-ends (stream, FTB) direct prefetch from
    /// their FTQ + next-unit prediction; EV8 has no lookahead beyond the
    /// fetch cursor (next-line); the trace cache's misses are what the
    /// MANA-style record prefetcher is built for.
    pub fn natural_prefetch(self) -> sfetch_prefetch::PrefetchKind {
        match self {
            EngineKind::Stream | EngineKind::Ftb => sfetch_prefetch::PrefetchKind::StreamDirected,
            EngineKind::Ev8 => sfetch_prefetch::PrefetchKind::NextLine,
            EngineKind::TraceCache => sfetch_prefetch::PrefetchKind::Mana,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Stream => f.write_str("Streams"),
            EngineKind::Ev8 => f.write_str("EV8+2bcgskew"),
            EngineKind::Ftb => f.write_str("FTB+perceptron"),
            EngineKind::TraceCache => f.write_str("Tcache+Tpred"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_unit_len_handles_zero() {
        assert_eq!(FetchEngineStats::default().mean_unit_len(), 0.0);
        let s = FetchEngineStats { units: 4, unit_insts: 40, ..Default::default() };
        assert_eq!(s.mean_unit_len(), 10.0);
    }

    #[test]
    fn kind_display_matches_paper_labels() {
        assert_eq!(EngineKind::Stream.to_string(), "Streams");
        assert_eq!(EngineKind::Ev8.to_string(), "EV8+2bcgskew");
        assert_eq!(EngineKind::ALL.len(), 4);
    }
}
