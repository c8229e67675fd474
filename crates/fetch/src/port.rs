//! The engine-side I-cache port: one demand-fetch path shared by every
//! front-end, plus the prefetch probe issue stage.
//!
//! With no prefetch configuration the port reproduces the legacy blocking
//! I-cache protocol **exactly** — the same `inst_fetch` calls in the same
//! order with the same stall arithmetic — so the `PrefetchKind::None`
//! configuration stays bit-identical to the pre-prefetch simulator. With
//! the miss pipeline enabled, demand misses wait on their MSHR fill while
//! the engine's prediction stage and the prefetcher keep running.

use sfetch_isa::Addr;
use sfetch_mem::{InstDemand, MemoryHierarchy};
use sfetch_prefetch::{Lookahead, PrefetchConfig, Prefetcher};

use crate::engine::FetchEngineStats;

/// Why the fetch port delivered nothing this cycle — the per-cycle stall
/// probe behind [`crate::FetchEngine::stall_probe`], consumed by the
/// processor's top-down cycle classifier. Reset at
/// [`IcachePort::begin_cycle`] and set by whichever gate fired, so it
/// always describes the *current* cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StallCause {
    /// No port-side stall (delivered, or nothing was demanded).
    #[default]
    None,
    /// The one-cycle post-redirect restart bubble.
    Redirect,
    /// Demand miss served by the L2.
    L2,
    /// Demand miss served by memory.
    Mem,
    /// Demand miss found no free MSHR (non-blocking miss pipeline).
    Mshr,
}

/// The I-cache access port of a fetch engine.
#[derive(Debug)]
pub struct IcachePort {
    prefetcher: Option<Box<dyn Prefetcher>>,
    degree: usize,
    stall_until: u64,
    /// Serving level of the in-progress blocking-mode miss stall:
    /// `Some(from_mem)` while stalled on a demand miss, `None` during
    /// redirect bubbles — so the decomposed stall buckets count the
    /// cycles actually spent stalled (a redirect cuts a stall short).
    stall_from_mem: Option<bool>,
    /// Why the port blocked this cycle (reset each [`IcachePort::begin_cycle`]).
    last_stall: StallCause,
    probe_buf: Vec<Addr>,
}

impl IcachePort {
    /// The legacy blocking port (no prefetcher, no miss pipeline use).
    pub fn blocking() -> Self {
        IcachePort {
            prefetcher: None,
            degree: 0,
            stall_until: 0,
            stall_from_mem: None,
            last_stall: StallCause::None,
            probe_buf: Vec::new(),
        }
    }

    /// Builds the port for a prefetch configuration (validated).
    pub fn from_config(cfg: &PrefetchConfig) -> Self {
        cfg.validate();
        IcachePort {
            prefetcher: cfg.kind.prefetcher(),
            degree: cfg.degree,
            stall_until: 0,
            stall_from_mem: None,
            last_stall: StallCause::None,
            probe_buf: Vec::with_capacity(cfg.degree.max(1)),
        }
    }

    /// Whether a prefetch policy is attached.
    pub fn has_prefetcher(&self) -> bool {
        self.prefetcher.is_some()
    }

    /// Per-cycle upkeep: completes due MSHR fills (no-op when the memory
    /// hierarchy runs the blocking model) and resets the stall probe.
    /// Call first in the engine cycle.
    pub fn begin_cycle(&mut self, now: u64, mem: &mut MemoryHierarchy) {
        self.last_stall = StallCause::None;
        mem.inst_tick(now);
    }

    /// Why the port blocked during the current cycle ([`StallCause::None`]
    /// if it didn't). Valid after [`IcachePort::begin_cycle`].
    pub fn last_stall(&self) -> StallCause {
        self.last_stall
    }

    /// The engine-wide stall gate: redirect bubbles, and in blocking mode
    /// the remainder of a miss stall. Counts a stall cycle when held.
    pub fn stalled(&mut self, now: u64, stats: &mut FetchEngineStats) -> bool {
        if now < self.stall_until {
            stats.icache_stall_cycles += 1;
            match self.stall_from_mem {
                Some(true) => {
                    stats.stall_mem_cycles += 1;
                    self.last_stall = StallCause::Mem;
                }
                Some(false) => {
                    stats.stall_l2_cycles += 1;
                    self.last_stall = StallCause::L2;
                }
                None => self.last_stall = StallCause::Redirect, // redirect bubble
            }
            true
        } else {
            self.stall_from_mem = None;
            false
        }
    }

    /// One demand access for the line containing `addr`; returns whether
    /// its data is usable this cycle. On a blocking-mode miss the engine
    /// is stalled for the whole latency (the legacy protocol); on a
    /// pipelined miss only this demand waits — the caller should return
    /// from its cycle but keep its prediction stage and prefetcher
    /// running on subsequent cycles.
    pub fn demand(
        &mut self,
        now: u64,
        mem: &mut MemoryHierarchy,
        addr: Addr,
        stats: &mut FetchEngineStats,
    ) -> bool {
        if !mem.inst_pipeline_enabled() {
            let lat = mem.inst_fetch(addr);
            if lat > 1 {
                self.stall_until = now + u64::from(lat) - 1;
                stats.icache_stall_cycles += 1;
                let cfg = mem.config();
                let from_mem = lat > cfg.l1_latency + cfg.l2_latency;
                self.stall_from_mem = Some(from_mem);
                if from_mem {
                    stats.stall_mem_cycles += 1;
                    self.last_stall = StallCause::Mem;
                } else {
                    stats.stall_l2_cycles += 1;
                    self.last_stall = StallCause::L2;
                }
                return false;
            }
            return true;
        }
        let line = addr.line_index(mem.l1i_line_bytes());
        match mem.inst_demand(now, addr) {
            InstDemand::Ready => {
                if let Some(p) = self.prefetcher.as_mut() {
                    p.observe_demand(line, true);
                }
                true
            }
            InstDemand::Wait { from_mem, allocated, .. } => {
                stats.icache_stall_cycles += 1;
                if from_mem {
                    stats.stall_mem_cycles += 1;
                    self.last_stall = StallCause::Mem;
                } else {
                    stats.stall_l2_cycles += 1;
                    self.last_stall = StallCause::L2;
                }
                if allocated {
                    if let Some(p) = self.prefetcher.as_mut() {
                        p.observe_demand(line, false);
                    }
                }
                false
            }
            InstDemand::Blocked => {
                stats.icache_stall_cycles += 1;
                stats.stall_mshr_cycles += 1;
                self.last_stall = StallCause::Mshr;
                false
            }
        }
    }

    /// Runs the prefetcher over the engine's lookahead and issues up to
    /// the configured per-cycle probe budget to the memory system.
    /// Probes that find no free MSHR are reported back so the policy can
    /// re-emit them later instead of considering them covered.
    pub fn drive(&mut self, now: u64, mem: &mut MemoryHierarchy, ctx: &Lookahead<'_>) {
        let Some(p) = self.prefetcher.as_mut() else { return };
        self.probe_buf.clear();
        p.probes(ctx, self.degree, &mut self.probe_buf);
        let line_bytes = mem.l1i_line_bytes();
        for i in 0..self.probe_buf.len().min(self.degree) {
            let addr = self.probe_buf[i];
            if mem.inst_prefetch(now, addr) == sfetch_mem::InstPrefetch::NoMshr {
                p.unissued(addr.line_index(line_bytes));
            }
        }
    }

    /// Redirect bubble: fetch resumes next cycle (clears any blocking-mode
    /// miss stall, as the legacy engines did).
    pub fn redirect(&mut self, now: u64) {
        self.stall_until = now + 1;
        self.stall_from_mem = None;
    }

    /// Storage cost of the attached prefetcher's tables in bits.
    pub fn storage_bits(&self) -> u64 {
        self.prefetcher.as_ref().map_or(0, |p| p.storage_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfetch_mem::MemoryConfig;
    use sfetch_prefetch::PrefetchKind;

    #[test]
    fn blocking_mode_reproduces_legacy_stall_protocol() {
        let mut mem = MemoryHierarchy::new(MemoryConfig::table2(8));
        let mut port = IcachePort::blocking();
        let mut stats = FetchEngineStats::default();
        let a = Addr::new(0x40_0000);
        // Cold miss at cycle 0: stalled through cycle 114, ready at 115.
        assert!(!port.demand(0, &mut mem, a, &mut stats));
        for t in 1..115 {
            assert!(port.stalled(t, &mut stats), "cycle {t}");
        }
        assert!(!port.stalled(115, &mut stats));
        assert!(port.demand(115, &mut mem, a, &mut stats));
        assert_eq!(stats.icache_stall_cycles, 115);
        assert_eq!(stats.stall_mem_cycles, 115);
        assert_eq!(stats.stall_l2_cycles, 0);
    }

    #[test]
    fn pipelined_demand_waits_without_engine_stall() {
        let mut mem = MemoryHierarchy::new(MemoryConfig::table2(8));
        mem.enable_inst_pipeline(4);
        let mut port = IcachePort::from_config(&PrefetchConfig::enabled(PrefetchKind::NextLine));
        let mut stats = FetchEngineStats::default();
        let a = Addr::new(0x40_0000);
        port.begin_cycle(0, &mut mem);
        assert!(!port.demand(0, &mut mem, a, &mut stats));
        // The engine-wide gate is NOT held: prediction/prefetch continue.
        assert!(!port.stalled(1, &mut stats));
        for t in 1..115 {
            port.begin_cycle(t, &mut mem);
            assert!(!port.demand(t, &mut mem, a, &mut stats));
        }
        port.begin_cycle(115, &mut mem);
        assert!(port.demand(115, &mut mem, a, &mut stats));
        assert_eq!(stats.icache_stall_cycles, 115, "same wait length as blocking");
        assert_eq!(stats.stall_mem_cycles, 115);
    }

    #[test]
    fn drive_issues_probes_within_budget() {
        let mut mem = MemoryHierarchy::new(MemoryConfig::table2(8));
        mem.enable_inst_pipeline(8);
        let mut port = IcachePort::from_config(&PrefetchConfig::enabled(PrefetchKind::NextLine));
        let ctx = Lookahead {
            demand: Some(Addr::new(0x1000)),
            queued: &[],
            predicted_next: None,
            line_bytes: mem.l1i_line_bytes(),
        };
        port.begin_cycle(0, &mut mem);
        port.drive(0, &mut mem, &ctx);
        assert_eq!(mem.prefetch_stats().issued, 2, "next-line degree 2");
        assert_eq!(mem.inst_fills_in_flight(), 2);
    }
}
