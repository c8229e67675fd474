//! Processor configuration (Table 2's "common settings").

use sfetch_fetch::FrontPipeline;
use sfetch_prefetch::PrefetchConfig;

/// Back-end and pipeline parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessorConfig {
    /// Pipe width: fetch, issue and commit width (Table 2: 2, 4, 8).
    pub width: usize,
    /// Pipeline depth in stages (Table 2: 16).
    pub depth: u32,
    /// Reorder-buffer capacity.
    pub rob_entries: usize,
    /// Front-pipeline timing model: fetch→decode→rename depth, post-squash
    /// redirect penalty, misfetch bubble, shadow-branch discovery. The
    /// default ([`FrontPipeline::legacy`]) reproduces the shared pre-
    /// per-engine model cycle-for-cycle;
    /// [`FrontPipeline::for_engine`](sfetch_fetch::FrontPipeline::for_engine)
    /// gives each engine the model its predictor organization implies.
    pub front: FrontPipeline,
    /// Cycles of no forward progress before the watchdog force-resyncs the
    /// front-end (safety net; ~never fires in practice).
    pub watchdog_cycles: u64,
    /// Use the legacy O(rob)-per-cycle issue scan instead of the
    /// event-driven scheduler. The two back-ends retire the bit-identical
    /// instruction/cycle sequence (asserted by the differential tests);
    /// the scan exists only as the oracle for that comparison and for
    /// measuring the scheduler's speedup (the `bench_processor` bench).
    pub legacy_scan: bool,
    /// Instruction-prefetch subsystem: policy selection and L1i MSHR
    /// count. The default ([`PrefetchConfig::none`]) keeps the legacy
    /// blocking I-cache, bit-identical to the pre-prefetch simulator;
    /// `mshrs > 0` enables the non-blocking miss pipeline.
    pub prefetch: PrefetchConfig,
}

impl ProcessorConfig {
    /// The Table 2 configuration for a pipe width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two (the I-cache line geometry
    /// requires it).
    pub fn table2(width: usize) -> Self {
        assert!(width.is_power_of_two() && width >= 1, "width must be a power of two");
        ProcessorConfig {
            width,
            depth: 16,
            rob_entries: (32 * width).max(64),
            front: FrontPipeline::legacy(),
            watchdog_cycles: 10_000,
            legacy_scan: false,
            prefetch: PrefetchConfig::none(),
        }
    }

    /// Front-pipeline latency: cycles from fetch to execute eligibility.
    /// The front model owns the nominal fetch→rename depth (the legacy
    /// model's 12 = Table 2's 16-deep pipe minus four
    /// issue/execute/commit stages); deviations of [`Self::depth`] from
    /// the nominal 16 shift it, so depth sweeps keep working under any
    /// front model.
    pub fn front_latency(&self) -> u32 {
        (self.front.depth + self.depth).saturating_sub(16).max(1)
    }
}

impl Default for ProcessorConfig {
    fn default() -> Self {
        Self::table2(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_scales_rob_with_width() {
        assert_eq!(ProcessorConfig::table2(2).rob_entries, 64);
        assert_eq!(ProcessorConfig::table2(4).rob_entries, 128);
        assert_eq!(ProcessorConfig::table2(8).rob_entries, 256);
    }

    #[test]
    fn front_latency_leaves_backend_stages() {
        let c = ProcessorConfig::table2(8);
        assert_eq!(c.front_latency(), 12);
        assert_eq!(c.depth, 16);
        assert!(c.front.is_legacy(), "table2 defaults to the neutral front pipeline");
    }

    #[test]
    fn front_latency_follows_the_front_model() {
        let mut c = ProcessorConfig::table2(8);
        c.front.depth = 7;
        assert_eq!(c.front_latency(), 7);
        c.front.depth = 0;
        assert_eq!(c.front_latency(), 1, "depth is clamped to at least one stage");
        // Pipe-depth sweeps still shift the latency under any front model.
        c.front.depth = 12;
        c.depth = 24;
        assert_eq!(c.front_latency(), 20);
        c.depth = 8;
        assert_eq!(c.front_latency(), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_width() {
        ProcessorConfig::table2(3);
    }
}
