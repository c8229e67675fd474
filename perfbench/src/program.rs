//! The simulated program and the request configurations the workloads
//! send.

use std::time::Instant;

use sfetch_bench::grid::calibration_schedule;
use sfetch_bench::{FrontMode, GridPrefetchMode, HarnessOpts};
use sfetch_sample::SampleConfig;
use sfetch_workloads::phased::{self, PhasedParams};
use sfetch_workloads::Workload;

/// Generation seed of the registered `phased` program, the one fleet
/// workers and the daemon look up by name.
pub const REGISTERED_SEED: u64 = 2026;

/// Train and ref input seeds of the registered program
/// (`phased::long_workload`); the benchmark's generated programs use the
/// same pair, so seed 2026 rebuilds the registered program exactly.
const TRAIN_SEED: u64 = 7001;
const REF_SEED: u64 = 9103;

/// The Fig. 8 horizon: 50M instructions, 4 windows per cell.
pub const FIG8_TOTAL: u64 = 50_000_000;

/// A built program and what building it cost.
pub struct Program {
    /// The workload: program, training profile, both layouts.
    pub w: Workload,
    /// `phased::generate`, s.
    pub generate_s: f64,
    /// `Workload::from_cfg` (train profile + both layouts), s.
    pub build_s: f64,
}

/// Generates the long-horizon phased program from `seed` and builds its
/// workload.
pub fn build(seed: u64) -> Program {
    let t0 = Instant::now();
    let cfg = phased::generate(&PhasedParams::long(), seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let w = Workload::from_cfg(phased::LONG_NAME, cfg, TRAIN_SEED, REF_SEED);
    let build_s = t1.elapsed().as_secs_f64();
    Program {
        w,
        generate_s,
        build_s,
    }
}

/// Worker threads and processes: every core, like the binaries'
/// defaults.
pub fn nproc() -> usize {
    sfetch_workloads::default_jobs()
}

/// One family of requests: everything a cell's output depends on apart
/// from the engine/width axes and the horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Family {
    /// Front-pipeline model.
    pub front: FrontMode,
    /// Per-cell prefetch policy (`shared` runs no prefetcher).
    pub gridpf: GridPrefetchMode,
    /// Sampling schedule.
    pub sched: SampleConfig,
}

/// Windows of the longest horizon a served request can ask for.
pub const MAX_WINDOWS: u64 = 6;

/// The request families the serve mix draws from. Family 0 is the
/// default `figure8_sampled` request (per-engine fronts, natural
/// prefetch, calibration schedule); the others vary the front, the
/// prefetch policy and the warming schedule, which moves every window's
/// checkpoint offset.
pub fn families() -> Vec<Family> {
    let short_warm = SampleConfig {
        warm_func: 600_000,
        warm_mem: 600_000,
        ..calibration_schedule()
    };
    let mut out = Vec::new();
    for sched in [calibration_schedule(), short_warm] {
        for (front, gridpf) in [
            (FrontMode::PerEngine, GridPrefetchMode::Natural),
            (FrontMode::Legacy, GridPrefetchMode::Shared),
            (FrontMode::PerEngine, GridPrefetchMode::Shared),
            (FrontMode::Legacy, GridPrefetchMode::Natural),
        ] {
            out.push(Family {
                front,
                gridpf,
                sched,
            });
        }
    }
    out
}

impl Family {
    /// Harness options of a request in this family over `total`
    /// instructions (no prefetcher under `shared`, every core).
    pub fn opts(&self, total: u64) -> HarnessOpts {
        HarnessOpts {
            jobs: nproc(),
            grid_total: total,
            grid_sample: self.sched,
            front: self.front,
            grid_prefetch: self.gridpf,
            ..HarnessOpts::default()
        }
    }

    /// The total that yields `windows` windows.
    pub fn total(&self, windows: u64) -> u64 {
        windows * self.sched.interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfetch_workloads::LayoutChoice;

    #[test]
    fn the_same_seed_builds_the_same_program() {
        let a = build(11);
        let b = build(11);
        let c = build(12);
        let fp = |p: &Program| p.w.fingerprint(LayoutChoice::Optimized);
        assert_eq!(fp(&a), fp(&b));
        assert_ne!(fp(&a), fp(&c));
    }

    #[test]
    fn the_registered_seed_rebuilds_the_registered_program() {
        let ours = build(REGISTERED_SEED);
        let registered = phased::long_workload();
        for layout in [LayoutChoice::Base, LayoutChoice::Optimized] {
            assert_eq!(ours.w.fingerprint(layout), registered.fingerprint(layout));
        }
    }

    #[test]
    fn family_zero_is_the_default_request() {
        let f = families()[0];
        let o = f.opts(FIG8_TOTAL);
        let d = HarnessOpts::default();
        assert_eq!(o.grid_sample, d.grid_sample);
        assert_eq!(o.front, d.front);
        assert_eq!(o.grid_prefetch, d.grid_prefetch);
        assert_eq!(f.sched.windows(FIG8_TOTAL), 4);
        for fam in families() {
            fam.sched.validate();
            assert_eq!(fam.sched.windows(fam.total(MAX_WINDOWS)), MAX_WINDOWS);
        }
    }
}
