//! The prefetch subsystem's contracts:
//!
//! * **MSHR coalescing / fill ordering** — under random miss streams no
//!   fill is ever lost or duplicated, coalescing returns the original
//!   fill cycle, and fills drain in completion order (proptests).
//! * **`Prefetcher = None` lockstep** — engines built through the
//!   prefetch-aware constructor with the disabled configuration match
//!   the legacy construction cycle-for-cycle: the blocking I-cache path
//!   is untouched by the port refactor.
//! * **Pipelined demand-only stays on the blocking model's schedule** —
//!   with MSHRs but no policy, isolated misses complete on the exact
//!   cycle the blocking model delivers, so whole-run cycle counts stay
//!   within a whisker (they differ only when a redirect lands mid-miss,
//!   where the pipeline's in-flight fill is the honest model).
//! * **Stream-directed prefetch pays** — on an L1i-thrashing program the
//!   stream engine's fetch-stall cycles drop with prefetching on.

use std::collections::BTreeMap;

use proptest::prelude::*;

use sfetch_cfg::gen::{GenParams, ProgramGenerator};
use sfetch_cfg::{layout, CodeImage};
use sfetch_core::{PrefetchConfig, PrefetchKind, Processor, ProcessorConfig};
use sfetch_fetch::{
    EngineKind, Ev8Engine, FetchEngine, FtbEngine, StreamEngine, TraceCacheEngine,
};
use sfetch_isa::Addr;
use sfetch_mem::{InstDemand, MemoryConfig, MemoryHierarchy, MshrFile};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random allocate/drain sequences against a reference model: every
    /// allocated line drains exactly once, at its recorded fill cycle,
    /// in (fill_at, allocation-order) order, and capacity is respected.
    #[test]
    fn mshr_fills_are_never_lost_or_duplicated(
        caps in 1usize..6,
        ops in proptest::collection::vec((0u64..24, 1u64..150, 0u64..4), 1..120),
    ) {
        let mut file = MshrFile::new(caps);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new(); // line -> fill_at
        let mut drained: Vec<(u64, u64)> = Vec::new();
        let mut now = 0u64;
        let mut buf = Vec::new();
        for &(line, lat, advance) in &ops {
            now += advance;
            buf.clear();
            file.drain_due(now, &mut buf);
            let mut last = None;
            for m in &buf {
                prop_assert!(m.fill_at <= now, "drained a future fill");
                prop_assert_eq!(model.remove(&m.line), Some(m.fill_at), "fill not in model");
                if let Some(prev) = last {
                    prop_assert!(prev <= m.fill_at, "fills drained out of order");
                }
                last = Some(m.fill_at);
                drained.push((m.line, m.fill_at));
            }
            if file.lookup(line).is_none() && file.has_free() {
                file.allocate(line, now + lat, lat > 100, false);
                prop_assert!(model.insert(line, now + lat).is_none());
            } else if let Some(m) = file.lookup(line) {
                // Coalescing view: the in-flight entry keeps its fill time.
                prop_assert_eq!(Some(&m.fill_at), model.get(&line));
            }
            prop_assert!(file.in_flight() <= caps);
            prop_assert_eq!(file.in_flight(), model.len());
        }
        // Drain everything left; nothing may remain or double-complete.
        buf.clear();
        file.drain_due(u64::MAX, &mut buf);
        for m in &buf {
            prop_assert_eq!(model.remove(&m.line), Some(m.fill_at));
            drained.push((m.line, m.fill_at));
        }
        prop_assert!(model.is_empty(), "lost fills: {model:?}");
        prop_assert_eq!(file.in_flight(), 0);
        // No line completed twice while it was in flight once: every
        // drained (line, fill_at) pair was unique per allocation epoch.
        drained.sort_unstable();
        let before = drained.len();
        drained.dedup();
        prop_assert_eq!(drained.len(), before, "duplicated fill");
    }

    /// The hierarchy-level pipeline: a demand miss's reported fill cycle
    /// is exact — `Wait` until `fill_at`, `Ready` at `fill_at` — under
    /// random prefetch interference, and coalescing never changes it.
    #[test]
    fn demand_fill_cycles_are_exact_under_prefetch_interference(
        demand_line in 0u64..8,
        prefetch_lines in proptest::collection::vec(0u64..8, 0..6),
    ) {
        let mut m = MemoryHierarchy::new(MemoryConfig::table2(8));
        m.enable_inst_pipeline(4);
        let lb = m.l1i_line_bytes();
        let mut now = 0u64;
        for &l in &prefetch_lines {
            m.inst_tick(now);
            m.inst_prefetch(now, Addr::new(l * lb));
            now += 1;
        }
        m.inst_tick(now);
        let addr = Addr::new(demand_line * lb);
        match m.inst_demand(now, addr) {
            InstDemand::Ready => {} // filled by an earlier prefetch: fine
            InstDemand::Wait { fill_at, .. } => {
                prop_assert!(fill_at > now);
                for t in now + 1..fill_at {
                    m.inst_tick(t);
                    let d = m.inst_demand(t, addr);
                    prop_assert!(
                        matches!(d, InstDemand::Wait { fill_at: f, allocated: false, .. } if f == fill_at),
                        "cycle {t}: coalesce changed the fill cycle ({d:?})"
                    );
                }
                m.inst_tick(fill_at);
                prop_assert_eq!(m.inst_demand(fill_at, addr), InstDemand::Ready);
            }
            InstDemand::Blocked => {
                // 4 MSHRs, at most 6 prefetches over 6 cycles: possible
                // only while all fills are in flight; must clear by the
                // time they complete.
                m.inst_tick(now + 200);
                prop_assert!(matches!(
                    m.inst_demand(now + 200, addr),
                    InstDemand::Ready | InstDemand::Wait { .. }
                ));
            }
        }
    }
}

/// `Prefetcher = None` must match the legacy blocking model
/// cycle-for-cycle: same committed count, same cycle count, same stall
/// and cache statistics at every step. The engines' own `table2`
/// constructors (which the ablation binaries use) keep the blocking
/// port; [`EngineKind::build_for`] builds the port from the
/// configuration.
#[test]
fn none_prefetcher_locksteps_the_legacy_blocking_model() {
    let cfg = ProgramGenerator::new(GenParams::small(), 42).generate();
    let image = CodeImage::build(&cfg, &layout::natural(&cfg));
    for kind in EngineKind::ALL {
        let pc = ProcessorConfig::table2(4);
        assert_eq!(pc.prefetch, PrefetchConfig::none(), "default must be disabled");
        let entry = image.entry();
        let legacy: Box<dyn FetchEngine> = match kind {
            EngineKind::Stream => Box::new(StreamEngine::table2(4, entry)),
            EngineKind::Ev8 => Box::new(Ev8Engine::table2(4, entry)),
            EngineKind::Ftb => Box::new(FtbEngine::table2(4, entry)),
            EngineKind::TraceCache => Box::new(TraceCacheEngine::table2(4, entry)),
        };
        let via_port = kind.build_for(4, entry, &PrefetchConfig::none(), &pc.front);
        let mut pa = Processor::new(pc, legacy, &cfg, &image, 7);
        let mut pb = Processor::new(pc, via_port, &cfg, &image, 7);
        for t in 0..40_000u64 {
            pa.cycle();
            pb.cycle();
            if t % 512 == 0 {
                assert_eq!(pa.stats(), pb.stats(), "{kind}: diverged by cycle {t}");
            }
        }
        assert_eq!(pa.stats(), pb.stats(), "{kind}: diverged");
        assert!(pa.stats().committed > 0, "{kind}: no progress");
        assert_eq!(pa.stats().prefetch, Default::default(), "{kind}: phantom prefetches");
    }
}

/// MSHRs without a policy keep (almost exactly) the blocking schedule:
/// isolated misses complete on the same cycle, so whole-run cycle counts
/// agree within a small tolerance (redirect-during-miss is the one
/// modeled difference).
#[test]
fn pipelined_demand_only_tracks_blocking_cycle_counts() {
    let cfg = ProgramGenerator::new(GenParams::small(), 11).generate();
    let image = CodeImage::build(&cfg, &layout::natural(&cfg));
    for kind in EngineKind::ALL {
        let run = |mshrs: usize| {
            let mut pc = ProcessorConfig::table2(4);
            if mshrs > 0 {
                pc.prefetch = PrefetchConfig { kind: PrefetchKind::None, mshrs, degree: 0 };
            }
            let engine = kind.build_for(4, image.entry(), &pc.prefetch, &pc.front);
            let mut p = Processor::new(pc, engine, &cfg, &image, 3);
            p.run(40_000);
            p.stats()
        };
        let blocking = run(0);
        let piped = run(8);
        let ratio = piped.cycles as f64 / blocking.cycles as f64;
        assert!(
            (0.98..=1.02).contains(&ratio),
            "{kind}: pipelined demand-only drifted {ratio:.4}x off the blocking schedule \
             ({} vs {} cycles)",
            piped.cycles,
            blocking.cycles
        );
    }
}

/// The acceptance shape: on a program whose hot code overflows the 64KB
/// L1i, stream-directed prefetch cuts the stream engine's fetch-stall
/// cycles and does not hurt IPC.
#[test]
fn stream_directed_prefetch_reduces_stream_engine_fetch_stalls() {
    // 64 leaves × 12 blocks × 30 insts ≈ 92KB of cyclically-touched code.
    let cfg = sfetch_workloads::microbench::icache_walker(64);
    let image = CodeImage::build(&cfg, &layout::natural(&cfg));
    let run = |pf: PrefetchConfig| {
        let mut pc = ProcessorConfig::table2(8);
        pc.prefetch = pf;
        let engine = EngineKind::Stream.build_for(8, image.entry(), &pf, &pc.front);
        let mut p = Processor::new(pc, engine, &cfg, &image, 9);
        p.run(30_000);
        p.reset_stats();
        p.run(120_000);
        p.stats()
    };
    let off = run(PrefetchConfig::none());
    let on = run(PrefetchConfig::enabled(PrefetchKind::StreamDirected));
    assert!(
        off.engine.icache_stall_cycles > 500,
        "workload does not stress the L1i (stall {} cycles) — test is vacuous",
        off.engine.icache_stall_cycles
    );
    assert!(
        on.engine.icache_stall_cycles < off.engine.icache_stall_cycles,
        "prefetch on did not reduce stalls: {} -> {}",
        off.engine.icache_stall_cycles,
        on.engine.icache_stall_cycles
    );
    assert!(on.prefetch.issued > 0, "no prefetches issued");
    assert!(on.prefetch.useful > 0, "no useful prefetches");
    assert!(
        on.ipc() >= off.ipc() * 0.98,
        "prefetch hurt IPC: {:.3} -> {:.3}",
        off.ipc(),
        on.ipc()
    );
}
