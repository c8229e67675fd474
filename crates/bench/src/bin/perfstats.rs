//! Host-throughput reporter: how fast does this machine simulate?
//!
//! Measures, for each fetch engine, the wall-clock cost of simulating the
//! ablation subset (8-wide, optimized layout) and reports simulated MIPS
//! (millions of committed instructions per wall second, summed over the
//! points in flight) and ns per simulated cycle, plus the raw
//! architectural executor's throughput in ns per committed instruction.
//! A large-ROB A/B point (1024 entries, where the legacy per-cycle ROB
//! scan is quadratic in flight-depth) measures the event-driven
//! scheduler's speedup against `--legacy-scan`, and a per-engine
//! prefetch A/B (each engine's natural policy vs the blocking L1i, on
//! the `icache_walker` microbench — the suite's own benchmarks fit the
//! L1i once warm) records how much fetch-stall time the non-blocking
//! miss pipeline recovers.
//!
//! The v4 addition is `sampling_ab`: the 50M-instruction phased
//! workload both straight through and under SMARTS sampling
//! (`sfetch-sample`), recording the IPC estimate, its confidence
//! interval, the relative error against the full run, and the
//! wall-clock speedup.
//!
//! The v5 addition is the **`calibration_grid`** section: the full
//! Fig. 8 engines × widths grid on the 50M phased workload, measured by
//! sampling through the reusable checkpoint store
//! (`sfetch_sample::store`). Per grid point it records the sampled IPC
//! with its 95% confidence interval; `store_ab` records the cold-store
//! run (fast-forward computed and banked) against the warm-store rerun
//! of the same cell (fast-forward amortized away — the rerun's windows
//! are asserted byte-identical), and `spread_8wide` compares the engine
//! IPC spread against the paper's ~3.5× (Fig. 8c).
//!
//! The v6 addition is the **`fleet_resilience`** section: a 2-engine ×
//! 2-width slice of the grid run twice under the fault-tolerant fleet
//! supervisor (`sfetch_fleet`) against a shared pre-populated store —
//! once clean, once with deterministic chaos injection (`--chaos`-style
//! worker crashes, stalls, and corrupted shard files). The merged
//! results are asserted byte-identical; the record is the wall-clock
//! overhead the retries cost plus the supervisor's spawn/retry/kill
//! accounting.
//!
//! The v7 addition is the **`front_pipeline`** section: per engine, the
//! golden-window cycle sums under that engine's own front-pipeline
//! model ([`sfetch_fetch::FrontPipeline::for_engine`]) against the
//! legacy shared front, with the model parameters and the
//! stall-decomposition counters on the record. The `engines` section
//! stays on the legacy front (Table 2 defaults), so its `sim_cycles`
//! remain comparable to `BENCH_6.json`, and the `calibration_grid` now
//! runs each cell under its engine's front model and natural prefetch
//! policy (the `--front-pipeline` / `--grid-prefetch` defaults) — the
//! Fig. 8 differentiation the per-engine models exist to recover.
//!
//! The v8 addition is the **`cycle_accounting`** section, recording the
//! top-down cycle decomposition (`sfetch_core::CycleBuckets`) the
//! observability layer attributes per cycle: per-engine bucket shares on
//! the seed suite (legacy front — the `engines` section's own windows,
//! so `sum(buckets) == sim_cycles` is asserted against the identical
//! totals) and on the phased calibration grid at 8-wide (per-engine
//! front, sampled through the warm store). Two contracts ride along and
//! are **asserted**, not just recorded: at the BENCH window (`--inst
//! 200000 --warmup 40000`, event back-end) the per-engine `sim_cycles`
//! must still equal `BENCH_7.json`'s — cycle accounting observes timing,
//! it never alters it — and a tracing-off vs tracing-on A/B (NullObserver
//! against an attached but out-of-range Konata observer, best-of-5) must
//! stay bit-identical in simulated statistics with under 2% wall-clock
//! overhead.
//!
//! The v9 addition is the **`serve_ab`** section, measuring the
//! warm-engine-state banking the resident `sfetch-serve` daemon rests
//! on: the headline cell run twice against one fresh store with
//! banking enabled. The cold leg warms every window live and banks the
//! warmed engine/memory state; the banked leg restores it — asserted
//! byte-identical, with the banked per-window warming cost asserted
//! strictly below the live one.
//!
//! The v10 addition is the **`batch_ab`** section, measuring batched
//! multi-window execution (`sfetch_sample::BatchSampler`): the full
//! Fig. 8 grid swept three ways against one shared pre-populated store
//! — per-window (every cell re-walks every window's functional span),
//! batched (one shared sweep drives every cell of a window, bank off),
//! and composed (batched + warm-state bank restore, the resident
//! steady state, where the shared sweep shrinks to the detailed span).
//! All three merges are asserted byte-identical; at the default
//! 50M-instruction grid scale the composed leg's throughput is
//! asserted at ≥5× the per-window baseline. Results go to stdout and
//! to `BENCH_10.json` in the current directory, extending the
//! repository's performance trajectory (`BENCH_1.json`: scan-based
//! baseline; `BENCH_2.json`: event-driven back-end; `BENCH_3.json`:
//! prefetch subsystem; `BENCH_4.json`: sampled simulation;
//! `BENCH_5.json`: checkpoint store; `BENCH_6.json`: fleet supervisor;
//! `BENCH_7.json`: front-pipeline calibration; `BENCH_8.json`: cycle
//! accounting; `BENCH_9.json`: warm-state banking); see README.md for
//! the `sfetch-perfstats-v10` schema — all v9 sections carry over
//! unchanged.
//!
//! ```text
//! cargo run --release -p sfetch-bench --bin perfstats \
//!     [-- --inst N --warmup N --jobs N --legacy-scan \
//!         --sample-total N --sample U,Wf,Wd,D \
//!         --grid-total N --grid-sample U,Wf,Wd,D[,Wm] \
//!         --obs-dir DIR --interval N --ptrace LO-HI]
//! ```
//!
//! With `--obs-dir DIR` the calibration grid additionally writes its
//! cycle-accounting time series (and, with `--ptrace`, Konata pipeline
//! traces) into `DIR` — a pure side pass over the warm checkpoint store.

use std::fmt::Write as _;
use std::time::Instant;

use sfetch_bench::fleet_grid::{
    maybe_run_fleet_child, run_fleet_grid, FleetGridOutcome, FleetGridSpec,
};
use sfetch_bench::grid::{
    cell_config, cells, engine_key, grid_engines, point_line, run_cell_range, run_cells_batched,
    spread_at_width, CellRun, GridCell, FIG8_WIDTHS,
};
use sfetch_bench::driver::or_die;
use sfetch_bench::obs::{write_sampled_obs, KonataObserver, ObsOpts};
use sfetch_bench::{ablation_workloads, timed, HarnessOpts};
use sfetch_core::{
    CycleBuckets, NullObserver, Observer, PrefetchConfig, Processor, ProcessorConfig, SimStats,
};
use sfetch_obs::KonataTrace;
use sfetch_fetch::EngineKind;
use sfetch_sample::{
    estimate, run_full_detailed, run_sampled_jobs, CheckpointStore, Estimate, SamplePoint,
    StoredSampler,
};
use sfetch_trace::Executor;
use sfetch_workloads::{par_map, phased, LayoutChoice, Workload};

/// ROB capacity of the large-flight-depth A/B point.
const LARGE_ROB: usize = 1024;

/// The BENCH measurement window: `(insts, warmup)` per point. Whenever
/// this binary runs that window on the event back-end, the per-engine
/// `sim_cycles` totals are asserted against the `BENCH_7.json` record —
/// cycle accounting observes simulated time, it must never move it.
const BENCH_WINDOW: (u64, u64) = (200_000, 40_000);

/// `BENCH_7.json` `engines[].sim_cycles` (legacy front), in
/// [`EngineKind::ALL`] order.
const BENCH7_SIM_CYCLES: [u64; 4] = [251_057, 268_839, 249_240, 244_461];

/// `BENCH_7.json` `front_pipeline[].sim_cycles` (per-engine front), in
/// [`EngineKind::ALL`] order.
const BENCH7_FRONT_SIM_CYCLES: [u64; 4] = [274_108, 257_743, 233_743, 253_168];

struct EngineRow {
    engine: String,
    points: usize,
    simulated_insts: u64,
    sim_cycles: u64,
    wall_s: f64,
    mips: f64,
    ns_per_cycle: f64,
    /// Top-down cycle accounting summed over the measured windows; its
    /// total equals `sim_cycles` by construction (asserted).
    buckets: CycleBuckets,
}

/// One timed simulation leg: wall seconds and cycles of the measured
/// window (warmup excluded from both, so `ns_per_cycle` is exact).
struct TimedLeg {
    wall_s: f64,
    cycles: u64,
    committed: u64,
}

impl TimedLeg {
    fn ns_per_cycle(&self) -> f64 {
        self.wall_s * 1e9 / self.cycles as f64
    }

    fn mips(&self) -> f64 {
        self.committed as f64 / self.wall_s / 1e6
    }
}

/// Warms up a fresh processor, then times exactly the measured window.
fn timed_run(
    w: &Workload,
    kind: EngineKind,
    mut pc: ProcessorConfig,
    legacy_scan: bool,
    warmup: u64,
    insts: u64,
) -> (sfetch_core::SimStats, TimedLeg) {
    pc.legacy_scan = legacy_scan;
    let image = w.image(LayoutChoice::Optimized);
    let engine = kind.build_for(pc.width, image.entry(), &pc.prefetch, &pc.front);
    let mut p = Processor::new(pc, engine, w.cfg(), image, w.ref_seed());
    p.run(warmup);
    p.reset_stats();
    let t0 = Instant::now();
    p.run(insts);
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = p.stats();
    (stats, TimedLeg { wall_s, cycles: stats.cycles, committed: stats.committed })
}

fn measure_engine(workloads: &[Workload], kind: EngineKind, opts: HarnessOpts) -> EngineRow {
    let (points, wall_s) = timed(|| {
        par_map(workloads, opts.jobs, |_, w| {
            timed_run(
                w,
                kind,
                ProcessorConfig::table2(8),
                opts.legacy_scan,
                opts.warmup,
                opts.insts,
            )
        })
    });
    let simulated_insts: u64 = points.iter().map(|(s, _)| s.committed + opts.warmup).sum();
    let sim_cycles: u64 = points.iter().map(|(_, l)| l.cycles).sum();
    let measured_wall: f64 = points.iter().map(|(_, l)| l.wall_s).sum();
    let mut buckets = CycleBuckets::default();
    for (s, _) in &points {
        assert_eq!(s.buckets.sum(), s.cycles, "cycle accounting must attribute every cycle");
        assert_eq!(s.watchdog_resyncs, 0, "seed suite must run without watchdog resyncs");
        buckets.add(&s.buckets);
    }
    EngineRow {
        engine: kind.to_string(),
        points: points.len(),
        simulated_insts,
        sim_cycles,
        wall_s,
        mips: simulated_insts as f64 / wall_s / 1e6,
        ns_per_cycle: measured_wall * 1e9 / sim_cycles as f64,
        buckets,
    }
}

/// One engine's row of the front-pipeline calibration record: the
/// golden-window cycle sums under the engine's own front model vs the
/// legacy shared front, plus the model parameters and the new
/// stall-decomposition counters.
struct FrontRow {
    engine: EngineKind,
    front: sfetch_fetch::FrontPipeline,
    /// Summed `sim_cycles` over the ablation subset, per-engine front.
    sim_cycles: u64,
    /// The same sum under [`sfetch_fetch::FrontPipeline::legacy`] —
    /// must match the `engines` section (and `BENCH_6.json`).
    legacy_cycles: u64,
    /// Summed redirect-penalty holds under the per-engine front.
    hold_redirect_cycles: u64,
    /// Summed decode-redirect holds under the per-engine front.
    hold_decode_cycles: u64,
    /// Summed shadow-branch installs under the per-engine front.
    shadow_installs: u64,
}

/// Measures every engine at 8-wide optimized under its own front model
/// and under the legacy front, on the same windows the `engines`
/// section times. The legacy sums double as a cross-check that the
/// front threading is exactly neutral at its neutral setting.
fn measure_front_pipeline(workloads: &[Workload], opts: HarnessOpts) -> Vec<FrontRow> {
    EngineKind::ALL
        .into_iter()
        .map(|kind| {
            let front = sfetch_fetch::FrontPipeline::for_engine(kind);
            let run = |f: sfetch_fetch::FrontPipeline| {
                par_map(workloads, opts.jobs, |_, w| {
                    let mut pc = ProcessorConfig::table2(8);
                    pc.front = f;
                    timed_run(w, kind, pc, opts.legacy_scan, opts.warmup, opts.insts).0
                })
            };
            let engine_stats = run(front);
            let legacy_stats = run(sfetch_fetch::FrontPipeline::legacy());
            FrontRow {
                engine: kind,
                front,
                sim_cycles: engine_stats.iter().map(|s| s.cycles).sum(),
                legacy_cycles: legacy_stats.iter().map(|s| s.cycles).sum(),
                hold_redirect_cycles: engine_stats.iter().map(|s| s.hold_redirect_cycles).sum(),
                hold_decode_cycles: engine_stats.iter().map(|s| s.hold_decode_cycles).sum(),
                shadow_installs: engine_stats.iter().map(|s| s.engine.shadow_installs).sum(),
            }
        })
        .collect()
}

/// Executor-only throughput: ns per committed instruction of the oracle walk
/// (no timing model), the quantity the interned control table optimizes.
fn measure_executor(workloads: &[Workload], insts: u64) -> f64 {
    let w = &workloads[0];
    let img = w.image(LayoutChoice::Optimized);
    let t0 = Instant::now();
    let mut acc = 0u64;
    for d in Executor::from_image(img, w.ref_seed()).take(insts as usize) {
        acc = acc.wrapping_add(d.pc.get());
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e9 / insts as f64
}

/// The large-flight-depth A/B point: one benchmark, 8-wide, 1024-entry
/// ROB, event-driven vs legacy scan. The two legs retire bit-identical
/// windows (asserted), so the wall-clock ratio is a pure scheduler
/// speedup. Each leg is best-of-3 (the window is short enough that a
/// single run is at the mercy of scheduler noise).
fn measure_large_rob(w: &Workload, opts: HarnessOpts) -> (TimedLeg, TimedLeg) {
    let mut pc = ProcessorConfig::table2(8);
    pc.rob_entries = LARGE_ROB;
    let mut best: [Option<(sfetch_core::SimStats, TimedLeg)>; 2] = [None, None];
    for _rep in 0..3 {
        for (slot, legacy) in [(0, false), (1, true)] {
            let (stats, leg) = timed_run(w, EngineKind::Stream, pc, legacy, opts.warmup, opts.insts);
            match &best[slot] {
                Some((prev_stats, prev)) => {
                    assert_eq!(&stats, prev_stats, "repeat runs must be deterministic");
                    if leg.wall_s < prev.wall_s {
                        best[slot] = Some((stats, leg));
                    }
                }
                None => best[slot] = Some((stats, leg)),
            }
        }
    }
    let [ev, sc] = best;
    let (ev_stats, event) = ev.expect("ran");
    let (sc_stats, scan) = sc.expect("ran");
    assert_eq!(ev_stats, sc_stats, "back-ends diverged — the A/B ratio would be meaningless");
    (event, scan)
}

/// One leg of the prefetch A/B: simulated (not wall-clock) quantities.
struct PrefetchLeg {
    cycles: u64,
    ipc: f64,
    stall_cycles: u64,
    issued: u64,
    useful: u64,
    late: u64,
    polluting: u64,
}

/// The A/B workload: the suite's benchmarks fit their hot code inside the
/// 64KB L1i once warm, so the prefetch point runs the `icache_walker`
/// microbench instead — ~92KB of cyclically-touched straight-line code,
/// where every line misses every iteration under the blocking model.
fn prefetch_ab_workload() -> Workload {
    Workload::from_cfg("icache_walker", sfetch_workloads::microbench::icache_walker(64), 100, 7)
}

/// The per-engine prefetch A/B on one benchmark: the engine's natural
/// policy (8 MSHRs) against the legacy blocking L1i. Simulated results
/// are deterministic, so one run per leg suffices.
fn measure_prefetch_ab(w: &Workload, kind: EngineKind, opts: HarnessOpts) -> [PrefetchLeg; 2] {
    [PrefetchConfig::none(), PrefetchConfig::enabled(kind.natural_prefetch())].map(|pf| {
        let mut pc = ProcessorConfig::table2(8);
        pc.prefetch = pf;
        let (stats, _) = timed_run(w, kind, pc, opts.legacy_scan, opts.warmup, opts.insts);
        PrefetchLeg {
            cycles: stats.cycles,
            ipc: stats.ipc(),
            stall_cycles: stats.engine.icache_stall_cycles,
            issued: stats.prefetch.issued,
            useful: stats.prefetch.useful,
            late: stats.prefetch.late,
            polluting: stats.prefetch.polluting,
        }
    })
}

/// The tracing-off vs tracing-on A/B record.
struct ObsOverhead {
    off: TimedLeg,
    on: TimedLeg,
    overhead_pct: f64,
}

/// Wall-clock guard of the observability layer: tracing on may cost at
/// most this much over tracing off (asserted).
const OBS_MAX_OVERHEAD_PCT: f64 = 2.0;

/// One timed leg under an explicit [`Observer`] instantiation: warmed
/// up, then exactly the measured window. Both A/B legs build the
/// processor through this one path, so the only difference between them
/// is the observer type parameter.
fn observed_leg<O: Observer>(
    w: &Workload,
    mut pc: ProcessorConfig,
    legacy_scan: bool,
    warmup: u64,
    insts: u64,
    obs: O,
) -> (SimStats, TimedLeg) {
    pc.legacy_scan = legacy_scan;
    let image = w.image(LayoutChoice::Optimized);
    let engine = EngineKind::Stream.build_for(pc.width, image.entry(), &pc.prefetch, &pc.front);
    let mem = sfetch_mem::MemoryHierarchy::new(sfetch_mem::MemoryConfig::table2(pc.width));
    let oracle = Executor::from_image(image, w.ref_seed());
    let mut p = Processor::with_state_observed(pc, engine, image, oracle, mem, obs);
    p.run(warmup);
    p.reset_stats();
    let t0 = Instant::now();
    p.run(insts);
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = p.stats();
    (stats, TimedLeg { wall_s, cycles: stats.cycles, committed: stats.committed })
}

/// The observability overhead A/B: the disabled [`NullObserver`] (hooks
/// monomorphized away — the configuration every measurement run uses)
/// against an attached [`KonataObserver`] whose capture window never
/// matches (hooks compiled in and called every event, nothing buffered —
/// the steady-state cost of leaving tracing compiled in). Simulated
/// statistics are asserted bit-identical and the wall-clock overhead is
/// asserted under [`OBS_MAX_OVERHEAD_PCT`]. Always measured on the
/// event back-end — the configuration every tracing run uses — with the
/// window floored well past the pin window.
///
/// The reported overhead is the **minimum of paired per-rep ratios**
/// (off and on run back to back, nine reps): host scheduler noise is
/// one-sided and uncorrelated across pairs, so it inflates most ratios
/// but not the quietest pair, while a real per-hook cost shows up in
/// every pair and survives the minimum. The recorded `ns_per_cycle`
/// legs are the per-leg best walls.
fn measure_obs_overhead(w: &Workload, opts: HarnessOpts) -> ObsOverhead {
    let pc = ProcessorConfig::table2(8);
    let (insts, warmup) = (opts.insts.max(2 * BENCH_WINDOW.0), opts.warmup.max(BENCH_WINDOW.1));
    let mut best: [Option<(SimStats, TimedLeg)>; 2] = [None, None];
    let mut min_ratio = f64::INFINITY;
    for _rep in 0..9 {
        let (off_stats, off_leg) = observed_leg(w, pc, false, warmup, insts, NullObserver);
        // The capture range sits past any reachable sequence number, so
        // the trace buffers nothing while every hook still fires.
        let trace = KonataTrace::new(u64::MAX - 1, u64::MAX);
        let (on_stats, on_leg) =
            observed_leg(w, pc, false, warmup, insts, KonataObserver(trace));
        assert_eq!(
            off_stats, on_stats,
            "an attached observer must never alter simulated statistics"
        );
        min_ratio = min_ratio.min(on_leg.wall_s / off_leg.wall_s);
        for (entry, (stats, leg)) in
            best.iter_mut().zip([(off_stats, off_leg), (on_stats, on_leg)])
        {
            match entry {
                Some((prev_stats, prev)) => {
                    assert_eq!(&stats, prev_stats, "repeat runs must be deterministic");
                    if leg.wall_s < prev.wall_s {
                        *entry = Some((stats, leg));
                    }
                }
                None => *entry = Some((stats, leg)),
            }
        }
    }
    let [off, on] = best;
    let (_, off) = off.expect("ran");
    let (_, on) = on.expect("ran");
    let overhead_pct = 100.0 * (min_ratio - 1.0);
    assert!(
        overhead_pct < OBS_MAX_OVERHEAD_PCT,
        "tracing-on overhead {overhead_pct:.2}% breaches the {OBS_MAX_OVERHEAD_PCT}% contract"
    );
    ObsOverhead { off, on, overhead_pct }
}

/// One leg of the sampling A/B.
struct SamplingLeg {
    ipc: f64,
    committed: u64,
    cycles: u64,
    wall_s: f64,
}

/// The sampled-vs-full A/B on the long-horizon phased workload: a
/// straight-through detailed run of `--sample-total` instructions against
/// the `sfetch-sample` systematic sampler with the `--sample` schedule.
fn measure_sampling_ab(
    w: &Workload,
    opts: HarnessOpts,
) -> (SamplingLeg, SamplingLeg, Estimate, u64) {
    let img = w.image(LayoutChoice::Optimized);
    let mut pc = ProcessorConfig::table2(8);
    // Both legs honor the backend selection, like every other section —
    // the legacy-scan differential covers the sampler path too.
    pc.legacy_scan = opts.legacy_scan;
    let total = opts.sample_total;
    let t0 = Instant::now();
    let full_stats = run_full_detailed(img, EngineKind::Stream, pc, w.ref_seed(), 0, total);
    let full = SamplingLeg {
        ipc: full_stats.ipc(),
        committed: full_stats.committed,
        cycles: full_stats.cycles,
        wall_s: t0.elapsed().as_secs_f64(),
    };
    // The full run is inherently serial; the sampler's windows are
    // independent and fan out across `--jobs` threads — that parallelism
    // is the sampling subsystem's structural advantage and is recorded
    // as part of the A/B (the per-window results are bit-identical to a
    // serial run).
    let t1 = Instant::now();
    let run =
        run_sampled_jobs(img, EngineKind::Stream, pc, w.ref_seed(), total, &opts.sample, opts.jobs);
    let wall_s = t1.elapsed().as_secs_f64();
    let committed: u64 = run.points.iter().map(|p| p.committed).sum();
    let cycles: u64 = run.points.iter().map(|p| p.cycles).sum();
    let sampled =
        SamplingLeg { ipc: run.estimate.ipc, committed, cycles, wall_s };
    (full, sampled, run.estimate, run.points.len() as u64)
}

/// The finished calibration grid plus its store A/B record.
struct CalibrationGrid {
    runs: Vec<CellRun>,
    windows: u64,
    cold_wall_s: f64,
    warm_wall_s: f64,
    store_entries: usize,
    /// 8-wide engine spread (min IPC, max IPC, ratio).
    spread: Option<(f64, f64, f64)>,
    /// Per-engine aggregate [`SimStats`] at 8-wide (per-engine front,
    /// natural prefetch — the grid defaults), re-simulated through the
    /// warm store for the `cycle_accounting.phased_grid_8wide` record.
    bucket_rows: Vec<(EngineKind, SimStats)>,
}

/// The headline cell whose cold-store vs warm-store rerun is recorded.
const AB_CELL: GridCell = GridCell { engine: EngineKind::Stream, width: 8 };

/// Runs the Fig. 8 engines × widths grid on the phased workload by
/// sampling through a fresh checkpoint store.
///
/// The first leg runs the headline cell against the **cold** store: its
/// wall clock includes computing (and banking) every window's
/// fast-forward checkpoint — the cost the PR 4 sampler paid on *every*
/// run. The second leg reruns the identical cell against the now-warm
/// store and is asserted byte-identical; its wall clock is what every
/// subsequent experiment pays. The remaining cells then sweep the grid
/// entirely from the warm store.
fn measure_calibration_grid(w: &Workload, opts: HarnessOpts, obs: &ObsOpts) -> CalibrationGrid {
    let scfg = opts.grid_sample;
    let total = opts.grid_total;
    let windows = scfg.windows(total);
    assert!(windows >= 1, "grid-total {total} yields no windows under the grid schedule");
    let store_dir = std::env::temp_dir().join(format!("sfetch-calib-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = CheckpointStore::open(&store_dir).expect("open calibration store");

    let (cold, cold_wall_s) = timed(|| run_cell_range(w, AB_CELL, scfg, &opts, &store, 0..windows));
    let (cold_points, cold_traffic) = cold;
    assert_eq!(cold_traffic.hits, 0, "store A/B cold leg must start from an empty store");

    let (warm, warm_wall_s) = timed(|| run_cell_range(w, AB_CELL, scfg, &opts, &store, 0..windows));
    let (warm_points, warm_traffic) = warm;
    assert_eq!(
        cold_points, warm_points,
        "warm-store rerun must replay the cold run byte-identically"
    );
    assert_eq!(
        warm_traffic.misses + warm_traffic.rejected,
        0,
        "store A/B warm leg must run entirely from the store"
    );

    let grid = cells(&grid_engines(), &FIG8_WIDTHS);
    let runs: Vec<CellRun> = grid
        .iter()
        .map(|&cell| {
            let points = if cell == AB_CELL {
                cold_points.clone()
            } else {
                run_cell_range(w, cell, scfg, &opts, &store, 0..windows).0
            };
            let est = estimate(&points, scfg.confidence);
            CellRun { cell, points, estimate: est }
        })
        .collect();
    // Phased-grid cycle accounting: re-simulate every 8-wide cell's
    // windows through the now-warm store, this time keeping the full
    // per-window `SimStats`, and aggregate. A pure side pass — the grid
    // estimates above are already final.
    let img = w.image(LayoutChoice::Optimized);
    let fp = w.fingerprint(LayoutChoice::Optimized);
    let bucket_rows: Vec<(EngineKind, SimStats)> = grid_engines()
        .iter()
        .map(|&kind| {
            let cell = GridCell { engine: kind, width: 8 };
            let mut sampler = StoredSampler::new(img, fp, w.ref_seed(), scfg, &store);
            let results =
                sampler.run_range_stats(kind, cell_config(cell, &opts), 0..windows, opts.jobs);
            let mut agg = SimStats::default();
            for (_, s) in &results {
                agg.accumulate(s);
            }
            assert_eq!(agg.buckets.sum(), agg.cycles, "grid cycle accounting must be exhaustive");
            (kind, agg)
        })
        .collect();
    if obs.enabled() {
        write_sampled_obs(w, &grid, scfg, windows, &opts, obs, &store)
            .expect("write observability artifacts");
    }
    let store_entries = store.entries();
    let _ = std::fs::remove_dir_all(&store_dir);
    CalibrationGrid {
        spread: spread_at_width(&runs, 8),
        runs,
        windows,
        cold_wall_s,
        warm_wall_s,
        store_entries,
        bucket_rows,
    }
}

/// The chaos A/B record: the same fleet grid run clean and under
/// deterministic fault injection, against one shared warm store.
struct FleetResilience {
    procs: usize,
    fleet_cells: usize,
    chaos_seed: u64,
    clean_wall_s: f64,
    chaos_wall_s: f64,
    clean_spawned: u64,
    chaos_spawned: u64,
    chaos_retries: u64,
    chaos_kills: u64,
    identical: bool,
}

/// Chaos seed for the resilience A/B (fixed, so the fault schedule —
/// and therefore the measurement — is reproducible run to run).
const FLEET_CHAOS_SEED: u64 = 42;

/// Worker-pool width of the resilience A/B.
const FLEET_PROCS: usize = 2;

/// Runs a 2-engine × 2-width slice of the grid under the fleet
/// supervisor twice — clean, then with deterministic fault injection —
/// and asserts the merged results are byte-identical. Both legs fan out
/// over the same pre-populated store, so the wall-clock delta is pure
/// supervision + retry cost.
fn measure_fleet_resilience(w: &Workload, opts: HarnessOpts) -> FleetResilience {
    let scfg = opts.grid_sample;
    let windows = scfg.windows(opts.grid_total);
    let grid = cells(&[EngineKind::Stream, EngineKind::Ev8], &[4, 8]);
    let store_dir = std::env::temp_dir().join(format!("sfetch-fleetab-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    {
        let store = CheckpointStore::open(&store_dir).expect("open fleet A/B store");
        let img = w.image(LayoutChoice::Optimized);
        let fp = w.fingerprint(LayoutChoice::Optimized);
        StoredSampler::new(img, fp, w.ref_seed(), scfg, &store).populate(windows);
    }

    let run = |chaos: Option<u64>| {
        timed(|| {
            run_fleet_grid(&FleetGridSpec {
                bench: w.name(),
                grid: &grid,
                scfg,
                total: opts.grid_total,
                opts: &opts,
                store_dir: &store_dir,
                procs: FLEET_PROCS,
                chaos,
                max_retries: 3,
                cell_timeout_s: None,
            })
            .expect("fleet A/B run")
        })
    };
    let (clean, clean_wall_s) = run(None);
    let (chaos, chaos_wall_s) = run(Some(FLEET_CHAOS_SEED));
    assert!(
        clean.report.incomplete.is_empty() && chaos.report.incomplete.is_empty(),
        "fleet A/B legs must converge to a complete grid"
    );
    let lines = |o: &FleetGridOutcome| -> Vec<String> {
        o.runs.iter().flat_map(|r| r.points.iter().map(|p| point_line(r.cell, p))).collect()
    };
    let identical = lines(&clean) == lines(&chaos);
    assert!(identical, "chaos run must merge byte-identically to the clean run");
    let fleet_cells = clean.report.done.len();
    let _ = std::fs::remove_dir_all(&store_dir);
    FleetResilience {
        procs: FLEET_PROCS,
        fleet_cells,
        chaos_seed: FLEET_CHAOS_SEED,
        clean_wall_s,
        chaos_wall_s,
        clean_spawned: clean.report.spawned,
        chaos_spawned: chaos.report.spawned,
        chaos_retries: chaos.report.retries,
        chaos_kills: chaos.report.kills,
        identical,
    }
}

/// The warm-engine-state banking A/B: what a resident `sfetch-serve`
/// rerun pays for window warming against what a cold first run pays.
struct ServeAb {
    windows: u64,
    cold_wall_s: f64,
    banked_wall_s: f64,
    cold_warm_ns_per_window: u64,
    banked_warm_ns_per_window: u64,
    bank_entries_written: u64,
    bank_hits: u64,
    identical: bool,
}

/// Runs the headline cell twice through one fresh store with warm-state
/// banking enabled. The first (cold) leg warms every window live and
/// banks the warmed engine/memory state as a side effect; the second
/// (banked) leg restores every window's warm state from the bank — an
/// in-memory reconstruction instead of executing the warming schedule —
/// and is asserted byte-identical. The record is each leg's per-window
/// warming cost ([`sfetch_sample::WarmTiming`]): the host time the
/// resident daemon's warm bank removes from every rerun.
fn measure_serve_ab(w: &Workload, opts: HarnessOpts) -> ServeAb {
    let scfg = opts.grid_sample;
    let windows = scfg.windows(opts.grid_total);
    let store_dir = std::env::temp_dir().join(format!("sfetch-serveab-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = CheckpointStore::open(&store_dir).expect("open serve A/B store");
    let img = w.image(LayoutChoice::Optimized);
    let fp = w.fingerprint(LayoutChoice::Optimized);
    let pcfg = cell_config(AB_CELL, &opts);

    let mut cold = StoredSampler::new(img, fp, w.ref_seed(), scfg, &store).with_warm_bank(true);
    let (cold_points, cold_wall_s) =
        timed(|| cold.run_range(AB_CELL.engine, pcfg, 0..windows, opts.jobs));
    let cold_bank = cold.warm_bank_stats();
    assert_eq!(cold_bank.hits, 0, "serve A/B cold leg must start from an empty warm bank");

    let mut banked = StoredSampler::new(img, fp, w.ref_seed(), scfg, &store).with_warm_bank(true);
    let (banked_points, banked_wall_s) =
        timed(|| banked.run_range(AB_CELL.engine, pcfg, 0..windows, opts.jobs));
    let banked_bank = banked.warm_bank_stats();
    assert_eq!(
        banked_bank.hits, windows,
        "serve A/B banked leg must restore every window from the bank"
    );
    let identical = cold_points == banked_points;
    assert!(identical, "banked rerun must replay the cold run byte-identically");
    assert!(
        banked.timing().warm_ns < cold.timing().warm_ns,
        "restoring banked warm state must beat live warming ({} ns vs {} ns)",
        banked.timing().warm_ns,
        cold.timing().warm_ns
    );

    let _ = std::fs::remove_dir_all(&store_dir);
    ServeAb {
        windows,
        cold_wall_s,
        banked_wall_s,
        cold_warm_ns_per_window: cold.timing().warm_ns_per_window(),
        banked_warm_ns_per_window: banked.timing().warm_ns_per_window(),
        bank_entries_written: cold_bank.misses + cold_bank.rejected,
        bank_hits: banked_bank.hits,
        identical,
    }
}

/// The batched-execution A/B record: the full Fig. 8 grid swept three
/// ways against one shared pre-populated checkpoint store.
struct BatchAb {
    grid_cells: usize,
    batch: usize,
    windows: u64,
    per_window_wall_s: f64,
    batched_wall_s: f64,
    batched_banked_wall_s: f64,
    batched_speedup: f64,
    composed_speedup: f64,
    identical: bool,
    floor_checked: bool,
}

/// Throughput floor asserted on the composed (batched + banked) leg at
/// the default 50M-instruction grid scale.
const BATCH_AB_MIN_SPEEDUP: f64 = 5.0;

/// Sweeps the full Fig. 8 grid three ways: per-window (every cell
/// re-walks every window's functional span through its own executor),
/// batched (one shared functional sweep per window drives every cell,
/// bank off), and composed (batched + warm-bank restore — the resident
/// steady state, where the shared sweep starts at the post-warm
/// checkpoint). All three merges are asserted byte-identical; the
/// wall-clock ratios are therefore pure host-throughput deltas.
fn measure_batch_ab(w: &Workload, opts: HarnessOpts) -> BatchAb {
    let scfg = opts.grid_sample;
    let windows = scfg.windows(opts.grid_total);
    let grid = cells(&grid_engines(), &FIG8_WIDTHS);
    let batch = grid.len();
    let store_dir = std::env::temp_dir().join(format!("sfetch-batchab-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = CheckpointStore::open(&store_dir).expect("open batch A/B store");
    // All legs share pre-populated fast-forward checkpoints, so the A/B
    // isolates the window-sweep cost the batch executor removes.
    let img = w.image(LayoutChoice::Optimized);
    let fp = w.fingerprint(LayoutChoice::Optimized);
    StoredSampler::new(img, fp, w.ref_seed(), scfg, &store).populate(windows);
    let lines = |points: &[Vec<SamplePoint>]| -> Vec<String> {
        grid.iter()
            .zip(points)
            .flat_map(|(&cell, pts)| pts.iter().map(move |p| point_line(cell, p)))
            .collect()
    };
    let mut no_bank = opts;
    no_bank.warm_bank = false;

    // The per-window leg is the `StoredSampler` reference loop itself,
    // not a one-cell batch group, so the A/B keeps measuring what the
    // batched executor replaced.
    let (per_window, per_window_wall_s) = timed(|| {
        grid.iter()
            .map(|&c| {
                StoredSampler::new(img, fp, w.ref_seed(), scfg, &store).run_range(
                    c.engine,
                    cell_config(c, &no_bank),
                    0..windows,
                    no_bank.jobs,
                )
            })
            .collect::<Vec<_>>()
    });
    eprintln!("  per-window leg: {per_window_wall_s:.2}s");

    let (batched, batched_wall_s) =
        timed(|| run_cells_batched(w, &grid, batch, scfg, &no_bank, &store, 0..windows).0);
    eprintln!("  batched leg: {batched_wall_s:.2}s");

    // Composed leg: populate the warm bank once (unmeasured), then time
    // the rerun every resident resubmission pays.
    let mut banked_opts = opts;
    banked_opts.warm_bank = true;
    let _ = run_cells_batched(w, &grid, batch, scfg, &banked_opts, &store, 0..windows);
    let (banked, batched_banked_wall_s) =
        timed(|| run_cells_batched(w, &grid, batch, scfg, &banked_opts, &store, 0..windows).0);
    eprintln!("  batched+banked leg: {batched_banked_wall_s:.2}s");

    let base = lines(&per_window);
    let identical = base == lines(&batched) && base == lines(&banked);
    assert!(identical, "batched legs must merge byte-identically to the per-window oracle");
    let batched_speedup = per_window_wall_s / batched_wall_s;
    let composed_speedup = per_window_wall_s / batched_banked_wall_s;
    let floor_checked = opts.grid_total >= 50_000_000;
    if floor_checked {
        assert!(
            composed_speedup >= BATCH_AB_MIN_SPEEDUP,
            "composed batched+banked grid throughput {composed_speedup:.2}× fell below the \
             {BATCH_AB_MIN_SPEEDUP}× floor"
        );
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    BatchAb {
        grid_cells: grid.len(),
        batch,
        windows,
        per_window_wall_s,
        batched_wall_s,
        batched_banked_wall_s,
        batched_speedup,
        composed_speedup,
        identical,
        floor_checked,
    }
}

fn main() {
    maybe_run_fleet_child();
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let obs_opts = or_die(ObsOpts::extract(&mut raw));
    let opts = or_die(HarnessOpts::from_arg_list(&raw));
    let backend = if opts.legacy_scan { "legacy-scan" } else { "event" };
    eprintln!("generating ablation subset ({} jobs, {backend} back-end)…", opts.jobs);
    let (workloads, build_s) = timed(|| ablation_workloads(opts));

    let exec_insts = (opts.insts * 4).max(1_000_000);
    let executor_ns_per_inst = measure_executor(&workloads, exec_insts);
    println!(
        "oracle executor: {executor_ns_per_inst:.1} ns/inst ({:.1} Minst/s)",
        1e3 / executor_ns_per_inst
    );

    println!(
        "\n{:<18} {:>7} {:>12} {:>9} {:>9} {:>9}",
        "engine", "points", "sim insts", "wall (s)", "MIPS", "ns/cyc"
    );
    let mut rows = Vec::new();
    let t0 = Instant::now();
    for kind in EngineKind::ALL {
        let row = measure_engine(&workloads, kind, opts);
        println!(
            "{:<18} {:>7} {:>12} {:>9.2} {:>9.2} {:>9.2}",
            row.engine, row.points, row.simulated_insts, row.wall_s, row.mips, row.ns_per_cycle
        );
        rows.push(row);
    }

    // Front-pipeline calibration: each engine under its own front model
    // vs the legacy shared front, on the same windows as above.
    let front_rows = measure_front_pipeline(&workloads, opts);
    println!(
        "\nfront pipeline (8-wide, per-engine model vs legacy shared front):\n\
         {:<18} {:>5} {:>7} {:>7} {:>6} {:>12} {:>12} {:>8}",
        "engine", "depth", "redir", "decode", "shadow", "cycles", "legacy", "Δcyc"
    );
    for r in &front_rows {
        assert_eq!(
            r.legacy_cycles,
            rows.iter()
                .find(|e| e.engine == r.engine.to_string())
                .expect("engine row")
                .sim_cycles,
            "legacy front must reproduce the engines section bit-for-bit"
        );
        println!(
            "{:<18} {:>5} {:>7} {:>7} {:>6} {:>12} {:>12} {:>7.2}%",
            r.engine.to_string(),
            r.front.depth,
            r.front.redirect_penalty,
            r.front.decode_redirect_lat,
            r.front.shadow_decode,
            r.sim_cycles,
            r.legacy_cycles,
            100.0 * (r.sim_cycles as f64 / r.legacy_cycles as f64 - 1.0)
        );
    }

    // BENCH_7 pin: at the BENCH window, cycle accounting must not have
    // moved a single simulated cycle anywhere in either sweep.
    let pinned = !opts.legacy_scan && (opts.insts, opts.warmup) == BENCH_WINDOW;
    if pinned {
        let got: Vec<u64> = rows.iter().map(|r| r.sim_cycles).collect();
        assert_eq!(
            got,
            BENCH7_SIM_CYCLES.to_vec(),
            "engines sim_cycles deviate from the BENCH_7 record"
        );
        let front_got: Vec<u64> = front_rows.iter().map(|r| r.sim_cycles).collect();
        assert_eq!(
            front_got,
            BENCH7_FRONT_SIM_CYCLES.to_vec(),
            "front_pipeline sim_cycles deviate from the BENCH_7 record"
        );
        println!("\nBENCH_7 pin: per-engine sim_cycles bit-identical (engines + front_pipeline)");
    }

    // Top-down cycle accounting on the windows the engines section timed.
    println!(
        "\ncycle accounting (8-wide, legacy front, % of cycles):\n{:<18} {}",
        "engine",
        CycleBuckets::NAMES.iter().map(|n| format!("{n:>14}")).collect::<String>()
    );
    for r in &rows {
        let total = r.sim_cycles as f64;
        println!(
            "{:<18} {}",
            r.engine,
            r.buckets
                .to_array()
                .iter()
                .map(|&c| format!("{:>13.2}%", 100.0 * c as f64 / total))
                .collect::<String>()
        );
    }

    // Observability overhead: tracing off vs on, stats bit-identical.
    let obs_ab = measure_obs_overhead(&workloads[0], opts);
    println!(
        "\nobservability overhead (Streams/{}, 8-wide, tracing off vs on):\n  \
         off {:.2} ns/cyc, on {:.2} ns/cyc → {:+.2}% systematic overhead \
         (min paired on/off ratio, < {OBS_MAX_OVERHEAD_PCT}% asserted, \
         simulated stats bit-identical)",
        workloads[0].name(),
        obs_ab.off.ns_per_cycle(),
        obs_ab.on.ns_per_cycle(),
        obs_ab.overhead_pct,
    );

    // gzip keeps the deepest average flight depth of the ablation subset,
    // so it is where the scan's O(rob)-per-cycle cost shows clearest.
    let large_w = &workloads[0];
    let (event, scan) = measure_large_rob(large_w, opts);
    let speedup = scan.ns_per_cycle() / event.ns_per_cycle();
    println!(
        "\nlarge-ROB point (rob_entries = {LARGE_ROB}, Streams/{}, 8-wide):\n  \
         event-driven {:.2} ns/cyc, legacy scan {:.2} ns/cyc → {speedup:.2}× speedup",
        large_w.name(),
        event.ns_per_cycle(),
        scan.ns_per_cycle()
    );
    // Prefetch A/B: each engine's natural policy vs the blocking L1i.
    let ab_w = prefetch_ab_workload();
    println!("\nprefetch A/B ({}, 8-wide, natural policy per engine):", ab_w.name());
    println!(
        "{:<18} {:<12} {:>11} {:>11} {:>8} {:>8} {:>8}",
        "engine", "policy", "stall off", "stall on", "Δstall", "ΔIPC", "useful"
    );
    let mut ab_rows = Vec::new();
    for kind in EngineKind::ALL {
        let [off, on] = measure_prefetch_ab(&ab_w, kind, opts);
        let dstall = if off.stall_cycles == 0 {
            0.0
        } else {
            100.0 * (on.stall_cycles as f64 / off.stall_cycles as f64 - 1.0)
        };
        println!(
            "{:<18} {:<12} {:>11} {:>11} {:>7.1}% {:>7.2}% {:>8}",
            kind.to_string(),
            kind.natural_prefetch().to_string(),
            off.stall_cycles,
            on.stall_cycles,
            dstall,
            100.0 * (on.ipc / off.ipc - 1.0),
            on.useful
        );
        ab_rows.push((kind, off, on));
    }

    // Sampling A/B: the long-horizon phased workload, full vs sampled.
    eprintln!("building phased long-horizon workload…");
    let (phased_w, phased_build_s) = timed(phased::long_workload);
    eprintln!(
        "sampling A/B: {} insts full + sampled (U={},Wf={},Wd={},D={})…",
        opts.sample_total,
        opts.sample.interval,
        opts.sample.warm_func,
        opts.sample.warm_detail,
        opts.sample.measure,
    );
    let (full, sampled, est, windows) = measure_sampling_ab(&phased_w, opts);
    let rel_err = if full.ipc > 0.0 { (sampled.ipc - full.ipc).abs() / full.ipc } else { 0.0 };
    let sampling_speedup = full.wall_s / sampled.wall_s;
    println!(
        "\nsampling A/B ({}/{} insts, Streams, 8-wide):\n  \
         full     IPC {:.4} in {:.2}s\n  \
         sampled  IPC {:.4} [{:.4}, {:.4}] @{} over {windows} windows in {:.2}s\n  \
         relative error {:.2}%, wall-clock speedup {sampling_speedup:.1}×",
        phased_w.name(),
        opts.sample_total,
        full.ipc,
        full.wall_s,
        sampled.ipc,
        est.ipc_lo,
        est.ipc_hi,
        est.confidence,
        sampled.wall_s,
        rel_err * 100.0,
    );

    // Calibration grid: Fig. 8 engines × widths, sampled via the store.
    eprintln!(
        "calibration grid: {} cells × {} windows over {} insts (store-backed)…",
        grid_engines().len() * FIG8_WIDTHS.len(),
        opts.grid_sample.windows(opts.grid_total),
        opts.grid_total
    );
    let calib = measure_calibration_grid(&phased_w, opts, &obs_opts);
    let store_speedup = calib.cold_wall_s / calib.warm_wall_s;
    println!(
        "\ncalibration grid ({}/{} insts, {} windows, store-backed):",
        phased_w.name(),
        opts.grid_total,
        calib.windows
    );
    for run in &calib.runs {
        println!(
            "  {:<18} {}-wide  IPC {:.4} [{:.4}, {:.4}] ±{:.2}%",
            run.cell.engine.to_string(),
            run.cell.width,
            run.estimate.ipc,
            run.estimate.ipc_lo,
            run.estimate.ipc_hi,
            100.0 * run.estimate.rel_half_width
        );
    }
    if let Some((min, max, ratio)) = calib.spread {
        println!("  8-wide engine spread {max:.3}/{min:.3} = {ratio:.2}× (paper Fig. 8c ~3.5×)");
    }
    println!(
        "  store A/B (Streams, 8-wide): cold {:.3}s → warm rerun {:.3}s = {store_speedup:.2}× \
         (fast-forward amortized into {} store entries)",
        calib.cold_wall_s, calib.warm_wall_s, calib.store_entries
    );

    // Fleet resilience: the same grid slice clean vs chaos-injected.
    eprintln!(
        "fleet resilience A/B: 4 cells × {} windows, {FLEET_PROCS} workers, chaos seed \
         {FLEET_CHAOS_SEED}…",
        opts.grid_sample.windows(opts.grid_total)
    );
    let fleet = measure_fleet_resilience(&phased_w, opts);
    let fleet_overhead =
        100.0 * (fleet.chaos_wall_s / fleet.clean_wall_s - 1.0);
    println!(
        "\nfleet resilience ({}, {} cells, {} workers):\n  \
         clean {:.2}s ({} spawned) vs chaos {:.2}s ({} spawned, {} retries, {} kills) → \
         {fleet_overhead:+.1}% wall overhead, merged output byte-identical",
        phased_w.name(),
        fleet.fleet_cells,
        fleet.procs,
        fleet.clean_wall_s,
        fleet.clean_spawned,
        fleet.chaos_wall_s,
        fleet.chaos_spawned,
        fleet.chaos_retries,
        fleet.chaos_kills,
    );

    // Serve A/B: live warming vs banked warm-state restore, same cell.
    eprintln!(
        "serve A/B: {} windows, warm bank cold vs banked (Streams, 8-wide)…",
        opts.grid_sample.windows(opts.grid_total)
    );
    let serve = measure_serve_ab(&phased_w, opts);
    let serve_speedup = serve.cold_warm_ns_per_window as f64
        / (serve.banked_warm_ns_per_window.max(1)) as f64;
    println!(
        "\nserve A/B ({}, Streams, 8-wide, {} windows):\n  \
         live warming {} ns/window → banked restore {} ns/window = {serve_speedup:.1}× \
         ({} bank entries written, {} restored, points byte-identical)",
        phased_w.name(),
        serve.windows,
        serve.cold_warm_ns_per_window,
        serve.banked_warm_ns_per_window,
        serve.bank_entries_written,
        serve.bank_hits,
    );

    // Batch A/B: per-window vs batched vs batched+banked grid sweeps.
    eprintln!(
        "batch A/B: {} cells × {} windows, per-window vs one batched sweep…",
        grid_engines().len() * FIG8_WIDTHS.len(),
        opts.grid_sample.windows(opts.grid_total)
    );
    let batch_ab = measure_batch_ab(&phased_w, opts);
    println!(
        "\nbatch A/B ({}, {} cells, batch {}, {} windows):\n  \
         per-window {:.2}s → batched {:.2}s = {:.2}× → batched+banked {:.2}s = {:.2}× \
         (merged output byte-identical{})",
        phased_w.name(),
        batch_ab.grid_cells,
        batch_ab.batch,
        batch_ab.windows,
        batch_ab.per_window_wall_s,
        batch_ab.batched_wall_s,
        batch_ab.batched_speedup,
        batch_ab.batched_banked_wall_s,
        batch_ab.composed_speedup,
        if batch_ab.floor_checked {
            format!(", ≥{BATCH_AB_MIN_SPEEDUP}× floor asserted")
        } else {
            String::new()
        },
    );

    let total_wall_s = t0.elapsed().as_secs_f64();
    println!("\ntotal: {total_wall_s:.2}s simulation wall clock, {build_s:.2}s suite construction");

    let json = render_json(
        &opts,
        backend,
        build_s,
        executor_ns_per_inst,
        &rows,
        &front_rows,
        (large_w.name(), &event, &scan, speedup),
        (ab_w.name(), &ab_rows),
        (phased_w.name(), &full, &sampled, &est, windows, phased_build_s),
        (phased_w.name(), &calib, full.ipc),
        (phased_w.name(), &fleet),
        (workloads[0].name(), &obs_ab, pinned),
        (phased_w.name(), &serve),
        (phased_w.name(), &batch_ab),
        total_wall_s,
    );
    std::fs::write("BENCH_10.json", &json).expect("write BENCH_10.json");
    println!("wrote BENCH_10.json");
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    opts: &HarnessOpts,
    backend: &str,
    build_s: f64,
    executor_ns_per_inst: f64,
    rows: &[EngineRow],
    front_rows: &[FrontRow],
    large_rob: (&str, &TimedLeg, &TimedLeg, f64),
    prefetch_ab: (&str, &[(EngineKind, PrefetchLeg, PrefetchLeg)]),
    sampling_ab: (&str, &SamplingLeg, &SamplingLeg, &Estimate, u64, f64),
    calibration: (&str, &CalibrationGrid, f64),
    fleet: (&str, &FleetResilience),
    accounting: (&str, &ObsOverhead, bool),
    serve_ab: (&str, &ServeAb),
    batch_ab: (&str, &BatchAb),
    total_wall_s: f64,
) -> String {
    let (bench, event, scan, speedup) = large_rob;
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"sfetch-perfstats-v10\",");
    let _ = writeln!(s, "  \"backend\": \"{backend}\",");
    let _ = writeln!(s, "  \"insts_per_point\": {},", opts.insts);
    let _ = writeln!(s, "  \"warmup_per_point\": {},", opts.warmup);
    let _ = writeln!(s, "  \"jobs\": {},", opts.jobs);
    let _ = writeln!(s, "  \"rob_entries\": {},", ProcessorConfig::table2(8).rob_entries);
    let _ = writeln!(s, "  \"suite_build_s\": {build_s:.3},");
    let _ = writeln!(s, "  \"executor_ns_per_inst\": {executor_ns_per_inst:.2},");
    s.push_str("  \"engines\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"engine\": \"{}\", \"points\": {}, \"simulated_insts\": {}, \"sim_cycles\": {}, \"wall_s\": {:.3}, \"mips\": {:.3}, \"ns_per_cycle\": {:.2}}}{}",
            r.engine,
            r.points,
            r.simulated_insts,
            r.sim_cycles,
            r.wall_s,
            r.mips,
            r.ns_per_cycle,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"front_pipeline\": [\n");
    for (i, r) in front_rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"engine\": \"{}\", \"depth\": {}, \"redirect_penalty\": {}, \
             \"decode_redirect_lat\": {}, \"shadow_decode\": {}, \"sim_cycles\": {}, \
             \"legacy_cycles\": {}, \"hold_redirect_cycles\": {}, \"hold_decode_cycles\": {}, \
             \"shadow_installs\": {}}}{}",
            engine_key(r.engine),
            r.front.depth,
            r.front.redirect_penalty,
            r.front.decode_redirect_lat,
            r.front.shadow_decode,
            r.sim_cycles,
            r.legacy_cycles,
            r.hold_redirect_cycles,
            r.hold_decode_cycles,
            r.shadow_installs,
            if i + 1 < front_rows.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"large_rob\": {\n");
    let _ = writeln!(s, "    \"bench\": \"{bench}\", \"engine\": \"Streams\", \"width\": 8,");
    let _ = writeln!(s, "    \"rob_entries\": {LARGE_ROB}, \"insts\": {},", opts.insts);
    for (name, leg) in [("event", event), ("legacy_scan", scan)] {
        let _ = writeln!(
            s,
            "    \"{name}\": {{\"wall_s\": {:.3}, \"cycles\": {}, \"ns_per_cycle\": {:.2}, \"mips\": {:.3}}},",
            leg.wall_s,
            leg.cycles,
            leg.ns_per_cycle(),
            leg.mips()
        );
    }
    let _ = writeln!(s, "    \"speedup\": {speedup:.2}");
    s.push_str("  },\n");
    let (ab_bench, ab_rows) = prefetch_ab;
    s.push_str("  \"prefetch_ab\": {\n");
    let _ = writeln!(s, "    \"bench\": \"{ab_bench}\", \"width\": 8, \"mshrs\": 8,");
    s.push_str("    \"engines\": [\n");
    for (i, (kind, off, on)) in ab_rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "      {{\"engine\": \"{kind}\", \"policy\": \"{}\",",
            kind.natural_prefetch()
        );
        for (name, leg, comma) in [("off", off, ","), ("on", on, "}")] {
            let _ = writeln!(
                s,
                "       \"{name}\": {{\"cycles\": {}, \"ipc\": {:.4}, \"fetch_stall_cycles\": {}, \
                 \"issued\": {}, \"useful\": {}, \"late\": {}, \"polluting\": {}}}{comma}{}",
                leg.cycles,
                leg.ipc,
                leg.stall_cycles,
                leg.issued,
                leg.useful,
                leg.late,
                leg.polluting,
                if comma == "}" && i + 1 < ab_rows.len() { "," } else { "" }
            );
        }
    }
    s.push_str("    ]\n");
    s.push_str("  },\n");
    let (sa_bench, sa_full, sa_sampled, sa_est, sa_windows, sa_build_s) = sampling_ab;
    let sa_rel_err = if sa_full.ipc > 0.0 {
        (sa_sampled.ipc - sa_full.ipc).abs() / sa_full.ipc
    } else {
        0.0
    };
    s.push_str("  \"sampling_ab\": {\n");
    let _ = writeln!(s, "    \"bench\": \"{sa_bench}\", \"engine\": \"Streams\", \"width\": 8,");
    let _ = writeln!(
        s,
        "    \"total_insts\": {}, \"workload_build_s\": {sa_build_s:.3}, \"window_jobs\": {},",
        opts.sample_total, opts.jobs
    );
    let _ = writeln!(
        s,
        "    \"schedule\": {{\"interval\": {}, \"warm_func\": {}, \"warm_mem\": {}, \
         \"warm_detail\": {}, \"measure\": {}, \"confidence\": \"{}\"}},",
        opts.sample.interval,
        opts.sample.warm_func,
        opts.sample.warm_mem,
        opts.sample.warm_detail,
        opts.sample.measure,
        opts.sample.confidence,
    );
    let _ = writeln!(
        s,
        "    \"full\": {{\"ipc\": {:.4}, \"committed\": {}, \"cycles\": {}, \"wall_s\": {:.3}}},",
        sa_full.ipc, sa_full.committed, sa_full.cycles, sa_full.wall_s
    );
    let _ = writeln!(
        s,
        "    \"sampled\": {{\"ipc\": {:.4}, \"ipc_lo\": {:.4}, \"ipc_hi\": {:.4}, \
         \"rel_half_width\": {:.4}, \"windows\": {sa_windows}, \"detailed_committed\": {}, \
         \"detailed_cycles\": {}, \"wall_s\": {:.3}}},",
        sa_sampled.ipc,
        sa_est.ipc_lo,
        sa_est.ipc_hi,
        sa_est.rel_half_width,
        sa_sampled.committed,
        sa_sampled.cycles,
        sa_sampled.wall_s
    );
    let _ = writeln!(
        s,
        "    \"rel_error\": {sa_rel_err:.4}, \"speedup\": {:.2}",
        sa_full.wall_s / sa_sampled.wall_s
    );
    s.push_str("  },\n");
    let (cg_bench, cg, full_ipc) = calibration;
    s.push_str("  \"calibration_grid\": {\n");
    let _ = writeln!(
        s,
        "    \"bench\": \"{cg_bench}\", \"total_insts\": {}, \"windows\": {}, \"layout\": \"optimized\",",
        opts.grid_total, cg.windows
    );
    let _ = writeln!(
        s,
        "    \"front_pipeline\": \"{}\", \"grid_prefetch\": \"{}\",",
        opts.front.as_str(),
        opts.grid_prefetch.as_str()
    );
    let _ = writeln!(
        s,
        "    \"schedule\": {{\"interval\": {}, \"warm_func\": {}, \"warm_mem\": {}, \
         \"warm_detail\": {}, \"measure\": {}, \"confidence\": \"{}\"}},",
        opts.grid_sample.interval,
        opts.grid_sample.warm_func,
        opts.grid_sample.warm_mem,
        opts.grid_sample.warm_detail,
        opts.grid_sample.measure,
        opts.grid_sample.confidence,
    );
    s.push_str("    \"points\": [\n");
    for (i, run) in cg.runs.iter().enumerate() {
        let _ = writeln!(
            s,
            "      {{\"engine\": \"{}\", \"width\": {}, \"ipc\": {:.4}, \"ipc_lo\": {:.4}, \
             \"ipc_hi\": {:.4}, \"rel_half_width\": {:.4}, \"windows\": {}}}{}",
            engine_key(run.cell.engine),
            run.cell.width,
            run.estimate.ipc,
            run.estimate.ipc_lo,
            run.estimate.ipc_hi,
            run.estimate.rel_half_width,
            run.estimate.windows,
            if i + 1 < cg.runs.len() { "," } else { "" }
        );
    }
    s.push_str("    ],\n");
    if let Some((min, max, ratio)) = cg.spread {
        let _ = writeln!(
            s,
            "    \"spread_8wide\": {{\"min_ipc\": {min:.4}, \"max_ipc\": {max:.4}, \
             \"ratio\": {ratio:.3}, \"paper_ratio\": 3.5}},"
        );
    }
    let cg_stream8 = cg
        .runs
        .iter()
        .find(|r| r.cell == AB_CELL)
        .map(|r| r.estimate.ipc)
        .unwrap_or(0.0);
    let cg_rel = if full_ipc > 0.0 { (cg_stream8 - full_ipc).abs() / full_ipc } else { 0.0 };
    let _ = writeln!(
        s,
        "    \"stream8_vs_full\": {{\"grid_ipc\": {cg_stream8:.4}, \"sampling_ab_full_ipc\": \
         {full_ipc:.4}, \"rel_error\": {cg_rel:.4}}},"
    );
    let _ = writeln!(
        s,
        "    \"store_ab\": {{\"engine\": \"{}\", \"width\": {}, \"cold_wall_s\": {:.3}, \
         \"warm_wall_s\": {:.3}, \"speedup\": {:.2}, \"store_entries\": {}}}",
        engine_key(AB_CELL.engine),
        AB_CELL.width,
        cg.cold_wall_s,
        cg.warm_wall_s,
        cg.cold_wall_s / cg.warm_wall_s,
        cg.store_entries
    );
    s.push_str("  },\n");
    let (fr_bench, fr) = fleet;
    s.push_str("  \"fleet_resilience\": {\n");
    let _ = writeln!(
        s,
        "    \"bench\": \"{fr_bench}\", \"engines\": [\"stream\", \"ev8\"], \"widths\": [4, 8],"
    );
    let _ = writeln!(
        s,
        "    \"procs\": {}, \"fleet_cells\": {}, \"chaos_seed\": {},",
        fr.procs, fr.fleet_cells, fr.chaos_seed
    );
    let _ = writeln!(
        s,
        "    \"clean\": {{\"wall_s\": {:.3}, \"spawned\": {}}},",
        fr.clean_wall_s, fr.clean_spawned
    );
    let _ = writeln!(
        s,
        "    \"chaos\": {{\"wall_s\": {:.3}, \"spawned\": {}, \"retries\": {}, \"kills\": {}}},",
        fr.chaos_wall_s, fr.chaos_spawned, fr.chaos_retries, fr.chaos_kills
    );
    let _ = writeln!(
        s,
        "    \"overhead_pct\": {:.1}, \"identical\": {}",
        100.0 * (fr.chaos_wall_s / fr.clean_wall_s - 1.0),
        fr.identical
    );
    s.push_str("  },\n");
    let (ob_bench, ob, pinned) = accounting;
    let bucket_list = |b: &CycleBuckets| -> (String, String) {
        let counts = b.to_array();
        let total = b.sum().max(1) as f64;
        (
            counts.iter().map(u64::to_string).collect::<Vec<_>>().join(", "),
            counts
                .iter()
                .map(|&c| format!("{:.4}", c as f64 / total))
                .collect::<Vec<_>>()
                .join(", "),
        )
    };
    s.push_str("  \"cycle_accounting\": {\n");
    let _ = writeln!(
        s,
        "    \"buckets\": [{}],",
        CycleBuckets::NAMES.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(", ")
    );
    s.push_str("    \"seed_suite\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let (counts, shares) = bucket_list(&r.buckets);
        let _ = writeln!(
            s,
            "      {{\"engine\": \"{}\", \"sim_cycles\": {}, \"counts\": [{counts}], \
             \"shares\": [{shares}]}}{}",
            r.engine,
            r.sim_cycles,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    s.push_str("    ],\n");
    let (_, cg, _) = calibration;
    s.push_str("    \"phased_grid_8wide\": [\n");
    for (i, (kind, agg)) in cg.bucket_rows.iter().enumerate() {
        let (counts, shares) = bucket_list(&agg.buckets);
        let _ = writeln!(
            s,
            "      {{\"engine\": \"{}\", \"sim_cycles\": {}, \"counts\": [{counts}], \
             \"shares\": [{shares}]}}{}",
            engine_key(*kind),
            agg.cycles,
            if i + 1 < cg.bucket_rows.len() { "," } else { "" }
        );
    }
    s.push_str("    ],\n");
    let _ = writeln!(
        s,
        "    \"bench7_pin\": {{\"checked\": {pinned}, \"engines_sim_cycles\": [{}], \
         \"front_sim_cycles\": [{}]}},",
        BENCH7_SIM_CYCLES.map(|c| c.to_string()).join(", "),
        BENCH7_FRONT_SIM_CYCLES.map(|c| c.to_string()).join(", "),
    );
    let _ = writeln!(
        s,
        "    \"tracing_overhead\": {{\"bench\": \"{ob_bench}\", \"engine\": \"Streams\", \
         \"width\": 8, \"off_ns_per_cycle\": {:.2}, \"on_ns_per_cycle\": {:.2}, \
         \"overhead_pct\": {:.2}, \"asserted_max_pct\": {OBS_MAX_OVERHEAD_PCT}, \
         \"identical\": true}}",
        ob.off.ns_per_cycle(),
        ob.on.ns_per_cycle(),
        ob.overhead_pct,
    );
    s.push_str("  },\n");
    let (sv_bench, sv) = serve_ab;
    s.push_str("  \"serve_ab\": {\n");
    let _ = writeln!(
        s,
        "    \"bench\": \"{sv_bench}\", \"engine\": \"{}\", \"width\": {}, \"windows\": {},",
        engine_key(AB_CELL.engine),
        AB_CELL.width,
        sv.windows
    );
    let _ = writeln!(
        s,
        "    \"cold\": {{\"wall_s\": {:.3}, \"warm_ns_per_window\": {}, \
         \"bank_entries_written\": {}}},",
        sv.cold_wall_s, sv.cold_warm_ns_per_window, sv.bank_entries_written
    );
    let _ = writeln!(
        s,
        "    \"banked\": {{\"wall_s\": {:.3}, \"warm_ns_per_window\": {}, \"bank_hits\": {}}},",
        sv.banked_wall_s, sv.banked_warm_ns_per_window, sv.bank_hits
    );
    let _ = writeln!(
        s,
        "    \"warm_speedup\": {:.2}, \"identical\": {}",
        sv.cold_warm_ns_per_window as f64 / (sv.banked_warm_ns_per_window.max(1)) as f64,
        sv.identical
    );
    s.push_str("  },\n");
    let (ba_bench, ba) = batch_ab;
    s.push_str("  \"batch_ab\": {\n");
    let _ = writeln!(
        s,
        "    \"bench\": \"{ba_bench}\", \"grid_cells\": {}, \"batch\": {}, \"windows\": {},",
        ba.grid_cells, ba.batch, ba.windows
    );
    let _ = writeln!(s, "    \"per_window\": {{\"wall_s\": {:.3}}},", ba.per_window_wall_s);
    let _ = writeln!(
        s,
        "    \"batched\": {{\"wall_s\": {:.3}, \"speedup\": {:.2}}},",
        ba.batched_wall_s, ba.batched_speedup
    );
    let _ = writeln!(
        s,
        "    \"batched_banked\": {{\"wall_s\": {:.3}, \"speedup\": {:.2}}},",
        ba.batched_banked_wall_s, ba.composed_speedup
    );
    let _ = writeln!(
        s,
        "    \"floor\": {BATCH_AB_MIN_SPEEDUP}, \"floor_checked\": {}, \"identical\": {}",
        ba.floor_checked, ba.identical
    );
    s.push_str("  },\n");
    let _ = writeln!(s, "  \"total_wall_s\": {total_wall_s:.3}");
    s.push_str("}\n");
    s
}
