//! The sampled-simulation driver: fast-forward, functional warming,
//! per-window detailed simulation.

use sfetch_cfg::CodeImage;
use sfetch_core::{Processor, ProcessorConfig, SimStats};
use sfetch_fetch::{
    Checkpoint, CommittedControl, CommittedInst, EngineKind, FetchEngine, ResolvedBranch,
};
use sfetch_mem::{MemoryConfig, MemoryHierarchy};
use sfetch_trace::{ArchCheckpoint, DynInst, Executor};

use crate::config::SampleConfig;
use crate::stats::{estimate, Estimate};

/// Committed records handed to [`sfetch_fetch::FetchEngine::warm_block`]
/// per call during functional warming.
pub(crate) const WARM_BATCH: usize = 512;

/// One measured sample window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplePoint {
    /// Window index (= sampling-unit index within the run).
    pub window: u64,
    /// Committed-instruction offset at which the *measured* phase starts.
    pub start_inst: u64,
    /// Instructions committed in the measured phase (may overshoot the
    /// nominal `D` by up to `width - 1`, as the full sim loop does).
    pub committed: u64,
    /// Cycles the measured phase took.
    pub cycles: u64,
    /// Fetch-stall cycles (I-cache miss stalls) in the measured phase —
    /// the per-sample stall capture that shows where IPC went.
    pub stall_cycles: u64,
    /// Execute-time misprediction recoveries in the measured phase.
    pub mispredictions: u64,
}

impl SamplePoint {
    /// Instructions per cycle of this window.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction of this window (the quantity the t-interval
    /// estimate averages: windows are equal-sized in instructions, so the
    /// mean of per-window CPIs estimates whole-run CPI without weighting).
    pub fn cpi(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.cycles as f64 / self.committed as f64
        }
    }
}

/// A finished sampled run: every window plus the aggregate estimate.
#[derive(Debug, Clone)]
pub struct SampledRun {
    /// Per-window measurements, in window order.
    pub points: Vec<SamplePoint>,
    /// Student-t aggregate over the windows.
    pub estimate: Estimate,
}

/// The systematic sampler: owns the *master* architectural executor that
/// walks the whole run, and spawns one independent detailed simulation
/// per sampling unit.
///
/// The master only ever stops at sampling-unit boundaries, where its
/// state is checkpointable ([`Sampler::checkpoint`]) — a shard process
/// resumes from such a checkpoint ([`Sampler::resume`]) and produces
/// bit-identical windows, because each window's simulation derives only
/// from the master state at its own unit boundary.
pub struct Sampler<'a> {
    image: &'a CodeImage,
    kind: EngineKind,
    pcfg: ProcessorConfig,
    scfg: SampleConfig,
    master: Executor<'a>,
    window: u64,
}

impl<'a> Sampler<'a> {
    /// Creates a sampler at the start of the trace.
    ///
    /// # Panics
    ///
    /// Panics if `scfg` fails [`SampleConfig::validate`].
    pub fn new(
        image: &'a CodeImage,
        kind: EngineKind,
        pcfg: ProcessorConfig,
        scfg: SampleConfig,
        seed: u64,
    ) -> Self {
        scfg.validate();
        Sampler { image, kind, pcfg, scfg, master: Executor::from_image(image, seed), window: 0 }
    }

    /// Resumes a sampler from an architectural checkpoint captured at a
    /// sampling-unit boundary (see [`Sampler::checkpoint`]).
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint is not at a unit boundary or was captured
    /// on a different image.
    pub fn resume(
        image: &'a CodeImage,
        kind: EngineKind,
        pcfg: ProcessorConfig,
        scfg: SampleConfig,
        cp: &ArchCheckpoint,
    ) -> Self {
        scfg.validate();
        assert!(
            cp.seq.is_multiple_of(scfg.interval),
            "checkpoint at instruction {} is not a sampling-unit boundary (U = {})",
            cp.seq,
            scfg.interval
        );
        let window = cp.seq / scfg.interval;
        Sampler { image, kind, pcfg, scfg, master: Executor::from_checkpoint(image, cp), window }
    }

    /// Index of the next window this sampler will measure.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Captures the master executor's state at the current sampling-unit
    /// boundary. Handing this to [`Sampler::resume`] in another process
    /// continues the run bit-identically.
    pub fn checkpoint(&self) -> ArchCheckpoint {
        let cp = self.master.checkpoint();
        debug_assert!(cp.seq.is_multiple_of(self.scfg.interval));
        cp
    }

    /// Fast-forwards past `n` whole sampling units without measuring them
    /// (pure architectural execution — no warming, no detail).
    pub fn skip(&mut self, n: u64) {
        advance(&mut self.master, n * self.scfg.interval);
        self.window += n;
    }

    /// Advances the master through one sampling unit, returning the
    /// window index and the architectural snapshot at the unit's warming
    /// start — everything a window simulation derives from.
    fn take_snapshot(&mut self) -> (u64, Executor<'a>) {
        advance(&mut self.master, self.scfg.fast_forward());
        let snap = self.master.clone();
        // The master proceeds straight to the next unit boundary; the
        // window simulation runs on the clone.
        advance(
            &mut self.master,
            self.scfg.warm_func + self.scfg.warm_detail + self.scfg.measure,
        );
        let w = self.window;
        self.window += 1;
        (w, snap)
    }

    /// Runs the next sampling unit: fast-forward, then an independent
    /// warmed detailed simulation of the unit's measured window.
    pub fn next_window(&mut self) -> SamplePoint {
        self.next_window_full().0
    }

    /// Like [`Sampler::next_window`], also returning the measured phase's
    /// complete [`SimStats`] (for stall decomposition and diagnostics).
    ///
    /// On the serial path the master *adopts* the window simulation's
    /// post-warming executor instead of re-walking the warming span —
    /// both walked exactly the same instructions, so the state is
    /// bit-identical and the horizon is traversed once, not twice.
    pub fn next_window_full(&mut self) -> (SamplePoint, SimStats) {
        let scfg = self.scfg;
        advance(&mut self.master, scfg.fast_forward());
        let snap = self.master.clone();
        let w = self.window;
        self.window += 1;
        let (point, stats, post_warm) =
            window_point(self.image, self.kind, self.pcfg, &scfg, w, snap, true);
        self.master = post_warm.expect("capture requested");
        advance(&mut self.master, scfg.warm_detail + scfg.measure);
        (point, stats)
    }

    /// Measures the next `n` windows serially.
    pub fn run(&mut self, n: u64) -> Vec<SamplePoint> {
        (0..n).map(|_| self.next_window()).collect()
    }

    /// Measures the next `n` windows with up to `jobs` worker threads.
    ///
    /// Windows are mutually independent — each derives only from the
    /// master's architectural snapshot at its own unit boundary — so the
    /// master walks the trace serially (cheap) while window simulations
    /// (warming + detail, the expensive part) fan out across threads.
    /// Results are **bit-identical** to [`Sampler::run`] for any `jobs`,
    /// mirroring the repository's parallel-grid guarantee.
    pub fn run_parallel(&mut self, n: u64, jobs: usize) -> Vec<SamplePoint> {
        let jobs = jobs.max(1);
        if jobs == 1 {
            return self.run(n);
        }
        let (image, kind, pcfg, scfg) = (self.image, self.kind, self.pcfg, self.scfg);
        let mut out = Vec::with_capacity(n as usize);
        let mut remaining = n;
        while remaining > 0 {
            // One chunk of snapshots at a time bounds the resident
            // executor clones (each carries per-slot execution counts).
            let chunk = remaining.min(jobs as u64);
            let snaps: Vec<(u64, Executor<'a>)> =
                (0..chunk).map(|_| self.take_snapshot()).collect();
            std::thread::scope(|s| {
                let handles: Vec<_> = snaps
                    .into_iter()
                    .map(|(w, snap)| {
                        // No post-warm capture: the master advanced
                        // through the span itself.
                        s.spawn(move || window_point(image, kind, pcfg, &scfg, w, snap, false).0)
                    })
                    .collect();
                out.extend(handles.into_iter().map(|h| h.join().expect("window worker")));
            });
            remaining -= chunk;
        }
        out
    }
}

fn advance(e: &mut Executor<'_>, n: u64) {
    for _ in 0..n {
        e.next();
    }
}

/// The warming record of one committed instruction: what functional
/// warming feeds [`sfetch_fetch::FetchEngine::warm_block`].
pub fn committed_record(d: &DynInst) -> CommittedInst {
    CommittedInst {
        pc: d.pc,
        control: d.control.map(|c| CommittedControl {
            kind: c.kind,
            taken: c.taken,
            target: c.target,
            next_pc: c.next_pc,
            is_fixup: c.is_fixup,
        }),
        // No front-end ran during warming, so no redirect was observed;
        // hysteresis trained by this bit catches up in detailed warmup.
        mispredicted: false,
    }
}

/// Runs one window simulation ([`warm_window`] + [`measure_window`]) and
/// folds the result into a [`SamplePoint`]. With `capture_post` the
/// third element is the executor state right after functional warming
/// (= the snapshot advanced `Wf` instructions), which the serial sampler
/// adopts as its master to avoid re-walking the horizon; the parallel
/// path skips the clone (it would be discarded). This live walk is the
/// reference the store-backed sweep ([`crate::batch`]) is held to; it
/// touches neither the checkpoint store nor the warm bank.
fn window_point<'a>(
    image: &'a CodeImage,
    kind: EngineKind,
    pcfg: ProcessorConfig,
    scfg: &SampleConfig,
    window: u64,
    snap: Executor<'a>,
    capture_post: bool,
) -> (SamplePoint, SimStats, Option<Executor<'a>>) {
    let ww = warm_window(kind, pcfg, scfg, snap);
    let (stats, post_warm) = measure_window(image, pcfg, scfg, ww, capture_post);
    (point_from_stats(window, scfg, &stats), stats, post_warm)
}

/// Folds one window's measured-phase statistics into its [`SamplePoint`].
pub(crate) fn point_from_stats(window: u64, scfg: &SampleConfig, stats: &SimStats) -> SamplePoint {
    SamplePoint {
        window,
        start_inst: window * scfg.interval
            + scfg.fast_forward()
            + scfg.warm_func
            + scfg.warm_detail,
        committed: stats.committed,
        cycles: stats.cycles,
        stall_cycles: stats.engine.icache_stall_cycles,
        mispredictions: stats.mispredictions,
    }
}

/// The product of one window's functional-warming phase: the executor at
/// the window start (= warming start advanced `Wf` instructions), the
/// warmed fetch engine, and the warmed (pre-pipeline) memory hierarchy.
/// Everything [`measure_window`] needs.
struct WarmedWindow<'a> {
    /// Executor positioned at the window's detailed-warmup start.
    exec: Executor<'a>,
    /// Fetch engine with warmed commit-side structures.
    engine: Box<dyn FetchEngine>,
    /// Memory hierarchy with warmed cache tag/LRU state.
    mem: MemoryHierarchy,
}

/// Functional warming over `Wf` architectural instructions into fresh
/// caches/predictors (the memory hierarchy only over the last `warm_mem`
/// — cache state converges far faster than predictor tables).
fn warm_window<'a>(
    kind: EngineKind,
    pcfg: ProcessorConfig,
    scfg: &SampleConfig,
    mut exec: Executor<'a>,
) -> WarmedWindow<'a> {
    let mut mem = MemoryHierarchy::new(MemoryConfig::table2(pcfg.width));
    let mut engine = kind.build_for(pcfg.width, exec.pc(), &pcfg.prefetch, &pcfg.front);
    let line_bytes = mem.l1i_line_bytes();
    let mem_from = scfg.warm_func - scfg.warm_mem;
    let mut last_line = u64::MAX;
    let mut batch: Vec<CommittedInst> = Vec::with_capacity(WARM_BATCH);
    for i in 0..scfg.warm_func {
        let d = exec.next().expect("executor is infinite");
        if i >= mem_from {
            let line = d.pc.line_index(line_bytes);
            if line != last_line {
                mem.warm_inst(d.pc);
                last_line = line;
            }
            if let Some(a) = d.mem_addr {
                mem.warm_data(a);
            }
        }
        batch.push(committed_record(&d));
        if batch.len() == WARM_BATCH {
            engine.warm_block(&batch);
            batch.clear();
        }
    }
    if !batch.is_empty() {
        engine.warm_block(&batch);
    }
    WarmedWindow { exec, engine, mem }
}

/// The detailed phase of one window: resync the warmed engine's fetch
/// cursor to the window start (the watchdog-style redirect: no branch
/// kind, clean checkpoint), then run `Wd` discarded + `D` measured
/// instructions. With `capture_post`, also returns the pre-detail
/// executor state.
fn measure_window<'a>(
    image: &'a CodeImage,
    pcfg: ProcessorConfig,
    scfg: &SampleConfig,
    ww: WarmedWindow<'a>,
    capture_post: bool,
) -> (SimStats, Option<Executor<'a>>) {
    let WarmedWindow { exec, mut engine, mem } = ww;
    let start = exec.pc();
    engine.redirect(
        0,
        start,
        &Checkpoint::default(),
        &ResolvedBranch { pc: start, kind: None, taken: false, target: start },
    );
    let post_warm = capture_post.then(|| exec.clone());
    let mut p = Processor::with_state(pcfg, engine, image, exec, mem);
    p.run(scfg.warm_detail);
    p.reset_stats();
    p.run(scfg.measure);
    (p.stats(), post_warm)
}

/// Runs a whole sampled simulation over `total_insts` committed
/// instructions and aggregates the estimate (serial windows; see
/// [`Sampler::run_parallel`] for the bit-identical threaded walk).
pub fn run_sampled(
    image: &CodeImage,
    kind: EngineKind,
    pcfg: ProcessorConfig,
    seed: u64,
    total_insts: u64,
    scfg: &SampleConfig,
) -> SampledRun {
    let points = Sampler::new(image, kind, pcfg, *scfg, seed).run(scfg.windows(total_insts));
    let estimate = estimate(&points, scfg.confidence);
    SampledRun { points, estimate }
}

/// The sampling-**disabled** mode: one straight-through detailed
/// simulation, constructed exactly as [`sfetch_core::simulate`]
/// constructs it (the lockstep tests assert bit-identical statistics) —
/// but without needing the `Cfg`, so it also serves as the full-run
/// ground truth a sampled estimate is checked against.
pub fn run_full_detailed(
    image: &CodeImage,
    kind: EngineKind,
    pcfg: ProcessorConfig,
    seed: u64,
    warmup: u64,
    insts: u64,
) -> SimStats {
    let engine = kind.build_for(pcfg.width, image.entry(), &pcfg.prefetch, &pcfg.front);
    let mem = MemoryHierarchy::new(MemoryConfig::table2(pcfg.width));
    let mut p = Processor::with_state(pcfg, engine, image, Executor::from_image(image, seed), mem);
    p.run(warmup);
    p.reset_stats();
    p.run(insts);
    p.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfetch_cfg::gen::{GenParams, ProgramGenerator};
    use sfetch_cfg::layout;

    fn image() -> CodeImage {
        let cfg = ProgramGenerator::new(GenParams::small(), 21).generate();
        let lay = layout::natural(&cfg);
        CodeImage::build(&cfg, &lay)
    }

    fn quick_cfg() -> SampleConfig {
        SampleConfig {
            interval: 40_000,
            warm_func: 6_000,
            warm_mem: 6_000,
            warm_detail: 1_000,
            measure: 2_000,
            ..Default::default()
        }
    }

    #[test]
    fn windows_commit_the_measured_length() {
        let img = image();
        let scfg = quick_cfg();
        let pcfg = ProcessorConfig::table2(4);
        let mut s = Sampler::new(&img, EngineKind::Stream, pcfg, scfg, 7);
        for p in s.run(4) {
            assert!(p.committed >= scfg.measure && p.committed < scfg.measure + 4);
            assert!(p.cycles > 0);
            assert!(p.ipc() > 0.0 && p.ipc() <= 4.0);
            assert!((p.cpi() - 1.0 / p.ipc()).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let img = image();
        let scfg = quick_cfg();
        let pcfg = ProcessorConfig::table2(4);
        let a = run_sampled(&img, EngineKind::Ftb, pcfg, 3, 200_000, &scfg);
        let b = run_sampled(&img, EngineKind::Ftb, pcfg, 3, 200_000, &scfg);
        assert_eq!(a.points, b.points);
        assert_eq!(a.points.len(), 5);
    }

    #[test]
    fn resume_from_checkpoint_reproduces_windows() {
        let img = image();
        let scfg = quick_cfg();
        let pcfg = ProcessorConfig::table2(4);
        // Straight run of 6 windows.
        let mut straight = Sampler::new(&img, EngineKind::Stream, pcfg, scfg, 9);
        let all = straight.run(6);
        // Shard B: skip 3 windows, checkpoint, resume elsewhere.
        let mut head = Sampler::new(&img, EngineKind::Stream, pcfg, scfg, 9);
        head.skip(3);
        let cp = head.checkpoint();
        assert_eq!(cp.seq, 3 * scfg.interval);
        let mut tail = Sampler::resume(&img, EngineKind::Stream, pcfg, scfg, &cp);
        assert_eq!(tail.window(), 3);
        let tail_points = tail.run(3);
        assert_eq!(&all[3..], &tail_points[..], "resumed shard must be bit-identical");
    }

    #[test]
    fn parallel_windows_are_bit_identical_to_serial() {
        let img = image();
        let scfg = quick_cfg();
        let pcfg = ProcessorConfig::table2(4);
        let serial = run_sampled(&img, EngineKind::Stream, pcfg, 11, 320_000, &scfg);
        for jobs in [2, 3, 8] {
            let par = Sampler::new(&img, EngineKind::Stream, pcfg, scfg, 11)
                .run_parallel(scfg.windows(320_000), jobs);
            assert_eq!(serial.points, par, "jobs = {jobs}");
        }
    }

    #[test]
    fn full_detailed_run_is_deterministic_and_window_free() {
        let img = image();
        let pcfg = ProcessorConfig::table2(4);
        let a = run_full_detailed(&img, EngineKind::Ev8, pcfg, 5, 2_000, 20_000);
        let b = run_full_detailed(&img, EngineKind::Ev8, pcfg, 5, 2_000, 20_000);
        assert_eq!(a, b);
        assert!(a.committed >= 20_000);
    }

    #[test]
    #[should_panic(expected = "not a sampling-unit boundary")]
    fn resume_rejects_misaligned_checkpoints() {
        let img = image();
        let scfg = quick_cfg();
        let mut ex = Executor::from_image(&img, 1);
        ex.next();
        let cp = ex.checkpoint();
        let _ = Sampler::resume(&img, EngineKind::Stream, ProcessorConfig::table2(4), scfg, &cp);
    }
}
