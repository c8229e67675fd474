//! **The store-backed window sweep**: one functional walk drives every
//! cell's detailed window.
//!
//! The checkpoint store removed the fast-forward cost from the
//! configurations × windows grid, but a window still needs its
//! functional-warming span walked — once to feed the cache/predictor
//! warming loop, and again as the detailed phase's commit oracle. For
//! the paper's calibration schedule that is `Wf + Wd + D ≈ 910k`
//! architectural instructions per window, and the Fig. 8 grid runs 12
//! cells (4 engine kinds × 3 widths) over the same windows. Neither the
//! walk nor the warming it feeds needs repeating per cell: the walk is
//! the same for every cell, and the warm state differs only by engine
//! kind (engines) or by width (caches).
//!
//! `run_batch_window` is the one code path that warms and measures a
//! window against the store. The shared functional reference stream is
//! advanced **once** per window, and every cell consumes it in lockstep:
//!
//! * **engine warming** runs once per engine kind: each `WARM_BATCH`-sized
//!   chunk of committed records — converted once, while cache-hot — goes
//!   to the [`sfetch_fetch::FetchEngine::warm_block`] of the engine of
//!   each kind's first cell, in the same chunking the storeless
//!   [`crate::Sampler`] uses. Every other cell of the kind is built
//!   fresh at its own width, prefetch and front and restored from that
//!   engine's [`sfetch_fetch::FetchEngine::warm_state`] bytes, which
//!   depend on none of those (the trait's contract);
//! * **memory warming** rides the same sweep, once per distinct pipe
//!   width (cache warming depends only on the width's line geometry,
//!   never on the engine), and is cloned into each same-width cell — a
//!   window makes engine kinds + distinct widths warming passes (7 for
//!   the default grid), not cells + widths (15);
//! * the **detailed phase** runs a full per-window [`Processor`] whose
//!   commit oracle is [`OracleSource::Replay`] over the recorded
//!   detailed span (`Vec<DynInst>` — only `Wd + D` + the run-ahead
//!   margin is ever buffered) — no second executor walks the window.
//!
//! [`crate::StoredSampler`] drives the sweep for one cell
//! ([`crate::StoredSampler::run_range`]) or a group ([`BatchSampler`])
//! as a pipeline: the calling thread positions each window's recorder
//! at its warming start through the checkpoint store, in window order,
//! and queues the window; up to `jobs` workers pull windows and run
//! their sweeps, each probing the warm bank for its own cells, so
//! neither the trace walk nor the bank reads hold a window back behind
//! the others.
//! Bit-identity with the storeless [`crate::Sampler`] holds by
//! construction: the recorded buffer *is* the committed-path sequence a
//! live executor would produce (the executor is deterministic), the
//! warming loops consume it in the same order and chunking, a restored
//! engine holds exactly the state its own warming would have built,
//! and the processor consumes oracle records identically whether they
//! come from a live walk or the buffer. The module tests and the
//! `tests/tests/batch_identity.rs` differential oracle assert it against
//! `Sampler`, including the full grid (every kind at three widths) and
//! a proptest over random schedules and cell mixes.
//!
//! Warm-state banking files the same two states: one engine segment per
//! kind and one memory segment per width ([`crate::store`]). A worker
//! probes each segment once — read, digest check and decode — and warms
//! live, in the same pass, only the kinds and widths whose segment is
//! absent or rejected, then banks them. When *every* segment hits, the
//! worker skips the warming span with the state-only
//! `Executor::advance` from the window's stored checkpoint, and the
//! shared sweep shrinks to the detailed span (`Wd + D` + oracle margin)
//! — the batch and the bank multiply rather than merely coexist.

use std::ops::Range;
use std::time::Instant;

use sfetch_cfg::CodeImage;
use sfetch_core::{Processor, ProcessorConfig, SimStats};
use sfetch_fetch::{Checkpoint, CommittedInst, EngineKind, FetchEngine, ResolvedBranch};
use sfetch_isa::wire::{WireReader, WireWriter};
use sfetch_isa::Addr;
use sfetch_mem::{MemoryConfig, MemoryHierarchy};
use sfetch_trace::{DynInst, Executor, OracleSource};

use crate::config::SampleConfig;
use crate::runner::{committed_record, point_from_stats, SamplePoint, WARM_BATCH};
use crate::store::{
    memory_model_digest, warm_model_digest, CheckpointStore, StoreKey, StoreMiss, StoreStats,
    StoredSampler, WarmTiming,
};

/// Committed-path records the recorder keeps beyond the detailed span:
/// the processor's oracle runs ahead of commit by at most the in-flight
/// window (bounded by the reorder buffer) plus the commit-width
/// overshoot; this pads generously on top of the per-cell ROB maximum.
const ORACLE_MARGIN: u64 = 1024;

/// One grid cell sharing a batched window sweep: an engine and the
/// processor configuration it runs under.
#[derive(Debug, Clone, Copy)]
pub struct BatchCell {
    /// Fetch engine under test.
    pub kind: EngineKind,
    /// Core configuration (width, ROB, prefetch, front pipeline).
    pub pcfg: ProcessorConfig,
}

/// One window as the producer hands it to a worker: the shared recorder
/// positioned at the window's warming start, and the checkpoint key its
/// warm segments are filed under (`None` with banking off).
pub(crate) struct WindowPlan<'a> {
    pub(crate) w: u64,
    pub(crate) rec: Executor<'a>,
    pub(crate) bank: Option<StoreKey>,
}

/// What one window's sweep hands back.
pub(crate) struct WindowRun {
    pub(crate) w: u64,
    /// Per-cell results in cell order.
    pub(crate) rows: Vec<(SamplePoint, SimStats)>,
    /// Nanoseconds spent outside measurement: bank probes, recording
    /// and warming (or the warming-span advance of a fully banked
    /// window).
    pub(crate) warm_ns: u64,
    /// This window's warm-segment probes (all zero with banking off).
    pub(crate) bank: StoreStats,
    /// Whether the warming span was walked record by record.
    pub(crate) walked: bool,
}

/// A [`StoredSampler`] driving a group of cells through each window's
/// shared sweep. Every method delegates to the inner runner, so store,
/// bank and timing counters are the same ones a one-cell
/// [`StoredSampler::run_range`] accumulates.
pub struct BatchSampler<'a> {
    inner: StoredSampler<'a>,
}

impl<'a> BatchSampler<'a> {
    /// Creates a batched runner for the trace `(image, seed)` registered
    /// in the store under `fingerprint`.
    ///
    /// # Panics
    ///
    /// Panics if `scfg` fails [`SampleConfig::validate`].
    pub fn new(
        image: &'a CodeImage,
        fingerprint: u64,
        seed: u64,
        scfg: SampleConfig,
        store: &'a CheckpointStore,
    ) -> Self {
        BatchSampler { inner: StoredSampler::new(image, fingerprint, seed, scfg, store) }
    }

    /// Enables (or disables) warm-engine-state banking
    /// ([`StoredSampler::with_warm_bank`]).
    pub fn with_warm_bank(self, on: bool) -> Self {
        BatchSampler { inner: self.inner.with_warm_bank(on) }
    }

    /// Checkpoint-store traffic accumulated so far.
    pub fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    /// Warm-state bank traffic accumulated so far
    /// ([`StoredSampler::warm_bank_stats`]).
    pub fn warm_bank_stats(&self) -> StoreStats {
        self.inner.warm_bank_stats()
    }

    /// Host-time breakdown accumulated so far. `warm_ns` covers the
    /// shared recording sweep plus all per-cell warming/restores.
    pub fn timing(&self) -> WarmTiming {
        self.inner.timing()
    }

    /// Runs windows `range` for every cell with up to `jobs` in-flight
    /// window sweeps, returning `[cell][window]`-indexed results in the
    /// order of `cells` and of the range. Bit-identical to running each
    /// cell through the storeless [`crate::Sampler`], for any `jobs`
    /// and any banking state.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty.
    pub fn run_range(
        &mut self,
        cells: &[BatchCell],
        range: Range<u64>,
        jobs: usize,
    ) -> Vec<Vec<(SamplePoint, SimStats)>> {
        self.inner.run_cells(cells, range, jobs)
    }

    /// [`BatchSampler::run_range`] keeping only the sample points.
    pub fn run_range_points(
        &mut self,
        cells: &[BatchCell],
        range: Range<u64>,
        jobs: usize,
    ) -> Vec<Vec<SamplePoint>> {
        self.run_range(cells, range, jobs)
            .into_iter()
            .map(|rows| rows.into_iter().map(|(p, _)| p).collect())
            .collect()
    }
}

/// One engine kind's warm state in a window sweep.
struct KindWarm {
    /// The kind's first cell: it runs on `engine`, every other cell of
    /// the kind restores from `bytes`.
    first: usize,
    /// Its engine segment's model digest.
    model: u64,
    engine: Option<Box<dyn FetchEngine>>,
    /// The engine's warm-state bytes: banked, or serialized after live
    /// warming when another cell or the bank needs them.
    bytes: Vec<u8>,
    /// Warms live in this sweep (its segment was absent or rejected).
    live: bool,
}

/// One pipe width's warm memory hierarchy in a window sweep.
struct WidthWarm {
    width: usize,
    /// Its memory segment's model digest.
    model: u64,
    mem: MemoryHierarchy,
    /// `Some((line bytes, last warmed line))` — the line-dedup cursor —
    /// while the width warms live in this sweep.
    live: Option<(u64, u64)>,
}

/// A fresh engine for `cell`, starting fetch at `entry`.
fn build(cell: &BatchCell, entry: Addr) -> Box<dyn FetchEngine> {
    cell.kind.build_for(cell.pcfg.width, entry, &cell.pcfg.prefetch, &cell.pcfg.front)
}

/// A fresh engine for `cell` loaded with `bytes` of commit-side warm
/// state ([`FetchEngine::warm_state`]), which may come from an engine of
/// the same kind at any width, prefetch or front.
fn restore_engine(
    cell: &BatchCell,
    entry: Addr,
    bytes: &[u8],
) -> Result<Box<dyn FetchEngine>, String> {
    let mut engine = build(cell, entry);
    engine.load_warm_state(bytes).map_err(|e| format!("engine warm state: {e}"))?;
    Ok(engine)
}

/// A `width` memory hierarchy loaded with banked warm-state bytes
/// ([`MemoryHierarchy::save_warm_wire`]).
fn restore_memory(width: usize, bytes: &[u8]) -> Result<MemoryHierarchy, String> {
    let mut mem = MemoryHierarchy::new(MemoryConfig::table2(width));
    let mut r = WireReader::new(bytes);
    mem.load_warm_wire(&mut r)
        .and_then(|()| r.finish())
        .map_err(|e| format!("memory warm state: {e}"))?;
    Ok(mem)
}

/// Probes one warm segment under `bank`: its payload decoded by
/// `decode`, or `None` — counted in `probes` as a miss, or a rejection
/// when the store or `decode` refuses it — for the sweep to warm live.
fn probe<T>(
    store: &CheckpointStore,
    bank: Option<&StoreKey>,
    model: u64,
    probes: &mut StoreStats,
    decode: impl FnOnce(Vec<u8>) -> Result<T, String>,
) -> Option<T> {
    let loaded = store.load_warm(bank?, model);
    match loaded.and_then(|bytes| decode(bytes).map_err(StoreMiss::Rejected)) {
        Ok(state) => {
            probes.hits += 1;
            Some(state)
        }
        Err(StoreMiss::Absent) => {
            probes.misses += 1;
            None
        }
        Err(StoreMiss::Rejected(_)) => {
            probes.rejected += 1;
            None
        }
    }
}

/// One window's batched sweep, run on a window worker. It resolves one
/// engine per distinct kind and one memory hierarchy per distinct width:
/// from its banked segment when the plan banks and the segment loads,
/// verifies and decodes, otherwise warmed live on the shared
/// committed-path walk and banked. When every kind and width restores
/// from the bank, the recorder skips the warming span with the
/// state-only [`Executor::advance`] (block-granular) instead. The
/// detailed span is then recorded once and every cell measured against
/// it: the first cell of a kind runs on the kind's engine, the others on
/// engines restored from its warm-state bytes, each with a clone of its
/// width's memory.
pub(crate) fn run_batch_window<'a>(
    image: &'a CodeImage,
    cells: &[BatchCell],
    scfg: &SampleConfig,
    store: &CheckpointStore,
    plan: WindowPlan<'a>,
) -> WindowRun {
    let WindowPlan { w, mut rec, bank } = plan;
    let t0 = Instant::now();
    let warm_pc = rec.pc();
    let mut probes = StoreStats::default();

    // Commit-side warm state depends on the kind and the committed
    // records alone, never on width, prefetch or front (the
    // `FetchEngine::warm_state` contract), and decoding is checked
    // against the kind's table geometry alone: a segment that loads into
    // the first cell's engine loads into every engine of the kind.
    let mut kinds: Vec<KindWarm> = Vec::new();
    for (ci, cell) in cells.iter().enumerate() {
        if kinds.iter().any(|k| cells[k.first].kind == cell.kind) {
            continue;
        }
        let model = warm_model_digest(cell.kind, &cell.pcfg, scfg);
        let banked = probe(store, bank.as_ref(), model, &mut probes, |bytes| {
            restore_engine(cell, warm_pc, &bytes).map(|engine| (engine, bytes))
        });
        let live = banked.is_none();
        let (engine, bytes) = banked.unwrap_or_else(|| (build(cell, warm_pc), Vec::new()));
        kinds.push(KindWarm { first: ci, model, engine: Some(engine), bytes, live });
    }
    // Cache warming depends only on the width's line geometry, never on
    // the engine. The storeless sampler's warming loop interleaves
    // engine and memory updates, but neither ever reads the other, so
    // warming them side by side lands on bit-identical state.
    let mut widths: Vec<WidthWarm> = Vec::new();
    for cell in cells {
        let width = cell.pcfg.width;
        if widths.iter().any(|m| m.width == width) {
            continue;
        }
        let model = memory_model_digest(width, scfg);
        let banked = probe(store, bank.as_ref(), model, &mut probes, |bytes| {
            restore_memory(width, &bytes)
        });
        let (mem, live) = match banked {
            Some(mem) => (mem, None),
            None => {
                let mem = MemoryHierarchy::new(MemoryConfig::table2(width));
                let line_bytes = mem.l1i_line_bytes();
                (mem, Some((line_bytes, u64::MAX)))
            }
        };
        widths.push(WidthWarm { width, model, mem, live });
    }

    let walked = kinds.iter().any(|k| k.live) || widths.iter().any(|m| m.live.is_some());
    if !walked {
        rec.advance(scfg.warm_func);
    }
    // Live engines and hierarchies warm in lockstep with the single
    // recording sweep: every `WARM_BATCH` chunk of committed records is
    // converted once and fed to all live engines while it is still
    // cache-hot. The alternative — buffering the whole warming span and
    // letting each engine re-scan it — reads a window-sized record buffer
    // from DRAM once per engine, which costs more than the executor walks
    // it saves. Engines never share state, so the interleaving is
    // bit-identical to warming each engine to completion in turn.
    let warm_span = if walked { scfg.warm_func } else { 0 };
    let mem_from = scfg.warm_func - scfg.warm_mem;
    let mut chunk: Vec<CommittedInst> = Vec::with_capacity(WARM_BATCH);
    let feed = |kinds: &mut [KindWarm], chunk: &[CommittedInst]| {
        for k in kinds.iter_mut().filter(|k| k.live) {
            k.engine.as_mut().expect("live engine").warm_block(chunk);
        }
    };
    for i in 0..warm_span {
        let d = rec.next().expect("executor is infinite");
        if i >= mem_from {
            for WidthWarm { mem, live, .. } in &mut widths {
                let Some((line_bytes, last_line)) = live else { continue };
                let line = d.pc.line_index(*line_bytes);
                if line != *last_line {
                    mem.warm_inst(d.pc);
                    *last_line = line;
                }
                if let Some(a) = d.mem_addr {
                    mem.warm_data(a);
                }
            }
        }
        chunk.push(committed_record(&d));
        if chunk.len() == WARM_BATCH {
            feed(&mut kinds, &chunk);
            chunk.clear();
        }
    }
    if !chunk.is_empty() {
        feed(&mut kinds, &chunk);
    }
    // Serialize each live engine once, when another cell of its kind
    // restores from it or the bank files it; bank every live segment.
    // Saves are best-effort, like every store save.
    for k in kinds.iter_mut().filter(|k| k.live) {
        let kind = cells[k.first].kind;
        if bank.is_some() || cells[k.first + 1..].iter().any(|c| c.kind == kind) {
            k.bytes = k.engine.as_ref().expect("live engine").warm_state();
        }
        if let Some(key) = &bank {
            let _ = store.save_warm(key, k.model, &k.bytes);
        }
    }
    if let Some(key) = &bank {
        for m in widths.iter().filter(|m| m.live.is_some()) {
            let mut mw = WireWriter::new();
            m.mem.save_warm_wire(&mut mw);
            let _ = store.save_warm(key, m.model, &mw.into_bytes());
        }
    }

    // Only the detailed span + oracle run-ahead margin is recorded as
    // full committed-path records: it is what the replay oracle needs.
    let max_rob = cells.iter().map(|c| c.pcfg.rob_entries).max().unwrap_or(0) as u64;
    let detail_len = scfg.warm_detail + scfg.measure + max_rob + ORACLE_MARGIN;
    let mut buf: Vec<DynInst> = Vec::with_capacity(detail_len as usize);
    for _ in 0..detail_len {
        buf.push(rec.next().expect("executor is infinite"));
    }
    let mut warm_ns = t0.elapsed().as_nanos() as u64;

    // Detailed-phase start: the pc of the first post-warm instruction,
    // where every cell's engine, banked or warmed here, resumes fetch.
    let start = buf[0].pc;
    let mut rows = Vec::with_capacity(cells.len());
    for cell in cells {
        let t1 = Instant::now();
        let k = kinds.iter_mut().find(|k| cells[k.first].kind == cell.kind).expect("kind resolved");
        let mut engine = k.engine.take().unwrap_or_else(|| {
            restore_engine(cell, warm_pc, &k.bytes)
                .expect("a kind's warm state loads into every engine of the kind")
        });
        let mem = widths
            .iter()
            .find(|m| m.width == cell.pcfg.width)
            .map(|m| m.mem.clone())
            .expect("width resolved");
        warm_ns += t1.elapsed().as_nanos() as u64;
        // The detailed phase of the storeless sampler's window, except
        // that the commit oracle replays the shared buffer from the
        // post-warm offset instead of walking a live executor. Banked
        // and live-warmed state enter on the same footing: the redirect
        // rebuilds every fetch-side cursor either way.
        engine.redirect(
            0,
            start,
            &Checkpoint::default(),
            &ResolvedBranch { pc: start, kind: None, taken: false, target: start },
        );
        let oracle = OracleSource::Replay { buf: &buf, idx: 0 };
        let mut p = Processor::with_state_source(cell.pcfg, engine, image, oracle, mem);
        p.run(scfg.warm_detail);
        p.reset_stats();
        p.run(scfg.measure);
        let stats = p.stats();
        rows.push((point_from_stats(w, scfg, &stats), stats));
    }
    WindowRun { w, rows, warm_ns, bank: probes, walked }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfetch_cfg::gen::{GenParams, ProgramGenerator};
    use sfetch_cfg::layout;

    fn image() -> CodeImage {
        let cfg = ProgramGenerator::new(GenParams::small(), 17).generate();
        let lay = layout::natural(&cfg);
        CodeImage::build(&cfg, &lay)
    }

    fn tmp_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir()
            .join(format!("sfetch-batch-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(dir).expect("open store")
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

    fn cells() -> Vec<BatchCell> {
        vec![
            BatchCell { kind: EngineKind::Stream, pcfg: ProcessorConfig::table2(4) },
            BatchCell { kind: EngineKind::Ev8, pcfg: ProcessorConfig::table2(4) },
            BatchCell { kind: EngineKind::Stream, pcfg: ProcessorConfig::table2(8) },
            BatchCell { kind: EngineKind::Ftb, pcfg: ProcessorConfig::table2(2) },
        ]
    }

    /// The storeless oracle: each cell through a live [`crate::Sampler`]
    /// that skips to the range start, full per-window `SimStats`.
    fn serial_oracle(
        img: &CodeImage,
        cells: &[BatchCell],
        range: std::ops::Range<u64>,
    ) -> Vec<Vec<(SamplePoint, SimStats)>> {
        cells
            .iter()
            .map(|c| {
                let mut s = crate::Sampler::new(img, c.kind, c.pcfg, quick_cfg(), 7);
                s.skip(range.start);
                range.clone().map(|_| s.next_window_full()).collect()
            })
            .collect()
    }

    #[test]
    fn batch_matches_per_window_sampler() {
        let img = image();
        let store = tmp_store("identity");
        let cells = cells();
        let mut b = BatchSampler::new(&img, 0xba7c, 7, quick_cfg(), &store);
        let got = b.run_range(&cells, 0..3, 2);
        let want = serial_oracle(&img, &cells, 0..3);
        assert_eq!(got, want, "batched output must be bit-identical per cell per window");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn batch_with_warm_bank_is_identical_and_hits() {
        let img = image();
        let store = tmp_store("bank");
        let cells = cells();
        let baseline = serial_oracle(&img, &cells, 0..2);
        // Three kinds and three widths: six segments per window.
        let segments = 6 * 2;

        // First banked run populates: every probe misses.
        let mut b1 = BatchSampler::new(&img, 0xba7c, 7, quick_cfg(), &store).with_warm_bank(true);
        let r1 = b1.run_range(&cells, 0..2, 1);
        assert_eq!(r1, baseline);
        assert_eq!(b1.warm_bank_stats().hits, 0);
        assert_eq!(b1.warm_bank_stats().misses, segments);

        // Second run restores every cell from the bank (the sweep then
        // skips the warming span) — still bit-identical.
        let mut b2 = BatchSampler::new(&img, 0xba7c, 7, quick_cfg(), &store).with_warm_bank(true);
        let r2 = b2.run_range(&cells, 0..2, 2);
        assert_eq!(r2, baseline);
        assert_eq!(b2.warm_bank_stats().hits, segments);
        assert_eq!(b2.warm_bank_stats().misses, 0);

        // A fully banked window whose checkpoint is gone (as after a cap
        // eviction) walks to its warming start again, saves the same
        // checkpoint, and still restores every cell from the bank.
        let at_inst = b2.inner.warming_start(0);
        let ckpt0 = store.entry_path(&StoreKey { fingerprint: 0xba7c, seed: 7, at_inst });
        let pristine = std::fs::read(&ckpt0).expect("window 0 checkpoint");
        std::fs::remove_file(&ckpt0).expect("evict window 0 checkpoint");
        let mut b3 = BatchSampler::new(&img, 0xba7c, 7, quick_cfg(), &store).with_warm_bank(true);
        let r3 = b3.run_range(&cells, 0..2, 2);
        assert_eq!(r3, baseline);
        assert_eq!(b3.stats(), StoreStats { hits: 1, misses: 1, rejected: 0 });
        assert_eq!(std::fs::read(&ckpt0).expect("checkpoint saved again"), pristine);
        assert_eq!(b3.warm_bank_stats().hits, segments);
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// Group shape does not key the bank: segments banked by a multi-cell
    /// sweep are hits for a later one-cell run — its kind's engine
    /// segment and its width's memory segment, two per window — which
    /// then starts each window from its stored checkpoint and stays
    /// bit-identical.
    #[test]
    fn multi_cell_banked_entries_hit_for_a_one_cell_run() {
        let img = image();
        let store = tmp_store("group-shape");
        let cells = cells();
        let mut b = BatchSampler::new(&img, 0xba7c, 7, quick_cfg(), &store).with_warm_bank(true);
        let batched = b.run_range(&cells, 0..2, 1);
        let mut one =
            StoredSampler::new(&img, 0xba7c, 7, quick_cfg(), &store).with_warm_bank(true);
        let points = one.run_range(cells[2].kind, cells[2].pcfg, 0..2, 1);
        assert_eq!(points, batched[2].iter().map(|(p, _)| *p).collect::<Vec<_>>());
        assert_eq!(one.warm_bank_stats().hits, 4, "the one-cell run hits group-banked segments");
        assert_eq!(one.warm_bank_stats().misses, 0);
        assert_eq!(
            one.stats(),
            StoreStats { hits: 2, misses: 0, rejected: 0 },
            "each fully banked window loads its one checkpoint"
        );
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// The bank's layout: a banked grid of every kind at two widths
    /// leaves exactly windows × (kinds + widths) segments, one engine
    /// segment per kind and one memory segment per width, and a fully
    /// banked rerun hits each of them once and advances over every
    /// warming span instead of walking it.
    #[test]
    fn banked_grid_files_one_segment_per_kind_and_width() {
        let img = image();
        let store = tmp_store("layout");
        let scfg = quick_cfg();
        let cells: Vec<BatchCell> = [2, 8]
            .into_iter()
            .flat_map(|width| {
                EngineKind::ALL.map(|kind| BatchCell { kind, pcfg: ProcessorConfig::table2(width) })
            })
            .collect();
        let windows = 3u64;
        let segments = windows * (4 + 2);
        let want = serial_oracle(&img, &cells, 0..windows);

        let mut cold = BatchSampler::new(&img, 0xba7c, 7, scfg, &store).with_warm_bank(true);
        assert_eq!(cold.run_range(&cells, 0..windows, 2), want);
        assert_eq!(cold.warm_bank_stats().misses, segments);
        assert_eq!(cold.timing().walked_windows, windows);
        assert_eq!(store.warm_entries() as u64, segments);
        for w in 0..windows {
            let at_inst = cold.inner.warming_start(w);
            let key = StoreKey { fingerprint: 0xba7c, seed: 7, at_inst };
            for c in &cells {
                let engine = warm_model_digest(c.kind, &c.pcfg, &scfg);
                let memory = memory_model_digest(c.pcfg.width, &scfg);
                assert!(store.warm_entry_path(&key, engine).exists(), "{w}: {:?}", c.kind);
                assert!(store.warm_entry_path(&key, memory).exists(), "{w}: {}", c.pcfg.width);
            }
        }

        let mut rerun = BatchSampler::new(&img, 0xba7c, 7, scfg, &store).with_warm_bank(true);
        assert_eq!(rerun.run_range(&cells, 0..windows, 2), want);
        assert_eq!(rerun.warm_bank_stats(), StoreStats { hits: segments, misses: 0, rejected: 0 });
        assert_eq!(rerun.timing().walked_windows, 0, "a fully banked window walks no warming span");
        assert_eq!(store.warm_entries() as u64, segments, "the rerun banks nothing new");
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// A worker's panic fails the call with the worker's own message,
    /// also when every worker dies with windows still to queue.
    #[test]
    fn worker_panic_fails_the_call_with_its_own_message() {
        let img = image();
        let store = tmp_store("panic");
        let mut pcfg = ProcessorConfig::table2(4);
        pcfg.width = 3;
        let cells = [BatchCell { kind: EngineKind::Stream, pcfg }];
        let mut b = BatchSampler::new(&img, 0xba7c, 7, quick_cfg(), &store);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.run_range(&cells, 0..6, 2)
        }))
        .expect_err("a panicking worker fails the call");
        let msg = err
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("power of two"), "the worker's own message, got {msg:?}");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn single_cell_batch_degenerates_cleanly() {
        let img = image();
        let store = tmp_store("single");
        let cells = vec![BatchCell { kind: EngineKind::TraceCache, pcfg: ProcessorConfig::table2(4) }];
        let mut b = BatchSampler::new(&img, 0xba7c, 7, quick_cfg(), &store);
        let got = b.run_range(&cells, 1..3, 1);
        let want = serial_oracle(&img, &cells, 1..3);
        assert_eq!(got, want);
        let _ = std::fs::remove_dir_all(store.root());
    }
}
