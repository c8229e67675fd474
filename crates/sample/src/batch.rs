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
//!   to the [`sfetch_fetch::FetchEngine::warm_block`] of each kind's
//!   *leader* (its first replaying cell), in the same chunking the
//!   storeless [`crate::Sampler`] uses. Every other replaying cell of
//!   the kind is built fresh at its own width, prefetch and front and
//!   restored from the leader's
//!   [`sfetch_fetch::FetchEngine::warm_state`] bytes, which depend on
//!   none of those (the trait's contract; a kind without warm-state
//!   support warms each of its cells itself);
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
//! follower holds exactly the state its own warming would have built,
//! and the processor consumes oracle records identically whether they
//! come from a live walk or the buffer. The module tests and the
//! `tests/tests/batch_identity.rs` differential oracle assert it against
//! `Sampler`, including the full grid (every kind with two followers)
//! and a proptest over random schedules and cell mixes.
//!
//! Warm-state banking composes: when *every* cell of a window restores
//! from the bank, the worker skips the warming span with the
//! state-only `Executor::advance` from the window's stored checkpoint,
//! and the shared sweep shrinks to the detailed span (`Wd + D` + oracle
//! margin) — the batch and the bank multiply rather than merely
//! coexist. A banked entry holds only engine and memory warm state; a
//! follower banks its leader's warm-state bytes unchanged, so its entry
//! is the one its own warming would have filed.

use std::ops::Range;
use std::time::Instant;

use sfetch_cfg::CodeImage;
use sfetch_core::{Processor, ProcessorConfig, SimStats};
use sfetch_fetch::{Checkpoint, CommittedInst, EngineKind, FetchEngine, ResolvedBranch};
use sfetch_isa::wire::WireWriter;
use sfetch_mem::{MemoryConfig, MemoryHierarchy};
use sfetch_trace::{DynInst, Executor, OracleSource};

use crate::config::SampleConfig;
use crate::runner::{committed_record, point_from_stats, SamplePoint, WARM_BATCH};
use crate::store::{
    restore_engine, CheckpointStore, StoreKey, StoreMiss, StoreStats, StoredSampler, WarmEntry,
    WarmTiming,
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

/// How one cell of one window obtains its warm state.
enum CellSource {
    /// Restore from this digest-verified banked entry (its engine and
    /// memory state are decoded by the worker).
    Banked(std::sync::Arc<WarmEntry>),
    /// Replay engine/memory warming from the shared buffer; bank the
    /// result under the key when one is present.
    Replay {
        /// Bank the warming result under this key (banking enabled).
        bank_to: Option<StoreKey>,
    },
}

/// Where a window's cells take their warm state from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Bank {
    /// Banking off: every cell warms live and banks nothing.
    Off,
    /// Probe each cell's entry under this key; a hit restores it, a
    /// miss or a rejected entry warms live and banks the result.
    Probe(StoreKey),
    /// Warm every cell live and bank it under this key, probing nothing
    /// (the re-run of a cell whose banked entry did not decode).
    Rebank(StoreKey),
}

/// One window as the producer hands it to a worker: the shared recorder
/// positioned at the window's warming start, and where its cells' warm
/// state comes from.
pub(crate) struct WindowPlan<'a> {
    pub(crate) w: u64,
    pub(crate) rec: Executor<'a>,
    pub(crate) bank: Bank,
}

/// What one window's sweep hands back.
pub(crate) struct WindowRun {
    pub(crate) w: u64,
    /// Per-cell results in cell order; `None` for a cell whose banked
    /// entry passed its digest but does not decode, which the caller
    /// re-runs warmed live ([`Bank::Rebank`]).
    pub(crate) rows: Vec<Option<(SamplePoint, SimStats)>>,
    /// Nanoseconds spent outside measurement: bank probes, recording
    /// and warming (or the warming-span advance of a fully banked
    /// window).
    pub(crate) warm_ns: u64,
    /// This window's warm-bank probes (all zero unless [`Bank::Probe`]).
    pub(crate) bank: StoreStats,
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

    /// Warm-state bank traffic accumulated so far (one probe per cell
    /// per window when banking is on).
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

/// One window's batched sweep, run on a window worker: probe the warm
/// bank for each cell (under [`Bank::Probe`]), record the shared
/// committed-path buffer once, warm one engine per engine kind and
/// memory once per width, then restore + measure every cell against the
/// buffer. When every cell restores from the bank, the recorder first
/// skips the warming span with the state-only [`Executor::advance`]
/// (block-granular) and the sweep records only the detailed span.
pub(crate) fn run_batch_window<'a>(
    image: &'a CodeImage,
    cells: &[BatchCell],
    scfg: &SampleConfig,
    store: &CheckpointStore,
    models: &[u64],
    plan: WindowPlan<'a>,
) -> WindowRun {
    let WindowPlan { w, mut rec, bank } = plan;
    let mut warm_ns = 0u64;
    let t0 = Instant::now();

    let mut probes = StoreStats::default();
    let sources: Vec<CellSource> = models
        .iter()
        .map(|&model| match bank {
            Bank::Off => CellSource::Replay { bank_to: None },
            Bank::Rebank(key) => CellSource::Replay { bank_to: Some(key) },
            Bank::Probe(key) => match store.load_warm(&key, model) {
                Ok(entry) => {
                    probes.hits += 1;
                    CellSource::Banked(entry)
                }
                Err(miss) => {
                    match miss {
                        StoreMiss::Absent => probes.misses += 1,
                        StoreMiss::Rejected(_) => probes.rejected += 1,
                    }
                    CellSource::Replay { bank_to: Some(key) }
                }
            },
        })
        .collect();
    let mut warm_span = scfg.warm_func;
    if sources.iter().all(|s| matches!(s, CellSource::Banked(_))) {
        rec.advance(warm_span);
        warm_span = 0;
    }

    // Engine warming runs once per engine kind. A replay cell's leader
    // is the first replay cell of its kind; only leaders are warmed.
    // Commit-side warm state depends on the kind and the committed
    // records alone, never on width, prefetch or front (the
    // `FetchEngine::warm_state` contract), so every other replay cell of
    // that kind — a follower — is built fresh at its own configuration
    // and restored from its leader's warm-state bytes. A kind whose
    // engines serialize no warm state (probed on the leader's fresh
    // engine, once a follower appears) makes each of its cells its own
    // leader.
    let warm_pc = rec.pc();
    let mut engines: Vec<Option<Box<dyn FetchEngine>>> = Vec::with_capacity(cells.len());
    let mut leader: Vec<usize> = Vec::with_capacity(cells.len());
    let mut shares: Vec<Option<bool>> = vec![None; cells.len()];
    for (ci, cell) in cells.iter().enumerate() {
        let replay = matches!(sources[ci], CellSource::Replay { .. });
        let kind_leader =
            (0..ci).find(|&l| leader[l] == l && engines[l].is_some() && cells[l].kind == cell.kind);
        let follows = kind_leader.filter(|&l| {
            replay
                && *shares[l].get_or_insert_with(|| {
                    engines[l].as_ref().is_some_and(|e| e.warm_state().is_some())
                })
        });
        leader.push(follows.unwrap_or(ci));
        engines.push((replay && follows.is_none()).then(|| {
            cell.kind.build_for(cell.pcfg.width, warm_pc, &cell.pcfg.prefetch, &cell.pcfg.front)
        }));
    }
    // Functional memory warming rides the same sweep, once per distinct
    // width among the replay-warmed cells (cache warming depends only
    // on the width's line geometry, never on the engine), each with its
    // own line-dedup cursor. The storeless sampler's warming loop
    // interleaves engine and memory updates, but neither ever reads the
    // other, so this lands on bit-identical cache state.
    let mut mems: Vec<(usize, MemoryHierarchy, u64, u64)> = Vec::new();
    for (ci, cell) in cells.iter().enumerate() {
        if !matches!(sources[ci], CellSource::Replay { .. })
            || mems.iter().any(|&(width, ..)| width == cell.pcfg.width)
        {
            continue;
        }
        let mem = MemoryHierarchy::new(MemoryConfig::table2(cell.pcfg.width));
        let line_bytes = mem.l1i_line_bytes();
        mems.push((cell.pcfg.width, mem, line_bytes, u64::MAX));
    }
    // Leaders warm in lockstep with the single recording sweep: every
    // `WARM_BATCH` chunk of committed records is converted once and fed
    // to all leaders while it is still cache-hot. The alternative —
    // buffering the whole warming span and letting each leader re-scan
    // it — reads a window-sized record buffer from DRAM once per
    // leader, which costs more than the executor walks it saves.
    // Engines never share state, so the interleaving is bit-identical
    // to warming each leader to completion in turn.
    let mem_from = scfg.warm_func - scfg.warm_mem;
    let mut chunk: Vec<CommittedInst> = Vec::with_capacity(WARM_BATCH);
    for i in 0..warm_span {
        let d = rec.next().expect("executor is infinite");
        if i >= mem_from {
            for (_, mem, line_bytes, last_line) in &mut mems {
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
            for e in engines.iter_mut().flatten() {
                e.warm_block(&chunk);
            }
            chunk.clear();
        }
    }
    if !chunk.is_empty() {
        for e in engines.iter_mut().flatten() {
            e.warm_block(&chunk);
        }
    }
    // Each leader's warm state, serialized once when a follower restores
    // from it or a cell of its kind banks it.
    let mut warm_bytes: Vec<Option<Vec<u8>>> = vec![None; cells.len()];
    for (ci, &l) in leader.iter().enumerate() {
        let banks = matches!(sources[ci], CellSource::Replay { bank_to: Some(_) });
        if (l != ci || banks) && warm_bytes[l].is_none() {
            warm_bytes[l] = engines[l].as_ref().and_then(|e| e.warm_state());
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
    warm_ns += t0.elapsed().as_nanos() as u64;

    // Detailed-phase start: the pc of the first post-warm instruction,
    // where every cell's engine, banked or warmed here, resumes fetch.
    let start = buf[0].pc;
    let mut out = Vec::with_capacity(cells.len());
    for (ci, ((cell, src), &model)) in cells.iter().zip(sources).zip(models).enumerate() {
        let t1 = Instant::now();
        let (mut engine, mem) = match src {
            CellSource::Banked(entry) => match entry.restore(cell.kind, &cell.pcfg, start) {
                Ok(state) => state,
                Err(_) => {
                    out.push(None);
                    continue;
                }
            },
            CellSource::Replay { bank_to } => {
                let l = leader[ci];
                let engine = if l == ci {
                    engines[ci].take().expect("engine warmed for every leader")
                } else {
                    let bytes =
                        warm_bytes[l].as_deref().expect("leader serialized for its followers");
                    restore_engine(cell.kind, &cell.pcfg, warm_pc, bytes)
                        .expect("a leader's warm state loads into every engine of its kind")
                };
                let mem = mems
                    .iter()
                    .find(|&&(width, ..)| width == cell.pcfg.width)
                    .map(|(_, m, ..)| m.clone())
                    .expect("memory warmed for every replay width");
                if let Some(key) = bank_to {
                    if let Some(engine_bytes) = &warm_bytes[l] {
                        let mut mw = WireWriter::new();
                        mem.save_warm_wire(&mut mw);
                        let entry = WarmEntry {
                            engine: engine_bytes.clone(),
                            mem: mw.into_bytes(),
                        };
                        // Best-effort, like every store save.
                        let _ = store.save_warm(&key, model, &entry);
                    }
                }
                (engine, mem)
            }
        };
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
        out.push(Some((point_from_stats(w, scfg, &stats), stats)));
    }
    WindowRun { w, rows: out, warm_ns, bank: probes }
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

        // First banked run populates: every probe misses.
        let mut b1 = BatchSampler::new(&img, 0xba7c, 7, quick_cfg(), &store).with_warm_bank(true);
        let r1 = b1.run_range(&cells, 0..2, 1);
        assert_eq!(r1, baseline);
        assert_eq!(b1.warm_bank_stats().hits, 0);
        assert_eq!(b1.warm_bank_stats().misses, (cells.len() * 2) as u64);

        // Second run restores every cell from the bank (the sweep then
        // skips the warming span) — still bit-identical.
        let mut b2 = BatchSampler::new(&img, 0xba7c, 7, quick_cfg(), &store).with_warm_bank(true);
        let r2 = b2.run_range(&cells, 0..2, 2);
        assert_eq!(r2, baseline);
        assert_eq!(b2.warm_bank_stats().hits, (cells.len() * 2) as u64);
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
        assert_eq!(b3.warm_bank_stats().hits, (cells.len() * 2) as u64);
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// Group shape does not key the bank: entries banked by a multi-cell
    /// sweep are hits for a later one-cell run, which then starts each
    /// window from its stored checkpoint and stays bit-identical.
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
        assert_eq!(one.warm_bank_stats().hits, 2, "the one-cell run must hit group-banked entries");
        assert_eq!(one.warm_bank_stats().misses, 0);
        assert_eq!(
            one.stats(),
            StoreStats { hits: 2, misses: 0, rejected: 0 },
            "each fully banked window loads its one checkpoint"
        );
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
