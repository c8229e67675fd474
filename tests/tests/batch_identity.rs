//! Differential oracle for the **store-backed window sweep**: for any
//! cell mix (engine × width × front pipeline), any window schedule, any
//! batch size and any banking state, [`BatchSampler`] must produce
//! per-window results **bit-identical** to running every cell through
//! the storeless [`Sampler`] — the full `SimStats`, not just the IPC.
//! The oracle walks the trace live, so it shares neither the checkpoint
//! store, the warm bank nor the recorded sweep with the runner under
//! test. The squash-heavy phased workload additionally pins the case
//! where measured windows straddle the in-flight batch boundary, and
//! the full Fig. 8 grid pins the production grid paths byte for byte
//! at every batch cap, the uncapped default included. The sweep warms
//! one engine per engine kind and restores the kind's other cells from
//! its warm state; the full-grid cases give every kind two such
//! restored cells, under both fronts, a shared prefetcher and warm
//! banking.

use proptest::prelude::*;

use sfetch_bench::driver::cell_group_bodies;
use sfetch_bench::fleet_grid::lease_group;
use sfetch_bench::grid::{
    cell_config, cells, engine_key, grid_engines, merge_grid, parse_shard_body, point_line,
    run_sampled_grid, CellRun, FIG8_WIDTHS,
};
use sfetch_bench::{try_workload_by_name, FrontMode, GridPrefetchMode, HarnessOpts};
use sfetch_cfg::gen::{GenParams, ProgramGenerator};
use sfetch_cfg::{layout, CodeImage};
use sfetch_core::{ProcessorConfig, SimStats};
use sfetch_fleet::CellId;
use sfetch_fetch::{EngineKind, FrontPipeline};
use sfetch_prefetch::{PrefetchConfig, PrefetchKind};
use sfetch_sample::{
    warm_model_digest, BatchCell, BatchSampler, CheckpointStore, SamplePoint, SampleConfig, Sampler,
    StoreKey,
};
use sfetch_workloads::LayoutChoice;

fn tmp_store(tag: &str) -> CheckpointStore {
    let dir =
        std::env::temp_dir().join(format!("sfetch-batch-ident-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::open(dir).expect("open store")
}

/// The storeless oracle: one cell's windows `range` through a live
/// [`Sampler`] that skips to the range start.
fn storeless(
    img: &CodeImage,
    seed: u64,
    scfg: SampleConfig,
    c: BatchCell,
    range: std::ops::Range<u64>,
) -> Vec<(SamplePoint, SimStats)> {
    let mut s = Sampler::new(img, c.kind, c.pcfg, scfg, seed);
    s.skip(range.start);
    range.map(|_| s.next_window_full()).collect()
}

/// [`storeless`] for every cell, in cell order.
fn serial_oracle(
    img: &CodeImage,
    seed: u64,
    scfg: SampleConfig,
    cells: &[BatchCell],
    range: std::ops::Range<u64>,
) -> Vec<Vec<(SamplePoint, SimStats)>> {
    cells.iter().map(|&c| storeless(img, seed, scfg, c, range.clone())).collect()
}

/// The short window schedule the deterministic cases run.
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

fn cell(kind: EngineKind, width: usize, engine_front: bool) -> BatchCell {
    let mut pcfg = ProcessorConfig::table2(width);
    pcfg.front =
        if engine_front { FrontPipeline::for_engine(kind) } else { FrontPipeline::legacy() };
    BatchCell { kind, pcfg }
}

/// Phased pin: its program phases force squash-heavy windows, and the
/// window range is run at `jobs = 2` so measured windows straddle the
/// in-flight batch boundary (windows 0–1 sweep concurrently, window 2
/// goes to whichever worker frees first).
#[test]
fn phased_squash_heavy_windows_straddle_batch_boundaries() {
    let w = try_workload_by_name("phased").expect("registered bench");
    let img = w.image(LayoutChoice::Optimized);
    let fp = w.fingerprint(LayoutChoice::Optimized);
    let scfg = quick_cfg();
    let cells: Vec<BatchCell> =
        EngineKind::ALL.iter().map(|&k| cell(k, 8, true)).collect();
    let store = tmp_store("phased");
    let got = BatchSampler::new(img, fp, w.ref_seed(), scfg, &store).run_range(&cells, 0..3, 2);
    let want = serial_oracle(img, w.ref_seed(), scfg, &cells, 0..3);
    assert_eq!(got, want, "phased batched windows must match the storeless oracle bit-for-bit");
    let mispredictions: u64 = got.iter().flatten().map(|(_, s)| s.mispredictions).sum();
    assert!(mispredictions > 0, "phased windows must actually exercise squash recovery");
    let _ = std::fs::remove_dir_all(store.root());
}

/// Full-grid byte equality across batch caps: the whole Fig. 8 grid,
/// one-shot through `run_sampled_grid` and through the fleet worker
/// body (`cell_group_bodies` over one-window cells of every pair, so
/// the second window's cells start mid-range, leased in `lease_group`
/// groups), must render the storeless reference's point lines at
/// `--batch 1`, at a cap that splits the grid, and at the default
/// (uncapped) options.
#[test]
fn full_grid_is_byte_identical_at_every_batch_cap() {
    let w = try_workload_by_name("phased").expect("registered bench");
    let img = w.image(LayoutChoice::Optimized);
    let scfg = quick_cfg();
    let windows = 2;
    let total = windows * scfg.interval;
    let grid = cells(&grid_engines(), &FIG8_WIDTHS);
    let store = tmp_store("grid");
    let base = HarnessOpts { jobs: 2, grid_total: total, grid_sample: scfg, ..HarnessOpts::default() };
    let reference: Vec<String> = grid
        .iter()
        .flat_map(|&c| {
            let bc = BatchCell { kind: c.engine, pcfg: cell_config(c, &base) };
            storeless(img, w.ref_seed(), scfg, bc, 0..windows)
                .iter()
                .map(|(p, _)| point_line(c, p))
                .collect::<Vec<_>>()
        })
        .collect();
    let lines = |runs: &[CellRun]| -> Vec<String> {
        runs.iter().flat_map(|r| r.points.iter().map(|p| point_line(r.cell, p))).collect()
    };
    for opts in [HarnessOpts { batch: 1, ..base }, HarnessOpts { batch: 5, ..base }, base] {
        let (runs, _) = run_sampled_grid(&w, &grid, scfg, total, &opts, &store);
        assert_eq!(lines(&runs), reference, "one-shot grid at batch {}", opts.batch);
        let mut tuples = Vec::new();
        for lo in 0..windows {
            let same_range: Vec<CellId> = grid
                .iter()
                .map(|c| CellId::new(engine_key(c.engine), c.width, lo, lo + 1))
                .collect();
            let group = lease_group(opts.batch, false, same_range.len());
            for chunk in same_range.chunks(group) {
                for body in cell_group_bodies(&w, chunk, scfg, &opts, &store).expect("bodies") {
                    tuples.extend(parse_shard_body(&body).expect("cell body parses"));
                }
            }
        }
        let merged = merge_grid(&grid, windows, &tuples, scfg.confidence).expect("merge");
        assert_eq!(lines(&merged), reference, "fleet-body grid at batch {}", opts.batch);
    }
    let _ = std::fs::remove_dir_all(store.root());
}

/// The full Fig. 8 grid in one sweep: every engine kind's first cell
/// (2-wide) is warmed on the shared stream and its two other cells (4-
/// and 8-wide) are restored from that engine's warm state. Under the
/// per-engine front with natural prefetch, the legacy front, and a
/// shared stream prefetcher with 4 MSHRs, every cell must match the
/// storeless oracle, which warms each cell itself; `jobs = 2` over
/// windows 1..4 straddles the in-flight batch boundary.
#[test]
fn full_grid_followers_match_the_storeless_oracle() {
    let w = try_workload_by_name("phased").expect("registered bench");
    let img = w.image(LayoutChoice::Optimized);
    let fp = w.fingerprint(LayoutChoice::Optimized);
    let scfg = quick_cfg();
    let grid = cells(&EngineKind::ALL, &FIG8_WIDTHS);
    let shared_stream = HarnessOpts {
        grid_prefetch: GridPrefetchMode::Shared,
        prefetch: PrefetchConfig {
            mshrs: 4,
            ..PrefetchConfig::enabled(PrefetchKind::StreamDirected)
        },
        ..HarnessOpts::default()
    };
    let legacy = HarnessOpts { front: FrontMode::Legacy, ..HarnessOpts::default() };
    for (tag, opts) in
        [("engine", HarnessOpts::default()), ("legacy", legacy), ("mshrs", shared_stream)]
    {
        let batch: Vec<BatchCell> = grid
            .iter()
            .map(|&c| BatchCell { kind: c.engine, pcfg: cell_config(c, &opts) })
            .collect();
        let store = tmp_store(&format!("followers-{tag}"));
        let got = BatchSampler::new(img, fp, w.ref_seed(), scfg, &store).run_range(&batch, 1..4, 2);
        let want = serial_oracle(img, w.ref_seed(), scfg, &batch, 1..4);
        assert_eq!(got, want, "{tag}: grid cells must match the storeless oracle bit-for-bit");
        let _ = std::fs::remove_dir_all(store.root());
    }
}

/// Warm banking on the full grid: the first banked run files one engine
/// segment per kind and one memory segment per width for every window
/// (7, not one per cell), and a second run restores all 12 cells of
/// every window from those segments. Both match the storeless oracle.
#[test]
fn warm_bank_files_follower_entries_and_hits_every_cell() {
    let w = try_workload_by_name("phased").expect("registered bench");
    let img = w.image(LayoutChoice::Optimized);
    let fp = w.fingerprint(LayoutChoice::Optimized);
    let scfg = quick_cfg();
    let batch: Vec<BatchCell> = cells(&EngineKind::ALL, &FIG8_WIDTHS)
        .into_iter()
        .map(|c| BatchCell { kind: c.engine, pcfg: cell_config(c, &HarnessOpts::default()) })
        .collect();
    let windows = 3u64;
    let probes = (4 + 3) * windows;
    let want = serial_oracle(img, w.ref_seed(), scfg, &batch, 0..windows);
    let store = tmp_store("bank-followers");
    let mut first = BatchSampler::new(img, fp, w.ref_seed(), scfg, &store).with_warm_bank(true);
    assert_eq!(first.run_range(&batch, 0..windows, 2), want, "banking run");
    assert_eq!((first.warm_bank_stats().hits, first.warm_bank_stats().misses), (0, probes));
    let mut second = BatchSampler::new(img, fp, w.ref_seed(), scfg, &store).with_warm_bank(true);
    assert_eq!(second.run_range(&batch, 0..windows, 2), want, "bank-restored run");
    let bank = second.warm_bank_stats();
    assert_eq!((bank.hits, bank.misses, bank.rejected), (probes, 0, 0), "every segment restores");
    assert_eq!(store.warm_entries() as u64, probes);
    let _ = std::fs::remove_dir_all(store.root());
}

/// Bytes ahead of a warm segment's payload: magic, version, the four
/// key words, digest and length.
const WARM_HEADER: usize = 64;

/// A warm engine segment one byte short, re-sealed under a valid
/// digest: it passes every check `load_warm` makes and does not decode.
fn undecodable(entry: &[u8]) -> Vec<u8> {
    let short = &entry[WARM_HEADER..entry.len() - 1];
    let mut out = entry[..WARM_HEADER].to_vec();
    out[WARM_HEADER - 16..WARM_HEADER - 8]
        .copy_from_slice(&sfetch_fleet::fnv64(short).to_le_bytes());
    out[WARM_HEADER - 8..].copy_from_slice(&(short.len() as u64).to_le_bytes());
    out.extend_from_slice(short);
    out
}

/// Banked and cold windows in one call, as a request one window further
/// out than a banked one makes: windows `0..4` banked, then `0..5` at
/// `jobs` 1, 2 and 3 (two of which do not divide 5). The banked windows
/// restore on their workers while the fifth walks on from window 3's
/// checkpoint and warms live; every row matches the storeless oracle
/// and the bank counts each segment probe once. A resealed, undecodable
/// engine segment in window 2 is rejected once, rewarmed in the same
/// pass and rebanked, with the same rows.
#[test]
fn banked_and_cold_windows_share_one_call() {
    let w = try_workload_by_name("phased").expect("registered bench");
    let img = w.image(LayoutChoice::Optimized);
    let fp = w.fingerprint(LayoutChoice::Optimized);
    let seed = w.ref_seed();
    let scfg = quick_cfg();
    let batch: Vec<BatchCell> = cells(&EngineKind::ALL, &[4, 8])
        .into_iter()
        .map(|c| BatchCell { kind: c.engine, pcfg: cell_config(c, &HarnessOpts::default()) })
        .collect();
    // Four kinds and two widths: six segments per window.
    let n = 4 + 2;
    let want = serial_oracle(img, seed, scfg, &batch, 0..5);
    let want_banked: Vec<_> = want.iter().map(|rows| rows[..4].to_vec()).collect();
    // The victim is the stream kind's engine segment, which its 8-wide
    // cell restores from too.
    let victim = batch
        .iter()
        .position(|c| c.kind == EngineKind::Stream && c.pcfg.width == 8)
        .expect("stream 8-wide cell");
    let key = StoreKey { fingerprint: fp, seed, at_inst: 2 * scfg.interval + scfg.fast_forward() };
    let model = warm_model_digest(batch[victim].kind, &batch[victim].pcfg, &scfg);
    for jobs in [1, 2, 3] {
        for plant in [false, true] {
            let tag = format!("mixed-{jobs}-{plant}");
            let store = tmp_store(&tag);
            let mut first = BatchSampler::new(img, fp, seed, scfg, &store).with_warm_bank(true);
            assert_eq!(first.run_range(&batch, 0..4, jobs), want_banked, "{tag}: banking run");
            let path = store.warm_entry_path(&key, model);
            let good = std::fs::read(&path).expect("banked entry");
            if plant {
                std::fs::write(&path, undecodable(&good)).expect("plant entry");
            }
            let store = CheckpointStore::open(store.root()).expect("reopen store");
            let mut mixed = BatchSampler::new(img, fp, seed, scfg, &store).with_warm_bank(true);
            assert_eq!(mixed.run_range(&batch, 0..5, jobs), want, "{tag}: rows");
            let bank = mixed.warm_bank_stats();
            let rejected = u64::from(plant);
            assert_eq!(
                (bank.hits, bank.misses, bank.rejected),
                (4 * n - rejected, n, rejected),
                "{tag}: bank probes"
            );
            assert!(std::fs::read(&path).expect("rebanked entry") == good, "{tag}: entry");
            let _ = std::fs::remove_dir_all(store.root());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random (front pipeline, engine, width, batch size, window
    /// schedule, banking) → full per-window `SimStats` equality with the
    /// storeless sampler.
    #[test]
    fn batched_execution_is_bit_identical_to_per_window(
        gen_seed in 0u64..200,
        exec_seed in 1u64..50,
        warm_func in 800u64..2_500,
        mem_tenths in 1u64..=10,
        warm_detail in 100u64..400,
        measure in 200u64..700,
        slack in 0u64..1_500,
        jobs in 1usize..4,
        lo in 0u64..3,
        span in 1u64..4,
        mix in proptest::collection::vec((0usize..4, any::<bool>(), 0usize..3), 1..4),
        warm_bank in any::<bool>(),
    ) {
        let scfg = SampleConfig {
            interval: warm_func + warm_detail + measure + slack,
            warm_func,
            warm_mem: (warm_func * mem_tenths / 10).max(1),
            warm_detail,
            measure,
            ..Default::default()
        };
        let cfg = ProgramGenerator::new(GenParams::small(), gen_seed).generate();
        let img = CodeImage::build(&cfg, &layout::natural(&cfg));
        let cells: Vec<BatchCell> = mix
            .iter()
            .map(|&(k, engine_front, wi)| cell(EngineKind::ALL[k], [2, 4, 8][wi], engine_front))
            .collect();
        let store = tmp_store(&format!("prop-{gen_seed}-{exec_seed}"));
        let range = lo..lo + span;

        let mut b = BatchSampler::new(&img, gen_seed, exec_seed, scfg, &store)
            .with_warm_bank(warm_bank);
        let got = b.run_range(&cells, range.clone(), jobs);
        let want = serial_oracle(&img, exec_seed, scfg, &cells, range.clone());
        prop_assert_eq!(&got, &want, "batched output diverged from the storeless oracle");

        // A banked rerun (restoring warm state the first pass saved)
        // must also reproduce the same bytes.
        if warm_bank {
            let mut b2 = BatchSampler::new(&img, gen_seed, exec_seed, scfg, &store)
                .with_warm_bank(true);
            let again = b2.run_range(&cells, range, jobs);
            prop_assert_eq!(&again, &want, "bank-restored rerun diverged");
            prop_assert!(b2.warm_bank_stats().hits > 0, "rerun never hit the warm bank");
        }
        let _ = std::fs::remove_dir_all(store.root());
    }
}
