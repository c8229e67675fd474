//! The cycle-accounting time-series contract, end to end: interval rows
//! emitted by [`TimeSeriesSink`] over sampled windows sum **exactly** to
//! the aggregate [`SimStats`] — across [`StoredSampler`] window
//! boundaries, for every interval choice, with no cycle dropped or
//! double-counted — and the stats-carrying sampler entry point
//! ([`StoredSampler::run_range_stats`]) returns the same sample points
//! as the point-only path, serial or parallel.

use sfetch_bench::grid::{cell_config, grid_engines, GridCell};
use sfetch_bench::obs::{ts_columns, ts_delta, TS_KEY};
use sfetch_bench::HarnessOpts;
use sfetch_cfg::{layout, CodeImage};
use sfetch_core::{CycleBuckets, ProcessorConfig, SimStats};
use sfetch_fetch::EngineKind;
use sfetch_obs::{Obj, TimeSeriesSink};
use sfetch_sample::{CheckpointStore, SampleConfig, StoredSampler};
use sfetch_workloads::phased::{self, PhasedParams};

fn phased_image(seed: u64) -> CodeImage {
    let cfg = phased::generate(&PhasedParams::small(), seed);
    let lay = layout::natural(&cfg);
    CodeImage::build(&cfg, &lay)
}

fn quick_schedule() -> SampleConfig {
    SampleConfig {
        interval: 50_000,
        warm_func: 8_000,
        warm_mem: 8_000,
        warm_detail: 1_000,
        measure: 3_000,
        ..Default::default()
    }
}

fn tmp_store(tag: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(format!("sfetch-obs-ts-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::open(dir).expect("open store")
}

/// Runs `windows` sampled windows and returns their per-window stats.
fn sampled_stats(store: &CheckpointStore, windows: u64, jobs: usize) -> Vec<SimStats> {
    let img = phased_image(5);
    let fp = sfetch_trace::trace_fingerprint(&img, 7, 4096);
    let mut sampler = StoredSampler::new(&img, fp, 7, quick_schedule(), store);
    sampler
        .run_range_stats(EngineKind::Stream, ProcessorConfig::table2(4), 0..windows, jobs)
        .into_iter()
        .map(|(_, s)| s)
        .collect()
}

/// For every interval choice — per-window rows (0), an interval that
/// splits mid-window, one that spans several windows, and one larger
/// than the whole run — the emitted rows partition the deltas exactly:
/// every column sums to the aggregate, bit for bit, and each row's
/// bucket columns sum to its cycles column.
#[test]
fn interval_rows_sum_exactly_to_the_aggregate_across_window_boundaries() {
    let store = tmp_store("sum");
    let windows = 6u64;
    let stats = sampled_stats(&store, windows, 1);
    assert_eq!(stats.len() as u64, windows);
    let mut agg = SimStats::default();
    for s in &stats {
        assert_eq!(s.buckets.sum(), s.cycles, "window accounting must be exhaustive");
        agg.accumulate(s);
    }
    let cols = ts_columns();
    let per_window = stats[0].committed;
    assert!(per_window > 0, "windows must commit instructions");
    // Intervals straddling every boundary case relative to the ~3k-inst
    // measured window: mid-window, exact, multi-window, whole-run.
    for interval in [0, per_window / 2, per_window, 2 * per_window + 1, u64::MAX / 2] {
        let mut buf = Vec::new();
        let mut sink = TimeSeriesSink::new(&mut buf, &cols, TS_KEY, interval).unwrap();
        for s in &stats {
            sink.record(&ts_delta(s)).unwrap();
        }
        let rows = sink.rows();
        let totals = sink.finish().unwrap();
        assert_eq!(
            totals,
            ts_delta(&agg),
            "interval {interval}: totals must equal the aggregate SimStats exactly"
        );
        // Re-derive the totals from the serialized rows themselves (the
        // same check the CI smoke leg runs on the emitted files).
        let text = String::from_utf8(buf).unwrap();
        let mut from_rows = vec![0u64; cols.len()];
        let mut n_rows = 0u64;
        for line in text.lines().skip(1) {
            let row = Obj::parse(line).expect("row parses");
            for (i, c) in cols.iter().enumerate() {
                from_rows[i] += row.u::<u64>(c).unwrap_or_else(|e| {
                    panic!("interval {interval}: row {line}: {e}")
                });
            }
            let row_cycles = row.u::<u64>("cycles").unwrap();
            let row_buckets: u64 =
                CycleBuckets::NAMES.iter().map(|n| row.u::<u64>(n).unwrap()).sum();
            assert_eq!(row_buckets, row_cycles, "row bucket columns must sum to cycles");
            n_rows += 1;
        }
        assert!(
            n_rows == rows || n_rows == rows + 1,
            "interval {interval}: finish() may add exactly one residual row \
             ({rows} before, {n_rows} serialized)"
        );
        assert_eq!(from_rows, totals, "interval {interval}: serialized rows lost a delta");
    }
    let _ = std::fs::remove_dir_all(store.root());
}

/// The stats-carrying entry point agrees with the point-only path, and
/// the parallel fan-out with the serial order: same sample points, same
/// per-window stats, warm store or cold.
#[test]
fn run_range_stats_matches_run_range_serial_and_parallel() {
    let store = tmp_store("par");
    let windows = 5u64;
    let img = phased_image(5);
    let fp = sfetch_trace::trace_fingerprint(&img, 7, 4096);
    let scfg = quick_schedule();
    let pcfg = ProcessorConfig::table2(4);

    let mut points_only = StoredSampler::new(&img, fp, 7, scfg, &store);
    let points = points_only.run_range(EngineKind::Stream, pcfg, 0..windows, 1);

    let mut serial = StoredSampler::new(&img, fp, 7, scfg, &store);
    let serial_full = serial.run_range_stats(EngineKind::Stream, pcfg, 0..windows, 1);
    assert_eq!(
        points,
        serial_full.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
        "run_range_stats must visit the same sample points"
    );
    for (p, s) in &serial_full {
        assert_eq!((p.committed, p.cycles), (s.committed, s.cycles));
    }

    let mut parallel = StoredSampler::new(&img, fp, 7, scfg, &store);
    let parallel_full = parallel.run_range_stats(EngineKind::Stream, pcfg, 0..windows, 3);
    assert_eq!(serial_full, parallel_full, "parallel fan-out must preserve window order");
    let _ = std::fs::remove_dir_all(store.root());
}

/// Every engine at the sampled grid's 8-wide cell configuration (its
/// own front model and natural prefetch policy, the grid defaults)
/// attributes every cycle of every sampled window to exactly one bucket.
#[test]
fn every_grid_engine_accounts_every_sampled_cycle_at_eight_wide() {
    let store = tmp_store("grid8");
    let img = phased_image(5);
    let fp = sfetch_trace::trace_fingerprint(&img, 7, 4096);
    let opts = HarnessOpts::default();
    for engine in grid_engines() {
        let pcfg = cell_config(GridCell { engine, width: 8 }, &opts);
        let mut sampler = StoredSampler::new(&img, fp, 7, quick_schedule(), &store);
        for (_, s) in sampler.run_range_stats(engine, pcfg, 0..3, 2) {
            assert!(s.cycles > 0, "{engine}: windows must simulate");
            assert_eq!(s.buckets.sum(), s.cycles, "{engine}: window accounting must be exhaustive");
        }
    }
    let _ = std::fs::remove_dir_all(store.root());
}
