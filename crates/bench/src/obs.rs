//! Harness-side observability adapters: the glue between the
//! simulator-agnostic sinks in `sfetch-obs` and this crate's simulator
//! types.
//!
//! Three pieces live here, mirroring the dependency charter (`core` must
//! not depend on `obs`, and `obs` must stay std-only):
//!
//! * [`KonataObserver`] — implements [`sfetch_core::Observer`] over an
//!   [`sfetch_obs::KonataTrace`], turning pipeline events into
//!   Konata-format traces. [`capture_ptrace`] runs a dedicated short
//!   detailed simulation with one attached.
//! * [`ts_columns`] / [`ts_delta`] — the `SimStats` → named-column
//!   conversion feeding [`sfetch_obs::TimeSeriesSink`]: committed and
//!   total cycles first, then every [`CycleBuckets`] bucket, so summing
//!   any column across the emitted rows reproduces the aggregate.
//! * [`ObsOpts`] — the shared `--obs-dir DIR` / `--interval N` /
//!   `--ptrace LO-HI` command-line surface, extracted from the argument
//!   list *before* [`crate::HarnessOpts`] parsing (which rejects unknown
//!   flags). Observability options deliberately never enter the grid
//!   config fingerprint: attaching sinks must not invalidate a resumable
//!   ledger or checkpoint store.

use std::path::PathBuf;

use sfetch_core::{CycleBuckets, Observer, Processor, ProcessorConfig, SimStats};
use sfetch_fetch::EngineKind;
use sfetch_isa::Addr;
use sfetch_obs::jsonl::str_array;
use sfetch_obs::{JsonlFile, KonataTrace, Row, TimeSeriesSink};
use sfetch_sample::{BatchCell, BatchSampler, CheckpointStore, SampleConfig};
use sfetch_workloads::{LayoutChoice, Workload};

use crate::grid::{cell_config, engine_key, GridCell};
use crate::{flag_value, number, HarnessOpts};

/// [`Observer`] adapter feeding a buffered [`KonataTrace`].
#[derive(Debug)]
pub struct KonataObserver(pub KonataTrace);

impl Observer for KonataObserver {
    const ENABLED: bool = true;

    #[inline]
    fn fetched(&mut self, now: u64, seq: u64, pc: Addr, wrong_path: bool) {
        self.0.fetched(now, seq, pc.get(), wrong_path);
    }

    #[inline]
    fn issued(&mut self, now: u64, seq: u64, done_at: u64) {
        self.0.issued(now, seq, done_at);
    }

    #[inline]
    fn committed(&mut self, now: u64, seq: u64) {
        self.0.committed(now, seq);
    }

    #[inline]
    fn squashed(&mut self, now: u64, seq: u64) {
        self.0.squashed(now, seq);
    }
}

/// Column names of the cycle-accounting time series: `committed` and
/// `cycles` first (so `cycles == sum of bucket columns` is checkable row
/// by row and in aggregate), then the [`CycleBuckets::NAMES`] buckets.
pub fn ts_columns() -> Vec<&'static str> {
    let mut cols = Vec::with_capacity(2 + CycleBuckets::NAMES.len());
    cols.push("committed");
    cols.push("cycles");
    cols.extend(CycleBuckets::NAMES);
    cols
}

/// Index of the committed-instructions column in [`ts_columns`] — the
/// key column driving [`sfetch_obs::TimeSeriesSink`] row boundaries.
pub const TS_KEY: usize = 0;

/// Converts one measurement window's [`SimStats`] delta into the
/// [`ts_columns`] vector.
pub fn ts_delta(s: &SimStats) -> Vec<u64> {
    let mut v = Vec::with_capacity(2 + CycleBuckets::NAMES.len());
    v.push(s.committed);
    v.push(s.cycles);
    v.extend(s.buckets.to_array());
    v
}

/// The shared observability command-line options.
#[derive(Debug, Clone, Default)]
pub struct ObsOpts {
    /// `--obs-dir DIR`: where time-series and pipeline-trace files land.
    /// `None` disables every sink (the bit-identical default).
    pub dir: Option<PathBuf>,
    /// `--interval N`: committed instructions per time-series row
    /// (0 = one row per measurement window/chunk, the default).
    pub interval: u64,
    /// `--ptrace LO-HI`: capture a Konata pipeline trace of fetch
    /// sequence numbers `[LO, HI)` via a dedicated detailed side-run.
    pub ptrace: Option<(u64, u64)>,
}

impl ObsOpts {
    /// Extracts (removes) the observability flags from `args`, leaving
    /// the remainder for [`HarnessOpts::from_arg_list`].
    ///
    /// # Errors
    ///
    /// [`crate::grid::GridError::Cli`] naming the flag on a missing or
    /// malformed value.
    pub fn extract(args: &mut Vec<String>) -> Result<Self, crate::grid::GridError> {
        let mut o = ObsOpts::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--obs-dir" => {
                    o.dir = Some(flag_value(args, i, "a directory", |v| Some(PathBuf::from(v)))?)
                }
                "--interval" => o.interval = flag_value(args, i, "a number", number)?,
                "--ptrace" => {
                    o.ptrace = Some(flag_value(args, i, "LO-HI with LO < HI", parse_range)?)
                }
                _ => {
                    i += 1;
                    continue;
                }
            }
            args.drain(i..i + 2);
        }
        Ok(o)
    }

    /// Whether any sink is enabled.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }
}

/// Parses a `LO-HI` sequence range with `LO < HI`.
fn parse_range(s: &str) -> Option<(u64, u64)> {
    let (lo, hi) = s.split_once('-')?;
    let (lo, hi) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
    (lo < hi).then_some((lo, hi))
}

/// Captures a Konata pipeline trace of fetch sequence numbers
/// `[range.0, range.1)` on one (workload, engine, width) point via a
/// dedicated detailed side-run (no sampling, no warmup exclusion — a
/// pipeline trace wants the pipeline exactly as it filled). The run is
/// *separate* from any measurement run, so attaching it cannot perturb
/// reported statistics; tracing-off measurement runs stay bit-identical.
pub fn capture_ptrace(
    w: &Workload,
    engine: EngineKind,
    width: usize,
    opts: &HarnessOpts,
    range: (u64, u64),
) -> KonataTrace {
    let image = w.image(LayoutChoice::Optimized);
    let mut pc = ProcessorConfig::table2(width);
    pc.prefetch = opts.prefetch;
    pc.front = opts.front.front_for(engine);
    let eng = engine.build_for(width, image.entry(), &pc.prefetch, &pc.front);
    let mem = sfetch_mem::MemoryHierarchy::new(sfetch_mem::MemoryConfig::table2(width));
    let oracle = sfetch_trace::Executor::from_image(image, w.ref_seed());
    let mut p = Processor::with_state_observed(
        pc,
        eng,
        image,
        oracle,
        mem,
        KonataObserver(KonataTrace::new(range.0, range.1)),
    );
    // Sequence numbers never trail commits: once `range.1` instructions
    // have committed, every traced sequence number has been fetched.
    // A short tail run lets in-flight traced instructions retire (any
    // stragglers are closed as flushed on serialization).
    p.run(range.1);
    p.run(2 * width as u64 + 64);
    p.into_observer().0
}

/// Emits the sampled runners' observability artifacts into
/// `obs.dir`: one `ts_<engine>_<width>.jsonl` cycle-accounting time
/// series per grid cell (windows re-simulated through the warm
/// checkpoint store — a pure side pass, so the measured run's
/// statistics are untouched) and, with `--ptrace`, one
/// `ptrace_<engine>.kanata` pipeline trace per engine at the widest
/// configuration. No-op when `--obs-dir` was not given.
///
/// The side pass honours the `--batch N` cap: cells are swept in groups
/// of at most `N` (by default the whole grid), each group's windows
/// driven by one [`BatchSampler`] over the shared functional reference
/// stream, and `batches.jsonl` records which time series came out of
/// which sweep (per-batch attribution). Because the batched sweep is
/// bit-identical to the storeless [`sfetch_sample::Sampler`] for any
/// group shape (the tier-1 differential oracle), the emitted rows are
/// the same bytes at any batch size — only the attribution manifest and
/// the wall time change.
///
/// Every sink is checked on the way out: the time-series totals must
/// equal the accumulated per-window [`SimStats`] exactly (the
/// sum-exactness contract the CI smoke leg re-derives from the files).
pub fn write_sampled_obs(
    w: &Workload,
    grid: &[GridCell],
    scfg: SampleConfig,
    windows: u64,
    opts: &HarnessOpts,
    obs: &ObsOpts,
    store: &CheckpointStore,
) -> std::io::Result<()> {
    let Some(dir) = obs.dir.as_deref() else { return Ok(()) };
    std::fs::create_dir_all(dir)?;
    let img = w.image(LayoutChoice::Optimized);
    let fp = w.fingerprint(LayoutChoice::Optimized);
    let cols = ts_columns();
    let batch = opts.batch.max(1);
    let mut manifest = JsonlFile::create(&dir.join("batches.jsonl"))?;
    for (group, chunk) in grid.chunks(batch).enumerate() {
        // The per-window stats are identical for any grouping — it only
        // decides how many functional reference walks the side pass
        // pays for.
        let cells: Vec<BatchCell> = chunk
            .iter()
            .map(|&c| BatchCell { kind: c.engine, pcfg: cell_config(c, opts) })
            .collect();
        let results = BatchSampler::new(img, fp, w.ref_seed(), scfg, store)
            .run_range(&cells, 0..windows, opts.jobs);
        let names: Vec<String> = chunk
            .iter()
            .map(|c| format!("ts_{}_{}.jsonl", engine_key(c.engine), c.width))
            .collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        manifest.write_row(
            Row::new()
                .u("batch", group as u64)
                .u("size", chunk.len() as u64)
                .u("windows", windows)
                .raw("series", &str_array(&name_refs)),
        )?;
        for (name, per_window) in names.iter().zip(&results) {
            let path = dir.join(name);
            let file = std::io::BufWriter::new(std::fs::File::create(&path)?);
            let mut sink = TimeSeriesSink::new(file, &cols, TS_KEY, obs.interval)?;
            let mut agg = SimStats::default();
            for (_, s) in per_window {
                sink.record(&ts_delta(s))?;
                agg.accumulate(s);
            }
            let totals = sink.finish()?;
            assert_eq!(totals, ts_delta(&agg), "time-series totals must equal the aggregate");
            eprintln!(
                "obs: time series ({} windows, batch {group}) written to {}",
                per_window.len(),
                path.display()
            );
        }
    }
    if let Some(range) = obs.ptrace {
        let width = grid.iter().map(|c| c.width).max().unwrap_or(8);
        let mut seen: Vec<EngineKind> = Vec::new();
        for &cell in grid {
            if cell.width != width || seen.contains(&cell.engine) {
                continue;
            }
            seen.push(cell.engine);
            let trace = capture_ptrace(w, cell.engine, width, opts, range);
            let path = dir.join(format!("ptrace_{}.kanata", engine_key(cell.engine)));
            trace.save(&path)?;
            eprintln!(
                "obs: pipeline trace ({} insts) written to {}",
                trace.captured(),
                path.display()
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_flags_extract_and_leave_the_rest() {
        let mut args: Vec<String> =
            ["--inst", "5000", "--obs-dir", "/tmp/obs", "--interval", "250", "--ptrace", "10-90"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect();
        let o = ObsOpts::extract(&mut args).expect("parses");
        assert_eq!(o.dir.as_deref(), Some(std::path::Path::new("/tmp/obs")));
        assert_eq!(o.interval, 250);
        assert_eq!(o.ptrace, Some((10, 90)));
        assert!(o.enabled());
        assert_eq!(args, vec!["--inst".to_owned(), "5000".to_owned()]);
        let h = HarnessOpts::from_arg_list(&args).expect("parses");
        assert_eq!(h.insts, 5000);
    }

    #[test]
    fn ts_columns_cover_committed_cycles_and_every_bucket() {
        let cols = ts_columns();
        assert_eq!(cols[TS_KEY], "committed");
        assert_eq!(cols.len(), 2 + CycleBuckets::NAMES.len());
        let mut s = SimStats { committed: 7, cycles: 9, ..Default::default() };
        s.buckets.commit = 4;
        s.buckets.backend = 5;
        let d = ts_delta(&s);
        assert_eq!(d.len(), cols.len());
        assert_eq!(d[0], 7);
        assert_eq!(d[1], 9);
        assert_eq!(d[2..].iter().sum::<u64>(), 9, "bucket columns sum to cycles");
    }

    #[test]
    fn bad_ptrace_ranges_are_rejected() {
        assert_eq!(parse_range("10-90"), Some((10, 90)));
        assert_eq!(parse_range("90-10"), None);
        assert_eq!(parse_range("10"), None);
        assert_eq!(parse_range("a-b"), None);
    }
}
