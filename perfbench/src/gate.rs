//! The correctness gate: every merged request result is compared, window
//! by window, with a reference computed by the storeless live sampler.
//!
//! Simulated statistics are deterministic, so the check is bit-identity,
//! not accuracy: it proves the store, fleet and daemon paths deliver
//! exactly what the plain sampler computes. Whether the sampled IPC is
//! *right* has never been checked against a full run.

use std::collections::HashMap;

use sfetch_bench::grid::{cell_config, engine_key, CellRun, GridCell};
use sfetch_fleet::fnv64;
use sfetch_sample::{SamplePoint, Sampler};
use sfetch_workloads::{par_map, LayoutChoice, Workload};

use crate::program::Family;

/// The reference for the registered program: every family of
/// [`crate::program::families`] over [`crate::program::MAX_WINDOWS`]
/// windows. Regenerate with `perfbench --write-reference`.
const REGISTERED: &str = include_str!("../reference/registered.tsv");

/// `calibration_grid.points` of the committed `BENCH_10.json` (the
/// registered program, default request, 50M): engine, width, IPC, CI
/// bounds, relative half-width, windows — as printed there, to 4
/// decimals.
const BENCH10_POINTS: [(&str, usize, f64, f64, f64, f64, u64); 12] = [
    ("ev8", 2, 1.1501, 1.0813, 1.2284, 0.0637, 4),
    ("ftb", 2, 1.3268, 1.2146, 1.462, 0.0924, 4),
    ("stream", 2, 1.3391, 1.2072, 1.5034, 0.1093, 4),
    ("tcache", 2, 0.8454, 0.7759, 0.9286, 0.0896, 4),
    ("ev8", 4, 1.8214, 1.715, 1.942, 0.0621, 4),
    ("ftb", 4, 2.0991, 1.968, 2.2488, 0.0666, 4),
    ("stream", 4, 2.1641, 1.9901, 2.3713, 0.0874, 4),
    ("tcache", 4, 1.3891, 1.3109, 1.4773, 0.0597, 4),
    ("ev8", 8, 2.7087, 2.5728, 2.8597, 0.0528, 4),
    ("ftb", 8, 2.9818, 2.6516, 3.4059, 0.1245, 4),
    ("stream", 8, 3.121, 2.6098, 3.8812, 0.1959, 4),
    ("tcache", 8, 2.2401, 2.019, 2.5156, 0.1095, 4),
];

/// Digest of one window's result (every field of the point).
pub fn point_digest(engine: &str, width: usize, p: &SamplePoint) -> u64 {
    let line = format!(
        "{engine} {width} {} {} {} {} {} {}",
        p.window, p.start_inst, p.committed, p.cycles, p.stall_cycles, p.mispredictions
    );
    fnv64(line.as_bytes())
}

/// `(family, engine key, width, window)`.
type Key = (usize, String, usize, u64);

/// Reference digests and cycle counts per window.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    points: HashMap<Key, (u64, u64)>,
}

impl Reference {
    /// The embedded reference of the registered program.
    ///
    /// # Errors
    ///
    /// A readable message when the embedded table is malformed.
    pub fn registered() -> Result<Self, String> {
        Self::parse(REGISTERED)
    }

    /// Parses `family engine width window cycles digest` lines.
    ///
    /// # Errors
    ///
    /// A readable message naming the bad line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut points = HashMap::new();
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("reference line {}: {line:?}", i + 1);
            if f.len() != 6 {
                return Err(bad());
            }
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let digest = u64::from_str_radix(f[5], 16).map_err(|_| bad())?;
            let key = (
                num(f[0])? as usize,
                f[1].to_owned(),
                num(f[2])? as usize,
                num(f[3])?,
            );
            points.insert(key, (num(f[4])?, digest));
        }
        Ok(Reference { points })
    }

    /// Renders the table [`Reference::parse`] reads, sorted.
    pub fn to_tsv(&self) -> String {
        let mut rows: Vec<_> = self.points.iter().collect();
        rows.sort_by(|a, b| a.0.cmp(b.0));
        rows.iter()
            .map(|((fam, e, w, win), (cycles, d))| {
                format!("{fam}\t{e}\t{w}\t{win}\t{cycles}\t{d:016x}\n")
            })
            .collect()
    }

    /// Computes the reference of `grid` in family `fam` over `windows`
    /// windows with the storeless live sampler (the `--verify` oracle),
    /// one cell per worker.
    pub fn storeless(
        w: &Workload,
        fam: usize,
        family: &Family,
        grid: &[GridCell],
        windows: u64,
        jobs: usize,
    ) -> Self {
        let img = w.image(LayoutChoice::Optimized);
        let opts = family.opts(family.total(windows));
        let per_cell = par_map(grid, jobs, |_, &cell| {
            Sampler::new(
                img,
                cell.engine,
                cell_config(cell, &opts),
                family.sched,
                w.ref_seed(),
            )
            .run(windows)
        });
        let mut r = Reference::default();
        for (cell, pts) in grid.iter().zip(per_cell) {
            r.add(fam, cell, &pts);
        }
        r
    }

    fn add(&mut self, fam: usize, cell: &GridCell, pts: &[SamplePoint]) {
        let key = engine_key(cell.engine);
        for p in pts {
            self.points.insert(
                (fam, key.to_owned(), cell.width, p.window),
                (p.cycles, point_digest(key, cell.width, p)),
            );
        }
    }

    /// Merges another reference in.
    pub fn extend(&mut self, other: Reference) {
        self.points.extend(other.points);
    }

    /// Checks a merged result of family `fam`: every cell must carry
    /// exactly windows `0..windows`, each bit-identical to the reference.
    ///
    /// # Errors
    ///
    /// The first divergence, by cell and window.
    pub fn check(&self, fam: usize, runs: &[CellRun], windows: u64) -> Result<(), String> {
        for run in runs {
            let (e, w) = (engine_key(run.cell.engine), run.cell.width);
            if run.points.len() as u64 != windows {
                return Err(format!(
                    "{e}/{w}: {} windows, expected {windows}",
                    run.points.len()
                ));
            }
            for p in &run.points {
                match self.points.get(&(fam, e.to_owned(), w, p.window)) {
                    Some(&(_, d)) if d == point_digest(e, w, p) => {}
                    Some(_) => {
                        return Err(format!(
                            "{e}/{w} window {}: differs from the reference",
                            p.window
                        ))
                    }
                    None => return Err(format!("{e}/{w} window {}: no reference", p.window)),
                }
            }
        }
        Ok(())
    }

    /// Sum of simulated cycles over `grid` × windows `0..windows` of
    /// family `fam`.
    ///
    /// # Errors
    ///
    /// A readable message when a window has no reference.
    pub fn cycles(&self, fam: usize, grid: &[GridCell], windows: u64) -> Result<u64, String> {
        let mut sum = 0;
        for cell in grid {
            for win in 0..windows {
                let key = (fam, engine_key(cell.engine).to_owned(), cell.width, win);
                sum += self
                    .points
                    .get(&key)
                    .ok_or_else(|| format!("no reference for {key:?}"))?
                    .0;
            }
        }
        Ok(sum)
    }
}

/// Sum of simulated cycles over a merged result.
pub fn sim_cycles(runs: &[CellRun]) -> u64 {
    runs.iter().flat_map(|r| &r.points).map(|p| p.cycles).sum()
}

/// Checks the registered program's default 50M request against the
/// estimates recorded in `BENCH_10.json`.
///
/// # Errors
///
/// The first cell whose rounded estimate differs.
pub fn check_bench10(runs: &[CellRun]) -> Result<(), String> {
    let round4 = |x: f64| (x * 1e4).round() / 1e4;
    if runs.len() != BENCH10_POINTS.len() {
        return Err(format!(
            "{} cells, BENCH_10 has {}",
            runs.len(),
            BENCH10_POINTS.len()
        ));
    }
    for (run, &(e, w, ipc, lo, hi, rel, windows)) in runs.iter().zip(&BENCH10_POINTS) {
        let est = &run.estimate;
        let got = [est.ipc, est.ipc_lo, est.ipc_hi, est.rel_half_width].map(round4);
        let same = engine_key(run.cell.engine) == e
            && run.cell.width == w
            && est.windows == windows
            && got
                .iter()
                .zip([ipc, lo, hi, rel])
                .all(|(g, r)| (g - r).abs() < 1e-9);
        if !same {
            return Err(format!(
                "{e}/{w}: IPC {:.4} [{:.4}, {:.4}] ±{:.4} over {} windows, BENCH_10 records \
                 {ipc} [{lo}, {hi}] ±{rel} over {windows}",
                est.ipc, est.ipc_lo, est.ipc_hi, est.rel_half_width, est.windows
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfetch_bench::grid::{cells, grid_engines, FIG8_WIDTHS};
    use sfetch_sample::{estimate, Confidence};

    fn run_of(cell: GridCell, cycles: &[u64]) -> CellRun {
        let points: Vec<SamplePoint> = cycles
            .iter()
            .enumerate()
            .map(|(w, &c)| SamplePoint {
                window: w as u64,
                start_inst: 1000 * w as u64,
                committed: 5000,
                cycles: c,
                stall_cycles: 10,
                mispredictions: 3,
            })
            .collect();
        let estimate = estimate(&points, Confidence::C95);
        CellRun {
            cell,
            points,
            estimate,
        }
    }

    #[test]
    fn a_corrupted_reference_digest_fails_the_gate() {
        let cell = cells(&grid_engines(), &FIG8_WIDTHS)[0];
        let runs = vec![run_of(cell, &[2000, 2100])];
        let mut r = Reference::default();
        r.add(0, &cell, &runs[0].points);
        assert_eq!(r.check(0, &runs, 2), Ok(()));
        // Round-trips through its text form.
        let back = Reference::parse(&r.to_tsv()).expect("parses");
        assert_eq!(back.check(0, &runs, 2), Ok(()));
        // Flip one bit of one digest.
        let tsv = r.to_tsv();
        let line = tsv.lines().next().expect("a row");
        let digest = line.rsplit('\t').next().expect("digest field");
        let flipped = format!("{:016x}", u64::from_str_radix(digest, 16).expect("hex") ^ 1);
        let corrupt = Reference::parse(&tsv.replacen(digest, &flipped, 1)).expect("parses");
        assert!(
            corrupt.check(0, &runs, 2).is_err(),
            "a flipped digest must fail the gate"
        );
        // A missing window or a different result fails too.
        assert!(r.check(0, &runs, 3).is_err());
        assert!(r.check(0, &[run_of(cell, &[2000, 2101])], 2).is_err());
        assert!(
            r.check(1, &runs, 2).is_err(),
            "another family has no reference here"
        );
    }

    #[test]
    fn the_embedded_reference_covers_every_family() {
        let r = Reference::registered().expect("embedded reference parses");
        let grid = cells(&grid_engines(), &FIG8_WIDTHS);
        for fam in 0..crate::program::families().len() {
            assert!(
                r.cycles(fam, &grid, crate::program::MAX_WINDOWS).is_ok(),
                "family {fam}"
            );
        }
    }
}
