//! The `fig8-cold` and `fig8-fleet` workloads: the default Fig. 8 grid
//! request, in-process one-shot or through the fleet supervisor, each
//! on a fresh checkpoint store.

use std::path::Path;
use std::time::Instant;

use sfetch_bench::fleet_grid::{run_fleet_grid, FleetGridSpec};
use sfetch_bench::grid::{
    cell_config, cells, engine_key, grid_engines, merge_grid, parse_shard_file, run_cell_range,
    run_cells_batched, run_sampled_grid, CellRun, GridCell, FIG8_WIDTHS,
};
use sfetch_bench::HarnessOpts;
use sfetch_sample::{
    estimate, BatchCell, BatchSampler, CheckpointStore, SamplePoint, StoreStats, StoredSampler,
    WarmTiming,
};
use sfetch_workloads::{phased, LayoutChoice, Workload};

use crate::gate::{self, Reference};
use crate::program::{self, families, Family, FIG8_TOTAL, REGISTERED_SEED};
use crate::report::{Report, Samples};
use crate::spans::{SpanId, Tracer};
use crate::{layers, stats, Env, Overrides};

/// Fleet worker processes per request.
const FLEET_PROCS: usize = 2;

/// The request's fixed parts.
struct Request<'a> {
    w: &'a Workload,
    family: Family,
    grid: Vec<GridCell>,
    windows: u64,
    opts: HarnessOpts,
}

/// Renders the merged grid the way `print_grid_table` prints it.
pub fn render(runs: &[CellRun]) -> String {
    let mut out = format!(
        "{:<18} {:>6} {:>8} {:>9} {:>9} {:>9} {:>8}\n",
        "engine", "width", "windows", "IPC", "ci lo", "ci hi", "±rel"
    );
    for r in runs {
        out.push_str(&format!(
            "{:<18} {:>6} {:>8} {:>9.4} {:>9.4} {:>9.4} {:>7.2}%\n",
            r.cell.engine.to_string(),
            r.cell.width,
            r.estimate.windows,
            r.estimate.ipc,
            r.estimate.ipc_lo,
            r.estimate.ipc_hi,
            100.0 * r.estimate.rel_half_width
        ));
    }
    out
}

/// Flattens merged runs into the `(engine, width, point)` tuples
/// `merge_grid` reads.
fn tuples(runs: &[CellRun]) -> Vec<(String, usize, SamplePoint)> {
    runs.iter()
        .flat_map(|r| {
            r.points
                .iter()
                .map(|p| (engine_key(r.cell.engine).to_owned(), r.cell.width, *p))
        })
        .collect()
}

fn add_stats(s: &mut Samples, st: StoreStats) {
    s.push("store.ckpt_hits", st.hits as f64);
    s.push("store.ckpt_misses", st.misses as f64);
    s.push("store.ckpt_rejected", st.rejected as f64);
}

/// Splits one sampler call's wall time into fast-forward, warming and
/// detailed simulation. `WarmTiming::ff_ns` is serial wall time;
/// `warm_ns` sums the window threads, so the parallel part of the wall
/// is shared between warming and detail in proportion to thread time.
fn split_sampler_wall(wall_s: f64, t: WarmTiming, threads: u64) -> [f64; 3] {
    let ff = (t.ff_ns as f64 / 1e9).min(wall_s);
    let parallel = wall_s - ff;
    let warm = (t.warm_ns as f64 / 1e9 / threads.max(1) as f64).min(parallel);
    [ff, warm, parallel - warm]
}

/// `run_sampled_grid` as the program runs it, through the program's own
/// per-call functions — `run_cell_range` per cell, or `run_cells_batched`
/// per batch group — so each call can be timed. Bit-identical output:
/// `run_sampled_grid` makes the same calls (one `run_cells_batched` over
/// every group is the same groups in the same order).
fn traced_grid(
    req: &Request<'_>,
    store: &CheckpointStore,
    tr: &mut Tracer,
    s: &mut Samples,
    traffic: &mut StoreStats,
) -> Vec<CellRun> {
    let (w, opts, scfg) = (req.w, &req.opts, req.family.sched);
    let mut per_cell: Vec<Vec<SamplePoint>> = Vec::with_capacity(req.grid.len());
    let mut calls: Vec<(SpanId, StoreStats)> = Vec::new();
    if opts.batch > 1 {
        for group in req.grid.chunks(opts.batch) {
            let id = tr.open("sample.group");
            let (points, st) =
                run_cells_batched(w, group, opts.batch, scfg, opts, store, 0..req.windows);
            tr.close(id);
            per_cell.extend(points);
            calls.push((id, st));
        }
    } else {
        for &cell in &req.grid {
            let id = tr.open("sample.cell");
            let (points, st) = run_cell_range(w, cell, scfg, opts, store, 0..req.windows);
            tr.close(id);
            per_cell.push(points);
            calls.push((id, st));
        }
    }
    for (id, st) in calls {
        s.push("sample.cell_ms", tr.secs(id) * 1e3);
        traffic.hits += st.hits;
        traffic.misses += st.misses;
        traffic.rejected += st.rejected;
    }
    req.grid
        .iter()
        .zip(per_cell)
        .map(|(&cell, points)| {
            let estimate = estimate(&points, scfg.confidence);
            CellRun {
                cell,
                points,
                estimate,
            }
        })
        .collect()
}

/// The fast-forward / warming / detail split of a request's sampling,
/// which the program's grid functions do not return.
///
/// It replays the sampler calls `run_cell_range` and `run_cells_batched`
/// make — the bodies of those functions, restated, because only the
/// samplers expose `WarmTiming` — on the request's store after the
/// request, when the store holds what it held during the grid (the
/// populated checkpoints; fig8 requests bank no warm state). It returns
/// the points it computed, which must equal the request's (checked per
/// traced request, and against `run_sampled_grid` by a unit test). A
/// change to those program functions that alters their output fails the
/// traced run; one that only alters how they compute is seen by the
/// request's own spans, not by this split, until the copy is updated.
fn split_probe(req: &Request<'_>, store: &CheckpointStore) -> (Vec<Vec<SamplePoint>>, [f64; 3]) {
    let (w, opts, scfg) = (req.w, &req.opts, req.family.sched);
    let img = w.image(LayoutChoice::Optimized);
    let fp = w.fingerprint(LayoutChoice::Optimized);
    let threads = (opts.jobs as u64).min(req.windows);
    let mut per_cell: Vec<Vec<SamplePoint>> = Vec::with_capacity(req.grid.len());
    let mut phase = [0.0; 3];
    let mut record = |t: Instant, timing: WarmTiming| {
        let wall = t.elapsed().as_secs_f64();
        for (acc, v) in phase
            .iter_mut()
            .zip(split_sampler_wall(wall, timing, threads))
        {
            *acc += v;
        }
    };
    if opts.batch > 1 {
        for group in req.grid.chunks(opts.batch) {
            let bcells: Vec<BatchCell> = group
                .iter()
                .map(|&c| BatchCell {
                    kind: c.engine,
                    pcfg: cell_config(c, opts),
                })
                .collect();
            let t = Instant::now();
            let mut b = BatchSampler::new(img, fp, w.ref_seed(), scfg, store)
                .with_warm_bank(opts.warm_bank);
            per_cell.extend(b.run_range_points(&bcells, 0..req.windows, opts.jobs));
            record(t, b.timing());
        }
    } else {
        for &cell in &req.grid {
            let t = Instant::now();
            let mut c = StoredSampler::new(img, fp, w.ref_seed(), scfg, store)
                .with_warm_bank(opts.warm_bank);
            per_cell.push(c.run_range(
                cell.engine,
                cell_config(cell, opts),
                0..req.windows,
                opts.jobs,
            ));
            record(t, c.timing());
        }
    }
    (per_cell, phase)
}

/// One request; returns its latency and merged result.
fn request(
    req: &Request<'_>,
    fleet: bool,
    dir: &Path,
    tr: &mut Tracer,
    s: &mut Samples,
) -> Result<(f64, Vec<CellRun>), String> {
    let (w, scfg) = (req.w, req.family.sched);
    let traced = tr.on();
    let root = tr.open("request");
    let t0 = Instant::now();
    let store = tr
        .time("store.open", || CheckpointStore::open(dir))
        .map_err(|e| format!("open store {}: {e}", dir.display()))?;
    let img = w.image(LayoutChoice::Optimized);
    let fp = w.fingerprint(LayoutChoice::Optimized);
    let pop = tr.open("trace.populate");
    let mut populate = StoredSampler::new(img, fp, w.ref_seed(), scfg, &store);
    populate.populate(req.windows);
    tr.close(pop);
    let mut traffic = populate.stats();
    let mut shard_texts: Vec<String> = Vec::new();
    let runs = if fleet {
        let id = tr.open("fleet.run");
        let outcome = run_fleet_grid(&FleetGridSpec {
            bench: phased::LONG_NAME,
            grid: &req.grid,
            scfg,
            total: req.family.total(req.windows),
            opts: &req.opts,
            store_dir: dir,
            procs: FLEET_PROCS,
            chaos: None,
            max_retries: 3,
            cell_timeout_s: None,
        })
        .map_err(|e| format!("fleet: {e}"))?;
        tr.close(id);
        let fleet_wall = tr.secs(id);
        if !outcome.incomplete.is_empty() || !outcome.report.incomplete.is_empty() {
            return Err(format!(
                "fleet: degraded, {} cells failed",
                outcome.report.incomplete.len()
            ));
        }
        if traced {
            let r = &outcome.report;
            s.push("fleet.spawned", r.spawned as f64);
            s.push("fleet.retries", r.retries as f64);
            s.push("fleet.kills", r.kills as f64);
            let durs: Vec<f64> = r
                .done
                .iter()
                .filter(|d| !d.resumed)
                .map(|d| d.dur_ms as f64)
                .collect();
            s.push("fleet.cell_p50_ms", stats::median(&durs));
            s.push(
                "fleet.cell_max_ms",
                durs.iter().copied().fold(0.0, f64::max),
            );
            s.push(
                "fleet.busy_frac",
                durs.iter().sum::<f64>() / 1e3 / (FLEET_PROCS as f64 * fleet_wall),
            );
            shard_texts = r.done.iter().map(|d| d.text.clone()).collect();
        }
        outcome.runs
    } else if traced {
        traced_grid(req, &store, tr, s, &mut traffic)
    } else {
        run_sampled_grid(
            w,
            &req.grid,
            scfg,
            req.family.total(req.windows),
            &req.opts,
            &store,
        )
        .0
    };
    let merge = tr.open("grid.merge");
    let merged = merge_grid(&req.grid, req.windows, &tuples(&runs), scfg.confidence)
        .map_err(|e| format!("merge: {e}"))?;
    tr.close(merge);
    let table = tr.time("grid.render", || render(&merged));
    std::hint::black_box(table);
    let latency = t0.elapsed().as_secs_f64();
    tr.close(root);
    if traced {
        s.push("trace.populate_s", tr.secs(pop));
        s.push("grid.merge_ms", tr.secs(merge) * 1e3);
        if fleet {
            // The parse the supervisor ran inside `fleet.run`, repeated
            // after the request so it can be timed.
            let t = Instant::now();
            for text in &shard_texts {
                parse_shard_file(text).map_err(|e| format!("shard parse: {e}"))?;
            }
            s.push("grid.parse_ms", t.elapsed().as_secs_f64() * 1e3);
        }
        add_stats(s, traffic);
        s.push("store.bytes", store.total_bytes() as f64);
        // Every window a one-shot request simulates is delivered once.
        s.push("sample.reuse_ratio", 1.0);
        layers::probe_ckpt_loads(store.root(), w, scfg, req.windows, s);
        if !fleet {
            let (points, phase) = split_probe(req, &store);
            if !points.iter().eq(runs.iter().map(|r| &r.points)) {
                return Err("the ff/warm/detail probe diverged from the request".into());
            }
            for (name, v) in ["sample.ff_s", "sample.warm_s", "sample.detail_s"]
                .into_iter()
                .zip(phase)
            {
                s.push(name, v);
            }
        }
    }
    Ok((latency, merged))
}

/// Programs a `fig8-cold` run rotates through. One program's speed
/// differs from another's by about ten percent, so each run averages
/// over several, all drawn from its seed.
const PROGRAMS_PER_RUN: u64 = 3;

/// Generation seed of program `j` of a run: the first is the run's seed
/// itself, so seed 2026 includes the registered program.
fn program_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_add(j.wrapping_mul(1_000_003))
}

/// Runs `fig8-cold` (`fleet == false`) or `fig8-fleet`.
///
/// # Errors
///
/// Set-up failures (the reference, the work directory); request
/// failures are counted, not raised.
pub fn run(env: &Env, seed: u64, fleet: bool, over: &Overrides) -> Result<Report, String> {
    // Fleet workers look the program up by name: the registered one.
    let seeds: Vec<u64> = if fleet {
        vec![REGISTERED_SEED]
    } else {
        (0..PROGRAMS_PER_RUN)
            .map(|j| program_seed(seed, j))
            .collect()
    };
    let mut s = Samples::default();
    let mut setups = Vec::new();
    // Set-ups rotate over the run's programs; each keeps its last build.
    let mut progs: Vec<Option<program::Program>> = seeds.iter().map(|_| None).collect();
    for rep in 0..crate::SETUP_REPS.max(seeds.len()) {
        let j = rep % seeds.len();
        let t = Instant::now();
        let p = program::build(seeds[j]);
        setups.push(t.elapsed().as_secs_f64());
        s.push("workloads.generate_s", p.generate_s);
        s.push("workloads.build_s", p.build_s);
        progs[j] = Some(p);
    }
    let progs: Vec<program::Program> = progs.into_iter().flatten().collect();
    let family = families()[0];
    let mut opts = family.opts(FIG8_TOTAL);
    opts.jobs = over.jobs.unwrap_or(opts.jobs);
    opts.batch = over.batch.unwrap_or(opts.batch);
    let grid = cells(&grid_engines(), &FIG8_WIDTHS);
    let windows = family.sched.windows(FIG8_TOTAL);
    let reqs: Vec<Request<'_>> = progs
        .iter()
        .map(|p| Request {
            w: &p.w,
            family,
            grid: grid.clone(),
            windows,
            opts,
        })
        .collect();

    // References, untimed: embedded for the registered program,
    // otherwise computed once per program by the storeless sampler.
    let t_ref = Instant::now();
    let mut refs = Vec::new();
    for (p, &ps) in progs.iter().zip(&seeds) {
        let r = if ps == REGISTERED_SEED {
            Reference::registered()?
        } else {
            Reference::storeless(&p.w, 0, &family, &grid, windows, program::nproc())
        };
        let cycles = r.cycles(0, &grid, windows)?;
        refs.push((r, cycles));
    }
    let ref_s = t_ref.elapsed().as_secs_f64();
    crate::rss::reset_peak();

    let mut report = Report::default();
    let mut tr = Tracer::new(env.trace, env.origin);
    let mut off = Tracer::new(false, env.origin);
    // Latency of each request (None when it failed) and whether traced.
    let mut log: Vec<(Option<f64>, bool)> = Vec::new();
    let mut delivered = 0u64;
    // Σ cycles of the first result each program delivered.
    let mut delivered_cycles: Vec<Option<u64>> = vec![None; seeds.len()];
    let mut t_loop = Instant::now();
    // Request 0 warms this process (page cache, allocator, the fleet's
    // worker binary) and is checked but not timed.
    let mut i = 0u64;
    while i == 0 || t_loop.elapsed().as_secs_f64() < env.seconds {
        // Both requests of a pair run the same program. Traced runs
        // trace one request of each pair, alternating which goes first
        // (ABBA).
        // `n` counts the timed requests (the warm-up runs as the first).
        let n = i.saturating_sub(1);
        let j = ((n / 2) % seeds.len() as u64) as usize;
        let (req, (reference, pinned)) = (&reqs[j], &refs[j]);
        let traced = env.trace && i > 0 && stats::abba_traced(n);
        let dir = env.work.join(format!("req-{i}"));
        report.attempted += 1;
        tr.set_req(i);
        let t = if traced { &mut tr } else { &mut off };
        let outcome = request(req, fleet, &dir, t, &mut s);
        t.unwind();
        let _ = std::fs::remove_dir_all(&dir);
        let verdict = outcome.and_then(|(latency, runs)| {
            reference.check(0, &runs, windows)?;
            let cycles = gate::sim_cycles(&runs);
            if cycles != *pinned {
                return Err("sim_cycles differ from the reference".into());
            }
            if seeds[j] == REGISTERED_SEED {
                gate::check_bench10(&runs)?;
            }
            Ok((latency, cycles))
        });
        if let Ok((_, cycles)) = verdict {
            delivered_cycles[j].get_or_insert(cycles);
        }
        match verdict.map(|(latency, _)| latency) {
            Ok(_) if i == 0 => t_loop = Instant::now(),
            Ok(latency) => {
                delivered += grid.len() as u64 * windows;
                log.push((Some(latency), traced));
            }
            Err(e) => {
                report.failed += 1;
                report.notes.push(format!(
                    "request {i} (program seed {}) failed: {e}",
                    seeds[j]
                ));
                if i == 0 {
                    t_loop = Instant::now();
                } else {
                    log.push((None, traced));
                }
            }
        }
        i += 1;
    }
    let loop_s = t_loop.elapsed().as_secs_f64();

    let lat: Vec<f64> = log
        .iter()
        .filter(|(_, t)| !t)
        .filter_map(|(l, _)| *l)
        .collect();
    report.notes.push(format!(
        "latencies: {}",
        lat.iter()
            .map(|l| format!("{l:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let p50 = stats::median(&lat);
    let tail = stats::tail(&lat);
    report.set("setup_s", stats::median(&setups));
    report.set("request_p50_s", p50);
    report.set("request_tail_s", tail.value);
    report.set("windows_per_s", delivered as f64 / loop_s);
    // One-shot paths hand over every point at once, with the table.
    report.set("first_point_p50_s", p50);
    report.notes.push(format!(
        "{} requests of {} cells x {windows} windows over {} program(s) {seeds:?}; \
         request_tail_s is p{:.0} of n={}; references {ref_s:.2}s untimed",
        report.attempted,
        grid.len(),
        seeds.len(),
        tail.pct,
        tail.n,
    ));

    if env.trace {
        layers::measure_program(&progs[0].w, &opts, &mut s);
        // Every delivered result of a program is gated equal to its
        // reference's sum; a program that delivered nothing adds 0.
        s.push(
            "core.sim_cycles",
            delivered_cycles.iter().flatten().sum::<u64>() as f64,
        );
        let pairs: Vec<(f64, f64)> = log
            .chunks_exact(2)
            .filter_map(|p| match (p[0], p[1]) {
                ((Some(a), false), (Some(b), true)) => Some((a, b)),
                ((Some(b), true), (Some(a), false)) => Some((a, b)),
                _ => None,
            })
            .collect();
        report.set("bench.trace_overhead", stats::paired_overhead(&pairs));
        let traced: Vec<f64> = log
            .iter()
            .filter(|(_, t)| *t)
            .filter_map(|(l, _)| *l)
            .collect();
        report.notes.push(format!(
            "traced p50 {:.3}s vs untraced {p50:.3}s over {} pairs",
            stats::median(&traced),
            pairs.len()
        ));
        layers::attribute_requests(tr.spans(), &mut s, &mut report.notes);
        report.set_layers_from(&s);
        crate::write_spans(env, &tr)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The probe restates the program's sampler calls, so it must
    /// deliver exactly what `run_sampled_grid` delivers, per cell and
    /// per batch group.
    #[test]
    fn the_split_probe_matches_run_sampled_grid() {
        let p = program::build(REGISTERED_SEED);
        let family = families()[0];
        let windows = 1;
        let grid = cells(&grid_engines(), &FIG8_WIDTHS)[..2].to_vec();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench")
            .join(format!("test-probe-{}", std::process::id()));
        for batch in [1, 2] {
            let _ = std::fs::remove_dir_all(&dir);
            let store = CheckpointStore::open(&dir).expect("open store");
            let mut opts = family.opts(family.total(windows));
            opts.batch = batch;
            let req = Request {
                w: &p.w,
                family,
                grid: grid.clone(),
                windows,
                opts,
            };
            let img = p.w.image(LayoutChoice::Optimized);
            let fp = p.w.fingerprint(LayoutChoice::Optimized);
            StoredSampler::new(img, fp, p.w.ref_seed(), family.sched, &store).populate(windows);
            let (want, _) = run_sampled_grid(
                &p.w,
                &grid,
                family.sched,
                family.total(windows),
                &opts,
                &store,
            );
            let (got, phase) = split_probe(&req, &store);
            assert!(
                got.iter().eq(want.iter().map(|r| &r.points)),
                "batch {batch}: the probe diverged from run_sampled_grid"
            );
            assert!(phase.iter().all(|&v| v >= 0.0) && phase[1] > 0.0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
