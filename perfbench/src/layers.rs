//! Per-layer measurements the traced run makes outside the requests:
//! the functional executor's and the timing model's speed on the
//! request's program, and first-load costs of stored entries.

use std::path::Path;
use std::time::Instant;

use sfetch_bench::grid::{cell_config, engine_key, grid_engines, GridCell};
use sfetch_bench::HarnessOpts;
use sfetch_core::Processor;
use sfetch_sample::{CheckpointStore, SampleConfig, StoreKey};
use sfetch_trace::Executor;
use sfetch_workloads::{LayoutChoice, Workload};

use crate::report::Samples;
use crate::spans::{attribute, Span};

/// Instructions of the executor walk.
const EXEC_INSTS: u64 = 4_000_000;
/// Warm-up and measured instructions of each timing-model run.
const CORE_WARMUP: u64 = 20_000;
const CORE_INSTS: u64 = 400_000;

/// `trace.exec_ns_per_inst` and `core.ns_per_cycle.*` on `w`'s
/// optimized image, the 8-wide cells under the request's options.
pub fn measure_program(w: &Workload, opts: &HarnessOpts, s: &mut Samples) {
    let img = w.image(LayoutChoice::Optimized);
    let t = Instant::now();
    let mut e = Executor::from_image(img, w.ref_seed());
    for _ in 0..EXEC_INSTS {
        std::hint::black_box(e.next());
    }
    s.push(
        "trace.exec_ns_per_inst",
        t.elapsed().as_nanos() as f64 / EXEC_INSTS as f64,
    );
    for engine in grid_engines() {
        // `sfetch_core::simulate`, unrolled so only the measured part
        // is timed.
        let pcfg = cell_config(GridCell { engine, width: 8 }, opts);
        let fe = engine.build_for(pcfg.width, img.entry(), &pcfg.prefetch, &pcfg.front);
        let mut p = Processor::new(pcfg, fe, w.cfg(), img, w.ref_seed());
        p.run(CORE_WARMUP);
        p.reset_stats();
        let t = Instant::now();
        p.run(CORE_INSTS);
        let ns = t.elapsed().as_nanos() as f64;
        let cycles = p.stats().cycles.max(1) as f64;
        let name = match engine_key(engine) {
            "ev8" => "core.ns_per_cycle.ev8",
            "ftb" => "core.ns_per_cycle.ftb",
            "stream" => "core.ns_per_cycle.stream",
            _ => "core.ns_per_cycle.tcache",
        };
        s.push(name, ns / cycles);
    }
}

/// The checkpoint key of window `win` of `w` under `scfg`.
pub fn ckpt_key(w: &Workload, scfg: &SampleConfig, win: u64) -> StoreKey {
    StoreKey {
        fingerprint: w.fingerprint(LayoutChoice::Optimized),
        seed: w.ref_seed(),
        at_inst: win * scfg.interval + scfg.fast_forward(),
    }
}

/// `store.ckpt_load_ms`: a first `CheckpointStore::load` (disk read and
/// digest check) of each window's checkpoint, through a fresh handle.
pub fn probe_ckpt_loads(
    root: &Path,
    w: &Workload,
    scfg: SampleConfig,
    windows: u64,
    s: &mut Samples,
) {
    let Ok(store) = CheckpointStore::open(root) else {
        return;
    };
    for win in 0..windows {
        let key = ckpt_key(w, &scfg, win);
        let t = Instant::now();
        if store.load(&key).is_ok() {
            s.push("store.ckpt_load_ms", t.elapsed().as_secs_f64() * 1e3);
        }
    }
}

/// Each layer with spans and its self-time metric; `bench` is the
/// request's own time outside every span.
const SELF_METRICS: [(&str, &str); 7] = [
    ("trace", "self.trace_s"),
    ("sample", "self.sample_s"),
    ("store", "self.store_s"),
    ("grid", "self.grid_s"),
    ("fleet", "self.fleet_s"),
    ("serve", "self.serve_s"),
    ("bench", "self.gap_s"),
];

/// Splits every traced request into layer self times (`self.*`) and the
/// share of its wall time left in one span the trace cannot split
/// (`bench.opaque_frac`). Self times plus the untraced gap add up to the
/// wall time by construction; the note prints the rounding.
pub fn attribute_requests(spans: &[Span], s: &mut Samples, notes: &mut Vec<String>) {
    let attrs = attribute(spans, "request");
    let mut worst = 0.0f64;
    for a in &attrs {
        for (layer, metric) in SELF_METRICS {
            s.push(metric, a.self_s.get(layer).copied().unwrap_or(0.0));
        }
        if a.wall_s > 0.0 {
            worst = worst.max((a.accounted_s() - a.wall_s).abs() / a.wall_s);
            s.push("bench.opaque_frac", a.largest_self_s / a.wall_s);
        }
    }
    let mut line = format!(
        "attribution over {} traced requests (median self s):",
        attrs.len()
    );
    for (layer, metric) in SELF_METRICS {
        line.push_str(&format!(
            " {layer}={:.4}",
            crate::stats::median(s.get(metric))
        ));
    }
    line.push_str(&format!(
        "; largest single span {:.1}% of wall (median); self times + gap \
         differ from wall by at most {worst:.2e} of it (rounding)",
        100.0 * crate::stats::median(s.get("bench.opaque_frac"))
    ));
    notes.push(line);
}
