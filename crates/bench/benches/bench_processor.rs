//! Microbenchmark of the cycle-level back-end: event-driven scheduler vs
//! the legacy per-cycle ROB scan, at the Table 2 flight depth and at the
//! large-window depth where the scan is quadratic in in-flight entries.
//!
//! Each iteration builds a fresh processor (so predictor/cache state does
//! not leak across iterations) and simulates a fixed committed-instruction
//! window; throughput is reported in simulated instructions per second.
//! The two back-ends retire bit-identical windows (see
//! `crates/core/tests/event_scheduler.rs`), so any throughput difference
//! is pure scheduler cost.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use sfetch_core::{Processor, ProcessorConfig};
use sfetch_fetch::EngineKind;
use sfetch_workloads::{suite, LayoutChoice, Workload};

const N: u64 = 50_000;

fn workload() -> Workload {
    suite::build(suite::by_name("gcc").expect("known benchmark"))
}

fn run(w: &Workload, rob_entries: usize, legacy_scan: bool) -> u64 {
    let image = w.image(LayoutChoice::Optimized);
    let mut pc = ProcessorConfig::table2(8);
    pc.rob_entries = rob_entries;
    pc.legacy_scan = legacy_scan;
    let engine = EngineKind::Stream.build_for(8, image.entry(), &pc.prefetch, &pc.front);
    let mut p = Processor::new(pc, engine, w.cfg(), image, w.ref_seed());
    p.run(N);
    p.stats().cycles
}

fn bench_backend(c: &mut Criterion) {
    let w = workload();
    for rob in [256usize, 1024] {
        let mut g = c.benchmark_group(format!("processor_backend_rob{rob}"));
        g.throughput(Throughput::Elements(N));
        g.sample_size(10);
        g.bench_function("event_driven", |b| {
            b.iter(|| black_box(run(&w, rob, false)))
        });
        g.bench_function("legacy_scan", |b| {
            b.iter(|| black_box(run(&w, rob, true)))
        });
        g.finish();
    }
}

criterion_group!(benches, bench_backend);
criterion_main!(benches);
