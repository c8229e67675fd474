//! Criterion benchmarks of whole-processor simulation throughput, one per
//! fetch architecture (the cost of regenerating Figures 8/9 and Table 3),
//! plus the base-vs-optimized layout pair for the stream engine.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use sfetch_core::{Processor, ProcessorConfig};
use sfetch_fetch::EngineKind;
use sfetch_workloads::{suite, LayoutChoice, Workload};

const INSTS: u64 = 50_000;

fn workload() -> Workload {
    suite::build(suite::by_name("twolf").expect("known benchmark"))
}

fn bench_engines(c: &mut Criterion) {
    let w = workload();
    let mut g = c.benchmark_group("simulate_8wide_optimized");
    g.throughput(Throughput::Elements(INSTS));
    for kind in EngineKind::ALL {
        g.bench_function(format!("{kind}"), |b| {
            b.iter(|| {
                let image = w.image(LayoutChoice::Optimized);
                let pc = ProcessorConfig::table2(8);
                let engine = kind.build_for(8, image.entry(), &pc.prefetch, &pc.front);
                let mut p = Processor::new(
                    pc,
                    engine,
                    w.cfg(),
                    image,
                    w.ref_seed(),
                );
                p.run(INSTS);
                black_box(p.stats().committed)
            })
        });
    }
    g.finish();
}

fn bench_layouts(c: &mut Criterion) {
    let w = workload();
    let mut g = c.benchmark_group("simulate_stream_by_layout");
    g.throughput(Throughput::Elements(INSTS));
    for layout in [LayoutChoice::Base, LayoutChoice::Optimized] {
        g.bench_function(format!("{layout}"), |b| {
            b.iter(|| {
                let image = w.image(layout);
                let pc = ProcessorConfig::table2(8);
                let engine = EngineKind::Stream.build_for(8, image.entry(), &pc.prefetch, &pc.front);
                let mut p = Processor::new(
                    pc,
                    engine,
                    w.cfg(),
                    image,
                    w.ref_seed(),
                );
                p.run(INSTS);
                black_box(p.stats().committed)
            })
        });
    }
    g.finish();
}

fn bench_widths(c: &mut Criterion) {
    let w = workload();
    let mut g = c.benchmark_group("simulate_stream_by_width");
    g.throughput(Throughput::Elements(INSTS));
    for width in [2usize, 4, 8] {
        g.bench_function(format!("{width}-wide"), |b| {
            b.iter(|| {
                let image = w.image(LayoutChoice::Optimized);
                let pc = ProcessorConfig::table2(width);
                let engine = EngineKind::Stream.build_for(width, image.entry(), &pc.prefetch, &pc.front);
                let mut p = Processor::new(
                    pc,
                    engine,
                    w.cfg(),
                    image,
                    w.ref_seed(),
                );
                p.run(INSTS);
                black_box(p.stats().committed)
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engines, bench_layouts, bench_widths
}
criterion_main!(benches);
