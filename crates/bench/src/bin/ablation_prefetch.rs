//! Prefetch ablation: the non-blocking L1i miss pipeline and the three
//! prefetch policies, per engine.
//!
//! For every fetch engine and every `PrefetchKind` (including `none`,
//! the legacy blocking model) this sweeps the ablation subset (8-wide,
//! optimized layout) and reports harmonic-mean IPC, total fetch-stall
//! cycles (decomposed by serving level), and the prefetch
//! issued/useful/late/polluting counters. The stream engine with the
//! stream-directed policy is the paper's lookahead argument (§3.3) made
//! mechanical: the FTQ names future lines; prefetching them overlaps
//! their misses with useful fetch.
//!
//! ```text
//! cargo run --release -p sfetch-bench --bin ablation_prefetch \
//!     [-- --inst N --warmup N --jobs N --mshrs N --long]
//! ```
//!
//! `--mshrs N` resizes the MSHR file of every non-`none` row (default
//! 8); the `--prefetch` flag is ignored here — this binary sweeps all
//! policies by construction. `--long` appends the long-horizon phased
//! workload (`sfetch_workloads::phased`), whose rotating hot sets
//! overflow the L1i and give every policy real misses to chase.

use sfetch_bench::{ablation_workloads, HarnessOpts};
use sfetch_core::metrics::harmonic_mean;
use sfetch_core::{simulate, PrefetchConfig, PrefetchKind, ProcessorConfig, SimStats};
use sfetch_fetch::EngineKind;
use sfetch_workloads::{par_map, LayoutChoice, Workload};

fn sweep_cell(
    workloads: &[Workload],
    engine: EngineKind,
    kind: PrefetchKind,
    opts: HarnessOpts,
) -> Vec<SimStats> {
    par_map(workloads, opts.jobs, |_, w| {
        let mut pc = ProcessorConfig::table2(8);
        pc.prefetch = if kind == PrefetchKind::None {
            PrefetchConfig::none()
        } else {
            let mut pf = PrefetchConfig::enabled(kind);
            // `--mshrs N` resizes the swept pipeline (default 8).
            if opts.prefetch.mshrs > 0 {
                pf.mshrs = opts.prefetch.mshrs;
            }
            pf
        };
        simulate(
            w.cfg(),
            w.image(LayoutChoice::Optimized),
            engine,
            pc,
            w.ref_seed(),
            opts.warmup,
            opts.insts,
        )
    })
}

fn main() {
    let opts = HarnessOpts::from_args();
    let workloads = ablation_workloads(opts);

    let names: Vec<&str> = workloads.iter().map(Workload::name).collect();
    println!("prefetch ablation, 8-wide, optimized layout (suite: {})", names.join(" "));
    for engine in EngineKind::ALL {
        println!("\n{engine}");
        println!(
            "{:<12} {:>8} {:>12} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8}",
            "prefetch", "IPC(hm)", "stall cyc", "stallL2", "stallMem", "issued", "useful", "late",
            "pollut"
        );
        let mut none_stall = 0u64;
        for kind in PrefetchKind::ALL {
            let stats = sweep_cell(&workloads, engine, kind, opts);
            let ipcs: Vec<f64> = stats.iter().map(|s| s.ipc()).collect();
            let stall: u64 = stats.iter().map(|s| s.engine.icache_stall_cycles).sum();
            let l2: u64 = stats.iter().map(|s| s.engine.stall_l2_cycles).sum();
            let mem: u64 = stats.iter().map(|s| s.engine.stall_mem_cycles).sum();
            let pf: Vec<_> = stats.iter().map(|s| s.prefetch).collect();
            let issued: u64 = pf.iter().map(|p| p.issued).sum();
            let useful: u64 = pf.iter().map(|p| p.useful).sum();
            let late: u64 = pf.iter().map(|p| p.late).sum();
            let pollut: u64 = pf.iter().map(|p| p.polluting).sum();
            if kind == PrefetchKind::None {
                none_stall = stall;
            }
            let delta = if kind == PrefetchKind::None || none_stall == 0 {
                String::new()
            } else {
                format!("  ({:+.1}% stall)", 100.0 * (stall as f64 / none_stall as f64 - 1.0))
            };
            println!(
                "{:<12} {:>8.3} {:>12} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8}{delta}",
                kind.to_string(),
                harmonic_mean(&ipcs),
                stall,
                l2,
                mem,
                issued,
                useful,
                late,
                pollut
            );
        }
    }
    let mshrs = if opts.prefetch.mshrs > 0 { opts.prefetch.mshrs } else { 8 };
    println!(
        "\n`none` is the legacy blocking L1i; every other row runs {mshrs} MSHRs, 2 probes/cycle."
    );
}
