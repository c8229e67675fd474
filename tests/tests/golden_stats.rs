//! Golden-statistics regression harness: the seed suite's simulated
//! behaviour, pinned exactly.
//!
//! The repository's determinism story has so far lived in the BENCH
//! trajectory: `BENCH_3.json` through `BENCH_8.json` record bit-identical
//! per-engine `sim_cycles` (251057 / 268839 / 249240 / 244461 summed
//! over the ablation subset at 200k measured instructions), proving no
//! PR silently changed simulated behaviour — but a BENCH diff only
//! surfaces when someone regenerates the file and reads it. This test
//! moves that contract into tier-1: it snapshots the key [`SimStats`]
//! fields for **all four engines × all four seed-suite benchmarks**
//! under exactly the BENCH configuration (8-wide Table 2, optimized
//! layout, event back-end, no prefetch, 40k warmup + 200k measured) and
//! fails the build on any deviation.
//!
//! Two tables are pinned:
//!
//! * [`GOLDEN`] — the **legacy shared front** ([`FrontPipeline::legacy`]):
//!   this is the bit-identity anchor tying the harness to the whole
//!   recorded BENCH trajectory, unchanged since BENCH_3.
//! * [`GOLDEN_FRONT`] — the **per-engine front models**
//!   ([`FrontPipeline::for_engine`]): the calibration behaviour BENCH_7's
//!   `front_pipeline` section records, pinned by [`FRONT_SIM_CYCLES`].
//!
//! Since the observability PR, each row also pins the full top-down
//! [`CycleBuckets`] decomposition (the trailing [`CycleBuckets::NAMES`]
//! columns of the payload array), and every window additionally asserts
//! the structural invariants `sum(buckets) == cycles` and
//! `watchdog_resyncs == 0` — the accounting attributes the seed suite's
//! every cycle without ever steering it.
//!
//! If a PR *intends* to change simulated behaviour (a timing-model fix,
//! a new default), regenerate the affected table with:
//!
//! ```text
//! cargo test --release -p sfetch-tests --test golden_stats -- --ignored --nocapture
//! ```
//!
//! paste the printed rows over `GOLDEN` / `GOLDEN_FRONT`, and say so in
//! the PR — the point is that the change is *declared*, never silent.

use sfetch_core::{CycleBuckets, FrontPipeline, SimStats};
use sfetch_fetch::EngineKind;
use sfetch_workloads::{LayoutChoice, Suite};

/// The measurement window of the BENCH engine tables.
const WARMUP: u64 = 40_000;
const INSTS: u64 = 200_000;

/// The seed-suite subset the BENCH engine table measures, in order.
const BENCHES: [&str; 4] = ["gzip", "gcc", "crafty", "twolf"];

/// Number of pinned counters per row: committed, cycles,
/// fetched_correct, branches, mispredictions, misfetches, l1i_misses,
/// l2_misses, fetch_hold_cycles, shadow_installs, then the 11
/// [`CycleBuckets::NAMES`] buckets in order.
const COLS: usize = 10 + CycleBuckets::NAMES.len();

/// One pinned measurement: `(bench, engine_index-in-ALL, counters)`,
/// with the counter columns listed at [`COLS`].
type GoldenRow = (&'static str, usize, [u64; COLS]);

/// Legacy-front table. Regenerate with the `--ignored` printer below
/// (see module docs). The first ten columns are unchanged since the
/// front-pipeline PR (and columns 0–7 since BENCH_3); the trailing
/// eleven are the cycle-accounting buckets.
const GOLDEN: [GoldenRow; 16] = [
    ("gzip", 0, [200000, 56710, 200249, 21452, 547, 1, 0, 37, 2, 0, 54675, 1381, 283, 0, 0, 0, 0, 0, 0, 371, 0]),
    ("gzip", 1, [200000, 62043, 200249, 21452, 441, 1, 0, 37, 2, 0, 59944, 1320, 525, 0, 0, 0, 0, 0, 0, 254, 0]),
    ("gzip", 2, [200000, 56193, 200249, 21452, 518, 1, 0, 37, 2, 0, 54313, 1317, 326, 0, 0, 0, 0, 0, 0, 237, 0]),
    ("gzip", 3, [200001, 54009, 200252, 21453, 538, 21, 0, 37, 42, 0, 52282, 1043, 452, 3, 0, 0, 0, 0, 0, 229, 0]),
    ("gcc", 0, [200007, 62405, 199956, 18412, 1112, 0, 0, 124, 0, 0, 45993, 4335, 10587, 0, 0, 0, 0, 0, 0, 1490, 0]),
    ("gcc", 1, [200000, 78194, 200040, 18412, 2660, 0, 0, 124, 0, 0, 55779, 10481, 4602, 0, 0, 0, 0, 0, 0, 7332, 0]),
    ("gcc", 2, [200000, 66222, 200159, 18412, 1327, 1, 0, 124, 2, 0, 48822, 4511, 10174, 0, 0, 0, 0, 0, 0, 2715, 0]),
    ("gcc", 3, [200000, 65042, 200006, 18412, 1494, 81, 0, 124, 162, 0, 48000, 4865, 9222, 62, 0, 0, 0, 0, 0, 2893, 0]),
    ("crafty", 0, [200001, 79674, 200102, 17555, 1628, 54, 67, 1540, 108, 0, 46779, 10600, 11549, 105, 0, 0, 4331, 0, 0, 6310, 0]),
    ("crafty", 1, [200001, 74790, 200068, 17555, 1388, 58, 70, 1543, 116, 0, 42089, 7182, 15901, 107, 0, 0, 4338, 0, 0, 5173, 0]),
    ("crafty", 2, [200001, 75006, 200105, 17555, 1452, 66, 70, 1543, 132, 0, 41934, 6974, 16113, 115, 0, 0, 4447, 0, 0, 5423, 0]),
    ("crafty", 3, [200001, 75319, 200144, 17555, 1979, 309, 66, 1539, 618, 0, 41540, 6670, 14844, 319, 0, 0, 4335, 0, 0, 7611, 0]),
    ("twolf", 0, [200007, 52268, 199994, 18528, 850, 1, 0, 84, 2, 0, 32617, 11318, 4908, 0, 0, 0, 0, 0, 0, 3425, 0]),
    ("twolf", 1, [200007, 53812, 199988, 18528, 998, 1, 0, 84, 2, 0, 33073, 11439, 4679, 2, 0, 0, 0, 0, 0, 4619, 0]),
    ("twolf", 2, [200007, 51819, 199994, 18528, 863, 1, 0, 84, 2, 0, 32647, 10888, 4743, 0, 0, 0, 0, 0, 0, 3541, 0]),
    ("twolf", 3, [200007, 50091, 200046, 18528, 1182, 86, 0, 84, 172, 0, 32133, 8435, 5235, 73, 0, 0, 0, 0, 0, 4215, 0]),
];

/// Per-engine-front table: the same grid measured with
/// [`FrontPipeline::for_engine`]. Regenerate with the `--ignored`
/// printer below.
const GOLDEN_FRONT: [GoldenRow; 16] = [
    ("gzip", 0, [200000, 59549, 200249, 21452, 543, 1, 0, 37, 3266, 0, 56528, 1772, 255, 0, 507, 0, 0, 0, 0, 487, 0]),
    ("gzip", 1, [200000, 60920, 200249, 21452, 441, 1, 0, 37, 884, 1, 59088, 1058, 509, 0, 92, 0, 0, 0, 0, 173, 0]),
    ("gzip", 2, [200000, 54087, 200249, 21452, 518, 1, 0, 37, 519, 0, 52686, 974, 299, 0, 7, 0, 0, 0, 0, 121, 0]),
    ("gzip", 3, [200001, 54527, 200252, 21453, 558, 16, 0, 37, 2267, 0, 52555, 1090, 445, 3, 212, 0, 0, 0, 0, 222, 0]),
    ("gcc", 0, [200007, 68272, 200028, 18412, 1110, 0, 0, 124, 6660, 0, 48927, 5623, 9816, 0, 1631, 0, 0, 0, 0, 2275, 0]),
    ("gcc", 1, [200000, 73032, 200032, 18412, 2665, 0, 0, 124, 5330, 0, 53395, 9550, 4569, 0, 1452, 0, 0, 0, 0, 4066, 0]),
    ("gcc", 2, [200000, 61306, 200009, 18412, 1374, 1, 0, 124, 1375, 0, 45960, 3835, 9754, 0, 299, 0, 0, 0, 0, 1458, 0]),
    ("gcc", 3, [200004, 66961, 200126, 18412, 1587, 86, 0, 124, 6520, 0, 48591, 5709, 8219, 48, 1413, 0, 0, 0, 0, 2981, 0]),
    ("crafty", 0, [200001, 88379, 200136, 17555, 1587, 53, 69, 1542, 9681, 0, 48962, 13681, 10252, 155, 3578, 0, 4240, 0, 0, 7511, 0]),
    ("crafty", 1, [200000, 72086, 200071, 17555, 1395, 38, 68, 1541, 2828, 69, 41638, 6648, 15194, 34, 775, 0, 4324, 0, 0, 3473, 0]),
    ("crafty", 2, [200000, 69897, 200105, 17555, 1465, 66, 67, 1540, 1531, 0, 40612, 5665, 15624, 55, 470, 0, 4417, 0, 0, 3054, 0]),
    ("crafty", 3, [200002, 79043, 200114, 17555, 1947, 306, 60, 1532, 8401, 82, 42158, 7602, 14743, 345, 2642, 0, 4356, 0, 0, 7197, 0]),
    ("twolf", 0, [200007, 57908, 200003, 18528, 849, 1, 0, 84, 5097, 0, 32737, 14615, 4640, 3, 1680, 0, 0, 0, 0, 4233, 0]),
    ("twolf", 1, [200007, 51705, 199977, 18528, 995, 0, 0, 84, 1990, 0, 32928, 11004, 4576, 0, 525, 0, 0, 0, 0, 2672, 0]),
    ("twolf", 2, [200007, 48453, 199969, 18528, 869, 1, 0, 84, 870, 0, 32443, 9180, 4706, 1, 415, 0, 0, 0, 0, 1708, 0]),
    ("twolf", 3, [200007, 52637, 200038, 18528, 1199, 57, 1, 85, 4910, 4, 32609, 9658, 5061, 55, 1357, 0, 81, 0, 0, 3816, 0]),
];

/// The BENCH_3..BENCH_8 per-engine `sim_cycles` totals over the subset
/// under the legacy front — the bit-identity anchor tying this harness
/// to the recorded BENCH trajectory.
const BENCH_SIM_CYCLES: [u64; 4] = [251_057, 268_839, 249_240, 244_461];

/// BENCH_7's `front_pipeline.sim_cycles` per-engine totals: the same
/// subset measured under [`FrontPipeline::for_engine`].
const FRONT_SIM_CYCLES: [u64; 4] = [274_108, 257_743, 233_743, 253_168];

/// Front-model selector for one measurement sweep.
fn front_for(kind: EngineKind, per_engine: bool) -> FrontPipeline {
    if per_engine { FrontPipeline::for_engine(kind) } else { FrontPipeline::legacy() }
}

fn measure(suite: &Suite, per_engine_front: bool) -> Vec<(usize, usize, SimStats)> {
    let mut out = Vec::new();
    for (b, name) in BENCHES.iter().enumerate() {
        let w = suite.get(name).expect("subset member");
        for (e, &kind) in EngineKind::ALL.iter().enumerate() {
            let mut pc = sfetch_core::ProcessorConfig::table2(8);
            pc.front = front_for(kind, per_engine_front);
            let stats = sfetch_core::simulate(
                w.cfg(),
                w.image(LayoutChoice::Optimized),
                kind,
                pc,
                w.ref_seed(),
                WARMUP,
                INSTS,
            );
            out.push((b, e, stats));
        }
    }
    out
}

fn to_row(b: usize, e: usize, stats: &SimStats) -> GoldenRow {
    let mut cols = [0u64; COLS];
    cols[..10].copy_from_slice(&[
        stats.committed,
        stats.cycles,
        stats.fetched_correct,
        stats.branches,
        stats.mispredictions,
        stats.misfetches,
        stats.l1i.misses,
        stats.l2.misses,
        stats.fetch_hold_cycles,
        stats.engine.shadow_installs,
    ]);
    cols[10..].copy_from_slice(&stats.buckets.to_array());
    (BENCHES[b], e, cols)
}

fn check_table(
    measured: &[(usize, usize, SimStats)],
    golden: &[GoldenRow; 16],
    anchor: &[u64; 4],
    what: &str,
) {
    let mut engine_cycles = [0u64; 4];
    for (b, e, stats) in measured {
        assert_eq!(
            stats.buckets.sum(),
            stats.cycles,
            "{}/{} [{what}]: cycle accounting must attribute every cycle",
            BENCHES[*b],
            EngineKind::ALL[*e]
        );
        assert_eq!(
            stats.watchdog_resyncs, 0,
            "{}/{} [{what}]: the seed suite must run without watchdog resyncs",
            BENCHES[*b],
            EngineKind::ALL[*e]
        );
        let got = to_row(*b, *e, stats);
        let want = golden[b * EngineKind::ALL.len() + e];
        assert_eq!(
            got, want,
            "{}/{} [{what}]: simulated behaviour deviates from the golden snapshot — if \
             this change is intentional, regenerate the table (see module docs) and \
             declare it",
            BENCHES[*b],
            EngineKind::ALL[*e]
        );
        engine_cycles[*e] += stats.cycles;
    }
    assert_eq!(
        &engine_cycles, anchor,
        "[{what}] per-engine sim_cycles totals no longer match the BENCH record"
    );
}

#[test]
fn seed_suite_stats_match_golden_snapshot() {
    let suite = Suite::build_subset(&BENCHES, sfetch_workloads::default_jobs());
    check_table(&measure(&suite, false), &GOLDEN, &BENCH_SIM_CYCLES, "legacy front");
}

#[test]
fn seed_suite_stats_match_golden_snapshot_per_engine_front() {
    let suite = Suite::build_subset(&BENCHES, sfetch_workloads::default_jobs());
    check_table(
        &measure(&suite, true),
        &GOLDEN_FRONT,
        &FRONT_SIM_CYCLES,
        "per-engine front",
    );
}

/// Golden-table printer (not a test): run with `--ignored --nocapture`
/// and paste the output over `GOLDEN` / `GOLDEN_FRONT` (and the summed
/// `FRONT_SIM_CYCLES`).
#[test]
#[ignore = "generator: prints both golden tables for manual regeneration"]
fn print_golden_table() {
    let suite = Suite::build_subset(&BENCHES, sfetch_workloads::default_jobs());
    for (per_engine, label) in [(false, "GOLDEN"), (true, "GOLDEN_FRONT")] {
        println!("// {label}:");
        let mut engine_cycles = [0u64; 4];
        for (b, e, s) in measure(&suite, per_engine) {
            let (bench, engine, cols) = to_row(b, e, &s);
            let cols: Vec<String> = cols.iter().map(u64::to_string).collect();
            println!("    ({bench:?}, {engine}, [{}]),", cols.join(", "));
            engine_cycles[e] += s.cycles;
        }
        println!("// {label} per-engine sim_cycles: {engine_cycles:?}");
    }
}
