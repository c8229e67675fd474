//! Fault-injection integration tests for the fleet supervisor
//! (`sfetch_fleet::run_fleet`) over **real OS processes**: shell-script
//! workers that crash, truncate their output, lie about their exit
//! status, or hang without heartbeating. The supervisor must converge
//! every time to output byte-identical with a fault-free run, and a
//! completed ledger must resume with zero recomputation.
//!
//! (The in-crate supervisor tests script workers in-process; these run
//! the `ProcessLauncher` path end-to-end — spawn, kill, exit-status
//! plumbing — which only exists on a real shell, hence `cfg(unix)`.
//! Per-cell scenarios lease singleton groups.)
#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::Command;

use sfetch_bench::fleet_grid::{decompose, lease_group};
use sfetch_bench::grid::{cells, grid_engines, FIG8_WIDTHS};
use sfetch_bench::HarnessOpts;
use sfetch_fleet::{
    fnv64, now_ms, run_fleet, CellId, FleetConfig, FleetReport, Ledger, ProcessLauncher,
    ResumeSummary,
};

const CONFIG: u64 = 0xc4a05;

/// A worker output is valid iff it carries both the header and the
/// terminator — so a truncated write is detectable, like the sealed
/// shard trailer in production.
fn validate(text: &str) -> Result<u64, String> {
    if text.starts_with("DATA ") && text.ends_with("END\n") {
        Ok(fnv64(text.as_bytes()))
    } else {
        Err("missing DATA header or END terminator".into())
    }
}

/// The canonical (fault-free) worker script: heartbeat once, then write
/// the cell's output atomically (temp + rename), exit 0. The output
/// depends only on the cell — the idempotence contract real cells get
/// from checkpointed windows.
fn good_script(cell: &CellId, out: &Path, hb: &Path) -> String {
    format!(
        "touch '{hb}'; printf 'DATA %s\\nEND\\n' '{cell}' > '{out}.part' && \
         mv '{out}.part' '{out}'",
        hb = hb.display(),
        out = out.display(),
    )
}

fn sh(script: String) -> Command {
    let mut cmd = Command::new("sh");
    cmd.arg("-c").arg(script);
    cmd
}

fn fast_cfg() -> FleetConfig {
    let mut cfg = FleetConfig::new(2);
    cfg.max_retries = 2;
    cfg.timeout_floor_ms = 5_000;
    cfg.timeout_initial_ms = 5_000;
    cfg.heartbeat_stale_ms = 5_000;
    cfg.backoff_base_ms = 2;
    cfg.backoff_cap_ms = 10;
    cfg.poll_ms = 5;
    cfg
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfetch-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mk tmp");
    dir
}

fn open_ledger(dir: &Path, cells: &[CellId]) -> (Ledger, ResumeSummary) {
    Ledger::open(dir.join("cells.ledger"), CONFIG, cells, now_ms(), &validate).expect("open")
}

/// Runs the fleet with a per-(cell, attempt) script chooser.
fn run_scripted(
    dir: &Path,
    cells: &[CellId],
    cfg: &FleetConfig,
    script_for: impl Fn(&CellId, u32, &Path, &Path) -> String,
) -> FleetReport {
    let (mut ledger, resume) = open_ledger(dir, cells);
    let launcher =
        ProcessLauncher::new(|cells: &[CellId], attempts: &[u32], outs: &[PathBuf], hb: &Path| {
            sh(script_for(&cells[0], attempts[0], &outs[0], hb))
        });
    run_fleet(cfg, &mut ledger, &launcher, &validate, resume, &mut |_msg| {}, &mut |_done| {})
        .expect("run_fleet")
}

fn done_texts(report: &FleetReport) -> Vec<(String, String)> {
    report.done.iter().map(|d| (d.cell.to_string(), d.text.clone())).collect()
}

/// Every first attempt misbehaves — one cell per fault mode — yet the
/// fleet converges and the merged output is byte-identical to a
/// fault-free run of the same cells.
#[test]
fn faulty_first_attempts_converge_to_identical_output() {
    // The engine name selects the fault injected at attempt 0.
    let cells = vec![
        CellId::new("crash", 4, 0, 1),
        CellId::new("truncate", 4, 0, 1),
        CellId::new("corrupt", 4, 0, 1),
        CellId::new("clean", 4, 0, 1),
    ];
    let chaos_dir = fresh_dir("faults");
    let chaos = run_scripted(&chaos_dir, &cells, &fast_cfg(), |cell, attempt, out, hb| {
        if attempt == 0 {
            match cell.engine.as_str() {
                "crash" => "exit 9".to_owned(),
                "truncate" => format!(
                    // Writes the header but never the END terminator.
                    "printf 'DATA %s\\n' '{cell}' > '{out}'",
                    out = out.display()
                ),
                "corrupt" => format!(
                    "printf 'GARBAGE\\nEND\\n' > '{out}'",
                    out = out.display()
                ),
                _ => good_script(cell, out, hb),
            }
        } else {
            good_script(cell, out, hb)
        }
    });

    let clean_dir = fresh_dir("clean");
    let clean = run_scripted(&clean_dir, &cells, &fast_cfg(), |cell, _attempt, out, hb| {
        good_script(cell, out, hb)
    });

    assert!(chaos.incomplete.is_empty(), "all cells must converge: {:?}", chaos.incomplete);
    assert_eq!(chaos.retries, 3, "crash, truncate and corrupt each cost one retry");
    assert_eq!(
        done_texts(&chaos),
        done_texts(&clean),
        "chaos and fault-free runs must merge byte-identically"
    );
    let _ = std::fs::remove_dir_all(&chaos_dir);
    let _ = std::fs::remove_dir_all(&clean_dir);
}

/// Satellite (c): a worker that leaves a perfectly valid output file but
/// exits nonzero is a *failed* cell — exit status wins — and the retry
/// recomputes it.
#[test]
fn lying_exit_status_fails_the_cell_despite_valid_output() {
    let cells = vec![CellId::new("liar", 8, 0, 2)];
    let dir = fresh_dir("liar");
    let report = run_scripted(&dir, &cells, &fast_cfg(), |cell, attempt, out, hb| {
        let good = good_script(cell, out, hb);
        if attempt == 0 {
            format!("{good}; exit 7")
        } else {
            good
        }
    });
    assert_eq!(report.done.len(), 1);
    assert_eq!(report.done[0].attempts, 1, "first attempt must not be trusted");
    assert_eq!(report.retries, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hung worker that never heartbeats is killed on staleness and the
/// cell recovered by a retry.
#[test]
fn hung_worker_is_killed_and_recovered() {
    let cells = vec![CellId::new("slow", 4, 0, 1)];
    let dir = fresh_dir("hang");
    let mut cfg = fast_cfg();
    cfg.timeout_floor_ms = 400;
    cfg.timeout_initial_ms = 400;
    cfg.heartbeat_stale_ms = 300;
    let report = run_scripted(&dir, &cells, &cfg, |cell, attempt, out, hb| {
        if attempt == 0 {
            "sleep 60".to_owned() // never writes, never heartbeats
        } else {
            good_script(cell, out, hb)
        }
    });
    assert_eq!(report.done.len(), 1, "recovered after the kill");
    assert!(report.kills >= 1, "the straggler must have been killed");
    assert!(report.done[0].attempts >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The production lease rule over real processes: the default-options
/// Fig. 8 grid on a 2-process pool decomposes into every pair over
/// windows `0..2` and `2..4` (24 cells) and leases one 12-cell group
/// per range, so exactly two workers spawn, each writing every output
/// of its group.
#[test]
fn default_grid_spawns_one_worker_per_process() {
    let grid = cells(&grid_engines(), &FIG8_WIDTHS);
    let batch = HarnessOpts::default().batch;
    let ids = decompose(&grid, 4, 2, batch);
    let dir = fresh_dir("lease");
    let mut cfg = fast_cfg();
    cfg.group = lease_group(batch, false, ids.len(), cfg.procs);
    let (mut ledger, resume) = open_ledger(&dir, &ids);
    let ranges = std::sync::Mutex::new(Vec::new());
    let launcher =
        ProcessLauncher::new(|group: &[CellId], _attempts: &[u32], outs: &[PathBuf], hb: &Path| {
            ranges.lock().expect("ranges").push((group.len(), group[0].lo, group[0].hi));
            let scripts: Vec<String> =
                group.iter().zip(outs).map(|(cell, out)| good_script(cell, out, hb)).collect();
            sh(scripts.join(" && "))
        });
    let report =
        run_fleet(&cfg, &mut ledger, &launcher, &validate, resume, &mut |_msg| {}, &mut |_done| {})
            .expect("run");
    assert_eq!(report.done.len(), 24, "every (pair, range) cell completes");
    assert_eq!(report.spawned, 2, "two 12-cell groups, not twenty-four one-cell workers");
    assert!(report.summary_line().contains("spawned=2"));
    assert_eq!(
        ranges.into_inner().expect("ranges"),
        [(12, 0, 2), (12, 2, 4)],
        "each worker leases every pair over its own half of the windows"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A completed ledger resumed by a fresh supervisor run spawns zero
/// workers: every cell re-verifies and is carried over byte-identically.
#[test]
fn completed_run_resumes_with_zero_recompute() {
    let cells = vec![
        CellId::new("a", 4, 0, 1),
        CellId::new("a", 4, 1, 2),
        CellId::new("b", 8, 0, 1),
    ];
    let dir = fresh_dir("resume");
    let first = run_scripted(&dir, &cells, &fast_cfg(), |cell, _attempt, out, hb| {
        good_script(cell, out, hb)
    });
    assert_eq!(first.done.len(), 3);

    // Second run over the same ledger: any spawn would corrupt the
    // "zero recompute" guarantee, so the script is a tripwire.
    let second = run_scripted(&dir, &cells, &fast_cfg(), |_cell, _attempt, _out, _hb| {
        "echo 'must never spawn' >&2; exit 99".to_owned()
    });
    assert_eq!(second.spawned, 0, "resume must not spawn workers");
    assert_eq!(second.resumed_done, 3);
    assert!(second.done.iter().all(|d| d.resumed));
    assert!(second.summary_line().contains("recomputed=0"));
    assert_eq!(done_texts(&first), done_texts(&second));
    let _ = std::fs::remove_dir_all(&dir);
}
