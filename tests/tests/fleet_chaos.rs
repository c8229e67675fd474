//! Fault-injection integration tests for the fleet supervisor
//! (`sfetch_fleet::run_fleet`) over the production launcher: worker
//! threads ([`ThreadLauncher`]) running scripted bodies that fail
//! before writing, truncate or corrupt their output, lie about their
//! result, panic, or hang without heartbeating. The supervisor must
//! converge every time to output byte-identical with a fault-free run,
//! and a completed ledger must resume with zero recomputation.
//!
//! (The in-crate supervisor tests script workers without threads; these
//! run the `ThreadLauncher` path end to end — spawn, join, detach on
//! kill, panic plumbing. Per-cell scenarios lease singleton groups.)

use std::path::{Path, PathBuf};
use std::time::Duration;

use sfetch_bench::driver::canonical_cells;
use sfetch_bench::fleet_grid::lease_group;
use sfetch_bench::grid::{cells, grid_engines, FIG8_WIDTHS};
use sfetch_bench::HarnessOpts;
use sfetch_fleet::{
    fnv64, now_ms, run_fleet, CellId, FleetConfig, FleetReport, Ledger, ResumeSummary,
    ThreadLauncher,
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

/// The canonical (fault-free) worker body for one cell: heartbeat once,
/// then write the cell's output atomically (temp + rename). The output
/// depends only on the cell — the idempotence contract real cells get
/// from checkpointed windows.
fn good(cell: &CellId, out: &Path, hb: &Path) -> Result<(), String> {
    std::fs::write(hb, b"").map_err(|e| e.to_string())?;
    let part = out.with_extension("part");
    std::fs::write(&part, format!("DATA {cell}\nEND\n")).map_err(|e| e.to_string())?;
    std::fs::rename(&part, out).map_err(|e| e.to_string())
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

/// Runs the fleet with a per-(cell, attempt) body over singleton groups.
fn run_scripted(
    dir: &Path,
    cells: &[CellId],
    cfg: &FleetConfig,
    body: impl Fn(&CellId, u32, &Path, &Path) -> Result<(), String> + Send + Sync + 'static,
) -> FleetReport {
    let (mut ledger, resume) = open_ledger(dir, cells);
    let launcher =
        ThreadLauncher::new(move |cells: &[CellId], attempts: &[u32], outs: &[PathBuf], hb: &Path| {
            body(&cells[0], attempts[0], &outs[0], hb)
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
        let write = |text: &str| std::fs::write(out, text).map_err(|e| e.to_string());
        match (attempt, cell.engine.as_str()) {
            (0, "crash") => Err("crashed".to_owned()),
            // Writes the header but never the END terminator.
            (0, "truncate") => write(&format!("DATA {cell}\n")),
            (0, "corrupt") => write("GARBAGE\nEND\n"),
            _ => good(cell, out, hb),
        }
    });

    let clean_dir = fresh_dir("clean");
    let clean = run_scripted(&clean_dir, &cells, &fast_cfg(), |cell, _attempt, out, hb| {
        good(cell, out, hb)
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

/// A worker that leaves a perfectly valid output file but reports
/// failure is a *failed* cell — the worker's verdict wins — and the
/// retry recomputes it.
#[test]
fn lying_exit_status_fails_the_cell_despite_valid_output() {
    let cells = vec![CellId::new("liar", 8, 0, 2)];
    let dir = fresh_dir("liar");
    let report = run_scripted(&dir, &cells, &fast_cfg(), |cell, attempt, out, hb| {
        good(cell, out, hb)?;
        if attempt == 0 {
            Err("lying exit".to_owned())
        } else {
            Ok(())
        }
    });
    assert_eq!(report.done.len(), 1);
    assert_eq!(report.done[0].attempts, 1, "first attempt must not be trusted");
    assert_eq!(report.retries, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hung worker that never heartbeats is killed on staleness — its
/// thread detached — and the cell recovered by a retry.
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
            // Never writes, never heartbeats; it outlives the run.
            std::thread::sleep(Duration::from_secs(10));
            return Err("woke after the run".to_owned());
        }
        good(cell, out, hb)
    });
    assert_eq!(report.done.len(), 1, "recovered after the kill");
    assert!(report.kills >= 1, "the straggler must have been killed");
    assert!(report.done[0].attempts >= 1);
    let events = std::fs::read_to_string(dir.join("events.jsonl")).expect("events.jsonl");
    assert!(events.contains("\"heartbeat_stale\":true"), "killed on staleness: {events}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A body that panics is a failed cell ("worker panicked"), retried
/// like any other failure, and the run completes.
#[test]
fn panicking_worker_is_a_failed_retried_cell() {
    let cells = vec![CellId::new("panic", 4, 0, 1), CellId::new("clean", 4, 0, 1)];
    let dir = fresh_dir("panic");
    let report = run_scripted(&dir, &cells, &fast_cfg(), |cell, attempt, out, hb| {
        if attempt == 0 && cell.engine == "panic" {
            panic!("injected worker panic");
        }
        good(cell, out, hb)
    });
    assert!(report.incomplete.is_empty(), "the run completes: {:?}", report.incomplete);
    assert_eq!(report.done.len(), 2);
    assert_eq!(report.retries, 1, "the panic costs one retry");
    let panicked = report.done.iter().find(|d| d.cell == cells[0]).expect("panic cell done");
    assert_eq!(panicked.attempts, 1, "succeeded on the retry");
    let events = std::fs::read_to_string(dir.join("events.jsonl")).expect("events.jsonl");
    assert!(events.contains("worker panicked"), "the retry names the panic: {events}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The production lease rule over worker threads: the default-options
/// Fig. 8 grid's canonical cells (every pair over windows `0..4`) lease
/// as one 12-cell group, so exactly one worker starts, writing every
/// output of its group.
#[test]
fn default_grid_spawns_one_worker_per_process() {
    let ids = canonical_cells(&cells(&grid_engines(), &FIG8_WIDTHS), 4);
    let dir = fresh_dir("lease");
    let mut cfg = fast_cfg();
    cfg.group = lease_group(HarnessOpts::default().batch, false, ids.len());
    let (mut ledger, resume) = open_ledger(&dir, &ids);
    let groups = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let seen = std::sync::Arc::clone(&groups);
    let launcher = ThreadLauncher::new(
        move |group: &[CellId], _attempts: &[u32], outs: &[PathBuf], hb: &Path| {
            seen.lock().expect("groups").push((group.len(), group[0].lo, group[0].hi));
            group.iter().zip(outs).try_for_each(|(cell, out)| good(cell, out, hb))
        },
    );
    let report =
        run_fleet(&cfg, &mut ledger, &launcher, &validate, resume, &mut |_msg| {}, &mut |_done| {})
            .expect("run");
    assert_eq!(report.done.len(), 12, "every pair's cell completes");
    assert_eq!(report.spawned, 1, "one 12-cell group, not twelve one-cell workers");
    assert!(report.summary_line().contains("spawned=1"));
    assert_eq!(
        *groups.lock().expect("groups"),
        [(12, 0, 4)],
        "one worker leases every pair over every window"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A completed ledger resumed by a fresh supervisor run starts zero
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
        good(cell, out, hb)
    });
    assert_eq!(first.done.len(), 3);

    // Second run over the same ledger: any start would break the "zero
    // recompute" guarantee, so the body is a tripwire.
    let second = run_scripted(&dir, &cells, &fast_cfg(), |_cell, _attempt, _out, _hb| {
        Err("must never start".to_owned())
    });
    assert_eq!(second.spawned, 0, "resume must not start workers");
    assert_eq!(second.resumed_done, 3);
    assert!(second.done.iter().all(|d| d.resumed));
    assert!(second.summary_line().contains("recomputed=0"));
    assert_eq!(done_texts(&first), done_texts(&second));
    let _ = std::fs::remove_dir_all(&dir);
}
