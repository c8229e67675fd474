//! Fault-injection integration tests for the fleet supervisor
//! (`sfetch_fleet::run_fleet`): worker threads running scripted bodies
//! that fail before any work, return truncated or corrupt output, lie
//! about their result, panic, hang, or answer after their deadline. The
//! supervisor must converge every time to output byte-identical with a
//! fault-free run, and a completed ledger must resume with zero
//! recomputation.
//!
//! (These run the thread path end to end — spawn, join, detach on
//! kill, panic plumbing, the completion channel and the supervisor's
//! own output writes. Per-cell scenarios lease singleton groups.)

use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use sfetch_bench::driver::canonical_cells;
use sfetch_bench::fleet_grid::lease_group;
use sfetch_bench::grid::{cells, grid_engines, FIG8_WIDTHS};
use sfetch_bench::HarnessOpts;
use sfetch_fleet::{
    fnv64, run_fleet, CellId, CellState, FleetConfig, FleetReport, Ledger, ResumeSummary,
    LEDGER_SCHEMA,
};
use sfetch_obs::Row;

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

/// The canonical (fault-free) output of one cell. It depends only on
/// the cell — the idempotence contract real cells get from checkpointed
/// windows.
fn good(cell: &CellId) -> String {
    format!("DATA {cell}\nEND\n")
}

fn fast_cfg() -> FleetConfig {
    let mut cfg = FleetConfig::new(2);
    cfg.max_retries = 2;
    cfg.timeout_floor_ms = 5_000;
    cfg.timeout_initial_ms = 5_000;
    cfg
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfetch-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mk tmp");
    dir
}

fn open_ledger(dir: &Path, cells: &[CellId]) -> (Ledger, ResumeSummary) {
    Ledger::open(dir.join("cells.ledger"), CONFIG, cells, &validate).expect("open")
}

/// Runs the fleet with a per-(cell, attempt) body over singleton groups.
fn run_scripted(
    dir: &Path,
    cells: &[CellId],
    cfg: &FleetConfig,
    body: impl Fn(&CellId, u32) -> Result<String, String> + Send + Sync + 'static,
) -> FleetReport {
    let (mut ledger, resume) = open_ledger(dir, cells);
    let body = move |cells: &[CellId], attempts: &[u32]| {
        body(&cells[0], attempts[0]).map(|text| vec![text])
    };
    run_fleet(cfg, &mut ledger, body, &validate, resume, &mut |_msg| {}, &mut |_done| {})
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
    let chaos = run_scripted(&chaos_dir, &cells, &fast_cfg(), |cell, attempt| {
        match (attempt, cell.engine.as_str()) {
            (0, "crash") => Err("crashed".to_owned()),
            // The header but never the END terminator.
            (0, "truncate") => Ok(format!("DATA {cell}\n")),
            (0, "corrupt") => Ok("GARBAGE\nEND\n".to_owned()),
            _ => Ok(good(cell)),
        }
    });

    let clean_dir = fresh_dir("clean");
    let clean = run_scripted(&clean_dir, &cells, &fast_cfg(), |cell, _attempt| Ok(good(cell)));

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

/// A worker that computes a perfectly valid output but reports
/// failure is a *failed* cell — the worker's verdict wins — and the
/// retry recomputes it.
#[test]
fn lying_exit_status_fails_the_cell_despite_valid_output() {
    let cells = vec![CellId::new("liar", 8, 0, 2)];
    let dir = fresh_dir("liar");
    let report = run_scripted(&dir, &cells, &fast_cfg(), |cell, attempt| {
        let text = good(cell);
        if attempt == 0 {
            Err("lying exit".to_owned())
        } else {
            Ok(text)
        }
    });
    assert_eq!(report.done.len(), 1);
    assert_eq!(report.done[0].attempts, 1, "first attempt must not be trusted");
    assert_eq!(report.retries, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hung worker is killed on its deadline — its thread detached — and
/// the cell recovered by a retry.
#[test]
fn hung_worker_is_killed_and_recovered() {
    let cells = vec![CellId::new("slow", 4, 0, 1)];
    let dir = fresh_dir("hang");
    let mut cfg = fast_cfg();
    cfg.timeout_floor_ms = 400;
    cfg.timeout_initial_ms = 400;
    let report = run_scripted(&dir, &cells, &cfg, |cell, attempt| {
        if attempt == 0 {
            // Never answers in time; it outlives the run.
            std::thread::sleep(Duration::from_secs(10));
            return Err("woke after the run".to_owned());
        }
        Ok(good(cell))
    });
    assert_eq!(report.done.len(), 1, "recovered after the kill");
    assert!(report.kills >= 1, "the straggler must have been killed");
    assert!(report.done[0].attempts >= 1);
    let events = std::fs::read_to_string(dir.join("events.jsonl")).expect("events.jsonl");
    assert!(
        events.lines().any(|l| l.contains("\"event\":\"kill\"")
            && l.contains("\"why\":\"cell deadline exceeded (400ms)\"")),
        "killed on its deadline: {events}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker killed on its deadline that answers later, with valid text,
/// changes nothing: the cell completes exactly once, from the retry;
/// `notify` fires once; and the late text never reaches the cell's
/// output file.
#[test]
fn late_result_after_the_kill_is_dropped() {
    let cells = vec![CellId::new("late", 4, 0, 1)];
    let dir = fresh_dir("late");
    let mut cfg = fast_cfg();
    cfg.timeout_floor_ms = 1_000;
    cfg.timeout_initial_ms = 1_000;
    let late = |cell: &CellId| format!("DATA {cell} late\nEND\n");
    // Attempt 0 answers only once the retry has started (stage 1); the
    // retry answers only once the supervisor has dropped attempt 0's
    // late result (stage 2), so that result arrives while the retry
    // holds the lease.
    let stage = Arc::new((Mutex::new(0u32), Condvar::new()));
    // Whether `stage` reached `at_least` within 10 s (so a supervisor
    // that mishandles the late result fails the test, not hangs it).
    let wait_for = |stage: &(Mutex<u32>, Condvar), at_least: u32| {
        let guard = stage.0.lock().expect("stage");
        let limit = Duration::from_secs(10);
        let (_guard, waited) =
            stage.1.wait_timeout_while(guard, limit, |s| *s < at_least).expect("stage");
        !waited.timed_out()
    };
    let advance = |stage: &(Mutex<u32>, Condvar), to: u32| {
        *stage.0.lock().expect("stage") = to;
        stage.1.notify_all();
    };
    let (mut ledger, resume) = open_ledger(&dir, &cells);
    let out = dir.join(format!("{}.cell.json", cells[0].file_stem()));
    let seen = Arc::clone(&stage);
    let written = out.clone();
    let body = move |group: &[CellId], attempts: &[u32]| {
        let cell = &group[0];
        if attempts[0] == 0 {
            wait_for(&seen, 1);
            return Ok(vec![late(cell)]);
        }
        advance(&seen, 1);
        if !wait_for(&seen, 2) {
            return Err("the late result was never dropped".to_owned());
        }
        if written.exists() {
            return Err("the late result reached disk".to_owned());
        }
        Ok(vec![good(cell)])
    };
    let mut logged = Vec::new();
    let mut notified = Vec::new();
    let report = run_fleet(
        &cfg,
        &mut ledger,
        body,
        &validate,
        resume,
        &mut |msg| {
            if msg.contains("result after its deadline dropped") {
                advance(&stage, 2);
            }
            logged.push(msg.to_owned());
        },
        &mut |d| notified.push((d.cell.clone(), d.text.clone(), d.attempts)),
    )
    .expect("no BadTransition: the late result must not complete the cell");
    assert_eq!(report.done.len(), 1);
    assert_eq!(report.done[0].attempts, 1, "completed by the retry");
    assert_eq!(report.done[0].text, good(&cells[0]));
    assert_eq!((report.kills, report.retries, report.spawned), (1, 1, 2));
    assert_eq!(notified, vec![(cells[0].clone(), good(&cells[0]), 1)], "notified exactly once");
    assert!(
        logged.iter().any(|l| l.contains("result after its deadline dropped")),
        "the late result reached the supervisor and was dropped: {logged:?}"
    );
    assert_eq!(std::fs::read_to_string(out).expect("cell output"), good(&cells[0]));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A body that panics is a failed cell ("worker panicked"), retried
/// like any other failure, and the run completes.
#[test]
fn panicking_worker_is_a_failed_retried_cell() {
    let cells = vec![CellId::new("panic", 4, 0, 1), CellId::new("clean", 4, 0, 1)];
    let dir = fresh_dir("panic");
    let report = run_scripted(&dir, &cells, &fast_cfg(), |cell, attempt| {
        if attempt == 0 && cell.engine == "panic" {
            panic!("injected worker panic");
        }
        Ok(good(cell))
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
/// as one 12-cell group, so exactly one worker starts, returning every
/// output of its group.
#[test]
fn default_grid_spawns_one_worker_per_process() {
    let ids = canonical_cells(&cells(&grid_engines(), &FIG8_WIDTHS), 4);
    let dir = fresh_dir("lease");
    let mut cfg = fast_cfg();
    cfg.group = lease_group(HarnessOpts::default().batch, false, ids.len());
    let (mut ledger, resume) = open_ledger(&dir, &ids);
    let groups = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&groups);
    let body = move |group: &[CellId], _attempts: &[u32]| {
        seen.lock().expect("groups").push((group.len(), group[0].lo, group[0].hi));
        Ok(group.iter().map(good).collect())
    };
    let report =
        run_fleet(&cfg, &mut ledger, body, &validate, resume, &mut |_msg| {}, &mut |_done| {})
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
    let first = run_scripted(&dir, &cells, &fast_cfg(), |cell, _attempt| Ok(good(cell)));
    assert_eq!(first.done.len(), 3);

    // Second run over the same ledger: any start would break the "zero
    // recompute" guarantee, so the body is a tripwire.
    let second =
        run_scripted(&dir, &cells, &fast_cfg(), |_cell, _attempt| Err("must never start".to_owned()));
    assert_eq!(second.spawned, 0, "resume must not start workers");
    assert_eq!(second.resumed_done, 3);
    assert!(second.done.iter().all(|d| d.resumed));
    assert!(second.summary_line().contains("recomputed=0"));
    assert_eq!(done_texts(&first), done_texts(&second));
    let _ = std::fs::remove_dir_all(&dir);
}

/// What `kill -9` leaves behind: a run that died while a worker held a
/// cell. Builds that persisted leases left a `lease` line with a
/// deadline far in the future, which kept the cell out of reach until
/// it passed; the cell is `Pending` at its attempt instead, and the
/// rerun takes it at once, well inside the first lease's deadline.
#[test]
fn killed_run_resumes_at_once() {
    let cells = vec![CellId::new("a", 4, 0, 1), CellId::new("b", 4, 0, 1)];
    let dir = fresh_dir("killed");
    let (a, b) = (cells[0].to_string(), cells[1].to_string());
    // The lines such a build wrote, through the same codec.
    let lease = |cell: &str, worker: u64, attempt: u64| {
        let row = Row::new().s("ev", "lease").s("cell", cell).u("worker", worker);
        row.u("attempt", attempt).u("deadline_ms", u64::MAX / 2).finish()
    };
    let open = Row::new().s("ev", "open").s("schema", LEDGER_SCHEMA).u("config", CONFIG);
    let fail = Row::new().s("ev", "fail").s("cell", &a).u("attempts", 1).u("not_before_ms", 0);
    let lines = [
        open.u("cells", 2).finish(),
        lease(&a, 1, 0),
        fail.b("permanent", false).s("why", "crashed").finish(),
        lease(&a, 2, 1),
        lease(&b, 2, 0),
    ];
    std::fs::write(dir.join("cells.ledger"), lines.join("\n") + "\n")
        .expect("write killed run's ledger");
    let (mut ledger, resume) = open_ledger(&dir, &cells);
    assert_eq!(ledger.state(&cells[0]).expect("a"), &CellState::Pending { attempts: 1 });
    assert_eq!(ledger.state(&cells[1]).expect("b"), &CellState::Pending { attempts: 0 });

    // The production deadline: a rerun that waited on the old leases
    // would sit idle for it.
    let cfg = FleetConfig::new(2);
    let started = std::time::Instant::now();
    let body = |group: &[CellId], _attempts: &[u32]| Ok(group.iter().map(good).collect());
    let report =
        run_fleet(&cfg, &mut ledger, body, &validate, resume, &mut |_msg| {}, &mut |_done| {})
            .expect("run");
    assert!(started.elapsed() < Duration::from_secs(10), "rerun waited {:?}", started.elapsed());
    assert!(report.incomplete.is_empty());
    let attempts: Vec<(String, u32)> =
        report.done.iter().map(|d| (d.cell.to_string(), d.attempts)).collect();
    assert_eq!(attempts, [(a, 1), (b, 0)], "the interrupted attempts are not charged");
    assert!(report.summary_line().contains("recomputed=2 retries=0 kills=0"));
    let _ = std::fs::remove_dir_all(&dir);
}
