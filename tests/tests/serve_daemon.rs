//! Integration tests for the resident `sfetch-serve` daemon: request
//! dedup over the shared cell ledger, incremental result streaming,
//! and byte-identity of the streamed merge with the one-shot path.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sfetch_bench::driver::{submit_and_collect, GridRequest, StreamOutcome};
use sfetch_bench::grid::{merge_grid, verify_merged};
use sfetch_bench::{workload_by_name, HarnessOpts};
use sfetch_fetch::EngineKind;
use sfetch_sample::SampleConfig;
use sfetch_serve::{Daemon, DaemonConfig};

/// Tiny schedule: 3 windows of 50k-instruction units — large enough to
/// exercise warming + measurement, small enough for debug builds.
fn quick_schedule() -> SampleConfig {
    SampleConfig {
        interval: 50_000,
        warm_func: 8_000,
        warm_mem: 8_000,
        warm_detail: 1_000,
        measure: 3_000,
        ..Default::default()
    }
}

const TOTAL: u64 = 150_000;
const BENCH: &str = "gzip";

fn request(engines: &[EngineKind]) -> GridRequest {
    let scfg = quick_schedule();
    GridRequest {
        bench: BENCH.to_owned(),
        engines: engines.to_vec(),
        widths: vec![8],
        total: TOTAL,
        scfg,
        opts: HarnessOpts {
            grid_total: TOTAL,
            grid_sample: scfg,
            jobs: 1,
            // Exercise the resident grouped path: compatible cells lease
            // in pairs and share one batched sweep per worker thread.
            batch: 2,
            warm_bank: true,
            ..HarnessOpts::default()
        },
    }
}

struct TestDaemon {
    socket: PathBuf,
    store: PathBuf,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestDaemon {
    fn start(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("sfetch-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create test root");
        let socket = root.join("d.sock");
        let store = root.join("store");
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (socket, store, stop) = (socket.clone(), store.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                let daemon = Daemon::new(DaemonConfig {
                    socket,
                    store_dir: store,
                    procs: 2,
                    max_retries: 1,
                    store_cap_bytes: None,
                });
                daemon.run(&stop).expect("daemon run");
            })
        };
        let d = TestDaemon { socket, store, stop, thread: Some(thread) };
        d.await_ready();
        d
    }

    /// Polls until the daemon answers the socket (it binds before it
    /// serves, so one successful connect is enough).
    fn await_ready(&self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if std::os::unix::net::UnixStream::connect(&self.socket).is_ok() {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("daemon never became ready at {}", self.socket.display());
    }

    fn submit(&self, id: &str, req: &GridRequest) -> StreamOutcome {
        submit_and_collect(&self.socket, id, req, |_| {}).expect("submit")
    }

    /// Sends one raw protocol line and returns the daemon's first reply.
    fn first_reply(&self, line: &str) -> String {
        use std::io::{BufRead, BufReader, Write};
        let s = std::os::unix::net::UnixStream::connect(&self.socket).expect("connect");
        let mut w = s.try_clone().expect("clone");
        w.write_all(format!("{line}\n").as_bytes()).expect("send");
        let mut reply = String::new();
        BufReader::new(s).read_line(&mut reply).expect("read");
        reply
    }

    /// The store's checkpoint entry files.
    fn checkpoints(&self) -> Vec<PathBuf> {
        std::fs::read_dir(&self.store)
            .expect("read store")
            .map(|e| e.expect("store entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "sfckpt"))
            .collect()
    }

    /// Raises the stop flag and returns how long `Daemon::run` took to
    /// return, or `None` (leaving the daemon thread detached) if it had
    /// not returned after 10 s.
    fn stop(&mut self) -> Option<Duration> {
        let t = Instant::now();
        self.stop.store(true, Ordering::SeqCst);
        let thread = self.thread.take()?;
        while !thread.is_finished() {
            if t.elapsed() > Duration::from_secs(10) {
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        thread.join().expect("daemon thread");
        Some(t.elapsed())
    }
}

/// Panics unless `out`'s streamed merge is bit-identical to a storeless
/// in-process run of `req` — exactly what the one-shot binaries print.
fn assert_matches_oracle(req: &GridRequest, out: &StreamOutcome) {
    let scfg = quick_schedule();
    let windows = req.windows();
    let runs = merge_grid(&req.grid(), windows, &out.points, scfg.confidence).expect("merge");
    verify_merged(&workload_by_name(BENCH), &runs, scfg, &req.opts, windows);
}

impl Drop for TestDaemon {
    fn drop(&mut self) {
        self.stop();
        if let Some(root) = self.store.parent() {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

#[test]
fn overlapping_requests_share_work_and_merge_byte_identically() {
    let d = TestDaemon::start("overlap");

    // Two concurrent requests overlapping on the ev8 cell: 3 distinct
    // cells total, 4 subscriptions.
    let req_a = request(&[EngineKind::Stream, EngineKind::Ev8]);
    let req_b = request(&[EngineKind::Ev8, EngineKind::Ftb]);
    let (out_a, out_b) = std::thread::scope(|s| {
        let ta = s.spawn(|| d.submit("req-a", &req_a));
        let tb = s.spawn(|| d.submit("req-b", &req_b));
        (ta.join().expect("client a"), tb.join().expect("client b"))
    });

    assert_eq!(out_a.status, "complete");
    assert_eq!(out_b.status, "complete");
    let windows = req_a.windows();
    assert_eq!(out_a.points.len() as u64, 2 * windows, "one point per window per cell");
    assert_eq!(out_b.points.len() as u64, 2 * windows);

    // Singleflight: the 3 distinct cells were computed exactly once
    // between the two requests, and the 4th subscription was satisfied
    // by sharing (same batch) or ledger resume (later batch) — never by
    // recomputation.
    assert_eq!(
        out_a.computed + out_b.computed,
        3,
        "overlap must be computed once (a: {:?}, b: {:?})",
        (out_a.computed, out_a.resumed, out_a.shared),
        (out_b.computed, out_b.resumed, out_b.shared),
    );
    assert_eq!(out_a.shared + out_a.resumed + out_b.shared + out_b.resumed, 1);

    // Byte-identity: the streamed merge must be bit-identical to a
    // storeless in-process oracle (verify_merged panics on divergence),
    // i.e. exactly what the one-shot binaries print.
    let scfg = quick_schedule();
    assert_matches_oracle(&req_a, &out_a);
    assert_matches_oracle(&req_b, &out_b);

    // Resubmission under a fresh id: every cell resumes from the
    // ledger with zero recomputation.
    let rerun = d.submit("req-a2", &req_a);
    assert_eq!(rerun.status, "complete");
    assert_eq!(rerun.computed, 0, "resubmit must not recompute");
    assert_eq!(rerun.shared, 0);
    assert_eq!(rerun.resumed, 2);
    let runs_rerun =
        merge_grid(&req_a.grid(), windows, &rerun.points, scfg.confidence).expect("merge rerun");
    let runs_first =
        merge_grid(&req_a.grid(), windows, &out_a.points, scfg.confidence).expect("merge first");
    assert_eq!(
        format!("{runs_first:?}"),
        format!("{runs_rerun:?}"),
        "resumed stream must reproduce the original merge exactly"
    );
}

#[test]
fn second_daemon_refuses_live_socket_and_first_keeps_serving() {
    let d = TestDaemon::start("takeover");

    // A second daemon pointed at the live socket must refuse to start
    // (the incumbent answers ping) rather than unlink it.
    let stop = AtomicBool::new(false);
    let second = Daemon::new(DaemonConfig {
        socket: d.socket.clone(),
        store_dir: d.store.parent().expect("test root").join("store2"),
        procs: 1,
        max_retries: 0,
        store_cap_bytes: None,
    });
    let err = second.run(&stop).expect_err("second daemon must refuse a live socket");
    assert!(err.contains("refusing"), "got: {err}");
    assert!(err.contains("answered ping"), "got: {err}");

    // The incumbent must still be serving on the untouched socket.
    let line = d.first_reply("{\"op\":\"ping\"}");
    assert!(line.contains("\"ev\":\"pong\""), "got: {line}");
}

#[test]
fn stale_socket_is_reclaimed() {
    let root =
        std::env::temp_dir().join(format!("sfetch-serve-test-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create test root");
    let socket = root.join("d.sock");

    // Bind and drop: the socket file survives with nothing listening
    // behind it — exactly what a SIGKILLed daemon leaves.
    drop(std::os::unix::net::UnixListener::bind(&socket).expect("stale bind"));
    assert!(socket.exists(), "stale socket file must persist after drop");

    let stop = Arc::new(AtomicBool::new(false));
    let thread = {
        let (socket, root, stop) = (socket.clone(), root.clone(), Arc::clone(&stop));
        std::thread::spawn(move || {
            Daemon::new(DaemonConfig {
                socket,
                store_dir: root.join("store"),
                procs: 1,
                max_retries: 0,
                store_cap_bytes: None,
            })
            .run(&stop)
        })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut ready = false;
    while Instant::now() < deadline {
        if std::os::unix::net::UnixStream::connect(&socket).is_ok() {
            ready = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, Ordering::SeqCst);
    let res = thread.join().expect("daemon thread");
    assert!(res.is_ok(), "daemon must reclaim a provably stale socket, got: {res:?}");
    assert!(ready, "daemon never served on the reclaimed socket");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn daemon_rejects_duplicate_and_malformed_requests() {
    let d = TestDaemon::start("reject");

    // Malformed submit: readable error event, no crash.
    let line = d.first_reply("{\"op\":\"submit\",\"id\":\"x\",\"bench\":\"gzip\"}");
    assert!(line.contains("\"ev\":\"error\""), "got: {line}");

    // Ping answers pong.
    let line = d.first_reply("{\"op\":\"ping\"}");
    assert!(line.contains("\"ev\":\"pong\""), "got: {line}");

    // A duplicate id is refused while the first stream exists.
    let req = request(&[EngineKind::Stream]);
    let first = d.submit("dup", &req);
    assert_eq!(first.status, "complete");
    let err = submit_and_collect(&d.socket, "dup", &req, |_| {});
    assert!(
        err.as_ref().is_err_and(|e| e.contains("duplicate request id")),
        "got: {err:?}"
    );
}

#[test]
fn unknown_bench_is_refused_and_the_daemon_keeps_serving() {
    let d = TestDaemon::start("nope");

    // An unknown bench used to panic the scheduler thread, after which
    // every request was accepted and never answered. It is now refused
    // at parse time with the valid names listed.
    let mut bad = request(&[EngineKind::Stream]);
    bad.bench = "nope".into();
    let reply = d.first_reply(&bad.submit_line("bad"));
    assert!(reply.contains("\"ev\":\"error\""), "got: {reply}");
    assert!(reply.contains("unknown benchmark") && reply.contains(BENCH), "got: {reply}");

    // A valid request on the same daemon still completes, byte-identical
    // to the one-shot output.
    let req = request(&[EngineKind::Stream, EngineKind::Ev8]);
    let out = d.submit("good", &req);
    assert_eq!(out.status, "complete");
    assert_eq!(out.computed, 2);
    assert_matches_oracle(&req, &out);
}

#[test]
fn resubmit_reads_no_checkpoints() {
    let d = TestDaemon::start("nockpt");
    let req = request(&[EngineKind::Stream, EngineKind::Ev8]);
    let first = d.submit("first", &req);
    assert_eq!(first.status, "complete");
    assert_eq!(first.computed, 2);

    // Take the family's warming-start checkpoints away. A resubmit the
    // ledger answers in full must not need them: were the populate walk
    // still run, it would recompute and re-save every one.
    let ckpts = d.checkpoints();
    assert!(!ckpts.is_empty(), "the cold run must have banked checkpoints");
    for p in &ckpts {
        std::fs::remove_file(p).expect("remove checkpoint");
    }

    let again = d.submit("again", &req);
    assert_eq!(again.status, "complete");
    assert_eq!((again.computed, again.resumed, again.shared), (0, 2, 0));
    let scfg = quick_schedule();
    let merge = |out: &StreamOutcome| {
        let runs = merge_grid(&req.grid(), req.windows(), &out.points, scfg.confidence);
        format!("{:?}", runs.expect("merge"))
    };
    assert_eq!(merge(&first), merge(&again), "the resumed merge must equal the first");
    assert!(d.checkpoints().is_empty(), "a pure resubmit re-created checkpoints");
}

#[test]
fn request_queued_behind_a_run_completes_and_idle_stop_is_prompt() {
    let mut d = TestDaemon::start("queue");

    // Two families (B's horizon is one window longer), so B can never
    // join A's run: it is submitted once A's run has opened its ledger
    // and must wait for the scheduler's next wakeup.
    let req_a = request(&[EngineKind::Stream, EngineKind::Ev8]);
    let mut req_b = request(&[EngineKind::Ftb]);
    req_b.total = TOTAL + quick_schedule().interval;
    req_b.opts.grid_total = req_b.total;
    assert_ne!(req_a.family_tag(), req_b.family_tag());
    let ledger_a =
        d.store.join("fleet").join(format!("{:016x}", req_a.family_tag())).join("cells.ledger");
    let a_done = AtomicBool::new(false);
    let (out_a, out_b, b_during_a) = std::thread::scope(|s| {
        let ta = s.spawn(|| {
            let out = d.submit("a", &req_a);
            a_done.store(true, Ordering::SeqCst);
            out
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        while !ledger_a.exists() {
            assert!(Instant::now() < deadline, "A's family run never started");
            std::thread::sleep(Duration::from_millis(2));
        }
        let b_during_a = !a_done.load(Ordering::SeqCst);
        let out_b = d.submit("b", &req_b);
        (ta.join().expect("client a"), out_b, b_during_a)
    });
    assert!(b_during_a, "B must be submitted while A's run is in flight");
    assert_eq!((out_a.status.as_str(), out_a.computed), ("complete", 2));
    assert_eq!((out_b.status.as_str(), out_b.computed), ("complete", 1));
    assert_eq!(out_b.points.len() as u64, req_b.windows());

    // Idle now: `accept` and the scheduler are blocked, and raising the
    // stop flag must still bring `run` back promptly.
    let took = d.stop().expect("an idle daemon must return from run after stop");
    assert!(took < Duration::from_secs(2), "idle daemon took {took:?} to stop");
}
