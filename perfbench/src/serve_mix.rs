//! The `serve-mix` workload: a closed loop of two clients against
//! in-process resident daemons, one per session of [`SESSION`] requests,
//! each on a fresh store.
//!
//! The seed draws the request list from a fixed pattern of kinds, so
//! every seed sends the same proportions:
//!
//! * **cold** — a family (front, prefetch, schedule) not seen yet: the
//!   daemon computes it, writing checkpoints and the warm bank;
//! * **extend** — a seen family one window further out: a new family
//!   whose earlier windows restore from the warm bank;
//! * **resubmit** / **subset** — the whole grid, or some engines × some
//!   widths, of a seen family: resumed from the ledger, or shared with a
//!   request still in flight.
//!
//! The proportions of [`PATTERN`] are assumed: no campaign traffic has
//! been recorded. The repository shows only the shapes (the daemon's CI
//! smoke test submits one grid twice at once and then resubmits it; the
//! README's campaign example sends overlapping grids). So the latency
//! metrics do not pool the kinds: `request_p50_s` and
//! `first_point_p50_s` are the geometric mean of one median per kind
//! (cold, extend, resume), which the ratio of kinds does not set.

use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sfetch_bench::driver::{GridRequest, ServeEvent};
use sfetch_bench::grid::{cell_config, cells, grid_engines, merge_grid, CellRun, FIG8_WIDTHS};
use sfetch_fetch::EngineKind;
use sfetch_sample::{warm_model_digest, CheckpointStore};
use sfetch_serve::{Daemon, DaemonConfig};
use sfetch_workloads::{phased, Workload};

use crate::gate::Reference;
use crate::program::{self, families, REGISTERED_SEED};
use crate::report::{Report, Samples};
use crate::spans::Tracer;
use crate::{layers, stats, Env, Overrides};

/// Concurrent clients of the closed loop.
pub const CLIENTS: usize = 2;

/// Cells per batched sweep on every served request, as a resident
/// user's `--batch 12` would ask.
const SERVE_BATCH: usize = 12;

/// Windows of a cold family's first request (the 50M horizon).
const COLD_WINDOWS: u64 = 4;

/// Requests per daemon session. Each session starts a fresh daemon on
/// a fresh store, so every stretch of a run sends the same mix (see
/// [`PATTERN`]), never running out of unseen work however fast the host
/// is.
pub const SESSION: usize = 16;

/// Sessions drawn per run; far more than a run can send.
const PLAN_SESSIONS: usize = 256;

/// What a request asks the daemon for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An unseen family, full grid.
    Cold,
    /// A seen family one window further out, full grid.
    Extend,
    /// A seen family's full grid again.
    Resubmit,
    /// Some engines × some widths of a seen family.
    Subset,
}

/// The latency classes the metrics keep apart: cold, extend, and the
/// resumes (resubmits and subsets).
const CLASSES: [(&str, &[Kind]); 3] = [
    ("cold", &[Kind::Cold]),
    ("extend", &[Kind::Extend]),
    ("resume", &[Kind::Resubmit, Kind::Subset]),
];

/// The median of `f` over each class of [`CLASSES`].
fn class_medians(done: &[&Done], f: impl Fn(&Done) -> f64) -> [f64; 3] {
    CLASSES.map(|(_, kinds)| {
        let v: Vec<f64> = done
            .iter()
            .filter(|d| kinds.contains(&d.kind))
            .map(|d| f(d))
            .collect();
        stats::median(&v)
    })
}

/// The kinds of one session, in order: one cold family and one
/// extension in sixteen requests (assumed proportions, see the module
/// doc). The windows delivered per second and the tail depend on them.
const PATTERN: [Kind; SESSION] = [
    Kind::Cold,
    Kind::Subset,
    Kind::Subset,
    Kind::Resubmit,
    Kind::Subset,
    Kind::Subset,
    Kind::Subset,
    Kind::Subset,
    Kind::Extend,
    Kind::Subset,
    Kind::Subset,
    Kind::Resubmit,
    Kind::Subset,
    Kind::Subset,
    Kind::Subset,
    Kind::Subset,
];

/// One request of the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct MixReq {
    /// Kind.
    pub kind: Kind,
    /// Index into [`families`].
    pub family: usize,
    /// Windows per cell.
    pub windows: u64,
    /// Engine axis.
    pub engines: Vec<EngineKind>,
    /// Width axis.
    pub widths: Vec<usize>,
}

/// SplitMix64: the plan's random source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `k` of `items`, kept in their original order.
    fn pick<T: Copy>(&mut self, items: &[T], k: usize) -> Vec<T> {
        let mut idx: Vec<usize> = (0..items.len()).collect();
        for i in (1..idx.len()).rev() {
            idx.swap(i, self.below(i + 1));
        }
        let mut chosen = idx[..k].to_vec();
        chosen.sort_unstable();
        chosen.into_iter().map(|i| items[i]).collect()
    }
}

/// Engines × widths of the subset requests of a session, in order:
/// fixed, so every session delivers the same number of cells; the seed
/// picks which engines and widths.
const SUBSET_SHAPES: [(usize, usize); 12] = [
    (1, 1),
    (2, 1),
    (1, 2),
    (2, 2),
    (3, 1),
    (1, 3),
    (3, 2),
    (2, 3),
    (4, 1),
    (1, 2),
    (2, 2),
    (3, 3),
];

/// The request list of `seed`: `sessions` × [`SESSION`] requests, each
/// session drawn as if the store were empty. Session `k` goes cold on
/// family `k % families` whatever the seed: a family's cold and extend
/// latencies differ from another's by tens of percent, so every run of
/// a length sends the same families, and the seed draws the resubmits
/// and subsets.
pub fn plan(seed: u64, sessions: usize) -> Vec<MixReq> {
    let mut rng = Rng(seed ^ 0x5345_5256_452d_4d49); // "SERVE-MI"
    let all_engines = grid_engines().to_vec();
    let full = |family, windows, kind| MixReq {
        kind,
        family,
        windows,
        engines: all_engines.clone(),
        widths: FIG8_WIDTHS.to_vec(),
    };
    let mut out = Vec::with_capacity(sessions * SESSION);
    for k in 0..sessions {
        let cold = k % families().len();
        let mut seen: Vec<(usize, u64)> = Vec::new();
        let mut subsets = 0;
        for kind in PATTERN {
            let req = match kind {
                Kind::Cold => {
                    seen.push((cold, COLD_WINDOWS));
                    full(cold, COLD_WINDOWS, kind)
                }
                Kind::Extend => {
                    let (f, h) = *seen.last().expect("a session goes cold first");
                    seen.push((f, h + 1));
                    full(f, h + 1, kind)
                }
                Kind::Resubmit => {
                    let (f, h) = seen[rng.below(seen.len())];
                    full(f, h, kind)
                }
                Kind::Subset => {
                    let (f, h) = seen[rng.below(seen.len())];
                    let (ke, kw) = SUBSET_SHAPES[subsets];
                    subsets += 1;
                    MixReq {
                        kind,
                        family: f,
                        windows: h,
                        engines: rng.pick(&all_engines, ke),
                        widths: rng.pick(&FIG8_WIDTHS, kw),
                    }
                }
            };
            out.push(req);
        }
    }
    out
}

impl MixReq {
    /// The wire request.
    fn request(&self, over: &Overrides) -> GridRequest {
        let fam = families()[self.family];
        let total = fam.total(self.windows);
        let mut opts = fam.opts(total);
        opts.warm_bank = true;
        opts.batch = over.batch.unwrap_or(SERVE_BATCH);
        opts.jobs = over.jobs.unwrap_or(opts.jobs);
        GridRequest {
            bench: phased::LONG_NAME.to_owned(),
            engines: self.engines.clone(),
            widths: self.widths.clone(),
            total,
            scfg: fam.sched,
            opts,
        }
    }
}

/// A daemon serving from a thread of this process.
struct Running {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Result<(), String>>,
    socket: PathBuf,
    store: PathBuf,
}

fn ping(socket: &Path) -> bool {
    let Ok(stream) = UnixStream::connect(socket) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let Ok(mut w) = stream.try_clone() else {
        return false;
    };
    if w.write_all(b"{\"op\":\"ping\"}\n").is_err() {
        return false;
    }
    let mut line = String::new();
    matches!(BufReader::new(stream).read_line(&mut line), Ok(n) if n > 0)
        && matches!(ServeEvent::parse(&line), Ok(ServeEvent::Pong))
}

/// Starts a daemon on a fresh store and waits for its first `pong`.
fn start(dir: &Path) -> Result<Running, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let socket = dir.join("s.sock");
    let store = dir.join("store");
    let stop = Arc::new(AtomicBool::new(false));
    let cfg = DaemonConfig {
        socket: socket.clone(),
        store_dir: store.clone(),
        procs: program::nproc(),
        max_retries: 3,
        store_cap_bytes: None,
    };
    let flag = Arc::clone(&stop);
    let thread = std::thread::spawn(move || Daemon::new(cfg).run(&flag));
    let t = Instant::now();
    while !ping(&socket) {
        if thread.is_finished() || t.elapsed() > Duration::from_secs(30) {
            stop.store(true, Ordering::SeqCst);
            let why = match thread.join() {
                Ok(Err(e)) => e,
                _ => "no pong within 30s".to_owned(),
            };
            return Err(format!("daemon did not start: {why}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(Running {
        stop,
        thread,
        socket,
        store,
    })
}

impl Running {
    fn stop(self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        match self.thread.join() {
            Ok(r) => r,
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// One finished request as its client saw it.
struct Done {
    idx: usize,
    kind: Kind,
    family: usize,
    windows: u64,
    traced: bool,
    /// Submit until `final`, s.
    latency: f64,
    accept: f64,
    first_cell: f64,
    first_point: f64,
    computed: u64,
    resumed: u64,
    shared: u64,
    cells: u64,
    parse_ms: f64,
    merge_ms: f64,
    /// Σ cycles over the delivered points (set once the gate passed).
    sim_cycles: u64,
}

/// Sends plan entry `idx` and collects, merges and renders its stream.
fn send(
    socket: &Path,
    idx: usize,
    m: &MixReq,
    over: &Overrides,
    tr: &mut Tracer,
) -> Result<(Done, Vec<CellRun>), String> {
    let req = m.request(over);
    let root = tr.open("request");
    let t0 = Instant::now();
    let stream_span = tr.open("serve.stream");
    let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    let mut w = stream
        .try_clone()
        .map_err(|e| format!("clone socket: {e}"))?;
    w.write_all(format!("{}\n", req.submit_line(&format!("r{idx}"))).as_bytes())
        .map_err(|e| format!("submit: {e}"))?;
    let (mut accept, mut first_cell, mut first_point) = (None, None, None);
    let mut points = Vec::new();
    let mut parse_s = 0.0;
    let mut fin = None;
    for line in BufReader::new(stream).lines() {
        let line = line.map_err(|e| format!("read stream: {e}"))?;
        let p = tr.open("grid.parse");
        let ev = ServeEvent::parse(&line);
        tr.close(p);
        parse_s += tr.secs(p);
        let at = t0.elapsed().as_secs_f64();
        match ev.map_err(|e| format!("bad event {line:?}: {e}"))? {
            ServeEvent::Accepted { .. } => accept = Some(at),
            ServeEvent::Cell { .. } => {
                first_cell.get_or_insert(at);
            }
            ServeEvent::Point {
                engine,
                width,
                point,
            } => {
                first_point.get_or_insert(at);
                points.push((engine, width, point));
            }
            ServeEvent::Final {
                status,
                computed,
                resumed,
                shared,
                ..
            } => {
                if status != "complete" {
                    return Err(format!("request ended {status}"));
                }
                fin = Some((at, computed, resumed, shared));
                break;
            }
            ServeEvent::Error { msg, .. } => return Err(format!("daemon: {msg}")),
            _ => {}
        }
    }
    tr.close(stream_span);
    let (latency, computed, resumed, shared) = fin.ok_or("stream ended before final")?;
    let grid = req.grid();
    let merge = tr.open("grid.merge");
    let runs = merge_grid(&grid, req.windows(), &points, req.scfg.confidence)
        .map_err(|e| format!("merge: {e}"))?;
    tr.close(merge);
    std::hint::black_box(tr.time("grid.render", || crate::fig8::render(&runs)));
    tr.close(root);
    let done = Done {
        idx,
        kind: m.kind,
        family: m.family,
        windows: req.windows(),
        traced: tr.on(),
        latency,
        accept: accept.unwrap_or(latency),
        first_cell: first_cell.unwrap_or(latency),
        first_point: first_point.unwrap_or(latency),
        computed,
        resumed,
        shared,
        cells: grid.len() as u64,
        parse_ms: parse_s * 1e3,
        merge_ms: tr.secs(merge) * 1e3,
        sim_cycles: 0,
    };
    Ok((done, runs))
}

fn count_ext(dir: &Path, ext: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == ext))
                .count() as u64
        })
        .unwrap_or(0)
}

/// `store.warm_load_ms`: a first `load_warm` (disk read and digest
/// check) of every banked window of the families the run introduced.
fn probe_warm_loads(store_dir: &Path, w: &Workload, seen: &[(usize, u64)], s: &mut Samples) {
    let Ok(store) = CheckpointStore::open(store_dir) else {
        return;
    };
    let grid = cells(&grid_engines(), &FIG8_WIDTHS);
    for &(f, windows) in seen {
        let fam = families()[f];
        let opts = fam.opts(fam.total(windows));
        for cell in &grid {
            let model = warm_model_digest(cell.engine, &cell_config(*cell, &opts), &fam.sched);
            for win in 0..windows {
                let key = layers::ckpt_key(w, &fam.sched, win);
                let t = Instant::now();
                if store.load_warm(&key, model).is_ok() {
                    s.push("store.warm_load_ms", t.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
    }
}

/// One session's requests as sent by the closed loop, in plan order.
type Sent = Vec<(usize, Result<Done, String>)>;

/// Runs plan entries `first..first + reqs.len()` against `d` with
/// [`CLIENTS`] closed-loop clients until they are sent or the run's time
/// is up.
#[allow(clippy::too_many_arguments)]
fn run_session(
    env: &Env,
    d: &Running,
    reqs: &[MixReq],
    first: usize,
    traced: bool,
    over: &Overrides,
    reference: &Reference,
    t_loop: Instant,
) -> (Sent, Vec<Tracer>) {
    let next = AtomicUsize::new(0);
    let sent: Mutex<Sent> = Mutex::new(Vec::new());
    let tracers: Mutex<Vec<Tracer>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut tr = Tracer::new(traced, env.origin);
                let mut mine = Vec::new();
                while t_loop.elapsed().as_secs_f64() < env.seconds {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(m) = reqs.get(i) else { break };
                    let idx = first + i;
                    tr.set_req(idx as u64);
                    let out = send(&d.socket, idx, m, over, &mut tr);
                    tr.unwind();
                    let checked = out.and_then(|(mut done, runs)| {
                        reference.check(m.family, &runs, m.windows)?;
                        done.sim_cycles = crate::gate::sim_cycles(&runs);
                        Ok(done)
                    });
                    mine.push((idx, checked));
                }
                sent.lock().expect("sent lock").extend(mine);
                tracers.lock().expect("tracers lock").push(tr);
            });
        }
    });
    let mut sent = sent.into_inner().expect("sent lock");
    sent.sort_by_key(|(i, _)| *i);
    (sent, tracers.into_inner().expect("tracers lock"))
}

/// Store-side counts of one traced session, per request sent.
fn session_store_metrics(d: &Running, w: &Workload, done: &[&Done], s: &mut Samples) {
    let n = done.len().max(1) as f64;
    let computed_cw: u64 = done.iter().map(|d| d.computed * d.windows).sum();
    // Every computed cell-window probes the bank once; each miss banks
    // one new entry (the store starts empty and has no cap).
    let bank_misses = count_ext(&d.store, "sfwarm");
    s.push("store.bank_misses", bank_misses as f64 / n);
    s.push(
        "store.bank_hits",
        computed_cw.saturating_sub(bank_misses) as f64 / n,
    );
    s.push(
        "store.ckpt_misses",
        count_ext(&d.store, "sfckpt") as f64 / n,
    );
    if let Ok(st) = CheckpointStore::open(&d.store) {
        s.push("store.bytes", st.total_bytes() as f64);
    }
    let mut seen: Vec<(usize, u64)> = done.iter().map(|d| (d.family, d.windows)).collect();
    seen.sort_unstable();
    // One probe per family, at its longest horizon.
    seen.reverse();
    seen.dedup_by_key(|(f, _)| *f);
    for &(f, windows) in &seen {
        layers::probe_ckpt_loads(&d.store, w, families()[f].sched, windows, s);
    }
    probe_warm_loads(&d.store, w, &seen, s);
}

/// Runs `serve-mix`.
///
/// # Errors
///
/// Set-up failures (the daemon, the reference); request failures are
/// counted, not raised.
pub fn run(env: &Env, seed: u64, over: &Overrides) -> Result<Report, String> {
    let mut s = Samples::default();
    let mut setups = Vec::new();
    let mut daemon = None;
    let mut prog = None;
    for rep in 0..crate::SETUP_REPS {
        if let Some(d) = daemon.take() {
            Running::stop(d)?;
        }
        let t = Instant::now();
        let p = program::build(REGISTERED_SEED);
        let d = start(&env.work.join(format!("daemon-{rep}")))?;
        setups.push(t.elapsed().as_secs_f64());
        s.push("workloads.generate_s", p.generate_s);
        s.push("workloads.build_s", p.build_s);
        prog = Some(p);
        daemon = Some(d);
    }
    let prog = prog.expect("at least one set-up");
    let reference = Reference::registered()?;
    let plan = plan(seed, PLAN_SESSIONS);
    crate::rss::reset_peak();

    let mut report = Report::default();
    let mut done: Vec<Done> = Vec::new();
    let mut tr = Tracer::new(env.trace, env.origin);
    let mut active_s = 0.0;
    let t_loop = Instant::now();
    let mut k = 0;
    while k < PLAN_SESSIONS && t_loop.elapsed().as_secs_f64() < env.seconds {
        let d = match daemon.take() {
            Some(d) => d,
            None => start(&env.work.join(format!("session-{k}")))?,
        };
        // Traced runs trace one session of each pair, alternating which
        // goes first (ABBA), so position-matched requests pair up.
        let traced = env.trace && stats::abba_traced(k as u64);
        let first = k * SESSION;
        let t = Instant::now();
        let (sent, tracers) = run_session(
            env,
            &d,
            &plan[first..first + SESSION],
            first,
            traced,
            over,
            &reference,
            t_loop,
        );
        active_s += t.elapsed().as_secs_f64();
        let mut ok = Vec::new();
        for (i, r) in sent {
            report.attempted += 1;
            match r {
                Ok(x) => ok.push(x),
                Err(e) => {
                    report.failed += 1;
                    report
                        .notes
                        .push(format!("request {i} ({:?}) failed: {e}", plan[i].kind));
                }
            }
        }
        if traced {
            session_store_metrics(&d, &prog.w, &ok.iter().collect::<Vec<_>>(), &mut s);
            for t in tracers {
                tr.absorb(t);
            }
        }
        done.extend(ok);
        let dir = d.store.parent().map(Path::to_path_buf);
        d.stop()?;
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        k += 1;
    }

    let untraced: Vec<&Done> = done.iter().filter(|d| !d.traced).collect();
    let lat: Vec<f64> = untraced.iter().map(|d| d.latency).collect();
    let tail = stats::tail(&lat);
    let delivered: u64 = done.iter().map(|d| d.cells * d.windows).sum();
    let latency = class_medians(&untraced, |d| d.latency);
    let first_point = class_medians(&untraced, |d| d.first_point);
    report.set("setup_s", stats::median(&setups));
    report.set("request_p50_s", stats::geo_mean(&latency));
    report.set("request_tail_s", tail.value);
    report.set("windows_per_s", delivered as f64 / active_s);
    report.set("first_point_p50_s", stats::geo_mean(&first_point));
    for (i, (class, kinds)) in CLASSES.iter().enumerate() {
        let n = untraced.iter().filter(|d| kinds.contains(&d.kind)).count();
        report.notes.push(format!(
            "{class}: n={n} latency p50 {:.3}s, first point p50 {:.3}s",
            latency[i], first_point[i]
        ));
    }
    report.notes.push(format!(
        "all kinds pooled: latency p50 {:.3}s (not reported: the assumed mix sets it)",
        stats::median(&lat)
    ));
    report.notes.push(format!(
        "{} requests in {k} daemon sessions from {CLIENTS} clients; request_tail_s is p{:.0} of n={}",
        report.attempted, tail.pct, tail.n
    ));

    if env.trace {
        let traced: Vec<&Done> = done.iter().filter(|d| d.traced).collect();
        for d in &traced {
            s.push("serve.accept_ms", d.accept * 1e3);
            s.push("serve.first_cell_ms", d.first_cell * 1e3);
            s.push("serve.computed", d.computed as f64);
            s.push("serve.resumed", d.resumed as f64);
            s.push("serve.shared", d.shared as f64);
            s.push("grid.parse_ms", d.parse_ms);
            s.push("grid.merge_ms", d.merge_ms);
            match d.kind {
                Kind::Cold => s.push("serve.cold_ms", d.latency * 1e3),
                Kind::Extend => s.push("serve.extend_ms", d.latency * 1e3),
                Kind::Resubmit | Kind::Subset => {}
            }
            if d.computed == 0 {
                s.push("serve.resume_ms", d.latency * 1e3);
            }
        }
        let computed_cw: u64 = traced.iter().map(|d| d.computed * d.windows).sum();
        let traced_cw: u64 = traced.iter().map(|d| d.cells * d.windows).sum();
        s.push(
            "sample.reuse_ratio",
            traced_cw as f64 / computed_cw.max(1) as f64,
        );
        // Pair each traced request with the untraced one at the same
        // position of the neighbouring session: same kind of work.
        let mut pairs = Vec::new();
        for t in &traced {
            let partner = if (t.idx / SESSION) % 2 == 1 {
                t.idx - SESSION
            } else {
                t.idx + SESSION
            };
            if let Some(u) = untraced.iter().find(|u| u.idx == partner) {
                pairs.push((u.latency, t.latency));
            }
        }
        report.set("bench.trace_overhead", stats::paired_overhead(&pairs));
        let fam0 = families()[0];
        layers::measure_program(&prog.w, &fam0.opts(fam0.total(COLD_WINDOWS)), &mut s);
        // The first session is sent whole by every run of a seed, and
        // its requests depend on the seed alone; a failed request
        // delivers nothing and moves the sum.
        let first_session: u64 = done
            .iter()
            .filter(|d| d.idx < SESSION)
            .map(|d| d.sim_cycles)
            .sum();
        s.push("core.sim_cycles", first_session as f64);
        layers::attribute_requests(tr.spans(), &mut s, &mut report.notes);
        report.set_layers_from(&s);
        crate::write_spans(env, &tr)?;
    }
    if let Some(d) = daemon {
        d.stop()?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_draws_the_same_requests() {
        assert_eq!(plan(5, 20), plan(5, 20));
        assert_ne!(plan(5, 20), plan(6, 20));
    }

    #[test]
    fn every_family_goes_cold_once_per_cycle() {
        let p = plan(3, 2 * families().len());
        let colds: Vec<usize> = p
            .iter()
            .filter(|m| m.kind == Kind::Cold)
            .map(|m| m.family)
            .collect();
        let mut first: Vec<usize> = colds[..families().len()].to_vec();
        first.sort_unstable();
        assert_eq!(first, (0..families().len()).collect::<Vec<_>>());
        assert_eq!(colds[..families().len()], colds[families().len()..]);
    }

    #[test]
    fn sessions_only_reuse_families_they_introduced() {
        let p = plan(9, 40);
        assert_eq!(p.len(), 40 * SESSION);
        for session in p.chunks(SESSION) {
            let mut seen: Vec<(usize, u64)> = Vec::new();
            for m in session {
                match m.kind {
                    Kind::Cold | Kind::Extend => {
                        assert!(!seen.contains(&(m.family, m.windows)), "{m:?} is not new");
                        assert!(m.windows <= crate::program::MAX_WINDOWS);
                        seen.push((m.family, m.windows));
                    }
                    Kind::Resubmit | Kind::Subset => {
                        assert!(
                            seen.contains(&(m.family, m.windows)),
                            "{m:?} was never introduced"
                        );
                    }
                }
                assert!(!m.engines.is_empty() && !m.widths.is_empty());
            }
            // Every session sends the same mix of kinds and cells.
            let count = |k| session.iter().filter(|m| m.kind == k).count();
            assert_eq!((count(Kind::Cold), count(Kind::Extend)), (1, 1));
            let cells: usize = session
                .iter()
                .map(|m| m.engines.len() * m.widths.len())
                .sum();
            assert_eq!(cells, 4 * 12 + 46);
        }
    }
}
