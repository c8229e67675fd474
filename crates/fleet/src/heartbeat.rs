//! Worker-side liveness: a background thread that touches a heartbeat
//! file, whose mtime the supervisor health-checks.
//!
//! Exit status only reports death; it cannot report a *hang*. The
//! heartbeat closes that gap with the cheapest possible channel — file
//! mtimes on a path the supervisor already owns — so a stalled worker
//! (deadlock, runaway loop, chaos [`Stall`](crate::chaos::Fault::Stall))
//! goes quiet, its mtime ages past the staleness bound, and the
//! supervisor kills and re-leases the cell *before* the full cell
//! deadline would fire.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// RAII heartbeat: spawns a thread on construction that rewrites the
/// heartbeat file every `interval`, and stops it on drop. Dropping the
/// guard (including via panic unwind) ends the heartbeat, so a worker
/// that stops making progress stops looking alive. The drop wakes the
/// thread out of its wait instead of waiting out the interval, so a
/// worker exits as soon as its work is written.
pub struct HeartbeatGuard {
    stop: mpsc::Sender<()>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatGuard {
    /// Starts heartbeating `path` every `interval`. The first beat is
    /// written synchronously so the supervisor sees a fresh mtime from
    /// the moment the guard exists; later beats best-effort (a missed
    /// write only ages the mtime, which is exactly the signal).
    pub fn start(path: impl Into<PathBuf>, interval: Duration) -> Self {
        let path = path.into();
        beat(&path);
        let (stop, wake) = mpsc::channel();
        // A timed-out wait is the next beat; a stop message (or a
        // dropped sender) ends the thread at once.
        let thread = std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = wake.recv_timeout(interval) {
                beat(&path);
            }
        });
        HeartbeatGuard { stop, thread: Some(thread) }
    }
}

fn beat(path: &Path) {
    let _ = std::fs::write(path, b"beat\n");
}

impl Drop for HeartbeatGuard {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_writes_and_stops() {
        let dir = std::env::temp_dir().join(format!("sfetch-hb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk tmp");
        let hb = dir.join("worker.hb");
        {
            let _guard = HeartbeatGuard::start(&hb, Duration::from_millis(10));
            assert!(hb.exists(), "first beat is synchronous");
            std::thread::sleep(Duration::from_millis(35));
        }
        // After drop, the file stops being refreshed.
        let mtime = std::fs::metadata(&hb).and_then(|m| m.modified()).expect("mtime");
        std::thread::sleep(Duration::from_millis(30));
        let mtime2 = std::fs::metadata(&hb).and_then(|m| m.modified()).expect("mtime");
        assert_eq!(mtime, mtime2, "no beats after the guard is dropped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Dropping the guard wakes the heartbeat thread mid-wait: a worker
    /// with a 10 s interval must not sit out the interval on exit.
    #[test]
    fn heartbeat_stops_promptly_on_drop() {
        let dir = std::env::temp_dir().join(format!("sfetch-hb-prompt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk tmp");
        let guard = HeartbeatGuard::start(dir.join("worker.hb"), Duration::from_secs(10));
        let t0 = std::time::Instant::now();
        drop(guard);
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(500), "drop took {took:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
