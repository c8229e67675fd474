//! Mutex-guarded progress reporting for parallel runs.
//!
//! With `--jobs N` (sweep threads) or `--procs N` (fleet worker threads)
//! progress lines are emitted concurrently; writing them through a shared
//! [`Reporter`] keeps each line atomic on stderr instead of interleaving
//! characters from concurrent `eprintln!` calls. This is the one progress
//! implementation the grid, the fleet supervisor, and the sampled runners
//! all report through.

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Serializes progress lines onto stderr: one lock per full line.
#[derive(Debug, Default)]
pub struct Reporter {
    lock: Mutex<()>,
}

impl Reporter {
    /// Creates a reporter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes one complete line to stderr under the lock.
    pub fn line(&self, args: std::fmt::Arguments<'_>) {
        let _guard = self.lock.lock().expect("reporter lock poisoned");
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "{args}");
    }
}

/// Tracks completion of a benchmark-major simulation grid: counts the
/// remaining points of each benchmark and reports when its last point
/// finishes, from whichever worker thread that happens on.
#[derive(Debug)]
pub struct GridProgress {
    reporter: Reporter,
    t0: Instant,
    remaining: Vec<AtomicUsize>,
    benches_done: AtomicUsize,
    n_benches: usize,
}

impl GridProgress {
    /// Sets up tracking for `n_benches` benchmarks of `points_per_bench`
    /// grid points each.
    pub fn new(n_benches: usize, points_per_bench: usize) -> Self {
        GridProgress {
            reporter: Reporter::new(),
            t0: Instant::now(),
            remaining: (0..n_benches).map(|_| AtomicUsize::new(points_per_bench)).collect(),
            benches_done: AtomicUsize::new(0),
            n_benches,
        }
    }

    /// Records one finished point of benchmark `w_idx`; prints the
    /// benchmark's completion line when its last point lands.
    pub fn point_done(&self, w_idx: usize, name: &str) {
        let left = self.remaining[w_idx].fetch_sub(1, Ordering::AcqRel);
        if left == 1 {
            let done = self.benches_done.fetch_add(1, Ordering::AcqRel) + 1;
            self.reporter.line(format_args!(
                "  [{name}] done ({done}/{} benchmarks, {:.1}s elapsed)",
                self.n_benches,
                self.t0.elapsed().as_secs_f64()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_down_once_per_bench() {
        let g = GridProgress::new(2, 3);
        for _ in 0..3 {
            g.point_done(0, "a");
        }
        for _ in 0..3 {
            g.point_done(1, "b");
        }
        assert_eq!(g.benches_done.load(Ordering::Acquire), 2);
    }

    #[test]
    fn reporter_is_shareable_across_threads() {
        let r = Reporter::new();
        std::thread::scope(|s| {
            for i in 0..4 {
                let r = &r;
                s.spawn(move || r.line(format_args!("thread {i} reporting")));
            }
        });
    }
}
