//! Peak resident memory over the measured part of a run: this process
//! plus the child processes it reaped (fleet workers).

/// Restarts this process's peak-RSS mark (`VmHWM`) at its current RSS,
/// so the untimed reference computation's transient peak is not
/// counted; memory the set-up keeps resident still is.
pub fn reset_peak() {
    // Best effort: without the reset the peak covers the whole run.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process, KiB.
fn own_peak_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s starting with `ru_maxrss` (KiB).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// The largest peak RSS among reaped children, KiB. A process started
/// by `exec` inherits this mark from the process it replaced.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_peak_kib() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable `struct rusage` with the C layout
    // of this target, and RUSAGE_CHILDREN is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc == 0 {
        u.maxrss as f64
    } else {
        0.0
    }
}

/// Children are not counted off 64-bit Linux.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_peak_kib() -> f64 {
    0.0
}

/// This process's peak RSS since [`reset_peak`] plus the largest peak
/// among the child processes it has waited for, MiB.
pub fn peak_mib() -> f64 {
    (own_peak_kib() + children_peak_kib()) / 1024.0
}
