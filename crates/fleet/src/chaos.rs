//! Deterministic fault injection — the harness that *proves* the fleet
//! tolerates faults instead of merely claiming to.
//!
//! Chaos mode is armed by a seed (`--chaos SEED`) that only the worker
//! body sees, so the supervisor itself always runs clean. Before any
//! work, the body asks [`fault_for`]`(seed, cell, attempt)` what to do
//! and the answer is a **pure function** of those three values:
//!
//! * the same seed replays the same fault schedule, byte for byte, so a
//!   failing chaos run is reproducible from its command line;
//! * a *retry* of a cell (higher attempt) draws a *different* fault —
//!   faults don't stick to cells;
//! * no fault ever fires at attempt ≥ 2, so with a retry budget of ≥ 2
//!   every chaos run provably converges to the fault-free output.
//!
//! The fault menu covers the distinct failure surfaces the supervisor
//! defends: failing before any work ([`Fault::CrashEarly`]), hanging
//! ([`Fault::Stall`] — caught by the deadline), returning a short
//! output ([`Fault::WriteTruncated`] — caught by the checksum trailer),
//! returning a plausible-but-wrong output ([`Fault::WriteCorrupt`] —
//! caught by the digest), and reporting failure despite a valid output
//! ([`Fault::ExitNonzeroAfterWrite`] — the worker's verdict must win).

use crate::cell::CellId;
use crate::fnv64;

/// What a chaos-armed worker does to itself for one (cell, attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Run cleanly.
    None,
    /// Fail before computing anything — the supervisor sees a failed
    /// worker with no output.
    CrashEarly,
    /// Hang — caught by the deadline, killed (detached), and
    /// re-leased.
    Stall,
    /// Return only a prefix of the sealed output — caught by the
    /// checksum trailer on the supervisor side.
    WriteTruncated,
    /// Return a full-length output with a flipped body byte — caught by
    /// the trailer digest.
    WriteCorrupt,
    /// Compute a perfectly valid output but report failure — the
    /// worker's verdict must override the parseable text (the worker may
    /// know something the text doesn't).
    ExitNonzeroAfterWrite,
}

/// The fault (if any) a worker injects for `cell` at `attempt`, as a
/// pure function of the seed. Attempt 0 faults with probability ~70%,
/// attempt 1 with ~30%, attempt ≥ 2 never — so `max_retries ≥ 2`
/// guarantees convergence.
pub fn fault_for(seed: u64, cell: &CellId, attempt: u32) -> Fault {
    if attempt >= 2 {
        return Fault::None;
    }
    let key = format!("{seed}\u{1f}{cell}\u{1f}{attempt}");
    let h = fnv64(key.as_bytes());
    let threshold = if attempt == 0 { 70 } else { 30 };
    if h % 100 >= threshold {
        return Fault::None;
    }
    match (h / 100) % 5 {
        0 => Fault::CrashEarly,
        1 => Fault::Stall,
        2 => Fault::WriteTruncated,
        3 => Fault::WriteCorrupt,
        _ => Fault::ExitNonzeroAfterWrite,
    }
}

/// Mangles a sealed output according to `fault`, returning what the
/// worker should actually return (and whether it should instead report
/// failure). [`Fault::CrashEarly`] and [`Fault::Stall`] act *before*
/// output exists and are handled by the worker directly, not here.
pub fn mangle_output(fault: Fault, sealed: &str) -> (String, bool) {
    match fault {
        Fault::WriteTruncated => {
            // Keep roughly half the bytes — enough to look plausible,
            // short enough that the trailer (or its absence) trips.
            let cut = sealed.len() / 2;
            (sealed[..cut].to_owned(), false)
        }
        Fault::WriteCorrupt => {
            // Flip one digit somewhere in the body, keeping length (so
            // only the digest can catch it). Fall back to truncation if
            // no digit exists to flip.
            let body_end = sealed.rfind("{\"trailer\"").unwrap_or(sealed.len());
            match sealed[..body_end].bytes().position(|b| b.is_ascii_digit()) {
                Some(at) => {
                    let mut bytes = sealed.as_bytes().to_vec();
                    bytes[at] = if bytes[at] == b'9' { b'0' } else { bytes[at] + 1 };
                    (String::from_utf8(bytes).expect("digit flip keeps utf-8"), false)
                }
                None => (sealed[..sealed.len() / 2].to_owned(), false),
            }
        }
        Fault::ExitNonzeroAfterWrite => (sealed.to_owned(), true),
        Fault::None | Fault::CrashEarly | Fault::Stall => (sealed.to_owned(), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_cells() -> Vec<CellId> {
        let mut v = Vec::new();
        for engine in ["stream", "ev8", "ftb"] {
            for width in [4usize, 8, 16] {
                for lo in (0..12u64).step_by(3) {
                    v.push(CellId::new(engine, width, lo, lo + 3));
                }
            }
        }
        v
    }

    #[test]
    fn faults_are_deterministic_and_attempt_dependent() {
        for cell in grid_cells() {
            for attempt in 0..4 {
                assert_eq!(
                    fault_for(42, &cell, attempt),
                    fault_for(42, &cell, attempt),
                    "fault must be a pure function of (seed, cell, attempt)"
                );
            }
        }
    }

    #[test]
    fn no_faults_at_attempt_two_or_later() {
        for seed in [0u64, 1, 42, 0xdead_beef] {
            for cell in grid_cells() {
                for attempt in 2..6 {
                    assert_eq!(fault_for(seed, &cell, attempt), Fault::None);
                }
            }
        }
    }

    #[test]
    fn seeds_actually_inject_and_vary() {
        // With 36 cells at ~70% attempt-0 probability, a seed that
        // injects nothing (or everything) would be a generator bug.
        let cells = grid_cells();
        for seed in [7u64, 42, 1234] {
            let faulty =
                cells.iter().filter(|c| fault_for(seed, c, 0) != Fault::None).count();
            assert!(faulty > cells.len() / 4, "seed {seed} injected only {faulty}");
            assert!(faulty < cells.len(), "seed {seed} left no clean cell");
        }
        // Different seeds produce different schedules.
        let a: Vec<_> = cells.iter().map(|c| fault_for(7, c, 0)).collect();
        let b: Vec<_> = cells.iter().map(|c| fault_for(1234, c, 0)).collect();
        assert_ne!(a, b, "distinct seeds must differ somewhere");
    }

    #[test]
    fn mangle_truncation_and_corruption_are_caught_by_the_trailer() {
        let sealed = crate::trailer::seal("{\"w\": 0, \"cycles\": 123}\n{\"w\": 1}\n");
        let (trunc, bad_exit) = mangle_output(Fault::WriteTruncated, &sealed);
        assert!(!bad_exit);
        assert!(crate::trailer::unseal(&trunc).is_err(), "truncation must not verify");

        let (corrupt, bad_exit) = mangle_output(Fault::WriteCorrupt, &sealed);
        assert!(!bad_exit);
        assert_eq!(corrupt.len(), sealed.len(), "corruption keeps length");
        assert!(crate::trailer::unseal(&corrupt).is_err(), "corruption must not verify");

        let (valid, bad_exit) = mangle_output(Fault::ExitNonzeroAfterWrite, &sealed);
        assert!(bad_exit, "text is valid but the worker must report failure");
        assert!(crate::trailer::unseal(&valid).is_ok());
    }
}
