//! Warm-state banking roundtrips: warm each engine through its
//! functional-warming path, capture the commit-side state, restore it into
//! a freshly built engine, and require byte-identical re-captures. This is
//! the foundation the sampled-simulation store builds on — a banked warm
//! state must be indistinguishable from having run the warming walk live.

use sfetch_fetch::{CommittedControl, CommittedInst, EngineKind};
use sfetch_isa::{Addr, BranchKind};

const ENTRY: Addr = Addr::new(0x1000);

fn plain(pc: u64) -> CommittedInst {
    CommittedInst { pc: Addr::new(pc), control: None, mispredicted: false }
}

fn branch(pc: u64, kind: BranchKind, taken: bool, target: u64, next_pc: u64) -> CommittedInst {
    CommittedInst {
        pc: Addr::new(pc),
        control: Some(CommittedControl {
            kind,
            taken,
            target: Addr::new(target),
            next_pc: Addr::new(next_pc),
            is_fixup: false,
        }),
        mispredicted: false,
    }
}

/// A commit stream exercising every warm structure: calls/returns (RAS,
/// trace terminators), an alternating conditional (direction bits, split
/// FTB blocks), a direct jump (BTB/FTB/interior-taken traces), and a
/// taken back-edge.
fn commit_stream(iters: usize) -> Vec<CommittedInst> {
    let mut out = Vec::new();
    for i in 0..iters {
        out.push(plain(0x1000));
        out.push(plain(0x1004));
        out.push(plain(0x1008));
        out.push(branch(0x100c, BranchKind::Call, true, 0x2000, 0x2000));
        out.push(plain(0x2000));
        out.push(branch(0x2004, BranchKind::Return, true, 0x1010, 0x1010));
        out.push(plain(0x1010));
        let zig = i % 2 == 0;
        if zig {
            out.push(branch(0x1014, BranchKind::Cond, true, 0x1020, 0x1020));
        } else {
            out.push(branch(0x1014, BranchKind::Cond, false, 0x1020, 0x1018));
            out.push(plain(0x1018));
            out.push(branch(0x101c, BranchKind::Jump, true, 0x1020, 0x1020));
        }
        out.push(plain(0x1020));
        out.push(plain(0x1024));
        out.push(branch(0x1028, BranchKind::Cond, true, 0x1000, 0x1000));
    }
    out
}

fn warmed(kind: EngineKind, iters: usize) -> Box<dyn sfetch_fetch::FetchEngine> {
    let mut eng = kind.build(8, ENTRY);
    let stream = commit_stream(iters);
    for chunk in stream.chunks(16) {
        eng.warm_block(chunk);
    }
    eng
}

/// Every engine banks warm state (`warm_state` and `load_warm_state`
/// are required trait methods): even a factory-fresh engine's state
/// loads back into a fresh engine of its kind and re-captures the same
/// bytes.
#[test]
fn all_engines_support_warm_state() {
    for kind in EngineKind::ALL {
        let bytes = kind.build(8, ENTRY).warm_state();
        let mut fresh = kind.build(8, ENTRY);
        fresh.load_warm_state(&bytes).unwrap_or_else(|e| panic!("{kind}: load failed: {e}"));
        assert_eq!(fresh.warm_state(), bytes, "{kind}: fresh state must round-trip");
    }
}

#[test]
fn roundtrip_is_byte_identical() {
    for kind in EngineKind::ALL {
        let warm = warmed(kind, 200);
        let bytes = warm.warm_state();
        let mut fresh = kind.build(8, ENTRY);
        assert_ne!(
            fresh.warm_state(),
            bytes,
            "{kind}: warming must actually change the captured state"
        );
        fresh.load_warm_state(&bytes).unwrap_or_else(|e| panic!("{kind}: load failed: {e}"));
        assert_eq!(
            fresh.warm_state(),
            bytes,
            "{kind}: restored engine must re-capture identical bytes"
        );
        assert_eq!(fresh.stats(), warm.stats(), "{kind}: statistics restored");
    }
}

#[test]
fn capture_is_deterministic_across_identical_warmups() {
    // Guards against nondeterministic iteration order (hash sets) leaking
    // into the wire bytes: two engines warmed identically must serialize
    // identically.
    for kind in EngineKind::ALL {
        let a = warmed(kind, 120).warm_state();
        let b = warmed(kind, 120).warm_state();
        assert_eq!(a, b, "{kind}: identical warmups must capture identical bytes");
    }
}

#[test]
fn truncated_and_trailing_bytes_are_rejected() {
    for kind in EngineKind::ALL {
        let bytes = warmed(kind, 50).warm_state();
        let mut fresh = kind.build(8, ENTRY);
        assert!(
            fresh.load_warm_state(&bytes[..bytes.len() - 1]).is_err(),
            "{kind}: truncated payload must be rejected"
        );
        let mut extended = bytes.clone();
        extended.push(0);
        let mut fresh = kind.build(8, ENTRY);
        assert!(
            fresh.load_warm_state(&extended).is_err(),
            "{kind}: trailing garbage must be rejected"
        );
    }
}

#[test]
fn version_mismatch_is_rejected() {
    for kind in EngineKind::ALL {
        let mut bytes = warmed(kind, 50).warm_state();
        bytes[0] ^= 0xff; // first u32 is the warm-format version
        let mut fresh = kind.build(8, ENTRY);
        let err = fresh.load_warm_state(&bytes).expect_err("version mismatch must fail");
        assert!(err.contains("version"), "{kind}: unexpected error: {err}");
    }
}

#[test]
fn cross_engine_payloads_are_rejected() {
    let stream_bytes = warmed(EngineKind::Stream, 50).warm_state();
    for kind in [EngineKind::Ev8, EngineKind::Ftb, EngineKind::TraceCache] {
        let mut eng = kind.build(8, ENTRY);
        assert!(
            eng.load_warm_state(&stream_bytes).is_err(),
            "{kind}: stream-engine payload must not load"
        );
    }
}

#[test]
fn trace_cache_fill_unit_over_the_conditional_cap_is_rejected() {
    // The trace-cache payload ends with the fill unit's direction bits,
    // conditional count and two flags, then the 11 statistics counters.
    let bytes = warmed(EngineKind::TraceCache, 50).warm_state();
    let n_cond_at = bytes.len() - 11 * 8 - 3;
    for n_cond in [sfetch_fetch::trace_cache::MAX_COND + 1, 8, 0xff] {
        let mut bad = bytes.clone();
        bad[n_cond_at] = n_cond;
        let mut fresh = EngineKind::TraceCache.build(8, ENTRY);
        let err = fresh.load_warm_state(&bad).expect_err("an over-cap fill unit must not load");
        assert!(err.contains("MAX_COND"), "unexpected error: {err}");
    }
}
