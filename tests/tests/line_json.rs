//! The workspace's one line-JSON codec (`sfetch_obs::jsonl`): `Row`
//! writes every wire line, `Obj` reads every one back.
//!
//! * **round trip** — arbitrary strings (quotes, backslashes, control
//!   characters, non-ASCII) and integers up to `u64::MAX` survive
//!   `Row` → `Obj` exactly;
//! * **hostile bytes** — truncating, bit-flipping or splicing garbage
//!   into a real ledger, sealed shard file, submit line or serve event
//!   yields a typed error or a value that is still self-consistent, and
//!   never a panic; a sealed shard yields the identical points or an
//!   error, never different points;
//! * **older spacing** — ledgers, shard files and trailers written with
//!   `"k": v` spacing by earlier builds still read, so their stores
//!   resume.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use sfetch_bench::driver::{validate_shard_text, GridRequest, ServeEvent};
use sfetch_bench::grid::{parse_shard_file, point_line, GridCell};
use sfetch_bench::HarnessOpts;
use sfetch_fetch::EngineKind;
use sfetch_fleet::{fnv64, seal, CellId, CellState, Ledger};
use sfetch_obs::jsonl::{optional, JsonError, Obj, Row};
use sfetch_sample::SamplePoint;

/// Characters that stress the escaper: JSON metacharacters, every
/// control character, the DEL byte, and multi-byte UTF-8.
fn pick_char(kind: u32, raw: u32) -> char {
    const SPECIAL: [char; 10] = [
        '"', '\\', '/', '\u{7f}', 'é', '€', '😀', '\u{2028}', '\u{fffd}', ' ',
    ];
    match kind % 4 {
        0 => char::from_u32(raw % 0x20).unwrap_or(' '),
        1 => SPECIAL[raw as usize % SPECIAL.len()],
        2 => char::from_u32(0x20 + raw % 0x5f).unwrap_or('x'),
        _ => char::from_u32(raw % 0x11_0000).unwrap_or('\u{fffd}'),
    }
}

fn make_string(raw: &[(u32, u32)]) -> String {
    raw.iter().map(|&(k, r)| pick_char(k, r)).collect()
}

/// One hostile edit of `text`: a strict-prefix truncation, a single bit
/// flip, or garbage bytes spliced in. Invalid UTF-8 is replaced, as a
/// `read_to_string` / `lines()` caller would have rejected it earlier.
fn mangle(text: &str, kind: u32, at: usize, garbage: &[u8]) -> (String, bool) {
    let mut b = text.as_bytes().to_vec();
    let at = at % b.len();
    let truncated = kind.is_multiple_of(3);
    match kind % 3 {
        0 => b.truncate(at),
        1 => b[at] ^= 1 << (garbage[0] % 8),
        _ => {
            b.splice(at..at, garbage.iter().copied());
        }
    }
    (String::from_utf8_lossy(&b).into_owned(), truncated)
}

fn points() -> Vec<SamplePoint> {
    (0..3)
        .map(|w| SamplePoint {
            window: w,
            start_inst: 495_000 + 500_000 * w,
            committed: 5003,
            cycles: 3183 + w,
            stall_cycles: 299,
            mispredictions: 54,
        })
        .collect()
}

fn sealed_shard() -> String {
    let cell = GridCell {
        engine: EngineKind::Stream,
        width: 4,
    };
    let mut body = Row::new()
        .s("schema", sfetch_bench::grid::GRID_SHARD_SCHEMA)
        .s("cell", "stream:4:0-3")
        .finish();
    body.push('\n');
    for p in points() {
        body.push_str(&point_line(cell, &p));
        body.push('\n');
    }
    seal(&body)
}

fn serve_events() -> Vec<ServeEvent> {
    vec![
        ServeEvent::Pong,
        ServeEvent::Accepted {
            req: "r-1".into(),
            cells: 4,
            windows: 4,
        },
        ServeEvent::Cell {
            req: "r-1".into(),
            cell: "stream:8:0-4".into(),
            resumed: true,
            shared_by: 2,
        },
        ServeEvent::Point {
            engine: "stream".into(),
            width: 8,
            point: points()[2],
        },
        ServeEvent::Estimate {
            engine: "ev8".into(),
            width: 4,
            windows: 4,
            ipc: 1.9231,
            lo: 1.87,
            hi: 4.49e307,
        },
        ServeEvent::Final {
            req: "r-1".into(),
            status: "complete".into(),
            computed: 2,
            resumed: 1,
            shared: u64::MAX,
        },
        ServeEvent::Error {
            req: "r-1".into(),
            msg: "bad \"sample\"\tspec\u{1b}".into(),
        },
    ]
}

fn request() -> GridRequest {
    GridRequest {
        bench: "phased".into(),
        engines: vec![EngineKind::Stream, EngineKind::Ev8],
        widths: vec![4, 8],
        total: 2_000_000,
        scfg: sfetch_bench::grid::calibration_schedule(),
        opts: HarnessOpts {
            jobs: 2,
            batch: usize::MAX,
            ..HarnessOpts::default()
        },
    }
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfetch-line-json-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mk tmp");
    dir
}

fn ledger_cells() -> Vec<CellId> {
    vec![CellId::new("ev8", 4, 0, 3), CellId::new("stream", 8, 0, 3)]
}

const NASTY_WHY: &str = "child said \"no\"\n\tand \\ dumped \u{1b}[31mstack";

/// A real ledger: one cell `done` (its sealed shard on disk), one
/// permanently failed with a reason full of escapes.
fn write_ledger(dir: &Path) -> String {
    let cells = ledger_cells();
    let out = dir.join("ev8-4.cell.json");
    let text = sealed_shard();
    std::fs::write(&out, &text).expect("write cell output");
    let path = dir.join("cells.ledger");
    let (mut led, _) =
        Ledger::open(&path, 7, &cells, 0, &validate_shard_text).expect("open ledger");
    led.lease(&cells[0], 11, 10_000, 0).expect("lease");
    led.complete(&cells[0], fnv64(text.as_bytes()), &out, 5, text)
        .expect("complete");
    led.lease(&cells[1], 12, 10_000, 0).expect("lease");
    led.fail(&cells[1], NASTY_WHY, 0, 0).expect("fail");
    drop(led);
    std::fs::read_to_string(&path).expect("read ledger")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn row_round_trips_arbitrary_strings_and_integers(
        raw in proptest::collection::vec((0u32..4, any::<u32>()), 0..40),
        raw_key in proptest::collection::vec((0u32..4, any::<u32>()), 1..8),
        n in any::<u64>(),
        near_max in 0u64..1000,
    ) {
        let text = make_string(&raw);
        let key = make_string(&raw_key);
        let line = Row::new()
            .s("s", &text)
            .u("n", n)
            .u("max", u64::MAX - near_max)
            .b("flag", n.is_multiple_of(2))
            .s(&format!("k{key}"), &key)
            .finish();
        let obj = Obj::parse(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        prop_assert_eq!(obj.s("s"), Ok(text.as_str()));
        prop_assert_eq!(obj.u::<u64>("n"), Ok(n));
        prop_assert_eq!(obj.u::<u64>("max"), Ok(u64::MAX - near_max));
        prop_assert_eq!(obj.b("flag"), Ok(n.is_multiple_of(2)));
        prop_assert_eq!(obj.s(&format!("k{key}")), Ok(key.as_str()));
    }

    #[test]
    fn mangled_wire_lines_error_or_decode_consistently(
        kind in 0u32..3,
        at in any::<usize>(),
        garbage in proptest::collection::vec(any::<u8>(), 1..6),
    ) {
        // Sealed shard: the trailer guards the body, so any accepted
        // mangling must yield the identical points.
        let (shard, _) = mangle(&sealed_shard(), kind, at, &garbage);
        if let Ok(parsed) = parse_shard_file(&shard) {
            let got: Vec<SamplePoint> = parsed.iter().map(|(_, _, p)| *p).collect();
            prop_assert_eq!(got, points());
        }

        // Submit line: a strict prefix is never a request; anything
        // accepted re-encodes to a line that reads back the same.
        let line = request().submit_line("r-7");
        let (bad, truncated) = mangle(&line, kind, at, &garbage);
        match GridRequest::parse_submit(&bad) {
            Ok((id, req)) => {
                prop_assert!(!truncated, "accepted a truncated submit line {bad:?}");
                let again = req.submit_line(&id);
                let (id2, req2) = GridRequest::parse_submit(&again).expect("re-encoded line parses");
                prop_assert_eq!((id2, req2.submit_line(&id)), (id, again));
            }
            Err(e) => prop_assert!(!e.is_empty()),
        }

        // Every serve event kind.
        for ev in serve_events() {
            let (bad, truncated) = mangle(&ev.to_line(), kind, at, &garbage);
            if let Ok(got) = ServeEvent::parse(&bad) {
                prop_assert!(!truncated, "accepted a truncated event {bad:?}");
                prop_assert_eq!(ServeEvent::parse(&got.to_line()), Ok(got));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A mangled ledger either fails to open with a typed error or
    /// replays; a `done` cell resumes only with its exact verified
    /// output.
    #[test]
    fn mangled_ledger_errors_or_resumes_only_verified_output(
        kind in 0u32..3,
        at in any::<usize>(),
        garbage in proptest::collection::vec(any::<u8>(), 1..6),
    ) {
        let dir = tmp(&format!("mangle-{kind}-{at}"));
        let text = write_ledger(&dir);
        let (bad, _) = mangle(&text, kind, at, &garbage);
        let path = dir.join("cells.ledger");
        std::fs::write(&path, bad).expect("write mangled ledger");
        let cells = ledger_cells();
        if let Ok((led, _)) = Ledger::open(&path, 7, &cells, 1_000, &validate_shard_text) {
            if let Ok(CellState::Done { .. }) = led.state(&cells[0]) {
                prop_assert_eq!(led.done_text(&cells[0]), Some(sealed_shard().as_str()));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn row_lines_replay_exactly_through_the_ledger() {
    let dir = tmp("exact");
    write_ledger(&dir);
    let cells = ledger_cells();
    let (led, summary) = Ledger::open(
        dir.join("cells.ledger"),
        7,
        &cells,
        1_000,
        &validate_shard_text,
    )
    .expect("reopen");
    assert_eq!(summary.resumed_done, 1);
    match led.state(&cells[1]).expect("state") {
        CellState::Failed { last_error, .. } => assert_eq!(last_error, NASTY_WHY),
        other => panic!("expected Failed, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard file exactly as earlier builds sealed it (`"k": v` spacing,
/// trailer included).
const OLD_SHARD: &str = r#"{"schema": "sfetch-grid-shard-v3", "cell": "stream:4:0-4", "bench": "phased"}
{"engine": "stream", "width": 4, "window": 0, "start_inst": 495000, "committed": 5003, "cycles": 3183, "stall_cycles": 299, "mispredictions": 54}
{"engine": "stream", "width": 4, "window": 1, "start_inst": 995000, "committed": 5002, "cycles": 3101, "stall_cycles": 283, "mispredictions": 60}
{"engine": "stream", "width": 4, "window": 2, "start_inst": 1495000, "committed": 5003, "cycles": 3573, "stall_cycles": 209, "mispredictions": 63}
{"engine": "stream", "width": 4, "window": 3, "start_inst": 1995000, "committed": 5000, "cycles": 3760, "stall_cycles": 548, "mispredictions": 61}
{"trailer": "sfetch-shard-trailer-v1", "bytes": 664, "fnv": 3462339553829376021}
"#;

/// A ledger in the same older spacing; `OUT` and `DIGEST` are filled in
/// with the shard above.
const OLD_LEDGER: &str = r#"{"ev": "open", "schema": "sfetch-fleet-ledger-v1", "config": 7, "cells": 2}
{"ev": "lease", "cell": "ev8:4:0-3", "worker": 15637, "attempt": 0, "deadline_ms": 1792208228750}
{"ev": "done", "cell": "ev8:4:0-3", "digest": DIGEST, "dur_ms": 206, "out": "OUT"}
{"ev": "lease", "cell": "stream:8:0-3", "worker": 15638, "attempt": 0, "deadline_ms": 100}
{"ev": "fail", "cell": "stream:8:0-3", "attempts": 1, "not_before_ms": 0, "permanent": true, "why": "child said \"no\" and \\ left"}
"#;

#[test]
fn older_spacing_fixtures_still_parse() {
    // Flat fields in both spacings.
    for line in [
        "{\"a\": 7, \"s\": \"x,y\", \"b\": true, \"f\": -1.5}",
        "{\"a\":7,\"s\":\"x,y\",\"b\":true,\"f\":-1.5}",
    ] {
        let obj = Obj::parse(line).expect("flat object");
        assert_eq!(obj.u::<u64>("a"), Ok(7));
        assert_eq!(obj.s("s"), Ok("x,y"));
        assert_eq!(obj.b("b"), Ok(true));
        assert_eq!(obj.f("f"), Ok(-1.5));
        assert_eq!(
            obj.u::<u64>("missing"),
            Err(JsonError::Missing("missing".into()))
        );
        assert_eq!(optional(obj.u::<u64>("missing")), Ok(None));
    }

    // A sealed shard: trailer, header and point lines.
    let parsed = parse_shard_file(OLD_SHARD).expect("older shard parses");
    assert_eq!(parsed.len(), 4);
    assert_eq!(
        parsed[3],
        (
            "stream".to_owned(),
            4,
            SamplePoint {
                window: 3,
                start_inst: 1_995_000,
                committed: 5000,
                cycles: 3760,
                stall_cycles: 548,
                mispredictions: 61,
            }
        )
    );

    // A ledger: header, lease, done (resumes from its shard), fail.
    let dir = tmp("old-ledger");
    let out = dir.join("ev8-4-0-3.cell.json");
    std::fs::write(&out, OLD_SHARD).expect("write shard");
    let ledger = OLD_LEDGER
        .replace("DIGEST", &fnv64(OLD_SHARD.as_bytes()).to_string())
        .replace("OUT", &out.display().to_string());
    let path = dir.join("cells.ledger");
    std::fs::write(&path, ledger).expect("write ledger");
    let cells = vec![CellId::new("ev8", 4, 0, 3), CellId::new("stream", 8, 0, 3)];
    let (led, summary) =
        Ledger::open(&path, 7, &cells, 1_000, &validate_shard_text).expect("older ledger opens");
    assert_eq!(
        (
            summary.resumed_done,
            summary.invalidated,
            summary.replayed_events
        ),
        (1, 0, 4)
    );
    assert_eq!(led.done_text(&cells[0]), Some(OLD_SHARD));
    match led.state(&cells[1]).expect("state") {
        CellState::Failed {
            attempts: 1,
            last_error,
        } => {
            assert_eq!(last_error, "child said \"no\" and \\ left");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_widths_are_checked_not_cast() {
    let events = serve_events();
    let point = events[3].to_line();
    let estimate = events[4].to_line();
    for width in ["-1", "4.5", "18446744073709551616", "\"8\""] {
        let bad_point = point.replace("\"width\":8", &format!("\"width\":{width}"));
        let bad_estimate = estimate.replace("\"width\":4", &format!("\"width\":{width}"));
        for line in [bad_point, bad_estimate] {
            let err = ServeEvent::parse(&line).expect_err("bad width must be rejected");
            assert!(err.contains("\"width\""), "{line}: {err}");
        }
    }
}
