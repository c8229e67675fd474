//! Property tests over the fleet cell ledger (`sfetch_fleet::Ledger`):
//! the file-backed state machine is driven through random outcome
//! sequences against a pure in-memory model, then re-opened (replayed)
//! and checked again — so crash recovery is exercised on every case.
//!
//! The two load-bearing invariants of the ledger (that no cell runs on
//! two live workers is the supervisor's, and is tested there):
//!
//! * **replay equivalence** — dropping the ledger mid-run (a killed
//!   parent) and re-opening it reproduces exactly the modeled state;
//! * **resume idempotence** — `Done` cells whose outputs still verify
//!   are never offered for recomputation, across any number of reopens.

use std::path::PathBuf;

use proptest::prelude::*;

use sfetch_fleet::{fnv64, CellId, CellState, Ledger};

/// Retry budget used throughout: a cell is attempted at most 3 times.
const MAX_RETRIES: u32 = 2;
const N_CELLS: usize = 3;
const CONFIG: u64 = 0xfee7;

#[derive(Debug, Clone)]
enum Op {
    /// Try to complete cell `cell` (writes its output file first).
    Complete { cell: usize },
    /// Try to charge cell `cell` a failure.
    Fail { cell: usize },
}

/// The vendored proptest stand-in has no `prop_oneof`/`prop_map`, so
/// ops are generated as raw `(kind, cell)` tuples and decoded. Failures
/// are drawn three times as often as completions, so budgets exhaust.
fn decode(raw: (u32, usize)) -> Op {
    let (kind, cell) = raw;
    match kind % 4 {
        0 => Op::Complete { cell },
        _ => Op::Fail { cell },
    }
}

/// The pure model of one cell's state.
#[derive(Debug, Clone, PartialEq)]
enum Model {
    Pending { attempts: u32 },
    Done { digest: u64, attempts: u32 },
    Failed { attempts: u32 },
}

fn assert_matches_model(ledger: &Ledger, cells: &[CellId], model: &[Model]) {
    for (cell, m) in cells.iter().zip(model) {
        let state = ledger.state(cell).expect("known cell");
        let ok = match (m, state) {
            (Model::Pending { attempts }, CellState::Pending { attempts: a }) => attempts == a,
            (Model::Done { digest, attempts }, CellState::Done { digest: d, attempts: a, .. }) => {
                (digest, attempts) == (d, a)
            }
            (Model::Failed { attempts }, CellState::Failed { attempts: a, .. }) => attempts == a,
            _ => false,
        };
        assert!(ok, "cell {cell}: model {m:?} != ledger {state:?}");
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfetch-pledger-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mk tmp");
    dir
}

fn validate(text: &str) -> Result<u64, String> {
    Ok(fnv64(text.as_bytes()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random outcome sequences: every transition's result (including
    /// every rejection) must match the model, and a reopen after the
    /// sequence — the killed-parent path — must replay to the modeled
    /// state with every surviving `Done` cell resumed, not recomputed.
    #[test]
    fn ledger_matches_model_and_survives_reopen(
        raw_ops in proptest::collection::vec((0u32..4, 0usize..N_CELLS), 1..60),
        case in 0u64..1_000_000,
    ) {
        let ops: Vec<Op> = raw_ops.into_iter().map(decode).collect();
        let dir = fresh_dir(&format!("model-{case}"));
        let cells: Vec<CellId> =
            (0..N_CELLS).map(|i| CellId::new("eng", 4, i as u64, i as u64 + 1)).collect();
        let (mut ledger, summary) =
            Ledger::open(dir.join("l.ledger"), CONFIG, &cells, &validate).expect("open");
        prop_assert_eq!(summary.replayed_events, 0);
        let mut model: Vec<Model> = vec![Model::Pending { attempts: 0 }; N_CELLS];

        for op in &ops {
            match *op {
                Op::Complete { cell } => {
                    let text = format!("output of cell {cell}\n");
                    let digest = fnv64(text.as_bytes());
                    let out = dir.join(format!("c{cell}.out"));
                    std::fs::write(&out, &text).expect("write out");
                    let got = ledger.complete(&cells[cell], digest, &out, 5, text);
                    match model[cell] {
                        Model::Pending { attempts } => {
                            got.expect("complete should succeed");
                            model[cell] = Model::Done { digest, attempts };
                        }
                        _ => prop_assert!(got.is_err(), "complete requires a pending cell"),
                    }
                }
                Op::Fail { cell } => {
                    let got = ledger.fail(&cells[cell], "injected", MAX_RETRIES);
                    match model[cell] {
                        Model::Pending { attempts } => {
                            let attempts = attempts + 1;
                            let permanent = attempts > MAX_RETRIES;
                            prop_assert_eq!(got.expect("fail should succeed"), permanent);
                            model[cell] = if permanent {
                                Model::Failed { attempts }
                            } else {
                                Model::Pending { attempts }
                            };
                        }
                        _ => prop_assert!(got.is_err(), "fail requires a pending cell"),
                    }
                }
            }
            assert_matches_model(&ledger, &cells, &model);
        }

        // Parent "killed" here: drop the ledger and replay the file.
        let done_cells =
            model.iter().filter(|m| matches!(m, Model::Done { .. })).count() as u64;
        drop(ledger);
        let (reopened, summary) =
            Ledger::open(dir.join("l.ledger"), CONFIG, &cells, &validate).expect("reopen");
        assert_matches_model(&reopened, &cells, &model);
        prop_assert_eq!(summary.resumed_done, done_cells, "every Done output re-verified");
        prop_assert_eq!(summary.invalidated, 0);

        // Reopen idempotence: a second replay changes nothing more.
        drop(reopened);
        let (again, summary2) =
            Ledger::open(dir.join("l.ledger"), CONFIG, &cells, &validate).expect("reopen 2");
        assert_matches_model(&again, &cells, &model);
        prop_assert_eq!(summary2.resumed_done, done_cells);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Resume-after-kill idempotence, sharpened: complete a random
    /// subset of cells, kill the parent, corrupt a random subset of the
    /// completed outputs — reopen must keep exactly the intact ones and
    /// demote exactly the corrupted ones.
    #[test]
    fn resume_keeps_intact_outputs_and_demotes_corrupt_ones(
        complete_mask in proptest::collection::vec(any::<bool>(), N_CELLS..N_CELLS + 1),
        corrupt_mask in proptest::collection::vec(any::<bool>(), N_CELLS..N_CELLS + 1),
        case in 0u64..1_000_000,
    ) {
        let dir = fresh_dir(&format!("resume-{case}"));
        let cells: Vec<CellId> =
            (0..N_CELLS).map(|i| CellId::new("eng", 8, i as u64, i as u64 + 1)).collect();
        let (mut ledger, _) =
            Ledger::open(dir.join("l.ledger"), CONFIG, &cells, &validate).expect("open");
        for (i, done) in complete_mask.iter().enumerate() {
            if *done {
                let text = format!("cell {i} points\n");
                let out = dir.join(format!("c{i}.out"));
                std::fs::write(&out, &text).expect("write out");
                ledger
                    .complete(&cells[i], fnv64(text.as_bytes()), &out, 1, text)
                    .expect("complete");
            }
        }
        drop(ledger); // kill

        let mut expect_resumed = 0u64;
        let mut expect_invalidated = 0u64;
        for i in 0..N_CELLS {
            if complete_mask[i] {
                if corrupt_mask[i] {
                    std::fs::write(dir.join(format!("c{i}.out")), "rotted").expect("corrupt");
                    expect_invalidated += 1;
                } else {
                    expect_resumed += 1;
                }
            }
        }
        let (reopened, summary) =
            Ledger::open(dir.join("l.ledger"), CONFIG, &cells, &validate).expect("reopen");
        prop_assert_eq!(summary.resumed_done, expect_resumed);
        prop_assert_eq!(summary.invalidated, expect_invalidated);
        for i in 0..N_CELLS {
            let state = reopened.state(&cells[i]).expect("state");
            if complete_mask[i] && !corrupt_mask[i] {
                prop_assert!(
                    matches!(state, CellState::Done { .. }),
                    "intact output stays Done"
                );
            } else {
                prop_assert!(
                    matches!(state, CellState::Pending { .. }),
                    "corrupt or never-run cell is Pending"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
