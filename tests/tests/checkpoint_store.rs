//! Cross-crate correctness of the checkpoint store (`sfetch_sample::store`):
//! suspend/resume through *disk* is bit-identical to running straight
//! through, warm-store replays equal cold-store runs byte-for-byte, and
//! damaged store entries — warm-bank segments re-sealed under a valid
//! digest included — are rejected and recomputed, never trusted. Bytes
//! flipped inside a re-sealed engine or memory segment or a re-sealed
//! checkpoint entry never panic a run.

use std::ops::Range;

use proptest::prelude::*;

use sfetch_cfg::{layout, CodeImage};
use sfetch_core::ProcessorConfig;
use sfetch_fetch::EngineKind;
use sfetch_sample::{
    memory_model_digest, warm_model_digest, BatchCell, BatchSampler, CheckpointStore,
    SampleConfig, Sampler, StoreKey, StoreMiss, StoredSampler, WARM_VERSION,
};
use sfetch_workloads::phased::{self, PhasedParams};

fn phased_image(seed: u64) -> CodeImage {
    let cfg = phased::generate(&PhasedParams::small(), seed);
    let lay = layout::natural(&cfg);
    CodeImage::build(&cfg, &lay)
}

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

fn tmp_store(tag: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(format!(
        "sfetch-ckpt-itest-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::open(dir).expect("open store")
}

/// Resizes a serialized checkpoint's execution counts by `delta` words
/// and fixes its slot-count word (word 10), so it still parses but no
/// longer fits the image it was taken on.
fn resize_ckpt(ckpt: &mut Vec<u8>, delta: i64) {
    let n = delta.unsigned_abs() as usize * 8;
    if delta < 0 {
        ckpt.truncate(ckpt.len() - n);
    } else {
        ckpt.extend(std::iter::repeat_n(0u8, n));
    }
    let slots = u64::from_le_bytes(ckpt[80..88].try_into().expect("n_slots"));
    let fixed = slots.checked_add_signed(delta).expect("slot count stays positive");
    ckpt[80..88].copy_from_slice(&fixed.to_le_bytes());
}

/// A warm segment's payload resized by `delta`: it loses or gains
/// trailing bytes.
fn resize_segment(payload: &[u8], delta: i64) -> Vec<u8> {
    let mut seg = payload.to_vec();
    if delta < 0 {
        seg.truncate(seg.len() - delta.unsigned_abs() as usize);
    } else {
        seg.extend(std::iter::repeat_n(0u8, delta as usize));
    }
    seg
}

/// Window `w`'s checkpoint key, which its warm segments are filed under.
fn window_key(fingerprint: u64, seed: u64, scfg: &SampleConfig, w: u64) -> StoreKey {
    StoreKey { fingerprint, seed, at_inst: w * scfg.interval + scfg.fast_forward() }
}

/// The model digest of `cell`'s engine segment (`segment` 0) or memory
/// segment (1).
fn segment_model(cell: &BatchCell, segment: usize, scfg: &SampleConfig) -> u64 {
    match segment {
        0 => warm_model_digest(cell.kind, &cell.pcfg, scfg),
        _ => memory_model_digest(cell.pcfg.width, scfg),
    }
}

/// Bytes at each end of a segment that [`flip_bytes`] aims at: the
/// structural fields (format version, table geometry, fill units, open
/// streams, counters) sit there, the bulk tables in between.
const FLIP_EDGE: u64 = 256;

/// XORs bytes of `bytes`, keeping its length. Each flip `(region, at,
/// mask)` lands in the head (region 0), the tail (region 1), anywhere
/// (region 2) or inside `spans[region - 3]` (anywhere when there is no
/// such span), at offset `at` modulo that span.
fn flip_bytes(bytes: &mut [u8], flips: &[(u8, u64, u8)], spans: &[Range<usize>]) {
    let len = bytes.len() as u64;
    let edge = len.min(FLIP_EDGE);
    for &(region, at, mask) in flips {
        let span = usize::from(region).checked_sub(3).and_then(|r| spans.get(r));
        let i = match (region, span) {
            (0, _) => at % edge,
            (1, _) => len - edge + at % edge,
            (_, Some(s)) => s.start as u64 + at % (s.end - s.start) as u64,
            _ => at % len,
        };
        bytes[i as usize] ^= mask;
    }
}

/// The bytes of a serialized checkpoint the executor resumes from as
/// is: its pc word, and (past the counter and table-size words) every
/// per-block cursor and the call stack.
fn ckpt_state_spans(ckpt: &[u8]) -> [Range<usize>; 2] {
    let word = |i: usize| u64::from_le_bytes(ckpt[8 * i..8 * i + 8].try_into().expect("word"));
    let (n_blocks, n_stack) = (word(8) as usize, word(9) as usize);
    [40..48, 88..8 * (11 + 3 * n_blocks + n_stack)]
}

/// Header bytes of a warm segment and of a `.sfckpt` entry: magic,
/// version, the key words (four and three), digest and length.
const WARM_HEADER: usize = 64;
const CKPT_HEADER: usize = 56;

/// Re-seals an entry file around a new payload: the header's last two
/// words are the payload's FNV-1a digest and length.
fn reseal(file: &[u8], header: usize, payload: &[u8]) -> Vec<u8> {
    let mut out = file[..header].to_vec();
    out[header - 16..header - 8].copy_from_slice(&sfetch_fleet::fnv64(payload).to_le_bytes());
    out[header - 8..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A warm segment that passes every digest check but does not
    /// decode — an engine or memory segment resized and re-sealed under
    /// a valid digest — is rejected, warmed live in the same pass and
    /// rebanked by a group sweep and by a one-cell run alike: points
    /// stay bit-identical to an unbanked run, the rejection is counted,
    /// and the segment is rewritten as it was.
    #[test]
    fn resealed_undecodable_warm_entries_are_rejected_and_rebanked(
        segment in 0usize..2,
        magnitude in 1i64..4,
        grow in any::<bool>(),
        window in 0u64..2,
        victim in 0usize..2,
    ) {
        let delta = if grow { magnitude } else { -magnitude };
        let img = phased_image(11);
        let scfg = quick_schedule();
        let cells = [
            BatchCell { kind: EngineKind::Stream, pcfg: ProcessorConfig::table2(8) },
            BatchCell { kind: EngineKind::Ev8, pcfg: ProcessorConfig::table2(4) },
        ];
        // Two kinds and two widths: four segments per window.
        let (seed, windows, segments) = (5u64, 2u64, 4u64);
        let fp = sfetch_trace::trace_fingerprint(&img, seed, 4096);
        let store = tmp_store("warm-reseal");
        let root = store.root().to_path_buf();
        let run = |bank: bool| {
            let store = CheckpointStore::open(&root).expect("reopen store");
            let mut batch = BatchSampler::new(&img, fp, seed, scfg, &store).with_warm_bank(bank);
            let pts = batch.run_range_points(&cells, 0..windows, 1);
            (pts, batch.warm_bank_stats())
        };
        let (unbanked, _) = run(false);
        let (banked, stats) = run(true);
        prop_assert_eq!(&banked, &unbanked);
        prop_assert_eq!(stats.misses, segments * windows, "the first banked run banks them all");

        let cell = cells[victim];
        let key = window_key(fp, seed, &scfg, window);
        let model = segment_model(&cell, segment, &scfg);
        let path = store.warm_entry_path(&key, model);
        let good = std::fs::read(&path).expect("banked segment");
        let bad = reseal(&good, WARM_HEADER, &resize_segment(&good[WARM_HEADER..], delta));
        let reopen = || CheckpointStore::open(&root).expect("reopen store");
        std::fs::write(&path, &bad).expect("plant segment");
        let planted = reopen().load_warm(&key, model);
        prop_assert!(planted.is_ok(), "the mutation passes every digest check");

        // A group sweep (the production grid path).
        let (again, stats) = run(true);
        prop_assert_eq!(&again, &unbanked);
        prop_assert_eq!(stats.rejected, 1);
        prop_assert_eq!(stats.hits, segments * windows - 1);
        prop_assert!(std::fs::read(&path).expect("rebanked segment") == good, "segment rewritten");

        // A one-cell run through the same sweep.
        std::fs::write(&path, &bad).expect("plant segment");
        let store = reopen();
        let mut single = StoredSampler::new(&img, fp, seed, scfg, &store).with_warm_bank(true);
        let pts = single.run_range(cell.kind, cell.pcfg, 0..windows, 1);
        prop_assert_eq!(&pts, &unbanked[victim]);
        prop_assert_eq!(single.warm_bank_stats().rejected, 1);
        prop_assert_eq!(single.warm_bank_stats().hits, 2 * windows - 1);
        prop_assert!(std::fs::read(&path).expect("rebanked segment") == good, "segment rewritten");
        let _ = std::fs::remove_dir_all(&root);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hostile store bytes: flipping bytes inside a warm segment — one
    /// kind's engine segment or the width's memory segment — or inside a
    /// `.sfckpt` checkpoint entry, and re-sealing it under a valid
    /// digest, never panics a run, banked or not (a fully banked window
    /// starts from that `.sfckpt` too). The entry either fails to decode
    /// or to fit the image — then it is rejected and recomputed (a warm
    /// segment rewarmed in the same pass and rebanked), with points
    /// bit-identical to an untouched run — or it decodes cleanly into
    /// some other state.
    #[test]
    fn resealed_flipped_warm_segments_never_panic(
        victim in 0usize..4,
        target in 0usize..3,
        flips in prop::collection::vec((0u8..5, any::<u64>(), 1u8..=255), 1..6),
    ) {
        let img = phased_image(11);
        let scfg = quick_schedule();
        let cells: Vec<BatchCell> = EngineKind::ALL
            .iter()
            .map(|&kind| BatchCell { kind, pcfg: ProcessorConfig::table2(4) })
            .collect();
        let (seed, windows) = (5u64, 1u64);
        let fp = sfetch_trace::trace_fingerprint(&img, seed, 4096);
        let store = tmp_store("warm-flip");
        let root = store.root().to_path_buf();
        let run = |bank: bool| {
            let store = CheckpointStore::open(&root).expect("reopen store");
            let mut batch = BatchSampler::new(&img, fp, seed, scfg, &store).with_warm_bank(bank);
            let pts = batch.run_range_points(&cells, 0..windows, 1);
            (pts, batch.warm_bank_stats(), batch.stats())
        };
        let (unbanked, _, _) = run(false);
        run(true);

        // Four kinds and one width: five segments.
        let segments = 5u64;
        let key = window_key(fp, seed, &scfg, 0);
        if target < 2 {
            // The victim cell's engine (0) or memory (1) segment.
            let path = store.warm_entry_path(&key, segment_model(&cells[victim], target, &scfg));
            let good = std::fs::read(&path).expect("banked segment");
            let mut payload = good[WARM_HEADER..].to_vec();
            flip_bytes(&mut payload, &flips, &[]);
            std::fs::write(&path, reseal(&good, WARM_HEADER, &payload)).expect("plant segment");

            let (again, stats, _) = run(true);
            if stats.rejected == 1 {
                prop_assert_eq!(&again, &unbanked);
                prop_assert_eq!(stats.hits, segments - 1);
                let rebanked = std::fs::read(&path).expect("rebanked segment");
                prop_assert!(rebanked == good, "segment rewritten");
            } else {
                prop_assert_eq!(stats.rejected, 0);
                prop_assert_eq!(stats.hits, segments, "the flipped segment decodes cleanly");
            }
        } else {
            // The window's checkpoint entry, which every run reads: an
            // unbanked one, and a fully banked one planted afresh (the
            // unbanked leg heals a rejected entry).
            let path = store.entry_path(&key);
            let good = std::fs::read(&path).expect("stored checkpoint");
            let mut payload = good[CKPT_HEADER..].to_vec();
            let spans = ckpt_state_spans(&payload);
            flip_bytes(&mut payload, &flips, &spans);
            let bad = reseal(&good, CKPT_HEADER, &payload);
            for bank in [false, true] {
                std::fs::write(&path, &bad).expect("plant entry");
                let (again, bank_stats, stats) = run(bank);
                if stats.rejected == 1 {
                    prop_assert_eq!(&again, &unbanked);
                } else {
                    prop_assert_eq!(stats.rejected, 0);
                    prop_assert_eq!(stats.hits, 1, "the flipped entry decodes cleanly");
                }
                if bank {
                    prop_assert_eq!(bank_stats.hits, segments, "the bank is untouched");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Serialize → store (disk) → load → resume at a random sampling-unit
    /// boundary of the phased workload: every window measured after the
    /// suspension point — sample points *and* complete per-window
    /// `SimStats` — must be bit-identical to the uninterrupted run.
    #[test]
    fn suspend_resume_through_disk_is_bit_identical(
        boundary in 1u64..4,
        gen_seed in 0u64..20,
        exec_seed in 0u64..1000,
    ) {
        let img = phased_image(gen_seed);
        let scfg = quick_schedule();
        let pcfg = ProcessorConfig::table2(4);
        let windows = 4u64;

        // Uninterrupted run: full SimStats per window.
        let mut straight = Sampler::new(&img, EngineKind::Stream, pcfg, scfg, exec_seed);
        let all: Vec<_> = (0..windows).map(|_| straight.next_window_full()).collect();

        // Interrupted run: walk to `boundary`, checkpoint through the
        // on-disk store, drop everything, reload, resume.
        let store = tmp_store("resume");
        let key = {
            let mut head = Sampler::new(&img, EngineKind::Stream, pcfg, scfg, exec_seed);
            head.skip(boundary);
            let cp = head.checkpoint();
            let key = StoreKey {
                fingerprint: sfetch_trace::trace_fingerprint(&img, exec_seed, 4096),
                seed: exec_seed,
                at_inst: cp.seq,
            };
            store.save(&key, &cp).expect("bank the suspension point");
            key
        };
        let cp = store.load(&key).expect("verified reload");
        let mut resumed = Sampler::resume(&img, EngineKind::Stream, pcfg, scfg, &cp);
        prop_assert_eq!(resumed.window(), boundary);
        for (i, (want_point, want_stats)) in
            all.iter().enumerate().skip(boundary as usize)
        {
            let (point, stats) = resumed.next_window_full();
            prop_assert_eq!(want_point, &point, "window {} point diverged", i);
            prop_assert_eq!(want_stats, &stats, "window {} SimStats diverged", i);
        }
        let _ = std::fs::remove_dir_all(store.root());
    }
}

/// Running the sampler twice — once against a cold store, once against
/// the store the first run populated — must produce byte-identical
/// merged window stats, with the second run served entirely from disk.
#[test]
fn cold_and_warm_store_runs_are_byte_identical() {
    let img = phased_image(3);
    let scfg = quick_schedule();
    let pcfg = ProcessorConfig::table2(8);
    let store = tmp_store("reuse");
    let fp = sfetch_trace::trace_fingerprint(&img, 7, 4096);
    let windows = 4u64;

    let mut cold = StoredSampler::new(&img, fp, 7, scfg, &store);
    let cold_pts = cold.run_range(EngineKind::Stream, pcfg, 0..windows, 1);
    assert_eq!(cold.stats().misses, windows, "cold run computes every checkpoint");
    assert_eq!(store.entries() as u64, windows);

    let mut warm = StoredSampler::new(&img, fp, 7, scfg, &store);
    let warm_pts = warm.run_range(EngineKind::Stream, pcfg, 0..windows, 1);
    assert_eq!(warm.stats().hits, windows, "warm run loads every checkpoint");
    assert_eq!(warm.stats().misses, 0);
    assert_eq!(cold_pts, warm_pts, "warm-store replay must be byte-identical");

    // And so must a different engine/width riding the same store: the
    // checkpoints are configuration-independent.
    let mut other = StoredSampler::new(&img, fp, 7, scfg, &store);
    let other_pts = other.run_range(EngineKind::Ev8, ProcessorConfig::table2(4), 0..windows, 1);
    assert_eq!(other.stats().hits, windows, "cross-config run reuses the same entries");
    assert_eq!(other_pts.len() as u64, windows);
    let _ = std::fs::remove_dir_all(store.root());
}

/// A corrupted or version-mismatched store entry must be *rejected and
/// recomputed* — the run's results stay identical to a cold run, the
/// damage is counted, and the entry is healed on disk.
#[test]
fn damaged_entries_are_rejected_and_recomputed() {
    let img = phased_image(5);
    let scfg = quick_schedule();
    let pcfg = ProcessorConfig::table2(8);
    let store = tmp_store("damage");
    let fp = sfetch_trace::trace_fingerprint(&img, 9, 4096);
    let windows = 3u64;

    let mut cold = StoredSampler::new(&img, fp, 9, scfg, &store);
    let want = cold.run_range(EngineKind::Stream, pcfg, 0..windows, 1);

    // Corrupt window 1's entry (flip a payload byte) and stamp window
    // 2's entry with a future format version.
    let key = |w: u64| StoreKey {
        fingerprint: fp,
        seed: 9,
        at_inst: w * scfg.interval + scfg.fast_forward(),
    };
    let p1 = store.entry_path(&key(1));
    let mut bytes = std::fs::read(&p1).expect("read entry 1");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x5a;
    std::fs::write(&p1, &bytes).expect("corrupt entry 1");
    let p2 = store.entry_path(&key(2));
    let mut bytes = std::fs::read(&p2).expect("read entry 2");
    bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&p2, &bytes).expect("version-mismatch entry 2");
    assert!(matches!(store.load(&key(1)), Err(StoreMiss::Rejected(_))));
    assert!(matches!(store.load(&key(2)), Err(StoreMiss::Rejected(_))));

    // The damaged run must notice, recompute, and still match.
    let mut healed = StoredSampler::new(&img, fp, 9, scfg, &store);
    let got = healed.run_range(EngineKind::Stream, pcfg, 0..windows, 1);
    assert_eq!(want, got, "recomputed windows must equal the cold run");
    assert_eq!(healed.stats().rejected, 2, "both damaged entries rejected");
    // Window 0's intact entry serves twice: once for its own window and
    // once as the restart point for recomputing window 1.
    assert_eq!(healed.stats().hits, 2, "intact entries keep serving");

    // The store healed itself: every entry verifies again.
    for w in 0..windows {
        assert!(store.load(&key(w)).is_ok(), "window {w} entry healed");
    }
    let _ = std::fs::remove_dir_all(store.root());
}

/// A stored checkpoint that passes its digest but was not captured on
/// the sampler's image (its execution counts resized, re-sealed under a
/// valid digest) is rejected and recomputed, never resumed.
#[test]
fn resealed_checkpoint_that_does_not_fit_is_rejected() {
    let img = phased_image(5);
    let scfg = quick_schedule();
    let pcfg = ProcessorConfig::table2(8);
    let store = tmp_store("misfit");
    let fp = sfetch_trace::trace_fingerprint(&img, 9, 4096);
    let mut cold = StoredSampler::new(&img, fp, 9, scfg, &store);
    let want = cold.run_range(EngineKind::Stream, pcfg, 0..2, 1);

    // Words 5 and 6 of a store entry header are the payload's FNV-1a
    // digest and length.
    let key = StoreKey { fingerprint: fp, seed: 9, at_inst: scfg.interval + scfg.fast_forward() };
    let path = store.entry_path(&key);
    let good = std::fs::read(&path).expect("read entry 1");
    let mut payload = good[56..].to_vec();
    resize_ckpt(&mut payload, -1);
    let mut bad = good[..56].to_vec();
    bad[40..48].copy_from_slice(&sfetch_fleet::fnv64(&payload).to_le_bytes());
    bad[48..56].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    bad.extend_from_slice(&payload);
    std::fs::write(&path, &bad).expect("plant entry 1");
    assert!(store.load(&key).is_ok(), "the mutation passes every digest check");

    let mut again = StoredSampler::new(&img, fp, 9, scfg, &store);
    assert_eq!(again.run_range(EngineKind::Stream, pcfg, 0..2, 1), want);
    assert_eq!(again.stats().rejected, 1);
    assert_eq!(std::fs::read(&path).expect("healed entry 1"), good, "entry rewritten");
    let _ = std::fs::remove_dir_all(store.root());
}

/// A warm entry in an earlier layout is never misread. A version 2
/// entry — one cell's engine and memory segments, length-prefixed, under
/// a digest of the cell's whole configuration — is filed at an address
/// no segment is read from, so a banked run never reads it and banks its
/// segments beside it. The same entry sealed at a segment's address is
/// rejected by its version, rewarmed in the same pass and rebanked as a
/// version 3 segment. Points stay bit-identical to an unbanked run.
#[test]
fn earlier_layout_warm_entries_are_never_misread() {
    let img = phased_image(11);
    let scfg = quick_schedule();
    let cells = [
        BatchCell { kind: EngineKind::Stream, pcfg: ProcessorConfig::table2(8) },
        BatchCell { kind: EngineKind::TraceCache, pcfg: ProcessorConfig::table2(4) },
    ];
    // Two kinds and two widths: four segments per window.
    let (seed, windows, segments) = (5u64, 2u64, 4u64);
    let fp = sfetch_trace::trace_fingerprint(&img, seed, 4096);
    let store = tmp_store("warm-v2");
    let root = store.root().to_path_buf();
    let reopen = || CheckpointStore::open(&root).expect("reopen store");
    let run = |bank: bool| {
        let store = reopen();
        let mut batch = BatchSampler::new(&img, fp, seed, scfg, &store).with_warm_bank(bank);
        let pts = batch.run_range_points(&cells, 0..windows, 1);
        (pts, batch.warm_bank_stats())
    };
    let (unbanked, _) = run(false);
    run(true);

    let key = window_key(fp, seed, &scfg, 1);
    let cell = cells[1];
    let (engine, memory) = (segment_model(&cell, 0, &scfg), segment_model(&cell, 1, &scfg));
    let engine_path = store.warm_entry_path(&key, engine);
    let good = std::fs::read(&engine_path).expect("banked engine segment");
    assert_eq!(good[8..16], WARM_VERSION.to_le_bytes());
    let memory_bytes = reopen().load_warm(&key, memory).expect("banked memory segment");
    // The version 2 entry earlier builds filed for this cell: both
    // segments length-prefixed, under the digest of the cell's whole
    // warm model.
    let mut v2_payload = Vec::new();
    for seg in [&good[WARM_HEADER..], &memory_bytes[..]] {
        v2_payload.extend_from_slice(&(seg.len() as u64).to_le_bytes());
        v2_payload.extend_from_slice(seg);
    }
    let v2_model = sfetch_fleet::fnv64(
        format!(
            "warmfmt={}|engine={:?}|width={}|front={:?}|prefetch={:?}|warm_func={}|warm_mem={}",
            sfetch_fetch::WARM_FORMAT_VERSION,
            cell.kind,
            cell.pcfg.width,
            cell.pcfg.front,
            cell.pcfg.prefetch,
            scfg.warm_func,
            scfg.warm_mem,
        )
        .as_bytes(),
    );
    assert!(v2_model != engine && v2_model != memory, "a version 2 address is no segment's");
    let v2_entry = |model: u64| {
        let mut file = good[..WARM_HEADER].to_vec();
        file[8..16].copy_from_slice(&2u64.to_le_bytes());
        file[40..48].copy_from_slice(&model.to_le_bytes());
        reseal(&file, WARM_HEADER, &v2_payload)
    };

    let by_version = |model: u64| {
        let got = reopen().load_warm(&key, model);
        matches!(got, Err(StoreMiss::Rejected(why)) if why.contains("version 2 != 3"))
    };

    // At its own address: never read.
    let v2_path = store.warm_entry_path(&key, v2_model);
    std::fs::write(&v2_path, v2_entry(v2_model)).expect("plant version 2 entry");
    assert!(by_version(v2_model));
    let (again, stats) = run(true);
    assert_eq!(again, unbanked);
    assert_eq!((stats.hits, stats.misses, stats.rejected), (segments * windows, 0, 0));
    std::fs::remove_file(&v2_path).expect("remove version 2 entry");

    // At the engine segment's address: rejected by its version.
    std::fs::write(&engine_path, v2_entry(engine)).expect("plant version 2 entry");
    assert!(by_version(engine), "a version 2 entry must be rejected by its version");
    let (again, stats) = run(true);
    assert_eq!(again, unbanked);
    assert_eq!((stats.hits, stats.rejected), (segments * windows - 1, 1));
    let rebanked = std::fs::read(&engine_path).expect("rebanked segment");
    assert_eq!(rebanked, good, "a version 3 segment in its place");
    let _ = std::fs::remove_dir_all(&root);
}
