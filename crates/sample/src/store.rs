//! The reusable **checkpoint store**: content-addressed, versioned
//! architectural checkpoints shared across experiments.
//!
//! PR 4's sampler made paper-scale horizons affordable, but every run
//! still recomputed the functional fast-forward pass: each sampled
//! experiment walked the whole trace architecturally just to reach its
//! windows' warming starts. Those warming-start states depend only on
//! the *trace* — the workload image and input seed — never on the
//! engine, pipe width, or any timing-model knob, so one experiment's
//! fast-forward work is every later experiment's too. SMARTS-lineage
//! systems (TurboSMARTS' live-points, SimPoint checkpoint libraries)
//! all converge on the same answer: bank the checkpoints once, key them
//! on everything the replay depends on, and let the whole
//! configurations × windows grid resume from disk.
//!
//! This module is that bank:
//!
//! * [`StoreKey`] — the content address: *(workload fingerprint, input
//!   seed, instruction offset)*. The fingerprint
//!   ([`sfetch_trace::trace_fingerprint`], wrapped by the workload
//!   crate's `Workload::fingerprint`) digests the image's
//!   shape plus a committed-trace prefix, so any change to the program,
//!   its behaviour models, the layout, or the seed re-keys — stale
//!   state is unreachable rather than merely discouraged. Keying on the
//!   raw instruction offset (not a window number) makes entries
//!   schedule-agnostic: two schedules whose warming starts coincide
//!   share entries.
//! * [`CheckpointStore`] — one file per entry, written atomically
//!   (temp + rename, safe under concurrent shard processes). Checkpoints
//!   and banked warm state share one sealed-entry format: a versioned
//!   header carrying the entry's key words and its payload's digest
//!   and length. A corrupt, version-mismatched, or mis-keyed entry is
//!   *rejected and recomputed*, never trusted ([`StoreMiss::Rejected`]).
//!   Warm state is filed by what it depends on: one **engine segment**
//!   per (window, engine kind) and one **memory segment** per (window,
//!   width), each under its window's checkpoint key plus a model digest
//!   ([`warm_model_digest`], [`memory_model_digest`]).
//! * [`StoredSampler`] — the store-backed window runner: it resolves
//!   each window's warming-start state through the store (loading on
//!   hit, walking the trace and saving on miss) and feeds the window to
//!   a worker running the batched sweep ([`crate::batch`]), which, with
//!   banking on, restores each kind's engine and each width's memory
//!   from the warm bank. The points are bit-identical to the storeless
//!   [`crate::Sampler`]'s.
//!   On a warm store no run ever fast-forwards: windows — across any
//!   engine, width, process, or machine — start directly at functional
//!   warming.

use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sfetch_cfg::CodeImage;
use sfetch_core::{ProcessorConfig, SimStats};
use sfetch_fetch::EngineKind;
use sfetch_trace::{ArchCheckpoint, Executor};

use crate::batch::{run_batch_window, BatchCell, WindowPlan, WindowRun};
use crate::config::SampleConfig;
use crate::runner::SamplePoint;

/// Magic word of a store entry ("SFCKSTOR").
const STORE_MAGIC: u64 = 0x5346_434b_5354_4f52;

/// Store entry format version. Bumped whenever the entry layout *or*
/// the semantics of checkpoint replay change; older entries are then
/// rejected and recomputed.
pub const STORE_VERSION: u64 = 1;

/// Content address of one stored checkpoint: the architectural state
/// after `at_inst` committed instructions of the trace `(fingerprint,
/// seed)` identifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreKey {
    /// Workload-trace fingerprint (see
    /// [`sfetch_trace::trace_fingerprint`]; the workload crate's
    /// `Workload::fingerprint` wraps it per layout flavour).
    pub fingerprint: u64,
    /// Input seed of the trace.
    pub seed: u64,
    /// Committed-instruction offset the checkpoint captures.
    pub at_inst: u64,
}

impl StoreKey {
    /// The key words a checkpoint entry is filed under, in header order.
    fn words(&self) -> [u64; 3] {
        [self.fingerprint, self.seed, self.at_inst]
    }
}

/// Why a [`CheckpointStore::load`] returned no checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreMiss {
    /// No entry exists under the key.
    Absent,
    /// An entry exists but failed verification (corruption, version or
    /// key mismatch, digest mismatch) and must be recomputed.
    Rejected(String),
}

impl std::fmt::Display for StoreMiss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreMiss::Absent => f.write_str("absent"),
            StoreMiss::Rejected(why) => write!(f, "rejected: {why}"),
        }
    }
}

/// Hit/miss accounting of a [`StoredSampler`] (and of direct store
/// users), reported by the grid binaries so cold vs warm runs are
/// visible in the output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Checkpoints served from the store.
    pub hits: u64,
    /// Checkpoints computed (absent from the store) and saved.
    pub misses: u64,
    /// Entries present but rejected by verification, then recomputed.
    pub rejected: u64,
}

/// Per-store capacity/eviction bookkeeping, shared across clones (one
/// store directory, one working set).
#[derive(Debug, Default)]
struct CapState {
    /// Entry files this process has read or written: its live working
    /// set, exempt from eviction by this process.
    leased: sfetch_tab::FnvSet<PathBuf>,
    /// Entry files evicted by this process to stay under the cap.
    evicted: u64,
}

/// A directory of verified, content-addressed architectural checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    root: PathBuf,
    /// Byte budget across all entry files; `None` (the default) never
    /// sheds — the pre-cap behaviour.
    cap_bytes: Option<u64>,
    cap: std::sync::Arc<std::sync::Mutex<CapState>>,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(CheckpointStore { root, cap_bytes: None, cap: Default::default() })
    }

    /// Caps the store's total entry bytes (checkpoints + warm state).
    /// Every save then evicts least-recently-accessed entries until the
    /// total fits, **never** evicting entries leased (read or written)
    /// by this store handle — a capped store sheds cold history, not its
    /// live working set. Evicted entries are recomputed transparently on
    /// their next use, byte-identically (all entries are deterministic
    /// functions of their key). `None` disables shedding.
    pub fn with_cap_bytes(mut self, cap: Option<u64>) -> Self {
        self.cap_bytes = cap;
        self
    }

    /// Entry files this handle evicted to stay under the cap.
    pub fn evicted(&self) -> u64 {
        self.cap.lock().expect("cap state lock").evicted
    }

    /// Total bytes of all entry files (checkpoints + warm state)
    /// currently in the store — the quantity the cap bounds.
    pub fn total_bytes(&self) -> u64 {
        self.scan_entries().iter().map(|e| e.len).sum()
    }

    /// Marks an entry file as part of this handle's working set.
    fn lease(&self, path: &Path) {
        let mut st = self.cap.lock().expect("cap state lock");
        st.leased.insert(path.to_path_buf());
    }

    /// Best-effort LRU access stamp: bumps the entry's mtime so cap
    /// enforcement sees it as recently used. Failure is harmless (the
    /// entry just keeps its older stamp).
    fn touch(path: &Path) {
        if let Ok(f) = std::fs::File::options().append(true).open(path) {
            let now = std::time::SystemTime::now();
            let _ = f.set_times(
                std::fs::FileTimes::new().set_accessed(now).set_modified(now),
            );
        }
    }

    /// All entry files with their sizes and access stamps.
    fn scan_entries(&self) -> Vec<EntryFile> {
        let Ok(rd) = std::fs::read_dir(&self.root) else { return Vec::new() };
        let mut out = Vec::new();
        for e in rd.flatten() {
            let path = e.path();
            let is_entry = path
                .extension()
                .is_some_and(|x| x == "sfckpt" || x == "sfwarm");
            if !is_entry {
                continue;
            }
            let Ok(md) = e.metadata() else { continue };
            let mtime = md.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            out.push(EntryFile { path, len: md.len(), mtime });
        }
        out
    }

    /// Evicts least-recently-accessed, unleased entry files until the
    /// store fits its cap. Called after every save; a no-op without one.
    fn enforce_cap(&self) {
        let Some(cap) = self.cap_bytes else { return };
        let mut entries = self.scan_entries();
        let mut total: u64 = entries.iter().map(|e| e.len).sum();
        if total <= cap {
            return;
        }
        // Oldest access first; file name breaks stamp ties so eviction
        // order is deterministic within one mtime granule.
        entries.sort_by(|a, b| a.mtime.cmp(&b.mtime).then_with(|| a.path.cmp(&b.path)));
        let mut st = self.cap.lock().expect("cap state lock");
        for e in entries {
            if total <= cap {
                break;
            }
            if st.leased.contains(&e.path) {
                continue;
            }
            if std::fs::remove_file(&e.path).is_ok() {
                total -= e.len;
                st.evicted += 1;
            }
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The entry file a key addresses.
    pub fn entry_path(&self, key: &StoreKey) -> PathBuf {
        self.root.join(format!(
            "ck-{:016x}-{:016x}-{:012}.sfckpt",
            key.fingerprint, key.seed, key.at_inst
        ))
    }

    /// Number of entry files currently in the store (any key).
    pub fn entries(&self) -> usize {
        std::fs::read_dir(&self.root)
            .map(|rd| {
                rd.filter(|e| {
                    e.as_ref().is_ok_and(|e| {
                        e.path().extension().is_some_and(|x| x == "sfckpt")
                    })
                })
                .count()
            })
            .unwrap_or(0)
    }

    /// Loads and fully verifies the checkpoint stored under `key`.
    ///
    /// # Errors
    ///
    /// [`StoreMiss::Absent`] when no entry exists;
    /// [`StoreMiss::Rejected`] when an entry exists but fails *any*
    /// verification step — wrong magic, format version, key fields,
    /// truncation, warm-state digest mismatch, or checkpoint
    /// deserialization. Rejected entries must be recomputed; their
    /// contents are never returned.
    pub fn load(&self, key: &StoreKey) -> Result<ArchCheckpoint, StoreMiss> {
        let path = self.entry_path(key);
        let cp = CHECKPOINT_ENTRY.open(&path, &key.words(), ArchCheckpoint::from_bytes)?;
        if cp.seq != key.at_inst {
            return Err(StoreMiss::Rejected(format!(
                "checkpoint is at instruction {}, key says {}",
                cp.seq, key.at_inst
            )));
        }
        self.lease(&path);
        Self::touch(&path);
        Ok(cp)
    }

    /// Writes `cp` under `key`, atomically (a concurrent reader sees
    /// either the old entry or the new one, never a torn write).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    ///
    /// # Panics
    ///
    /// Panics if `cp.seq != key.at_inst` — storing a checkpoint under
    /// an offset it does not capture would poison every later replay.
    pub fn save(&self, key: &StoreKey, cp: &ArchCheckpoint) -> std::io::Result<()> {
        assert_eq!(cp.seq, key.at_inst, "checkpoint offset must match its key");
        let path = self.entry_path(key);
        CHECKPOINT_ENTRY.seal(&path, &key.words(), &cp.to_bytes())?;
        self.lease(&path);
        self.enforce_cap();
        Ok(())
    }

    /// The warm-segment file a `(key, model digest)` pair addresses.
    pub fn warm_entry_path(&self, key: &StoreKey, model: u64) -> PathBuf {
        self.root.join(format!(
            "wm-{:016x}-{:016x}-{:012}-{model:016x}.sfwarm",
            key.fingerprint, key.seed, key.at_inst
        ))
    }

    /// Number of warm-segment files currently in the store (any key).
    pub fn warm_entries(&self) -> usize {
        std::fs::read_dir(&self.root)
            .map(|rd| {
                rd.filter(|e| {
                    e.as_ref().is_ok_and(|e| {
                        e.path().extension().is_some_and(|x| x == "sfwarm")
                    })
                })
                .count()
            })
            .unwrap_or(0)
    }

    /// Loads and verifies the warm segment stored under `(key, model)`
    /// and returns its payload: an engine segment's
    /// [`sfetch_fetch::FetchEngine::warm_state`] bytes or a memory
    /// segment's [`sfetch_mem::MemoryHierarchy::save_warm_wire`] bytes.
    /// Same discipline as [`CheckpointStore::load`]: *any* verification
    /// failure — magic, version, key or model fields, truncation, or
    /// payload digest — rejects the segment for recomputation. Whether
    /// the payload decodes is checked by the window worker, which
    /// rejects an undecodable segment the same way.
    ///
    /// # Errors
    ///
    /// [`StoreMiss::Absent`] when no segment exists;
    /// [`StoreMiss::Rejected`] when one exists but fails verification.
    pub fn load_warm(&self, key: &StoreKey, model: u64) -> Result<Vec<u8>, StoreMiss> {
        let path = self.warm_entry_path(key, model);
        let payload = WARM_ENTRY.open(&path, &warm_words(key, model), |p| Ok(p.to_vec()))?;
        self.lease(&path);
        Self::touch(&path);
        Ok(payload)
    }

    /// Writes a warm segment's payload under `(key, model)`, atomically.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save_warm(&self, key: &StoreKey, model: u64, payload: &[u8]) -> std::io::Result<()> {
        let path = self.warm_entry_path(key, model);
        WARM_ENTRY.seal(&path, &warm_words(key, model), payload)?;
        self.lease(&path);
        self.enforce_cap();
        Ok(())
    }
}

/// The key words a warm segment is filed under: its window's checkpoint
/// key plus the segment's model digest.
fn warm_words(key: &StoreKey, model: u64) -> [u64; 4] {
    let [fingerprint, seed, at_inst] = key.words();
    [fingerprint, seed, at_inst, model]
}

/// One sealed-entry format. Both entry kinds lay a file out the same
/// way: a header of little-endian words — magic, format version, the key
/// words the entry is filed under, the payload's FNV-1a digest and the
/// payload length — then the payload.
struct EntryFormat {
    /// Names the entry kind in rejection messages.
    what: &'static str,
    magic: u64,
    version: u64,
}

/// Architectural checkpoints (`.sfckpt`), keyed by [`StoreKey::words`].
const CHECKPOINT_ENTRY: EntryFormat =
    EntryFormat { what: "checkpoint", magic: STORE_MAGIC, version: STORE_VERSION };

/// Banked warm segments (`.sfwarm`), keyed by [`warm_words`].
const WARM_ENTRY: EntryFormat =
    EntryFormat { what: "warm-segment", magic: WARM_MAGIC, version: WARM_VERSION };

impl EntryFormat {
    /// Writes `payload` sealed under `key` to `path`, atomically (temp +
    /// rename, safe under concurrent processes).
    fn seal(&self, path: &Path, key: &[u64], payload: &[u8]) -> std::io::Result<()> {
        let head = [self.magic, self.version]
            .into_iter()
            .chain(key.iter().copied())
            .chain([sfetch_tab::fnv64(payload), payload.len() as u64]);
        let mut out = Vec::with_capacity((key.len() + 4) * 8 + payload.len());
        for w in head {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(payload);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&out)?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Reads the entry at `path`, verifies every header word against this
    /// format and `key` and the payload against its recorded length and
    /// digest, then decodes the payload.
    fn open<T>(
        &self,
        path: &Path,
        key: &[u64],
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Result<T, StoreMiss> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(StoreMiss::Absent),
            Err(e) => return Err(StoreMiss::Rejected(format!("unreadable entry: {e}"))),
        };
        let reject = |why: String| Err(StoreMiss::Rejected(why));
        let words = key.len() + 4;
        if bytes.len() < words * 8 {
            return reject(format!("header truncated ({} bytes)", bytes.len()));
        }
        let word = |i: usize| {
            u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().expect("8-byte slice"))
        };
        if word(0) != self.magic {
            return reject(format!("bad {} magic", self.what));
        }
        if word(1) != self.version {
            return reject(format!("{} format version {} != {}", self.what, word(1), self.version));
        }
        if key.iter().enumerate().any(|(i, &k)| word(2 + i) != k) {
            return reject("entry key fields do not match the requested key".into());
        }
        let (digest, recorded) = (word(words - 2), word(words - 1));
        let payload = &bytes[words * 8..];
        if payload.len() as u64 != recorded {
            return reject(format!("payload length {} != recorded {recorded}", payload.len()));
        }
        if sfetch_tab::fnv64(payload) != digest {
            return reject(format!("{} digest mismatch (corrupt entry)", self.what));
        }
        decode(payload).or_else(|e| reject(format!("{} payload: {e}", self.what)))
    }
}

/// One entry file as seen by cap enforcement.
struct EntryFile {
    path: PathBuf,
    len: u64,
    mtime: std::time::SystemTime,
}

/// Magic word of a warm-state entry ("SFWMBANK").
const WARM_MAGIC: u64 = 0x5346_574d_4241_4e4b;

/// Warm-segment format version. Bumped whenever the segment layout
/// changes; older entries are then rejected and recomputed. Version 3
/// files one segment per file: an engine segment per (window, engine
/// kind) and a memory segment per (window, width). Version 2 entries
/// held both segments per cell, version 1 entries also the post-warm
/// checkpoint. Engine-level wire-format evolution is carried by the
/// *model digest* instead ([`warm_model_digest`] folds in
/// [`sfetch_fetch::WARM_FORMAT_VERSION`]), so an engine format bump
/// re-keys segments rather than rejecting them one by one.
pub const WARM_VERSION: u64 = 3;

/// Digest naming a cell's **engine segment**: what its fetch engine's
/// commit-side warm state ([`sfetch_fetch::FetchEngine::warm_state`])
/// depends on beyond the trace — the engine kind, its warm-state wire
/// format and the functional-warming span. Width, front pipeline and
/// prefetch configuration do not enter it (the trait's contract), so
/// every cell of a kind shares one engine segment per window; `_pcfg`
/// only lets a caller name the segment by the cell it serves.
pub fn warm_model_digest(kind: EngineKind, _pcfg: &ProcessorConfig, scfg: &SampleConfig) -> u64 {
    let desc = format!(
        "warmfmt={}|engine={kind:?}|warm_func={}",
        sfetch_fetch::WARM_FORMAT_VERSION,
        scfg.warm_func,
    );
    sfetch_tab::fnv64(desc.as_bytes())
}

/// Digest naming a width's **memory segment**: what the cache
/// hierarchy's warm state depends on beyond the trace — the pipe width
/// (its Table 2 cache geometry) and the warming spans (the hierarchy
/// warms over the last `warm_mem` of the `warm_func` span).
pub fn memory_model_digest(width: usize, scfg: &SampleConfig) -> u64 {
    let desc =
        format!("memory|width={width}|warm_func={}|warm_mem={}", scfg.warm_func, scfg.warm_mem);
    sfetch_tab::fnv64(desc.as_bytes())
}

/// The store-backed window runner.
///
/// Where [`crate::Sampler`] owns a live master executor that must walk
/// the whole trace, a `StoredSampler` resolves each window's
/// warming-start state *by content*: load from the [`CheckpointStore`]
/// if present and valid, otherwise walk the trace from the nearest
/// earlier stored state (or the trace start) and save the result for
/// every later experiment. The window itself then runs through the
/// batched sweep ([`crate::batch`]) — the one code path that warms and
/// measures a window against the store, and, with warm banking on,
/// probes the bank for each kind's and width's warm segment — whether the call
/// covers one cell ([`StoredSampler::run_range`]) or a whole group
/// ([`crate::BatchSampler`]). The produced [`SamplePoint`]s are
/// **bit-identical** to the storeless [`crate::Sampler`]'s — asserted by
/// `tests/tests/batch_identity.rs` and by the grid binaries' `--verify`
/// legs.
pub struct StoredSampler<'a> {
    image: &'a CodeImage,
    fingerprint: u64,
    seed: u64,
    scfg: SampleConfig,
    store: &'a CheckpointStore,
    walker: Option<Executor<'a>>,
    stats: StoreStats,
    warm_bank: bool,
    warm_stats: StoreStats,
    timing: WarmTiming,
}

/// Host-time breakdown of a [`StoredSampler`] run, per phase.
/// `warm_ns` sums, over the window workers, each window's bank probes,
/// shared recording sweep, functional warming and every cell's
/// warm-state restore — the quantity warm-state banking exists to
/// shrink. `ff_ns` is the producer's time resolving
/// warming-start snapshots (fast-forward walking and checkpoint IO),
/// [`StoredSampler::populate`] included; in a sweep it overlaps the
/// workers' `warm_ns` rather than preceding it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmTiming {
    /// Nanoseconds the producer spent resolving warming-start snapshots.
    pub ff_ns: u64,
    /// Nanoseconds warming windows live, or probing and restoring
    /// banked warm state, summed over the window workers.
    pub warm_ns: u64,
    /// Windows covered by the above.
    pub windows: u64,
    /// Of those, the windows whose warming span the sweep walked record
    /// by record because some kind or width warmed live; every other
    /// window advanced over it from banked state.
    pub walked_windows: u64,
}

impl<'a> StoredSampler<'a> {
    /// Creates a runner for the trace `(image, seed)` registered in the
    /// store under `fingerprint`.
    ///
    /// # Panics
    ///
    /// Panics if `scfg` fails [`SampleConfig::validate`].
    pub fn new(
        image: &'a CodeImage,
        fingerprint: u64,
        seed: u64,
        scfg: SampleConfig,
        store: &'a CheckpointStore,
    ) -> Self {
        scfg.validate();
        StoredSampler {
            image,
            fingerprint,
            seed,
            scfg,
            store,
            walker: None,
            stats: StoreStats::default(),
            warm_bank: false,
            warm_stats: StoreStats::default(),
            timing: WarmTiming::default(),
        }
    }

    /// Enables (or disables) warm-engine-state banking: windows whose
    /// warm state is banked restore it and skip the warming walk;
    /// windows warmed live bank their result for the next run. Output is
    /// bit-identical either way — banking only moves host time.
    pub fn with_warm_bank(mut self, on: bool) -> Self {
        self.warm_bank = on;
        self
    }

    /// Store traffic accumulated so far.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Warm-state bank traffic accumulated so far: one probe per warm
    /// segment per window — each distinct engine kind and each distinct
    /// width — all zero unless [`StoredSampler::with_warm_bank`] enabled
    /// banking. A segment that passes its digest but does not decode
    /// counts as rejected.
    pub fn warm_bank_stats(&self) -> StoreStats {
        self.warm_stats
    }

    /// Host-time breakdown accumulated so far.
    pub fn timing(&self) -> WarmTiming {
        self.timing
    }

    /// Committed-instruction offset at which window `w`'s functional
    /// warming starts — the offset its stored checkpoint captures.
    pub fn warming_start(&self, w: u64) -> u64 {
        w * self.scfg.interval + self.scfg.fast_forward()
    }

    fn key_at(&self, at_inst: u64) -> StoreKey {
        StoreKey { fingerprint: self.fingerprint, seed: self.seed, at_inst }
    }

    /// The architectural state at window `w`'s warming start: from the
    /// store on a hit, otherwise computed (walking from the nearest
    /// earlier stored window, or the trace start) and saved.
    pub fn snapshot(&mut self, w: u64) -> Executor<'a> {
        let target = self.warming_start(w);
        match self.load_fitting(target) {
            Ok(cp) => {
                self.stats.hits += 1;
                return Executor::from_checkpoint(self.image, &cp);
            }
            Err(StoreMiss::Absent) => self.stats.misses += 1,
            Err(StoreMiss::Rejected(_)) => self.stats.rejected += 1,
        }
        // Recompute. Reuse the live walker when it has not overshot;
        // otherwise restart from the nearest earlier stored window (a
        // warm store with holes) or from the trace start.
        let need_restart =
            self.walker.as_ref().is_none_or(|e| e.committed() > target);
        if need_restart {
            self.walker = Some(self.nearest_start(w, target));
        }
        let walker = self.walker.as_mut().expect("walker installed above");
        walker.advance(target - walker.committed());
        let snap = walker.clone();
        // Best-effort save: a read-only store directory degrades to
        // recomputing every run, it does not break correctness.
        let _ = self.store.save(&self.key_at(target), &snap.checkpoint());
        snap
    }

    /// The stored checkpoint at `at_inst`, rejected unless it fits this
    /// sampler's image.
    fn load_fitting(&self, at_inst: u64) -> Result<ArchCheckpoint, StoreMiss> {
        let cp = self.store.load(&self.key_at(at_inst))?;
        cp.fits(self.image).map_err(StoreMiss::Rejected)?;
        Ok(cp)
    }

    /// An executor positioned at or before `target`: the closest earlier
    /// window's stored checkpoint if any verifies, else the trace start.
    fn nearest_start(&mut self, w: u64, target: u64) -> Executor<'a> {
        for earlier in (0..w).rev() {
            let at = self.warming_start(earlier);
            if at > target {
                continue;
            }
            if let Ok(cp) = self.load_fitting(at) {
                self.stats.hits += 1;
                return Executor::from_checkpoint(self.image, &cp);
            }
        }
        Executor::from_image(self.image, self.seed)
    }

    /// Runs windows `range` for one engine/configuration with up to
    /// `jobs` in-flight windows: a one-cell call into the batched sweep
    /// (see [`crate::BatchSampler::run_range`]), accumulating into this
    /// runner's store, bank and timing counters. Bit-identical for any
    /// `jobs` and with warm-state banking on or off.
    pub fn run_range(
        &mut self,
        kind: EngineKind,
        pcfg: ProcessorConfig,
        range: Range<u64>,
        jobs: usize,
    ) -> Vec<SamplePoint> {
        let mut rows = self.run_cells(&[BatchCell { kind, pcfg }], range, jobs);
        rows.pop().expect("one row per cell").into_iter().map(|(p, _)| p).collect()
    }

    /// Runs windows `range` for every cell with up to `jobs` in-flight
    /// window sweeps, returning `[cell][window]`-indexed results in the
    /// order of `cells` and of the range.
    ///
    /// The sweep is a pipeline. The calling thread is the producer: in
    /// window order it resolves each window's plan
    /// ([`StoredSampler::resolve_plan`]) and sends it over a queue
    /// bounded at `jobs` plans, so only O(`jobs`) recorders are ever
    /// alive. `min(jobs, windows)` workers pull plans as they free up
    /// and run each window's batched sweep ([`run_batch_window`]),
    /// probing the warm bank for its segments themselves; no window waits
    /// for another. A panicking worker fails the call with its own panic.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty.
    pub(crate) fn run_cells(
        &mut self,
        cells: &[BatchCell],
        range: Range<u64>,
        jobs: usize,
    ) -> Vec<Vec<(SamplePoint, SimStats)>> {
        assert!(!cells.is_empty(), "batch needs at least one cell");
        let jobs = jobs.max(1);
        let windows = range.end.saturating_sub(range.start);
        let (image, scfg, store) = (self.image, self.scfg, self.store);
        let (tx, rx) = std::sync::mpsc::sync_channel::<WindowPlan<'a>>(jobs);
        // The workers own the receiver, so once every one has exited
        // (panics included) the producer's `send` fails instead of
        // blocking on a full queue.
        let rx = Arc::new(std::sync::Mutex::new(rx));
        let mut runs: Vec<WindowRun> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..(jobs as u64).min(windows))
                .map(|_| {
                    let rx = Arc::clone(&rx);
                    s.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            // The guard drops with this statement: the
                            // lock is held only while waiting for a plan.
                            let next = rx.lock().expect("plan queue").recv();
                            let Ok(plan) = next else { return done };
                            done.push(run_batch_window(image, cells, &scfg, store, plan));
                        }
                    })
                })
                .collect();
            drop(rx);
            for w in range.clone() {
                let t0 = Instant::now();
                let plan = self.resolve_plan(w);
                self.timing.ff_ns += t0.elapsed().as_nanos() as u64;
                if tx.send(plan).is_err() {
                    // Every worker is gone; the joins below say why.
                    break;
                }
            }
            drop(tx);
            let mut runs = Vec::with_capacity(windows as usize);
            let mut panicked = None;
            for worker in workers {
                match worker.join() {
                    Ok(done) => runs.extend(done),
                    Err(payload) => {
                        panicked.get_or_insert(payload);
                    }
                }
            }
            if let Some(payload) = panicked {
                std::panic::resume_unwind(payload);
            }
            runs
        });
        runs.sort_unstable_by_key(|run| run.w);

        let mut out: Vec<Vec<(SamplePoint, SimStats)>> =
            cells.iter().map(|_| Vec::with_capacity(windows as usize)).collect();
        for run in runs {
            self.warm_stats.hits += run.bank.hits;
            self.warm_stats.misses += run.bank.misses;
            self.warm_stats.rejected += run.bank.rejected;
            self.timing.warm_ns += run.warm_ns;
            self.timing.walked_windows += u64::from(run.walked);
            for (rows, row) in out.iter_mut().zip(run.rows) {
                rows.push(row);
            }
        }
        self.timing.windows += windows;
        out
    }

    /// Resolves one window's plan on the producer: positions the shared
    /// recorder at the window's warming start through the checkpoint
    /// store ([`StoredSampler::snapshot`]: a checkpoint load, or the
    /// live walker advancing and saving) and, with banking on, names
    /// the key the window's worker files warm segments under. The bank
    /// itself is read by the worker.
    fn resolve_plan(&mut self, w: u64) -> WindowPlan<'a> {
        let bank = self.warm_bank.then(|| self.key_at(self.warming_start(w)));
        WindowPlan { w, rec: self.snapshot(w), bank }
    }

    /// Ensures every window in `0..windows` has a stored checkpoint (one
    /// architectural walk), returning the number that had to be
    /// computed. Its host time, walking and store IO, adds to
    /// [`WarmTiming::ff_ns`].
    pub fn populate(&mut self, windows: u64) -> u64 {
        let before = self.stats;
        let t0 = Instant::now();
        for w in 0..windows {
            let _ = self.snapshot(w);
        }
        self.timing.ff_ns += t0.elapsed().as_nanos() as u64;
        self.stats.misses + self.stats.rejected - before.misses - before.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfetch_cfg::gen::{GenParams, ProgramGenerator};
    use sfetch_cfg::layout;

    fn image() -> CodeImage {
        let cfg = ProgramGenerator::new(GenParams::small(), 17).generate();
        let lay = layout::natural(&cfg);
        CodeImage::build(&cfg, &lay)
    }

    fn tmp_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir()
            .join(format!("sfetch-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(dir).expect("open store")
    }

    fn quick_cfg() -> SampleConfig {
        SampleConfig {
            interval: 40_000,
            warm_func: 6_000,
            warm_mem: 6_000,
            warm_detail: 1_000,
            measure: 2_000,
            ..Default::default()
        }
    }

    #[test]
    fn save_load_roundtrip_and_absent() {
        let img = image();
        let store = tmp_store("roundtrip");
        let key = StoreKey { fingerprint: 0xfeed, seed: 3, at_inst: 12_000 };
        assert_eq!(store.load(&key), Err(StoreMiss::Absent));
        let mut ex = Executor::from_image(&img, 3);
        ex.nth(11_999);
        let cp = ex.checkpoint();
        store.save(&key, &cp).expect("save");
        assert_eq!(store.entries(), 1);
        let back = store.load(&key).expect("verified load");
        assert_eq!(back, cp);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_and_mismatched_entries_are_rejected() {
        let img = image();
        let store = tmp_store("reject");
        let key = StoreKey { fingerprint: 1, seed: 9, at_inst: 5_000 };
        let mut ex = Executor::from_image(&img, 9);
        ex.nth(4_999);
        store.save(&key, &ex.checkpoint()).expect("save");
        let path = store.entry_path(&key);
        let pristine = std::fs::read(&path).expect("read entry");

        // Flip one payload byte: digest verification must reject.
        let mut bytes = pristine.clone();
        bytes[7 * 8 + 40] ^= 0xff; // past the seven header words
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(
            matches!(store.load(&key), Err(StoreMiss::Rejected(why)) if why.contains("digest")),
            "corruption must be rejected"
        );

        // Bump the recorded format version: version gate must reject.
        let mut bytes = pristine.clone();
        bytes[8..16].copy_from_slice(&(STORE_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(
            matches!(store.load(&key), Err(StoreMiss::Rejected(why)) if why.contains("version")),
            "version mismatch must be rejected"
        );

        // A key whose fields disagree with the entry (same file path
        // cannot happen through entry_path, so fake it by renaming).
        std::fs::write(&path, &pristine).expect("restore entry");
        let other = StoreKey { fingerprint: 2, ..key };
        std::fs::rename(&path, store.entry_path(&other)).expect("rename");
        assert!(
            matches!(store.load(&other), Err(StoreMiss::Rejected(why)) if why.contains("key")),
            "key mismatch must be rejected"
        );
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn stored_sampler_matches_plain_sampler_and_reuses_entries() {
        let img = image();
        let scfg = quick_cfg();
        let pcfg = ProcessorConfig::table2(4);
        let store = tmp_store("equiv");
        let fp = sfetch_trace::trace_fingerprint(&img, 7, 4096);

        let mut plain = crate::Sampler::new(&img, EngineKind::Stream, pcfg, scfg, 7);
        let want = plain.run(4);

        let mut cold = StoredSampler::new(&img, fp, 7, scfg, &store);
        let got = cold.run_range(EngineKind::Stream, pcfg, 0..4, 1);
        assert_eq!(want, got, "store-backed windows must be bit-identical");
        assert_eq!(cold.stats().misses, 4, "cold store computes every window");
        assert_eq!(store.entries(), 4);

        let mut warm = StoredSampler::new(&img, fp, 7, scfg, &store);
        let again = warm.run_range(EngineKind::Stream, pcfg, 0..4, 1);
        assert_eq!(want, again, "warm store replays bit-identically");
        assert_eq!(warm.stats().hits, 4, "warm store loads every window");
        assert_eq!(warm.stats().misses, 0);
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// Checkpoints are content-addressed on the trace alone, never on
    /// the simulated configuration — so a store populated by one grid
    /// cell serves *every* other cell of the same benchmark warm. This
    /// is what makes calibration-grid axis sweeps (engine × width ×
    /// front model × prefetch policy) cheap: only the first cell pays
    /// the fast-forward cost.
    #[test]
    fn checkpoints_are_config_independent_across_grid_cells() {
        let img = image();
        let scfg = quick_cfg();
        let store = tmp_store("xconfig");
        let fp = sfetch_trace::trace_fingerprint(&img, 7, 4096);

        // Populate with one cell: Stream engine, 4-wide, legacy front,
        // no prefetch.
        let mut first = StoredSampler::new(&img, fp, 7, scfg, &store);
        let _ = first.run_range(EngineKind::Stream, ProcessorConfig::table2(4), 0..4, 1);
        assert_eq!(first.stats().misses, 4, "first cell computes every checkpoint");

        // A maximally different cell: EV8 engine, 8-wide, its own front
        // model, its natural prefetch policy enabled.
        let mut pcfg = ProcessorConfig::table2(8);
        pcfg.front = sfetch_core::FrontPipeline::for_engine(EngineKind::Ev8);
        pcfg.prefetch =
            sfetch_core::PrefetchConfig::enabled(EngineKind::Ev8.natural_prefetch());

        let mut warm = StoredSampler::new(&img, fp, 7, scfg, &store);
        let got = warm.run_range(EngineKind::Ev8, pcfg, 0..4, 1);
        assert_eq!(warm.stats().misses, 0, "cross-config cell must recompute nothing");
        assert_eq!(warm.stats().hits, 4, "cross-config cell resumes fully warm");

        // And the warm-store points are bit-identical to a live sampler
        // running the same cell with no store at all.
        let mut live = crate::Sampler::new(&img, EngineKind::Ev8, pcfg, scfg, 7);
        let want = live.run(4);
        assert_eq!(want, got, "warm-store windows must match the live sampler");
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// The banking oracle: for every engine, a warm-bank run must be
    /// bit-identical to the storeless live sampler — on the banking
    /// (cold) pass *and* on the resident (banked) rerun, which must
    /// serve every window's engine and memory segment from the bank.
    #[test]
    fn warm_bank_is_bit_identical_to_live_for_every_engine() {
        let img = image();
        let scfg = quick_cfg();
        let pcfg = ProcessorConfig::table2(4);
        for kind in EngineKind::ALL {
            let store = tmp_store(&format!("bank-{kind:?}"));
            let fp = sfetch_trace::trace_fingerprint(&img, 7, 4096);

            let mut live = crate::Sampler::new(&img, kind, pcfg, scfg, 7);
            let want = live.run(3);

            let mut cold = StoredSampler::new(&img, fp, 7, scfg, &store).with_warm_bank(true);
            let got = cold.run_range(kind, pcfg, 0..3, 1);
            assert_eq!(want, got, "{kind:?}: banking pass must match live");
            assert_eq!(cold.warm_bank_stats().misses, 6, "{kind:?}: cold bank misses all");
            assert_eq!(store.warm_entries(), 6, "{kind:?}: warming results banked");

            let mut resident = StoredSampler::new(&img, fp, 7, scfg, &store).with_warm_bank(true);
            let again = resident.run_range(kind, pcfg, 0..3, 1);
            assert_eq!(want, again, "{kind:?}: banked rerun must match live");
            assert_eq!(resident.warm_bank_stats().hits, 6, "{kind:?}: rerun fully banked");
            assert_eq!(resident.warm_bank_stats().misses, 0);
            assert_eq!(resident.timing().walked_windows, 0, "{kind:?}: no warming walk");
            assert_eq!(
                resident.stats(),
                StoreStats { hits: 3, misses: 0, rejected: 0 },
                "{kind:?}: banked windows start from their stored checkpoints"
            );
            let _ = std::fs::remove_dir_all(store.root());
        }
    }

    /// Banked parallel runs stay bit-identical to serial banked runs.
    #[test]
    fn warm_bank_parallel_matches_serial() {
        let img = image();
        let scfg = quick_cfg();
        let pcfg = ProcessorConfig::table2(4);
        let store = tmp_store("bank-par");
        let fp = sfetch_trace::trace_fingerprint(&img, 7, 4096);

        let mut serial = StoredSampler::new(&img, fp, 7, scfg, &store).with_warm_bank(true);
        let want = serial.run_range(EngineKind::Stream, pcfg, 0..4, 1);
        for jobs in [2, 4] {
            let mut par = StoredSampler::new(&img, fp, 7, scfg, &store).with_warm_bank(true);
            let got = par.run_range(EngineKind::Stream, pcfg, 0..4, jobs);
            assert_eq!(want, got, "jobs = {jobs}");
            assert_eq!(par.warm_bank_stats().hits, 8, "jobs = {jobs}");
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// Warm segments are keyed by what they depend on: another engine
    /// kind at the same width misses the engine segment but shares the
    /// memory segment; the same kind at another width shares the engine
    /// segment but misses the memory segment.
    #[test]
    fn warm_entries_are_model_keyed() {
        let img = image();
        let scfg = quick_cfg();
        let store = tmp_store("bank-model");
        let fp = sfetch_trace::trace_fingerprint(&img, 7, 4096);
        let run = |kind: EngineKind, width: usize| {
            let mut s = StoredSampler::new(&img, fp, 7, scfg, &store).with_warm_bank(true);
            let got = s.run_range(kind, ProcessorConfig::table2(width), 0..2, 1);
            let mut live = crate::Sampler::new(&img, kind, ProcessorConfig::table2(width), scfg, 7);
            assert_eq!(got, live.run(2), "{kind:?} at width {width}");
            s.warm_bank_stats()
        };

        let a = run(EngineKind::Stream, 4);
        assert_eq!((a.hits, a.misses), (0, 4), "one engine and one memory segment per window");
        assert_eq!(store.warm_entries(), 4);

        let b = run(EngineKind::Ev8, 4);
        assert_eq!((b.hits, b.misses), (2, 2), "cross-engine: only the memory segments hit");
        assert_eq!(store.warm_entries(), 6);

        let c = run(EngineKind::Stream, 8);
        assert_eq!((c.hits, c.misses), (2, 2), "cross-width: only the engine segments hit");
        assert_eq!(store.warm_entries(), 8);

        let d4 = warm_model_digest(EngineKind::Stream, &ProcessorConfig::table2(4), &scfg);
        let d8 = warm_model_digest(EngineKind::Stream, &ProcessorConfig::table2(8), &scfg);
        assert_eq!(d4, d8, "engine segments ignore the width");
        assert_ne!(memory_model_digest(4, &scfg), memory_model_digest(8, &scfg));
        let half_mem = SampleConfig { warm_mem: scfg.warm_mem / 2, ..scfg };
        assert_ne!(memory_model_digest(4, &scfg), memory_model_digest(4, &half_mem));
        let stream4 = ProcessorConfig::table2(4);
        assert_eq!(d4, warm_model_digest(EngineKind::Stream, &stream4, &half_mem));
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// Corrupt or version-mismatched warm segments are rejected and the
    /// window silently recomputes — and re-banks a good segment.
    #[test]
    fn corrupt_warm_entries_are_rejected_and_recomputed() {
        let img = image();
        let scfg = quick_cfg();
        let pcfg = ProcessorConfig::table2(4);
        let store = tmp_store("bank-reject");
        let fp = sfetch_trace::trace_fingerprint(&img, 7, 4096);
        let engine = warm_model_digest(EngineKind::Ftb, &pcfg, &scfg);
        let memory = memory_model_digest(pcfg.width, &scfg);

        let mut cold = StoredSampler::new(&img, fp, 7, scfg, &store).with_warm_bank(true);
        let want = cold.run_range(EngineKind::Ftb, pcfg, 0..2, 1);

        // Corrupt window 0's engine segment; bump the version of window
        // 1's memory segment.
        let key0 = StoreKey { fingerprint: fp, seed: 7, at_inst: cold.warming_start(0) };
        let key1 = StoreKey { fingerprint: fp, seed: 7, at_inst: cold.warming_start(1) };
        let p0 = store.warm_entry_path(&key0, engine);
        let mut bytes = std::fs::read(&p0).expect("engine segment 0");
        let n = bytes.len();
        bytes[n - 9] ^= 0xff;
        std::fs::write(&p0, &bytes).expect("rewrite");
        let p1 = store.warm_entry_path(&key1, memory);
        let mut bytes = std::fs::read(&p1).expect("memory segment 1");
        bytes[8..16].copy_from_slice(&(WARM_VERSION + 1).to_le_bytes());
        std::fs::write(&p1, &bytes).expect("rewrite");
        let rejected = |key: &StoreKey, model: u64, reason: &str| {
            let got = store.load_warm(key, model);
            matches!(got, Err(StoreMiss::Rejected(why)) if why.contains(reason))
        };
        assert!(rejected(&key0, engine, "digest"));
        assert!(rejected(&key1, memory, "version"));

        let mut again = StoredSampler::new(&img, fp, 7, scfg, &store).with_warm_bank(true);
        let got = again.run_range(EngineKind::Ftb, pcfg, 0..2, 1);
        assert_eq!(want, got, "rejected segments must recompute bit-identically");
        assert_eq!(again.warm_bank_stats().rejected, 2);
        assert_eq!(again.warm_bank_stats().hits, 2, "the intact segments still serve");

        // The recompute re-banked verified segments.
        assert!(store.load_warm(&key0, engine).is_ok());
        assert!(store.load_warm(&key1, memory).is_ok());
        let mut third = StoredSampler::new(&img, fp, 7, scfg, &store).with_warm_bank(true);
        let _ = third.run_range(EngineKind::Ftb, pcfg, 0..2, 1);
        assert_eq!(third.warm_bank_stats().hits, 4, "repaired bank serves the next run");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn warm_timing_accounts_every_window() {
        let img = image();
        let scfg = quick_cfg();
        let pcfg = ProcessorConfig::table2(4);
        let store = tmp_store("bank-timing");
        let fp = sfetch_trace::trace_fingerprint(&img, 7, 4096);
        let mut s = StoredSampler::new(&img, fp, 7, scfg, &store).with_warm_bank(true);
        let _ = s.run_range(EngineKind::Stream, pcfg, 0..3, 1);
        let t = s.timing();
        assert_eq!(t.windows, 3);
        assert!(t.warm_ns > 0, "live warming takes measurable time");
        assert!(t.ff_ns > 0, "snapshot resolution takes measurable time");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn out_of_order_windows_restart_from_nearest_stored_state() {
        let img = image();
        let scfg = quick_cfg();
        let pcfg = ProcessorConfig::table2(4);
        let store = tmp_store("ooo");
        let fp = sfetch_trace::trace_fingerprint(&img, 11, 4096);

        let mut fwd = StoredSampler::new(&img, fp, 11, scfg, &store);
        let in_order = fwd.run_range(EngineKind::Ftb, pcfg, 0..3, 1);

        // A second runner asks for window 2 first, then 0 — the walker
        // must rewind through the store, not panic or drift.
        let mut ooo = StoredSampler::new(&img, fp, 11, scfg, &store);
        let p2 = ooo.run_range(EngineKind::Ftb, pcfg, 2..3, 1);
        let p0 = ooo.run_range(EngineKind::Ftb, pcfg, 0..1, 1);
        assert_eq!(p2, in_order[2..3]);
        assert_eq!(p0, in_order[0..1]);
        assert_eq!(ooo.stats().hits, 2);
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// A capped store sheds least-recently-accessed entries on save —
    /// and a rerun transparently recomputes the evicted state, healing
    /// the store byte-identically.
    #[test]
    fn cap_evicts_lru_and_rerun_heals_byte_identical() {
        let img = image();
        let scfg = quick_cfg();
        let pcfg = ProcessorConfig::table2(4);
        let fp = sfetch_trace::trace_fingerprint(&img, 7, 4096);

        // Uncapped populate: 4 checkpoints, record their bytes.
        let store = tmp_store("cap");
        let mut s = StoredSampler::new(&img, fp, 7, scfg, &store);
        let want = s.run_range(EngineKind::Stream, pcfg, 0..4, 1);
        assert_eq!(store.entries(), 4);
        assert_eq!(store.evicted(), 0, "no cap, no shedding");
        let keys: Vec<StoreKey> = (0..4)
            .map(|w| StoreKey { fingerprint: fp, seed: 7, at_inst: s.warming_start(w) })
            .collect();
        let pristine: Vec<Vec<u8>> = keys
            .iter()
            .map(|k| std::fs::read(store.entry_path(k)).expect("entry bytes"))
            .collect();
        let full = store.total_bytes();
        let one = pristine[0].len() as u64;

        // A fresh handle (empty lease set) with a cap that holds about
        // half the entries: its first save must evict the oldest.
        let capped = CheckpointStore::open(store.root())
            .expect("reopen")
            .with_cap_bytes(Some(full - one));
        let extra = StoreKey { fingerprint: fp, seed: 7, at_inst: 999 };
        let mut ex = Executor::from_image(&img, 7);
        ex.nth(998);
        capped.save(&extra, &ex.checkpoint()).expect("save over cap");
        assert!(capped.evicted() > 0, "cap must force eviction");
        assert!(capped.total_bytes() <= full - one + pristine[0].len() as u64);
        assert!(
            capped.load(&extra).is_ok(),
            "the just-saved (leased) entry must survive its own eviction pass"
        );
        assert!(store.entries() < 5, "some old entry was shed");

        // Heal: an uncapped rerun recomputes the evicted checkpoints and
        // lands on byte-identical entry files and bit-identical points.
        let heal_store = CheckpointStore::open(store.root()).expect("reopen");
        let mut heal = StoredSampler::new(&img, fp, 7, scfg, &heal_store);
        let got = heal.run_range(EngineKind::Stream, pcfg, 0..4, 1);
        assert_eq!(want, got, "evicted windows recompute bit-identically");
        assert!(heal.stats().misses > 0, "healing recomputed evicted entries");
        for (k, bytes) in keys.iter().zip(&pristine) {
            let healed = std::fs::read(store.entry_path(k)).expect("healed entry");
            assert_eq!(&healed, bytes, "healed entry must be byte-identical");
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// Entries leased by this handle (recently used) are exempt from
    /// eviction: the cap sheds cold history, not the live working set.
    #[test]
    fn cap_never_evicts_leased_entries() {
        let img = image();
        let scfg = quick_cfg();
        let pcfg = ProcessorConfig::table2(4);
        let fp = sfetch_trace::trace_fingerprint(&img, 13, 4096);

        let store = tmp_store("cap-lease");
        let mut s = StoredSampler::new(&img, fp, 13, scfg, &store);
        let _ = s.run_range(EngineKind::Stream, pcfg, 0..3, 1);
        let keys: Vec<StoreKey> = (0..3)
            .map(|w| StoreKey { fingerprint: fp, seed: 13, at_inst: s.warming_start(w) })
            .collect();

        // Tiny cap: every save would shed everything unleased. Loading
        // window 1 first leases it; saving a new entry must then evict
        // the *other* old entries but keep window 1 and the new entry.
        let capped =
            CheckpointStore::open(store.root()).expect("reopen").with_cap_bytes(Some(1));
        capped.load(&keys[1]).expect("lease window 1");
        let extra = StoreKey { fingerprint: fp, seed: 13, at_inst: 777 };
        let mut ex = Executor::from_image(&img, 13);
        ex.nth(776);
        capped.save(&extra, &ex.checkpoint()).expect("save over cap");

        assert!(capped.load(&keys[1]).is_ok(), "leased entry survives");
        assert!(capped.load(&extra).is_ok(), "fresh save survives");
        assert_eq!(
            capped.load(&keys[0]),
            Err(StoreMiss::Absent),
            "unleased entry was shed"
        );
        assert_eq!(
            capped.load(&keys[2]),
            Err(StoreMiss::Absent),
            "unleased entry was shed"
        );
        assert_eq!(capped.evicted(), 2);
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// The sealed-entry codec writes the bytes earlier builds wrote: a
    /// fixed checkpoint entry hashes to the value those builds produced,
    /// so the stores they left keep loading. The two warm segments hold
    /// the engine and memory payloads of the fixed version 2 entry
    /// earlier builds pinned, sealed as version 3 segments.
    #[test]
    fn sealed_entry_bytes_match_earlier_builds() {
        let img = image();
        let store = tmp_store("pinned");
        let key = StoreKey { fingerprint: 0x5eed_f00d, seed: 3, at_inst: 1_000 };
        let mut ex = Executor::from_image(&img, 3);
        ex.nth(999);
        let cp = ex.checkpoint();
        store.save(&key, &cp).expect("save");
        let (engine, memory) = (vec![1, 2, 3, 4, 5], vec![9; 17]);
        store.save_warm(&key, 0xabcd, &engine).expect("save engine segment");
        store.save_warm(&key, 0xdcba, &memory).expect("save memory segment");
        let digest = |p: PathBuf| sfetch_tab::fnv64(&std::fs::read(p).expect("entry bytes"));
        assert_eq!(digest(store.entry_path(&key)), 0x99eb_e3fc_b1d9_cd1c, "checkpoint entry bytes");
        assert_eq!(
            digest(store.warm_entry_path(&key, 0xabcd)),
            0x944f_bee3_115c_9182,
            "engine segment bytes"
        );
        assert_eq!(
            digest(store.warm_entry_path(&key, 0xdcba)),
            0xc5b9_a229_37a0_985c,
            "memory segment bytes"
        );
        // A checkpoint the populate walk wrote (fast-forwarded past the
        // first window): the bytes a build whose populate walked `next()`
        // record by record wrote.
        let mut populate = StoredSampler::new(&img, key.fingerprint, key.seed, quick_cfg(), &store);
        assert_eq!(populate.populate(2), 2);
        let walked = StoreKey { at_inst: populate.warming_start(1), ..key };
        assert_eq!(
            digest(store.entry_path(&walked)),
            0x6479_8eca_4958_84f9,
            "populated checkpoint bytes"
        );
        // And they read back.
        assert_eq!(store.load(&key), Ok(cp));
        assert_eq!(store.load_warm(&key, 0xabcd), Ok(engine));
        assert_eq!(store.load_warm(&key, 0xdcba), Ok(memory));
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// The warm segments a same-kind follower's window banks — its
    /// engine restored from its leader's warm state, here at another
    /// width and front — hold the engine and memory payloads of the
    /// version 2 entry earlier builds wrote for the same cell (which
    /// equal those of the version 1 entry the builds before them wrote,
    /// which warmed every cell): the leader's engine segment and the
    /// follower's width's memory segment.
    #[test]
    fn follower_banked_warm_entry_matches_earlier_builds() {
        let img = image();
        let store = tmp_store("follower-pinned");
        let (fingerprint, seed) = (0x5eed_f00d, 3);
        let leader = BatchCell { kind: EngineKind::TraceCache, pcfg: ProcessorConfig::table2(2) };
        let mut pcfg = ProcessorConfig::table2(8);
        pcfg.front = sfetch_fetch::FrontPipeline::for_engine(EngineKind::TraceCache);
        let follower = BatchCell { kind: EngineKind::TraceCache, pcfg };
        let mut b = crate::BatchSampler::new(&img, fingerprint, seed, quick_cfg(), &store)
            .with_warm_bank(true);
        let _ = b.run_range(&[leader, follower], 1..2, 1);
        assert_eq!(store.warm_entries(), 3, "one engine segment, two memory segments");
        let at_inst =
            StoredSampler::new(&img, fingerprint, seed, quick_cfg(), &store).warming_start(1);
        let key = StoreKey { fingerprint, seed, at_inst };
        let segment = |model: u64| {
            let bytes = std::fs::read(store.warm_entry_path(&key, model)).expect("segment");
            sfetch_tab::fnv64(&bytes)
        };
        assert_eq!(
            segment(warm_model_digest(follower.kind, &follower.pcfg, &quick_cfg())),
            0x5a98_13a2_b263_0a0f,
            "engine segment bytes"
        );
        assert_eq!(
            segment(memory_model_digest(follower.pcfg.width, &quick_cfg())),
            0x556b_331e_4bb5_1c58,
            "memory segment bytes"
        );
        let _ = std::fs::remove_dir_all(store.root());
    }
}
