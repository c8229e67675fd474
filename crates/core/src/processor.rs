//! The cycle-level processor: front-end verification, out-of-order
//! back-end, misprediction recovery.

use std::collections::VecDeque;

use sfetch_cfg::{Cfg, CodeImage};
use sfetch_fetch::{
    Checkpoint, CommittedControl, CommittedInst, FetchEngine, FetchEngineStats, FetchedInst,
    ResolvedBranch, StallCause,
};
use sfetch_isa::{Addr, BranchKind, InstClass};
use sfetch_mem::{MemoryConfig, MemoryHierarchy};
use sfetch_trace::{DynInst, Executor, OracleSource};

use crate::config::ProcessorConfig;
use crate::metrics::SimStats;
use crate::obs::{NullObserver, Observer};
use crate::scheduler::{EventScheduler, Seq};

/// Completion-time ring size (must exceed any ROB + dependence distance).
const COMPLETION_RING: usize = 4096;

/// Completion-wheel horizon in cycles. Must merely be ≥ 2: wakes farther
/// out than the horizon are clamped and re-parked when they fire early
/// (see [`EventScheduler::park`]), so the value only trades memory for
/// re-park frequency. 512 covers the deepest Table 2 event (a full
/// L1→L2→memory miss of 116 cycles, or the front-pipeline latency) with
/// no re-parks.
const WHEEL_HORIZON: usize = 512;

/// One reorder-buffer entry.
#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    fi: FetchedInst,
    /// Correct-path record; `None` marks a wrong-path instruction.
    oracle: Option<DynInst>,
    /// This entry anchors the pending execute-time recovery.
    anchor: bool,
    /// Prediction was wrong but was repaired at decode (misfetch): the
    /// committed record still reports `mispredicted` so predictors train
    /// their hysteresis/upgrade paths.
    misfetch: bool,
    ready_at: u64,
    issued: bool,
    done_at: u64,
    /// Some later entry is registered in this entry's waiter list
    /// (event-driven back-end only): issue must drain and re-park them.
    has_waiters: bool,
}

/// The in-flight recovery for the oldest divergence.
#[derive(Debug, Clone, Copy)]
struct Recovery {
    anchor_seq: u64,
    target: Addr,
    cp: Checkpoint,
    resolved: ResolvedBranch,
    resolve_at: Option<u64>,
}

/// The simulated processor: one fetch engine + memory hierarchy + ROB
/// back-end, verified against the architectural executor.
///
/// Generic over an [`Observer`] receiving per-instruction pipeline
/// events; the default [`NullObserver`] compiles every hook away (see
/// [`crate::obs`]), keeping the untraced simulator bit-identical and
/// overhead-free.
pub struct Processor<'a, O: Observer = NullObserver> {
    config: ProcessorConfig,
    obs: O,
    engine: Box<dyn FetchEngine>,
    mem: MemoryHierarchy,
    image: &'a CodeImage,
    oracle: OracleSource<'a>,
    pending_oracle: Option<DynInst>,
    rob: VecDeque<RobEntry>,
    next_seq: u64,
    on_correct: bool,
    recovery: Option<Recovery>,
    fetch_hold_until: u64,
    redirect_hold_until: u64,
    now: u64,
    last_progress: u64,
    last_cp: Checkpoint,
    completion: Vec<u64>,
    sched: EventScheduler,
    /// Position keys for O(1) seq → ROB-index resolution: `pos_key[seq %
    /// ring] - total_pops` is the entry's current index from the ROB
    /// front (commits shift every index by one; squashes pop from the
    /// back and shift nothing). A token is live iff the index is in
    /// bounds and the entry there carries the same seq.
    pos_key: Vec<u64>,
    /// Lifetime count of ROB front pops (commits).
    total_pops: u64,
    /// Scratch for draining wheel slots and waiter lists (capacity reused
    /// across cycles).
    wake_buf: Vec<Seq>,
    fetch_buf: Vec<FetchedInst>,
    /// This cycle's commit group, handed to the engine in one
    /// `commit_block` call (one virtual dispatch per cycle, not per
    /// instruction).
    commit_buf: Vec<CommittedInst>,
    stats: SimStats,
    engine_baseline: FetchEngineStats,
}

/// What the fetch stage did this cycle — the front-end leg of the
/// top-down cycle classifier ([`crate::metrics::CycleBuckets`]).
enum FetchOutcome {
    /// Fetch held by a front-pipeline bubble.
    Held {
        /// `true` for a post-squash redirect penalty, `false` for a
        /// decode-misfetch bubble.
        redirect: bool,
    },
    /// No ROB space for a full fetch group.
    RobFull,
    /// The engine ran.
    Ran {
        /// Correct-path instructions accepted by verification.
        accepted: u64,
        /// A decode redirect (misfetch) fired this cycle.
        redirected: bool,
    },
}

/// The obstacle currently blocking an unissued ROB entry from issue.
enum Block {
    /// All obstacles cleared: eligible now.
    None,
    /// Blocked on a producer that has not issued (completion unknown).
    OnProducer(Seq),
    /// Blocked until a known future cycle (producer completion or
    /// front-pipeline arrival).
    AtCycle(u64),
}

impl<'a> Processor<'a> {
    /// Creates a processor with the Table 2 memory hierarchy for the
    /// configured width and the given fetch engine.
    pub fn new(
        config: ProcessorConfig,
        engine: Box<dyn FetchEngine>,
        cfg: &'a Cfg,
        image: &'a CodeImage,
        seed: u64,
    ) -> Self {
        Self::with_memory(config, MemoryConfig::table2(config.width), engine, cfg, image, seed)
    }

    /// Creates a processor with an explicit memory configuration (used by
    /// the line-size ablation).
    pub fn with_memory(
        config: ProcessorConfig,
        memcfg: MemoryConfig,
        engine: Box<dyn FetchEngine>,
        cfg: &'a Cfg,
        image: &'a CodeImage,
        seed: u64,
    ) -> Self {
        // The oracle walks the image's interned control table; `cfg` is only
        // needed to validate that the image was actually built from it.
        assert_eq!(
            cfg.num_blocks(),
            image.control().num_blocks(),
            "image was not built from this cfg"
        );
        let mut mem = MemoryHierarchy::new(memcfg);
        if config.prefetch.pipelined() {
            mem.enable_inst_pipeline(config.prefetch.mshrs);
        }
        Self::with_state(config, engine, image, Executor::from_image(image, seed), mem)
    }

    /// Creates a processor around pre-built architectural and memory
    /// state: an [`Executor`] positioned anywhere in its trace (e.g.
    /// resumed from an [`sfetch_trace::ArchCheckpoint`]) and a
    /// [`MemoryHierarchy`] that may already be warm. This is the sampled
    /// simulator's entry point: each sample window functionally warms
    /// caches/predictors along the fast-forwarded path, then hands the
    /// state here for the detailed window.
    ///
    /// The caller is responsible for the engine's fetch cursor pointing
    /// at the executor's current pc (engines start at their construction
    /// `entry`; redirect them when resuming mid-trace) and for the memory
    /// hierarchy's inst pipeline matching `config.prefetch` (fresh
    /// hierarchies are upgraded here as a convenience).
    ///
    /// # Panics
    ///
    /// Panics if the engine width disagrees with the configuration or the
    /// ROB does not fit the completion ring.
    pub fn with_state(
        config: ProcessorConfig,
        engine: Box<dyn FetchEngine>,
        image: &'a CodeImage,
        oracle: Executor<'a>,
        mem: MemoryHierarchy,
    ) -> Self {
        Processor::with_state_observed(config, engine, image, oracle, mem, NullObserver)
    }

    /// [`Processor::with_state`] over any [`OracleSource`] — the batched
    /// sampler's entry point, where N cores share one recorded
    /// functional walk instead of each owning a live [`Executor`].
    pub fn with_state_source(
        config: ProcessorConfig,
        engine: Box<dyn FetchEngine>,
        image: &'a CodeImage,
        oracle: OracleSource<'a>,
        mem: MemoryHierarchy,
    ) -> Self {
        Processor::with_source_observed(config, engine, image, oracle, mem, NullObserver)
    }
}

impl<'a, O: Observer> Processor<'a, O> {
    /// [`Processor::with_state`] with an explicit pipeline-event
    /// [`Observer`] attached. This is the only observed constructor:
    /// tracing runs are short windows resumed from the same pre-built
    /// state the sampled simulator uses.
    pub fn with_state_observed(
        config: ProcessorConfig,
        engine: Box<dyn FetchEngine>,
        image: &'a CodeImage,
        oracle: Executor<'a>,
        mem: MemoryHierarchy,
        obs: O,
    ) -> Self {
        Self::with_source_observed(config, engine, image, OracleSource::Live(oracle), mem, obs)
    }

    /// [`Processor::with_state_observed`] over any [`OracleSource`].
    pub fn with_source_observed(
        config: ProcessorConfig,
        engine: Box<dyn FetchEngine>,
        image: &'a CodeImage,
        oracle: OracleSource<'a>,
        mut mem: MemoryHierarchy,
        obs: O,
    ) -> Self {
        assert_eq!(engine.width(), config.width, "engine width must match processor width");
        config.prefetch.validate();
        // The completion ring is indexed by sequence number; it must not
        // alias across the largest seq span simultaneously in flight
        // (ROB + squash gaps + the 255-max dependence distance).
        assert!(
            config.rob_entries * 2 + 512 <= COMPLETION_RING,
            "rob_entries {} too large for the completion ring",
            config.rob_entries
        );
        if config.prefetch.pipelined() && !mem.inst_pipeline_enabled() {
            mem.enable_inst_pipeline(config.prefetch.mshrs);
        }
        Processor {
            config,
            obs,
            engine,
            mem,
            image,
            oracle,
            pending_oracle: None,
            rob: VecDeque::with_capacity(config.rob_entries),
            next_seq: 0,
            on_correct: true,
            recovery: None,
            fetch_hold_until: 0,
            redirect_hold_until: 0,
            now: 0,
            last_progress: 0,
            last_cp: Checkpoint::default(),
            completion: vec![u64::MAX; COMPLETION_RING],
            sched: EventScheduler::new(WHEEL_HORIZON, COMPLETION_RING),
            pos_key: vec![u64::MAX; COMPLETION_RING],
            total_pops: 0,
            wake_buf: Vec::with_capacity(32),
            fetch_buf: Vec::with_capacity(16),
            commit_buf: Vec::with_capacity(config.width),
            stats: SimStats::default(),
            engine_baseline: FetchEngineStats::default(),
        }
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Committed instructions since the last stats reset.
    pub fn committed(&self) -> u64 {
        self.stats.committed
    }

    /// Runs until `n` more instructions commit (relative to the current
    /// stats window).
    pub fn run(&mut self, n: u64) {
        let target = self.stats.committed + n;
        while self.stats.committed < target {
            self.cycle();
        }
    }

    /// Resets the statistics window (used after warmup). Predictor and
    /// cache *state* is retained; only counters restart.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
        self.mem.reset_stats();
        self.engine_baseline = self.engine.stats();
    }

    /// Final statistics for the current window.
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats;
        s.engine = diff_engine(self.engine.stats(), self.engine_baseline);
        s.l1i = self.mem.l1i_stats();
        s.l1d = self.mem.l1d_stats();
        s.l2 = self.mem.l2_stats();
        s.prefetch = self.mem.prefetch_stats();
        s.storage_bits = self.engine.storage_bits();
        s
    }

    /// Direct access to the fetch engine (for ablation reporting).
    pub fn engine(&self) -> &dyn FetchEngine {
        self.engine.as_ref()
    }

    /// Direct access to the attached observer.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.obs
    }

    /// Consumes the processor, returning the observer (to flush a trace
    /// sink after the traced window).
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// Advances the simulation by one clock cycle.
    pub fn cycle(&mut self) {
        self.commit_stage();
        if self.config.legacy_scan {
            self.execute_stage_scan();
        } else {
            self.execute_stage_event();
        }
        self.recovery_stage();
        let fetched = self.fetch_stage();
        let resynced = self.watchdog();
        self.account_cycle(fetched, resynced);
        self.now += 1;
        self.stats.cycles += 1;
    }

    /// Attributes the elapsing cycle to exactly one
    /// [`crate::metrics::CycleBuckets`] bucket (priority order documented
    /// there). Pure counting — never feeds back into timing — so the
    /// simulated behaviour is bit-identical with accounting compiled in.
    fn account_cycle(&mut self, fetched: FetchOutcome, resynced: bool) {
        let b = &mut self.stats.buckets;
        if !self.commit_buf.is_empty() {
            b.commit += 1;
            return;
        }
        if resynced {
            b.watchdog += 1;
            return;
        }
        match fetched {
            FetchOutcome::Held { redirect: true } => b.hold_redirect += 1,
            FetchOutcome::Held { redirect: false } => b.hold_decode += 1,
            FetchOutcome::RobFull => b.rob_full += 1,
            FetchOutcome::Ran { accepted, redirected } => {
                if accepted > 0 {
                    b.backend += 1;
                } else if redirected {
                    b.hold_decode += 1;
                } else if self.recovery.is_some() || !self.on_correct {
                    b.squash += 1;
                } else {
                    match self.engine.stall_probe() {
                        StallCause::Mem => self.stats.buckets.fetch_mem += 1,
                        StallCause::L2 => self.stats.buckets.fetch_l2 += 1,
                        StallCause::Mshr => self.stats.buckets.fetch_mshr += 1,
                        StallCause::Redirect => self.stats.buckets.squash += 1,
                        StallCause::None => self.stats.buckets.ftq_empty += 1,
                    }
                }
            }
        }
    }

    // --- pipeline stages -------------------------------------------------

    fn commit_stage(&mut self) {
        // Pops and statistics run per instruction; engine training is
        // batched into one `commit_block` call per cycle. The pops never
        // consult the engine, so the batched call sees the identical
        // program-order sequence the per-instruction calls did.
        self.commit_buf.clear();
        for _ in 0..self.config.width {
            let Some(head) = self.rob.front() else { break };
            if !(head.issued && head.done_at <= self.now) {
                break;
            }
            if head.oracle.is_none() {
                // Wrong-path instructions never commit; they are squashed by
                // the recovery stage once the anchoring branch resolves
                // (which, if the anchor just committed, happens this cycle).
                break;
            }
            let e = self.rob.pop_front().expect("head exists");
            self.total_pops += 1;
            if O::ENABLED {
                self.obs.committed(self.now, e.seq);
            }
            let d = e.oracle.expect("checked above");
            let control = d.control.map(|c| CommittedControl {
                kind: c.kind,
                taken: c.taken,
                target: c.target,
                next_pc: c.next_pc,
                is_fixup: c.is_fixup,
            });
            self.commit_buf.push(CommittedInst {
                pc: d.pc,
                control,
                mispredicted: e.anchor || e.misfetch,
            });
            self.stats.committed += 1;
            if let Some(c) = d.control {
                match c.kind {
                    BranchKind::Cond => {
                        self.stats.branches += 1;
                        self.stats.cond_branches += 1;
                        self.stats.cond_taken += u64::from(c.taken);
                    }
                    BranchKind::Return | BranchKind::IndirectJump | BranchKind::IndirectCall => {
                        self.stats.branches += 1;
                    }
                    BranchKind::Jump | BranchKind::Call => {}
                }
            }
            self.last_progress = self.now;
        }
        if !self.commit_buf.is_empty() {
            self.engine.commit_block(&self.commit_buf);
        }
    }

    /// The legacy O(rob)-per-cycle issue stage: walk every in-flight entry
    /// oldest-first and issue the first `width` eligible ones. Kept behind
    /// [`ProcessorConfig::legacy_scan`] for differential testing against
    /// the event-driven scheduler.
    fn execute_stage_scan(&mut self) {
        let mut issued = 0;
        let width = self.config.width;
        let now = self.now;
        for i in 0..self.rob.len() {
            if issued == width {
                break;
            }
            {
                let e = &self.rob[i];
                if e.issued || e.ready_at > now {
                    continue;
                }
                if !self.deps_done(e) {
                    continue;
                }
            }
            self.issue_entry(i);
            issued += 1;
        }
    }

    /// The event-driven issue stage: wake front-pipeline arrivals and this
    /// cycle's completion-wheel slot, re-evaluate each woken entry's
    /// obstacles, then issue up to `width` entries from the ready queue
    /// oldest-first — the same set in the same order as the scan, at
    /// O(width + events) per cycle.
    fn execute_stage_event(&mut self) {
        let now = self.now;
        let width = self.config.width;
        // Dispatches arrive in FIFO wake-cycle order: pop while due.
        // Squashed tokens (no live ROB slot) are discarded on the way.
        while let Some(seq) = self.sched.peek_arrival() {
            match self.rob_index(seq) {
                None => {
                    self.sched.pop_arrival();
                }
                Some(i) => {
                    if self.rob[i].ready_at > now {
                        break;
                    }
                    self.sched.pop_arrival();
                    self.classify(seq, i);
                }
            }
        }
        // Entries parked until a known completion cycle.
        let mut due = std::mem::take(&mut self.wake_buf);
        self.sched.drain_due(now, &mut due);
        for &seq in &due {
            if let Some(i) = self.rob_index(seq) {
                self.classify(seq, i);
            }
        }
        due.clear();
        let mut issued = 0;
        while issued < width {
            let Some(seq) = self.sched.pop_ready() else { break };
            // Validate the token: squashed entries' tokens no longer
            // resolve to a live ROB slot and are dropped here.
            let Some(i) = self.rob_index(seq) else { continue };
            if self.rob[i].issued {
                continue;
            }
            let done_at = self.issue_entry(i);
            if self.rob[i].has_waiters {
                // The producer's completion cycle is now known: park
                // everyone who was waiting on it.
                self.rob[i].has_waiters = false;
                self.sched.take_waiters(seq, &mut due);
                for &w in &due {
                    self.sched.park(w, done_at, now);
                }
                due.clear();
            }
            issued += 1;
        }
        self.wake_buf = due;
    }

    /// Re-evaluates a woken live entry's obstacles: enter the ready
    /// queue, or re-park on the next obstacle (producer issue / known
    /// future cycle).
    fn classify(&mut self, seq: Seq, i: usize) {
        let e = &self.rob[i];
        if e.issued {
            return;
        }
        if e.ready_at > self.now {
            // A beyond-horizon park fired early; re-park at arrival.
            self.sched.park(seq, e.ready_at, self.now);
            return;
        }
        match self.first_block(e) {
            Block::None => self.sched.push_ready(seq),
            Block::OnProducer(p) => {
                // Flag the producer so its issue drains the waiter list;
                // if it cannot be resolved (it should always be live when
                // its completion is still unknown), retry next cycle
                // rather than risk a lost wake.
                match self.rob_index(p) {
                    Some(pi) => {
                        self.rob[pi].has_waiters = true;
                        self.sched.wait_on(seq, p);
                    }
                    None => self.sched.park(seq, self.now + 1, self.now),
                }
            }
            Block::AtCycle(t) => self.sched.park(seq, t, self.now),
        }
    }

    /// Locates a sequence number in the ROB in O(1) via the position-key
    /// ring; `None` means the entry committed or was squashed (sequence
    /// numbers are never reused, so a stale token can only miss).
    fn rob_index(&self, seq: Seq) -> Option<usize> {
        let key = self.pos_key[(seq % COMPLETION_RING as u64) as usize];
        let idx = key.wrapping_sub(self.total_pops) as usize;
        if idx < self.rob.len() && self.rob[idx].seq == seq {
            Some(idx)
        } else {
            None
        }
    }

    /// The first obstacle blocking `e` from issue, mirroring [`Self::deps_done`]
    /// exactly: a dependence on an unissued producer, a dependence on a
    /// known future completion, or nothing.
    fn first_block(&self, e: &RobEntry) -> Block {
        for dist in [e.fi.inst.dep1().get(), e.fi.inst.dep2().get()] {
            if dist == 0 {
                continue;
            }
            let dist = u64::from(dist);
            if e.seq < dist {
                continue;
            }
            let producer = e.seq - dist;
            let done = self.completion[(producer % COMPLETION_RING as u64) as usize];
            if done == u64::MAX {
                return Block::OnProducer(producer);
            }
            if done > self.now {
                return Block::AtCycle(done);
            }
        }
        Block::None
    }

    /// Issues the ROB entry at index `i`: computes its execution latency
    /// (loads pay the D-cache access; stores access the cache but retire
    /// through a store buffer), stamps the completion ring, and arms the
    /// pending recovery if this is its anchor. Returns the completion
    /// cycle. Shared verbatim by both issue stages so their memory-system
    /// side effects are identical.
    fn issue_entry(&mut self, i: usize) -> u64 {
        let (class, mem_addr) = {
            let e = &self.rob[i];
            (e.fi.inst.class(), e.oracle.and_then(|d| d.mem_addr))
        };
        let now = self.now;
        let mut lat = u64::from(class.base_latency());
        match class {
            InstClass::Load => {
                if let Some(addr) = mem_addr {
                    lat = u64::from(self.mem.data_access(addr, false));
                }
            }
            InstClass::Store => {
                if let Some(addr) = mem_addr {
                    // Stores retire through a store buffer: access the
                    // cache (for fills/stats) but complete in a cycle.
                    let _ = self.mem.data_access(addr, true);
                }
            }
            _ => {}
        }
        let entry = &mut self.rob[i];
        entry.issued = true;
        entry.done_at = now + lat;
        let (seq, done_at) = (entry.seq, entry.done_at);
        self.completion[(seq % COMPLETION_RING as u64) as usize] = done_at;
        if entry.anchor {
            if let Some(r) = self.recovery.as_mut() {
                if r.anchor_seq == seq {
                    r.resolve_at = Some(done_at);
                }
            }
        }
        if O::ENABLED {
            self.obs.issued(now, seq, done_at);
        }
        done_at
    }

    /// Whether all of `e`'s producers have completed. Defined in terms of
    /// [`Self::first_block`] so the legacy scan and the event scheduler
    /// share one dependence-check implementation — their bit-identical
    /// guarantee is structural, not by convention (an unissued producer's
    /// `u64::MAX` completion is "not done" either way).
    fn deps_done(&self, e: &RobEntry) -> bool {
        matches!(self.first_block(e), Block::None)
    }

    fn recovery_stage(&mut self) {
        let Some(r) = self.recovery else { return };
        let Some(at) = r.resolve_at else { return };
        if at > self.now {
            return;
        }
        // Squash everything younger than the anchor (all wrong-path).
        while let Some(back) = self.rob.back() {
            if back.seq <= r.anchor_seq {
                break;
            }
            let seq = back.seq;
            self.completion[(seq % COMPLETION_RING as u64) as usize] = self.now;
            self.rob.pop_back();
            if O::ENABLED {
                self.obs.squashed(self.now, seq);
            }
        }
        self.engine.redirect(self.now, r.target, &r.cp, &r.resolved);
        // Front-pipeline recovery cost: hold fetch for the engine's
        // post-squash redirect penalty (history/RAS repair, overriding-
        // cascade re-steer, fill-unit flush). Zero under the legacy model
        // keeps `redirect_hold_until` at 0 — bit-identical behavior.
        let penalty = self.config.front.redirect_penalty;
        if penalty > 0 {
            self.redirect_hold_until = self.now + u64::from(penalty);
            self.stats.redirect_penalties += 1;
        }
        self.stats.mispredictions += 1;
        match r.resolved.kind {
            Some(BranchKind::Cond) => self.stats.mispred_cond += 1,
            Some(BranchKind::Return) => self.stats.mispred_return += 1,
            Some(BranchKind::IndirectJump) | Some(BranchKind::IndirectCall) => {
                self.stats.mispred_indirect += 1
            }
            _ => self.stats.mispred_other += 1,
        }
        self.on_correct = true;
        self.recovery = None;
    }

    fn fetch_stage(&mut self) -> FetchOutcome {
        // Front-pipeline holds, with the stall decomposition: every held
        // cycle is attributed to exactly one cause (redirect penalties
        // take precedence when both overlap), so `hold_decode_cycles +
        // hold_redirect_cycles == fetch_hold_cycles` by construction.
        let held_redirect = self.now < self.redirect_hold_until;
        if held_redirect || self.now < self.fetch_hold_until {
            self.stats.fetch_hold_cycles += 1;
            if held_redirect {
                self.stats.hold_redirect_cycles += 1;
            } else {
                self.stats.hold_decode_cycles += 1;
            }
            return FetchOutcome::Held { redirect: held_redirect };
        }
        if self.rob.len() + self.config.width > self.config.rob_entries {
            return FetchOutcome::RobFull; // no ROB space for a full fetch group
        }
        let mut buf = std::mem::take(&mut self.fetch_buf);
        buf.clear();
        self.engine.cycle(self.now, self.image, &mut self.mem, &mut buf);
        let mut accepted = 0u64;
        let mut redirected = false;
        for (i, fi) in buf.iter().enumerate() {
            let fi = *fi;
            if !self.on_correct {
                self.push_rob(fi, None, false, false);
                continue;
            }
            let d = self.peek_oracle();
            if fi.pc != d.pc {
                // The front-end fetched the wrong instruction without a
                // mispredicted branch carrying the error (e.g. a stale
                // stream length over a non-branch): the decoder's PC check
                // catches it — resync with a decode bubble.
                self.stats.misfetches += 1;
                let target = d.pc;
                let resolved =
                    ResolvedBranch { pc: fi.pc, kind: None, taken: false, target };
                self.decode_redirect(fi.cp, target, resolved);
                redirected = true;
                break; // drop the rest of the bundle
            }
            let d = self.take_oracle();
            accepted += 1;
            self.last_cp = fi.cp;
            match (fi.pred, d.control) {
                (Some(p), Some(c)) => {
                    let dir_ok = p.taken == c.taken;
                    let target_ok = !c.taken || !p.taken || p.target == c.target;
                    if dir_ok && target_ok {
                        self.push_rob(fi, Some(d), false, false);
                    } else if !p.taken
                        && c.taken
                        && matches!(c.kind, BranchKind::Jump | BranchKind::Call)
                    {
                        // An unidentified *direct, unconditional* branch:
                        // the decoder sees the target and redirects with a
                        // small bubble (misfetch), no execute-time penalty.
                        self.stats.misfetches += 1;
                        self.push_rob(fi, Some(d), false, true);
                        let resolved = ResolvedBranch {
                            pc: d.pc,
                            kind: Some(c.kind),
                            taken: true,
                            target: c.target,
                        };
                        self.decode_redirect(fi.cp, c.next_pc, resolved);
                        redirected = true;
                        let _ = i;
                        break;
                    } else {
                        // Full misprediction: recover when the branch
                        // executes.
                        let resolved = ResolvedBranch {
                            pc: d.pc,
                            kind: Some(c.kind),
                            taken: c.taken,
                            target: c.target,
                        };
                        self.recovery = Some(Recovery {
                            anchor_seq: self.next_seq,
                            target: c.next_pc,
                            cp: fi.cp,
                            resolved,
                            resolve_at: None,
                        });
                        self.on_correct = false;
                        self.push_rob(fi, Some(d), true, false);
                    }
                }
                (None, None) => self.push_rob(fi, Some(d), false, false),
                // Engines attach predictions to every branch they decode and
                // the oracle walks the same image, so these cases indicate a
                // simulator bug.
                (Some(_), None) | (None, Some(_)) => {
                    unreachable!("prediction/control mismatch at {}", fi.pc)
                }
            }
        }
        self.fetch_buf = buf;
        if accepted > 0 {
            self.stats.fetched_correct += accepted;
            self.stats.fetch_active_cycles += 1;
            self.last_progress = self.now;
        }
        FetchOutcome::Ran { accepted, redirected }
    }

    fn decode_redirect(&mut self, cp: Checkpoint, target: Addr, resolved: ResolvedBranch) {
        self.engine.redirect(self.now, target, &cp, &resolved);
        self.fetch_hold_until = self.now + u64::from(self.config.front.decode_redirect_lat);
    }

    fn push_rob(&mut self, fi: FetchedInst, oracle: Option<DynInst>, anchor: bool, misfetch: bool) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if O::ENABLED {
            self.obs.fetched(self.now, seq, fi.pc, oracle.is_none());
        }
        self.completion[(seq % COMPLETION_RING as u64) as usize] = u64::MAX;
        self.pos_key[(seq % COMPLETION_RING as u64) as usize] =
            self.rob.len() as u64 + self.total_pops;
        let ready_at = self.now + u64::from(self.config.front_latency());
        self.rob.push_back(RobEntry {
            seq,
            fi,
            oracle,
            anchor,
            misfetch,
            ready_at,
            issued: false,
            done_at: u64::MAX,
            has_waiters: false,
        });
        if !self.config.legacy_scan {
            // Dispatch event: the entry sleeps until it clears the front
            // pipeline, then re-evaluates its dependence obstacles.
            self.sched.push_arrival(seq);
        }
    }

    fn peek_oracle(&mut self) -> DynInst {
        if self.pending_oracle.is_none() {
            self.pending_oracle = self.oracle.next_inst();
        }
        self.pending_oracle.expect("executor is infinite")
    }

    fn take_oracle(&mut self) -> DynInst {
        let d = self.peek_oracle();
        self.pending_oracle = None;
        d
    }

    /// Safety net: if the front-end wedges on a wrong path without an
    /// anchored recovery (possible only through pathological predictor
    /// state), resynchronize it to the oracle. Counted; expected ~never.
    /// Returns whether it fired (for the cycle classifier).
    fn watchdog(&mut self) -> bool {
        if self.now - self.last_progress <= self.config.watchdog_cycles {
            return false;
        }
        self.stats.watchdog_resyncs += 1;
        // Squash all wrong-path work and restart cleanly from the oracle.
        if let Some(r) = self.recovery {
            while let Some(back) = self.rob.back() {
                if back.seq <= r.anchor_seq {
                    break;
                }
                let seq = back.seq;
                self.completion[(seq % COMPLETION_RING as u64) as usize] = self.now;
                self.rob.pop_back();
                if O::ENABLED {
                    self.obs.squashed(self.now, seq);
                }
            }
            self.engine.redirect(self.now, r.target, &r.cp, &r.resolved);
            self.on_correct = true;
            self.recovery = None;
        } else {
            let d = self.peek_oracle();
            let resolved = ResolvedBranch { pc: d.pc, kind: None, taken: false, target: d.pc };
            let cp = self.last_cp;
            self.engine.redirect(self.now, d.pc, &cp, &resolved);
        }
        self.last_progress = self.now;
        true
    }
}

fn diff_engine(cur: FetchEngineStats, base: FetchEngineStats) -> FetchEngineStats {
    FetchEngineStats {
        predictor_lookups: cur.predictor_lookups - base.predictor_lookups,
        predictor_hits: cur.predictor_hits - base.predictor_hits,
        units: cur.units - base.units,
        unit_insts: cur.unit_insts - base.unit_insts,
        tc_hits: cur.tc_hits - base.tc_hits,
        tc_misses: cur.tc_misses - base.tc_misses,
        icache_stall_cycles: cur.icache_stall_cycles - base.icache_stall_cycles,
        stall_l2_cycles: cur.stall_l2_cycles - base.stall_l2_cycles,
        stall_mem_cycles: cur.stall_mem_cycles - base.stall_mem_cycles,
        stall_mshr_cycles: cur.stall_mshr_cycles - base.stall_mshr_cycles,
        shadow_installs: cur.shadow_installs - base.shadow_installs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfetch_cfg::gen::{GenParams, ProgramGenerator};
    use sfetch_cfg::layout;
    use sfetch_fetch::EngineKind;

    fn run_engine(kind: EngineKind, width: usize, insts: u64) -> SimStats {
        let cfg = ProgramGenerator::new(GenParams::small(), 42).generate();
        let image = CodeImage::build(&cfg, &layout::natural(&cfg));
        let pc = ProcessorConfig::table2(width);
        let engine = kind.build_for(width, image.entry(), &pc.prefetch, &pc.front);
        let mut p = Processor::new(pc, engine, &cfg, &image, 7);
        p.run(insts);
        p.stats()
    }

    #[test]
    fn all_engines_make_forward_progress() {
        for kind in EngineKind::ALL {
            let s = run_engine(kind, 4, 20_000);
            assert!(s.committed >= 20_000, "{kind}: committed {}", s.committed);
            assert!(s.ipc() > 0.1, "{kind}: ipc {}", s.ipc());
            assert!(s.ipc() <= 4.0, "{kind}: ipc exceeds width");
            assert_eq!(s.watchdog_resyncs, 0, "{kind}: watchdog fired");
        }
    }

    #[test]
    fn committed_path_matches_oracle_exactly() {
        // The committed instruction count and branch counts must equal the
        // executor's own statistics over the same window — commits are the
        // oracle sequence by construction; this guards the plumbing.
        let cfg = ProgramGenerator::new(GenParams::small(), 10).generate();
        let image = CodeImage::build(&cfg, &layout::natural(&cfg));
        let n = 30_000u64;
        let pc = ProcessorConfig::table2(4);
        let engine = EngineKind::Stream.build_for(4, image.entry(), &pc.prefetch, &pc.front);
        let mut p = Processor::new(pc, engine, &cfg, &image, 3);
        p.run(n);
        let s = p.stats();

        let mut conds = 0u64;
        let mut taken = 0u64;
        for d in Executor::new(&cfg, &image, 3).take(n as usize) {
            if let Some(c) = d.control {
                if c.kind == BranchKind::Cond {
                    conds += 1;
                    taken += u64::from(c.taken);
                }
            }
        }
        assert_eq!(s.cond_branches, conds);
        assert_eq!(s.cond_taken, taken);
    }

    #[test]
    fn wider_pipes_do_not_reduce_ipc() {
        let s2 = run_engine(EngineKind::Stream, 2, 20_000);
        let s8 = run_engine(EngineKind::Stream, 8, 20_000);
        assert!(
            s8.ipc() >= s2.ipc() * 0.95,
            "8-wide ({:.2}) should not be slower than 2-wide ({:.2})",
            s8.ipc(),
            s2.ipc()
        );
    }

    #[test]
    fn fetch_ipc_bounded_by_width() {
        for kind in EngineKind::ALL {
            let s = run_engine(kind, 4, 20_000);
            assert!(s.fetch_ipc() <= 4.0 + 1e-9, "{kind}: fetch ipc {}", s.fetch_ipc());
            assert!(s.fetch_ipc() >= s.ipc() * 0.9, "{kind}: fetch ipc below ipc");
        }
    }

    #[test]
    fn mispredictions_are_bounded() {
        for kind in EngineKind::ALL {
            let s = run_engine(kind, 4, 20_000);
            let rate = s.mispred_rate();
            assert!(rate < 0.5, "{kind}: implausible mispred rate {rate}");
            assert!(s.mispredictions > 0, "{kind}: zero mispredictions is implausible");
        }
    }

    #[test]
    fn warmup_reset_clears_counters_but_keeps_state() {
        let cfg = ProgramGenerator::new(GenParams::small(), 42).generate();
        let image = CodeImage::build(&cfg, &layout::natural(&cfg));
        let pc = ProcessorConfig::table2(4);
        let engine = EngineKind::Stream.build_for(4, image.entry(), &pc.prefetch, &pc.front);
        let mut p = Processor::new(pc, engine, &cfg, &image, 7);
        p.run(10_000);
        let warm = p.stats();
        p.reset_stats();
        assert_eq!(p.stats().committed, 0);
        p.run(10_000);
        let cold_rate = warm.mispred_rate();
        let warm_rate = p.stats().mispred_rate();
        assert!(
            warm_rate <= cold_rate * 1.5 + 0.01,
            "trained window ({warm_rate}) should not be much worse than cold ({cold_rate})"
        );
    }

    #[test]
    fn deterministic_simulation() {
        let a = run_engine(EngineKind::TraceCache, 4, 15_000);
        let b = run_engine(EngineKind::TraceCache, 4, 15_000);
        assert_eq!(a, b);
    }
}
