//! The trace cache front-end (§2.2, Table 2): next trace predictor,
//! a 32KB 2-way trace cache with **selective trace storage**, and a
//! secondary path (backup BTB + gshare over the instruction cache).
//!
//! Traces are built by the commit-side fill unit: up to 16 instructions,
//! at most 3 conditional branches, ending early at RAS-affecting or
//! indirect control (calls/returns/indirect jumps). Selective trace
//! storage (the paper's ref. \[29\]: red/blue traces) skips traces with no *interior* taken
//! branch — the wide-line instruction cache supplies those equally well,
//! so storing them would only waste trace-cache capacity.
//!
//! On a predicted trace that misses the trace cache, the engine rebuilds
//! the trace path from the instruction cache using the predicted branch
//! directions, one fetch block per cycle — the classic partial-hit
//! behaviour. On a trace-predictor miss it falls back to one
//! BTB/gshare-predicted fetch block per cycle.

use sfetch_cfg::CodeImage;
use sfetch_isa::{Addr, BranchKind};
use sfetch_mem::MemoryHierarchy;
use sfetch_predictors::{
    AssocTable, Btb, GlobalHistory, Gshare, NextTracePredictor, Ras, TraceId,
    TracePredictorConfig,
};
use sfetch_predictors::trace_pred::TraceUpdate;
use sfetch_prefetch::{Lookahead, PrefetchConfig};

use crate::bundle::{
    BranchPrediction, Checkpoint, CommittedInst, FetchedInst, ResolvedBranch,
};
use crate::engine::{warm_reader, warm_writer, FetchEngine, FetchEngineStats};
use crate::front::FrontPipeline;
use crate::port::IcachePort;

/// Maximum trace length in instructions (16-wide trace lines).
pub const MAX_TRACE: usize = 16;
/// Maximum conditional branches per trace.
pub const MAX_COND: u8 = 3;

/// One trace-cache line: the recorded instruction path.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TraceLine {
    len: u8,
    n_cond: u8,
    dirs: u8,
    pcs: Vec<Addr>,
    term: Option<BranchKind>,
    next: Addr,
}

impl Default for TraceLine {
    fn default() -> Self {
        TraceLine { len: 0, n_cond: 0, dirs: 0, pcs: Vec::new(), term: None, next: Addr::NULL }
    }
}

/// Active multi-cycle delivery state (a trace from the TC, or a predicted
/// trace being rebuilt from the I-cache).
#[derive(Debug, Clone)]
struct Delivering {
    cur_pc: Addr,
    remaining: u8,
    dirs_left: u8,
    term: Option<BranchKind>,
    next: Addr,
    /// `true`: instructions come from the trace cache (no I-cache access);
    /// `false`: rebuilt from the I-cache, one fetch block per cycle.
    from_tc: bool,
    path_cp: sfetch_predictors::PathSnapshot,
    total_len: u8,
}

/// Commit-side fill unit state.
#[derive(Debug, Clone, Default)]
struct FillUnit {
    start: Option<Addr>,
    pcs: Vec<Addr>,
    dirs: u8,
    n_cond: u8,
    mispredicted: bool,
    /// Whether any *interior* instruction was a taken branch.
    interior_taken: bool,
}

/// The trace cache fetch engine.
#[derive(Debug)]
pub struct TraceCacheEngine {
    width: usize,
    pred: NextTracePredictor,
    tc: AssocTable<TraceLine>,
    backup_btb: Btb,
    backup_dir: Gshare,
    ghist: GlobalHistory,
    ras: Ras,
    pc: Addr,
    delivering: Option<Delivering>,
    port: IcachePort,
    fill: FillUnit,
    /// Speculative pseudo-trace accumulation over the backup path, applying
    /// the fill unit's closing rules so the speculative path register stays
    /// aligned with the retired one across trace-predictor misses.
    spec_fill: Option<(Addr, u8, u8)>,
    selective: bool,
    shadow: bool,
    stats: FetchEngineStats,
}

impl TraceCacheEngine {
    /// Builds the engine with the Table 2 configuration: 32KB 2-way trace
    /// cache, cascaded 1K/4K next trace predictor (DOLC 9-4-7-9, 8-entry
    /// RHS), 1K×4 backup BTB, 16K-entry gshare, selective trace storage on.
    pub fn table2(width: usize, entry: Addr) -> Self {
        Self::new(width, entry, true)
    }

    /// Builds the engine with selective trace storage toggled (ablation C).
    pub fn new(width: usize, entry: Addr, selective: bool) -> Self {
        // 32KB / (16 insts * 4B) = 512 lines, 2-way => 256 sets.
        TraceCacheEngine {
            width,
            pred: NextTracePredictor::new(TracePredictorConfig::table2()),
            tc: AssocTable::new(256, 2),
            backup_btb: Btb::new(1024, 4),
            backup_dir: Gshare::new(16 * 1024, 12),
            ghist: GlobalHistory::new(),
            ras: Ras::new(8),
            pc: entry,
            delivering: None,
            port: IcachePort::blocking(),
            fill: FillUnit::default(),
            spec_fill: None,
            selective,
            shadow: false,
            stats: FetchEngineStats::default(),
        }
    }

    /// Attaches an I-cache prefetch configuration (builder-style). The
    /// trace-cache engine's lookahead is the active trace's *next-trace*
    /// address plus the rebuild/backup fetch cursor.
    pub fn with_prefetch(mut self, pf: &PrefetchConfig) -> Self {
        self.port = IcachePort::from_config(pf);
        self
    }

    /// Applies a front-pipeline model (builder-style). The engine consumes
    /// only the shadow-branch-discovery switch; the timing knobs live in
    /// the processor.
    pub fn with_front(mut self, front: &FrontPipeline) -> Self {
        self.shadow = front.shadow_decode;
        self
    }

    /// Decode-time shadow-branch discovery on the backup path: the whole
    /// I-cache line was read, so decode can see direct unconditional
    /// branches past the block's exit point. Pre-install them into the
    /// backup BTB so their first encounter doesn't misfetch. `probe` first
    /// keeps already-resident entries' LRU state untouched. Trace-path
    /// deliveries carry exact recorded paths and need no discovery.
    fn shadow_scan(&mut self, image: &CodeImage, mut pc: Addr, line_base: Addr, line: u64) {
        while pc.line_base(line) == line_base {
            let Some(ii) = image.inst_at(pc) else { break };
            if let Some(attr) = ii.control {
                if matches!(attr.kind, BranchKind::Jump | BranchKind::Call) {
                    if let Some(target) = attr.target {
                        if self.backup_btb.probe(pc).is_none() {
                            self.backup_btb.update(pc, target, attr.kind);
                            self.stats.shadow_installs += 1;
                        }
                    }
                }
            }
            pc = pc.next_inst();
        }
    }

    fn drive_prefetch(&mut self, now: u64, mem: &mut MemoryHierarchy) {
        if !self.port.has_prefetcher() {
            return;
        }
        let (demand, predicted_next) = match &self.delivering {
            Some(d) => ((!d.from_tc).then_some(d.cur_pc), Some(d.next)),
            None => (Some(self.pc), None),
        };
        let ctx = Lookahead {
            demand,
            queued: &[],
            predicted_next,
            line_bytes: mem.l1i_line_bytes(),
        };
        self.port.drive(now, mem, &ctx);
    }

    /// Advances the speculative pseudo-trace over one backup-path
    /// instruction, pushing the path register at fill-rule boundaries.
    fn spec_fill_step(&mut self, pc: Addr, kind: Option<BranchKind>) {
        let (start, mut n, mut n_cond) = match self.spec_fill {
            Some(s) => s,
            None => (pc, 0, 0),
        };
        n += 1;
        if kind == Some(BranchKind::Cond) {
            n_cond += 1;
        }
        let closes = n as usize >= MAX_TRACE
            || n_cond >= MAX_COND && kind == Some(BranchKind::Cond)
            || matches!(
                kind,
                Some(BranchKind::Return)
                    | Some(BranchKind::IndirectCall)
                    | Some(BranchKind::IndirectJump)
            );
        if closes {
            self.pred.notify_fetch(
                TraceId { start, dirs: 0, n_cond },
                kind,
            );
            self.spec_fill = None;
        } else {
            self.spec_fill = Some((start, n, n_cond));
        }
    }

    #[inline]
    fn tc_key(id: &TraceId) -> (u64, u64) {
        let word = id.start.get() >> 2;
        let index = word;
        let tag = (word << 11) | (u64::from(id.n_cond) << 8) | u64::from(id.dirs);
        (index, tag)
    }

    /// Delivers from the active trace (TC or rebuild mode). Returns whether
    /// delivery should stop this cycle.
    fn deliver_trace(
        &mut self,
        now: u64,
        image: &CodeImage,
        mem: &mut MemoryHierarchy,
        out: &mut Vec<FetchedInst>,
    ) {
        let mut d = self.delivering.take().expect("delivering");
        let line_bytes = mem.l1i_line_bytes();
        if !d.from_tc {
            // Rebuild mode pays an I-cache access for the current block.
            if !self.port.demand(now, mem, d.cur_pc, &mut self.stats) {
                self.delivering = Some(d);
                return;
            }
        }
        let block_line = d.cur_pc.line_base(line_bytes);
        let mut delivered = 0;
        while delivered < self.width && d.remaining > 0 {
            if !d.from_tc && d.cur_pc.line_base(line_bytes) != block_line {
                // One line per cycle on the rebuild path.
                break;
            }
            let pc = d.cur_pc;
            let Some(ii) = image.inst_at(pc) else {
                // Wrong path off the image.
                self.delivering = None;
                return;
            };
            let is_term_slot = d.remaining == 1;
            let mut next_pc = pc.next_inst();
            let mut ends_block = false;
            // Checkpoint state *before* this instruction's own speculative
            // updates, so redirect + push-actual reconstructs history.
            let ghist_pre = self.ghist.snapshot();
            let pred = match ii.control {
                None => None,
                Some(attr) => {
                    let (taken, target) = if is_term_slot {
                        match d.term {
                            Some(BranchKind::Cond) => {
                                let dir = d.dirs_left & 1 == 1;
                                d.dirs_left >>= 1;
                                self.ghist.push_spec(dir);
                                (dir, if dir { d.next } else { attr.target.unwrap_or(Addr::NULL) })
                            }
                            // Terminator RAS operations happen here, at
                            // delivery, where the branch's true pc is known
                            // — traces are non-sequential, so the return
                            // address is `pc + 4`, NOT `start + len`.
                            Some(BranchKind::Call) | Some(BranchKind::IndirectCall) => {
                                self.ras.push(pc.next_inst());
                                (true, d.next)
                            }
                            Some(BranchKind::Return) => {
                                let t = self.ras.pop();
                                d.next = t;
                                (true, t)
                            }
                            Some(_) => (true, d.next),
                            None => {
                                // Trace split at the cap: embedded semantics.
                                if attr.kind == BranchKind::Cond {
                                    self.ghist.push_spec(false);
                                }
                                (false, attr.target.unwrap_or(Addr::NULL))
                            }
                        }
                    } else {
                        match attr.kind {
                            BranchKind::Cond => {
                                let dir = d.dirs_left & 1 == 1;
                                d.dirs_left >>= 1;
                                self.ghist.push_spec(dir);
                                (dir, attr.target.unwrap_or(Addr::NULL))
                            }
                            // Interior calls/returns can only appear when a
                            // predicted trace shape is stale (the fill unit
                            // ends traces at them). They still transfer
                            // control correctly, so no divergence flags
                            // them — the RAS must be maintained here or it
                            // silently skews and every later return pays.
                            BranchKind::Call | BranchKind::IndirectCall => {
                                self.ras.push(pc.next_inst());
                                (true, attr.target.unwrap_or(Addr::NULL))
                            }
                            BranchKind::Return => (true, self.ras.pop()),
                            _ => (true, attr.target.unwrap_or(Addr::NULL)),
                        }
                    };
                    if taken {
                        next_pc = target;
                        ends_block = true;
                    }
                    Some(BranchPrediction { taken, target })
                }
            };
            // RAS snapshot after this instruction's own op (terminator
            // push/pop included), before any younger speculation.
            let cp = Checkpoint { ghist: ghist_pre, path: d.path_cp, ras: self.ras.snapshot() };
            out.push(FetchedInst { pc, inst: ii.inst, pred, cp });
            d.cur_pc = next_pc;
            d.remaining -= 1;
            delivered += 1;
            if !d.from_tc && ends_block {
                // Block boundary: the rebuild path needs another cycle.
                break;
            }
        }
        if d.remaining == 0 {
            self.pc = d.next;
            self.stats.units += 1;
            self.stats.unit_insts += u64::from(d.total_len);
            self.delivering = None;
        } else {
            self.delivering = Some(d);
        }
    }

    /// Secondary path: one BTB/gshare-predicted fetch block from the
    /// I-cache (on trace-predictor misses).
    fn fetch_backup_block(
        &mut self,
        now: u64,
        image: &CodeImage,
        mem: &mut MemoryHierarchy,
        out: &mut Vec<FetchedInst>,
    ) {
        if !self.port.demand(now, mem, self.pc, &mut self.stats) {
            return;
        }
        let line = mem.l1i_line_bytes();
        let start = self.pc;
        let mut delivered = 0u64;
        let mut scan_from = start;
        while delivered < self.width as u64 {
            let pc = self.pc;
            if delivered > 0 && pc.line_base(line) != start.line_base(line) {
                break;
            }
            let Some(ii) = image.inst_at(pc) else { break };
            scan_from = pc.next_inst();
            let Some(attr) = ii.control else {
                out.push(FetchedInst { pc, inst: ii.inst, pred: None, cp: self.current_cp() });
                self.spec_fill_step(pc, None);
                self.pc = pc.next_inst();
                delivered += 1;
                continue;
            };
            self.spec_fill_step(pc, Some(attr.kind));
            let mut cp = self.current_cp();
            let Some(entry) = self.backup_btb.lookup(pc) else {
                out.push(FetchedInst {
                    pc,
                    inst: ii.inst,
                    pred: Some(BranchPrediction {
                        taken: false,
                        target: attr.target.unwrap_or(Addr::NULL),
                    }),
                    cp,
                });
                self.pc = pc.next_inst();
                delivered += 1;
                continue;
            };
            let (taken, target) = match attr.kind {
                BranchKind::Cond => {
                    let dir = self.backup_dir.predict(pc, self.ghist.spec());
                    self.ghist.push_spec(dir);
                    (dir, entry.target)
                }
                BranchKind::Call | BranchKind::IndirectCall => {
                    self.ras.push(pc.next_inst());
                    cp.ras = self.ras.snapshot();
                    let t = if attr.kind == BranchKind::Call {
                        attr.target.expect("direct call target")
                    } else {
                        entry.target
                    };
                    (true, t)
                }
                BranchKind::Return => {
                    let t = self.ras.pop();
                    cp.ras = self.ras.snapshot();
                    (true, t)
                }
                _ => (true, entry.target),
            };
            out.push(FetchedInst {
                pc,
                inst: ii.inst,
                pred: Some(BranchPrediction { taken, target }),
                cp,
            });
            delivered += 1;
            if taken {
                self.pc = target;
                break;
            }
            self.pc = pc.next_inst();
        }
        if delivered > 0 {
            self.stats.units += 1;
            self.stats.unit_insts += delivered;
            if self.shadow {
                self.shadow_scan(image, scan_from, start.line_base(line), line);
            }
        }
    }

    fn current_cp(&self) -> Checkpoint {
        Checkpoint {
            ghist: self.ghist.snapshot(),
            path: self.pred.snapshot(),
            ras: self.ras.snapshot(),
        }
    }

    /// Closes the fill-unit trace and trains the predictor / trace cache.
    fn close_fill(&mut self, next: Addr, term: Option<BranchKind>) {
        let f = std::mem::take(&mut self.fill);
        let Some(start) = f.start else { return };
        let len = f.pcs.len();
        if len == 0 {
            return;
        }
        let id = TraceId { start, dirs: f.dirs, n_cond: f.n_cond };
        self.pred.commit_trace(TraceUpdate {
            id,
            len: len as u8,
            term,
            next,
            mispredicted: f.mispredicted,
        });
        // Selective trace storage: only non-sequential ("red") traces enter
        // the trace cache.
        if !self.selective || f.interior_taken {
            let (index, tag) = Self::tc_key(&id);
            self.tc.insert_lru(
                index,
                tag,
                TraceLine {
                    len: len as u8,
                    n_cond: f.n_cond,
                    dirs: f.dirs,
                    pcs: f.pcs,
                    term,
                    next,
                },
            );
        }
        self.fill.start = Some(next);
    }
}

impl FetchEngine for TraceCacheEngine {
    fn name(&self) -> &'static str {
        "tcache"
    }

    fn width(&self) -> usize {
        self.width
    }

    fn cycle(
        &mut self,
        now: u64,
        image: &CodeImage,
        mem: &mut MemoryHierarchy,
        out: &mut Vec<FetchedInst>,
    ) {
        self.port.begin_cycle(now, mem);
        self.drive_prefetch(now, mem);
        if self.port.stalled(now, &mut self.stats) {
            return;
        }
        if self.delivering.is_some() {
            self.deliver_trace(now, image, mem, out);
            return;
        }
        let start = self.pc;
        self.stats.predictor_lookups += 1;
        match self.pred.predict(start) {
            Some(p) => {
                self.stats.predictor_hits += 1;
                // A predicted trace is a complete unit: drop any partial
                // backup-path pseudo-trace accumulation.
                self.spec_fill = None;
                // Checkpoint *after* the trace's path push: the commit-side
                // fill unit closes a (partial) trace with this start at a
                // recovery, so the restored register must include the push.
                self.pred.notify_fetch(p.id, p.term);
                let path_cp = self.pred.snapshot();
                let (index, tag) = Self::tc_key(&p.id);
                let hit = self.tc.lookup(index, tag).cloned();
                // Shape to deliver: the resident trace line on a hit, the
                // predictor's data on a miss (rebuilt from the I-cache).
                let (from_tc, eff_len, eff_dirs, eff_term) = match &hit {
                    Some(line) => {
                        self.stats.tc_hits += 1;
                        (true, line.len, line.dirs, line.term)
                    }
                    None => {
                        self.stats.tc_misses += 1;
                        (false, p.len, p.id.dirs, p.term)
                    }
                };
                // Terminator RAS operations are applied at delivery (where
                // the terminator's true pc is known); for return-terminated
                // traces `next` is patched with the popped address there.
                self.delivering = Some(Delivering {
                    cur_pc: start,
                    remaining: eff_len,
                    dirs_left: eff_dirs,
                    term: eff_term,
                    next: p.next,
                    from_tc,
                    path_cp,
                    total_len: eff_len,
                });
                self.deliver_trace(now, image, mem, out);
            }
            None => {
                self.fetch_backup_block(now, image, mem, out);
            }
        }
    }

    fn redirect(&mut self, now: u64, target: Addr, cp: &Checkpoint, resolved: &ResolvedBranch) {
        self.delivering = None;
        self.spec_fill = None;
        self.pc = target;
        self.pred.restore(cp.path);
        self.ghist.restore(cp.ghist);
        if resolved.kind == Some(BranchKind::Cond) {
            self.ghist.push_spec(resolved.taken);
        }
        self.ras.restore(cp.ras);
        self.port.redirect(now);
    }

    fn commit(&mut self, ci: &CommittedInst) {
        // Backup predictor training.
        if let Some(c) = ci.control {
            if c.kind == BranchKind::Cond {
                self.backup_dir.update(ci.pc, self.ghist.retired(), c.taken);
                self.ghist.push_retired(c.taken);
            }
            if c.taken {
                self.backup_btb.update(ci.pc, c.target, c.kind);
            }
        }
        // Fill unit.
        self.fill.start.get_or_insert(ci.pc);
        if self.fill.pcs.len() >= MAX_TRACE {
            // Shouldn't happen (closed eagerly below), but guard.
            let next = ci.pc;
            self.close_fill(next, None);
            self.fill.start = Some(ci.pc);
        }
        self.fill.pcs.push(ci.pc);
        self.fill.mispredicted |= ci.mispredicted;
        let mut close_kind: Option<Option<BranchKind>> = None;
        let mut next = ci.next_pc();
        if let Some(c) = ci.control {
            if c.kind == BranchKind::Cond {
                self.fill.dirs |= u8::from(c.taken) << self.fill.n_cond;
                self.fill.n_cond += 1;
            }
            match c.kind {
                // Trace packing keeps direct calls *inside* traces
                // (their targets are static, and delivery maintains the
                // RAS at the call's true pc); only data-dependent
                // control — returns and indirects — ends a trace.
                BranchKind::Return | BranchKind::IndirectCall | BranchKind::IndirectJump => {
                    close_kind = Some(Some(c.kind));
                }
                BranchKind::Cond if self.fill.n_cond >= MAX_COND => {
                    close_kind = Some(Some(c.kind));
                }
                _ => {}
            }
            if c.taken && close_kind.is_none() && self.fill.pcs.len() < MAX_TRACE {
                self.fill.interior_taken = true;
            }
            next = c.next_pc;
        }
        if close_kind.is_none() {
            if self.fill.pcs.len() >= MAX_TRACE {
                close_kind = Some(ci.control.map(|c| c.kind));
            } else if ci.mispredicted {
                // Close at recoveries so predictor training follows the
                // fetch-time trace boundaries.
                close_kind = Some(ci.control.map(|c| c.kind));
            }
        }
        if let Some(term) = close_kind {
            self.close_fill(next, term);
        }
    }

    fn stall_probe(&self) -> crate::StallCause {
        self.port.last_stall()
    }

    fn warm_state(&self) -> Vec<u8> {
        let mut w = warm_writer();
        self.pred.save_wire(&mut w);
        self.tc.save_wire_with(&mut w, &mut |w, line| {
            let TraceLine { len, n_cond, dirs, pcs, term, next } = line;
            w.u8(*len);
            w.u8(*n_cond);
            w.u8(*dirs);
            w.u64(pcs.len() as u64);
            for pc in pcs {
                w.addr(*pc);
            }
            w.branch_kind(*term);
            w.addr(*next);
        });
        self.backup_btb.save_wire(&mut w);
        self.backup_dir.save_wire(&mut w);
        self.ghist.save_wire(&mut w);
        self.ras.save_wire(&mut w);
        let FillUnit { start, pcs, dirs, n_cond, mispredicted, interior_taken } = &self.fill;
        w.bool(start.is_some());
        w.addr(start.unwrap_or(Addr::NULL));
        w.u64(pcs.len() as u64);
        for pc in pcs {
            w.addr(*pc);
        }
        w.u8(*dirs);
        w.u8(*n_cond);
        w.bool(*mispredicted);
        w.bool(*interior_taken);
        self.stats.save_wire(&mut w);
        w.into_bytes()
    }

    fn load_warm_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = warm_reader(bytes)?;
        self.pred.load_wire(&mut r)?;
        self.tc.load_wire_with(&mut r, &mut |r| {
            let len = r.u8()?;
            let n_cond = r.u8()?;
            let dirs = r.u8()?;
            let n = r.u64()? as usize;
            if n > MAX_TRACE {
                return Err(format!("trace line of {n} pcs exceeds MAX_TRACE"));
            }
            let mut pcs = Vec::with_capacity(n);
            for _ in 0..n {
                pcs.push(r.addr()?);
            }
            Ok(TraceLine { len, n_cond, dirs, pcs, term: r.branch_kind()?, next: r.addr()? })
        })?;
        self.backup_btb.load_wire(&mut r)?;
        self.backup_dir.load_wire(&mut r)?;
        self.ghist = GlobalHistory::load_wire(&mut r)?;
        self.ras.load_wire(&mut r)?;
        let has_start = r.bool()?;
        let start = r.addr()?;
        let n = r.u64()? as usize;
        if n > MAX_TRACE {
            return Err(format!("fill unit of {n} pcs exceeds MAX_TRACE"));
        }
        let mut pcs = Vec::with_capacity(n);
        for _ in 0..n {
            pcs.push(r.addr()?);
        }
        let dirs = r.u8()?;
        let n_cond = r.u8()?;
        if n_cond > MAX_COND {
            return Err(format!("fill unit of {n_cond} conditionals exceeds MAX_COND"));
        }
        self.fill = FillUnit {
            start: has_start.then_some(start),
            pcs,
            dirs,
            n_cond,
            mispredicted: r.bool()?,
            interior_taken: r.bool()?,
        };
        self.stats = FetchEngineStats::load_wire(&mut r)?;
        r.finish()
    }

    fn stats(&self) -> FetchEngineStats {
        self.stats
    }

    fn storage_bits(&self) -> u64 {
        // Trace cache: 512 lines x 16 insts x 32 bits data + tag/state,
        // plus predictor structures — the paper's "high cost" column.
        let tc_bits = 512 * (16 * 32 + 30 + 11 + 2);
        tc_bits
            + self.pred.storage_bits()
            + self.backup_btb.storage_bits()
            + self.backup_dir.storage_bits()
            + self.ras.storage_bits()
            + self.port.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::CommittedControl;
    use sfetch_cfg::builder::CfgBuilder;
    use sfetch_cfg::{layout, CondBehavior, TripCount};
    use sfetch_mem::MemoryConfig;

    /// Two-block loop with an interior taken branch: a -> (jump) b -> (cond
    /// back to a). Traces over it are non-sequential, so they are stored.
    fn two_block_loop() -> (sfetch_cfg::Cfg, CodeImage) {
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let a = bld.add_block(f, 3);
        let pad = bld.add_block(f, 5); // separates a and b physically
        let b = bld.add_block(f, 3);
        let exit = bld.add_block(f, 1);
        bld.set_jump(a, b);
        bld.set_return(pad);
        bld.set_cond(b, a, exit, CondBehavior::Loop { trip: TripCount::Fixed(1 << 30) });
        bld.set_return(exit);
        let cfg = bld.finish().expect("valid");
        let img = CodeImage::build(&cfg, &layout::natural(&cfg));
        (cfg, img)
    }

    /// Commits one full loop iteration: a(3) jump b(3) cond->a.
    fn commit_iteration(eng: &mut TraceCacheEngine, img: &CodeImage, a: Addr, b: Addr) {
        for i in 0..3u64 {
            eng.commit(&CommittedInst { pc: a.offset_insts(i), control: None, mispredicted: false });
        }
        eng.commit(&CommittedInst {
            pc: a.offset_insts(3),
            control: Some(CommittedControl {
                kind: BranchKind::Jump,
                taken: true,
                target: b,
                next_pc: b,
                is_fixup: false,
            }),
            mispredicted: false,
        });
        for i in 0..3u64 {
            eng.commit(&CommittedInst { pc: b.offset_insts(i), control: None, mispredicted: false });
        }
        eng.commit(&CommittedInst {
            pc: b.offset_insts(3),
            control: Some(CommittedControl {
                kind: BranchKind::Cond,
                taken: true,
                target: a,
                next_pc: a,
                is_fixup: false,
            }),
            mispredicted: false,
        });
        let _ = img;
    }

    #[test]
    fn fill_unit_builds_and_stores_nonsequential_traces() {
        let (cfg, img) = two_block_loop();
        let a = img.block_addr(cfg.blocks()[0].id());
        let b = img.block_addr(cfg.blocks()[2].id());
        let mut eng = TraceCacheEngine::table2(8, img.entry());
        for _ in 0..8 {
            commit_iteration(&mut eng, &img, a, b);
        }
        assert!(eng.tc.occupancy() > 0, "non-sequential traces must be stored");
    }

    #[test]
    fn trained_engine_hits_trace_cache_and_delivers_across_blocks() {
        let (cfg, img) = two_block_loop();
        let a = img.block_addr(cfg.blocks()[0].id());
        let b = img.block_addr(cfg.blocks()[2].id());
        let mut mem = MemoryHierarchy::new(MemoryConfig::table2(8));
        let mut eng = TraceCacheEngine::table2(8, img.entry());
        for _ in 0..12 {
            commit_iteration(&mut eng, &img, a, b);
        }
        let mut out = Vec::new();
        for t in 0..300 {
            eng.cycle(t, &img, &mut mem, &mut out);
        }
        assert!(eng.stats().tc_hits > 0, "trace cache must hit after training");
        // A delivered trace spans the taken jump: instructions from both
        // blocks appear in order within a single unit.
        let a_pos = out.iter().position(|f| f.pc == a);
        let b_pos = out.iter().position(|f| f.pc == b);
        assert!(a_pos.is_some() && b_pos.is_some());
        // The jump inside the trace is predicted taken to b.
        let jmp = out.iter().find(|f| f.pc == a.offset_insts(3)).expect("jump fetched");
        let p = jmp.pred.expect("pred");
        assert!(p.taken);
        assert_eq!(p.target, b);
    }

    #[test]
    fn selective_storage_skips_sequential_traces() {
        // A purely sequential loop whose iteration is exactly one 16-inst
        // trace (15 body + latch): every trace is "blue" — with selective
        // storage the TC stays empty; without it, traces are stored.
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let body = bld.add_block(f, 15);
        let exit = bld.add_block(f, 1);
        bld.set_cond(body, body, exit, CondBehavior::Loop { trip: TripCount::Fixed(1 << 30) });
        bld.set_return(exit);
        let cfg = bld.finish().expect("valid");
        let img = CodeImage::build(&cfg, &layout::natural(&cfg));
        let commit_iter = |eng: &mut TraceCacheEngine| {
            for i in 0..15u64 {
                eng.commit(&CommittedInst {
                    pc: img.entry().offset_insts(i),
                    control: None,
                    mispredicted: false,
                });
            }
            eng.commit(&CommittedInst {
                pc: img.entry().offset_insts(15),
                control: Some(CommittedControl {
                    kind: BranchKind::Cond,
                    taken: true,
                    target: img.entry(),
                    next_pc: img.entry(),
                    is_fixup: false,
                }),
                mispredicted: false,
            });
        };
        let mut selective = TraceCacheEngine::new(8, img.entry(), true);
        let mut greedy = TraceCacheEngine::new(8, img.entry(), false);
        for _ in 0..8 {
            commit_iter(&mut selective);
            commit_iter(&mut greedy);
        }
        assert_eq!(selective.tc.occupancy(), 0, "blue traces are not stored");
        assert!(greedy.tc.occupancy() > 0, "without STS everything is stored");
    }

    #[test]
    fn fill_unit_respects_cond_limit() {
        let (_cfg, img) = two_block_loop();
        let mut eng = TraceCacheEngine::table2(8, img.entry());
        // Commit 5 consecutive taken conditionals at distinct pcs: traces
        // must close at 3 conditionals.
        for i in 0..5u64 {
            eng.commit(&CommittedInst {
                pc: img.entry().offset_insts(i * 2),
                control: None,
                mispredicted: false,
            });
            eng.commit(&CommittedInst {
                pc: img.entry().offset_insts(i * 2 + 1),
                control: Some(CommittedControl {
                    kind: BranchKind::Cond,
                    taken: true,
                    target: img.entry().offset_insts(i * 2 + 2),
                    next_pc: img.entry().offset_insts(i * 2 + 2),
                    is_fixup: false,
                }),
                mispredicted: false,
            });
        }
        // First trace: 6 insts (3 conds) — check the predictor learned it.
        // Keep committing the same pattern to train.
        for _ in 0..4 {
            for i in 0..5u64 {
                eng.commit(&CommittedInst {
                    pc: img.entry().offset_insts(i * 2),
                    control: None,
                    mispredicted: false,
                });
                eng.commit(&CommittedInst {
                    pc: img.entry().offset_insts(i * 2 + 1),
                    control: Some(CommittedControl {
                        kind: BranchKind::Cond,
                        taken: true,
                        target: img.entry().offset_insts(i * 2 + 2),
                        next_pc: img.entry().offset_insts(i * 2 + 2),
                        is_fixup: false,
                    }),
                    mispredicted: false,
                });
            }
        }
        let p = eng.pred.predict(img.entry());
        if let Some(p) = p {
            assert!(p.id.n_cond <= MAX_COND);
            assert!(p.len <= MAX_TRACE as u8);
        }
    }

    #[test]
    fn returns_end_traces() {
        let (_cfg, img) = two_block_loop();
        let mut eng = TraceCacheEngine::table2(8, img.entry());
        eng.commit(&CommittedInst { pc: img.entry(), control: None, mispredicted: false });
        eng.commit(&CommittedInst {
            pc: img.entry().offset_insts(1),
            control: Some(CommittedControl {
                kind: BranchKind::Return,
                taken: true,
                target: img.entry().offset_insts(40),
                next_pc: img.entry().offset_insts(40),
                is_fixup: false,
            }),
            mispredicted: false,
        });
        // The trace closed: training visible at the start address.
        for _ in 0..3 {
            eng.commit(&CommittedInst { pc: img.entry(), control: None, mispredicted: false });
            eng.commit(&CommittedInst {
                pc: img.entry().offset_insts(1),
                control: Some(CommittedControl {
                    kind: BranchKind::Return,
                    taken: true,
                    target: img.entry().offset_insts(40),
                    next_pc: img.entry().offset_insts(40),
                    is_fixup: false,
                }),
                mispredicted: false,
            });
            // follow-on instruction after the return target
            eng.commit(&CommittedInst {
                pc: img.entry().offset_insts(40),
                control: Some(CommittedControl {
                    kind: BranchKind::Jump,
                    taken: true,
                    target: img.entry(),
                    next_pc: img.entry(),
                    is_fixup: false,
                }),
                mispredicted: false,
            });
        }
        let p = eng.pred.predict(img.entry()).expect("trained");
        assert_eq!(p.term, Some(BranchKind::Return));
        assert_eq!(p.len, 2);
    }
}
