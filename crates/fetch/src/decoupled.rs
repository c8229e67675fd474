//! The decoupled fetch front end shared by the FTB and stream engines.
//!
//! Both engines use the FTQ organization of §3.3: a prediction stage
//! pushes at most one fetch request per cycle into the [`Ftq`], and the
//! I-cache stage drains the head request up to the pipeline width or the
//! end of the cache line. The engines differ only in their prediction
//! stage and in how they form units at commit; everything between the
//! prediction cursor and the delivered instructions lives here, once.

use sfetch_cfg::CodeImage;
use sfetch_isa::Addr;
use sfetch_mem::MemoryHierarchy;
use sfetch_prefetch::{Lookahead, PrefetchConfig};

use crate::bundle::{BranchPrediction, Checkpoint, FetchedInst};
use crate::engine::FetchEngineStats;
use crate::ftq::{FetchRequest, Ftq};
use crate::port::{IcachePort, StallCause};

/// The FTQ, the I-cache port and the prediction cursor of a decoupled
/// front end.
#[derive(Debug)]
pub(crate) struct DecoupledFront {
    width: usize,
    ftq: Ftq,
    port: IcachePort,
    /// Start address of the next request the prediction stage makes.
    pred_pc: Addr,
    /// Reusable lookahead scratch for the prefetch drive stage.
    la_buf: Vec<(Addr, u32)>,
}

impl DecoupledFront {
    /// A front end of `width` starting prediction at `entry`, with an
    /// `ftq_entries`-deep FTQ and the blocking I-cache port.
    pub(crate) fn new(width: usize, entry: Addr, ftq_entries: usize) -> Self {
        DecoupledFront {
            width,
            ftq: Ftq::new(ftq_entries),
            port: IcachePort::blocking(),
            pred_pc: entry,
            la_buf: Vec::with_capacity(ftq_entries),
        }
    }

    /// Attaches an I-cache prefetch configuration.
    pub(crate) fn set_prefetch(&mut self, pf: &PrefetchConfig) {
        self.port = IcachePort::from_config(pf);
    }

    /// Pipeline width.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// The address the prediction stage looks up this cycle, or `None`
    /// when the FTQ has no room for another request.
    pub(crate) fn next_lookup(&self) -> Option<Addr> {
        self.ftq.has_space().then_some(self.pred_pc)
    }

    /// Enqueues a request from the prediction stage; prediction continues
    /// at its predicted next address.
    pub(crate) fn push(&mut self, req: FetchRequest) {
        self.ftq.push(req);
        self.pred_pc = req.next;
    }

    /// Sequential fallback on a predictor miss (§3.2): requests the rest
    /// of the cache line at the prediction cursor, with no terminator, and
    /// retries the predictor at the next line.
    pub(crate) fn push_sequential(&mut self, line_bytes: u64, cp: Checkpoint) {
        let start = self.pred_pc;
        let len = (start.insts_to_line_end(line_bytes) as u32).max(1);
        self.push(FetchRequest {
            start,
            cur: start,
            remaining: len,
            term: None,
            taken: false,
            next: start.offset_insts(u64::from(len)),
            predicted: false,
            cp_embedded: cp,
            cp_term: cp,
        });
    }

    /// The I-cache side of one cycle, run after the engine's prediction
    /// stage (which reads nothing this upkeep changes): port upkeep, the
    /// prefetch drive over the FTQ, then the fetch stage. Delivers up to
    /// `width` instructions of the FTQ head, never past its line end,
    /// into `out`, and returns the head request as it stood before this
    /// delivery. Returns `None` when nothing was fetched: stalled, FTQ
    /// empty, or the fetch ran off the image — then the FTQ is cleared and
    /// the front idles until the prediction stage or a redirect refills it.
    pub(crate) fn cycle(
        &mut self,
        now: u64,
        image: &CodeImage,
        mem: &mut MemoryHierarchy,
        stats: &mut FetchEngineStats,
        out: &mut Vec<FetchedInst>,
    ) -> Option<FetchRequest> {
        self.port.begin_cycle(now, mem);
        self.drive_prefetch(now, mem);
        if self.port.stalled(now, stats) {
            return None;
        }
        let req = *self.ftq.head()?;
        if !self.port.demand(now, mem, req.cur, stats) {
            return None;
        }
        let k = (self.width as u32)
            .min(req.remaining)
            .min(req.cur.insts_to_line_end(mem.l1i_line_bytes()) as u32)
            .max(1);
        let term_pc = req.term_pc();
        for i in 0..k {
            let pc = req.cur.offset_insts(u64::from(i));
            let Some(ii) = image.inst_at(pc) else {
                // Wrong path ran off the image: go idle until redirected.
                self.ftq.clear();
                return None;
            };
            let is_term = req.term.is_some() && pc == term_pc;
            let pred = ii.control.map(|attr| {
                if is_term && req.taken {
                    BranchPrediction { taken: true, target: req.next }
                } else {
                    // Embedded branches are implicitly not-taken (§3.2).
                    BranchPrediction { taken: false, target: attr.target.unwrap_or(Addr::NULL) }
                }
            });
            let cp = if is_term { req.cp_term } else { req.cp_embedded };
            out.push(FetchedInst { pc, inst: ii.inst, pred, cp });
        }
        let head = self.ftq.head().expect("head exists");
        head.consume(k);
        if head.is_empty() {
            let done = self.ftq.pop().expect("pop head");
            stats.units += 1;
            stats.unit_insts += u64::from(done.len());
        }
        Some(req)
    }

    /// Prefetch drive stage: hands the whole lookahead — every FTQ request
    /// (the head's unread tail included) and the prediction cursor — to
    /// the prefetcher (§3.3's lookahead argument).
    fn drive_prefetch(&mut self, now: u64, mem: &mut MemoryHierarchy) {
        if !self.port.has_prefetcher() {
            return;
        }
        self.la_buf.clear();
        self.la_buf.extend(self.ftq.iter().map(|r| (r.cur, r.remaining.max(1))));
        let ctx = Lookahead {
            demand: self.ftq.head_addr(),
            queued: &self.la_buf,
            predicted_next: Some(self.pred_pc),
            line_bytes: mem.l1i_line_bytes(),
        };
        self.port.drive(now, mem, &ctx);
    }

    /// Redirects fetch to `target`: drops every queued request, moves the
    /// prediction cursor and starts the port's one-cycle restart bubble.
    /// The engine restores its own predictor state.
    pub(crate) fn redirect(&mut self, now: u64, target: Addr) {
        self.ftq.clear();
        self.pred_pc = target;
        self.port.redirect(now);
    }

    /// Why the port delivered nothing during the current cycle.
    pub(crate) fn stall_probe(&self) -> StallCause {
        self.port.last_stall()
    }

    /// Storage cost of the attached prefetcher's tables in bits.
    pub(crate) fn storage_bits(&self) -> u64 {
        self.port.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfetch_cfg::builder::CfgBuilder;
    use sfetch_cfg::{layout, CondBehavior, TripCount};
    use sfetch_isa::BranchKind;
    use sfetch_mem::MemoryConfig;

    /// One 100-instruction block ending in a conditional back to itself,
    /// then a return; the I-cache holds every line of it.
    fn setup() -> (CodeImage, MemoryHierarchy) {
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let body = bld.add_block(f, 99);
        let exit = bld.add_block(f, 1);
        bld.set_cond(body, body, exit, CondBehavior::Loop { trip: TripCount::Fixed(1 << 30) });
        bld.set_return(exit);
        let cfg = bld.finish().expect("valid");
        let img = CodeImage::build(&cfg, &layout::natural(&cfg));
        let mut mem = MemoryHierarchy::new(MemoryConfig::table2(8));
        for i in 0..img.len_insts() as u64 {
            mem.inst_fetch(img.entry().offset_insts(i));
        }
        (img, mem)
    }

    fn req(start: Addr, len: u32, term: Option<BranchKind>, taken: bool, next: Addr) -> FetchRequest {
        FetchRequest {
            start,
            cur: start,
            remaining: len,
            term,
            taken,
            next,
            predicted: true,
            cp_embedded: Checkpoint { ghist: 1, ..Default::default() },
            cp_term: Checkpoint { ghist: 2, ..Default::default() },
        }
    }

    #[test]
    fn delivery_stops_at_width_and_line_end() {
        let (img, mut mem) = setup();
        let line = mem.l1i_line_bytes();
        assert_eq!(line, 128, "32 instructions per 8-wide line");
        let mut front = DecoupledFront::new(8, img.entry(), 4);
        let mut stats = FetchEngineStats::default();
        let mut out = Vec::new();
        // Start 4 instructions before a line end: the line caps the first
        // delivery at 4, the width caps the next at 8.
        let start = img.entry().line_base(line).offset_insts(32 + 28);
        front.push(req(start, 20, None, false, start.offset_insts(20)));
        let got = front.cycle(0, &img, &mut mem, &mut stats, &mut out).expect("fetched");
        assert_eq!((got.cur, got.remaining), (start, 20), "returns the request before delivery");
        assert_eq!(out.len(), 4);
        front.cycle(1, &img, &mut mem, &mut stats, &mut out).expect("fetched");
        assert_eq!(out.len(), 12);
        let pcs: Vec<Addr> = out.iter().map(|f| f.pc).collect();
        let want: Vec<Addr> = (0..12).map(|i| start.offset_insts(i)).collect();
        assert_eq!(pcs, want);
        assert_eq!(stats.units, 0, "the request is not finished yet");
        front.cycle(2, &img, &mut mem, &mut stats, &mut out).expect("fetched");
        assert_eq!((stats.units, stats.unit_insts), (1, 20), "last 8 finish the unit");
        assert!(front.cycle(3, &img, &mut mem, &mut stats, &mut out).is_none(), "FTQ drained");
        assert_eq!(out.len(), 20);
    }

    #[test]
    fn running_off_the_image_clears_the_ftq_until_a_redirect() {
        let (img, mut mem) = setup();
        let mut front = DecoupledFront::new(8, img.entry(), 4);
        let mut stats = FetchEngineStats::default();
        let mut out = Vec::new();
        // Two instructions left in the image, then nothing.
        let start = Addr::new(img.end().get() - 8);
        assert!(start.insts_to_line_end(mem.l1i_line_bytes()) > 2, "the line outlasts the image");
        front.push(req(start, 6, None, false, img.end().offset_insts(4)));
        front.push(req(img.entry(), 4, None, false, img.entry().offset_insts(4)));
        assert!(front.cycle(0, &img, &mut mem, &mut stats, &mut out).is_none());
        assert_eq!(out.len(), 2, "the in-image instructions are delivered");
        assert!(front.cycle(1, &img, &mut mem, &mut stats, &mut out).is_none());
        assert_eq!(out.len(), 2, "the queued request went with the FTQ");
        assert_eq!(stats.units, 0);
        front.redirect(2, img.entry());
        assert_eq!(front.next_lookup(), Some(img.entry()));
        front.push_sequential(mem.l1i_line_bytes(), Checkpoint::default());
        assert!(front.cycle(2, &img, &mut mem, &mut stats, &mut out).is_none(), "restart bubble");
        assert_eq!(front.stall_probe(), StallCause::Redirect);
        front.cycle(3, &img, &mut mem, &mut stats, &mut out).expect("fetched after redirect");
        assert_eq!(out[2].pc, img.entry());
    }

    #[test]
    fn terminator_prediction_follows_the_request_direction() {
        let (img, mut mem) = setup();
        let term_pc = img.entry().offset_insts(99);
        let fall = term_pc.next_inst();
        let target = img.inst_at(term_pc).and_then(|ii| ii.control).and_then(|c| c.target);
        assert_eq!(target, Some(img.entry()), "the loop branch targets the block");
        let mut stats = FetchEngineStats::default();
        let start = img.entry().offset_insts(96);
        let elsewhere = Addr::new(0x40_8000);
        // FTB: a conditional terminator predicted not taken keeps its
        // static target; streams: the terminator goes to `next`.
        for (taken, next, want) in [
            (false, fall, BranchPrediction { taken: false, target: img.entry() }),
            (true, elsewhere, BranchPrediction { taken: true, target: elsewhere }),
        ] {
            let mut front = DecoupledFront::new(8, start, 4);
            let mut out = Vec::new();
            front.push(req(start, 4, Some(BranchKind::Cond), taken, next));
            assert_eq!(front.next_lookup(), Some(next), "prediction continues at next");
            front.cycle(0, &img, &mut mem, &mut stats, &mut out).expect("fetched");
            let term = out.last().expect("terminator delivered");
            assert_eq!((term.pc, term.pred), (term_pc, Some(want)));
            assert_eq!(term.cp.ghist, 2, "the terminator carries cp_term");
            assert!(out[..3].iter().all(|f| f.cp.ghist == 1 && f.pred.is_none()));
        }
    }
}
