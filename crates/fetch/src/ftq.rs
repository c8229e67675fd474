//! The fetch target queue and the fetch-request update mechanism.
//!
//! The FTQ (Reinman, Austin, Calder; adopted in §3.3) decouples the
//! prediction pipeline from the I-cache access pipeline. With streams its
//! usefulness grows: the average request describes more than a cache line's
//! worth of instructions, so instead of splitting a request, the head entry
//! is **updated in place** each cycle — the start address advances and the
//! remaining length shrinks (Fig. 6) — until the stream is satisfied.

use sfetch_isa::{Addr, BranchKind};

use crate::bundle::Checkpoint;

/// One fetch request: a (possibly multi-cycle) run of sequential
/// instructions plus the terminator prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchRequest {
    /// Original start address of the unit (stream / fetch block).
    pub start: Addr,
    /// Next instruction address to fetch (advanced by the update
    /// mechanism).
    pub cur: Addr,
    /// Instructions remaining, including the terminator.
    pub remaining: u32,
    /// Predicted terminator kind. `None` means no terminating taken branch
    /// is predicted (sequential fallback or a cap-split stream): every
    /// branch inside is implicitly not-taken.
    pub term: Option<BranchKind>,
    /// Whether the terminator is predicted taken, set by the prediction
    /// stage: always for streams, which end at taken branches by
    /// construction; for an FTB block, whether `next` is not the
    /// terminator's fall-through. A terminator predicted not taken is
    /// delivered like an embedded branch. Unused when `term` is `None`.
    pub taken: bool,
    /// Predicted next fetch address after the unit (the terminator's
    /// target, RAS-resolved for returns; `start + len` for sequential).
    pub next: Addr,
    /// Whether a predictor produced this request (vs. sequential fallback).
    pub predicted: bool,
    /// Checkpoint for embedded (implicitly not-taken) branches: state
    /// *before* the terminator's RAS action.
    pub cp_embedded: Checkpoint,
    /// Checkpoint for the terminating branch: state *after* its RAS action,
    /// so recovery at the terminator itself preserves its architectural
    /// push/pop.
    pub cp_term: Checkpoint,
}

impl FetchRequest {
    /// Total predicted length of the unit in instructions.
    pub fn len(&self) -> u32 {
        self.remaining + self.cur.insts_since(self.start) as u32
    }

    /// Whether no instructions remain.
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }

    /// Address of the predicted terminating instruction.
    pub fn term_pc(&self) -> Addr {
        self.start.offset_insts(u64::from(self.len()) - 1)
    }

    /// Consumes `n` instructions: advances `cur`, shrinks `remaining`
    /// (Fig. 6's update mechanism).
    ///
    /// # Panics
    ///
    /// Panics if `n > remaining` (a fetch-engine bug).
    pub fn consume(&mut self, n: u32) {
        assert!(n <= self.remaining, "over-consuming fetch request");
        self.cur = self.cur.offset_insts(u64::from(n));
        self.remaining -= n;
    }
}

/// A bounded queue of fetch requests.
#[derive(Debug, Clone, Default)]
pub struct Ftq {
    entries: Vec<FetchRequest>,
    cap: usize,
}

impl Ftq {
    /// Creates an FTQ with `cap` entries (Table 2 uses 4).
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "FTQ needs at least one entry");
        Ftq { entries: Vec::with_capacity(cap), cap }
    }

    /// Whether another request fits.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.cap
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Enqueues a request.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (callers must check
    /// [`Ftq::has_space`]).
    pub fn push(&mut self, req: FetchRequest) {
        assert!(self.has_space(), "FTQ overflow");
        self.entries.push(req);
    }

    /// The head request, if any.
    pub fn head(&mut self) -> Option<&mut FetchRequest> {
        self.entries.first_mut()
    }

    /// The head request's current fetch address, if any (the address the
    /// I-cache stage demands next).
    pub fn head_addr(&self) -> Option<Addr> {
        self.entries.first().map(|r| r.cur)
    }

    /// Iterates the queued requests, head first (prefetch lookahead).
    pub fn iter(&self) -> impl Iterator<Item = &FetchRequest> {
        self.entries.iter()
    }

    /// Pops the (satisfied) head request.
    pub fn pop(&mut self) -> Option<FetchRequest> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries.remove(0))
        }
    }

    /// Clears all requests (redirect).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(start: u64, len: u32) -> FetchRequest {
        FetchRequest {
            start: Addr::new(start),
            cur: Addr::new(start),
            remaining: len,
            term: Some(BranchKind::Cond),
            taken: true,
            next: Addr::new(0x9000),
            predicted: true,
            cp_embedded: Checkpoint::default(),
            cp_term: Checkpoint::default(),
        }
    }

    #[test]
    fn update_mechanism_advances_in_place() {
        let mut r = req(0x1000, 20);
        assert_eq!(r.len(), 20);
        assert_eq!(r.term_pc(), Addr::new(0x1000 + 19 * 4));
        r.consume(8);
        assert_eq!(r.cur, Addr::new(0x1000 + 8 * 4));
        assert_eq!(r.remaining, 12);
        assert_eq!(r.len(), 20, "unit length is invariant");
        assert_eq!(r.term_pc(), Addr::new(0x1000 + 19 * 4));
        r.consume(12);
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "over-consuming")]
    fn over_consume_panics() {
        let mut r = req(0x1000, 4);
        r.consume(5);
    }

    #[test]
    fn queue_respects_capacity() {
        let mut q = Ftq::new(2);
        assert!(q.is_empty());
        q.push(req(0x1000, 4));
        q.push(req(0x2000, 4));
        assert!(!q.has_space());
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic(expected = "FTQ overflow")]
    fn overflow_panics() {
        let mut q = Ftq::new(1);
        q.push(req(0x1000, 4));
        q.push(req(0x2000, 4));
    }

    #[test]
    fn fifo_order_and_clear() {
        let mut q = Ftq::new(4);
        q.push(req(0x1000, 4));
        q.push(req(0x2000, 4));
        assert_eq!(q.head().expect("head").start, Addr::new(0x1000));
        let popped = q.pop().expect("pop");
        assert_eq!(popped.start, Addr::new(0x1000));
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
