//! Instruction-stream extraction (the paper's §1 definition).
//!
//! > *"An instruction stream is a sequential run of instructions, from the
//! > target of a taken branch, to the next taken branch."*
//!
//! A stream is identified by its **starting address and length** alone; the
//! behaviour of embedded branches is implicit (all not taken, terminator
//! taken). [`StreamExtractor`] segments a committed-path trace into streams;
//! it is both the analysis tool behind the paper's workload characterization
//! (Table 1's "size" column) and the reference implementation of the
//! commit-side *stream builder* the fetch engine uses to train its
//! next-stream predictor.

use sfetch_isa::{Addr, BranchKind};
use sfetch_tab::FnvMap;

use crate::record::DynInst;

/// Maximum stream length in instructions; longer sequential runs are split,
/// matching the bounded length field of a next-stream-predictor entry.
pub const MAX_STREAM_LEN: u32 = 64;

/// One extracted instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stream {
    /// First instruction address (target of the previous taken branch).
    pub start: Addr,
    /// Length in instructions, including the terminating branch.
    pub len: u32,
    /// Kind of the terminating taken branch, or `None` when the stream was
    /// split by the [`MAX_STREAM_LEN`] cap (a *sequential* continuation).
    pub term: Option<BranchKind>,
    /// Start address of the following stream.
    pub next: Addr,
}

/// Online stream segmentation of a dynamic instruction sequence.
///
/// ```
/// use sfetch_trace::StreamExtractor;
///
/// let mut ex = StreamExtractor::new();
/// // feed DynInst records with ex.push(&inst) and collect returned streams…
/// assert_eq!(ex.in_flight_len(), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamExtractor {
    start: Option<Addr>,
    len: u32,
}

impl StreamExtractor {
    /// Creates an extractor; the first pushed instruction opens a stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Instructions accumulated in the currently open stream.
    pub fn in_flight_len(&self) -> u32 {
        self.len
    }

    /// Feeds one committed instruction; returns the completed stream if this
    /// instruction closed one.
    pub fn push(&mut self, d: &DynInst) -> Option<Stream> {
        let start = *self.start.get_or_insert(d.pc);
        self.len += 1;
        if let Some(c) = d.control {
            if c.taken {
                let s = Stream { start, len: self.len, term: Some(c.kind), next: c.next_pc };
                self.start = Some(c.next_pc);
                self.len = 0;
                return Some(s);
            }
        }
        if self.len >= MAX_STREAM_LEN {
            let next = d.next_pc();
            let s = Stream { start, len: self.len, term: None, next };
            self.start = Some(next);
            self.len = 0;
            return Some(s);
        }
        None
    }

    /// Restarts stream accumulation at `addr` — used by the commit-side
    /// builder to begin a *partial stream* at a misprediction target
    /// (paper §1: partial streams keep stream semantics across recoveries).
    pub fn restart_at(&mut self, addr: Addr) {
        self.start = Some(addr);
        self.len = 0;
    }
}

/// Aggregate statistics over extracted streams.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamStats {
    /// Number of streams observed.
    pub count: u64,
    /// Total instructions covered.
    pub insts: u64,
    /// Longest stream seen.
    pub max_len: u32,
    /// Histogram over length buckets `1-8, 9-16, 17-24, 25-32, 33+`.
    pub hist: [u64; 5],
    // FNV-keyed: hit once per extracted stream on the commit path.
    unique: FnvMap<(Addr, u32), u64>,
}

impl StreamStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one stream.
    pub fn add(&mut self, s: &Stream) {
        self.count += 1;
        self.insts += u64::from(s.len);
        self.max_len = self.max_len.max(s.len);
        let bucket = match s.len {
            0..=8 => 0,
            9..=16 => 1,
            17..=24 => 2,
            25..=32 => 3,
            _ => 4,
        };
        self.hist[bucket] += 1;
        *self.unique.entry((s.start, s.len)).or_insert(0) += 1;
    }

    /// Mean stream length in instructions (the paper's Table 1 "size").
    pub fn mean_len(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.insts as f64 / self.count as f64
        }
    }

    /// Number of distinct `(start, len)` stream identities — the working set
    /// a next-stream predictor must hold.
    pub fn unique_streams(&self) -> usize {
        self.unique.len()
    }

    /// Fraction of dynamic instructions covered by the `n` hottest streams —
    /// the locality a small predictor exploits.
    pub fn coverage_of_top(&self, n: usize) -> f64 {
        if self.insts == 0 {
            return 0.0;
        }
        let mut v: Vec<(u64, u32)> =
            self.unique.iter().map(|(&(_, len), &cnt)| (cnt, len)).collect();
        v.sort_by(|a, b| (b.0 * u64::from(b.1)).cmp(&(a.0 * u64::from(a.1))));
        let covered: u64 = v.iter().take(n).map(|&(cnt, len)| cnt * u64::from(len)).sum();
        covered as f64 / self.insts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::DynControl;
    use sfetch_isa::{InstClass, StaticInst};

    fn alu(pc: u64) -> DynInst {
        DynInst {
            seq: 0,
            pc: Addr::new(pc),
            inst: StaticInst::simple(InstClass::IntAlu),
            mem_addr: None,
            control: None,
        }
    }

    fn branch(pc: u64, taken: bool, target: u64) -> DynInst {
        DynInst {
            seq: 0,
            pc: Addr::new(pc),
            inst: StaticInst::branch(BranchKind::Cond),
            mem_addr: None,
            control: Some(DynControl {
                kind: BranchKind::Cond,
                taken,
                target: Addr::new(target),
                next_pc: Addr::new(if taken { target } else { pc + 4 }),
                is_fixup: false,
            }),
        }
    }

    #[test]
    fn taken_branch_closes_stream() {
        let mut ex = StreamExtractor::new();
        assert_eq!(ex.push(&alu(0x100)), None);
        assert_eq!(ex.push(&alu(0x104)), None);
        let s = ex.push(&branch(0x108, true, 0x200)).expect("stream closed");
        assert_eq!(s.start, Addr::new(0x100));
        assert_eq!(s.len, 3);
        assert_eq!(s.term, Some(BranchKind::Cond));
        assert_eq!(s.next, Addr::new(0x200));
    }

    #[test]
    fn not_taken_branches_are_embedded() {
        let mut ex = StreamExtractor::new();
        ex.push(&alu(0x100));
        assert_eq!(ex.push(&branch(0x104, false, 0x300)), None, "embedded");
        ex.push(&alu(0x108));
        let s = ex.push(&branch(0x10c, true, 0x200)).expect("closed");
        assert_eq!(s.len, 4, "embedded branch counts toward stream length");
    }

    #[test]
    fn cap_splits_long_sequential_runs() {
        let mut ex = StreamExtractor::new();
        let mut emitted = Vec::new();
        for i in 0..(MAX_STREAM_LEN as u64 + 10) {
            if let Some(s) = ex.push(&alu(0x1000 + i * 4)) {
                emitted.push(s);
            }
        }
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].len, MAX_STREAM_LEN);
        assert_eq!(emitted[0].term, None);
        assert_eq!(emitted[0].next, Addr::new(0x1000 + u64::from(MAX_STREAM_LEN) * 4));
        assert_eq!(ex.in_flight_len(), 10);
    }

    #[test]
    fn restart_begins_partial_stream() {
        let mut ex = StreamExtractor::new();
        ex.push(&alu(0x100));
        ex.restart_at(Addr::new(0x500));
        let s = ex.push(&branch(0x500, true, 0x600)).expect("closed");
        assert_eq!(s.start, Addr::new(0x500), "partial stream starts at recovery point");
        assert_eq!(s.len, 1);
    }

    #[test]
    fn stats_aggregate() {
        let mut st = StreamStats::new();
        st.add(&Stream { start: Addr::new(0x100), len: 4, term: Some(BranchKind::Cond), next: Addr::new(0x200) });
        st.add(&Stream { start: Addr::new(0x100), len: 4, term: Some(BranchKind::Cond), next: Addr::new(0x200) });
        st.add(&Stream { start: Addr::new(0x300), len: 20, term: Some(BranchKind::Jump), next: Addr::new(0x400) });
        assert_eq!(st.count, 3);
        assert_eq!(st.insts, 28);
        assert!((st.mean_len() - 28.0 / 3.0).abs() < 1e-9);
        assert_eq!(st.max_len, 20);
        assert_eq!(st.unique_streams(), 2);
        assert_eq!(st.hist[0], 2);
        assert_eq!(st.hist[2], 1);
        // top-1 = the 20-inst stream: 20/28 coverage.
        assert!((st.coverage_of_top(1) - 20.0 / 28.0).abs() < 1e-9);
        assert!((st.coverage_of_top(10) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_is_independent_of_insert_order() {
        // Streams of 1..=64 instructions, each added 1..=3 times, so many
        // distinct streams tie on `count × len` (e.g. 2 × 4 and 1 × 8).
        let streams: Vec<Stream> = (0..400u64)
            .flat_map(|i| {
                let len = (i * 7 % 64) as u32 + 1;
                let start = Addr::new(0x1000 + i * 0x40);
                let s = Stream { start, len, term: None, next: Addr::NULL };
                std::iter::repeat_n(s, (i % 3) as usize + 1)
            })
            .collect();
        let (mut fwd, mut rev) = (StreamStats::new(), StreamStats::new());
        streams.iter().for_each(|s| fwd.add(s));
        streams.iter().rev().for_each(|s| rev.add(s));
        assert_eq!(fwd, rev);
        assert_eq!(fwd.unique_streams(), 400);
        for n in 0..=401 {
            let (f, r) = (fwd.coverage_of_top(n), rev.coverage_of_top(n));
            assert_eq!(f.to_bits(), r.to_bits(), "top {n}");
        }
    }

    #[test]
    fn empty_stats_are_zero() {
        let st = StreamStats::new();
        assert_eq!(st.mean_len(), 0.0);
        assert_eq!(st.coverage_of_top(5), 0.0);
    }
}
