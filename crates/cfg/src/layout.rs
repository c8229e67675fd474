//! Code layout passes.
//!
//! The paper relies on *code layout optimizations* (§2.4): profile-guided
//! basic-block chaining and procedure placement in the style of Pettis &
//! Hansen (the `spike` tool). Their two effects are what the stream
//! front-end exploits:
//!
//! 1. **branch alignment** — the hot successor of a conditional branch is
//!    made the physical fall-through, so ~80% of branch *instances* become
//!    not-taken and streams grow long;
//! 2. **sequential packing** — hot code is contiguous, so wide cache lines
//!    are fully used and conflict misses drop.
//!
//! A [`Layout`] is just an ordering of blocks; the [`crate::CodeImage`]
//! materializes addresses, flips branch senses so the chained successor
//! falls through, inserts fix-up jumps for non-adjacent successors, and
//! elides jumps to adjacent targets.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sfetch_tab::FnvMap;

use crate::graph::{BlockId, Cfg, FuncId, Terminator};
use crate::profile::EdgeProfile;

/// Which pass produced a layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// Source (creation) order — the paper's *baseline* binaries.
    Natural,
    /// Profile-guided Pettis–Hansen chaining + procedure placement — the
    /// paper's *layout optimized* binaries.
    PettisHansen,
    /// Randomized block order — a pessimal layout used in ablations.
    Random,
}

impl std::fmt::Display for LayoutKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutKind::Natural => f.write_str("base"),
            LayoutKind::PettisHansen => f.write_str("optimized"),
            LayoutKind::Random => f.write_str("random"),
        }
    }
}

/// A total order over a program's basic blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    kind: LayoutKind,
    order: Vec<BlockId>,
}

impl Layout {
    /// The pass that produced this layout.
    pub fn kind(&self) -> LayoutKind {
        self.kind
    }

    /// Blocks in placement order.
    pub fn order(&self) -> &[BlockId] {
        &self.order
    }

    /// Validates that `order` is a permutation of the program's blocks.
    fn assert_permutation(&self, cfg: &Cfg) {
        let mut seen = vec![false; cfg.num_blocks()];
        for &b in &self.order {
            assert!(!seen[b.index()], "block {b} placed twice");
            seen[b.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "layout does not place every block");
    }
}

/// Source-order layout: blocks grouped by function, in creation order.
/// This is the paper's *baseline* binary.
pub fn natural(cfg: &Cfg) -> Layout {
    let mut order = Vec::with_capacity(cfg.num_blocks());
    for f in cfg.funcs() {
        order.extend_from_slice(f.blocks());
    }
    let l = Layout { kind: LayoutKind::Natural, order };
    l.assert_permutation(cfg);
    l
}

/// Randomized layout: functions shuffled and blocks shuffled within each
/// function. Used by ablation benches as a pessimal reference point.
pub fn random(cfg: &Cfg, seed: u64) -> Layout {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut fun_order: Vec<FuncId> = cfg.funcs().iter().map(|f| f.id()).collect();
    fun_order.shuffle(&mut rng);
    let mut order = Vec::with_capacity(cfg.num_blocks());
    for f in fun_order {
        let mut blocks = cfg.func(f).blocks().to_vec();
        blocks.shuffle(&mut rng);
        order.extend(blocks);
    }
    let l = Layout { kind: LayoutKind::Random, order };
    l.assert_permutation(cfg);
    l
}

/// Profile-guided Pettis–Hansen layout: bottom-up chain formation within
/// each function, hot-first chain ordering, and call-affinity procedure
/// placement. This is the paper's *layout optimized* binary (spike).
pub fn pettis_hansen(cfg: &Cfg, profile: &EdgeProfile) -> Layout {
    // --- 1. Per-function chaining ------------------------------------------------
    let mut func_layouts: FnvMap<FuncId, Vec<BlockId>> = FnvMap::default();
    for f in cfg.funcs() {
        func_layouts.insert(f.id(), chain_function(cfg, profile, f.id()));
    }

    // --- 2. Procedure placement by call affinity ---------------------------------
    let fun_order = order_functions(cfg, profile);

    let mut order = Vec::with_capacity(cfg.num_blocks());
    for f in fun_order {
        order.extend(func_layouts.remove(&f).expect("every function chained"));
    }
    let l = Layout { kind: LayoutKind::PettisHansen, order };
    l.assert_permutation(cfg);
    l
}

/// Forms chains of blocks within one function by merging along hot edges,
/// then emits the entry chain first and remaining chains by hotness.
fn chain_function(cfg: &Cfg, profile: &EdgeProfile, f: FuncId) -> Vec<BlockId> {
    let fun = cfg.func(f);
    let blocks = fun.blocks();

    // Collect layout-relevant edges: an edge (a, b) means "placing b right
    // after a removes a taken branch / fix-up jump".
    let mut edges: Vec<(BlockId, BlockId, u64)> = Vec::new();
    for &b in blocks {
        let blk = cfg.block(b);
        match blk.terminator() {
            Terminator::FallThrough { next } | Terminator::Jump { target: next } => {
                edges.push((b, *next, profile.edge_count(b, *next).max(1)));
            }
            Terminator::Cond { taken, not_taken, .. } => {
                edges.push((b, *taken, profile.edge_count(b, *taken)));
                edges.push((b, *not_taken, profile.edge_count(b, *not_taken)));
            }
            // The return point must follow the call instruction; give the
            // edge the block's own weight so it is chained early.
            Terminator::Call { ret_to, .. } | Terminator::IndirectCall { ret_to, .. } => {
                edges.push((b, *ret_to, profile.block_count(b).max(1) * 2));
            }
            Terminator::Return => {}
            Terminator::IndirectJump { targets, .. } => {
                for &(t, _) in targets {
                    edges.push((b, t, profile.edge_count(b, t)));
                }
            }
        }
    }
    edges.sort_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));

    // Union-find-ish chain structures.
    let mut chain_of: FnvMap<BlockId, usize> = FnvMap::default();
    let mut chains: Vec<Vec<BlockId>> = Vec::new();
    for &b in blocks {
        chain_of.insert(b, chains.len());
        chains.push(vec![b]);
    }
    for (a, b, w) in edges {
        if w == 0 || a == b {
            continue;
        }
        let ca = chain_of[&a];
        let cb = chain_of[&b];
        if ca == cb {
            continue;
        }
        // Merge only tail-of(ca) == a and head-of(cb) == b.
        if *chains[ca].last().expect("chains non-empty") != a
            || *chains[cb].first().expect("chains non-empty") != b
        {
            continue;
        }
        let tail = std::mem::take(&mut chains[cb]);
        for &blk in &tail {
            chain_of.insert(blk, ca);
        }
        chains[ca].extend(tail);
    }

    // Emit: entry chain first, then by total chain weight (descending), so
    // hot code packs together and cold blocks sink to the function's end.
    let entry_chain = chain_of[&fun.entry()];
    let mut rest: Vec<usize> = (0..chains.len())
        .filter(|&i| i != entry_chain && !chains[i].is_empty())
        .collect();
    let chain_weight = |i: usize| -> u64 {
        chains[i].iter().map(|&b| profile.block_count(b)).sum()
    };
    rest.sort_by(|&x, &y| chain_weight(y).cmp(&chain_weight(x)).then(x.cmp(&y)));

    let mut out = Vec::with_capacity(blocks.len());
    out.extend(&chains[entry_chain]);
    for i in rest {
        out.extend(&chains[i]);
    }
    out
}

/// Orders functions by call affinity: greedy merge of the hottest
/// caller/callee pairs (Pettis–Hansen "closest is best" simplification),
/// entry function first.
fn order_functions(cfg: &Cfg, profile: &EdgeProfile) -> Vec<FuncId> {
    let n = cfg.num_funcs();
    let mut seqs: Vec<Vec<FuncId>> = cfg.funcs().iter().map(|f| vec![f.id()]).collect();
    let mut seq_of: FnvMap<FuncId, usize> = cfg.funcs().iter().map(|f| (f.id(), f.id().index())).collect();

    let mut call_edges: Vec<(FuncId, FuncId, u64)> = profile.calls().collect();
    call_edges.sort_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));
    for (a, b, w) in call_edges {
        if w == 0 || a == b {
            continue;
        }
        let sa = seq_of[&a];
        let sb = seq_of[&b];
        if sa == sb {
            continue;
        }
        let tail = std::mem::take(&mut seqs[sb]);
        for &f in &tail {
            seq_of.insert(f, sa);
        }
        seqs[sa].extend(tail);
    }

    let entry_seq = seq_of[&cfg.entry()];
    let mut out = Vec::with_capacity(n);
    out.extend(&seqs[entry_seq]);
    let mut rest: Vec<usize> =
        (0..seqs.len()).filter(|&i| i != entry_seq && !seqs[i].is_empty()).collect();
    let seq_weight = |i: usize| -> u64 {
        seqs[i]
            .iter()
            .map(|&f| profile.block_count(cfg.func(f).entry()))
            .sum()
    };
    rest.sort_by(|&x, &y| seq_weight(y).cmp(&seq_weight(x)).then(x.cmp(&y)));
    for i in rest {
        out.extend(&seqs[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CfgBuilder;
    use crate::CondBehavior;

    /// main: a --cond(p_taken=.9)--> hot | cold ; both -> exit(ret)
    /// Natural order places `hot` (taken target) *after* cold only if created
    /// so; P-H must place `hot` right after `a`.
    fn hammock() -> (Cfg, BlockId, BlockId, BlockId) {
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let a = bld.add_block(f, 2);
        let cold = bld.add_block(f, 2); // created first after a => natural fallthrough
        let hot = bld.add_block(f, 2);
        let exit = bld.add_block(f, 1);
        bld.set_cond(a, hot, cold, CondBehavior::Bernoulli { p_taken: 0.9 });
        bld.set_fallthrough(cold, exit);
        bld.set_fallthrough(hot, exit);
        bld.set_return(exit);
        (bld.finish().expect("valid"), a, hot, cold)
    }

    #[test]
    fn natural_is_creation_order() {
        let (cfg, ..) = hammock();
        let l = natural(&cfg);
        assert_eq!(l.kind(), LayoutKind::Natural);
        let idx: Vec<usize> = l.order().iter().map(|b| b.index()).collect();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pettis_hansen_places_hot_successor_adjacent() {
        let (cfg, a, hot, _cold) = hammock();
        let p = EdgeProfile::from_expected(&cfg);
        let l = pettis_hansen(&cfg, &p);
        let pos = |b: BlockId| l.order().iter().position(|&x| x == b).expect("placed");
        assert_eq!(pos(hot), pos(a) + 1, "hot successor must fall through");
    }

    #[test]
    fn random_layout_is_a_permutation_and_deterministic() {
        let (cfg, ..) = hammock();
        let l1 = random(&cfg, 99);
        let l2 = random(&cfg, 99);
        assert_eq!(l1, l2);
        assert_eq!(l1.order().len(), cfg.num_blocks());
    }

    #[test]
    fn ph_handles_multi_function_programs() {
        use crate::gen::{GenParams, ProgramGenerator};
        let cfg = ProgramGenerator::new(GenParams::small(), 17).generate();
        let p = EdgeProfile::from_expected(&cfg);
        let l = pettis_hansen(&cfg, &p);
        assert_eq!(l.order().len(), cfg.num_blocks());
        // The entry function leads the image (its entry block may sit
        // mid-chain; calls/branches resolve it by address).
        assert_eq!(cfg.block(l.order()[0]).func(), cfg.entry());
    }

    #[test]
    fn ph_layout_is_independent_of_profile_insert_order() {
        use crate::gen::{GenParams, ProgramGenerator};
        let cfg = ProgramGenerator::new(GenParams::default_int(), 17).generate();
        // Count every block, edge and call of a static estimate 1–3 times
        // (so many weights tie), once forward and once in reverse order:
        // with this many call edges the two maps iterate differently.
        let est = EdgeProfile::from_expected(&cfg);
        let mut events: Vec<(u8, usize, usize)> = Vec::new();
        let times = |w: u64| w as usize % 3 + 1;
        for b in cfg.blocks() {
            let w = est.block_count(b.id());
            events.extend(std::iter::repeat_n((0, b.id().index(), 0), times(w)));
        }
        for (a, b, w) in est.edges() {
            events.extend(std::iter::repeat_n((1, a.index(), b.index()), times(w)));
        }
        for (f, g, w) in est.calls() {
            events.extend(std::iter::repeat_n((2, f.index(), g.index()), times(w)));
        }
        assert!(est.calls().count() > 16, "the program has call edges to order");
        let count = |events: &mut dyn Iterator<Item = &(u8, usize, usize)>| {
            let mut p = EdgeProfile::new();
            for &(kind, a, b) in events {
                match kind {
                    0 => p.count_block(BlockId::from_index(a)),
                    1 => p.count_edge(BlockId::from_index(a), BlockId::from_index(b)),
                    _ => p.count_call(FuncId::from_index(a), FuncId::from_index(b)),
                }
            }
            p
        };
        let fwd = count(&mut events.iter());
        let rev = count(&mut events.iter().rev());
        assert_eq!(fwd, rev, "same counts");
        assert_eq!(pettis_hansen(&cfg, &fwd), pettis_hansen(&cfg, &rev));
    }

    #[test]
    fn layout_kind_displays_paper_labels() {
        assert_eq!(LayoutKind::Natural.to_string(), "base");
        assert_eq!(LayoutKind::PettisHansen.to_string(), "optimized");
    }
}
